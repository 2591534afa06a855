import numpy as np
import pytest

import aslyap as al
from aslyap.fields import BoxInterpolator, gradient_field, hessian_field


def _field_from(expr, grid):
    cand = al.CandidateFunction(expr, grid.dim)
    return al.ScalarField(grid=grid, values=cand.value(grid.nodes()), name=expr)


def test_grid_validation():
    with pytest.raises(ValueError):
        al.Grid((0.0,), (1.0,), (2,))  # too few nodes
    with pytest.raises(ValueError):
        al.Grid((0.0,), (0.0,), (5,))  # empty extent
    g = al.Grid((-1.0,), (1.0,), (21,))
    assert g.rho == pytest.approx(0.2)  # default 2 * max spacing
    assert al.Grid((-1.0,), (1.0,), (21,), rho=0.0).rho == 0.0


def test_gradient_of_square_at_half():
    g = al.Grid((-1.0,), (1.0,), (41,))
    fld = _field_from("x1^2", g)
    grads = gradient_field(fld)
    i = np.argmin(np.abs(g.axes()[0] - 0.5))
    assert grads[i, 0] == pytest.approx(1.0, abs=1e-12)


def test_gradient_of_norm_at_unit_point():
    g = al.Grid((-2.0, -2.0), (2.0, 2.0), (41, 41))
    fld = _field_from("sqrt(x1^2 + x2^2)", g)
    grads = gradient_field(fld).reshape(-1, 2)
    nodes = g.nodes()
    i = np.argmin(np.linalg.norm(nodes - [1.0, 0.0], axis=1))
    h = max(g.spacing)
    assert grads[i] == pytest.approx([1.0, 0.0], abs=10 * h**2)


def test_gradient_matches_analytic_oracle(rotational):
    g = al.Grid((-1.0, -1.0), (1.0, 1.0), (81, 81))
    fld = _field_from("sqrt(x1^2 + x2^2)", g)
    grads = gradient_field(fld).reshape(-1, 2)
    nodes = g.nodes()
    r = np.linalg.norm(nodes, axis=1)
    interior = ~g.boundary_mask() & (r > 0.3)
    exact = nodes / np.where(r[:, None] == 0, 1, r[:, None])
    h = max(g.spacing)
    # |x| has curvature scale 1/r <= 1/0.3 on the tested band
    assert np.abs(grads - exact)[interior].max() <= 10 * h**2 / 0.3


def test_hessian_closed_forms():
    g1 = al.Grid((-1.0,), (1.0,), (41,))
    assert hessian_field(_field_from("x1^2", g1))[20, 0, 0] == pytest.approx(2.0, abs=1e-9)
    assert np.abs(hessian_field(_field_from("1 + 0*x1", g1))).max() <= 1e-12

    g2 = al.Grid((-2.0, -2.0), (2.0, 2.0), (81, 81))
    fld = _field_from("sqrt(x1^2 + x2^2)", g2)
    hess = hessian_field(fld).reshape(-1, 2, 2)
    nodes = g2.nodes()
    i = np.argmin(np.linalg.norm(nodes - [1.0, 0.0], axis=1))
    # (I - x x^T/|x|^2)/|x| at (1, 0)
    h = max(g2.spacing)
    assert np.allclose(hess[i], [[0.0, 0.0], [0.0, 1.0]], atol=20 * h**2)


def test_fd_convergence_order_at_least_1p9():
    errs = []
    hs = []
    for n in (21, 41, 81):
        g = al.Grid((-1.0, -1.0), (1.0, 1.0), (n, n))
        fld = _field_from("sin(x1)*exp(x2) + x1^3*x2", g)
        cand = al.CandidateFunction("sin(x1)*exp(x2) + x1^3*x2", 2)
        interior = ~g.boundary_mask()
        ga = cand.gradient(g.nodes())
        gf = gradient_field(fld).reshape(-1, 2)
        errs.append(np.abs(ga - gf)[interior].max())
        hs.append(max(g.spacing))
    order = np.log(errs[0] / errs[-1]) / np.log(hs[0] / hs[-1])
    assert order >= 1.9


def test_level_set_circle_oracle():
    g = al.Grid((-1.0, -1.0), (1.0, 1.0), (81, 81))
    fld = _field_from("x1^2 + x2^2", g)
    ls = al.extract_level_set(fld, 0.25)
    radii = np.linalg.norm(ls.coords, axis=1)
    h = max(g.spacing)
    assert np.all(np.abs(radii - 0.5) <= 2 * h)
    # normals point inward: against the radial direction
    unit = ls.coords / radii[:, None]
    pn = ls.normals / np.linalg.norm(ls.normals, axis=1)[:, None]
    cosines = np.einsum("ni,ni->n", pn, -unit)
    assert np.all(cosines >= np.cos(2 * h))  # angular error below 2h
    assert not ls.touches_boundary


def test_level_set_radial_normals_of_norm():
    g = al.Grid((-1.0, -1.0), (1.0, 1.0), (81, 81))
    fld = _field_from("sqrt(x1^2 + x2^2)", g)
    ls = al.extract_level_set(fld, 0.5)
    unit = ls.coords / np.linalg.norm(ls.coords, axis=1)[:, None]
    pn = ls.normals / np.linalg.norm(ls.normals, axis=1)[:, None]
    assert np.einsum("ni,ni->n", pn, -unit).min() >= np.cos(2 * max(g.spacing))


def test_level_below_minimum_is_an_error():
    g = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    fld = _field_from("x1^2 + x2^2", g)
    with pytest.raises(ValueError, match="range"):
        al.extract_level_set(fld, -0.5)


def test_level_touching_grid_boundary_is_flagged():
    g = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    fld = _field_from("x1^2 + x2^2", g)
    ls = al.extract_level_set(fld, 1.5)  # disk of radius ~1.22 pokes out of the box
    assert ls.touches_boundary
    assert ls.edge_flags.any()


def test_csv_round_trip():
    g = al.Grid((-1.0, -1.0), (1.0, 1.0), (11, 11))
    fld = _field_from("x1*x2", g)
    text = fld.to_csv()
    assert text.splitlines()[0] == "x1,x2,value"
    back = al.ScalarField.from_csv(text, g)
    assert np.array_equal(back.values, fld.values)


def _field_csv_per_row(fld):
    """The row-by-row writer ``ScalarField.to_csv`` replaced, kept as its reference."""
    lines = [",".join(f"x{i+1}" for i in range(fld.grid.dim)) + ",value"]
    for row, v in zip(fld.grid.nodes(), fld.flat):
        lines.append(",".join(repr(float(c)) for c in row) + f",{float(v)!r}")
    return "\n".join(lines) + "\n"


def test_field_csv_matches_a_row_by_row_reference():
    g = al.Grid((-1.0, -1.0), (-0.0, 1.0 / 3.0), (3, 5))  # the last x1 node is -0.0
    values = np.array([np.inf, -np.inf, np.nan, -0.0, 0.1 + 0.2, 1e-300, 5e-324, -1e16]
                      + [0.0] * 7)
    fld = al.ScalarField(grid=g, values=values)
    assert fld.to_csv() == _field_csv_per_row(fld)
    lines = fld.to_csv().splitlines()
    assert lines[1:5] == ["-1.0,-1.0,inf", "-1.0,-0.6666666666666667,-inf",
                          "-1.0,-0.33333333333333337,nan", "-1.0,0.0,-0.0"]
    assert lines[-1] == "-0.0,0.3333333333333333,0.0"
    smooth = _field_from("sin(x1) + x2^3", al.Grid((-1.0,) * 3, (1.0,) * 3, (7, 5, 6)))
    assert smooth.to_csv() == _field_csv_per_row(smooth)


def test_binary_round_trip():
    g = al.Grid((-1.0, 0.0), (1.0, 2.0), (9, 7))
    fld = _field_from("sin(x1) + x2", g)
    back = al.ScalarField.from_binary(fld.to_binary())
    assert back.grid == g
    assert np.array_equal(back.values, fld.values)


def test_interpolator_exact_on_multilinear_functions():
    g = al.Grid((-1.0, -1.0), (1.0, 1.0), (11, 11))
    fld = _field_from("2 + 3*x1 - x2 + 0.5*x1*x2", g)
    rng = np.random.Generator(np.random.Philox(key=4))
    pts = rng.uniform(-1, 1, size=(200, 2))
    vals = fld.interpolate(pts)
    exact = 2 + 3 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
    assert vals == pytest.approx(exact, abs=1e-12)


def test_interpolator_fill_outside_and_nonfinite():
    g = al.Grid((-1.0,), (1.0,), (11,))
    interp = BoxInterpolator(g)
    prep = interp.prepare(np.array([[0.5], [2.0], [np.nan]]))
    out = interp.apply(np.linspace(0, 1, 11), prep, fill=9.0)
    assert out[0] == pytest.approx(0.75)
    assert out[1] == 9.0 and out[2] == 9.0


def _reference_prepare(grid, points):
    """The stencil formula of ``BoxInterpolator.prepare``, written out once more."""
    points = np.asarray(points, dtype=float)
    flat_pts = points.reshape(-1, grid.dim)
    inside = grid.contains(flat_pts)
    lo, h, counts = np.asarray(grid.lower), np.asarray(grid.spacing), np.asarray(grid.counts)
    rel = (np.where(np.isfinite(flat_pts), flat_pts, lo) - lo) / h
    cell = np.clip(np.floor(rel).astype(np.int64), 0, counts - 2)
    frac = np.clip(rel - cell, 0.0, 1.0)
    strides = np.array([int(np.prod(counts[ax + 1:])) for ax in range(grid.dim)],
                       dtype=np.int64)
    idx, wts = [], []
    for c in range(2 ** grid.dim):
        corner = np.array([(c >> ax) & 1 for ax in range(grid.dim)], dtype=np.int64)
        idx.append((cell + corner) @ strides)
        w = np.ones(len(flat_pts))
        for ax in range(grid.dim):
            w = w * (frac[:, ax] if corner[ax] else 1.0 - frac[:, ax])
        wts.append(w)
    return np.stack(idx, axis=1), np.stack(wts, axis=1), inside, points.shape[:-1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_prepare_and_apply_match_the_reference_formula(dim):
    g = al.Grid((-1.0,) * dim, (1.0, 0.5, 2.0)[:dim], (11, 7, 5)[:dim])
    rng = np.random.Generator(np.random.Philox(key=dim))
    lo, up = np.asarray(g.lower), np.asarray(g.upper)
    nodes = g.nodes()
    special = [lo, up, up + 1e-13, up + 1e-9, lo - 1e-13, lo - 0.5, up + 2.0,
               np.full(dim, np.inf), np.full(dim, -np.inf), np.full(dim, np.nan)]
    mixed = np.tile(0.5 * (lo + up), (3, 1))
    mixed[:, -1] = [np.inf, -np.inf, np.nan]  # one bad coordinate of several
    pts = np.concatenate([rng.uniform(lo - 0.3, up + 0.3, size=(201, dim)),
                          nodes[rng.choice(len(nodes), 20)], np.array(special), mixed])
    interp = BoxInterpolator(g)
    for shape in [(len(pts),), (2, len(pts) // 2)]:
        got = interp.prepare(pts.reshape(*shape, dim))
        ref = _reference_prepare(g, pts.reshape(*shape, dim))
        for a, b in zip(got[:3], ref[:3]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[3] == ref[3] == shape
        values = rng.uniform(-1.0, 1.0, g.n_nodes)
        for fill in (0.0, 9.0, np.nan):
            expected = np.where(ref[2], np.einsum("nc,nc->n", values[ref[0]], ref[1]), fill)
            out = interp.apply(values, got, fill)
            assert out.shape == shape
            assert np.array_equal(out.ravel(), expected, equal_nan=True)
    assert got[2].sum() < len(pts) and got[2].any()  # the points hit both sides of the box


def test_interpolation_is_monotone_in_field_values():
    g = al.Grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
    interp = BoxInterpolator(g)
    rng = np.random.Generator(np.random.Philox(key=5))
    pts = rng.uniform(-1, 1, size=(100, 2))
    prep = interp.prepare(pts)
    lo = rng.uniform(0, 1, g.n_nodes)
    hi = lo + rng.uniform(0, 1, g.n_nodes)
    assert np.all(interp.apply(hi, prep, 0.0) >= interp.apply(lo, prep, 0.0))
