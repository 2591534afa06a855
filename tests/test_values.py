import numpy as np
import pytest

import aslyap as al
from aslyap.fields import BoxInterpolator
from aslyap.values import default_increments, max_drift_norm


def _inline(dynamics, n=1, m=1, controls="hold = 0.0", candidate="", domain=None):
    lower, upper = domain or ("-1" + ", -1" * (n - 1), "1" + ", 1" * (n - 1))
    return al.parse_model(
        f"[dimensions]\nstate = {n}\nnoise = {m}\n[controls]\n{controls}\n"
        f"[dynamics]\n{dynamics}\n"
        + (f"[candidate]\n{candidate}\n" if candidate else "")
        + f"[domain]\nlower = {lower}\nupper = {upper}\n"
    )


# ----------------------------------------------------------------- plumbing

def test_step_contraction(linear1d):
    out = al.step(linear1d.model, [1.0], 0, [0.0], dt=0.01)
    assert out == pytest.approx([0.99])


def test_step_rotational_with_kick(rotational):
    dt = 0.01
    w = np.sqrt(dt)
    out = al.step(rotational.model, [1.0, 0.0], 0, [w], dt=dt)
    # x + f dt + sigma w with f = -x and sigma(1,0) = (0, 1)
    assert out == pytest.approx([1.0 - dt, w])


def test_step_zero_increment_is_deterministic_euler(rotational):
    out = al.step(rotational.model, [0.3, 0.4], 0, [0.0], dt=0.02)
    assert out == pytest.approx([0.3 * 0.98, 0.4 * 0.98])


def test_default_increments_symmetric():
    w = default_increments(2, dt=0.04)
    assert w.shape == (5, 2)
    assert {tuple(r) for r in w} == {tuple(-r) for r in w}
    assert np.abs(w).max() == pytest.approx(0.2)


def test_scheme_validation(rotational):
    with pytest.raises(ValueError, match="symmetric"):
        al.RobustScheme(dt=0.01, increments=np.array([[0.1]]), cap=1.0)
    with pytest.raises(ValueError):
        al.RobustScheme(dt=-0.1, increments=np.array([[0.0]]), cap=1.0)
    sch = al.default_scheme(rotational.model, al.Grid((-1, -1), (1, 1), (21, 21)), cap=1.0)
    h = 0.1
    expected_dt = h / (2 * max_drift_norm(rotational.model,
                                          al.Grid((-1, -1), (1, 1), (21, 21))) + 1)
    assert sch.dt == pytest.approx(expected_dt)


# ---------------------------------------------------------------- sup value

def test_sup_value_1d_contraction_is_norm(linear1d):
    grid = al.Grid((-1.0,), (1.0,), (81,))
    scheme = al.default_scheme(linear1d.model, grid, cap=1.0)
    res = al.worst_case_sup_value(linear1d.model, grid, scheme)
    assert res.converged
    r = np.abs(grid.nodes()[:, 0])
    mask = r <= 0.8
    h = max(grid.spacing)
    assert np.abs(res.field.flat - r)[mask].max() <= 3 * (scheme.dt + h)


def test_sup_value_1d_expansion_saturates(unstable1d):
    grid = al.Grid((-1.0,), (1.0,), (81,))
    scheme = al.default_scheme(unstable1d.model, grid, cap=1.0)
    res = al.worst_case_sup_value(unstable1d.model, grid, scheme)
    r = np.abs(grid.nodes()[:, 0])
    h = max(grid.spacing)
    escaped = r > h * (1 - 1e-12)
    # convergence stops at the residual tolerance, not at the exact cap
    assert res.field.flat[escaped].min() >= 1.0 - 1e-3
    assert res.field.flat[r == 0] == pytest.approx(0.0)


def test_sup_value_rotational_is_norm(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (61, 61))
    scheme = al.default_scheme(rotational.model, grid, cap=1.0)
    res = al.worst_case_sup_value(rotational.model, grid, scheme)
    r = np.linalg.norm(grid.nodes(), axis=1)
    mask = r <= 0.8
    assert np.abs(res.field.flat - r)[mask].max() <= 5 * (scheme.dt + max(grid.spacing))


def test_sup_value_lower_bound_inside_cap(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41))
    scheme = al.default_scheme(rotational.model, grid, cap=1.0)
    res = al.worst_case_sup_value(rotational.model, grid, scheme)
    r = np.linalg.norm(grid.nodes(), axis=1)
    inside = r <= scheme.cap
    assert (res.field.flat - r)[inside].min() >= -1e-9


def test_sup_value_monotone_iterates(unstable2d):
    grid = al.Grid((-1.2, -1.2), (1.2, 1.2), (31, 31))
    scheme = al.default_scheme(unstable2d.model, grid, cap=1.0)
    res = al.worst_case_sup_value(unstable2d.model, grid, scheme, snapshot_every=5)
    assert res.converged
    prev = None
    for snap in res.snapshots:
        if prev is not None:
            assert (snap - prev).min() >= 0.0
        prev = snap
    assert res.field.flat.max() <= scheme.cap + 1e-15


def test_sup_value_zero_near_equilibrium(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41))
    scheme = al.default_scheme(rotational.model, grid, cap=1.0)
    res = al.worst_case_sup_value(rotational.model, grid, scheme)
    r = np.linalg.norm(grid.nodes(), axis=1)
    assert res.field.flat[r <= grid.rho].max() <= grid.rho + 1e-9


# ------------------------------------------------------------ integral value

def test_integral_value_1d_matches_analytic(linear1d):
    # int_0^inf |x| e^{-t} dt = |x|
    grid = al.Grid((-1.0,), (1.0,), (81,))
    scheme = al.default_scheme(linear1d.model, grid, cap=3.0)
    res = al.worst_case_integral_value(linear1d.model, grid, linear1d.gauge, scheme)
    assert res.converged
    r = np.abs(grid.nodes()[:, 0])
    h = max(grid.spacing)
    mask = r <= 0.8
    assert np.abs(res.field.flat - r)[mask].max() <= 3 * (scheme.dt + h)


def test_integral_value_zero_gauge_is_zero(linear1d):
    grid = al.Grid((-1.0,), (1.0,), (41,))
    scheme = al.default_scheme(linear1d.model, grid, cap=1.0)
    res = al.worst_case_integral_value(linear1d.model, grid,
                                       al.GaugeFunction.zero(), scheme)
    assert np.abs(res.field.flat).max() == 0.0


def test_integral_value_rotational(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (61, 61))
    h = max(grid.spacing)
    scheme = al.default_scheme(rotational.model, grid, cap=2.0, dt=h)
    res = al.worst_case_integral_value(rotational.model, grid, rotational.gauge,
                                       scheme, pin_radius=4 * h)
    r = np.linalg.norm(grid.nodes(), axis=1)
    mask = r <= 0.8
    assert np.abs(res.field.flat - r)[mask].max() <= 5 * (scheme.dt + h)


def test_integral_value_monotone_iterates(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (31, 31))
    scheme = al.default_scheme(rotational.model, grid, cap=2.0)
    res = al.worst_case_integral_value(rotational.model, grid, rotational.gauge,
                                       scheme, snapshot_every=10)
    prev = None
    for snap in res.snapshots:
        if prev is not None:
            assert (snap - prev).min() >= 0.0
        prev = snap
    r = np.linalg.norm(grid.nodes(), axis=1)
    assert res.field.flat[r <= grid.rho].max() == 0.0


# --------------------------------------------------------------- discounted

def test_discounted_prop_set_rotational(rotational):
    grid = al.Grid((-1.2, -1.2), (1.2, 1.2), (41, 41))
    scheme = al.default_scheme(rotational.model, grid, cap=1.0, dt=0.008)
    res, prop = al.discounted_value_and_prop_set(
        rotational.model, grid, K=1.0, lam=1.0, theta=10 * scheme.dt, scheme=scheme
    )
    r = np.linalg.norm(grid.nodes(), axis=1)
    h = max(grid.spacing)
    assert prop[r <= 1 - 2 * h].all()


def test_discounted_positive_beyond_K(rotational):
    grid = al.Grid((-1.2, -1.2), (1.2, 1.2), (41, 41))
    res, prop = al.discounted_value_and_prop_set(rotational.model, grid, K=0.5,
                                                 lam=1.0, theta=1e-3)
    r = np.linalg.norm(grid.nodes(), axis=1)
    outside = r > 0.5 + max(grid.spacing)
    assert res.field.flat[outside].min() > 0.0


def test_discounted_parameter_validation(rotational):
    grid = al.Grid((-1.2, -1.2), (1.2, 1.2), (21, 21))
    with pytest.raises(ValueError, match="lam"):
        al.discounted_value_and_prop_set(rotational.model, grid, K=1.0, lam=-1.0,
                                         theta=0.1)
    with pytest.raises(ValueError, match="theta"):
        al.discounted_value_and_prop_set(rotational.model, grid, K=1.0, lam=1.0,
                                         theta=0.0)
    with pytest.raises(ValueError, match="grid radius"):
        al.discounted_value_and_prop_set(rotational.model, grid, K=1.5, lam=1.0,
                                         theta=0.1)


# ------------------------------------------------ brute-force operator reference

def _brute_table(model, grid, scheme, values, fill, cost=None, mean=False):
    """Per control, the worst (or mean) next value over increments, read by a
    fresh BoxInterpolator stencil per (control, increment).

    With ``cost``, a read is cost(next) in closed form, capped, plus the
    interpolated excess ``values``, and the cap off the box.
    """
    interp = BoxInterpolator(grid)
    nodes = grid.nodes()
    rows = []
    for ai in range(model.n_controls):
        f = model.drift(nodes, ai)
        s = model.sigma(nodes, ai)
        acc = 0.0 if mean else None
        for w in scheme.increments:
            nxt = nodes + f * scheme.dt + s @ w
            st = interp.prepare(nxt)
            if cost is None:
                vals = interp.apply(values, st, fill=fill)
            else:
                vals = np.minimum(cost(nxt), scheme.cap) + interp.apply(values, st, fill=0.0)
                vals = np.where(grid.contains(nxt), vals, scheme.cap)
            if mean:
                acc = acc + vals
            else:
                acc = vals if acc is None else np.maximum(acc, vals)
        rows.append(acc / len(scheme.increments) if mean else acc)
    return np.stack(rows)


def _brute_min(table):
    out = table[0]
    for row in table[1:]:
        out = np.minimum(out, row)
    return out


def _norm(points):
    return np.linalg.norm(points, axis=-1)


_OPERATOR_CASES = [("bang1d", ((-1.0,), (1.0,), (41,))),
                   ("rotational", ((-1.0, -1.0), (1.0, 1.0), (21, 21)))]


@pytest.mark.parametrize("sweeps", [1, 3])
@pytest.mark.parametrize("name,box", _OPERATOR_CASES)
def test_operator_matches_brute_force(request, name, box, sweeps):
    # each iteration's sweeps (up to ``sweeps``; fewer once converged) must
    # equal the per-(control, increment) reference loop bit for bit
    pm = request.getfixturevalue(name)
    model = pm.model
    grid = al.Grid(*box)
    nodes = grid.nodes()

    # off center, the sup value on the rotational model exceeds the cost
    def cost(points):
        return np.abs(points[:, 0] - 0.3)

    scheme = al.default_scheme(model, grid, cap=1.0, max_iterations=sweeps)
    res = al.worst_case_sup_value(model, grid, scheme, cost=cost)
    floor = np.minimum(cost(nodes), scheme.cap)
    v = floor.copy()
    for _ in range(res.field.iterations):
        swept = _brute_min(_brute_table(model, grid, scheme, v - floor, 0.0, cost=cost))
        v = np.minimum(scheme.cap, np.maximum(floor, swept))
    assert np.array_equal(res.field.flat, v)

    scheme = al.default_scheme(model, grid, cap=2.0, max_iterations=sweeps)
    res = al.worst_case_integral_value(model, grid, pm.gauge, scheme)
    run_cost = pm.gauge.of_points(nodes) * scheme.dt
    pin = _norm(nodes) <= grid.rho
    v = np.zeros(grid.n_nodes)
    for _ in range(res.field.iterations):
        v = np.minimum(scheme.cap, run_cost + _brute_min(
            _brute_table(model, grid, scheme, v, scheme.cap)))
        v[pin] = 0.0
    assert np.array_equal(res.field.flat, v)

    K, lam = 0.5, 1.0
    scheme = al.default_scheme(model, grid, cap=1.0, max_iterations=sweeps)
    run_cost = np.maximum(0.0, _norm(nodes) - K)
    w_cap = float(run_cost.max()) / lam
    res, _ = al.discounted_value_and_prop_set(model, grid, K=K, lam=lam, theta=0.1,
                                              scheme=scheme)
    v = np.zeros(grid.n_nodes)
    for _ in range(res.field.iterations):
        v = np.minimum(w_cap, run_cost * scheme.dt + np.exp(-lam * scheme.dt) * _brute_min(
            _brute_table(model, grid, scheme, v, w_cap, mean=True)))
    assert np.array_equal(res.field.flat, v)


# ------------------------------------------------------------------ feedback

def test_feedback_two_controls_brute_force(bang1d):
    grid = al.Grid((-1.0,), (1.0,), (41,))
    scheme = al.default_scheme(bang1d.model, grid, cap=1.0)
    res = al.worst_case_sup_value(bang1d.model, grid, scheme)
    fb = al.synthesize_feedback(bang1d.model, res.field, scheme)
    expected = np.argmin(_brute_table(bang1d.model, grid, scheme, res.field.flat,
                                      fill=scheme.cap), axis=0)
    assert np.array_equal(fb.control_indices, expected)
    r = np.abs(grid.nodes()[:, 0])
    assert (fb.control_indices[r > 2 * max(grid.spacing)] == 0).all()  # brake


def test_feedback_single_control_constant(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    scheme = al.default_scheme(rotational.model, grid, cap=1.0)
    res = al.worst_case_sup_value(rotational.model, grid, scheme)
    fb = al.synthesize_feedback(rotational.model, res.field, scheme)
    assert (fb.control_indices == 0).all()
    assert (fb.lookup(np.array([[0.33, -0.41]])) == 0).all()


# ----------------------------------------------------------- extended system

def test_extended_system_structure(rotational):
    aug = al.extended_system(rotational.model, rotational.gauge, y_bounds=(0.0, 1.0))
    assert aug.dim_state == 3 and aug.dim_noise == 1
    x = np.array([0.3, 0.4, 0.123])
    f = aug.drift(x, 0)
    # last drift component is l(|x|) = 0.5 * 0.5, independent of y
    assert f[2] == pytest.approx(0.25)
    f2 = aug.drift(np.array([0.3, 0.4, 0.789]), 0)
    assert f2[2] == f[2]
    # y-row of the diffusion is identically zero
    assert aug.sigma(x, 0)[2] == pytest.approx([0.0])


def test_extended_system_zero_gauge_keeps_y_constant(rotational):
    aug = al.extended_system(rotational.model, al.GaugeFunction.from_expression("0"),
                             y_bounds=(0.0, 1.0))
    x = np.array([0.5, 0.1, 0.7])
    nxt = al.step(aug, x, 0, [0.1], dt=0.01)
    assert nxt[2] == pytest.approx(0.7)


def test_extended_system_rejects_knot_gauges(rotational):
    knots = al.GaugeFunction.from_knots([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="expression"):
        al.extended_system(rotational.model, knots)


def test_extended_sup_value_matches_integral_on_coarse_grid(rotational):
    # worst-case total gauge cost equals the sup of the accumulated component
    h = 0.05
    grid2 = al.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41), rho=4 * h)
    scheme = al.default_scheme(rotational.model, grid2, cap=2.0, dt=h)
    vint = al.worst_case_integral_value(rotational.model, grid2, rotational.gauge,
                                        scheme)
    aug = al.extended_system(rotational.model, rotational.gauge, y_bounds=(0.0, 0.9))
    grid3 = al.Grid((-0.7, -0.7, 0.0), (0.7, 0.7, 0.9), (29, 29, 19))
    scheme3 = al.RobustScheme(dt=scheme.dt, increments=scheme.increments, cap=0.9)
    nodes3 = grid3.nodes()
    pin = np.linalg.norm(nodes3[:, :2], axis=1) <= 4 * h
    res3 = al.worst_case_sup_value(
        aug, grid3, scheme3, cost=lambda p: np.abs(p[:, 2]), pin_mask=pin
    )
    v3 = res3.field.values[:, :, 0].ravel()
    xs = grid3.nodes().reshape(29, 29, 19, 3)[:, :, 0, :2].reshape(-1, 2)
    vint_at = vint.field.interpolate(xs)
    r = np.linalg.norm(xs, axis=1)
    mask = r <= 0.5
    assert np.abs(vint_at - v3)[mask].max() <= 3 * (scheme.dt + 2 * h)


def test_value_result_metadata(linear1d):
    grid = al.Grid((-1.0,), (1.0,), (41,))
    scheme = al.default_scheme(linear1d.model, grid, cap=1.0)
    res = al.worst_case_sup_value(linear1d.model, grid, scheme)
    assert res.field.iterations == len(res.residuals)
    assert res.field.residual < scheme.tolerance
