import faulthandler
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import aslyap as al
from aslyap import fields, values
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt", [np.nan, 0.0, -1.0])
def test_step_rejects_a_nonpositive_dt(rotational, dt):
    with pytest.raises(ValueError, match="^dt must be positive"):
        al.step(rotational.model, [0.5, 0.0], 0, [0.1], dt=dt)


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
    for bad, name in (({"dt": np.nan}, "dt"), ({"cap": np.nan}, "cap"),
                      ({"tolerance": 0.0}, "tolerance"), ({"tolerance": -1.0}, "tolerance"),
                      ({"tolerance": np.nan}, "tolerance")):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            al.RobustScheme(**{"dt": 0.01, "increments": np.array([[0.0]]), "cap": 1.0, **bad})
    sch = al.default_scheme(rotational.model, al.Grid((-1, -1), (1, 1), (21, 21)), cap=1.0)
    h = 0.1
    expected_dt = h / (2 * max_drift_norm(rotational.model,
                                          al.Grid((-1, -1), (1, 1), (21, 21))) + 1)
    assert sch.dt == pytest.approx(expected_dt)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt", [-1.0, np.nan])
def test_default_scheme_rejects_dt_before_using_it(linear1d, dt):
    grid = al.Grid((-1.0,), (1.0,), (21,))
    with pytest.raises(ValueError, match="^dt must be positive"):
        al.default_scheme(linear1d.model, grid, cap=1.0, dt=dt)


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
    # a dt beside a scheme would be dropped without a word
    scheme = al.default_scheme(rotational.model, grid, cap=1.0)
    with pytest.raises(ValueError, match="not both"):
        al.discounted_value_and_prop_set(rotational.model, grid, K=1.0, lam=1.0,
                                         theta=0.1, scheme=scheme, dt=0.5)


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


def _brute_moves_table(grid, moves, values, fill, cost=None, cap=None, mean=False):
    """Per control, the worst (or mean) next value over its moves, read by a
    fresh BoxInterpolator stencil per (control, move) on all nodes at once."""
    interp = BoxInterpolator(grid)
    nodes = grid.nodes()
    rows = []
    for per_a in moves:
        acc = 0.0 if mean else None
        for move in per_a:
            nxt = move(nodes)
            st = interp.prepare(nxt)
            if cost is None:
                vals = interp.apply(values, st, fill=fill)
            else:
                vals = np.minimum(cost(nxt), cap) + interp.apply(values, st, fill=0.0)
                vals = np.where(grid.contains(nxt), vals, cap)
            if mean:
                acc = acc + vals
            else:
                acc = vals if acc is None else np.maximum(acc, vals)
        rows.append(acc / len(per_a) if mean else acc)
    return np.stack(rows)


@pytest.mark.parametrize("mean", [False, True])
@pytest.mark.parametrize("with_cost", [False, True])
def test_operator_reads_any_move_set(monkeypatch, bang1d, mean, with_cost):
    # a move set that is no increment set: a drift-only step under the brake, and
    # three fixed shifts while coasting, some of them leaving the box
    _split(monkeypatch, block_rows=10, cpus=1)
    monkeypatch.setattr(values, "_SUB_ROWS", 3)  # uneven sub-blocks
    grid = al.Grid((-1.0,), (1.0,), (41,))
    moves = [[lambda x: al.step(bang1d.model, x, 0, [0.0], 0.05)],
             [lambda x, d=d: x + d for d in (-0.13, 0.0, 0.31)]]
    cost, cap = (lambda p: np.abs(p[:, 0] - 0.3), 1.2) if with_cost else (None, None)
    fill = 0.0 if with_cost else 0.9
    v = np.abs(np.sin(3.0 * grid.nodes()[:, 0]))
    with fields._RowBlocks(grid.n_nodes, values._BLOCK_ROWS) as blocks:
        op = values._Transition(grid, moves, blocks, cost_fn=cost, cap=cap)
        assert len(blocks.slices) == 5
        table = np.concatenate([op.continuation(v, fill, rows, mean=mean)
                                for rows in blocks.slices], axis=1)
    expected = _brute_moves_table(grid, moves, v, fill, cost=cost, cap=cap, mean=mean)
    assert table.shape == (2, grid.n_nodes)
    assert np.array_equal(table, expected)


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


def _feedback_csv_per_row(fb):
    """The row-by-row writer ``FeedbackMap.to_csv`` replaced, kept as its reference."""
    lines = [",".join(f"x{i+1}" for i in range(fb.grid.dim)) + ",control"]
    for row, c in zip(fb.grid.nodes(), fb.control_indices):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(c)}")
    return "\n".join(lines) + "\n"


def test_feedback_csv_matches_a_row_by_row_reference():
    grid = al.Grid((-1.0, -1.0), (-0.0, 1e-300), (4, 3))  # the last x1 node is -0.0
    fb = al.FeedbackMap(grid, np.array([0, 3, 1, 2, 0, 7, 1, 1, 0, 2, 5, 0]))
    assert fb.to_csv() == _feedback_csv_per_row(fb)
    assert fb.to_csv().splitlines()[-3:] == ["-0.0,-1.0,2", "-0.0,-0.5,5", "-0.0,1e-300,0"]


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


# ------------------------------------------------------ row blocks and threads

class _Boom(RuntimeError):
    pass


def _split(monkeypatch, block_rows, cpus):
    monkeypatch.setattr(values, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(fields, "_MIN_ROWS_PER_THREAD", 1)
    monkeypatch.setattr(fields, "_cpus", lambda: cpus)


def _solves(rotational, bang1d):
    """Run every solve kind and feedback once; return their fields, residual lists,
    sweep counts, propagation set and control indices in comparable form."""
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (31, 31))
    nodes = grid.nodes()
    model = rotational.model
    out = []

    def run(fn):
        before = threading.active_count()
        result = fn()
        assert threading.active_count() == before
        return result

    scheme = al.default_scheme(model, grid, cap=1.0)
    res = run(lambda: al.worst_case_sup_value(
        model, grid, scheme, cost=lambda p: np.abs(p[:, 0] - 0.3),
        pin_mask=np.linalg.norm(nodes, axis=1) <= 0.2))
    out.append(res)
    res = run(lambda: al.worst_case_integral_value(
        model, grid, rotational.gauge, al.default_scheme(model, grid, cap=2.0)))
    out.append(res)
    res, prop = run(lambda: al.discounted_value_and_prop_set(
        model, grid, K=0.5, lam=1.0, theta=0.1))
    out.append(res)
    # pushing along x1 toward the origin: the feedback changes sign with x1
    push = _inline("f1 = a1\nf2 = -x2\ns1_1 = 0.2\ns2_1 = 0", n=2,
                   controls="left = -1.0\nright = 1.0")
    fb = run(lambda: al.synthesize_feedback(push.model, out[1].field, scheme))
    assert set(fb.control_indices.tolist()) == {0, 1}
    grid1 = al.Grid((-1.0,), (1.0,), (101,))
    scheme1 = al.default_scheme(bang1d.model, grid1, cap=1.0)
    value1 = run(lambda: al.worst_case_sup_value(bang1d.model, grid1, scheme1))
    out.append(value1)
    fb1 = run(lambda: al.synthesize_feedback(bang1d.model, value1.field, scheme1))
    return ([(r.field.flat.tobytes(), r.residuals, r.field.iterations) for r in out],
            prop.tobytes(), fb.control_indices.tobytes(), fb1.control_indices.tobytes())


def test_row_blocks_are_uneven_and_cover_every_row(monkeypatch):
    _split(monkeypatch, block_rows=100, cpus=3)
    blocks = fields._RowBlocks(961, values._BLOCK_ROWS)
    sizes = [s.stop - s.start for s in blocks.slices]
    assert blocks.threads == 3 and len(sizes) % 3 == 0 and len(set(sizes)) == 2
    assert [s.start for s in blocks.slices[1:]] == [s.stop for s in blocks.slices[:-1]]
    assert blocks.slices[0].start == 0 and blocks.slices[-1].stop == 961


def test_threaded_row_blocks_are_bit_identical_to_one_block(monkeypatch, pools, rotational,
                                                            bang1d):
    _split(monkeypatch, block_rows=10**9, cpus=1)
    one_block = _solves(rotational, bang1d)
    assert pools == []
    _split(monkeypatch, block_rows=30, cpus=3)  # 33 and 6 blocks, one of a single row
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches than cores can hide
    try:
        threaded = _solves(rotational, bang1d)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [(3,)] * 6  # one pool of three threads per solve or feedback call
    assert threaded == one_block


def test_sub_blocks_are_bit_identical_to_whole_blocks(monkeypatch, rotational, bang1d):
    _split(monkeypatch, block_rows=300, cpus=1)
    monkeypatch.setattr(values, "_SUB_ROWS", 10**9)
    whole = _solves(rotational, bang1d)
    monkeypatch.setattr(values, "_SUB_ROWS", 7)  # uneven: a block's last sub-block is short
    assert _solves(rotational, bang1d) == whole


def test_stencil_build_peaks_near_the_stencils(monkeypatch, rotational):
    # one block of 32 768 rows on one thread: the build may hold its stencils, the
    # nodes and one sub-block's temporaries, not temporaries as wide as the block
    monkeypatch.setattr(fields, "_cpus", lambda: 1)
    aug = al.extended_system(rotational.model, rotational.gauge, y_bounds=(0.0, 0.9))
    grid = al.Grid((-0.7, -0.7, 0.0), (0.7, 0.7, 0.9), (32, 32, 32))
    scheme = al.RobustScheme(dt=0.025, increments=default_increments(1, 0.025), cap=0.9)
    with fields._RowBlocks(grid.n_nodes, values._BLOCK_ROWS) as blocks:
        assert len(blocks.slices) == 1 and values._SUB_ROWS < grid.n_nodes
        tracemalloc.start()
        try:
            op = values._Transition(grid, values._adversary_moves(aug, scheme), blocks,
                                    cost_fn=lambda p: np.abs(p[:, 2]), cap=scheme.cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    stencils, cost_next = op._blocks[0]
    resident = sum(a.nbytes for per_w in stencils for st in per_w for a in st[:3])
    resident += sum(a.nbytes for per_w in cost_next for a in per_w)
    allowance = grid.nodes().nbytes + values._SUB_ROWS * 1024
    assert resident < peak < resident + allowance


@pytest.mark.parametrize("method", ["prepare", "apply"])
def test_block_failure_propagates_without_a_hang(monkeypatch, rotational, method):
    # one block raises on a pool thread, while building stencils or in a sweep
    _split(monkeypatch, block_rows=100, cpus=3)
    original = getattr(BoxInterpolator, method)
    armed = [True]

    def failing(self, *args, **kwargs):
        if armed[0]:
            armed[0] = False
            raise _Boom("one block failed")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BoxInterpolator, method, failing)
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (31, 31))
    scheme = al.default_scheme(rotational.model, grid, cap=1.0)
    before = threading.active_count()
    faulthandler.dump_traceback_later(120, exit=True)  # a hang fails the run
    try:
        with pytest.raises(_Boom):
            al.worst_case_sup_value(rotational.model, grid, scheme)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert not armed[0]
    assert threading.active_count() == before


def test_threads_follow_rows_per_thread_up_to_the_cpus(monkeypatch):
    monkeypatch.setattr(fields, "_cpus", lambda: 16)
    per = fields._MIN_ROWS_PER_THREAD
    assert fields._RowBlocks(per - 1, values._BLOCK_ROWS).threads == 1
    assert fields._RowBlocks(2 * per + per // 2, values._BLOCK_ROWS).threads == 2
    assert fields._RowBlocks(100 * per, values._BLOCK_ROWS).threads == 16
    monkeypatch.setattr(fields, "_cpus", lambda: 1)
    assert fields._RowBlocks(100 * per, values._BLOCK_ROWS).threads == 1


def test_small_solves_start_no_thread(pools, rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41))
    assert grid.n_nodes < fields._MIN_ROWS_PER_THREAD
    scheme = al.default_scheme(rotational.model, grid, cap=1.0)
    res = al.worst_case_sup_value(rotational.model, grid, scheme)
    al.synthesize_feedback(rotational.model, res.field, scheme)
    assert pools == []
