import ast
import threading
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aslyap as al
from aslyap import expr as ex
from aslyap import fields, verifier
from aslyap.fields import LevelSet
from aslyap.model import CandidateFunction, ControlledDiffusion
from aslyap.verifier import (
    STATUS_EDGE,
    STATUS_NO_TANGENTIAL,
    STATUS_NONFINITE,
    STATUS_OK,
    STATUS_SANDWICH,
    VerificationReport,
)

from conftest import MODELS, load


def _inline(dynamics, n=1, m=1, controls="hold = 0.0", candidate="", domain=None):
    lower, upper = domain or ("-1" + ", -1" * (n - 1), "1" + ", 1" * (n - 1))
    return al.parse_model(
        f"[dimensions]\nstate = {n}\nnoise = {m}\n[controls]\n{controls}\n"
        f"[dynamics]\n{dynamics}\n"
        + (f"[candidate]\n{candidate}\n" if candidate else "")
        + f"[domain]\nlower = {lower}\nupper = {upper}\n"
    )


# ---------------------------------------------------------------- tangential

_PLANE = al.Grid((-1.0, -1.0), (1.0, 1.0), (11, 11))


def _witnesses(model, candidate, grid=_PLANE):
    """The tangency-gated witness of every checked node; -1 where no control is
    tangential."""
    rep = al.check_supersolution(model, al.CandidateFunction(candidate, model.dim_state), grid)
    assert ((rep.witnesses < 0) == (rep.statuses == STATUS_NO_TANGENTIAL)).all()
    return rep.witnesses


def test_tangential_rotational_all_pass(rotational):
    # (-x2, x1) . grad |x|^2 = 0 identically
    assert (_witnesses(rotational.model, "x1^2 + x2^2") == 0).all()


def test_tangential_orthogonality_selects():
    # noise along x1: tangential to p = (0, 1), never to p = (1, 0)
    pm = _inline("f1 = -x1\nf2 = -x2\ns1_1 = 1", n=2, m=1)
    assert (_witnesses(pm.model, "x2") == 0).all()
    assert (_witnesses(pm.model, "x1") == -1).all()


def test_tangential_zero_diffusion_always_passes():
    pm = _inline("f1 = x1")
    assert (_witnesses(pm.model, "x1^2", al.Grid((-1.0,), (1.0,), (11,))) == 0).all()


# ------------------------------------------------------------- supersolution

def test_supersolution_1d_contraction_passes():
    pm = _inline("f1 = -x1", candidate="V = x1^2")
    grid = al.Grid((-1.0,), (1.0,), (41,))
    rep = al.check_supersolution(pm.model, pm.candidate, grid)
    assert rep.all_pass
    # margin is -V'(x) f(x) = 2x^2
    r = np.abs(rep.coords[:, 0])
    assert rep.margins == pytest.approx(2 * r**2)


def test_supersolution_1d_expansion_fails_everywhere():
    pm = _inline("f1 = x1", candidate="V = x1^2")
    grid = al.Grid((-1.0,), (1.0,), (41,))
    # derivatives are analytic here, so a tight explicit tolerance applies
    rep = al.check_supersolution(pm.model, pm.candidate, grid, tol=1e-12)
    assert rep.n_pass == 0 and rep.n_fail > 0
    r = np.abs(rep.coords[:, 0])
    assert rep.margins == pytest.approx(-2 * r**2)


def _rotational_margin_oracle():
    """Symbolic -DV.f - trace(a D2V) for V = |x| on the rotational model."""
    x1, x2 = sp.symbols("x1 x2", real=True)
    r = sp.sqrt(x1**2 + x2**2)
    V = r
    f = sp.Matrix([-x1, -x2])
    sigma = sp.Matrix([[-x2], [x1]])
    a = sigma * sigma.T / 2
    DV = sp.Matrix([sp.diff(V, x1), sp.diff(V, x2)])
    D2V = sp.hessian(V, (x1, x2))
    m = -(DV.T * f)[0] - sp.trace(a * D2V)
    return sp.lambdify((x1, x2), sp.simplify(m), "numpy")


def test_supersolution_rotational_margin_matches_sympy(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41))
    rep = al.check_supersolution(rotational.model, rotational.candidate, grid,
                                 rotational.gauge)
    assert rep.all_pass
    oracle = _rotational_margin_oracle()
    m_exact = oracle(rep.coords[:, 0], rep.coords[:, 1])
    l_vals = rotational.gauge(np.linalg.norm(rep.coords, axis=1))
    assert rep.margins == pytest.approx(m_exact - l_vals, abs=1e-12)
    # the oracle margin is exactly the gauge: delta |x|
    assert np.abs(rep.margins).max() <= 1e-12


def test_supersolution_empty_tangential_set_fails():
    # radial noise at every control: nothing is tangential to V = |x|^2
    pm = _inline("f1 = -x1\nf2 = -x2\ns1_1 = x1\ns2_1 = x2", n=2,
                 candidate="V = x1^2 + x2^2")
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    rep = al.check_supersolution(pm.model, pm.candidate, grid)
    assert not rep.all_pass
    assert (rep.statuses == STATUS_NO_TANGENTIAL).all()


def test_supersolution_flags_nonfinite_nodes(rotational):
    # a candidate singular on the x1 = 0 line: those nodes are flagged and
    # excluded from the summary instead of poisoning it with NaNs
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41))
    bad = al.CandidateFunction("1/x1 + x2^2", 2)
    rep = al.check_supersolution(rotational.model, bad, grid)
    assert rep.n_excluded >= 1
    assert rep.n_checked + rep.n_excluded == len(rep.margins)
    assert np.isfinite(rep.worst_margin)


def test_supersolution_origin_singularity_handled_by_exclusion(circle_target):
    # the circle model is singular only at the origin, which the pointed
    # domain |x| > rho already removes
    grid = al.Grid((-2.0, -2.0), (2.0, 2.0), (41, 41))
    rep = al.check_supersolution(circle_target.model, circle_target.candidate, grid)
    assert rep.n_excluded == 0
    assert rep.all_pass


def test_supersolution_pass_requires_witness(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    rep = al.check_supersolution(rotational.model, rotational.candidate, grid)
    assert (rep.witnesses[rep.verdicts] >= 0).all()


# ---------------------------------------------------------- radial condition

def test_radial_sufficient_rotational_sympy_oracle(rotational):
    # f.x + trace a = -(c^2/2 + delta)|x|^2 + (c^2/2)|x|^2 = -delta |x|^2
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (31, 31))
    rep = al.radial_sufficient_check(rotational.model, grid)
    assert rep.all_pass
    r2 = np.linalg.norm(rep.coords, axis=1) ** 2
    assert rep.margins == pytest.approx(0.5 * r2, abs=1e-12)


def test_radial_sufficient_fails_for_expansion(unstable1d):
    grid = al.Grid((-1.0,), (1.0,), (21,))
    rep = al.radial_sufficient_check(unstable1d.model, grid, tol=1e-12)
    failing = np.abs(rep.coords[:, 0]) > 0
    assert (~rep.verdicts[failing]).all()


def test_radial_sufficient_fails_for_radial_noise():
    pm = _inline("f1 = -x1\nf2 = -x2\ns1_1 = x1\ns2_1 = x2", n=2)
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    rep = al.radial_sufficient_check(pm.model, grid)
    failing = np.linalg.norm(rep.coords, axis=1) > 0.1
    assert (~rep.verdicts[failing]).all()


# ------------------------------------------------------- geometric invariance

def test_geometric_invariance_identity_scaling(rotational):
    x = np.array([0.4, -0.2])
    Y = np.array([[0.3, 0.1], [0.1, -0.7]])
    res = al.check_geometric_invariance(rotational.model, x, x, Y, lam=1.0, mu=0.0)
    assert res.residual == 0.0


def test_geometric_invariance_zero_diffusion_any_mu():
    pm = _inline("f1 = -x1\nf2 = x2", n=2)
    x = np.array([0.5, 0.5])
    p = np.array([1.0, 2.0])
    Y = np.array([[1.0, 0.0], [0.0, 2.0]])
    res = al.check_geometric_invariance(pm.model, x, p, Y, lam=3.0, mu=100.0)
    assert res.residual <= 1e-12 * (1 + abs(res.value))


def test_geometric_invariance_rotational_random(rotational):
    rng = np.random.Generator(np.random.Philox(key=12))
    for _ in range(100):
        x = rng.uniform(-1, 1, 2)
        if np.linalg.norm(x) < 0.1:
            continue
        p = rng.uniform(0.1, 10) * x
        Y = rng.uniform(-5, 5, (2, 2))
        Y = 0.5 * (Y + Y.T)
        lam = rng.uniform(0.1, 10)
        mu = rng.uniform(-10, 10)
        res = al.check_geometric_invariance(rotational.model, x, p, Y, lam, mu)
        assert not res.empty_tangential
        assert res.residual <= 1e-9 * (1 + abs(res.value))


def test_geometric_invariance_rejects_bad_lambda(rotational):
    with pytest.raises(ValueError):
        al.check_geometric_invariance(rotational.model, [0.5, 0], [0.5, 0],
                                      np.eye(2), lam=-1.0, mu=0.0)


# --------------------------------------------------------- change of unknown

def test_change_of_unknown_identity(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (31, 31))
    res = al.check_change_of_unknown(rotational.model, rotational.candidate, "t", grid)
    assert res.agreement_fraction == 1.0
    assert np.array_equal(res.report_original.verdicts, res.report_transformed.verdicts)


@pytest.mark.parametrize("phi", ["t^2", "exp(t) - 1", "2*t"])
def test_change_of_unknown_rotational(rotational, phi):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41))
    res = al.check_change_of_unknown(rotational.model, rotational.candidate, phi, grid)
    assert res.agreement_fraction == 1.0
    assert res.report_transformed.all_pass


def test_change_of_unknown_1d_exponential_hand_oracle():
    # V = x^2, phi = e^t: W = e^{x^2}, margin = -W' f = 2x^2 e^{x^2} >= 0
    pm = _inline("f1 = -x1", candidate="V = x1^2")
    grid = al.Grid((-1.0,), (1.0,), (41,))
    res = al.check_change_of_unknown(pm.model, pm.candidate, "exp(t)", grid)
    assert res.report_original.all_pass and res.report_transformed.all_pass
    r = np.abs(res.report_transformed.coords[:, 0])
    assert res.report_transformed.margins == pytest.approx(
        2 * r**2 * np.exp(r**2), rel=1e-10
    )


def test_change_of_unknown_rejects_nonincreasing(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    with pytest.raises(ValueError, match="increasing"):
        al.check_change_of_unknown(rotational.model, rotational.candidate, "-t", grid)


# ------------------------------------------------------------------ viability

def _norm_field(model_domain, n=81):
    grid = al.Grid(*model_domain, (n, n))
    cand = al.CandidateFunction("sqrt(x1^2 + x2^2)", 2)
    return al.ScalarField(grid=grid, values=cand.value(grid.nodes()))


def test_viability_rotational_ball(rotational):
    fld = _norm_field(((-1.0, -1.0), (1.0, 1.0)))
    ls = al.extract_level_set(fld, 0.5)
    rep = al.check_viability_boundary(rotational.model, ls)
    assert rep.all_pass
    assert rep.n_inconclusive == 0


def test_viability_fails_for_outward_drift(unstable2d):
    fld = _norm_field(((-1.2, -1.2), (1.2, 1.2)))
    ls = al.extract_level_set(fld, 0.5)
    rep = al.check_viability_boundary(unstable2d.model, ls)
    assert rep.n_pass == 0
    assert rep.n_fail == len(ls) - rep.n_inconclusive


def test_viability_zero_dynamics_keeps_every_set():
    pm = _inline("f1 = 0\nf2 = 0", n=2)
    fld = _norm_field(((-1.0, -1.0), (1.0, 1.0)))
    ls = al.extract_level_set(fld, 0.5)
    rep = al.check_viability_boundary(pm.model, ls)
    assert rep.all_pass


def test_viability_agrees_with_supersolution_band(rotational):
    # a field passing the decrease check near {V = mu} keeps the sublevel set
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (81, 81))
    rep_super = al.check_supersolution(rotational.model, rotational.candidate, grid)
    fld = al.ScalarField(grid=grid, values=rotational.candidate.value(grid.nodes()))
    ls = al.extract_level_set(fld, 0.5)
    band = np.abs(np.linalg.norm(rep_super.coords, axis=1) - 0.5) <= 2 * max(grid.spacing)
    assert rep_super.verdicts[band].all()
    rep_via = al.check_viability_boundary(rotational.model, ls)
    assert rep_via.all_pass


# --------------------------------------------------------------- set variant

def test_set_lyapunov_origin_reduces_to_standard(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41))
    ident = al.GaugeFunction.from_expression("r")
    rep = al.check_set_lyapunov(
        rotational.model, rotational.candidate, "sqrt(x1^2 + x2^2)",
        ident, ident, grid,
    )
    assert rep.all_pass


def test_set_lyapunov_sandwich_failure(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (41, 41))
    ident = al.GaugeFunction.from_expression("r")
    doubled = al.CandidateFunction("2*sqrt(x1^2 + x2^2)", 2)
    rep = al.check_set_lyapunov(rotational.model, doubled, "sqrt(x1^2 + x2^2)",
                                ident, ident, grid)
    assert not rep.all_pass
    assert (rep.statuses == STATUS_SANDWICH).any()


def test_set_lyapunov_circle_target(circle_target):
    grid = al.Grid((-2.0, -2.0), (2.0, 2.0), (61, 61))
    rep = al.check_set_lyapunov(
        circle_target.model, circle_target.candidate, "abs(sqrt(x1^2 + x2^2) - 1)",
        al.GaugeFunction.from_expression("2*r^2"),
        al.GaugeFunction.from_expression("0.5*r^2"),
        grid,
        al.GaugeFunction.from_expression("0.5*r^2"),
    )
    assert rep.all_pass


def test_set_lyapunov_requires_monotone_gauges(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    bad = al.GaugeFunction.from_expression("r", monotone=False)
    with pytest.raises(ValueError, match="monotone"):
        al.check_set_lyapunov(rotational.model, rotational.candidate,
                              "sqrt(x1^2 + x2^2)", bad, bad, grid)


@pytest.mark.parametrize("name", ["gamma1", "gamma2"])
def test_set_lyapunov_rejects_gauges_that_decrease(rotational, name):
    # flagged monotone, as every expression gauge is, but sin(10 r) falls past r = 0.157
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    ident = al.GaugeFunction.from_expression("r")
    wavy = al.GaugeFunction.from_expression("sin(10*r)")
    gammas = (wavy, ident) if name == "gamma1" else (ident, wavy)
    with pytest.raises(ValueError, match=f"^sandwich gauge {name} decreases over the checked "
                                         f"distances: {name}\\("):
        al.check_set_lyapunov(rotational.model, rotational.candidate,
                              "sqrt(x1^2 + x2^2)", *gammas, grid)


# ------------------------------------------------------------------ margins

def _negated(model: ControlledDiffusion) -> ControlledDiffusion:
    return ControlledDiffusion(
        dim_state=model.dim_state,
        dim_noise=model.dim_noise,
        controls=model.controls,
        drift_base=tuple(ex.Neg(t) for t in model.drift_base),
        sigma_base=model.sigma_base,
        drift_overrides={k: ex.Neg(t) for k, t in model.drift_overrides.items()},
        sigma_overrides=dict(model.sigma_overrides),
        domain_lower=model.domain_lower,
        domain_upper=model.domain_upper,
    )


def test_margin_antisymmetry_under_drift_negation(rotational):
    # m_{-f}(a) = m_f(a) + 2 p.f(x, a): the trace term is unchanged
    model = rotational.model
    neg = _negated(model)
    rng = np.random.Generator(np.random.Philox(key=21))
    xs = rng.uniform(-1, 1, size=(50, 2))
    xs = xs[np.linalg.norm(xs, axis=1) > 0.1]
    cand = rotational.candidate
    p = cand.gradient(xs)
    Y = cand.hessian(xs)
    f = model.drift(xs, 0)
    a = al.eval_a(model, xs, 0)
    m_f = -np.einsum("ni,ni->n", p, f) - np.einsum("nij,nji->n", a, Y)
    f_neg = neg.drift(xs, 0)
    a_neg = al.eval_a(neg, xs, 0)
    m_neg = -np.einsum("ni,ni->n", p, f_neg) - np.einsum("nij,nji->n", a_neg, Y)
    assert m_neg == pytest.approx(m_f + 2 * np.einsum("ni,ni->n", p, f), rel=1e-12)


def test_report_serialization(rotational, tmp_path):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    rep = al.check_supersolution(rotational.model, rotational.candidate, grid,
                                 rotational.gauge)
    text = rep.to_csv()
    header = text.splitlines()[0]
    assert header == "x1,x2,margin,verdict,witness,tangency_residual,status"
    assert len(text.splitlines()) == len(rep.margins) + 1
    summary = rep.to_json()
    assert '"all_pass": true' in summary


def _csv_per_row(rep):
    """The row-by-row writer ``to_csv`` replaced, kept as its reference."""
    header = ",".join(f"x{i+1}" for i in range(rep.coords.shape[1]))
    lines = [f"{header},margin,verdict,witness,tangency_residual,status"]
    for i in range(len(rep.margins)):
        coord = ",".join(repr(float(c)) for c in rep.coords[i])
        lines.append(
            f"{coord},{float(rep.margins[i])!r},{int(rep.verdicts[i])},"
            f"{int(rep.witnesses[i])},{float(rep.tangency_residuals[i])!r},"
            f"{verifier._STATUS_NAMES[int(rep.statuses[i])]}"
        )
    return "\n".join(lines) + "\n"


def test_report_csv_matches_a_row_by_row_reference(rotational):
    statuses = np.array([STATUS_OK, STATUS_NO_TANGENTIAL, STATUS_NONFINITE, STATUS_EDGE,
                         STATUS_SANDWICH])
    assert sorted(statuses.tolist()) == sorted(verifier._STATUS_NAMES)
    inf, nan = np.inf, np.nan
    rep = VerificationReport(
        kind="edge-values",
        coords=np.array([[0.1, -0.0], [inf, 1e-300], [-inf, 2.5], [nan, 1 / 3], [-1.0, 1e16]]),
        margins=np.array([-inf, nan, -0.0, 0.1 + 0.2, 5e-324]),
        verdicts=np.array([True, False, False, True, False]),
        witnesses=np.array([0, -1, 2, 1, -1]),
        tangency_residuals=np.array([inf, 0.0, -0.0, nan, 1e-310]),
        statuses=statuses,
        tolerances=np.zeros(5),
    )
    assert rep.to_csv() == _csv_per_row(rep)
    assert "\ninf,1e-300,nan,0,-1,0.0,no-tangential-control\n" in rep.to_csv()
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    for rep in (al.check_supersolution(rotational.model, rotational.candidate, grid),
                al.radial_sufficient_check(rotational.model, grid)):
        assert rep.to_csv() == _csv_per_row(rep)
    empty = VerificationReport("empty", np.zeros((0, 3)), *(np.zeros(0) for _ in range(6)))
    assert empty.to_csv() == _csv_per_row(empty) == "x1,x2,x3,margin,verdict,witness," \
        "tangency_residual,status\n"


# ------------------------------------------------------------- margin kernel

# control 0 spins (noise tangential to circles), control 1 kicks along x1
# (noise tangential only where p1 = 0), so gates open and close per control
_TWO_CONTROLS = _inline(
    "f1 = -x1 + a1*x2\nf2 = -x2 - a1*x1 + (1 - a1)*x1\n"
    "s1_1 = -a1*x2 + (1 - a1)\ns2_1 = a1*x1",
    n=2, controls="spin = 1.0\nkick = 0.0",
).model


def _pointwise_best_margin(model, x, p, Y, eps_tan):
    """max of -p.f - tr(aY) over the controls with |sigma^T p| <= eps_tan |p|
    max(1, |sigma|_F), one point at a time."""
    best = -np.inf
    for idx in range(model.n_controls):
        s = model.sigma(x, idx)
        if np.linalg.norm(s.T @ p) <= eps_tan * np.linalg.norm(p) * max(1.0, np.linalg.norm(s)):
            a = al.eval_a(model, x, idx)
            best = max(best, float(-p @ model.drift(x, idx) - np.trace(a @ Y)))
    return best


_coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_scale = st.floats(min_value=0.1, max_value=10.0)


@st.composite
def _point_data(draw):
    x = np.array([draw(_coord), draw(_coord)])
    assume(np.linalg.norm(x) >= 0.1)
    c = draw(_scale) * draw(st.sampled_from([-1.0, 1.0]))
    kind = draw(st.sampled_from(["radial", "vertical", "free"]))
    if kind == "radial":
        p = c * x  # control 0 tangential
    elif kind == "vertical":
        p = np.array([0.0, c])  # control 1 tangential
    else:
        p = np.array([draw(_coord), draw(_coord)])
        assume(np.linalg.norm(p) >= 0.1)
    y = [draw(st.floats(min_value=-5.0, max_value=5.0)) for _ in range(3)]
    Y = np.array([[y[0], y[1]], [y[1], y[2]]])
    return x, p, Y


def _agree(got, want):
    if want == -np.inf:
        return got == -np.inf
    return got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(data=st.lists(_point_data(), min_size=1, max_size=6),
       lam=_scale, mu=st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_margin_wrappers_match_pointwise_reference(data, lam, mu):
    model, eps_tan = _TWO_CONTROLS, 1e-6
    for x, p, Y in data:
        res = al.check_geometric_invariance(model, x, p, Y, lam, mu, eps_tan)
        assert _agree(res.value, _pointwise_best_margin(model, x, p, Y, eps_tan))
        p2, Y2 = lam * p, lam * Y + mu * np.outer(p, p)
        assert _agree(res.value_scaled, _pointwise_best_margin(model, x, p2, Y2, eps_tan))

    # viability margins are f.p + tr(aY): the kernel margin of (-p, -Y)
    xs, ps, Ys = (np.array(v) for v in zip(*data))
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (5, 5))
    ls = LevelSet(field=al.ScalarField(grid=grid, values=np.zeros(grid.n_nodes)),
                  level=0.0, node_indices=np.arange(len(xs)), coords=xs, normals=ps,
                  curvatures=Ys, edge_flags=np.zeros(len(xs), dtype=bool))
    rep = al.check_viability_boundary(model, ls, eps_tan=eps_tan)
    for i, (x, p, Y) in enumerate(data):
        assert _agree(rep.margins[i], _pointwise_best_margin(model, x, -p, -Y, eps_tan))


def _pointwise_tolerance(model, x, p, Y, h):
    """10 h^2 max(1, 1 + |f| + |a|_F + |p| + |Y|_F over controls), at one point."""
    scale = max(1.0, *(1.0 + np.linalg.norm(model.drift(x, i))
                       + np.linalg.norm(al.eval_a(model, x, i)) + np.linalg.norm(p) + np.linalg.norm(Y)
                       for i in range(model.n_controls)))
    return 10.0 * h**2 * scale


def test_tolerances_match_pointwise_reference():
    # the tolerance scale comes from the margin kernel's own f and a; nodes
    # with non-finite derivatives count them as zero
    model = _TWO_CONTROLS
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (11, 11))
    cand = CandidateFunction("x1^2 + 3*x2^2 + 1/x1", 2)
    rep = al.check_supersolution(model, cand, grid)
    assert rep.n_excluded > 0
    for x, tol, status in zip(rep.coords, rep.tolerances, rep.statuses):
        finite = status != STATUS_NONFINITE
        p = cand.gradient(x) if finite else np.zeros(2)
        Y = cand.hessian(x) if finite else np.zeros((2, 2))
        want = _pointwise_tolerance(model, x, p, Y, max(grid.spacing))
        assert tol == pytest.approx(want, rel=1e-13)

    xs = np.array([[0.5, 0.25], [-0.3, 0.8], [0.9, -0.1]])
    ps = np.array([[1.0, -2.0], [np.nan, 1.0], [0.0, 0.5]])
    Ys = np.array([[[1.0, 0.5], [0.5, -2.0]], [[0.0, 1.0], [1.0, 0.0]], [[3.0, 0.0], [0.0, 1.0]]])
    coarse = al.Grid((-1.0, -1.0), (1.0, 1.0), (5, 5))
    ls = LevelSet(field=al.ScalarField(grid=coarse, values=np.zeros(coarse.n_nodes)),
                  level=0.0, node_indices=np.arange(3), coords=xs, normals=ps,
                  curvatures=Ys, edge_flags=np.zeros(3, dtype=bool))
    rep = al.check_viability_boundary(model, ls)
    assert rep.statuses[1] == STATUS_NONFINITE
    for x, p, Y, tol in zip(xs, ps, Ys, rep.tolerances):
        finite = np.isfinite(p).all()
        want = _pointwise_tolerance(model, x, p if finite else 0 * x, Y if finite else 0 * Y,
                                    max(coarse.spacing))
        assert tol == pytest.approx(want, rel=1e-13)


@given(counts=st.tuples(st.integers(3, 12), st.integers(3, 12)),
       lower=st.tuples(st.floats(-2.0, -0.1), st.floats(-2.0, -0.1)),
       upper=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)))
@settings(max_examples=50, deadline=None)
def test_radial_margin_matches_pointwise_reference(counts, lower, upper):
    # with p = x and Y = I the radial gate max(|x|, h) is |x| once |x| >= h
    model, eps_tan = _TWO_CONTROLS, 1e-6
    grid = al.Grid(lower, upper, counts)
    rep = al.radial_sufficient_check(model, grid, eps_tan=eps_tan)
    h = max(grid.spacing)
    for x, m in zip(rep.coords, rep.margins):
        if np.linalg.norm(x) >= h:
            assert _agree(m, _pointwise_best_margin(model, x, x, np.eye(2), eps_tan))


def _einsum_rows(model, idx, x, p, Y):
    """The margin and data terms of one control as the verifier computed them
    with einsum before its margin kernels."""
    f, s, a = model.drift(x, idx), model.sigma(x, idx), al.eval_a(model, x, idx)
    return (-np.einsum("ni,ni->n", p, f) - np.einsum("nij,nji->n", a, Y),
            fields._norm(np.einsum("nim,ni->nm", s, p)), fields._norm(s, 2),
            fields._norm(f), fields._norm(a, 2))


def _kernel_rows(model, idx, x, p, Y):
    n, dim = x.shape
    out = np.empty((5, n))
    with np.errstate(all="ignore"):
        return verifier._margin_kernel(model, idx)(*x.T, *p.T, *Y.reshape(n, dim * dim).T, out)


def _signed(n, dim, rng):
    """Wide magnitudes, so that every change of summation order shows in the
    bits, with zeros of both signs and small integers that cancel exactly."""
    v = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-6, 7, (n, dim))
    pick = rng.random((n, dim))
    v[pick < 0.15] = 0.0
    v[(pick >= 0.15) & (pick < 0.3)] = -0.0
    small = (pick >= 0.3) & (pick < 0.4)
    v[small] = rng.integers(-2, 3, small.sum())
    return v


_WIDE = {  # 3-D and 9-D: sums of eight and more terms, two noise columns
    "inline3d": _inline("f1 = -x1 + x2*x3\nf2 = -x2\nf3 = -x3 + x1^2\ns1_1 = -x2\ns2_1 = x1\n"
                        "s2_2 = x3\ns3_2 = -x2 + 0.5", n=3, m=2).model,
    "inline9d_m1": _inline("\n".join([*(f"f{i} = -x{i} + x{i % 9 + 1}" for i in range(1, 10)),
                                       *(f"s{i}_1 = x{10 - i}" for i in range(1, 10))]),
                           n=9, m=1).model,
    "inline9d_m2": _inline("\n".join([*(f"f{i} = x{i}^2 - x{i % 9 + 1}" for i in range(1, 10)),
                                       *(f"s{i}_1 = x{i} - 1" for i in range(1, 10)),
                                       *(f"s{i}_2 = x{i % 9 + 1}*x{i}" for i in range(1, 10))]),
                           n=9, m=2).model,
}
_INLINE = {**_WIDE, "inline2d_m2": _inline(  # the largest shape einsum adds as the kernel does
    "f1 = -x1 + x2^2\nf2 = x1*x2\ns1_1 = -x2\ns2_1 = x1\ns1_2 = x1 - 1\ns2_2 = 0.5*x2",
    n=2, m=2).model}
_BUNDLED = [p.stem for p in sorted(MODELS.glob("*.model"))]


def _kernel_cases(name):
    """(model, control, case, x, p, Y) for every control of a bundled or
    ``_INLINE`` model on random data, with the origin's every sign pattern of
    zeros, viability's (-p, -Y) and the radial check's broadcast identity Y."""
    model = _INLINE[name] if name in _INLINE else load(f"{name}.model").model
    n, dim = 3000, model.dim_state
    rng = np.random.default_rng(sum(map(ord, name)))
    x, p = _signed(n, dim, rng), _signed(n, dim, rng)
    Y = _signed(n, dim * dim, rng).reshape(n, dim, dim)
    x[:2 ** dim] = 0.0
    x[:2 ** dim][(np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1 == 1] = -0.0
    cases = {"random": (x, p, Y), "negated": (x, -p, -Y),
             "radial": (x, x, np.broadcast_to(np.eye(dim), (n, dim, dim)))}
    for idx in range(model.n_controls):
        for case, data in cases.items():
            yield model, idx, case, *data


def _tree_rows(model, idx, x, p, Y):
    """The kernel's own trees walked by ``expr.evaluate``, each as a row."""
    n, dim = x.shape
    env = {**{f"x{i+1}": x[:, i] for i in range(dim)}, **{f"p{i+1}": p[:, i] for i in range(dim)},
           **{f"Y{i+1}_{j+1}": Y[:, i, j] for i in range(dim) for j in range(dim)}}
    with np.errstate(all="ignore"):
        return [np.broadcast_to(ex.evaluate(t, env), (n,)) for t in verifier._margin_trees(model, idx)]


def _summation_bounds(model, idx, x, p, Y):
    """Per row, 2 k u sum|terms| with u = 2^-53: the most two orders of adding
    the row's k terms can differ by.  The margin adds the p_i f_i and the
    a_ij Y_ji, and |sigma^T p| the s_ik p_i.  The norms |sigma|_F, |f| and
    |a|_F add the squares of their entries; the square root halves the
    relative error of that sum, with room for its own rounding, so their
    bound is 2 k u times the norm."""
    n, m, u = model.dim_state, model.dim_noise, 2.0 ** -53
    f, s, a = model.drift(x, idx), model.sigma(x, idx), al.eval_a(model, x, idx)
    _, _, snorm, fnorm, anorm = _einsum_rows(model, idx, x, p, Y)
    margin_terms = np.abs(p * f).sum(1) + np.abs(a * Y.transpose(0, 2, 1)).sum((1, 2))
    return [2 * (n + n * n) * u * margin_terms, 2 * n * m * u * np.abs(s * p[:, :, None]).sum((1, 2)),
            2 * n * m * u * snorm, 2 * n * u * fnorm, 2 * n * n * u * anorm]


@pytest.mark.parametrize("name", _BUNDLED + ["inline2d_m2"])
def test_margin_kernel_is_bit_equal_to_einsum(name):
    # with at most two state and two noise dimensions, left to right is einsum's order
    for model, idx, case, *data in _kernel_cases(name):
        got, want = _kernel_rows(model, idx, *data), _einsum_rows(model, idx, *data)
        for row, (g, w) in enumerate(zip(got, want)):
            assert g.view(np.int64).tolist() == w.view(np.int64).tolist(), (idx, case, row)


@pytest.mark.parametrize("name", _BUNDLED + list(_INLINE))
def test_margin_kernel_is_bit_equal_to_its_trees(name):
    for model, idx, case, *data in _kernel_cases(name):
        got, want = _kernel_rows(model, idx, *data), _tree_rows(model, idx, *data)
        for row, (g, w) in enumerate(zip(got, want)):
            assert g.view(np.int64).tolist() == w.view(np.int64).tolist(), (idx, case, row)


@pytest.mark.parametrize("name", list(_WIDE))
def test_wide_margin_kernel_is_within_summation_bound_of_einsum(name):
    for model, idx, case, *data in _kernel_cases(name):
        got, want = _kernel_rows(model, idx, *data), _einsum_rows(model, idx, *data)
        bounds = _summation_bounds(model, idx, *data)
        for row, (g, w, bound) in enumerate(zip(got, want, bounds)):
            assert np.isfinite(w).all() and (np.abs(g - w) <= bound).all(), (idx, case, row)


def test_margin_kernels_are_built_once_per_control(rotational, bang1d):
    for model in (rotational.model, bang1d.model):
        kernels = [verifier._margin_kernel(model, i) for i in range(model.n_controls)]
        assert [verifier._margin_kernel(model, i) for i in range(model.n_controls)] == kernels
        assert len(set(map(id, kernels))) == model.n_controls
        assert model._margin_kernels == dict(enumerate(kernels))


# ------------------------------------------------------------ row blocks

class _Boom(RuntimeError):
    pass


_REPORT_FIELDS = ("coords", "margins", "verdicts", "witnesses", "tangency_residuals",
                  "statuses", "tolerances")


def _grid_checks(rotational, circle_target, linear1d):
    """Every grid check once, each report as its fields' bytes and its summary."""
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (31, 31))
    model, cand = rotational.model, rotational.candidate
    field = al.ScalarField(grid=grid, values=cand.value(grid.nodes()))
    gamma1 = al.GaugeFunction.from_expression("2*r^2")
    gamma2 = al.GaugeFunction.from_expression("0.5*r^2")
    ident = al.GaugeFunction.from_expression("r")
    change = al.check_change_of_unknown(model, cand, "t^2", grid)
    reports = [
        al.check_supersolution(model, cand, grid, rotational.gauge),
        al.check_supersolution(model, field, grid, rotational.gauge),
        # infinite on the x1 = 0 column: derivatives are zeroed there
        al.check_supersolution(model, CandidateFunction("1/x1 + x2^2", 2), grid),
        # blocks of the middle third hold no node beyond rho
        al.check_supersolution(linear1d.model, linear1d.candidate,
                               al.Grid((-1.0,), (1.0,), (301,), rho=0.5)),
        al.radial_sufficient_check(model, grid),
        al.check_set_lyapunov(circle_target.model, circle_target.candidate,
                              "abs(sqrt(x1^2 + x2^2) - 1)", gamma1, gamma2,
                              al.Grid((-2.0, -2.0), (2.0, 2.0), (31, 31)), gamma2),
        al.check_set_lyapunov(model, CandidateFunction("2*sqrt(x1^2 + x2^2)", 2),
                              lambda x: np.linalg.norm(x, axis=-1), ident, ident, grid),
        change.report_original,
        change.report_transformed,
    ]
    assert reports[2].n_excluded > 0 and (reports[1].statuses == STATUS_EDGE).any()
    assert (reports[6].statuses == STATUS_SANDWICH).any()
    out = [[(getattr(r, k).dtype.str, getattr(r, k).shape, getattr(r, k).tobytes())
            for k in _REPORT_FIELDS] + [r.to_json()] for r in reports]
    return out, (change.agreement_fraction, change.n_compared,
                 change.disagreeing_nodes.tobytes())


def test_check_blocks_are_bit_identical_to_one_block(
        monkeypatch, rotational, circle_target, linear1d):
    monkeypatch.setattr(verifier, "_BLOCK_ROWS", 10**9)
    one_block = _grid_checks(rotational, circle_target, linear1d)
    monkeypatch.setattr(verifier, "_BLOCK_ROWS", 30)  # 2-D: 33 blocks, one of a single node
    blocks = _grid_checks(rotational, circle_target, linear1d)
    for got, want in zip(blocks[0], one_block[0]):
        for name, g, w in zip(_REPORT_FIELDS + ("summary",), got, want):
            assert g == w, name
    assert blocks[1] == one_block[1]


def test_grid_checks_start_no_thread(monkeypatch, rotational):
    # even where a value solve would start one thread per CPU
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (129, 129))
    assert grid.n_nodes > 2 * fields._MIN_ROWS_PER_THREAD
    model, cand = rotational.model, rotational.candidate
    field = al.ScalarField(grid=grid, values=cand.value(grid.nodes()))
    al.check_supersolution(model, cand, grid)
    al.check_supersolution(model, field, grid)
    al.check_change_of_unknown(model, cand, "t^2", grid)
    al.radial_sufficient_check(model, grid)
    ident = al.GaugeFunction.from_expression("r")
    al.check_set_lyapunov(model, cand, "sqrt(x1^2 + x2^2)", ident, ident, grid)
    al.check_viability_boundary(model, fields.extract_level_set(field, 0.5))
    assert started == []


@pytest.mark.parametrize("check", ["supersolution", "radial", "set-lyapunov"])
def test_check_block_failure_propagates_without_a_hang(monkeypatch, rotational, check):
    # the third block raises; no later block runs and no report is built
    monkeypatch.setattr(verifier, "_BLOCK_ROWS", 30)
    original = verifier._margin_kernel
    calls = []

    def failing(model, control_index):
        calls.append(control_index)
        if len(calls) == 3:
            raise _Boom("one block failed")
        return original(model, control_index)

    monkeypatch.setattr(verifier, "_margin_kernel", failing)
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (31, 31))
    model, cand = rotational.model, rotational.candidate
    ident = al.GaugeFunction.from_expression("r")
    run = {
        "supersolution": lambda: al.check_supersolution(model, cand, grid),
        "radial": lambda: al.radial_sufficient_check(model, grid),
        "set-lyapunov": lambda: al.check_set_lyapunov(model, cand, "sqrt(x1^2 + x2^2)",
                                                      ident, ident, grid),
    }[check]
    with pytest.raises(_Boom):
        run()
    assert len(calls) == 3


def test_verifier_starts_no_pool():
    # one pass on the calling thread: the row blocks of value solves pay for
    # their threads, a check's did not
    tree = ast.parse(Path(verifier.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names} | {getattr(node, "module", None)}
    forbidden = {"_RowBlocks", "threading", "Thread", "concurrent", "concurrent.futures",
                 "ThreadPoolExecutor", "ProcessPoolExecutor", "multiprocessing", "Pool"}
    assert names & forbidden == set()
