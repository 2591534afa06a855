import numpy as np
import pytest
import sympy as sp

import aslyap as al
from aslyap import expr as ex
from aslyap.expr import _EVAL_POINTS
from aslyap.model import ModelError
from aslyap.verifier import _central_hessian

from conftest import MODELS, load


def _inline(dynamics, n=1, m=1, controls="hold = 0.0", candidate="", domain=None):
    lower, upper = domain or ("-1" + ", -1" * (n - 1), "1" + ", 1" * (n - 1))
    return al.parse_model(
        f"[dimensions]\nstate = {n}\nnoise = {m}\n"
        f"[controls]\n{controls}\n"
        f"[dynamics]\n{dynamics}\n"
        + (f"[candidate]\n{candidate}\n" if candidate else "")
        + f"[domain]\nlower = {lower}\nupper = {upper}\n"
    )


def test_parse_minimal_deterministic_model():
    pm = _inline("f1 = -x1")
    assert pm.model.drift([0.5], 0) == pytest.approx([-0.5])
    assert np.asarray(pm.model.sigma([0.5], 0)) == pytest.approx(np.zeros((1, 1)))


def test_parse_rotational_drift_by_hand(rotational):
    # f = -(c^2/2 + delta) x with c=1, delta=0.5 evaluated at (1, 0)
    assert rotational.model.drift([1.0, 0.0], 0) == pytest.approx([-1.0, 0.0])
    assert rotational.model.sigma([1.0, 0.0], 0)[:, 0] == pytest.approx([0.0, 1.0])


def test_trailing_operator_is_a_positioned_error():
    with pytest.raises(ModelError) as err:
        _inline("f1 = x1 +")
    assert "line" in str(err.value)


@pytest.mark.parametrize("literal", ["1e400", "1.8e308", "123" + "0" * 400],
                         ids=["1e400", "1.8e308", "403-digits"])
def test_overflowing_literal_is_a_positioned_model_error(literal):
    # float() reads these as inf, which no kernel can render
    with pytest.raises(ModelError, match=f"line 7: syntax error: number {literal} overflows a "
                                         r"float \(at position 0\)"):
        _inline(f"f1 = {literal}*x1")
    with pytest.raises(ex.ExprError, match="overflows a float"):
        al.CandidateFunction(f"-{literal}*x1", 1)
    assert _inline("f1 = 1e-400*x1").model.drift([1.0], 0) == [0.0]  # underflow is a float


def test_dimension_mismatches():
    with pytest.raises(ModelError, match="drift rows missing"):
        _inline("f1 = -x1", n=2)
    with pytest.raises(ModelError, match="outside"):
        _inline("f1 = -x1\nf2 = -x2\ns3_1 = 1", n=2)
    with pytest.raises(ModelError, match="outside"):
        _inline("f1 = -x1\ns1_2 = 1", n=1, m=1)


def test_unknown_identifier_rejected():
    with pytest.raises(ModelError, match="x9"):
        _inline("f1 = -x9")


def test_eval_a_zero_diffusion():
    pm = _inline("f1 = -x1")
    assert np.allclose(al.eval_a(pm.model, [0.7], 0), 0.0)


def test_eval_a_rotational_sympy_oracle(rotational):
    # independent symbolic computation of sigma sigma^T / 2
    x1, x2 = sp.symbols("x1 x2")
    sigma = sp.Matrix([[-x2], [x1]])
    a_sym = sigma * sigma.T / 2
    pt = {"x1": 0.3, "x2": -0.8}
    expected = np.array(a_sym.subs(pt), dtype=float)
    got = al.eval_a(rotational.model, [0.3, -0.8], 0)
    assert got == pytest.approx(expected)
    assert np.trace(got) == pytest.approx((0.3**2 + 0.8**2) / 2)
    assert got == pytest.approx(got.T)


def test_eval_a_identity_diffusion():
    pm = _inline("f1 = -x1\nf2 = -x2\ns1_1 = 1\ns2_2 = 1", n=2, m=2)
    assert al.eval_a(pm.model, [0.1, 0.2], 0) == pytest.approx(np.eye(2) / 2)


def test_eval_a_is_psd_on_samples(rotational, circle_target):
    rng = np.random.Generator(np.random.Philox(key=3))
    for pm in (rotational, circle_target):
        xs = rng.uniform(-1, 1, size=(50, 2))
        xs = xs[np.linalg.norm(xs, axis=1) > 1e-3]
        a = al.eval_a(pm.model, xs, 0)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() >= -1e-12


def test_round_trip_all_bundled_models():
    for path in sorted(MODELS.glob("*.model")):
        pm = load(path.name)
        text = al.serialize_model(pm)
        pm2 = al.parse_model(text)
        assert pm2 == pm, path.name
        assert al.serialize_model(pm2) == text, path.name


def test_evaluators_are_deterministic(rotational):
    x = np.array([[0.3, 0.4], [-0.1, 0.9]])
    a = rotational.model.drift(x, 0)
    b = rotational.model.drift(x.copy(), 0)
    assert np.array_equal(a, b)


def test_per_control_override():
    pm = _inline(
        "f1 = a1*x1\nf1@special = 7*x1",
        controls="normal = 2.0\nspecial = 3.0",
    )
    assert pm.model.drift([1.0], 0) == pytest.approx([2.0])
    assert pm.model.drift([1.0], 1) == pytest.approx([7.0])
    # overrides survive the round trip
    again = al.parse_model(al.serialize_model(pm))
    assert again.model.drift([1.0], 1) == pytest.approx([7.0])


def _entrywise(trees, x, tail=()):
    """The tree walk of each entry, broadcast to the points, stacked."""
    x = np.asarray(x, dtype=float)
    env = {f"x{i+1}": x[..., i] for i in range(x.shape[-1])}
    with np.errstate(all="ignore"):
        entries = [np.broadcast_to(np.asarray(ex.evaluate(t, env), dtype=float), x.shape[:-1])
                   for t in trees]
    return np.stack(entries, axis=-1).reshape(x.shape[:-1] + tail)


# a 3-D model with two noise columns and a per-control override puts every
# entry of sigma and of the Hessian in a distinct place
_THREE_BY_TWO = """[dimensions]\nstate = 3\nnoise = 2
[controls]\nslow = 0.5\nfast = 2.0
[dynamics]\nf1 = -a1*x1 + x2*x3\nf2 = -x2 + sin(x1)\nf3 = -a1*x3
s1_1 = x2\ns1_2 = 0.5\ns2_1 = -x1\ns3_2 = x1*x3\ns3_2@fast = max(x1, x3)
[candidate]\nV = x1^2*x2 + x1*sin(x3) + abs(x2 - x3) + exp(x3)*x2
[domain]\nlower = -1, -1, -1\nupper = 1, 1, 1
"""


def _same_array(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [*sorted(p.name for p in MODELS.glob("*.model")), "3x2"])
def test_array_kernels_match_entrywise_functions_bit_for_bit(name):
    pm = al.parse_model(_THREE_BY_TWO) if name == "3x2" else load(name)
    model, cand = pm.model, pm.candidate
    n, m = model.dim_state, model.dim_noise
    rng = np.random.Generator(np.random.Philox(key=4))
    # zeros sit on the kinks of abs, min and max; bang1d's sigma is the
    # constant 0 and its gradient and Hessian have constant branches
    batch = np.vstack([np.zeros(n), np.eye(n), rng.uniform(-1, 1, size=(6, n))])
    # more points than one kernel call takes: sub-blocks, the last one partial
    large = rng.uniform(-1, 1, size=(3, _EVAL_POINTS - 1, n))
    inputs = [batch[-1], batch, batch[:6].reshape(2, 3, n), np.empty((0, n)), large,
              large.reshape(-1, n)]
    grads = [ex.diff(cand.expression, f"x{i+1}") for i in range(n)]
    hess_trees = [ex.diff(g, f"x{j+1}") for g in grads for j in range(n)]
    for x in inputs:
        for ci in range(model.n_controls):
            drift, sigma = model._control_trees(ci)
            _same_array(model.drift(x, ci), _entrywise(drift, x, (n,)))
            _same_array(model.sigma(x, ci), _entrywise([t for r in sigma for t in r], x, (n, m)))
        _same_array(cand.value(x), _entrywise([cand.expression], x))
        _same_array(cand.gradient(x), _entrywise(grads, x, (n,)))
        hess = _entrywise(hess_trees, x, (n, n))
        _same_array(cand.hessian(x), 0.5 * (hess + np.swapaxes(hess, -1, -2)))


@pytest.mark.parametrize("base", ["-2", "-0.5", "-0"])
def test_negative_constant_base_matches_the_tree_walk(base):
    # a constant with its sign bit set is parenthesised: (-2)^x1 is 4 at x1 = 2, not -4
    power = f"({base})^x1"
    pm = _inline(f"f1 = {power}", candidate=f"V = {power}\nl = ({base})^r")
    x = np.array([2.0, 3.0, 0.5, -1.0, 0.0])
    with np.errstate(all="ignore"):
        want = ex.evaluate(ex.parse_expr(power), {"x1": x})
    assert want[0] == float(base) ** 2
    _same_array(pm.model.drift(x[:, None], 0)[:, 0], want)
    _same_array(pm.candidate.value(x[:, None]), want)
    _same_array(pm.gauge(x), want + 0.0)  # a gauge turns -0.0 into 0.0


def test_evaluators_reject_points_of_the_wrong_dimension(rotational):
    for evaluate in (lambda x: rotational.model.drift(x, 0), rotational.candidate.value,
                     rotational.candidate.hessian):
        with pytest.raises(ValueError, match="2 components"):
            evaluate(np.zeros((3, 1)))


def test_candidate_analytic_vs_central_difference(rotational):
    # the verifier's nonsmoothness cross-check differences the candidate's values
    cand = rotational.candidate
    rng = np.random.Generator(np.random.Philox(key=9))
    xs = rng.uniform(-1, 1, size=(200, 2))
    xs = xs[np.linalg.norm(xs, axis=1) > 0.2][:100]
    step = cand.fd_step
    gf = np.stack([(cand.value(xs + step * e) - cand.value(xs - step * e)) / (2 * step)
                   for e in np.eye(2)], axis=-1)
    hf = _central_hessian(cand.value, xs, step)
    assert np.abs(cand.gradient(xs) - gf).max() <= 10 * step**2
    assert np.abs(cand.hessian(xs) - hf).max() <= 1e-4


def test_candidate_requires_positive_fd_step():
    with pytest.raises(ValueError, match="positive"):
        al.CandidateFunction("x1^2", 1, fd_step=0.0)
    assert al.CandidateFunction("x1^2", 1, fd_step=1e-4).compose("t^2").fd_step == 1e-4
    with pytest.raises(ValueError, match="finite"):
        al.CandidateFunction("x1^2", 1, fd_step=np.inf)


def test_gauge_from_model_is_radial(rotational):
    assert rotational.gauge(0.5) == pytest.approx(0.25)
    assert rotational.gauge.of_points(np.array([[0.3, 0.4]])) == pytest.approx([0.25])


def test_missing_sections_rejected():
    with pytest.raises(ModelError, match=r"\[controls\]"):
        al.parse_model("[dimensions]\nstate = 1\nnoise = 1\n[dynamics]\nf1 = -x1\n"
                       "[domain]\nlower = -1\nupper = 1\n")


@pytest.mark.parametrize("lower, upper", [
    ("nan, -1", "1, 1"), ("-1, -1", "1, nan"), ("nan, nan", "nan, nan"), ("-1, 1", "1, 1"),
])
def test_domain_bounds_must_be_ordered(lower, upper):
    with pytest.raises(ModelError, match="must exceed"):
        _inline("f1 = -x1\nf2 = -x2", n=2, domain=(lower, upper))
