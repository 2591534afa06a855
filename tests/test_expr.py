import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aslyap import expr as ex
from aslyap.gauges import GaugeFunction


def test_parse_and_evaluate_basics():
    node = ex.parse_expr("2*x1 + x2^2 - 1")
    assert ex.evaluate(node, {"x1": 3.0, "x2": 2.0}) == pytest.approx(9.0)
    assert ex.evaluate(ex.parse_expr("min(1, 2) + max(3, -1)"), {}) == 4.0
    assert ex.evaluate(ex.parse_expr("-x1^2"), {"x1": 2.0}) == -4.0  # unary binds after ^
    assert ex.evaluate(ex.parse_expr("2^3^2"), {}) == 512.0  # right-associative


def test_vectorized_evaluation():
    node = ex.parse_expr("sin(x1)*exp(x2)")
    x1 = np.array([0.0, np.pi / 2])
    x2 = np.array([0.0, 1.0])
    out = ex.evaluate(node, {"x1": x1, "x2": x2})
    assert out == pytest.approx([0.0, np.e])


def test_syntax_error_positions():
    with pytest.raises(ex.ExprError) as err:
        ex.parse_expr("x1 + ")
    assert err.value.pos == 5
    with pytest.raises(ex.ExprError):
        ex.parse_expr("x1 + * x2")
    with pytest.raises(ex.ExprError) as err:
        ex.parse_expr("x1 $ 2")
    assert "$" in str(err.value)
    with pytest.raises(ex.ExprError):
        ex.parse_expr("foo(x1)")  # unknown function
    with pytest.raises(ex.ExprError):
        ex.parse_expr("min(x1)")  # wrong arity


def test_compiled_matches_tree_eval():
    node = ex.parse_expr("abs(x1)*sqrt(x2) + min(x1, x2) - log(x2)")
    kernel = ex._compile_rows([node], ["x1", "x2"])
    rng = np.random.Generator(np.random.Philox(key=1))
    x = rng.uniform((-2, 0.1), (2, 3), (64, 2))
    assert np.array_equal(ex._run(kernel, x), ex.evaluate(node, {"x1": x[:, 0], "x2": x[:, 1]}))


@pytest.mark.parametrize(
    "text",
    [
        "x1^3 - 2*x1 + 1",
        "sin(x1)*cos(x1)",
        "exp(-x1^2)",
        "sqrt(x1^2 + 0.5)",
        "abs(x1 - 0.2)",
        "min(x1^2, 2*x1 + 3)",
        "x1 / (1 + x1^2)",
        "log(x1^2 + 1)",
    ],
)
def test_analytic_derivative_matches_central_difference(text):
    node = ex.parse_expr(text)
    d = ex.diff(node, "x1")
    rng = np.random.Generator(np.random.Philox(key=7))
    xs = rng.uniform(0.3, 1.7, 100)
    h = 1e-5
    fd = (ex.evaluate(node, {"x1": xs + h}) - ex.evaluate(node, {"x1": xs - h})) / (2 * h)
    an = ex.evaluate(d, {"x1": xs}) + np.zeros_like(xs)
    scale = 1.0 + np.abs(an)
    assert np.all(np.abs(an - fd) <= 10 * h**2 * scale + 1e-10)


def test_second_derivative_chain():
    node = ex.parse_expr("exp(x1^2)")
    d2 = ex.diff(ex.diff(node, "x1"), "x1")
    # d2/dx2 exp(x^2) = (2 + 4 x^2) exp(x^2)
    x = 0.7
    expected = (2 + 4 * x**2) * np.exp(x**2)
    assert ex.evaluate(d2, {"x1": x}) == pytest.approx(expected, rel=1e-12)


def test_abs_derivative_sign_convention():
    d = ex.diff(ex.parse_expr("abs(x1)"), "x1")
    assert ex.evaluate(d, {"x1": 2.0}) == 1.0
    assert ex.evaluate(d, {"x1": -2.0}) == -1.0


def test_simplify_folds_constants():
    node = ex.parse_expr("0*x1 + 1*x2 + (2 + 3)")
    assert ex.simplify(node) == ex.Bin("+", ex.Var("x2"), ex.Num(5.0))


_leaf = st.one_of(
    st.floats(min_value=-3, max_value=3, allow_nan=False).map(
        lambda v: ex.Num(float(np.round(v, 3)))
    ),
    st.sampled_from(["x1", "x2"]).map(ex.Var),
)


def _neg(t):
    # mirror the parser's canonical form: unary minus folds into literals
    return ex.Num(-t.value) if isinstance(t, ex.Num) else ex.Neg(t)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda t: ex.Bin(t[0], t[1], t[2])),
        sub.map(_neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), sub).map(
            lambda t: ex.Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda t: ex.Call(t[0], (t[1], t[2]))
        ),
    )


@given(tree=_trees(3))
@settings(max_examples=200, deadline=None)
def test_source_round_trip(tree):
    # rendering and reparsing preserves the tree exactly
    assert ex.parse_expr(ex.to_source(tree)) == tree


@pytest.mark.parametrize("text", ["0.5*r", "r", "2*r^2", "1", "min(r, 0.3)",
                                  "sqrt(r)*exp(-r)", "-r", "log(r)", "r/(r - 1)"])
def test_compiled_gauge_matches_tree_walk(text):
    gauge = GaugeFunction.from_expression(text)
    node = ex.parse_expr(text)
    for r in (np.linspace(0.0, 2.0, 101), np.array(0.7), np.zeros((3, 4))):
        # the tree walk the gauge used to do on every call; neither warns at
        # log(0) or 1/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            walk = np.asarray(ex.evaluate(node, {"r": r}), dtype=float) + np.zeros_like(r)
            got = gauge(r)
        assert type(got) is type(walk) and np.shape(got) == np.shape(walk)
        assert np.asarray(got).tobytes() == np.asarray(walk).tobytes()
    r = np.linspace(0.0, 1.0, 5)
    gauge(r)[:] = 7.0  # the result is never the argument itself
    assert r[-1] == 1.0


# ------------------------------------------------------------ row kernels

_SPECIAL = np.array([-2.0, -0.5, 0.0, 0.3, 1.7, np.inf, -np.inf, np.nan])


def _kernel_rows(trees, args, *values):
    out = np.full((len(trees), len(_SPECIAL)), -1.0)
    with np.errstate(all="ignore"):
        got = ex._compile_rows(trees, args)(*values, out)
    assert got is out
    return out


def _walk(tree, args, *values):
    """The tree walk at ``values``, broadcast to the points as a kernel row is."""
    with np.errstate(all="ignore"):
        got = ex.evaluate(tree, dict(zip(args, values)))
    return np.ascontiguousarray(np.broadcast_to(got, _SPECIAL.shape), dtype=float)


@given(shared=_trees(2),
       rows=st.lists(st.tuples(st.sampled_from("+-*/^"), _trees(2)), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_row_kernel_matches_tree_walk(shared, rows):
    # a subtree shared by several rows, each under its own top-level operation,
    # next to rows that repeat a subtree of another row or are bare leaves
    # (each operand pair holds an array: Python floats raise on 0/0 where numpy gives NaN)
    trees = ([ex.Bin(op, shared, ex.Bin("+", ex.Var("x2"), t)) for op, t in rows]
             + [ex.Call("sin", (shared,))] + [t for _, t in rows])
    x1, x2 = _SPECIAL, np.roll(_SPECIAL[::-1], 3)  # every pairing of signs, inf and NaN
    out = _kernel_rows(trees, ["x1", "x2"], x1, x2)
    for tree, row in zip(trees, out):
        assert row.tobytes() == _walk(tree, ["x1", "x2"], x1, x2).tobytes(), ex.to_source(tree)


def test_row_kernel_evaluates_repeated_subtrees_once():
    x1, x2, w1, dt = (ex.Var(v) for v in ("x1", "x2", "w1", "dt"))
    half = ex.parse_expr("0.5*(w1*w1 - dt)")
    neg = ex.Neg(x2)
    trees = [
        ex.Bin("+", ex.Bin("+", x1, ex.Bin("*", neg, w1)), ex.Bin("*", ex.Neg(x1), half)),
        ex.Bin("+", ex.Bin("+", x2, ex.Bin("*", x1, w1)), ex.Bin("*", neg, half)),
        ex.Bin("*", neg, dt),
    ]
    args = ["x1", "x2", "w1", "dt"]
    src = "\n".join(ex._np_sources(trees, args))
    assert src.count("(0.5 * ((w1 * w1) - dt))") == 1
    assert src.count("(-x2)") == 1
    values = (_SPECIAL, _SPECIAL[::-1], np.roll(_SPECIAL, 2), 1e-3)
    out = _kernel_rows(trees, args, *values)
    for tree, row in zip(trees, out):
        assert row.tobytes() == _walk(tree, args, *values).tobytes()
    # the names bound for repeats never shadow an argument
    v = ex.Var("_t0")
    square = ex.Bin("*", ex.Bin("+", v, v), ex.Bin("+", v, v))
    assert ex._run(ex._compile_rows([square], ["_t0"]), np.array([[1.5]])).tolist() == [9.0]


def test_row_kernel_broadcasts_constant_and_bare_rows():
    trees = [ex.Num(2.5), ex.Var("x2"), ex.Var("dt"), ex.parse_expr("dt*3")]
    x1, x2 = _SPECIAL, _SPECIAL[::-1]
    out = _kernel_rows(trees, ["x1", "x2", "dt"], x1, x2, 0.25)
    assert out[0].tolist() == [2.5] * len(x1)
    assert out[1].tobytes() == x2.tobytes()
    assert out[2].tolist() == [0.25] * len(x1) and out[3].tolist() == [0.75] * len(x1)


def test_unknown_identifier_rejected_at_compile():
    node = ex.parse_expr("x1 + bogus")
    with pytest.raises(ex.ExprError, match="bogus"):
        ex._compile_rows([node], ["x1"])


def test_row_kernel_rejects_unknown_identifiers():
    with pytest.raises(ex.ExprError, match="bogus"):
        ex._compile_rows([ex.Var("x1"), ex.parse_expr("x1 + bogus")], ["x1"])


def test_only_expr_generates_code():
    # one generator: no other module of the package runs source it builds itself
    callers = set()
    for path in Path(ex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("eval", "exec", "_np_sources"):
                    callers.add(path.name)
    assert callers == {"expr.py"}
