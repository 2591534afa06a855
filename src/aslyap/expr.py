"""Expression trees for dynamics and candidate functions.

A small recursive-descent parser over ``+ - * / ^``, unary minus, a fixed
function vocabulary (``sin cos exp log sqrt abs min max``), decimal literals
and named variables.  Trees are immutable; differentiation, simplification
and compilation all return new objects.

``_compile_rows`` is the one code generator and ``_run`` runs its kernels
over arrays of points; the tree walk ``evaluate`` folds constants and is the
reference that the kernels are tested against.

``ifle(a, b, t, e)`` is an internal extension (t if a <= b else e) used by
the differentiation of ``min``/``max``; the parser accepts it so derivative
trees stay round-trippable.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExprError",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "parse_expr",
    "evaluate",
    "free_vars",
    "diff",
    "simplify",
    "to_source",
]


class ExprError(ValueError):
    """Parse or evaluation failure, carrying a source position when known."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Node", ...]


Node = Num | Var | Neg | Bin | Call

_UNARY_FNS = {"sin", "cos", "exp", "log", "sqrt", "abs"}
_FN_ARITY = {**{f: 1 for f in _UNARY_FNS}, "min": 2, "max": 2, "ifle": 4}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExprError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Bin(val, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        # exponentiation binds tighter than unary minus: -x^2 == -(x^2)
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            inner = self.factor()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Neg(inner)
        if kind == "op" and val == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self) -> Node:
        node = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Bin("^", node, self.factor())  # right-associative
        return node

    def primary(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "num":
            if not math.isfinite(float(val)):
                raise ExprError(f"number {val} overflows a float", pos)
            return Num(float(val))
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in _FN_ARITY:
                    raise ExprError(f"unknown function {val!r}", pos)
                self.advance()
                args = [self.expr()]
                while True:
                    k3, v3, p3 = self.peek()
                    if k3 == "op" and v3 == ",":
                        self.advance()
                        args.append(self.expr())
                    elif k3 == "op" and v3 == ")":
                        self.advance()
                        break
                    else:
                        raise ExprError("expected ',' or ')'", p3)
                if len(args) != _FN_ARITY[val]:
                    raise ExprError(
                        f"{val} takes {_FN_ARITY[val]} argument(s), got {len(args)}", pos
                    )
                return Call(val, tuple(args))
            return Var(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExprError("unexpected end of expression", pos)
        raise ExprError(f"unexpected {val!r}", pos)


def parse_expr(text: str) -> Node:
    """Parse ``text`` into an expression tree, raising ExprError on bad input."""
    return _Parser(text).parse()


def free_vars(node: Node) -> set[str]:
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return free_vars(node.arg)
    if isinstance(node, Bin):
        return free_vars(node.left) | free_vars(node.right)
    return set().union(*(free_vars(a) for a in node.args))


def evaluate(node: Node, env: dict):
    """Evaluate a tree against ``env`` (values may be scalars or arrays)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise ExprError(f"unknown identifier {node.name!r}") from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, Bin):
        lv = evaluate(node.left, env)
        rv = evaluate(node.right, env)
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        if node.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                return lv / rv
        with np.errstate(invalid="ignore"):
            return lv ** rv
    args = [evaluate(a, env) for a in node.args]
    if node.fn == "min":
        return np.minimum(args[0], args[1])
    if node.fn == "max":
        return np.maximum(args[0], args[1])
    if node.fn == "abs":
        return np.abs(args[0])
    if node.fn == "ifle":
        return np.where(args[0] <= args[1], args[2], args[3])
    with np.errstate(invalid="ignore", divide="ignore"):
        return getattr(np, node.fn)(args[0])


def _constant_fault(node: Node) -> str | None:
    """Why a constant subexpression of ``node`` has no real float value, or None.

    Compiled trees evaluate constant operands in Python floats, where 1/0 and
    0^-1 raise, 10^400 overflows and (-1)^0.5 turns complex.
    """
    if isinstance(node, (Num, Var)):
        return None
    if not free_vars(node):
        try:
            value = evaluate(node, {})
        except ArithmeticError as err:
            return f"constant {to_source(node)} cannot be evaluated: {err}"
        if isinstance(value, complex):
            return f"constant {to_source(node)} is not a real number"
        return None
    for child in _children(node):
        fault = _constant_fault(child)
        if fault:
            return fault
    return None


def substitute(node: Node, mapping: dict[str, Node]) -> Node:
    """Replace variables by subtrees (used for composing candidates)."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(substitute(node.arg, mapping))
    if isinstance(node, Bin):
        return Bin(node.op, substitute(node.left, mapping), substitute(node.right, mapping))
    return Call(node.fn, tuple(substitute(a, mapping) for a in node.args))


def _is_num(node: Node, value: float | None = None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def simplify(node: Node) -> Node:
    """Constant folding plus simple identities; keeps derivative trees small."""
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        a = simplify(node.arg)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(node, Bin):
        l = simplify(node.left)
        r = simplify(node.right)
        if isinstance(l, Num) and isinstance(r, Num):
            try:
                v = evaluate(Bin(node.op, l, r), {})
            except ZeroDivisionError:
                return Bin(node.op, l, r)
            if np.isfinite(v):
                return Num(float(v))
        if node.op == "+":
            if _is_num(l, 0.0):
                return r
            if _is_num(r, 0.0):
                return l
        elif node.op == "-":
            if _is_num(r, 0.0):
                return l
            if _is_num(l, 0.0):
                return simplify(Neg(r))
        elif node.op == "*":
            if _is_num(l, 0.0) or _is_num(r, 0.0):
                return Num(0.0)
            if _is_num(l, 1.0):
                return r
            if _is_num(r, 1.0):
                return l
        elif node.op == "/":
            if _is_num(l, 0.0):
                return Num(0.0)
            if _is_num(r, 1.0):
                return l
        elif node.op == "^":
            if _is_num(r, 1.0):
                return l
            if _is_num(r, 0.0):
                return Num(1.0)
        return Bin(node.op, l, r)
    return Call(node.fn, tuple(simplify(a) for a in node.args))


def diff(node: Node, var: str) -> Node:
    """Analytic derivative with respect to ``var`` by tree transformation.

    abs uses the sign convention (derivative 0 at the kink); min/max select
    the active branch, ties resolved toward the first argument.
    """
    d = _diff(node, var)
    return simplify(d)


def _diff(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg, var))
    if isinstance(node, Bin):
        u, v = node.left, node.right
        du, dv = _diff(u, var), _diff(v, var)
        if node.op == "+":
            return Bin("+", du, dv)
        if node.op == "-":
            return Bin("-", du, dv)
        if node.op == "*":
            return Bin("+", Bin("*", du, v), Bin("*", u, dv))
        if node.op == "/":
            num = Bin("-", Bin("*", du, v), Bin("*", u, dv))
            return Bin("/", num, Bin("^", v, Num(2.0)))
        # power
        if isinstance(v, Num):
            return Bin("*", Bin("*", v, Bin("^", u, Num(v.value - 1.0))), du)
        # general u^v = exp(v log u)
        inner = Bin(
            "+",
            Bin("*", dv, Call("log", (u,))),
            Bin("*", v, Bin("/", du, u)),
        )
        return Bin("*", Bin("^", u, v), inner)
    u = node.args[0]
    du = _diff(u, var)
    if node.fn == "sin":
        return Bin("*", Call("cos", (u,)), du)
    if node.fn == "cos":
        return Neg(Bin("*", Call("sin", (u,)), du))
    if node.fn == "exp":
        return Bin("*", Call("exp", (u,)), du)
    if node.fn == "log":
        return Bin("/", du, u)
    if node.fn == "sqrt":
        return Bin("/", du, Bin("*", Num(2.0), Call("sqrt", (u,))))
    if node.fn == "abs":
        # sign(u) * u', written as ifle to stay in-vocabulary
        sgn = Call("ifle", (u, Num(0.0), Num(-1.0), Num(1.0)))
        return Bin("*", sgn, du)
    if node.fn in ("min", "max"):
        v = node.args[1]
        dv = _diff(v, var)
        if node.fn == "min":
            return Call("ifle", (u, v, du, dv))
        return Call("ifle", (v, u, du, dv))
    if node.fn == "ifle":
        a, b, t, e = node.args
        return Call("ifle", (a, b, _diff(t, var), _diff(e, var)))
    raise ExprError(f"cannot differentiate {node.fn}")


def to_source(node: Node) -> str:
    """Render a tree back to grammar text; reparses to an equal tree."""
    return _emit(node, 0)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _emit(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        v = node.value
        s = repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        if v < 0:
            return f"({s})"
        return s
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _emit(node.arg, 4)
        s = f"-{inner}"
        return f"({s})" if parent_prec > 1 else s
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        left = _emit(node.left, prec)
        # - and / are left-associative, ^ right-associative
        right = _emit(node.right, prec + (0 if node.op == "^" else 1))
        s = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        return f"({s})" if prec < parent_prec else s
    args = ", ".join(_emit(a, 0) for a in node.args)
    return f"{node.fn}({args})"


_NP_FNS = {"sin": "np.sin", "cos": "np.cos", "exp": "np.exp", "log": "np.log",
           "sqrt": "np.sqrt", "abs": "np.abs", "min": "np.minimum", "max": "np.maximum"}


def _children(node: Node) -> tuple:
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def _render(node: Node, child) -> str:
    """numpy source of ``node``'s own operation; ``child`` renders its operands."""
    if isinstance(node, Num):
        # with the sign bit set, -2.0 ** x would read as -(2.0 ** x)
        return f"({node.value!r})" if math.copysign(1.0, node.value) < 0 else repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{child(node.arg)})"
    if isinstance(node, Bin):
        op = "**" if node.op == "^" else node.op
        return f"({child(node.left)} {op} {child(node.right)})"
    if node.fn == "ifle":
        a, b, t, e = (child(x) for x in node.args)
        return f"np.where({a} <= {b}, {t}, {e})"
    return f"{_NP_FNS[node.fn]}({', '.join(child(a) for a in node.args)})"


_OUT_UFUNCS = {"+": "np.add", "-": "np.subtract", "*": "np.multiply", "/": "np.true_divide"}


def _np_sources(trees: list[Node], arg_names: list[str]) -> list[str]:
    """numpy statements that write tree i into ``_out[i]``, evaluating each
    repeated subtree once.

    Subtrees are the same when their source is (so ``-0.0`` and ``0.0``
    differ).  The first evaluation of a repeated subtree binds it to a name
    with ``:=`` and later ones read that name; Python evaluates operands left
    to right, so the first evaluation is the leftmost occurrence, in the
    first tree that has one.  A top-level + - * / is computed in place in
    its row.
    """
    unknown = set().union(*map(free_vars, trees)) - set(arg_names)
    if unknown:
        raise ExprError(f"unknown identifier(s): {', '.join(sorted(unknown))}")
    plain: dict[int, str] = {}  # by node identity, for the duration of the call

    def key(node):
        if id(node) not in plain:
            plain[id(node)] = _render(node, key)
        return plain[id(node)]

    uses: dict[str, int] = {}

    def count(node):
        if isinstance(node, (Num, Var)):
            return
        k = key(node)
        uses[k] = uses.get(k, 0) + 1
        if uses[k] == 1:  # the operands of a repeat are evaluated with it, once
            for c in _children(node):
                count(c)

    for tree in trees:
        count(tree)
    prefix = "_t"
    while any(a.startswith(prefix) for a in arg_names):
        prefix = "_" + prefix
    names: dict[str, str] = {}

    def source(node):
        k = key(node)
        if k in names:
            return names[k]
        s = _render(node, source)
        if uses.get(k, 0) > 1:
            names[k] = f"{prefix}{len(names)}"
            s = f"({names[k]} := {s})"
        return s

    lines = []
    for i, tree in enumerate(trees):
        target = f"_out[{i}]"
        if isinstance(tree, Bin) and tree.op in _OUT_UFUNCS and uses[key(tree)] == 1:
            lines.append(f"{_OUT_UFUNCS[tree.op]}({source(tree.left)}, "
                         f"{source(tree.right)}, out={target})")
        else:
            lines.append(f"{target} = {source(tree)}")
    return lines


def _compile_rows(trees: list[Node], arg_names: list[str]):
    """One function of ``(*arg_names, out)`` that writes tree i into ``out[i]``.

    Each repeated subtree is evaluated once, across all trees; a constant or
    bare-variable tree broadcasts over its row.  Unknown identifiers are
    rejected here rather than at call time.  The kernel sets no error state
    (``_run`` and the step loop do), and ``out`` must not share memory with
    an argument.
    """
    body = "\n".join(f"    {line}" for line in _np_sources(trees, arg_names))
    src = f"def _rows({', '.join([*arg_names, '_out'])}):\n{body}\n    return _out\n"
    scope = {"np": np}
    exec(src, scope)  # noqa: S102 - source generated above
    return scope["_rows"]


# Points per kernel call: each call's temporaries then stay at most 64 KiB an
# array, under glibc's mmap threshold, so a whole-grid call reuses heap pages
# instead of faulting in fresh mappings.
_EVAL_POINTS = 8192


def _run(kernel, points: np.ndarray, tail: tuple[int, ...] = ()) -> np.ndarray:
    """The rows a ``_compile_rows`` kernel writes at each point of the float
    array ``points``, shaped (..., args), as an array of shape
    ``points.shape[:-1] + tail``.

    The kernel runs over sub-blocks of at most ``_EVAL_POINTS`` points,
    writing into the one output; every kernel is elementwise, so the
    sub-blocks change no bit.  Non-finite values are legitimate here;
    callers mask or flag them.
    """
    out = np.empty(points.shape[:-1] + tail)
    flat, rows = points.reshape(-1, points.shape[-1]), out.reshape(-1, math.prod(tail))
    with np.errstate(all="ignore"):
        for lo in range(0, len(flat), _EVAL_POINTS):
            block = slice(lo, lo + _EVAL_POINTS)
            kernel(*flat[block].T, rows[block].T)
    return out


def _norm_tree(entries: list[Node]) -> Node:
    """sqrt(e1^2 + ... + en^2) of the entry trees, summed left to right."""
    squares = [Bin("^", e, Num(2.0)) for e in entries]
    return Call("sqrt", (functools.reduce(lambda a, b: Bin("+", a, b), squares),))
