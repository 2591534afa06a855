"""Controlled-diffusion models and candidate functions.

Models are loaded from a sectioned key=value text format:

    [dimensions]        state = 2 / noise = 1
    [controls]          label = c1, c2, ...      (one line per control point)
    [dynamics]          f1..fN drift rows, s<i>_<j> diffusion entries
                        (missing s entries are zero; `f1@label` overrides a
                        row for one control point)
    [candidate]         V = <expression in x1..xN>, l = <expression in r>
    [domain]            lower = ..., upper = ...  (per-axis bounds)

Expressions may reference x1..xN and the control components a1..ak.
All evaluators are pure and vectorized over leading axes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .gauges import GaugeFunction

__all__ = [
    "ModelError",
    "Control",
    "ControlledDiffusion",
    "CandidateFunction",
    "ParsedModel",
    "parse_model",
    "serialize_model",
    "eval_a",
    "EquilibriumCheck",
    "check_controlled_equilibrium",
    "check_lipschitz_sample",
]


class ModelError(ValueError):
    """Malformed model file: carries a line number when available."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Control:
    label: str
    vector: tuple[float, ...]


def _points(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ModelError(f"state must have {dim} components")
    return x


def _evaluate(kernel, x, dim: int, tail: tuple[int, ...]) -> np.ndarray:
    """The rows an ``ex._compile_rows`` kernel of x1..x<dim> writes at each
    point of ``x``, shaped ``x.shape[:-1] + tail``.

    Non-finite values are legitimate here; callers mask or flag them.
    """
    x = _points(x, dim)
    out = np.empty(x.shape[:-1] + tail)
    with np.errstate(all="ignore"):
        kernel(*x.reshape(-1, dim).T, out.reshape(-1, math.prod(tail)).T)
    return out


@dataclass(eq=True)
class ControlledDiffusion:
    """Finite-control diffusion dX = f(X, a) dt + sigma(X, a) dB."""

    dim_state: int
    dim_noise: int
    controls: tuple[Control, ...]
    drift_base: tuple[ex.Node, ...]
    sigma_base: tuple[tuple[ex.Node, ...], ...]
    drift_overrides: dict = field(default_factory=dict)   # (label, row) -> Node
    sigma_overrides: dict = field(default_factory=dict)   # (label, row, col) -> Node
    domain_lower: tuple[float, ...] = ()
    domain_upper: tuple[float, ...] = ()
    lipschitz_estimate: float | None = field(default=None, compare=False)  # sampled, not compared

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ModelError("dimensions must be at least 1")
        if not self.controls:
            raise ModelError("control list must be nonempty")
        k = len(self.controls[0].vector)
        if any(len(c.vector) != k for c in self.controls):
            raise ModelError("all control points must have the same length")
        xvars = [f"x{i+1}" for i in range(self.dim_state)]
        self._kernels = []  # per control: (drift rows, sigma entries row by row)
        for ci in range(len(self.controls)):
            drift, sigma = self._control_trees(ci)
            self._kernels.append((ex._compile_rows(list(drift), xvars),
                                  ex._compile_rows([t for row in sigma for t in row], xvars)))

    def _control_trees(self, control_index: int):
        """Drift rows and sigma rows of one control point as simplified trees in x."""
        c = self.controls[control_index]
        amap = {f"a{j+1}": ex.Num(v) for j, v in enumerate(c.vector)}

        def resolve(tree):
            return ex.simplify(ex.substitute(tree, amap))

        drift = tuple(resolve(self.drift_overrides.get((c.label, i), self.drift_base[i]))
                      for i in range(self.dim_state))
        sigma = tuple(
            tuple(resolve(self.sigma_overrides.get((c.label, i, j), self.sigma_base[i][j]))
                  for j in range(self.dim_noise))
            for i in range(self.dim_state)
        )
        return drift, sigma

    def drift(self, x, control_index: int) -> np.ndarray:
        n = self.dim_state
        return _evaluate(self._kernels[control_index][0], x, n, (n,))

    def sigma(self, x, control_index: int) -> np.ndarray:
        n = self.dim_state
        return _evaluate(self._kernels[control_index][1], x, n, (n, self.dim_noise))

    def a(self, x, control_index: int) -> np.ndarray:
        return eval_a(self, x, control_index)

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    def domain_diameter(self) -> float:
        lo = np.asarray(self.domain_lower)
        up = np.asarray(self.domain_upper)
        return float(np.linalg.norm(up - lo))


def eval_a(model: ControlledDiffusion, x, control_index: int) -> np.ndarray:
    """Half outer product sigma sigma^T / 2, explicitly symmetrized."""
    return _half_outer(model.sigma(x, control_index))


def _half_outer(s: np.ndarray) -> np.ndarray:
    """a = s s^T / 2 of each matrix in a stack of sigmas, explicitly symmetrized."""
    a = 0.5 * np.einsum("...im,...jm->...ij", s, s)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


class CandidateFunction:
    """Scalar function of the state with gradient and Hessian evaluation.

    ``derivative_mode`` is 'analytic' (tree differentiation) or
    'central-difference' with step ``fd_step``.
    """

    def __init__(self, expression: ex.Node | str, dim: int,
                 derivative_mode: str = "analytic", fd_step: float = 1e-5):
        if isinstance(expression, str):
            expression = ex.parse_expr(expression)
        self.expression = expression
        self.dim = dim
        if derivative_mode not in ("analytic", "central-difference"):
            raise ValueError(f"unknown derivative mode {derivative_mode!r}")
        self.derivative_mode = derivative_mode
        if not 0 < fd_step < np.inf:
            raise ValueError(f"fd_step must be positive and finite, got {fd_step!r}")
        self.fd_step = float(fd_step)
        xvars = [f"x{i+1}" for i in range(dim)]
        extra = ex.free_vars(expression) - set(xvars)
        if extra:
            raise ModelError(f"candidate uses unknown identifier(s): {', '.join(sorted(extra))}")
        self._xvars = xvars
        self._value_kernel = ex._compile_rows([expression], xvars)
        if derivative_mode == "analytic":
            grads = [ex.diff(expression, v) for v in xvars]
            self._grad_kernel = ex._compile_rows(grads, xvars)
            self._hess_kernel = ex._compile_rows([ex.diff(t, v) for t in grads for v in xvars],
                                                 xvars)

    def value(self, x) -> np.ndarray:
        return _evaluate(self._value_kernel, x, self.dim, ())

    def gradient(self, x) -> np.ndarray:
        if self.derivative_mode == "analytic":
            return _evaluate(self._grad_kernel, x, self.dim, (self.dim,))
        x = _points(x, self.dim)
        h = self.fd_step
        comps = []
        for i in range(self.dim):
            xp = x.copy(); xp[..., i] += h
            xm = x.copy(); xm[..., i] -= h
            comps.append((self.value(xp) - self.value(xm)) / (2 * h))
        return np.stack(comps, axis=-1)

    def hessian(self, x) -> np.ndarray:
        n = self.dim
        if self.derivative_mode == "analytic":
            hess = _evaluate(self._hess_kernel, x, n, (n, n))
            return 0.5 * (hess + np.swapaxes(hess, -1, -2))
        x = _points(x, n)
        h = self.fd_step
        v0 = self.value(x)
        hess = np.zeros(x.shape[:-1] + (n, n))
        for i in range(n):
            xp = x.copy(); xp[..., i] += h
            xm = x.copy(); xm[..., i] -= h
            hess[..., i, i] = (self.value(xp) - 2 * v0 + self.value(xm)) / h**2
            for j in range(i + 1, n):
                xpp = x.copy(); xpp[..., i] += h; xpp[..., j] += h
                xpm = x.copy(); xpm[..., i] += h; xpm[..., j] -= h
                xmp = x.copy(); xmp[..., i] -= h; xmp[..., j] += h
                xmm = x.copy(); xmm[..., i] -= h; xmm[..., j] -= h
                mixed = (self.value(xpp) - self.value(xpm) - self.value(xmp)
                         + self.value(xmm)) / (4 * h**2)
                hess[..., i, j] = mixed
                hess[..., j, i] = mixed
        return hess

    def compose(self, phi: ex.Node | str, fd_step: float | None = None) -> "CandidateFunction":
        """Return phi(V) where phi is an expression in the variable t."""
        if isinstance(phi, str):
            phi = ex.parse_expr(phi)
        if not ex.free_vars(phi) <= {"t"}:
            raise ValueError("phi may only use the variable t")
        composed = ex.simplify(ex.substitute(phi, {"t": self.expression}))
        return CandidateFunction(composed, self.dim, self.derivative_mode,
                                 self.fd_step if fd_step is None else fd_step)

    def __eq__(self, other):
        if not isinstance(other, CandidateFunction):
            return NotImplemented
        return (self.expression == other.expression and self.dim == other.dim
                and self.derivative_mode == other.derivative_mode)


def _distance_evaluator(target_distance, dim: int):
    """A target distance (candidate, callable or expression) as a function of the points."""
    if isinstance(target_distance, CandidateFunction):
        return target_distance.value
    if callable(target_distance):
        return target_distance
    return CandidateFunction(target_distance, dim).value


@dataclass(eq=True)
class ParsedModel:
    model: ControlledDiffusion
    candidate: CandidateFunction | None = None
    gauge: GaugeFunction | None = None

    def text_hash(self) -> str:
        return hashlib.sha256(serialize_model(self).encode()).hexdigest()


def _split_sections(text: str):
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelError("unterminated section header", lineno)
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ModelError("content before first section header", lineno)
        if "=" not in line:
            raise ModelError("expected key = value", lineno)
        key, value = line.split("=", 1)
        sections[current].append((lineno, key.strip(), value.strip()))
    return sections


def _floats(value: str, lineno: int) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in value.split(","))
    except ValueError:
        raise ModelError(f"expected comma-separated numbers, got {value!r}", lineno) from None


def _parse_rhs(value: str, lineno: int) -> ex.Node:
    try:
        tree = ex.parse_expr(value)
    except ex.ExprError as err:
        raise ModelError(f"syntax error: {err}", lineno) from None
    fault = ex._constant_fault(tree)
    if fault:
        raise ModelError(fault, lineno)
    return tree


def parse_model(text: str) -> ParsedModel:
    """Parse a model file; every failure raises ModelError with a line number."""
    sections = _split_sections(text)
    for required in ("dimensions", "controls", "dynamics", "domain"):
        if required not in sections:
            raise ModelError(f"missing [{required}] section")

    dims = {k: (lineno, v) for lineno, k, v in sections["dimensions"]}
    for key in ("state", "noise"):
        if key not in dims:
            raise ModelError(f"[dimensions] must define {key}")
    try:
        n = int(dims["state"][1])
        m = int(dims["noise"][1])
    except ValueError:
        raise ModelError("dimensions must be integers", dims["state"][0]) from None
    if n < 1 or m < 1:
        raise ModelError("dimensions must be at least 1", dims["state"][0])

    controls = []
    for lineno, label, value in sections["controls"]:
        controls.append(Control(label, _floats(value, lineno)))
    if not controls:
        raise ModelError("[controls] must list at least one control point")
    k = len(controls[0].vector)
    labels = {c.label for c in controls}
    if len(labels) != len(controls):
        raise ModelError("duplicate control labels")

    allowed = {f"x{i+1}" for i in range(n)} | {f"a{j+1}" for j in range(k)}
    drift_base: dict[int, ex.Node] = {}
    sigma_base: dict[tuple[int, int], ex.Node] = {}
    drift_over: dict[tuple[str, int], ex.Node] = {}
    sigma_over: dict[tuple[str, int, int], ex.Node] = {}
    for lineno, key, value in sections["dynamics"]:
        base_key, _, label = key.partition("@")
        if label and label not in labels:
            raise ModelError(f"override for unknown control {label!r}", lineno)
        tree = _parse_rhs(value, lineno)
        unknown = ex.free_vars(tree) - allowed
        if unknown:
            raise ModelError(f"unknown identifier(s): {', '.join(sorted(unknown))}", lineno)
        if base_key.startswith("f"):
            try:
                i = int(base_key[1:]) - 1
            except ValueError:
                raise ModelError(f"bad dynamics key {key!r}", lineno) from None
            if not 0 <= i < n:
                raise ModelError(f"drift row f{i+1} outside state dimension {n}", lineno)
            if label:
                drift_over[(label, i)] = tree
            else:
                drift_base[i] = tree
        elif base_key.startswith("s"):
            parts = base_key[1:].split("_")
            if len(parts) != 2:
                raise ModelError(f"bad dynamics key {key!r} (use s<i>_<j>)", lineno)
            try:
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
            except ValueError:
                raise ModelError(f"bad dynamics key {key!r}", lineno) from None
            if not (0 <= i < n and 0 <= j < m):
                raise ModelError(f"diffusion entry s{i+1}_{j+1} outside {n}x{m}", lineno)
            if label:
                sigma_over[(label, i, j)] = tree
            else:
                sigma_base[(i, j)] = tree
        else:
            raise ModelError(f"bad dynamics key {key!r}", lineno)
    missing = [f"f{i+1}" for i in range(n) if i not in drift_base]
    if missing:
        raise ModelError(f"drift rows missing: {', '.join(missing)} (drift length != state dim)")

    domain = {k: (lineno, v) for lineno, k, v in sections["domain"]}
    for key in ("lower", "upper"):
        if key not in domain:
            raise ModelError(f"[domain] must define {key}")
    lower = _floats(domain["lower"][1], domain["lower"][0])
    upper = _floats(domain["upper"][1], domain["upper"][0])
    if len(lower) != n or len(upper) != n:
        raise ModelError("domain bounds must have one entry per state dimension")
    if not all(l < u for l, u in zip(lower, upper)):  # also rejects a nan bound
        raise ModelError(f"domain upper bounds must exceed lower bounds, got lower = "
                         f"{domain['lower'][1]}, upper = {domain['upper'][1]}")

    model = ControlledDiffusion(
        dim_state=n,
        dim_noise=m,
        controls=tuple(controls),
        drift_base=tuple(drift_base[i] for i in range(n)),
        sigma_base=tuple(tuple(sigma_base.get((i, j), ex.Num(0.0)) for j in range(m))
                         for i in range(n)),
        drift_overrides=drift_over,
        sigma_overrides=sigma_over,
        domain_lower=lower,
        domain_upper=upper,
    )

    candidate = None
    gauge = None
    if "candidate" in sections:
        for lineno, key, value in sections["candidate"]:
            if key == "V":
                tree = _parse_rhs(value, lineno)
                # an unbounded [domain] sets no length scale: keep the default step
                diameter = model.domain_diameter()
                step = {"fd_step": 1e-4 * diameter} if np.isfinite(diameter) else {}
                try:
                    candidate = CandidateFunction(tree, n, **step)
                except ModelError as err:
                    raise ModelError(str(err), lineno) from None
            elif key == "l":
                tree = _parse_rhs(value, lineno)
                if not ex.free_vars(tree) <= {"r"}:
                    raise ModelError("gauge l must be an expression in r", lineno)
                gauge = GaugeFunction.from_expression(tree)
            else:
                raise ModelError(f"unknown candidate key {key!r}", lineno)
    return ParsedModel(model=model, candidate=candidate, gauge=gauge)


def serialize_model(parsed: ParsedModel) -> str:
    """Render a parsed model back to file text (reparses to an equal model)."""
    model = parsed.model
    lines = ["[dimensions]", f"state = {model.dim_state}", f"noise = {model.dim_noise}", ""]
    lines.append("[controls]")
    for c in model.controls:
        lines.append(f"{c.label} = {', '.join(repr(v) for v in c.vector)}")
    lines.append("")
    lines.append("[dynamics]")
    for i, tree in enumerate(model.drift_base):
        lines.append(f"f{i+1} = {ex.to_source(tree)}")
    for (label, i), tree in sorted(model.drift_overrides.items()):
        lines.append(f"f{i+1}@{label} = {ex.to_source(tree)}")
    for i, row in enumerate(model.sigma_base):
        for j, tree in enumerate(row):
            if tree != ex.Num(0.0):
                lines.append(f"s{i+1}_{j+1} = {ex.to_source(tree)}")
    for (label, i, j), tree in sorted(model.sigma_overrides.items()):
        lines.append(f"s{i+1}_{j+1}@{label} = {ex.to_source(tree)}")
    lines.append("")
    if parsed.candidate is not None or parsed.gauge is not None:
        lines.append("[candidate]")
        if parsed.candidate is not None:
            lines.append(f"V = {ex.to_source(parsed.candidate.expression)}")
        if parsed.gauge is not None and parsed.gauge.expression is not None:
            lines.append(f"l = {ex.to_source(parsed.gauge.expression)}")
        lines.append("")
    lines.append("[domain]")
    lines.append(f"lower = {', '.join(repr(v) for v in model.domain_lower)}")
    lines.append(f"upper = {', '.join(repr(v) for v in model.domain_upper)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EquilibriumCheck:
    witness_index: int | None
    residual: float

    @property
    def found(self) -> bool:
        return self.witness_index is not None


def check_controlled_equilibrium(model: ControlledDiffusion, x0, tol: float) -> EquilibriumCheck:
    """First control making both drift and diffusion vanish at x0, within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x0 = np.asarray(x0, dtype=float)
    best = np.inf
    for idx in range(model.n_controls):
        fnorm = float(np.linalg.norm(model.drift(x0, idx)))
        snorm = float(np.linalg.norm(model.sigma(x0, idx)))
        if fnorm <= tol and snorm <= tol:
            return EquilibriumCheck(witness_index=idx, residual=max(fnorm, snorm))
        best = min(best, fnorm + snorm)
    return EquilibriumCheck(witness_index=None, residual=best)


def check_lipschitz_sample(model: ControlledDiffusion, n_pairs: int, seed: int) -> float:
    """Empirical Lipschitz constant of (f, sigma) over sampled domain pairs.

    Diagnostic only: a max over samples is a lower bound on the true constant.
    """
    if not model.domain_lower:
        raise ModelError("model has no domain box; cannot sample")
    rng = np.random.Generator(np.random.Philox(key=seed))
    lo = np.asarray(model.domain_lower)
    up = np.asarray(model.domain_upper)
    xs = rng.uniform(lo, up, size=(n_pairs, model.dim_state))
    ys = rng.uniform(lo, up, size=(n_pairs, model.dim_state))
    gap = np.linalg.norm(xs - ys, axis=-1)
    keep = gap > 0
    xs, ys, gap = xs[keep], ys[keep], gap[keep]
    best = 0.0
    for idx in range(model.n_controls):
        df = np.linalg.norm(model.drift(xs, idx) - model.drift(ys, idx), axis=-1)
        ds = np.linalg.norm(model.sigma(xs, idx) - model.sigma(ys, idx), axis=(-2, -1))
        best = max(best, float(((df + ds) / gap).max()))
    model.lipschitz_estimate = best
    return best
