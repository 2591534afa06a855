"""Pointwise checks of candidate functions against the constrained decrease
inequality, its geometric invariances, and sublevel-set viability.

The central quantity at a node x with derivative pair (p, Y) is

    m(alpha) = -p . f(x, alpha) - trace[a(x, alpha) Y]

maximized over controls whose diffusion is tangential (sigma^T p = 0 up to a
relative gate).  A node passes when the best margin dominates the required
decrease rate l.  Controls never become tangential by accident: the gate is
scaled by |p| and the diffusion magnitude.

The function checked is a candidate, differentiated analytically, or a
value field, differentiated by grid differences.  Central differences of a
candidate's values serve only to cross-check its Hessian, which flags a
nonsmooth candidate.

Grid checks (supersolution from a candidate or a field, set-Lyapunov,
radial, and through them change of unknown) are one pass, on the calling
thread, over contiguous row blocks of at most ``_BLOCK_ROWS`` nodes.  Each
block evaluates its own candidate value, gradient and Hessian, finite mask,
margin, witness, residual and tolerance, with one generated kernel call per
control for its drift, diffusion, margin and data norms
(``_margin_kernel``); a field's grid differences are taken once on the whole
grid and sliced.  Every node takes the same operations in the same order
however the nodes are split, so reports are bit-identical for any block
size.  Callables passed in, such as a ``target_distance`` function, are
called on blocks: they must be pointwise.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .fields import (Grid, LevelSet, ScalarField, _coord_header, _csv, _norm, gradient_field,
                     hessian_field)
from .gauges import GaugeFunction
from .model import CandidateFunction, ControlledDiffusion, _distance_evaluator

__all__ = [
    "STATUS_OK",
    "STATUS_NO_TANGENTIAL",
    "STATUS_NONFINITE",
    "STATUS_EDGE",
    "STATUS_SANDWICH",
    "VerificationReport",
    "check_supersolution",
    "radial_sufficient_check",
    "GeometricInvarianceResult",
    "check_geometric_invariance",
    "ChangeOfUnknownResult",
    "check_change_of_unknown",
    "check_viability_boundary",
    "check_set_lyapunov",
]

STATUS_OK = 0
STATUS_NO_TANGENTIAL = 1   # empty tangential control set: counted as failure
STATUS_NONFINITE = 2       # derivative not finite: excluded from the summary
STATUS_EDGE = 3            # boundary not conclusive at this node
STATUS_SANDWICH = 4        # two-sided gauge bound violated (set-target check)

_STATUS_NAMES = {
    STATUS_OK: "ok",
    STATUS_NO_TANGENTIAL: "no-tangential-control",
    STATUS_NONFINITE: "non-finite-derivative",
    STATUS_EDGE: "edge-inconclusive",
    STATUS_SANDWICH: "sandwich-violation",
}

# Grid checks run in row blocks of at most this many nodes.  On a 2-core
# Xeon the value solves' 32 768-row blocks raised the 401^2 benchmark checks'
# peak RSS from 105 to 113 MB; 8192-row blocks kept it at 105.5-106 MB, and
# lower once every check ran in blocks.
_BLOCK_ROWS = 8192


@dataclass
class VerificationReport:
    """Per-node verdicts with margins, witness controls and tangency residuals."""

    kind: str
    coords: np.ndarray
    margins: np.ndarray
    verdicts: np.ndarray
    witnesses: np.ndarray
    tangency_residuals: np.ndarray
    statuses: np.ndarray
    tolerances: np.ndarray
    params: dict = field(default_factory=dict)
    nonsmooth_candidate: bool = False

    @property
    def n_checked(self) -> int:
        return int((self.statuses != STATUS_NONFINITE).sum())

    @property
    def n_excluded(self) -> int:
        return int((self.statuses == STATUS_NONFINITE).sum())

    @property
    def n_inconclusive(self) -> int:
        return int((self.statuses == STATUS_EDGE).sum())

    @property
    def n_fail(self) -> int:
        countable = (self.statuses != STATUS_NONFINITE) & (self.statuses != STATUS_EDGE)
        return int((countable & ~self.verdicts).sum())

    @property
    def n_pass(self) -> int:
        countable = (self.statuses != STATUS_NONFINITE) & (self.statuses != STATUS_EDGE)
        return int((countable & self.verdicts).sum())

    @property
    def pass_fraction(self) -> float:
        total = self.n_pass + self.n_fail
        return 1.0 if total == 0 else self.n_pass / total

    @property
    def all_pass(self) -> bool:
        return self.n_fail == 0 and self.n_pass > 0

    @property
    def worst_margin(self) -> float:
        finite = np.isfinite(self.margins)
        return float(self.margins[finite].min()) if finite.any() else float("nan")

    def failing_nodes(self, limit: int | None = None) -> np.ndarray:
        countable = (self.statuses != STATUS_NONFINITE) & (self.statuses != STATUS_EDGE)
        coords = self.coords[countable & ~self.verdicts]
        return coords if limit is None else coords[:limit]

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "all_pass": bool(self.all_pass),
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "n_excluded_nonfinite": self.n_excluded,
            "n_inconclusive_edge": self.n_inconclusive,
            "pass_fraction": self.pass_fraction,
            "worst_margin": self.worst_margin,
            "nonsmooth_candidate": bool(self.nonsmooth_candidate),
            "failing_nodes": self.failing_nodes(limit=20).tolist(),
            "params": self.params,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2)

    def to_csv(self) -> str:
        header = _coord_header(self.coords.shape[1])
        return _csv(f"{header},margin,verdict,witness,tangency_residual,status", [
            *self.coords.T, self.margins, self.verdicts, self.witnesses,
            self.tangency_residuals, map(_STATUS_NAMES.__getitem__, self.statuses.tolist()),
        ])


_add, _mul = functools.partial(ex.Bin, "+"), functools.partial(ex.Bin, "*")


def _from_zero(terms):
    """0 + (t0 + t1 + ...), added left to right."""
    return _add(ex.Num(0.0), functools.reduce(_add, terms))


def _margin_trees(model, control_index):
    """One control's margin -(p . f) - trace[a Y] and |sigma^T p|, |sigma|_F,
    |f| and |a|_F as trees in x1..xn, p1..pn and Y1_1..Yn_n.  Each axis is
    summed left to right; the leading 0 + of ``_from_zero`` gives +0 for a
    sum of zeros of either sign."""
    n, m = model.dim_state, model.dim_noise
    f, s = model._control_trees(control_index)
    p = [ex.Var(f"p{i+1}") for i in range(n)]
    Y = [[ex.Var(f"Y{i+1}_{j+1}") for j in range(n)] for i in range(n)]
    stp = [_from_zero([_mul(s[i][k], p[i]) for i in range(n)]) for k in range(m)]
    # a_ij and a_ji are one tree, evaluated once
    a = [[_mul(ex.Num(0.5), _from_zero([_mul(s[min(i, j)][k], s[max(i, j)][k]) for k in range(m)]))
          for j in range(n)] for i in range(n)]
    trace = _from_zero([functools.reduce(_add, [_mul(a[i][j], Y[j][i]) for j in range(n)])
                        for i in range(n)])
    margin = ex.Bin("-", ex.Neg(_from_zero([_mul(p[i], f[i]) for i in range(n)])), trace)
    return [margin, *map(ex._norm_tree, (stp, sum(s, ()), f, sum(a, [])))]


def _margin_kernel(model, control_index):
    """``_margin_trees`` compiled over (x1..xn, p1..pn, Y1_1..Yn_n), built on
    first use and held on the model.  With at most two state and two noise
    dimensions each row is bit-equal, up to the sign of a NaN, to the einsum
    and ``fields._norm`` calls it replaced."""
    kernels = model._margin_kernels
    if control_index not in kernels:
        n = model.dim_state
        kernels[control_index] = ex._compile_rows(
            _margin_trees(model, control_index),
            [*(f"{v}{i+1}" for v in "xp" for i in range(n)),
             *(f"Y{i+1}_{j+1}" for i in range(n) for j in range(n))])
    return kernels[control_index]


def _margin_arrays(model, nodes, grads, hessians, eps_tan, gate_norm=None, data_norms=None):
    """Per-node best tangential margin, witness, tangency residual and data scale.

    The margin of control alpha is -p . f - trace[a Y] with p = ``grads`` and
    Y = ``hessians``, from the control's ``_margin_kernel``; it counts only
    where |sigma^T p| <= eps_tan * gate_norm * max(1, |sigma|_F), with
    ``gate_norm`` defaulting to |p|.

    Returns (best_margin with -inf where no tangential control, witness index
    or -1, residual of the witness or the minimum residual seen, scale).  With
    ``data_norms`` = (|p|, |Y|_F) per node, scale is the tolerance scale
    max(1, 1 + |f| + |a|_F + |p| + |Y|_F over controls), from the same f and
    a as the margins; otherwise it is None.
    """
    n, dim = nodes.shape
    best = np.full(n, -np.inf)
    witness = np.full(n, -1, dtype=np.int64)
    wit_resid = np.full(n, np.inf)
    min_resid = np.full(n, np.inf)
    scale = None if data_norms is None else np.ones(n)
    if gate_norm is None:
        gate_norm = _norm(grads)
    args = [*nodes.T, *grads.T, *hessians.reshape(n, dim * dim).T]
    rows = np.empty((5, n))  # each control's rows, read before the next overwrites them
    for idx in range(model.n_controls):
        with np.errstate(all="ignore"):
            m, resid, snorm, fnorm, anorm = _margin_kernel(model, idx)(*args, rows)
        gate = eps_tan * gate_norm * np.maximum(1.0, snorm)
        tangential = resid <= gate
        min_resid = np.minimum(min_resid, resid)
        better = tangential & (m > best)
        best = np.where(better, m, best)
        witness = np.where(better, idx, witness)
        wit_resid = np.where(better, resid, wit_resid)
        if scale is not None:
            pnorm, ynorm = data_norms
            scale = np.maximum(scale, 1.0 + fnorm + anorm + pnorm + ynorm)
    resid_out = np.where(witness >= 0, wit_resid, min_resid)
    return best, witness, resid_out, scale


def _tolerances(scale, h_max, tol, n):
    """Either the user tolerance or 10 h^2 scaled by the local data magnitude."""
    return np.full(n, float(tol)) if tol is not None else 10.0 * h_max**2 * scale


def _finite_derivatives(vals, grads, hessians):
    """Mask of nodes with finite value, gradient and Hessian, plus the
    gradients and Hessians zeroed where the mask fails (the inputs themselves
    when it holds everywhere)."""
    n, dim = grads.shape
    finite = np.isfinite(vals)
    for column in (*grads.T, *hessians.reshape(n, dim * dim).T):
        finite &= np.isfinite(column)
    if finite.all():
        return finite, grads, hessians
    safe_grads = np.where(finite[:, None], grads, 0.0)
    safe_hess = np.where(finite[:, None, None], hessians, 0.0)
    return finite, safe_grads, safe_hess


def _derivative_source(source, grid: Grid):
    """Derivatives of a candidate or a field, one row block at a time.

    Returns (derivatives, edge_mask): ``derivatives(rows, keep, x)`` gives
    values, gradients and Hessians at the nodes ``x`` selected by ``keep``
    among the grid rows ``rows``.  A field's grid differences are taken once
    on the whole grid; blocks read slices of them.  ``edge_mask`` flags the
    grid-edge nodes of a field's one-sided stencils; it is None for a
    candidate.
    """
    if isinstance(source, ScalarField):
        if source.grid != grid:
            raise ValueError("field grid does not match the requested grid")
        vals = source.flat
        grads = gradient_field(source).reshape(-1, grid.dim)
        hess = hessian_field(source).reshape(-1, grid.dim, grid.dim)

        def from_field(rows, keep, x):
            return vals[rows][keep], grads[rows][keep], hess[rows][keep]

        return from_field, grid.boundary_mask()
    if isinstance(source, CandidateFunction):

        def from_candidate(rows, keep, x):
            return source.value(x), source.gradient(x), source.hessian(x)

        return from_candidate, None
    raise TypeError(f"cannot take derivatives of {type(source).__name__}")


def _default_eps_tan(of_field: bool, h_max: float, eps_tan):
    if eps_tan is not None:
        return float(eps_tan)
    # a field's grid-difference normals carry O(h^2) error; analytic ones do not
    return max(1e-6, 10.0 * h_max**2) if of_field else 1e-6


def _central_hessian(value, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Hessian of the function ``value`` at the points ``x``."""
    n = x.shape[-1]
    v0 = value(x)
    hess = np.zeros(x.shape[:-1] + (n, n))
    for i in range(n):
        xp = x.copy(); xp[..., i] += h
        xm = x.copy(); xm[..., i] -= h
        hess[..., i, i] = (value(xp) - 2 * v0 + value(xm)) / h**2
        for j in range(i + 1, n):
            xpp = x.copy(); xpp[..., i] += h; xpp[..., j] += h
            xpm = x.copy(); xpm[..., i] += h; xpm[..., j] -= h
            xmp = x.copy(); xmp[..., i] -= h; xmp[..., j] += h
            xmm = x.copy(); xmm[..., i] -= h; xmm[..., j] -= h
            mixed = (value(xpp) - value(xpm) - value(xmp) + value(xmm)) / (4 * h**2)
            hess[..., i, j] = mixed
            hess[..., j, i] = mixed
    return hess


def _detect_nonsmooth(candidate: CandidateFunction, nodes: np.ndarray) -> bool:
    """Cross-check analytic Hessians against central differences on a sample."""
    if len(nodes) == 0:
        return False
    sample = nodes[:: max(1, len(nodes) // 40)][:40]
    ha = candidate.hessian(sample)
    hf = _central_hessian(candidate.value, sample, candidate.fd_step)
    denom = 1.0 + np.linalg.norm(ha, axis=(-2, -1))
    rel = np.linalg.norm(ha - hf, axis=(-2, -1)) / denom
    rel = rel[np.isfinite(rel)]
    if len(rel) == 0:
        return True
    return bool(np.mean(rel > 0.05) > 0.2)


def _in_blocks(n_rows: int, block) -> list:
    """The columns of ``block(rows)`` over the row blocks of ``n_rows`` rows, run
    in order on the calling thread: array columns concatenated in row order,
    count columns summed."""
    parts = [block(slice(lo, lo + _BLOCK_ROWS)) for lo in range(0, n_rows, _BLOCK_ROWS)]
    return [np.concatenate(col) if isinstance(col[0], np.ndarray) else sum(col)
            for col in zip(*parts)]


def _decrease_pass(kind, model, source, grid, distance, l, eps_tan, tol,
                   edges=False, gammas=None):
    """The constrained decrease test at the nodes with ``distance`` > rho.

    A node passes when its derivatives are finite, some control is
    tangential and the best margin minus l(distance) reaches -tolerance;
    with ``gammas`` = (gamma1, gamma2) its value must also lie in the
    sandwich gamma2(d) <= V <= gamma1(d), up to the tolerance.  With
    ``edges`` a field's grid-edge nodes are inconclusive.  Returns the
    report, the candidate values at its nodes and the number of nodes
    outside the sandwich; with ``gammas`` also the distances of the report's
    nodes.
    """
    h_max = max(grid.spacing)
    derivatives, edge_mask = _derivative_source(source, grid)
    eps_tan = _default_eps_tan(isinstance(source, ScalarField), h_max, eps_tan)
    nodes = grid.nodes()

    def block(rows):
        x = nodes[rows]
        d = np.asarray(distance(x), dtype=float)
        keep = d > grid.rho
        x, d = x[keep], d[keep]
        vals, grads, hess = derivatives(rows, keep, x)
        finite, grads, hess = _finite_derivatives(vals, grads, hess)
        pnorm = _norm(grads)
        norms = None if tol is not None else (pnorm, _norm(hess, 2))
        best, witness, resid, scale = _margin_arrays(model, x, grads, hess, eps_tan,
                                                     pnorm, norms)
        margins = best - l(d)
        tolerances = _tolerances(scale, h_max, tol, len(x))

        tangential = witness >= 0
        statuses = np.full(len(x), STATUS_OK, dtype=np.int64)
        statuses[~tangential] = STATUS_NO_TANGENTIAL
        verdicts = finite & tangential & (margins >= -tolerances)
        n_outside, distances = 0, ()
        if edges and edge_mask is not None:
            # one-sided stencils at the grid edge: verdicts there are informational
            statuses[edge_mask[rows][keep] & tangential] = STATUS_EDGE
        if gammas is not None:
            distances = (d,)
            slack = tolerances + 1e-12 * (1.0 + np.abs(vals))
            sandwich = (gammas[1](d) <= vals + slack) & (vals <= gammas[0](d) + slack)
            statuses[~sandwich] = STATUS_SANDWICH
            verdicts &= sandwich
            n_outside = int(np.count_nonzero(~sandwich))
        statuses[~finite] = STATUS_NONFINITE
        return (x, margins, verdicts, witness, resid, statuses, tolerances, vals, n_outside,
                *distances)

    columns = _in_blocks(grid.n_nodes, block)
    report = VerificationReport(kind, *columns[:7],
                                params={"eps_tan": eps_tan, "rho": grid.rho, "tol": tol})
    return report, *columns[7:]


def check_supersolution(
    model: ControlledDiffusion,
    candidate: CandidateFunction | ScalarField,
    grid: Grid,
    l: GaugeFunction | None = None,
    eps_tan: float | None = None,
    tol: float | None = None,
) -> VerificationReport:
    """Verify the constrained decrease inequality at all nodes with |x| > rho.

    At each node, with p the gradient and Y the Hessian of the candidate,
    the best tangential margin must dominate l(|x|) up to the tolerance.
    Nodes with an empty tangential set fail; nodes with non-finite
    derivatives are flagged and excluded from the summary.
    """
    l = l or GaugeFunction.zero()
    report, _, _ = _decrease_pass("supersolution", model, candidate, grid, _norm, l, eps_tan,
                                  tol, edges=True)
    report.params["gauge_zero"] = l.is_zero()
    if isinstance(candidate, CandidateFunction):
        finite = report.statuses != STATUS_NONFINITE
        report.nonsmooth_candidate = _detect_nonsmooth(candidate, report.coords[finite])
    return report


def radial_sufficient_check(
    model: ControlledDiffusion, grid: Grid, tol: float | None = None,
    eps_tan: float = 1e-6,
) -> VerificationReport:
    """Radial test: some control has sigma . x = 0 and f . x + trace a <= 0.

    This is the derivative-free sufficient condition for the norm itself to
    decrease; no candidate function is involved.
    """
    nodes = grid.nodes()
    h_max = max(grid.spacing)
    eye = np.eye(grid.dim)

    def block(rows):
        x = nodes[rows]
        radii = _norm(x)
        hess = np.broadcast_to(eye, (len(x),) + eye.shape)
        best, witness, resid, _ = _margin_arrays(model, x, x, hess, eps_tan,
                                                 gate_norm=np.maximum(radii, h_max))
        tolerances = _tolerances(1.0 + radii**2, h_max, tol, len(x))
        verdicts = (witness >= 0) & (best >= -tolerances)
        statuses = np.where(witness >= 0, STATUS_OK, STATUS_NO_TANGENTIAL)
        return best, verdicts, witness, resid, statuses, tolerances

    return VerificationReport("radial-sufficient", nodes, *_in_blocks(grid.n_nodes, block),
                              params={"eps_tan": eps_tan, "tol": tol})


@dataclass(frozen=True)
class GeometricInvarianceResult:
    value: float          # F(x, p, Y)
    value_scaled: float   # F(x, lam p, lam Y + mu p p^T)
    residual: float       # |value_scaled - lam * value|
    empty_tangential: bool


def check_geometric_invariance(
    model: ControlledDiffusion, x, p, Y, lam: float, mu: float,
    eps_tan: float = 1e-6,
) -> GeometricInvarianceResult:
    """Measure |F(x, lam p, lam Y + mu p p^T) - lam F(x, p, Y)|.

    With exact tangency the rank-one term is invisible to the trace, so the
    residual is at rounding level; it grows with any tangency slack.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if np.linalg.norm(p) == 0.0:
        raise ValueError("tangential test needs a nonzero direction p")

    def fvalue(pv, Yv):
        best, witness, _, _ = _margin_arrays(model, x[None], pv[None], Yv[None], eps_tan)
        return float(best[0]), bool(witness[0] < 0)

    f1, e1 = fvalue(p, Y)
    f2, e2 = fvalue(lam * p, lam * Y + mu * np.outer(p, p))
    empty = e1 or e2
    residual = np.inf if empty else abs(f2 - lam * f1)
    return GeometricInvarianceResult(value=f1, value_scaled=f2,
                                     residual=residual, empty_tangential=empty)


@dataclass
class ChangeOfUnknownResult:
    report_original: VerificationReport
    report_transformed: VerificationReport
    agreement_fraction: float
    n_compared: int
    disagreeing_nodes: np.ndarray


def check_change_of_unknown(
    model: ControlledDiffusion,
    candidate: CandidateFunction,
    phi: str | ex.Node,
    grid: Grid,
    l: GaugeFunction | None = None,
    tol: float | None = None,
    eps_tan: float | None = None,
) -> ChangeOfUnknownResult:
    """Verdicts must be invariant under a smooth increasing reparametrization.

    Runs the supersolution check on V and on phi(V) (chain-rule derivatives
    via composition) and compares per-node verdicts, ignoring nodes whose
    margin sits within tolerance of the pass/fail boundary on either side.
    """
    phi_node = ex.parse_expr(phi) if isinstance(phi, str) else phi
    if not ex.free_vars(phi_node) <= {"t"}:
        raise ValueError("phi may only use the variable t")
    dphi = ex.diff(phi_node, "t")

    nodes = grid.nodes()
    radii = np.linalg.norm(nodes, axis=-1)
    vvals = candidate.value(nodes[radii > grid.rho])
    dvals = ex._run(ex._compile_rows([dphi], ["t"]), vvals[:, None])
    if np.any(dvals[np.isfinite(dvals)] <= 0):
        raise ValueError("phi must be strictly increasing on the candidate's range")

    composed = candidate.compose(phi_node)
    rep_v = check_supersolution(model, candidate, grid, l, eps_tan, tol)
    rep_w = check_supersolution(model, composed, grid, l, eps_tan, tol)

    ok = (rep_v.statuses == STATUS_OK) & (rep_w.statuses == STATUS_OK)
    near_v = np.abs(rep_v.margins) <= rep_v.tolerances
    near_w = np.abs(rep_w.margins) <= rep_w.tolerances
    compared = ok & ~near_v & ~near_w
    agree = rep_v.verdicts == rep_w.verdicts
    n_compared = int(compared.sum())
    frac = 1.0 if n_compared == 0 else float(agree[compared].mean())
    return ChangeOfUnknownResult(
        report_original=rep_v,
        report_transformed=rep_w,
        agreement_fraction=frac,
        n_compared=n_compared,
        disagreeing_nodes=rep_v.coords[compared & ~agree],
    )


def check_viability_boundary(
    model: ControlledDiffusion,
    levelset: LevelSet,
    tol: float | None = None,
    eps_tan: float | None = None,
) -> VerificationReport:
    """Tangency-constrained inward-drift test on a sublevel-set boundary.

    Each boundary node needs a control with sigma^T p ~ 0 and
    f . p + trace[a Y] >= -tol, where p is the inward normal and Y the
    matching curvature data.  Nodes where the set touches the grid edge are
    flagged inconclusive.
    """
    if len(levelset) == 0:
        raise ValueError("level set has no boundary nodes")
    grid = levelset.field.grid
    h_max = max(grid.spacing)
    eps_tan = _default_eps_tan(True, h_max, eps_tan)

    nodes = levelset.coords
    p = levelset.normals
    Y = levelset.curvatures
    n = len(nodes)
    pnorm = np.linalg.norm(p, axis=-1)
    finite = (pnorm > 0) & np.all(np.isfinite(p), axis=-1) & np.all(
        np.isfinite(Y), axis=(-2, -1)
    )
    norms = None if tol is not None else (
        np.where(finite, pnorm, 0.0),
        np.where(finite, np.linalg.norm(Y, axis=(-2, -1)), 0.0))
    # the margin of (-p, -Y) is exactly f . p + trace[a Y]
    best, witness, resid_out, scale = _margin_arrays(model, nodes, -p, -Y, eps_tan,
                                                     pnorm, norms)
    tol_nodes = _tolerances(scale, h_max, tol, n)
    verdicts = finite & (witness >= 0) & (best >= -tol_nodes)
    statuses = np.full(n, STATUS_OK, dtype=np.int64)
    statuses[witness < 0] = STATUS_NO_TANGENTIAL
    statuses[~finite] = STATUS_NONFINITE
    statuses[levelset.edge_flags] = STATUS_EDGE
    return VerificationReport("viability-boundary", nodes, best, verdicts, witness, resid_out,
                              statuses, tol_nodes,
                              params={"eps_tan": eps_tan, "level": levelset.level, "tol": tol,
                                      "touches_boundary": levelset.touches_boundary})


def check_set_lyapunov(
    model: ControlledDiffusion,
    candidate: CandidateFunction,
    target_distance,
    gamma1: GaugeFunction,
    gamma2: GaugeFunction,
    grid: Grid,
    l: GaugeFunction | None = None,
    tol: float | None = None,
    eps_tan: float | None = None,
) -> VerificationReport:
    """Set-target variant: two-sided gauge sandwich plus constrained decrease.

    Requires gamma2(d) <= V <= gamma1(d) at every node and the tangential
    margin to dominate l(d) at nodes with distance d > rho from the target.
    ``target_distance`` is an expression, a candidate or a callable of the
    points; a callable must be pointwise (it is called on row blocks).  Each
    gauge must be flagged monotone, vanish at 0 and not decrease over the
    checked distances, up to a relative 1e-12 for rounding; else ValueError
    names it.
    """
    names = ("gamma1", "gamma2")
    for name, g in zip(names, (gamma1, gamma2)):
        if not g.monotone:
            raise ValueError(f"sandwich gauge {name} must be monotone")
        if float(g(0.0)) != 0.0:
            raise ValueError(f"sandwich gauge {name} must vanish at 0")
    l = l or GaugeFunction.zero()
    dist = _distance_evaluator(target_distance, model.dim_state)
    report, vals, n_outside, d = _decrease_pass(
        "set-lyapunov", model, candidate, grid, dist, l, eps_tan, tol, gammas=(gamma1, gamma2))
    d.sort()
    for name, g in zip(names, (gamma1, gamma2)):
        gd = g(d)
        drops = np.flatnonzero(np.diff(gd) < -1e-12 * (1.0 + np.abs(gd[1:])))
        if len(drops):
            i = drops[0]
            raise ValueError(f"sandwich gauge {name} decreases over the checked distances: "
                             f"{name}({d[i]:.6g}) = {gd[i]:.6g} > {name}({d[i + 1]:.6g}) = "
                             f"{gd[i + 1]:.6g}")
    report.params.update({
        "n_sandwich_fail": n_outside,
        # properness is only diagnosed, never failed on
        "properness_hint_max_checked_value": float(np.nanmax(vals)) if len(vals) else None,
    })
    return report
