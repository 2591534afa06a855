"""Pointwise checks of candidate functions against the constrained decrease
inequality, its geometric invariances, and sublevel-set viability.

The central quantity at a node x with derivative pair (p, Y) is

    m(alpha) = -p . f(x, alpha) - trace[a(x, alpha) Y]

maximized over controls whose diffusion is tangential (sigma^T p = 0 up to a
relative gate).  A node passes when the best margin dominates the required
decrease rate l.  Controls never become tangential by accident: the gate is
scaled by |p| and the diffusion magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .fields import Grid, LevelSet, ScalarField, gradient_field, hessian_field
from .gauges import GaugeFunction
from .model import CandidateFunction, ControlledDiffusion

__all__ = [
    "STATUS_OK",
    "STATUS_NO_TANGENTIAL",
    "STATUS_NONFINITE",
    "STATUS_EDGE",
    "STATUS_SANDWICH",
    "VerificationReport",
    "tangential_controls",
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
        n = self.coords.shape[1]
        header = ",".join(f"x{i+1}" for i in range(n))
        lines = [f"{header},margin,verdict,witness,tangency_residual,status"]
        for i in range(len(self.margins)):
            coord = ",".join(repr(float(c)) for c in self.coords[i])
            lines.append(
                f"{coord},{float(self.margins[i])!r},{int(self.verdicts[i])},"
                f"{int(self.witnesses[i])},{float(self.tangency_residuals[i])!r},"
                f"{_STATUS_NAMES[int(self.statuses[i])]}"
            )
        return "\n".join(lines) + "\n"


def tangential_controls(model: ControlledDiffusion, x, p, eps_tan: float = 1e-6) -> list[int]:
    """Controls whose diffusion is orthogonal to p at x, within a relative gate.

    The gate is eps_tan * |p| * max(1, ||sigma||_F) so that zero diffusion
    always qualifies and large diffusions are not excused by scale.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    pnorm = float(np.linalg.norm(p))
    if pnorm == 0.0:
        raise ValueError("tangential test needs a nonzero direction p")
    out = []
    for idx in range(model.n_controls):
        s = model.sigma(x, idx)
        resid = float(np.linalg.norm(s.T @ p))
        gate = eps_tan * pnorm * max(1.0, float(np.linalg.norm(s)))
        if resid <= gate:
            out.append(idx)
    return out


def _margin_arrays(model, nodes, grads, hessians, eps_tan, gate_norm=None):
    """Per-node best tangential margin, witness, and tangency residual.

    The margin of control alpha is -p . f - trace[a Y] with p = ``grads`` and
    Y = ``hessians``; it counts only where |sigma^T p| <= eps_tan * gate_norm *
    max(1, |sigma|_F), with ``gate_norm`` defaulting to |p|.

    Returns (best_margin with -inf where no tangential control, witness index
    or -1, residual of the witness or the minimum residual seen).
    """
    n = nodes.shape[0]
    best = np.full(n, -np.inf)
    witness = np.full(n, -1, dtype=np.int64)
    wit_resid = np.full(n, np.inf)
    min_resid = np.full(n, np.inf)
    if gate_norm is None:
        gate_norm = np.linalg.norm(grads, axis=-1)
    for idx in range(model.n_controls):
        f = model.drift(nodes, idx)
        s = model.sigma(nodes, idx)
        a = 0.5 * np.einsum("nim,njm->nij", s, s)
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        resid = np.linalg.norm(np.einsum("nim,ni->nm", s, grads), axis=-1)
        snorm = np.linalg.norm(s.reshape(n, -1), axis=-1)
        gate = eps_tan * gate_norm * np.maximum(1.0, snorm)
        tangential = resid <= gate
        m = -np.einsum("ni,ni->n", grads, f) - np.einsum("nij,nji->n", a, hessians)
        min_resid = np.minimum(min_resid, resid)
        better = tangential & (m > best)
        best = np.where(better, m, best)
        witness = np.where(better, idx, witness)
        wit_resid = np.where(better, resid, wit_resid)
    resid_out = np.where(witness >= 0, wit_resid, min_resid)
    return best, witness, resid_out


def _finite_derivatives(vals, grads, hessians):
    """Mask of nodes with finite value, gradient and Hessian, plus the
    gradients and Hessians zeroed where the mask fails."""
    finite = (
        np.isfinite(vals)
        & np.all(np.isfinite(grads), axis=-1)
        & np.all(np.isfinite(hessians), axis=(-2, -1))
    )
    safe_grads = np.where(finite[:, None], grads, 0.0)
    safe_hess = np.where(finite[:, None, None], hessians, 0.0)
    return finite, safe_grads, safe_hess


def _node_tolerance(model, nodes, grads, hessians, h_max, tol):
    """Either the user tolerance or 10 h^2 scaled by the local data magnitude."""
    if tol is not None:
        return np.full(nodes.shape[0], float(tol))
    scale = np.ones(nodes.shape[0])
    for idx in range(model.n_controls):
        f = model.drift(nodes, idx)
        a = model.a(nodes, idx)
        scale = np.maximum(
            scale,
            1.0
            + np.linalg.norm(f, axis=-1)
            + np.linalg.norm(a, axis=(-2, -1))
            + np.linalg.norm(grads, axis=-1)
            + np.linalg.norm(hessians, axis=(-2, -1)),
        )
    return 10.0 * h_max**2 * scale


def _grid_derivatives(source, grid: Grid):
    """Values/gradients/Hessians on all grid nodes for a candidate or a field.

    Returns (values, grads, hessians, fd_mode, edge_mask).
    """
    if isinstance(source, ScalarField):
        if source.grid != grid:
            raise ValueError("field grid does not match the requested grid")
        vals = source.flat
        grads = gradient_field(source).reshape(-1, grid.dim)
        hess = hessian_field(source).reshape(-1, grid.dim, grid.dim)
        return vals, grads, hess, True, grid.boundary_mask()
    if isinstance(source, CandidateFunction):
        nodes = grid.nodes()
        vals = source.value(nodes)
        grads = source.gradient(nodes)
        hess = source.hessian(nodes)
        fd_mode = source.derivative_mode != "analytic"
        return vals, grads, hess, fd_mode, np.zeros(grid.n_nodes, dtype=bool)
    raise TypeError(f"cannot take derivatives of {type(source).__name__}")


def _default_eps_tan(fd_mode: bool, h_max: float, eps_tan):
    if eps_tan is not None:
        return float(eps_tan)
    # finite-difference normals carry O(h^2) error; analytic ones do not
    return max(1e-6, 10.0 * h_max**2) if fd_mode else 1e-6


def _detect_nonsmooth(candidate: CandidateFunction, nodes: np.ndarray) -> bool:
    """Cross-check analytic Hessians against central differences on a sample."""
    if candidate.derivative_mode != "analytic" or len(nodes) == 0:
        return False
    sample = nodes[:: max(1, len(nodes) // 40)][:40]
    fd = CandidateFunction(candidate.expression, candidate.dim,
                           "central-difference", candidate.fd_step)
    ha = candidate.hessian(sample)
    hf = fd.hessian(sample)
    denom = 1.0 + np.linalg.norm(ha, axis=(-2, -1))
    rel = np.linalg.norm(ha - hf, axis=(-2, -1)) / denom
    rel = rel[np.isfinite(rel)]
    if len(rel) == 0:
        return True
    return bool(np.mean(rel > 0.05) > 0.2)


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
    h_max = max(grid.spacing)
    vals, grads, hess, fd_mode, edge_mask = _grid_derivatives(candidate, grid)
    eps_tan = _default_eps_tan(fd_mode, h_max, eps_tan)

    nodes = grid.nodes()
    radii = np.linalg.norm(nodes, axis=-1)
    keep = radii > grid.rho
    nodes, radii = nodes[keep], radii[keep]
    finite, safe_grads, safe_hess = _finite_derivatives(vals[keep], grads[keep], hess[keep])

    best, witness, resid = _margin_arrays(model, nodes, safe_grads, safe_hess, eps_tan)
    l_vals = l(radii)
    margins = best - l_vals
    tol_nodes = _node_tolerance(model, nodes, safe_grads, safe_hess, h_max, tol)

    statuses = np.full(len(nodes), STATUS_OK, dtype=np.int64)
    statuses[witness < 0] = STATUS_NO_TANGENTIAL
    # one-sided stencils at the grid edge: verdicts there are informational
    statuses[edge_mask[keep] & (witness >= 0)] = STATUS_EDGE
    statuses[~finite] = STATUS_NONFINITE
    verdicts = finite & (witness >= 0) & (margins >= -tol_nodes)

    nonsmooth = False
    if isinstance(candidate, CandidateFunction):
        nonsmooth = _detect_nonsmooth(candidate, nodes[finite])

    return VerificationReport(
        kind="supersolution",
        coords=nodes,
        margins=margins,
        verdicts=verdicts,
        witnesses=witness,
        tangency_residuals=resid,
        statuses=statuses,
        tolerances=tol_nodes,
        params={"eps_tan": eps_tan, "rho": grid.rho, "tol": tol,
                "gauge_zero": l.is_zero()},
        nonsmooth_candidate=nonsmooth,
    )


def radial_sufficient_check(
    model: ControlledDiffusion, grid: Grid, tol: float | None = None,
    eps_tan: float = 1e-6,
) -> VerificationReport:
    """Radial test: some control has sigma . x = 0 and f . x + trace a <= 0.

    This is the derivative-free sufficient condition for the norm itself to
    decrease; no candidate function is involved.
    """
    nodes = grid.nodes()
    n = len(nodes)
    radii = np.linalg.norm(nodes, axis=-1)
    h_max = max(grid.spacing)
    eye = np.broadcast_to(np.eye(grid.dim), (n, grid.dim, grid.dim))
    best, witness, resid_out = _margin_arrays(model, nodes, nodes, eye, eps_tan,
                                              gate_norm=np.maximum(radii, h_max))
    tol_nodes = (np.full(n, float(tol)) if tol is not None
                 else 10.0 * h_max**2 * (1.0 + radii**2))
    verdicts = (witness >= 0) & (best >= -tol_nodes)
    statuses = np.where(witness >= 0, STATUS_OK, STATUS_NO_TANGENTIAL)
    return VerificationReport(
        kind="radial-sufficient",
        coords=nodes,
        margins=best,
        verdicts=verdicts,
        witnesses=witness,
        tangency_residuals=resid_out,
        statuses=statuses,
        tolerances=tol_nodes,
        params={"eps_tan": eps_tan, "tol": tol},
    )


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
        best, witness, _ = _margin_arrays(model, x[None], pv[None], Yv[None], eps_tan)
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
    dvals = ex.evaluate(dphi, {"t": vvals})
    dvals = np.asarray(dvals, dtype=float) + np.zeros_like(vvals)
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
    # the margin of (-p, -Y) is exactly f . p + trace[a Y]
    best, witness, resid_out = _margin_arrays(model, nodes, -p, -Y, eps_tan)

    tol_nodes = _node_tolerance(model, nodes, np.where(finite[:, None], p, 0.0),
                                np.where(finite[:, None, None], Y, 0.0), h_max, tol)
    verdicts = finite & (witness >= 0) & (best >= -tol_nodes)
    statuses = np.full(n, STATUS_OK, dtype=np.int64)
    statuses[witness < 0] = STATUS_NO_TANGENTIAL
    statuses[~finite] = STATUS_NONFINITE
    statuses[levelset.edge_flags] = STATUS_EDGE
    return VerificationReport(
        kind="viability-boundary",
        coords=nodes,
        margins=best,
        verdicts=verdicts,
        witnesses=witness,
        tangency_residuals=resid_out,
        statuses=statuses,
        tolerances=tol_nodes,
        params={"eps_tan": eps_tan, "level": levelset.level, "tol": tol,
                "touches_boundary": levelset.touches_boundary},
    )


def _distance_evaluator(target_distance, dim: int):
    if isinstance(target_distance, CandidateFunction):
        return target_distance.value
    if callable(target_distance):
        return target_distance
    node = ex.parse_expr(target_distance) if isinstance(target_distance, str) else target_distance
    cand = CandidateFunction(node, dim)
    return cand.value


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
    """
    for g in (gamma1, gamma2):
        if not g.monotone:
            raise ValueError("sandwich gauges must be monotone")
        if float(g(0.0)) != 0.0:
            raise ValueError("sandwich gauges must vanish at 0")
    l = l or GaugeFunction.zero()
    dist = _distance_evaluator(target_distance, model.dim_state)

    h_max = max(grid.spacing)
    vals, grads, hess, fd_mode, _ = _grid_derivatives(candidate, grid)
    eps_tan = _default_eps_tan(fd_mode, h_max, eps_tan)

    nodes = grid.nodes()
    d_all = np.asarray(dist(nodes), dtype=float)
    keep = d_all > grid.rho
    nodes_k = nodes[keep]
    d = d_all[keep]
    vals_k = vals[keep]
    finite, safe_grads, safe_hess = _finite_derivatives(vals_k, grads[keep], hess[keep])

    best, witness, resid = _margin_arrays(model, nodes_k, safe_grads, safe_hess, eps_tan)
    margins = best - l(d)
    tol_nodes = _node_tolerance(model, nodes_k, safe_grads, safe_hess, h_max, tol)

    slack = tol_nodes + 1e-12 * (1.0 + np.abs(vals_k))
    sandwich = (gamma2(d) <= vals_k + slack) & (vals_k <= gamma1(d) + slack)

    statuses = np.full(len(nodes_k), STATUS_OK, dtype=np.int64)
    statuses[witness < 0] = STATUS_NO_TANGENTIAL
    statuses[~sandwich] = STATUS_SANDWICH
    statuses[~finite] = STATUS_NONFINITE
    verdicts = finite & sandwich & (witness >= 0) & (margins >= -tol_nodes)

    return VerificationReport(
        kind="set-lyapunov",
        coords=nodes_k,
        margins=margins,
        verdicts=verdicts,
        witnesses=witness,
        tangency_residuals=resid,
        statuses=statuses,
        tolerances=tol_nodes,
        params={
            "eps_tan": eps_tan,
            "rho": grid.rho,
            "tol": tol,
            "n_sandwich_fail": int((~sandwich).sum()),
            # properness is only diagnosed, never failed on
            "properness_hint_max_checked_value": float(np.nanmax(vals_k)) if len(vals_k) else None,
        },
    )
