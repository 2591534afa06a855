"""Worst-case value functions by monotone grid iteration.

The almost-sure criteria are robust criteria: the essential supremum over
Brownian paths is approximated by an adversary choosing among moves, today
one ``step`` per signed increment (+/- sqrt(dt) per channel, plus zero).
The three iterations below and feedback synthesis read one transition
operator: multilinear interpolation at the next points of a move set, one
map per (control, move), saturating outside the box, reduced over moves and
then over controls.  It is monotone, so iterates are pointwise nondecreasing
and converge under the cap; monotonicity is asserted every sweep.

A sweep works on contiguous row blocks: each block reads the whole previous
iterate, writes only its own rows of the next one and reduces its own NaN,
monotonicity and residual figures.  Solves map blocks of at most
``_BLOCK_ROWS`` rows with ``fields._RowBlocks``: one thread per 8192 nodes,
at most one per CPU the process may use, started for that solve only; numpy
releases the interpreter lock inside each block.
Every row takes the same operations in the same order however the rows are
split, so fields, residuals, sweep counts and feedback indices are
bit-identical for any CPU count.  Each block's stencils are allocated once
and filled ``_SUB_ROWS`` rows at a time, so the `solve` benchmark peaks at
101 MB RSS, 47 MB of it the stencils of its 120 213-node augmented solve.

Convergence is measured in the sup norm; the discounted construction uses
risk-neutral expectation over increments instead of the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .fields import BoxInterpolator, Grid, ScalarField, _coord_header, _csv, _RowBlocks
from .gauges import GaugeFunction
from .model import ControlledDiffusion

__all__ = [
    "NumericalError",
    "RobustScheme",
    "default_scheme",
    "step",
    "ValueResult",
    "worst_case_sup_value",
    "worst_case_integral_value",
    "discounted_value_and_prop_set",
    "FeedbackMap",
    "synthesize_feedback",
    "extended_system",
]


class NumericalError(RuntimeError):
    """Raised when an iteration produces NaNs or violates monotonicity."""


def _check_positive(**values):
    for name, value in values.items():
        if not value > 0:  # also rejects NaN
            raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class RobustScheme:
    """Time step, adversarial increment set, cap, and stopping controls."""

    dt: float
    increments: np.ndarray          # (n_w, dim_noise)
    cap: float
    max_iterations: int = 100_000
    tolerance: float = 1e-6

    def __post_init__(self):
        _check_positive(dt=self.dt, cap=self.cap, tolerance=self.tolerance)
        w = np.asarray(self.increments, dtype=float)
        if w.ndim != 2 or w.shape[0] == 0:
            raise ValueError("increments must be a nonempty (n_w, M) array")
        object.__setattr__(self, "increments", w)
        have = {tuple(row) for row in np.round(w, 12)}
        if any(tuple(-np.asarray(row)) not in have for row in np.round(w, 12)):
            raise ValueError("increment set must be symmetric (w in W implies -w in W)")


def default_increments(dim_noise: int, dt: float) -> np.ndarray:
    rows = [np.zeros(dim_noise)]
    root = np.sqrt(dt)
    for j in range(dim_noise):
        e = np.zeros(dim_noise)
        e[j] = root
        rows.append(e.copy())
        rows.append(-e)
    return np.array(rows)


def max_drift_norm(model: ControlledDiffusion, grid: Grid) -> float:
    nodes = grid.nodes()
    best = 0.0
    for idx in range(model.n_controls):
        f = model.drift(nodes, idx)
        f = f[np.all(np.isfinite(f), axis=-1)]
        if len(f):
            best = max(best, float(np.linalg.norm(f, axis=-1).max()))
    return best


def default_scheme(
    model: ControlledDiffusion,
    grid: Grid,
    cap: float,
    dt: float | None = None,
    tolerance: float = 1e-6,
    max_iterations: int = 100_000,
) -> RobustScheme:
    """CFL-style default: dt = h / (2 max|f| + 1) keeps stencils local."""
    if dt is None:
        h = min(grid.spacing)
        dt = h / (2.0 * max_drift_norm(model, grid) + 1.0)
    _check_positive(dt=dt)  # before the increments take its square root
    return RobustScheme(
        dt=dt,
        increments=default_increments(model.dim_noise, dt),
        cap=cap,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )


def step(model: ControlledDiffusion, x, control_index: int, w, dt: float) -> np.ndarray:
    """One explicit update x + f dt + sigma w with a prescribed increment w."""
    _check_positive(dt=dt)
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    return x + model.drift(x, control_index) * dt + model.sigma(x, control_index) @ w


@dataclass
class ValueResult:
    field: ScalarField
    residuals: list[float] = field(default_factory=list)
    snapshots: list[np.ndarray] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.field.converged


# On a 2-core Xeon, larger blocks hand the interpreter lock over less often:
# the C6 augmented solve (120 213 nodes) took 2.17, 2.02 and 1.88 s with
# blocks capped at 8192, 16384 and 32768 rows, while 65536 raised its peak
# RSS above the one-thread solve's; the `solve` benchmark peaks at 101 MB RSS.
_BLOCK_ROWS = 32768

# Rows per sub-block of a stencil build.  On a 2-core Xeon the C6 build (47.1 MiB
# of stencils) peaked at 62.4 MiB of heap in 162 ms built a block at a time, and at
# 51.9 / 53.9 / 57.7 MiB in 208 / 164 / 136 ms with 2048 / 4096 / 8192-row sub-blocks.
_SUB_ROWS = 4096


def _adversary_moves(model: ControlledDiffusion, scheme: RobustScheme):
    """The increment adversary as a move set: per control a, the maps
    x -> step(model, x, a, w, dt), one per increment w of the scheme."""
    return [[lambda x, a=a, w=w: step(model, x, a, w, scheme.dt) for w in scheme.increments]
            for a in range(model.n_controls)]


class _Transition:
    """The robust transition operator, built once per (grid, move set).

    Holds, per row block, one BoxInterpolator stencil per (control a, move k)
    at the next points ``moves[a][k](x)`` of the nodes x, shaped (rows, n);
    controls may have different numbers of moves.  With ``cost_fn`` it also
    holds the running cost at the next points, in closed form, capped at
    ``cap``, and exactly the cap off the box; reads then add the interpolated
    excess over the cost.  Interpolating the excess instead of the value
    removes the systematic overshoot of multilinear interpolation on
    cone-shaped fields, which otherwise accumulates along trajectories that
    spiral into the origin.
    """

    def __init__(self, grid, moves, blocks, cost_fn=None, cap=None):
        self.interp = BoxInterpolator(grid)
        nodes = grid.nodes()
        corners = 2 ** grid.dim

        def build(rows):
            n = rows.stop - rows.start
            stencils = [[(np.empty((n, corners), dtype=np.int64), np.empty((n, corners)),
                          np.empty(n, dtype=bool), (n,)) for _ in per_a] for per_a in moves]
            cost_next = [[np.empty(n) for _ in per_a if cost_fn is not None] for per_a in moves]
            # filled a sub-block at a time: the temporaries scale with _SUB_ROWS, not n
            for lo in range(0, n, _SUB_ROWS):
                sub = slice(lo, lo + _SUB_ROWS)
                x = nodes[rows][sub]
                for per_a, st_a, cost_a in zip(moves, stencils, cost_next):
                    for k, move in enumerate(per_a):
                        nxt = move(x)
                        st = self.interp.prepare(nxt)
                        for whole, part in zip(st_a[k], st[:3]):
                            whole[sub] = part
                        if cost_fn is not None:
                            with np.errstate(all="ignore"):
                                cn = np.minimum(np.asarray(cost_fn(nxt), dtype=float), cap)
                            cn[~st[2]] = cap
                            cost_a[k][sub] = cn
            return rows.start, (stencils, cost_next)

        self._blocks = dict(blocks.map(build))

    def continuation(self, flat_values, fill, rows, mean=False):
        """(controls, rows) table of the worst next value over each control's
        moves, or their mean with ``mean``, for one row block.  With a running
        cost, ``flat_values`` is the excess over the cost and ``fill`` must
        be 0.
        """
        stencils, cost_next = self._blocks[rows.start]
        table = np.empty((len(stencils), rows.stop - rows.start))
        for row, per_w, per_w_cost in zip(table, stencils, cost_next):
            if mean:
                row[:] = 0.0
            for k, st in enumerate(per_w):
                vals = self.interp.apply(flat_values, st, fill=fill)
                if per_w_cost:
                    vals += per_w_cost[k]
                if mean:
                    row += vals
                elif k == 0:
                    row[:] = vals
                else:
                    np.maximum(row, vals, out=row)
            if mean:
                row /= len(per_w)
        return table


def _iterate(blocks, update, v0, scheme, grid, name, source=None, snapshot_every=0):
    """Sweep ``v <- update(source(v), rows)`` block by block to the tolerance.

    ``update`` returns the new values of one row block, read from the whole
    ``source(v)`` (default ``v``); each block also reduces its NaN flag, least
    increase and largest change, and the sweep combines them exactly.
    """
    v = v0
    residuals = []
    snapshots = []
    converged = False
    iterations = 0
    for it in range(1, scheme.max_iterations + 1):
        src = v if source is None else source(v)
        vn = np.empty_like(v)

        def sweep(rows):
            new = vn[rows] = update(src, rows)
            delta = new - v[rows]
            return bool(np.isnan(new).any()), delta.min(), np.abs(delta).max()

        nans, lows, highs = zip(*blocks.map(sweep))
        if any(nans):
            raise NumericalError(f"NaN produced at sweep {it}")
        if min(lows) < 0:
            raise NumericalError(
                f"monotonicity violated at sweep {it} (min delta {min(lows):.3e})"
            )
        resid = float(max(highs))
        residuals.append(resid)
        v = vn
        iterations = it
        if snapshot_every and it % snapshot_every == 0:
            snapshots.append(v.copy())
        if resid < scheme.tolerance:
            converged = True
            break
    fld = ScalarField(grid=grid, values=v, name=name, iterations=iterations,
                      residual=residuals[-1] if residuals else float("nan"),
                      converged=converged)
    return ValueResult(field=fld, residuals=residuals, snapshots=snapshots)


def worst_case_sup_value(
    model: ControlledDiffusion,
    grid: Grid,
    scheme: RobustScheme,
    cost=None,
    pin_mask: np.ndarray | None = None,
    snapshot_every: int = 0,
) -> ValueResult:
    """Fixed point of V <- min(cap, max(cost, min_a max_w V(step(x, a, w)))).

    ``cost`` defaults to |x|; the value is the robust running supremum of the
    cost along adversarially-driven trajectories, truncated at the cap.
    Iterates start at the cost and increase pointwise.  Off-grid reads
    saturate to the cap; the running cost is evaluated in closed form at the
    query points and only the excess over it is interpolated.

    ``pin_mask`` freezes nodes at the cost floor (used where the value is
    known to equal the cost, e.g. a small ball around the equilibrium set).

    ``cost`` must be pointwise and thread-safe: it is called on row blocks
    of the nodes and of their next points, possibly from several threads at
    once.
    """
    if cost is None:
        cost_fn = lambda pts: np.linalg.norm(pts, axis=-1)  # noqa: E731
    else:
        cost_fn = cost
    cap = scheme.cap
    # only the floor outlives this line: the nodes and costs are not held through the sweeps
    floor = np.minimum(np.asarray(cost_fn(grid.nodes()), dtype=float), cap)
    with _RowBlocks(grid.n_nodes, _BLOCK_ROWS) as blocks:
        op = _Transition(grid, _adversary_moves(model, scheme), blocks, cost_fn=cost_fn, cap=cap)

        def update(excess, rows):
            swept = op.continuation(excess, 0.0, rows).min(axis=0)
            vn = np.minimum(cap, np.maximum(floor[rows], swept))
            if pin_mask is not None:
                pinned = pin_mask[rows]
                vn[pinned] = floor[rows][pinned]
            return vn

        return _iterate(blocks, update, floor.copy(), scheme, grid, "sup-value",
                        source=lambda v: v - floor, snapshot_every=snapshot_every)


def worst_case_integral_value(
    model: ControlledDiffusion,
    grid: Grid,
    l: GaugeFunction,
    scheme: RobustScheme,
    pin_radius: float | None = None,
    snapshot_every: int = 0,
) -> ValueResult:
    """Fixed point of V <- min(cap, l dt + min_a max_w V(next)), pinned at 0
    on the ball |x| <= rho around the controlled equilibrium.

    The value is the robust total cost of the decrease gauge along the path;
    iterates start at zero and increase pointwise.  ``pin_radius`` overrides
    the grid's origin-exclusion radius for the pinned ball.
    """
    nodes = grid.nodes()
    run_cost = np.asarray(l.of_points(nodes), dtype=float) * scheme.dt
    if np.any(run_cost < 0):
        raise ValueError("gauge must be nonnegative")
    pin = np.linalg.norm(nodes, axis=-1) <= (
        grid.rho if pin_radius is None else pin_radius
    )
    cap = scheme.cap
    with _RowBlocks(grid.n_nodes, _BLOCK_ROWS) as blocks:
        op = _Transition(grid, _adversary_moves(model, scheme), blocks)

        def update(v, rows):
            swept = op.continuation(v, cap, rows).min(axis=0)
            vn = np.minimum(cap, run_cost[rows] + swept)
            vn[pin[rows]] = 0.0
            return vn

        return _iterate(blocks, update, np.zeros(grid.n_nodes), scheme, grid,
                        "integral-value", snapshot_every=snapshot_every)


def discounted_value_and_prop_set(
    model: ControlledDiffusion,
    grid: Grid,
    K: float,
    lam: float,
    theta: float,
    scheme: RobustScheme | None = None,
    dt: float | None = None,
) -> tuple[ValueResult, np.ndarray]:
    """Expected discounted cost of leaving the K-ball, and its zero set.

    Running cost max(0, |x| - K), discount exp(-lam dt), expectation over the
    increment set.  The propagation set is {W <= theta}: nodes from which the
    ball is (numerically) never left.  Requires lam > 0 and theta > 0.
    """
    if lam <= 0:
        raise ValueError("discount rate lam must be positive")
    if theta <= 0:
        raise ValueError("zero-threshold theta must be positive")
    if scheme is not None and dt is not None:
        raise ValueError("give dt or scheme, not both: the scheme carries its own dt")
    inner_radius = min(min(abs(l), abs(u)) for l, u in zip(grid.lower, grid.upper))
    if K >= inner_radius:
        raise ValueError(f"K={K} must be below the grid radius {inner_radius}")

    nodes = grid.nodes()
    radii = np.linalg.norm(nodes, axis=-1)
    run_cost = np.maximum(0.0, radii - K)
    w_cap = float(run_cost.max()) / lam
    if scheme is None:
        scheme = default_scheme(model, grid, cap=max(w_cap, theta), dt=dt)
    disc = np.exp(-lam * scheme.dt)
    with _RowBlocks(grid.n_nodes, _BLOCK_ROWS) as blocks:
        op = _Transition(grid, _adversary_moves(model, scheme), blocks)

        def update(v, rows):
            swept = op.continuation(v, w_cap, rows, mean=True).min(axis=0)
            return np.minimum(w_cap, run_cost[rows] * scheme.dt + disc * swept)

        result = _iterate(blocks, update, np.zeros(grid.n_nodes), scheme, grid,
                          "discounted-value")
    return result, result.field.flat <= theta


@dataclass
class FeedbackMap:
    """One control index per grid node, with nearest-node lookup."""

    grid: Grid
    control_indices: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.control_indices = np.asarray(self.control_indices, dtype=np.int64).ravel()
        if self.control_indices.shape != (self.grid.n_nodes,):
            raise ValueError("need one control index per node")

    def lookup(self, points: np.ndarray) -> np.ndarray:
        return self.control_indices[self.grid.nearest_index(points)]

    def to_csv(self) -> str:
        return _csv(_coord_header(self.grid.dim) + ",control",
                    [*self.grid.nodes().T, self.control_indices])


def synthesize_feedback(
    model: ControlledDiffusion, value: ScalarField, scheme: RobustScheme
) -> FeedbackMap:
    """Per node, the control minimizing the worst interpolated next value.

    Ties break toward the lowest control index.
    """
    with _RowBlocks(value.grid.n_nodes, _BLOCK_ROWS) as blocks:
        op = _Transition(value.grid, _adversary_moves(model, scheme), blocks)
        # first minimum wins
        indices = np.concatenate(blocks.map(
            lambda rows: np.argmin(op.continuation(value.flat, scheme.cap, rows), axis=0)))
    return FeedbackMap(grid=value.grid, control_indices=indices,
                       provenance=value.name or "value-field")


def extended_system(
    model: ControlledDiffusion,
    l: GaugeFunction,
    y_bounds: tuple[float, float] = (0.0, 1.0),
) -> ControlledDiffusion:
    """Augment the state with the accumulated gauge: dY = l(|X|) dt, no noise.

    The supremum of |Y| along worst-case paths of the augmented system,
    started at (x, 0), equals the integral-cost value at x; this is the
    cross-check route.  Needs an expression gauge (the new drift row is a
    closed-form tree).
    """
    if l.expression is None:
        raise ValueError("extended system needs an expression gauge")
    n = model.dim_state
    sq_terms = None
    for i in range(n):
        term = ex.Bin("^", ex.Var(f"x{i+1}"), ex.Num(2.0))
        sq_terms = term if sq_terms is None else ex.Bin("+", sq_terms, term)
    radius_tree = ex.Call("sqrt", (sq_terms,))
    y_drift = ex.simplify(ex.substitute(l.expression, {"r": radius_tree}))

    zero_row = tuple(ex.Num(0.0) for _ in range(model.dim_noise))
    return ControlledDiffusion(
        dim_state=n + 1,
        dim_noise=model.dim_noise,
        controls=model.controls,
        drift_base=model.drift_base + (y_drift,),
        sigma_base=model.sigma_base + (zero_row,),
        drift_overrides=dict(model.drift_overrides),
        sigma_overrides=dict(model.sigma_overrides),
        domain_lower=model.domain_lower + (y_bounds[0],),
        domain_upper=model.domain_upper + (y_bounds[1],),
    )
