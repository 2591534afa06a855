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
about 100 MB RSS, 45 MB of it the stencils of its 120 213-node augmented solve.

A sweep skips the frozen rows: pinned nodes, and nodes at the iteration's
cap.  That is exact: every update is a monotone gather and nonnegative dot
ending in ``min(cap, .)``, so a node at the cap stays there bit for bit and
changes by 0.  Every computed row is checked each sweep, and each node at
the cap is swept once more with the full operator before a solve returns.
The C6 augmented solve skips 18.5 % of its row-sweeps this way.

Convergence is measured in the sup norm; the discounted construction uses
risk-neutral expectation over increments instead of the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .fields import (BoxInterpolator, Grid, ScalarField, _coord_header, _csv, _node_coords,
                     _RowBlocks)
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


def _at_cap(values, cap):
    """The nodes an iteration freezes: a monotone sweep that ends in
    ``min(cap, .)`` holds a node at the cap for good."""
    return values == cap


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

    A block holds the rows ``held(rows)``: all of them but those flagged in
    ``skip``, less those ``drop`` took out since.
    """

    def __init__(self, grid, moves, blocks, cost_fn=None, cap=None, skip=None):
        self.interp = BoxInterpolator(grid)
        self._grid, self._moves, self._cost_fn, self._cap = grid, moves, cost_fn, cap
        keep = np.ones(grid.n_nodes, dtype=bool) if skip is None else ~skip
        self._held = {rows.start: rows.start + np.flatnonzero(keep[rows])
                      for rows in blocks.slices}
        self._blocks = dict(zip(self._held, blocks.map(lambda rows: self.build(self.held(rows)))))

    def build(self, ids):
        """The stencils and next-point costs of the nodes ``ids``, allocated once and
        filled a sub-block at a time: the temporaries scale with _SUB_ROWS."""
        n, corners = len(ids), 2 ** self._grid.dim
        stencils = [[(np.empty((n, corners), dtype=np.int64), np.empty((n, corners)),
                      np.empty(n, dtype=bool), (n,)) for _ in per_a] for per_a in self._moves]
        cost_next = [[np.empty(n) for _ in per_a if self._cost_fn is not None]
                     for per_a in self._moves]
        for lo in range(0, n, _SUB_ROWS):
            sub = slice(lo, lo + _SUB_ROWS)
            x = _node_coords(self._grid, ids[sub])
            for per_a, st_a, cost_a in zip(self._moves, stencils, cost_next):
                for k, move in enumerate(per_a):
                    nxt = move(x)
                    st = self.interp.prepare(nxt)
                    for whole, part in zip(st_a[k], st[:3]):
                        whole[sub] = part
                    if self._cost_fn is not None:
                        with np.errstate(all="ignore"):
                            cn = np.minimum(np.asarray(self._cost_fn(nxt), dtype=float), self._cap)
                        cn[~st[2]] = self._cap
                        cost_a[k][sub] = cn
        return stencils, cost_next

    def held(self, rows):
        """Flat indices of the rows the block at ``rows`` still holds."""
        return self._held[rows.start]

    def drop(self, rows, flags):
        """Take the held rows flagged in ``flags`` out of the block at ``rows``,
        moving the kept ones down in place ``_SUB_ROWS`` rows at a time."""
        keep = np.flatnonzero(~flags)

        def squeeze(a):
            for lo in range(0, len(keep), _SUB_ROWS):
                sub = keep[lo:lo + _SUB_ROWS]
                a[lo:lo + len(sub)] = a[sub]  # a[sub] is read before the rows it may cover
            return a[:len(keep)]

        stencils, cost_next = self._blocks[rows.start]
        self._blocks[rows.start] = (
            [[(*map(squeeze, st[:3]), (len(keep),)) for st in per_a] for per_a in stencils],
            [[squeeze(c) for c in per_a] for per_a in cost_next])
        self._held[rows.start] = squeeze(self._held[rows.start])

    def continuation(self, flat_values, fill, rows, mean=False):
        """(controls, rows) table of the worst next value over each control's
        moves, or their mean with ``mean``, for the rows the block at ``rows``
        holds.  With a running cost, ``flat_values`` is the excess over the
        cost and ``fill`` must be 0.
        """
        return self.read(self._blocks[rows.start], flat_values, fill, mean)

    def read(self, part, flat_values, fill, mean=False):
        """``continuation`` over the rows of ``part``, a result of ``build``."""
        stencils, cost_next = part
        table = np.empty((len(stencils), len(stencils[0][0][2])))
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


def _iterate(model, grid, scheme, name, cap, update, v0, pinned=None, cost_fn=None,
             mean=False, source=None, snapshot_every=0):
    """Sweep ``v <- update(T(source(v)), ids)`` block by block to the tolerance.

    T is ``model``'s transition operator at the nodes ``ids``, reduced over
    moves (worst case, or ``mean``) and then controls (least), reading
    ``source(v)`` (default ``v``) and, with ``cost_fn``, adding the running
    cost to that excess; ``update`` ends in ``min(cap, .)``.  The ``pinned``
    nodes and the nodes at the cap are frozen and skipped.  A block drops
    those that reached the cap from its stencils once the row-sweeps spent
    on them reach the rows it has left (ski rental: a compaction costs about
    one sweep of the block).  Each block reduces the NaN flag, least increase
    and largest change of the rows it computes, which are every row's: a
    frozen row changes by exactly 0.
    """
    if np.isnan(v0).any():
        raise NumericalError("NaN in the initial iterate")
    pinned = np.zeros(grid.n_nodes, dtype=bool) if pinned is None else pinned
    fill = cap if cost_fn is None else 0.0
    with _RowBlocks(grid.n_nodes, _BLOCK_ROWS) as blocks:
        op = _Transition(grid, _adversary_moves(model, scheme), blocks, cost_fn=cost_fn,
                         cap=cap, skip=pinned | _at_cap(v0, cap))
        spent = {rows.start: 0 for rows in blocks.slices}  # row-sweeps on frozen rows held
        # two buffers in turn: the rows a sweep skips hold the same values in both
        v, vn = v0, v0.copy()
        residuals = []
        snapshots = []
        converged = False
        iterations = 0
        for it in range(1, scheme.max_iterations + 1):
            src = v if source is None else source(v)

            def sweep(rows):
                ids = op.held(rows)
                old = v[ids]
                new = vn[ids] = update(op.continuation(src, fill, rows, mean).min(axis=0), ids)
                delta = new - old
                frozen = _at_cap(old, cap)
                n_frozen = np.count_nonzero(frozen)
                spent[rows.start] += n_frozen
                if n_frozen and spent[rows.start] >= len(old) - n_frozen:
                    op.drop(rows, frozen)
                    spent[rows.start] = 0
                return (bool(np.isnan(new).any()), delta.min(initial=0.0),
                        np.abs(delta).max(initial=0.0))

            nans, lows, highs = zip(*blocks.map(sweep))
            if any(nans):
                raise NumericalError(f"NaN produced at sweep {it}")
            if min(lows) < 0:
                raise NumericalError(
                    f"monotonicity violated at sweep {it} (min delta {min(lows):.3e})"
                )
            resid = float(max(highs))
            residuals.append(resid)
            v, vn = vn, v
            iterations = it
            if snapshot_every and it % snapshot_every == 0:
                snapshots.append(v.copy())
            if resid < scheme.tolerance:
                converged = True
                break

        # every node at the cap is swept once more, by stencils built a sub-block at a time
        op._blocks.clear()
        src = v if source is None else source(v)
        recheck = _at_cap(v, cap) & ~pinned

        def moved(rows):
            ids = rows.start + np.flatnonzero(recheck[rows])
            for lo in range(0, len(ids), _SUB_ROWS):
                sub = ids[lo:lo + _SUB_ROWS]
                swept = op.read(op.build(sub), src, fill, mean).min(axis=0)
                if (update(swept, sub) != v[sub]).any():
                    return True
            return False

        if any(blocks.map(moved)):
            raise NumericalError(f"a node frozen at the cap {cap} moves when swept again")
    fld = ScalarField(grid=grid, values=v, name=name, iterations=iterations,
                      residual=residuals[-1] if residuals else float("nan"),
                      converged=converged, fill=cap)
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

    ``pin_mask``, a boolean array with one entry per node, freezes nodes at
    the cost floor (used where the value is known to equal the cost, e.g. a
    small ball around the equilibrium set).

    ``cost`` must be pointwise and thread-safe: it is called on row blocks
    of the nodes and of their next points, possibly from several threads at
    once.
    """
    if cost is None:
        cost_fn = lambda pts: np.linalg.norm(pts, axis=-1)  # noqa: E731
    else:
        cost_fn = cost
    if pin_mask is not None:
        pin_mask = np.asarray(pin_mask)
        if pin_mask.dtype != bool or pin_mask.shape != (grid.n_nodes,):
            raise ValueError(f"pin_mask must be a boolean array of shape ({grid.n_nodes},), "
                             f"got {pin_mask.dtype} of shape {pin_mask.shape}")
    cap = scheme.cap
    # only the floor outlives this line: the nodes and costs are not held through the sweeps
    floor = np.minimum(np.asarray(cost_fn(grid.nodes()), dtype=float), cap)
    return _iterate(model, grid, scheme, "sup-value", cap,
                    lambda swept, ids: np.minimum(cap, np.maximum(floor[ids], swept)),
                    floor.copy(), pinned=pin_mask, cost_fn=cost_fn,
                    source=lambda v: v - floor, snapshot_every=snapshot_every)


def worst_case_integral_value(
    model: ControlledDiffusion,
    grid: Grid,
    l: GaugeFunction,
    scheme: RobustScheme,
    snapshot_every: int = 0,
) -> ValueResult:
    """Fixed point of V <- min(cap, l dt + min_a max_w V(next)), pinned at 0
    on the ball |x| <= rho around the controlled equilibrium.

    The value is the robust total cost of the decrease gauge along the path;
    iterates start at zero and increase pointwise.  The pinned ball's radius
    is the grid's ``rho``.
    """
    nodes = grid.nodes()
    run_cost = np.asarray(l.of_points(nodes), dtype=float) * scheme.dt
    if np.any(run_cost < 0):
        raise ValueError("gauge must be nonnegative")
    pin = np.linalg.norm(nodes, axis=-1) <= grid.rho
    cap = scheme.cap
    return _iterate(model, grid, scheme, "integral-value", cap,
                    lambda swept, ids: np.minimum(cap, run_cost[ids] + swept),
                    np.zeros(grid.n_nodes), pinned=pin, snapshot_every=snapshot_every)


def discounted_value_and_prop_set(
    model: ControlledDiffusion,
    grid: Grid,
    K: float,
    lam: float,
    theta: float,
    scheme: RobustScheme | None = None,
) -> tuple[ValueResult, np.ndarray]:
    """Expected discounted cost of leaving the K-ball, and its zero set.

    Running cost max(0, |x| - K), discount exp(-lam dt), expectation over the
    increment set.  The propagation set is {W <= theta}: nodes from which the
    ball is (numerically) never left.  Requires lam > 0, theta > 0 and a finite K
    below the grid radius; NaN is rejected by the name of its input.
    """
    _check_positive(lam=lam, theta=theta)
    inner_radius = min(min(abs(l), abs(u)) for l, u in zip(grid.lower, grid.upper))
    if not -np.inf < K < inner_radius:  # also rejects NaN
        raise ValueError(f"K={K} must be finite and below the grid radius {inner_radius}")

    nodes = grid.nodes()
    radii = np.linalg.norm(nodes, axis=-1)
    run_cost = np.maximum(0.0, radii - K)
    w_cap = float(run_cost.max()) / lam
    if scheme is None:
        scheme = default_scheme(model, grid, cap=max(w_cap, theta))
    disc = np.exp(-lam * scheme.dt)
    run_cost *= scheme.dt
    result = _iterate(model, grid, scheme, "discounted-value", w_cap,
                      lambda swept, ids: np.minimum(w_cap, run_cost[ids] + disc * swept),
                      np.zeros(grid.n_nodes), mean=True)
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
    radius_tree = ex._norm_tree([ex.Var(f"x{i+1}") for i in range(n)])
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
