"""Milstein and Euler-Maruyama ensembles and empirical stabilizability estimates.

The default step is Milstein's for commutative noise (Milstein 1974; Kloeden
& Platen 1992): with Gaussian increments w it adds
1/2 sum_{j,k} (L_j sigma_k)(w_j w_k - delta_jk dt) to the Euler-Maruyama
update, where L_j sigma_k = sum_l sigma_lj d_l sigma_k.  The brackets are
built symbolically from the model's trees, and the noise counts as
commutative when L_j sigma_k and L_k sigma_j are equal trees after
simplification (always so for one noise channel).  Non-commutative noise and
signed-Bernoulli increments (where w^2 = dt) take the Euler-Maruyama step.

The step loop holds the live paths coordinate-major: the state as
(dim, paths) and each block of increments as (block, m, paths), so every
per-step array operation reads contiguous rows.  Each control's update of
all state rows is one kernel generated from the trees once per ensemble; it
writes into the next-state buffer and evaluates each repeated subtree once.
When no kernel reads an increment (sigma = 0 under every control the run
can use), no generator is built and nothing is drawn.  On `rotational` with
candidate and gauge tracking (dt 1e-3, one worker, 2-core Xeon) the loop
runs 4.3 million path-steps/s at 500 paths and 12.5 million at 10 000 paths.

Paths use counter-based per-path RNG streams keyed by (seed, path index), so
ensembles are bit-identical for any worker count or chunk size, and whether
they run alone or in a batch that steps the ensembles of several start
points in one loop, each path keeping its own start point and stream.
``workers`` only sets how many chunks the paths are split into.  The chunks
are stepped in forked processes, at most one per usable core, and their
results are read back in chunk order, so the ensemble is the same bit for
bit; without ``os.fork``, with one usable core or with other threads alive
they are stepped one after another in the calling thread.  The envelope fits
read ensembles and step nothing.  All pathwise verdicts are statistical
lower bounds on essential suprema: a max over finitely many paths never
proves an almost-sure bound, so results are reported as "consistent with"
the property, never as proof.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import expr as ex
from . import fields
from .fields import _coord_header, _csv
from .gauges import ComparisonGauge, GaugeFunction, monotone_envelope
from .model import CandidateFunction, ControlledDiffusion, _distance_evaluator

__all__ = [
    "TrajectoryEnsemble",
    "simulate_ensemble",
    "StabilizabilityEstimate",
    "estimate_stabilizability_gauge",
    "DecayEnvelopeEstimate",
    "estimate_decay_envelope",
    "OccupationEstimate",
    "measure_occupation_times",
    "DecayGaugeConstruction",
    "build_decay_gauge",
    "SupermaxingaleResult",
    "check_supermaxingale",
    "ViabilityEstimate",
    "empirical_viability",
]

# Steps per block of increments, for a single ensemble and a batch alike.  A
# block holds 8 * _BLOCK_STEPS bytes per path and noise channel (2 KiB; 20 MB
# for 10 000 paths), and every path makes one draw call per block, so fewer
# bytes per path cost more calls: drawing a 10 000-path, 2000-step ensemble
# took 0.620 s of CPU with 82 MB blocks of 1024 steps and 0.695 s with 20 MB
# blocks of 256 (median of 9, 2-core Xeon).
_BLOCK_STEPS = 256
# Fewest paths per chunk: half the smallest ensemble that two forked chunks
# step at least 10 % faster than one chunk.  On `rotational` with tracking (dt
# 1e-3, T 2; median of 9, 2-core Xeon) two forked chunks against one take
# 0.090 / 0.099 s at 400 paths (1.10x), 0.095 / 0.107 s at 500 (1.12x),
# 0.118 / 0.151 s at 1000 (1.27x) and 0.303 / 0.471 s at 5000 (1.55x).
# Without a fork the chunks run one after another and small ones only add
# per-step call overhead.
_MIN_CHUNK_PATHS = 250
# Paths whose increments are drawn into one slab before it is copied, transposed,
# into the block; 128 paths of 256 steps and one noise channel take 256 KiB.
# Each path fills its slab row with one draw call per block, so the slab's size
# changes the bytes held, not the number of calls.
_SLAB_PATHS = 128


def _path_generator(seed: int, path_index: int) -> np.random.Generator:
    key = (int(seed) << 64) + int(path_index)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TrajectoryEnsemble:
    """Batch of simulated paths with online running statistics.

    ``integrator`` names the step that ran: "milstein" or "euler".  Optional
    trackers (candidate, gauge, occupation radii, target distance)
    are bound at simulation time; checks that need them verify the binding.
    """

    x0: np.ndarray
    dt: float
    horizon: float
    n_paths: int
    seed: int
    increment_mode: str
    integrator: str
    sup_radius: np.ndarray
    final_states: np.ndarray
    exited: np.ndarray
    exit_times: np.ndarray
    timeline_times: np.ndarray
    timeline_max_radius: np.ndarray
    integral_gauge: np.ndarray | None = None
    sup_candidate: np.ndarray | None = None
    supermax_excess: np.ndarray | None = None
    supermax_excess_time: np.ndarray | None = None
    sup_target_distance: np.ndarray | None = None
    occupation_radii: np.ndarray | None = None
    occupation: np.ndarray | None = None
    outside_at_horizon: np.ndarray | None = None
    path_times: np.ndarray | None = None
    paths: np.ndarray | None = None
    candidate_ref: CandidateFunction | None = None
    gauge_ref: GaugeFunction | None = None

    @property
    def initial_radius(self) -> float:
        return float(np.linalg.norm(self.x0))

    def to_csv(self) -> str:
        intl = (self.integral_gauge if self.integral_gauge is not None
                else np.full(self.n_paths, np.nan))
        return _csv("path,sup_radius,final_radius,integral_gauge,exited,exit_time", [
            np.arange(self.n_paths), self.sup_radius,
            np.linalg.norm(self.final_states, axis=-1), intl, self.exited, self.exit_times,
        ])

    def paths_csv(self) -> str:
        if self.paths is None:
            raise ValueError("ensemble was simulated without path storage (thin=0)")
        n_samples, _, dim = self.paths.shape
        return _csv(f"t,{_coord_header(dim)},path", [
            np.repeat(self.path_times, self.n_paths), *self.paths.reshape(-1, dim).T,
            np.tile(np.arange(self.n_paths), n_samples),
        ])

    def manifest(self, model_hash: str = "") -> dict:
        return {
            "model_hash": model_hash,
            "x0": list(map(float, np.atleast_1d(self.x0))),
            "dt": self.dt,
            "horizon": self.horizon,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "increment_mode": self.increment_mode,
            "integrator": self.integrator,
        }

    def manifest_json(self, model_hash: str = "") -> str:
        return json.dumps(self.manifest(model_hash), indent=2)


def _resolve_control(model: ControlledDiffusion, control) -> int:
    if control is None:
        return 0
    if isinstance(control, (int, np.integer)):
        if not 0 <= control < model.n_controls:
            raise ValueError(f"control index {control} out of range")
        return int(control)
    for idx, c in enumerate(model.controls):
        if c.label == control:
            return idx
    raise ValueError(f"unknown control label {control!r}")


def _milstein_brackets(sigma, xvars):
    """Trees of (L_j sigma_k)_i = sum_l sigma_lj d_l sigma_ik, indexed [j][k][i]."""
    n, m = len(sigma), len(sigma[0])
    dsig = [[[ex.diff(sigma[i][k], v) for v in xvars] for k in range(m)] for i in range(n)]

    def bracket(j, k, i):
        tree = ex.Num(0.0)
        for l in range(n):
            tree = ex.Bin("+", tree, ex.Bin("*", sigma[l][j], dsig[i][k][l]))
        return ex.simplify(tree)

    return [[[bracket(j, k, i) for i in range(n)] for k in range(m)] for j in range(m)]


def _sum(terms):
    """Left-to-right sum of the nonzero (coefficient, factor) products."""
    tree = None
    for coef, factor in terms:
        if coef == ex.Num(0.0):
            continue
        term = ex.Bin("*", coef, factor)
        tree = term if tree is None else ex.Bin("+", tree, term)
    return tree


def _step_trees(model, control_indices, integrator):
    """The update tree of (x, w, dt) of each state row, for each control.

    Returns the per-control row trees and the integrator they implement: a
    Milstein request falls back to Euler when some control's noise is not
    commutative.  Terms whose coefficient simplifies to 0 are dropped, so for
    noise constant in x the Milstein step is the Euler step bit for bit, and
    a row without noise reads no increment.
    """
    n, m = model.dim_state, model.dim_noise
    xvars = [f"x{i+1}" for i in range(n)]
    w = [ex.Var(f"w{j+1}") for j in range(m)]
    dt = ex.Var("dt")
    half_dw2 = [ex.Bin("*", ex.Num(0.5), ex.Bin("-", ex.Bin("*", wj, wj), dt)) for wj in w]
    trees = [model._control_trees(ci) for ci in control_indices]
    brackets = [None] * len(trees)
    if integrator == "milstein":
        brackets = [_milstein_brackets(sigma, xvars) for _, sigma in trees]
        if not all(b[j][k] == b[k][j] for b in brackets
                   for j in range(m) for k in range(j + 1, m)):
            integrator, brackets = "euler", [None] * len(trees)
    steps = {}
    for ci, (drift, sigma), lsig in zip(control_indices, trees, brackets):
        rows = []
        for i in range(n):
            parts = [_sum([(drift[i], dt)]), _sum([(sigma[i][j], w[j]) for j in range(m)])]
            if lsig is not None:
                parts.append(_sum(
                    [(lsig[j][j][i], half_dw2[j]) for j in range(m)]
                    + [(lsig[j][k][i], ex.Bin("*", w[j], w[k]))
                       for j in range(m) for k in range(j + 1, m)]))
            tree = ex.Var(xvars[i])
            for part in parts:
                if part is not None:
                    tree = ex.Bin("+", tree, part)
            rows.append(tree)
        steps[ci] = rows
    return steps, integrator


def _compile_steps(model, control_indices, integrator):
    """One compiled step kernel per control, the integrator, and whether to draw.

    Kernel ``steps[ci](*x, *w, dt, out)`` writes the next state of every
    state row into ``out``; it runs without an error-state scope of its own,
    since the step loop enters one per block.  When no control's rows read an
    increment, nothing is drawn and the kernels take no ``w``.
    """
    trees, integrator = _step_trees(model, control_indices, integrator)
    wvars = [f"w{j+1}" for j in range(model.dim_noise)]
    read = set().union(*(ex.free_vars(t) for rows in trees.values() for t in rows))
    draws = not read.isdisjoint(wvars)
    args = [f"x{i+1}" for i in range(model.dim_state)] + (wvars if draws else []) + ["dt"]
    return {ci: ex._compile_rows(rows, args) for ci, rows in trees.items()}, integrator, draws


def _radius(x, out):
    """Column norms of x, shape (dim, paths), into ``out``.

    Bit-equal to ``np.linalg.norm`` of the row-major (paths, dim) array along
    its last axis: numpy adds fewer than eight squares left to right and more
    pairwise, and on other memory orders in another order, so wider states
    take numpy's own norm of a row-major copy.
    """
    if len(x) >= 8:
        out[:] = np.linalg.norm(x.T.copy(), axis=-1)
        return out
    np.multiply(x[0], x[0], out=out)
    for c in x[1:]:
        out += c * c
    return np.sqrt(out, out=out)


def _inside(x, lower, upper, ok, flag):
    """Flag into ``ok`` the columns of x inside the box; ``flag`` is scratch."""
    for i, row in enumerate(x):
        if i:
            ok &= np.greater_equal(row, lower[i], out=flag)
        else:
            np.greater_equal(row, lower[i], out=ok)
        ok &= np.less_equal(row, upper[i], out=flag)
    return ok


def _draw(gens, increment_mode, root_dt, slab, out):
    """Scaled increments of ``gens`` into ``out``, shape (block, m, paths).

    Each path's draws fill one row of ``slab`` (up to ``_SLAB_PATHS`` paths)
    and the slab is copied into ``out`` transposed, so the block is held
    once, not once per path and once stacked.
    """
    block = out.shape[0]
    for lo in range(0, len(gens), len(slab)):
        rows = slab[:len(gens) - lo, :block]
        for g, row in zip(gens[lo:lo + len(slab)], rows):
            if increment_mode == "gaussian":
                g.standard_normal(out=row)
            else:  # signed-bernoulli
                row[...] = g.integers(0, 2, size=row.shape) * 2.0 - 1.0
        out[..., lo:lo + len(rows)] = rows.transpose(1, 2, 0)
    out *= root_dt
    return out


def _group_starts(groups):
    """The groups present in the sorted ``groups`` and where each one starts."""
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    return groups[starts], starts


def _simulate_chunk(model, x0s, dt, n_steps, path_lo, path_hi, seeds, n_paths,
                    increment_mode, lower, upper, control_index, feedback, steps, draws, cand,
                    gauge, occ_radii, target_fn, thin):
    """Simulate batch paths path_lo..path_hi-1 and return their full-size statistics.

    Batch path p is path j = p % n_paths of ensemble g = p // n_paths: it
    starts at ``x0s[g]``, draws from the stream keyed (seeds[g], j), and its
    supermartingale excess subtracts V(x0s[g]).  The timeline has one row
    per ensemble, the max over that ensemble's live paths.

    Only live paths are stepped, coordinate-major: the state is held as
    (dim, paths) and the increments as (block, m, paths), so every per-step
    operation reads contiguous rows.  The per-path arrays in ``live`` hold
    the live paths in index order along their last axis; when a step leaves
    the box for some of them, their pre-step state and statistics are copied
    into ``final`` (frozen at the exit) and every live array is compacted;
    the rest of the block's increments are read through the live paths'
    columns.  Without ``draws`` (no kernel reads an increment) no generator
    is built and nothing is drawn.  The step runs with one ``np.errstate``
    scope per block of steps; increments, states, box flags and radii go
    into buffers reused from step to step.  A block has ``_BLOCK_STEPS``
    steps (fewer in the last one and when the horizon is shorter), in a
    batch as in a single ensemble; each path's stream is drawn in order, so
    the block length changes no bit.  The outputs equal the masked loop that
    steps every path bit for bit.  ``feedback`` is None when one control
    serves every path (``control_index``).
    """
    n = path_hi - path_lo
    dim = model.dim_state
    m = model.dim_noise
    root_dt = np.sqrt(dt)
    group = np.arange(path_lo, path_hi) // n_paths
    # clamped to the finite range, one comparison per side also rejects inf and NaN
    big = np.finfo(float).max
    lower = np.broadcast_to(np.maximum(lower, -big), (dim,))
    upper = np.broadcast_to(np.minimum(upper, big), (dim,))

    x = np.ascontiguousarray(x0s[group].T)
    radius = _radius(x, np.empty(n))
    timeline = np.zeros((len(x0s), n_steps + 1))
    present, starts = _group_starts(group)
    timeline[present, 0] = np.maximum.reduceat(radius, starts)
    live = SimpleNamespace(x=x, radius=radius, sup_radius=radius.copy())
    # trees run bare in the step's error-state scope; a constant's scalar broadcasts
    if isinstance(cand, CandidateFunction):
        bare_v = ex._compile_bare(cand.expression, cand._xvars)
        value_of = lambda x: bare_v(*x)  # noqa: E731
    elif cand is not None:
        value_of = lambda x: cand.value(x.T)  # noqa: E731
    if gauge is not None and gauge.expression is not None:
        bare_l = ex._compile_bare(gauge.expression, ["r"])
        gauge = lambda r: bare_l(r) + 0.0  # noqa: E731
    if cand is not None:
        v0s = np.array([cand.value(x0) for x0 in x0s])
        v0 = v0s[group]
        live.sup_v, live.supermax, live.supermax_t = v0.copy(), np.zeros(n), np.zeros(n)
    if gauge is not None or cand is not None:
        live.acc_l = np.zeros(n)
    if occ_radii is not None:
        occ_col = occ_radii[:, None]
        live.occupation = np.zeros((len(occ_radii), n))
    if target_fn is not None:
        live.sup_d = np.abs(np.asarray(target_fn(x.T), dtype=float))
    final = {key: np.empty_like(arr) for key, arr in vars(live).items()}
    index = np.arange(n)
    alive = np.ones(n, dtype=bool)
    exit_times = np.full(n, np.inf)
    if thin:
        stored = np.empty((n_steps // thin + 1, n, dim))
        stored[0] = x.T
        sample_row = 1

    def buffers(size):
        return np.empty((dim, size)), np.empty(size, dtype=bool), np.empty(size, dtype=bool)

    xn, ok, flag = buffers(n)
    block_steps = min(_BLOCK_STEPS, n_steps)
    w = ()  # the increments of one step, as rows (m, paths), when drawn
    if draws:
        gens = [_path_generator(seeds[p // n_paths], p % n_paths)
                for p in range(path_lo, path_hi)]
        incs_buffer = np.empty((block_steps, m, n))
        slab = np.empty((min(_SLAB_PATHS, n), block_steps, m))
    step_index = 0
    while step_index < n_steps and len(index):
        block = min(block_steps, n_steps - step_index)
        if draws:
            incs = _draw(gens, increment_mode, root_dt, slab, incs_buffer[:block, :, :len(index)])
        cols = None  # after an exit, the block's columns of the live paths
        with np.errstate(all="ignore"):
            for b in range(block):
                k = step_index + b
                if draws:
                    w = incs[b] if cols is None else incs[b].take(cols, axis=-1)
                x = live.x
                # pre-step state carries the running integrals over [t_k, t_k + dt)
                if gauge is not None:
                    live.acc_l += gauge(live.radius) * dt
                if occ_radii is not None:
                    live.occupation += dt * (live.radius > occ_col)

                if feedback is None:
                    steps[control_index](*x, *w, dt, xn)
                else:
                    indices = feedback.lookup(x.T)
                    for ci in np.unique(indices):
                        mask = indices == ci
                        xm = x.compress(mask, axis=-1)
                        wm = w.compress(mask, axis=-1) if draws else ()
                        xn[:, mask] = steps[ci](*xm, *wm, dt, np.empty_like(xm))

                if not _inside(xn, lower, upper, ok, flag).all():
                    kept, gone = np.flatnonzero(ok), np.flatnonzero(~ok)
                    at = index[gone]
                    alive[at] = False
                    exit_times[at] = (k + 1) * dt
                    if thin:
                        stored[sample_row:, at] = x[:, gone].T
                    for key, arr in vars(live).items():
                        final[key][..., at] = arr[..., gone]
                        setattr(live, key, arr.take(kept, axis=-1))
                    index = index[kept]
                    if draws:
                        gens = [gens[j] for j in kept]
                    cols = kept if cols is None else cols[kept]
                    xn = xn.take(kept, axis=-1)
                    x, ok, flag = buffers(len(index))
                    if not len(index):
                        break
                    present, starts = _group_starts(group[index])
                    if cand is not None:
                        v0 = v0s[group[index]]
                live.x, xn = xn, x  # the pre-step buffer takes the next step

                radius = _radius(live.x, live.radius)
                np.maximum(live.sup_radius, radius, out=live.sup_radius)
                timeline[present, k + 1] = np.maximum.reduceat(radius, starts)
                if cand is not None:
                    vx = value_of(live.x)
                    np.maximum(live.sup_v, vx, out=live.sup_v)
                    excess = vx + live.acc_l - v0
                    live.supermax_t[excess > live.supermax] = (k + 1) * dt
                    np.maximum(live.supermax, excess, out=live.supermax)
                if target_fn is not None:
                    dx = np.abs(np.asarray(target_fn(live.x.T), dtype=float))
                    np.maximum(live.sup_d, dx, out=live.sup_d)
                if thin and (k + 1) % thin == 0:
                    stored[sample_row, index] = live.x.T
                    sample_row += 1
        step_index += block

    for key, arr in vars(live).items():
        final[key][..., index] = arr
    final["x"] = final["x"].T.copy()  # final states are path-major
    out = {**final, "alive": alive, "exit_times": exit_times, "timeline": timeline}
    if thin:
        out["stored"] = stored
    return out


def _chunk_child(args, read_end, write_end):
    """In a forked child: step ``args``' chunks, pickle the outcome down the pipe, exit.

    The outcome is (True, result dicts) or (False, exception); an exception
    that does not survive a pickle round trip is sent as a ``RuntimeError``
    with its type and message.  The child always leaves through ``os._exit``,
    so it runs no atexit handler and flushes no inherited buffer.
    """
    code = 1
    try:
        os.close(read_end)
        try:
            out = (True, [_simulate_chunk(*a) for a in args])
        except BaseException as err:
            try:
                pickle.loads(pickle.dumps(err))
            except Exception:
                err = RuntimeError(f"{type(err).__name__}: {err}")
            out = (False, err)
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(out, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_chunks(args) -> list[dict]:
    """``[_simulate_chunk(*a) for a in args]`` on up to ``fields._cpus()`` processes.

    With P = min(chunks, usable CPUs) >= 2, ``os.fork`` available and no
    other thread alive, P - 1 forked children step chunks k, k + P, ... and
    pickle their results down a pipe, while the calling process steps
    chunks 0, P, 2P, ...; children inherit the compiled kernels, which do
    not pickle.  The pipes are read on the calling thread in chunk order and
    every child is reaped, so the list is the serial one bit for bit.  A
    child's exception is raised again here; a child that dies without a
    result raises ``RuntimeError``.  If anything raises, the children still
    running are killed and reaped.  Otherwise the chunks run in order on the
    calling thread.
    """
    procs = min(len(args), fields._cpus())
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return [_simulate_chunk(*a) for a in args]
    children = {}  # pid -> the read end of its pipe, in the order forked
    try:
        for k in range(1, procs):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _chunk_child(args[k::procs], read_end, write_end)
            os.close(write_end)
            children[pid] = os.fdopen(read_end, "rb")
        results = [None] * len(args)
        results[::procs] = [_simulate_chunk(*a) for a in args[::procs]]
        for k, pid in enumerate(list(children), 1):
            with children[pid] as pipe:
                try:
                    ok, out = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    ok = None
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if ok is None:
                chunks = ", ".join(map(str, range(k, len(args), procs)))
                raise RuntimeError(f"the process stepping ensemble chunk(s) {chunks} died "
                                   f"without a result (wait status {status})")
            if not ok:
                raise out
            results[k::procs] = out
        return results
    finally:
        if children:
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _step_count(T, dt, starts=1) -> int:
    """round(T / dt); ValueError unless it is at least 1 and ``starts`` float64
    timelines of steps + 1 fit in np.intp's largest value of bytes."""
    steps, most = T / dt, np.iinfo(np.intp).max
    if not 0.5 < steps < most:
        raise ValueError(f"need T / dt to round to at least 1 and fewer than "
                         f"{most} steps, got T={T!r} and dt={dt!r}")
    if (round(steps) + 1) * starts * 8 > most:
        raise ValueError(f"need the timeline, {starts} x (round(T / dt) + 1) x 8 bytes, "
                         f"to fit in {most} bytes, got T={T!r} and dt={dt!r}")
    return round(steps)


def _simulate_batch(model, x0s, dt, T, n_paths, seeds, control=None, feedback=None,
                    increment_mode="gaussian", domain=None, candidate=None, gauge=None,
                    occupation_radii=None, target_distance=None, thin=0, workers=1,
                    integrator="milstein") -> list[TrajectoryEnsemble]:
    """One step loop for the ensembles from each of ``x0s``; one ensemble per start.

    Ensemble g equals ``simulate_ensemble(model, x0s[g], ..., seed=seeds[g])``
    bit for bit; ``simulate_ensemble`` documents the keywords it forwards here.
    ``workers`` sets the number of chunks (at most one per
    ``_MIN_CHUNK_PATHS`` paths of one ensemble); ``_run_chunks`` steps them
    in forked processes, at most one per usable core, or in order on the
    calling thread, with the same bits.
    """
    for name, value, need, ok in (
        ("dt", dt, "> 0", dt > 0), ("T", T, "> 0", T > 0),
        ("n_paths", n_paths, ">= 1", n_paths >= 1),
        ("workers", workers, ">= 1", workers >= 1), ("thin", thin, ">= 0", thin >= 0),
    ):
        if not ok:
            raise ValueError(f"need {name} {need}, got {value!r}")
    if increment_mode not in ("gaussian", "signed-bernoulli"):
        raise ValueError(f"unknown increment mode {increment_mode!r}")
    if integrator not in ("milstein", "euler"):
        raise ValueError(f"unknown integrator {integrator!r}")
    x0s = [np.asarray(x0, dtype=float) for x0 in x0s]
    for x0 in x0s:
        if np.atleast_1d(x0).shape != (model.dim_state,):
            raise ValueError(f"x0 must have {model.dim_state} component(s), got shape "
                             f"{x0.shape}")
    if len(seeds) != len(x0s):
        raise ValueError(f"need one seed per start point, got {len(seeds)} seeds for "
                         f"{len(x0s)} x0")
    n_steps = _step_count(T, dt, len(x0s))
    control_index = _resolve_control(model, control)
    if model.n_controls == 1 or feedback is None:
        used_controls = [control_index]
    else:
        used_controls = [int(ci) for ci in np.unique(feedback.control_indices)]
    if len(used_controls) == 1:  # a feedback map with one control needs no lookup
        control_index, feedback = used_controls[0], None
    if increment_mode != "gaussian":
        integrator = "euler"
    steps, integrator, draws = _compile_steps(model, used_controls, integrator)
    if domain is None:
        lower = np.asarray(model.domain_lower)
        upper = np.asarray(model.domain_upper)
    else:
        lower = np.asarray(domain[0], dtype=float)
        upper = np.asarray(domain[1], dtype=float)

    target_fn = None
    if target_distance is not None:
        target_fn = _distance_evaluator(target_distance, model.dim_state)
    occ = np.asarray(occupation_radii, dtype=float) if occupation_radii is not None else None

    # chunked by the size of one ensemble, as when each ensemble ran alone
    n_chunks = max(1, min(int(workers), n_paths // _MIN_CHUNK_PATHS))
    chunk_bounds = np.linspace(0, len(x0s) * n_paths, n_chunks + 1).astype(int)
    points = np.array([np.atleast_1d(x0) for x0 in x0s])
    args = [
        (model, points, dt, n_steps, int(lo), int(hi), seeds, n_paths, increment_mode,
         lower, upper, control_index, feedback, steps, draws, candidate, gauge, occ, target_fn,
         thin)
        for lo, hi in zip(chunk_bounds[:-1], chunk_bounds[1:])
    ]
    results = _run_chunks(args)

    stats = {
        key: np.concatenate([r[key] for r in results], axis=-1 if key == "occupation" else 0)
        for key, arr in results[0].items()
        if arr is not None and key not in ("timeline", "stored")
    }
    timeline = results[0]["timeline"]
    for r in results[1:]:
        timeline = np.maximum(timeline, r["timeline"])
    if thin:
        stored = np.concatenate([r["stored"] for r in results], axis=1)

    ensembles = []
    for g, (x0, seed) in enumerate(zip(x0s, seeds)):
        paths = slice(g * n_paths, (g + 1) * n_paths)
        stat = {key: arr[..., paths] if key == "occupation" else arr[paths]
                for key, arr in stats.items()}
        exited = ~stat["alive"]
        ens = TrajectoryEnsemble(
            x0=x0,
            dt=dt,
            horizon=T,
            n_paths=n_paths,
            seed=seed,
            increment_mode=increment_mode,
            integrator=integrator,
            sup_radius=stat["sup_radius"],
            final_states=stat["x"],
            exited=exited,
            exit_times=np.where(exited, stat["exit_times"], np.inf),
            timeline_times=np.arange(n_steps + 1) * dt,
            timeline_max_radius=timeline[g],
            integral_gauge=stat["acc_l"] if gauge is not None else None,
            sup_candidate=stat.get("sup_v"),
            supermax_excess=stat.get("supermax"),
            supermax_excess_time=stat.get("supermax_t"),
            sup_target_distance=stat.get("sup_d"),
            occupation_radii=occ,
            occupation=stat.get("occupation"),
            outside_at_horizon=(
                (stat["radius"][None, :] > occ[:, None]) if occ is not None else None
            ),
            candidate_ref=candidate,
            gauge_ref=gauge,
        )
        if thin:
            ens.path_times = np.arange(0, n_steps + 1, thin) * dt
            ens.paths = stored[:, paths]
        ensembles.append(ens)
    return ensembles


def simulate_ensemble(model: ControlledDiffusion, x0, dt: float, T: float, n_paths: int,
                      seed: int, **kw) -> TrajectoryEnsemble:
    """Simulate n_paths trajectories from x0.

    The keywords, passed on to ``_simulate_batch``, and their defaults:
    ``control=None`` (index or label), ``feedback=None`` (a ``FeedbackMap``),
    ``increment_mode="gaussian"`` or "signed-bernoulli", ``domain=None``
    (a (lower, upper) box, else the model's), ``candidate=None``,
    ``gauge=None``, ``occupation_radii=None``, ``target_distance=None``,
    ``thin=0``, ``workers=1`` and ``integrator="milstein"``.

    ``integrator`` is "milstein" (the default) or "euler".  The Milstein step
    runs for Gaussian increments when the noise of every control the
    simulation can use is commutative; otherwise the Euler-Maruyama step
    runs.  The ensemble's ``integrator`` field records which one did.
    Paths leaving the domain box are flagged exited and frozen (statistics
    truncated at exit).  ``thin`` > 0 stores every thin-th state for
    plotting; running statistics always use every step.
    """
    return _simulate_batch(model, [x0], dt, T, n_paths, [seed], **kw)[0]


@dataclass
class StabilizabilityEstimate:
    gauge: ComparisonGauge
    radii: np.ndarray
    worst_sup: np.ndarray
    consistent: bool
    reason: str


def _class_k_knots(radii: np.ndarray, values: np.ndarray):
    """Knots of the least strictly increasing majorant of ``values`` over the
    increasing ``radii``, from (0, 0), with a strictly positive first value."""
    env = monotone_envelope(radii, values, strict=True)
    knots_v = np.concatenate([[0.0], env])
    knots_v[1] = max(knots_v[1], 1e-12 * max(1.0, env.max()))
    return np.concatenate([[0.0], radii]), knots_v


def estimate_stabilizability_gauge(
    ensembles: list[TrajectoryEnsemble],
    small_radius_factor: float = 2.0,
) -> StabilizabilityEstimate:
    """Class-K envelope of the worst pathwise sup-radius over initial radii.

    The envelope is the least monotone majorant of r -> max over paths of
    sup_t |X_t|, over the ensembles sorted by initial radius.  The verdict is
    "consistent with" the pathwise bound; any exited path makes it negative,
    reported for the smallest radius with an exit.
    """
    if len(ensembles) == 0:
        raise ValueError("no ensemble to fit")
    ensembles = sorted(ensembles, key=lambda ens: ens.initial_radius)
    radii = np.array([ens.initial_radius for ens in ensembles])
    for ens in ensembles:
        if ens.exited.any():
            gauge = ComparisonGauge("K", np.array([0.0, radii[-1]]), np.array([0.0, radii[-1]]))
            return StabilizabilityEstimate(
                gauge=gauge, radii=radii, worst_sup=np.full(len(radii), np.inf),
                consistent=False,
                reason=f"{int(ens.exited.sum())} path(s) left the domain from |x0|="
                       f"{ens.initial_radius:.4g}",
            )
    worst = np.array([ens.sup_radius.max() for ens in ensembles])
    gauge = ComparisonGauge("K", *_class_k_knots(radii, worst))
    if worst[0] <= small_radius_factor * radii[0] or radii[0] == 0.0:
        consistent, reason = True, "all paths bounded; envelope monotone and small near 0"
    else:
        consistent, reason = False, (f"sup-radius {worst[0]:.4g} from |x0|={radii[0]:.4g} "
                                     "does not shrink with the initial radius")
    return StabilizabilityEstimate(gauge=gauge, radii=radii, worst_sup=worst,
                                   consistent=consistent, reason=reason)


@dataclass
class DecayEnvelopeEstimate:
    gauge: ComparisonGauge | None
    kappa: float
    asymptotic: bool
    stable: bool
    reason: str


def estimate_decay_envelope(
    ensembles: list[TrajectoryEnsemble],
    kappa_min: float = 1e-4,
    fit_floor: float = 1e-10,
) -> DecayEnvelopeEstimate:
    """Fit the least separable envelope gamma(r) exp(-kappa t) over ensembles.

    kappa is the most conservative fitted decay rate across initial radii;
    gamma is then the least radius gauge making the envelope dominate every
    sampled max-radius curve.
    """
    rates = []
    for ens in ensembles:
        m = ens.timeline_max_radius
        t = ens.timeline_times
        mask = m > max(fit_floor, 1e-6 * max(m[0], fit_floor))
        if mask.sum() < 2:
            rates.append(0.0)
            continue
        slope = np.polyfit(t[mask], np.log(m[mask]), 1)[0]
        rates.append(-slope)
    kappa = float(min(rates))
    exited = any(ens.exited.any() for ens in ensembles)

    if exited or kappa <= kappa_min:
        final = np.array([np.linalg.norm(e.final_states, axis=-1).max() for e in ensembles])
        initial = np.array([e.initial_radius for e in ensembles])
        if exited:
            reason = "paths left the domain"
        elif np.all(final <= 0.5 * np.maximum(initial, 1e-300)):
            reason = ("no positive decay rate fit, but final radii shrank: "
                      "horizon likely too short")
        else:
            reason = "no decay observed (stable but not asymptotically)"
        stable = not exited
        return DecayEnvelopeEstimate(gauge=None, kappa=kappa, asymptotic=False,
                                     stable=stable, reason=reason)

    ordered = sorted(ensembles, key=lambda ens: ens.initial_radius)
    radii = np.array([ens.initial_radius for ens in ordered])
    gammas = np.array([np.max(ens.timeline_max_radius * np.exp(kappa * ens.timeline_times))
                       for ens in ordered])
    gauge = ComparisonGauge("KL", *_class_k_knots(radii, gammas), kappa=kappa)
    return DecayEnvelopeEstimate(gauge=gauge, kappa=kappa, asymptotic=True, stable=True,
                                 reason="positive decay rate fits all ensembles")


@dataclass
class OccupationEstimate:
    radii: np.ndarray
    times: np.ndarray          # nondecreasing over shrinking radii
    censored: np.ndarray       # horizon hit while still outside B_{r_i}

    def require_uncensored(self):
        if self.censored.any():
            bad = self.radii[self.censored]
            raise ValueError(
                f"occupation bounds censored at radii {bad.tolist()}: paths never "
                "entered these balls before the horizon; rerun with a longer T"
            )


def measure_occupation_times(ensembles: list[TrajectoryEnsemble], radii) -> OccupationEstimate:
    """Worst sampled Lebesgue time spent outside each ball B_{r_i}.

    Maxima over paths and initial points; estimates are lower bounds on the
    essential-supremum bounds.  Ensembles must have been simulated with
    matching occupation radii.
    """
    radii = np.asarray(radii, dtype=float)
    times = np.zeros(len(radii))
    censored = np.zeros(len(radii), dtype=bool)
    for ens in ensembles:
        if ens.occupation is None or ens.occupation_radii is None:
            raise ValueError("ensemble lacks occupation tracking; pass occupation_radii "
                             "to simulate_ensemble")
        if len(ens.occupation_radii) != len(radii) or np.any(ens.occupation_radii != radii):
            raise ValueError("ensemble occupation radii do not match the request")
        times = np.maximum(times, ens.occupation.max(axis=1))
        censored |= ens.outside_at_horizon.any(axis=1)
    times = np.maximum.accumulate(times)  # nondecreasing as radii shrink
    return OccupationEstimate(radii=radii, times=times, censored=censored)


@dataclass
class DecayGaugeConstruction:
    radii: np.ndarray
    occupation_bounds: np.ndarray
    weights: np.ndarray
    budget: float
    gauge: GaugeFunction


def default_weight_rule(i: int, occupation_time: float) -> float:
    return min(2.0 ** (-i), 2.0 ** (-i) / max(occupation_time, 1.0))


def build_decay_gauge(occupation, radii=None, weight_rule=None) -> DecayGaugeConstruction:
    """Decreasing weights against occupation bounds, summable by construction.

    The default rule l_i = min(2^-i, 2^-i / max(T_i, 1)) gives
    sum_i l_i T_i <= sum_i 2^-i <= 2 for any finite nondecreasing T_i.  The
    gauge ramps from 0 at the innermost radius and is constant beyond the
    outermost one.
    """
    if isinstance(occupation, OccupationEstimate):
        occupation.require_uncensored()
        t = occupation.times
        radii = occupation.radii
    else:
        t = np.asarray(occupation, dtype=float)
        radii = np.asarray(radii, dtype=float)
    if np.any(~np.isfinite(t)):
        raise ValueError("occupation bounds must be finite")
    if np.any(np.diff(t) < 0):
        raise ValueError("occupation bounds must be nondecreasing")
    if np.any(np.diff(radii) >= 0) or np.any(radii <= 0):
        raise ValueError("radii must be positive and strictly decreasing")
    rule = weight_rule or default_weight_rule
    n = len(radii)
    weights = np.array([rule(i, t[i]) for i in range(n)])
    if np.any(weights <= 0) or np.any(np.diff(weights) >= 0):
        raise ValueError("weight rule must produce positive decreasing weights")
    budget = float(np.sum(weights * t))
    inner_weight = rule(n, t[-1])  # one index past the innermost radius
    # gauge value at radius r_i is the next (smaller) weight l_{i+1}
    knots_r = np.concatenate([[0.0], radii[::-1]])
    knots_v = np.concatenate([[0.0], [inner_weight], weights[::-1][:-1]])
    gauge = GaugeFunction.from_knots(knots_r, knots_v, monotone=True)
    return DecayGaugeConstruction(radii=radii, occupation_bounds=t, weights=weights,
                                  budget=budget, gauge=gauge)


@dataclass
class SupermaxingaleResult:
    passed: bool
    worst_excess: float
    worst_path: int
    worst_time: float
    threshold: float


def check_supermaxingale(
    ensemble: TrajectoryEnsemble,
    candidate: CandidateFunction,
    gauge: GaugeFunction | None,
    tol: float,
) -> SupermaxingaleResult:
    """Worst pathwise excess of V(X_t) + int_0^t l over V(x0).

    Uses the statistics tracked online during simulation; the ensemble must
    have been simulated with the same candidate (and gauge).
    """
    if ensemble.supermax_excess is None:
        raise ValueError("ensemble lacks the running V + integral statistic; pass "
                         "candidate= (and gauge=) to simulate_ensemble")
    if ensemble.candidate_ref != candidate or (
        gauge is not None and ensemble.gauge_ref is not None
        and ensemble.gauge_ref != gauge
    ):
        raise ValueError("ensemble was tracked with a different candidate or gauge")
    v0 = float(candidate.value(ensemble.x0))
    worst_idx = int(np.argmax(ensemble.supermax_excess))
    worst = float(ensemble.supermax_excess[worst_idx])
    threshold = tol * (1.0 + v0)
    return SupermaxingaleResult(
        passed=worst <= threshold,
        worst_excess=worst,
        worst_path=worst_idx,
        worst_time=float(ensemble.supermax_excess_time[worst_idx]),
        threshold=threshold,
    )


@dataclass
class ViabilityEstimate:
    escape_fraction: float
    n_escaped: int
    excess_quantiles: dict


def empirical_viability(ensemble: TrajectoryEnsemble, mu: float,
                        tol: float = 0.0) -> ViabilityEstimate:
    """Fraction of paths whose running sup of the candidate exceeds mu (1+tol).

    For an almost-surely viable sublevel set the target is zero; small
    nonzero fractions are attributable to the time discretization (larger
    under the Euler step than under the Milstein step) and are reported with
    their excess distribution.
    """
    if ensemble.sup_candidate is None:
        raise ValueError("ensemble lacks candidate tracking; pass candidate= to "
                         "simulate_ensemble")
    v0 = float(ensemble.candidate_ref.value(ensemble.x0))
    if v0 > mu * (1 + 1e-12):
        raise ValueError(f"initial point has V(x0)={v0} above the level {mu}")
    sup_v = ensemble.sup_candidate
    escaped = sup_v > mu * (1.0 + tol)
    excess = np.maximum(sup_v - mu, 0.0) / mu
    qs = {q: float(np.quantile(excess, q)) for q in (0.5, 0.9, 0.99, 1.0)}
    return ViabilityEstimate(
        escape_fraction=float(escaped.mean()),
        n_escaped=int(escaped.sum()),
        excess_quantiles=qs,
    )
