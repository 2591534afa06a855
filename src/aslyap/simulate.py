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
can use), no generator is built and nothing is drawn.  The post-step radius
is computed once per step.  Its per-start maxima fill the timeline and
decide the box test: the coordinates are flagged (``_inside``) only when a
maximum is NaN or past the largest origin-centred ball in the box
(``_inscribed``).  The gauge reads the radius, and so do the candidate and
the step rows, whose trees read it in place of every subtree that computes
|x| (``_share_radius``).

When a C compiler ``cc`` is on the PATH, the step loop of an ensemble is
also emitted as one C function from the same trees, in the same order of
operations (``_block_kernel``): one call per block steps and tracks every
live path, and the numpy loop steps only a step where a path leaves the
box or its V or l turns NaN.  A batch too small to pay back the 0.1 s
build (``_BUILD_PAYS``) uses a library only if one is built already.  The
bits are the same either way; without a compiler, or where the C loop does
not apply, the numpy loop runs alone.

Which processes step and which draw follows the batch size, by the rule
that ``_simulate_batch`` states.  On `rotational` with candidate and gauge
tracking (dt 1e-3, workers=1, 2-core Xeon) a 10 000-path ensemble of 2000
steps took a median of 0.79 s with the C loop, 25 million path-steps/s,
against 0.97 s with the numpy loop alone (5 runs each).

Paths use counter-based per-path RNG streams keyed by (seed, path index), so
ensembles are bit-identical for any chunk layout, and whether they run alone
or in a batch that steps the ensembles of several start points in one loop,
each path keeping its own start point and stream.  The envelope fits read
ensembles and step nothing.  All pathwise verdicts are statistical
lower bounds on essential suprema: a max over finitely many paths never
proves an almost-sure bound, so results are reported as "consistent with"
the property, never as proof.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import mmap
import os
import pickle
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import expr as ex
from . import fields
from .fields import _coord_header, _csv
from .gauges import ComparisonGauge, GaugeFunction, monotone_envelope
from .model import CandidateFunction, ControlledDiffusion

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
# Fewest paths in a batch that is split into a chunk per usable core, so that every
# core steps and none only draws: the smallest batch that two forked chunks step at
# least 10 % faster than one stepper fed by a producer.  On `rotational` with tracking
# (dt 1e-3, T 2; median of 5, 2-core Xeon) the producer against two chunks take
# 0.172 / 0.263 s at 1500 paths (0.65x), 0.251 / 0.247 s at 2000 (1.02x), 0.283 /
# 0.249 s at 2500 (1.14x), 0.353 / 0.320 s at 3000 (1.10x), 0.446 / 0.369 s at 4000
# (1.21x) and 1.127 / 0.740 s at 10 000 (1.52x, and 1.80 / 1.41 s of CPU).
_SPLIT_PATHS = 2500
# Paths whose increments are drawn into one slab before it is copied, transposed,
# into the block; 128 paths of 256 steps and one noise channel take 256 KiB.
# Each path fills its slab row with one draw call per block, so the slab's size
# changes the bytes held, not the number of calls.
_SLAB_PATHS = 128
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if os.name == "posix" else {}  # Windows takes no flags


def _path_generator(seed: int, path_index: int) -> np.random.Generator:
    key = (int(seed) << 64) + int(path_index)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TrajectoryEnsemble:
    """Batch of simulated paths with online running statistics.

    ``integrator`` names the step that ran: "milstein" or "euler".  Optional
    trackers (candidate, gauge, occupation radii) are bound at simulation
    time; checks that need them verify the binding.
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
    occupation_radii: np.ndarray | None = None
    occupation: np.ndarray | None = None
    outside_at_horizon: np.ndarray | None = None
    path_times: np.ndarray | None = None
    paths: np.ndarray | None = None
    candidate_ref: CandidateFunction | fields.ScalarField | None = None
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
    """One compiled step kernel per control, the integrator, whether to draw,
    and the rows each kernel runs.

    Kernel ``steps[ci](*x, *w, r, dt, out)`` writes the next state of every
    state row into ``out``, reading |x| from ``r``, the radius the loop holds
    (``_share_radius``); it runs without an error-state scope of its own,
    since the step loop enters one per block.  ``rows[ci]`` are its trees,
    which ``_block_kernel`` renders in C.  When no control's rows read an
    increment, nothing is drawn and the kernels take no ``w``.
    """
    trees, integrator = _step_trees(model, control_indices, integrator)
    wvars = [f"w{j+1}" for j in range(model.dim_noise)]
    read = set().union(*(ex.free_vars(t) for rows in trees.values() for t in rows))
    draws = not read.isdisjoint(wvars)
    xvars = [f"x{i+1}" for i in range(model.dim_state)]
    args = xvars + (wvars if draws else []) + ["r", "dt"]
    rows = {ci: [_share_radius(t, xvars) for t in ts] for ci, ts in trees.items()}
    return ({ci: ex._compile_rows(ts, args) for ci, ts in rows.items()}, integrator, draws,
            rows)


def _inscribed(lower, upper):
    """Radius of the largest origin-centred ball inside the box, -inf below 1e-150.

    A coordinate with |x_i| >= 2^-511 (so x_i^2 is normal) has
    |x_i| <= fl(|x|) as ``fields._norm`` computes it, since rounding is
    monotone and fl(sqrt(fl(x_i^2))) = |x_i|; a smaller one is within any
    ball of radius >= 1e-150.  So every state whose computed radius is at
    most this radius is inside the box, and a NaN radius never is.
    """
    ball = min(-np.max(lower), np.min(upper))
    return ball if ball >= 1e-150 else -np.inf


def _share_radius(tree, xvars):
    """``tree`` with every subtree ``ex._norm_tree`` of the ``xvars`` read from
    the variable ``r``.  Below eight coordinates that tree is ``fields._norm``
    bit for bit, since numpy takes ``x ** 2.0`` as ``np.square``, which is
    ``x * x``; from eight on ``_norm`` sums pairwise, and the tree is returned
    as it is."""
    if len(xvars) >= 8:
        return tree
    norm = ex._norm_tree(list(map(ex.Var, xvars)))

    def share(node):
        if node == norm:
            return ex.Var("r")
        if isinstance(node, ex.Neg):
            return ex.Neg(share(node.arg))
        if isinstance(node, ex.Bin):
            return ex.Bin(node.op, share(node.left), share(node.right))
        if isinstance(node, ex.Call):
            return ex.Call(node.fn, tuple(map(share, node.args)))
        return node

    return share(tree)


# A C build (``_block_kernel``) takes 0.10-0.14 s of wall and CPU, and the
# compiled loop saves about 20 ns x (paths + _STEP_PATHS) per step over the
# numpy loop (gcc 12 and numpy 2.4 on a 2-core Xeon, rotational and
# circle_target, 10 to 3000 paths).  So a batch of fewer than _BUILD_PAYS
# steps x (paths + _STEP_PATHS) runs a library built before, if any, and
# starts no build; paths that exit early still pay one.
_STEP_PATHS = 1500
_BUILD_PAYS = 6_500_000


_BLOCK_C = """
#define GAUGE %(gauge_on)d
#define CAND %(cand_on)d
#include <stddef.h>
typedef ptrdiff_t idx;  /* np.intp */
idx aslyap_block(idx _b, idx _e, idx _k, idx _n, double dt, double _ball,
                 const double *_lo, const double *_hi, const double *_w, idx _ws, idx _wm,
                 const idx *_cols, const idx *_grp, double *_x, double *_xn, double *_r,
                 double *_rn, double *_sup, double *_peak, idx _ps, double *_acc, double *_ln,
                 double *_supv, double *_vn, double *_sm, double *_smt, const double *_v0,
                 double *_occ, const double *_occr, idx _nocc)
{
    for (; _b < _e; _b++, _k++) {
        for (idx _j = 0; _j < _n; _j++) {  /* step every path, commit nothing */
            const double r = _r[_j];
#if GAUGE
            {
%(gauge)s
                if (isnan(_l))
                    return _b;
                _ln[_j] = _l;
            }
#endif
%(load)s
            double %(outs)s;
            {
%(step)s
            }
%(store)s
            const double _rr = sqrt(%(norm)s);
            if (!(_rr <= _ball) && !(%(inside)s))
                return _b;  /* the path leaves the box, or is NaN */
            _rn[_j] = _rr;
#if CAND
            {
%(moved)s
%(cand)s
                if (isnan(_v) || (_v == 0.0 && _supv[_j] == 0.0
                                  && signbit(_v) != signbit(_supv[_j])))
                    return _b;
                _vn[_j] = _v;
            }
#endif
        }
        for (idx _j = 0; _j < _n; _j++) {  /* commit the step */
            for (idx _i = 0; _i < _nocc; _i++)
                _occ[_i * _n + _j] += _r[_j] > _occr[_i] ? dt : 0.0;
#if GAUGE
            _acc[_j] += _ln[_j] * dt;
#endif
            for (idx _i = 0; _i < %(dim)d; _i++)
                _x[_i * _n + _j] = _xn[_i * _n + _j];
            const double _rr = _r[_j] = _rn[_j];
            if (_rr > _sup[_j])
                _sup[_j] = _rr;
            double *_p = _peak + _grp[_j] * _ps + _k + 1;
            if (_j == 0 || _grp[_j] != _grp[_j - 1] || _rr > *_p)
                *_p = _rr;
#if CAND
            const double _v = _vn[_j], _ex = _v + _acc[_j] - _v0[_j];
            if (_v > _supv[_j])
                _supv[_j] = _v;
            if (_ex > _sm[_j])
                _smt[_j] = (double)(_k + 1) * dt;
            if (_ex > _sm[_j] || (isnan(_ex) && !isnan(_sm[_j])))
                _sm[_j] = _ex;
#endif
        }
    }
    return _b;
}
"""


def _block_kernel(model, rows, draws, cand, gauge, build):
    """The step loop of one ensemble compiled to C, or None where numpy steps it.

    ``rows`` are the step trees of the one control in use (``_compile_steps``),
    and ``build`` says whether to build a library that is not built yet.
    ``kernel(b, e, k, n, dt, ball, lo, hi, w, ws, wm, cols, grp, x, xn, r,
    rn, sup, peak, ps, acc, ln, supv, vn, sm, smt, v0, occ, occr, nocc)``
    runs block steps b..e-1 (step k first) of the ``n`` live paths, with the
    trees, sums and trackers of the numpy loop in ``_simulate_chunk``, and
    returns the first step it did not commit, e if none.  A step is
    committed when every path stays in the box ``lo``..``hi`` (tested per
    coordinate only past the radius ``ball``; NaN never stays) and no gauge
    or candidate value is NaN or a zero of the other sign than the path's
    sup of V; it then updates, per path, the occupation times and ∫l from
    the pre-step radius, the state, radius, sup radius, the start group's
    timeline peak (``peak[grp * ps + k + 1]``), sup V, the excess and the
    supermax with its time.  So no NaN that the compiled trees compute is
    ever committed.  The step it returns is left as it was, for the numpy
    loop to step, exits and all.  ``w`` is read at ``w[b * ws + j * wm +
    col]``, ``cols`` NULL meaning the live paths in order; ``xn``, ``rn``,
    ``ln`` and ``vn`` are scratch.

    None with a value-field candidate, a knot gauge, eight or more
    coordinates, a tree ``expr._c_sources`` does not render, or no compiled
    library (``expr._c_library``).
    """
    n = model.dim_state
    if n >= 8 or not isinstance(cand, (CandidateFunction, type(None))) or (
            gauge is not None and gauge.expression is None):
        return None
    xvars = [f"x{i+1}" for i in range(n)]
    wvars = [f"w{j+1}" for j in range(model.dim_noise)] if draws else []
    outs = [f"_o{i}" for i in range(n)]
    step = ex._c_sources(rows, outs, [*xvars, *wvars, "r", "dt"])
    l_row = v_row = []
    if gauge is not None:
        l_row = ex._c_sources([gauge.expression], ["const double _l"], ["r"])
    if cand is not None:
        v_row = ex._c_sources([_share_radius(cand.expression, xvars)], ["const double _v"],
                              [*xvars, "r"])
    if None in (step, l_row, v_row):
        return None
    source = ex._C_PRELUDE + _BLOCK_C % {
        "gauge_on": gauge is not None, "cand_on": cand is not None, "dim": n,
        "gauge": "\n".join(l_row), "cand": "\n".join(v_row), "step": "\n".join(step),
        "load": "\n".join([f"const double {v} = _x[{i} * _n + _j];" for i, v in enumerate(xvars)]
                          + [f"const double {v} = _w[_b * _ws + {j} * _wm + "
                             f"(_cols ? _cols[_j] : _j)];" for j, v in enumerate(wvars)]),
        "outs": ", ".join(outs),
        "store": "\n".join(f"_xn[{i} * _n + _j] = {o};" for i, o in enumerate(outs)),
        "norm": " + ".join(f"_sq({o})" for o in outs),  # left to right, as fields._norm
        "inside": " && ".join(f"{o} >= _lo[{i}] && {o} <= _hi[{i}]"  # as _inside
                              for i, o in enumerate(outs)),
        "moved": "const double " + ", ".join(f"{v} = {o}" for v, o in zip(xvars, outs))
                 + ", r = _rr;",
    }
    lib = ex._c_library(source, build)
    if lib is None:
        return None
    import ctypes

    kernel = lib.aslyap_block
    i, f, p = ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p
    kernel.argtypes = [i] * 4 + [f] * 2 + [p] * 3 + [i] * 2 + [p] * 8 + [i] + [p] * 9 + [i]
    kernel.restype = i
    return kernel


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
    and the slab is scaled into ``out`` transposed, so the block is held
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
        np.multiply(rows.transpose(1, 2, 0), root_dt, out=out[..., lo:lo + len(rows)])
    return out


_READY = b"\0"  # a slot is drawn; a pickled outcome starts with another byte


@contextlib.contextmanager
def _apart():
    """Pin the calling process to one of its CPUs, yield the others (None if it has one),
    and give it all of them back on exit.

    A producer pins itself to the others.  Unpinned, a pipe's wake-up can run
    the woken process on the waker's CPU while the waker runs on: at 500
    paths each 1-byte token the step loop wrote took 2.2 ms, and the producer
    lost to inline draws (2-vCPU Xeon VM).
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        yield None
        return
    os.sched_setaffinity(0, cpus[:1])
    try:
        yield cpus[1:]
    finally:
        os.sched_setaffinity(0, cpus)


@contextlib.contextmanager
def _increments(draws, spare, seeds, n_paths, path_lo, path_hi, m, increment_mode, root_dt,
                 n_steps):
    """The increments of batch paths path_lo..path_hi-1: yields (block steps, ``take``).

    ``take(block, index)`` gives the next ``block`` steps, shape (block, m,
    columns), and the live paths' ``index`` columns in them, None when they
    are all of them in order; without ``draws``, (None, None).  Inline,
    ``_draw`` fills a block of ``_BLOCK_STEPS`` steps with the live paths'
    streams.  With ``spare`` a forked producer builds the generators and
    draws every path into two shared slots of ``max(1, _BLOCK_STEPS // 2)``
    steps, the bytes of one inline block; a token on one pipe hands a slot
    over, one on the other frees it.  Each stream is drawn in order either
    way, so no bit moves.  The producer's exception or death is raised from
    ``take``, and it is killed and reaped when the context exits.
    """
    n = path_hi - path_lo
    block_steps = min(max(1, _BLOCK_STEPS // 2) if spare else _BLOCK_STEPS, n_steps)
    if not draws:
        yield block_steps, lambda block, index: (None, None)
        return
    slots = 2 if spare else 1
    # its own mapping, unmapped when it goes: in the heap, huge-page advice spread past it
    mapping = mmap.mmap(-1, 8 * slots * block_steps * m * n,
                        **({"flags": mmap.MAP_SHARED} if spare else _PRIVATE))
    with contextlib.suppress(AttributeError, OSError):  # no huge pages on this system
        mapping.madvise(mmap.MADV_HUGEPAGE)
    incs = np.frombuffer(mapping).reshape(slots, block_steps, m, n)
    slab = np.empty((min(_SLAB_PATHS, n), block_steps, m))

    def generators():
        return [_path_generator(seeds[p // n_paths], p % n_paths) for p in range(path_lo, path_hi)]

    if not spare:
        gens = generators()

        def take(block, index):
            live = gens if len(index) == n else [gens[i] for i in index]
            return _draw(live, increment_mode, root_dt, slab, incs[0, :block, :, :len(index)]), None

        yield block_steps, take
        return

    free_read, free_write = os.pipe()
    children = {}
    try:
        with _apart() as theirs:

            def produce(ready):
                if theirs:
                    os.sched_setaffinity(0, theirs)
                gens = generators()
                for k, lo in enumerate(range(0, n_steps, block_steps)):
                    if k >= 2 and not os.read(free_read, 1):
                        return  # the caller is gone
                    _draw(gens, increment_mode, root_dt, slab,
                          incs[k % 2, :min(block_steps, n_steps - lo)])
                    os.write(ready, _READY)

            try:
                pid, children[pid] = _fork(produce, free_write)
            finally:
                os.close(free_read)
            blocks = itertools.count()

            def take(block, index):
                k = next(blocks)
                if children[pid].peek(1)[:1] != _READY:
                    _outcome(children, pid,
                             f"drawing the increments of paths {path_lo}..{path_hi - 1}")
                children[pid].read(1)
                if k:  # the caller is done with the slot it stepped last
                    with contextlib.suppress(BrokenPipeError):  # a dead producer shows next read
                        os.write(free_write, _READY)
                return incs[k % 2, :block], None if len(index) == n else index

            yield block_steps, take
    finally:
        os.close(free_write)
        _kill(children)


def _group_starts(groups):
    """The groups present in the sorted ``groups`` and where each one starts."""
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    return groups[starts], starts


def _simulate_chunk(model, x0s, dt, n_steps, path_lo, path_hi, seeds, n_paths,
                    increment_mode, control_index, feedback, steps, draws, cand, gauge,
                    occ_radii, thin, kernel, spare):
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
    scope per block of steps; states and box flags go into buffers reused
    from step to step.  The blocks come from ``_increments``: drawn inline,
    or by a forked producer when ``spare`` says a usable core is left over.
    A block has the source's length (fewer steps in the last one and when
    the horizon is shorter), in a batch as in a single ensemble; each path's
    stream is drawn in order, so neither the source nor the block length
    changes a bit.  The outputs equal the masked loop that steps every path
    bit for bit.  ``feedback`` is None when one control serves every path
    (``control_index``).  ``kernel``, when not None, is that loop compiled
    (``_block_kernel``): one call steps the block up to its end, or to the
    next stored sample with ``thin``, and the step it does not commit (a
    path that leaves the box, or a NaN V or l) is stepped here.
    """
    n = path_hi - path_lo
    dim = model.dim_state
    m = model.dim_noise
    root_dt = np.sqrt(dt)
    group = np.arange(path_lo, path_hi) // n_paths
    # clamped to the finite range, one comparison per side also rejects inf and NaN
    big = np.finfo(float).max
    lower = np.broadcast_to(np.maximum(model.domain_lower, -big), (dim,))
    upper = np.broadcast_to(np.minimum(model.domain_upper, big), (dim,))
    ball = _inscribed(lower, upper)

    x = np.ascontiguousarray(x0s[group].T)
    radius = fields._norm(x.T)
    timeline = np.zeros((len(x0s), n_steps + 1))
    present, starts = _group_starts(group)
    timeline[present, 0] = np.maximum.reduceat(radius, starts)
    live = SimpleNamespace(x=x, radius=radius, sup_radius=radius.copy())
    # one-row kernels, run in the step's error-state scope
    if isinstance(cand, CandidateFunction):  # the tree reads the radius the loop holds
        v_row = ex._compile_rows([_share_radius(cand.expression, cand._xvars)],
                                 [*cand._xvars, "r"])
        value_of = lambda x, r: v_row(*x, r, np.empty((1, len(r))))[0]  # noqa: E731
    elif cand is not None:
        value_of = lambda x, r: cand.value(x.T)  # noqa: E731
    if gauge is not None and gauge.expression is not None:
        l_row = ex._compile_rows([gauge.expression], ["r"])
        gauge = lambda r: l_row(r, np.empty((1, len(r))))[0]  # noqa: E731
    if cand is not None:
        v0s = np.array([cand.value(x0) for x0 in x0s])
        v0 = v0s[group]
        live.sup_v, live.supermax, live.supermax_t = v0.copy(), np.zeros(n), np.zeros(n)
    if gauge is not None or cand is not None:
        live.acc_l = np.zeros(n)
    if occ_radii is not None:
        occ_col = occ_radii[:, None]
        live.occupation = np.zeros((len(occ_radii), n))
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
    w = ()  # the increments of one step, as rows (m, paths), when drawn
    grp = group
    if cand is not None and np.isnan(v0s).any():
        kernel = None  # every step would be the numpy loop's
    if kernel is not None:
        scratch = np.empty((3, n))  # post-step radii, gauge and candidate values
        occ_c = np.ascontiguousarray(occ_radii) if occ_radii is not None else None
        box = np.array([lower, upper])

        def address(a):
            return None if a is None else a.ctypes.data

        def pointers(incs, cols):
            """The kernel's arguments after the step range, for the live arrays as they are."""
            ws, wm = (s // 8 for s in incs.strides[:2]) if draws else (0, 0)
            get = vars(live).get
            return (len(index), dt, ball, address(box[0]), address(box[1]),
                    address(incs if draws else None), ws, wm, address(cols), address(grp),
                    address(live.x), address(xn), address(live.radius), address(scratch[0]),
                    address(live.sup_radius), address(timeline), n_steps + 1,
                    address(get("acc_l")), address(scratch[1] if gauge is not None else None),
                    address(get("sup_v")), address(scratch[2]), address(get("supermax")),
                    address(get("supermax_t")), address(v0 if cand is not None else None),
                    address(get("occupation")), address(occ_c),
                    0 if occ_c is None else len(occ_c))
    with _increments(draws, spare, seeds, n_paths, path_lo, path_hi, m, increment_mode, root_dt,
                     n_steps) as (block_steps, take):
        step_index = 0
        while step_index < n_steps and len(index):
            block = min(block_steps, n_steps - step_index)
            # cols: the block's columns of the live paths, None while they are all of them
            incs, cols = take(block, index)
            with np.errstate(all="ignore"):
                b = 0
                args = None  # the kernel's pointers, taken again after a numpy step
                while b < block:
                    if kernel is not None:
                        end = block if not thin else min(block, b + thin - (step_index + b) % thin)
                        args = args or pointers(incs, cols)
                        done = kernel(b, end, step_index + b, *args)
                        if thin and done > b and (step_index + done) % thin == 0:
                            stored[sample_row, index] = live.x.T
                            sample_row += 1
                        b = done
                        if b == end:
                            continue
                    k = step_index + b
                    args = None
                    if draws:
                        w = incs[b] if cols is None else incs[b].take(cols, axis=-1)
                    x = live.x
                    # pre-step state carries the running integrals over [t_k, t_k + dt)
                    if gauge is not None:
                        live.acc_l += gauge(live.radius) * dt
                    if occ_radii is not None:
                        live.occupation += dt * (live.radius > occ_col)

                    if feedback is None:
                        steps[control_index](*x, *w, live.radius, dt, xn)
                    else:
                        indices = feedback.lookup(x.T)
                        for ci in np.unique(indices):
                            mask = indices == ci
                            xm = x.compress(mask, axis=-1)
                            wm = w.compress(mask, axis=-1) if draws else ()
                            xn[:, mask] = steps[ci](*xm, *wm, live.radius.compress(mask), dt,
                                                    np.empty_like(xm))

                    radius = fields._norm(xn.T)
                    peaks = np.maximum.reduceat(radius, starts)
                    # within the inscribed ball every live path is inside the box
                    if (not peaks.max() <= ball
                            and not _inside(xn, lower, upper, ok, flag).all()):
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
                        cols = kept if cols is None else cols[kept]
                        xn = xn.take(kept, axis=-1)
                        x, ok, flag = buffers(len(index))
                        if not len(index):
                            break
                        radius = radius.take(kept)
                        grp = group[index]
                        present, starts = _group_starts(grp)
                        peaks = np.maximum.reduceat(radius, starts)
                        if cand is not None:
                            v0 = v0s[grp]
                    live.x, xn = xn, x  # the pre-step buffer takes the next step

                    live.radius = radius
                    np.maximum(live.sup_radius, radius, out=live.sup_radius)
                    timeline[present, k + 1] = peaks
                    if cand is not None:
                        vx = value_of(live.x, radius)
                        np.maximum(live.sup_v, vx, out=live.sup_v)
                        excess = vx + live.acc_l - v0
                        live.supermax_t[excess > live.supermax] = (k + 1) * dt
                        np.maximum(live.supermax, excess, out=live.supermax)
                    if thin and (k + 1) % thin == 0:
                        stored[sample_row, index] = live.x.T
                        sample_row += 1
                    b += 1
            step_index += block

    for key, arr in vars(live).items():
        final[key][..., index] = arr
    final["x"] = final["x"].T.copy()  # final states are path-major
    out = {**final, "alive": alive, "exit_times": exit_times, "timeline": timeline}
    if thin:
        out["stored"] = stored
    return out


def _fork(work, *close):
    """Fork a child that closes ``close``, pickles the outcome of ``work(fd)`` down the
    pipe ``fd`` and exits; return its pid and the read end of the pipe, as a file.

    The outcome is (True, result) or (False, exception); an exception that
    does not survive a pickle round trip is sent as a ``RuntimeError`` with
    its type and message.  The child always leaves through ``os._exit``, so
    it runs no atexit handler and flushes no inherited buffer.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, os.fdopen(read_end, "rb")
    code = 1
    try:
        for fd in (read_end, *close):
            os.close(fd)
        try:
            out = (True, work(write_end))
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


def _outcome(children, pid, what):
    """The result the child ``pid`` pickled down ``children[pid]``, once reaped; its
    exception is raised again, and ``RuntimeError`` names ``what`` if it died without one."""
    with children[pid] as pipe:
        try:
            ok, out = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            ok = None
    status = os.waitpid(pid, 0)[1]
    del children[pid]
    if ok is None:
        raise RuntimeError(f"the process {what} died without a result (wait status {status})")
    if not ok:
        raise out
    return out


def _kill(children):
    """Close the pipes of the children left in ``children``, kill and reap them."""
    import signal

    for pid, pipe in children.items():
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _run_chunks(args) -> list[dict]:
    """``[_simulate_chunk(*a, spare) for a in args]`` in the processes that
    ``_simulate_batch`` lays out.

    With P stepping processes, forked child k steps chunks k, k + P, ... and
    pickles their results down a pipe, while the calling process steps
    chunks 0, P, 2P, ...; children inherit the compiled kernels, which do
    not pickle.  The pipes are read on the calling thread in chunk order and
    every child is reaped, so the list is the serial one bit for bit.  A
    child's exception is raised again here; a child that dies without a
    result raises ``RuntimeError``.  If anything raises, the children still
    running are killed and reaped.
    """
    cpus = fields._cpus()
    procs = min(len(args), cpus)
    forks = hasattr(os, "fork") and threading.active_count() == 1
    spare = forks and cpus > procs
    if procs < 2 or not forks:
        return [_simulate_chunk(*a, spare) for a in args]
    children = {}  # pid -> the read end of its pipe, in the order forked
    try:
        for k in range(1, procs):
            pid, children[pid] = _fork(
                lambda _, own=args[k::procs]: [_simulate_chunk(*a, False) for a in own])
        results = [None] * len(args)
        results[::procs] = [_simulate_chunk(*a, spare) for a in args[::procs]]
        for k, pid in enumerate(list(children), 1):
            chunks = ", ".join(map(str, range(k, len(args), procs)))
            results[k::procs] = _outcome(children, pid, f"stepping ensemble chunk(s) {chunks}")
        return results
    finally:
        _kill(children)


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


def _simulate_batch(model, x0s, dt, T, n_paths, seeds, feedback=None,
                    increment_mode="gaussian", candidate=None, gauge=None,
                    occupation_radii=None, thin=0, workers=1,
                    integrator="milstein") -> list[TrajectoryEnsemble]:
    """One step loop for the ensembles from each of ``x0s``; one ensemble per start.

    Ensemble g equals ``simulate_ensemble(model, x0s[g], ..., seed=seeds[g])``
    bit for bit; ``simulate_ensemble`` documents the keywords it forwards here.
    Each seed is an integer in [0, 2**64), ``n_paths`` and ``workers``
    integers >= 1 and ``thin`` an integer >= 0.

    The process layout changes no bit.  The paths are cut into ``workers``
    chunks, at most one per ``_MIN_CHUNK_PATHS`` paths of one ensemble; a
    batch of at least ``_SPLIT_PATHS`` paths gets at least one per usable
    core, at most one per ``_MIN_CHUNK_PATHS`` of its paths.  With two or more
    chunks and cores, ``os.fork`` and no other thread alive, min(chunks,
    cores) processes step them, the calling one and forked children
    (``_run_chunks``); otherwise the calling thread steps them in order.
    Each stepping process draws its own increments, except where forks are
    allowed and a usable core is left over: the calling process's chunks
    then draw in a forked producer (``_increments``).  Each step's box test
    reads the radius first: ``_inside`` runs only when a path is NaN or past
    the box's inscribed radius.  With one control in use, the blocks are
    stepped by the compiled loop (``_block_kernel``) where it applies and a
    library is built, or the batch pays for a build (``_BUILD_PAYS``); the
    bits are the numpy loop's either way.
    """
    whole = (int, np.integer)
    for name, value, need, ok in (
        ("dt", dt, "> 0", dt > 0), ("T", T, "> 0", T > 0),
        ("n_paths", n_paths, "an integer >= 1", isinstance(n_paths, whole) and n_paths >= 1),
        ("workers", workers, "an integer >= 1", isinstance(workers, whole) and workers >= 1),
        ("thin", thin, "an integer >= 0", isinstance(thin, whole) and thin >= 0),
        *(("seed", seed, "an integer in [0, 2**64)",
           isinstance(seed, whole) and 0 <= int(seed) < 2**64) for seed in seeds),
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
    if model.n_controls == 1 or feedback is None:
        used_controls = [0]
    else:
        used_controls = [int(ci) for ci in np.unique(feedback.control_indices)]
    control_index = used_controls[0]
    if len(used_controls) == 1:  # a feedback map with one control needs no lookup
        feedback = None
    if increment_mode != "gaussian":
        integrator = "euler"
    steps, integrator, draws, rows = _compile_steps(model, used_controls, integrator)
    # built before any chunk forks, so that every stepping process has it
    pays = n_steps * (len(x0s) * n_paths + _STEP_PATHS) >= _BUILD_PAYS
    kernel = (_block_kernel(model, rows[control_index], draws, candidate, gauge, pays)
              if feedback is None else None)
    occ = np.asarray(occupation_radii, dtype=float) if occupation_radii is not None else None

    # workers chunks by the size of one ensemble, as when each ensemble ran alone
    n_chunks = max(1, min(workers, n_paths // _MIN_CHUNK_PATHS))
    if len(x0s) * n_paths >= _SPLIT_PATHS:
        n_chunks = max(n_chunks, min(fields._cpus(), len(x0s) * n_paths // _MIN_CHUNK_PATHS))
    chunk_bounds = np.linspace(0, len(x0s) * n_paths, n_chunks + 1).astype(int)
    points = np.array([np.atleast_1d(x0) for x0 in x0s])
    args = [
        (model, points, dt, n_steps, int(lo), int(hi), seeds, n_paths, increment_mode,
         control_index, feedback, steps, draws, candidate, gauge, occ, thin, kernel)
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
    ``feedback=None`` (a ``FeedbackMap``; without one the model's first
    control serves every path), ``increment_mode="gaussian"`` or
    "signed-bernoulli", ``candidate=None`` (a candidate or a value field),
    ``gauge=None``, ``occupation_radii=None``, ``thin=0``, ``workers=1``
    (the least number of chunks, see ``_simulate_batch``) and
    ``integrator="milstein"``.

    ``integrator`` is "milstein" (the default) or "euler".  The Milstein step
    runs for Gaussian increments when the noise of every control the
    simulation can use is commutative; otherwise the Euler-Maruyama step
    runs.  The ensemble's ``integrator`` field records which one did.
    Paths leaving the model's domain box are flagged exited and frozen
    (statistics truncated at exit); coordinates are compared with the box
    only when a radius is past the box's inscribed radius.  ``thin`` > 0, a
    whole number, stores every thin-th state for plotting; running
    statistics always use every step.
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


def _sorted_by_radius(ensembles):
    """The ensembles sorted by initial radius, and the index of the first
    started off the origin; ValueError if none is."""
    if len(ensembles) == 0:
        raise ValueError("no ensemble to fit")
    ensembles = sorted(ensembles, key=lambda ens: ens.initial_radius)
    first = next((i for i, ens in enumerate(ensembles) if ens.initial_radius > 0.0), None)
    if first is None:
        raise ValueError(f"need an ensemble started off the origin to fit an envelope; "
                         f"all {len(ensembles)} start at |x0|=0")
    return ensembles, first


def estimate_stabilizability_gauge(ensembles: list[TrajectoryEnsemble]) -> StabilizabilityEstimate:
    """Class-K envelope of the worst pathwise sup-radius over initial radii.

    The envelope is the least monotone majorant of r -> max over paths of
    sup_t |X_t|, over the ensembles started off the origin, sorted by
    initial radius; an ensemble started at the origin only needs its worst
    sup to be 0.  The verdict is "consistent with" the pathwise bound; any
    exited path makes it negative, reported for the smallest radius with an
    exit.
    """
    ensembles, first = _sorted_by_radius(ensembles)
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
    gauge = ComparisonGauge("K", *_class_k_knots(radii[first:], worst[first:]))
    if np.any(worst[:first] != 0.0):
        consistent, reason = False, (f"sup-radius {worst[:first].max():.4g} from |x0|=0: "
                                     "paths leave the equilibrium")
    elif worst[first] <= 2.0 * radii[first]:
        consistent, reason = True, "all paths bounded; envelope monotone and small near 0"
    else:
        consistent, reason = False, (f"sup-radius {worst[first]:.4g} from "
                                     f"|x0|={radii[first]:.4g} does not shrink with the "
                                     "initial radius")
    return StabilizabilityEstimate(gauge=gauge, radii=radii, worst_sup=worst,
                                   consistent=consistent, reason=reason)


@dataclass
class DecayEnvelopeEstimate:
    gauge: ComparisonGauge | None
    kappa: float
    asymptotic: bool
    stable: bool
    reason: str


def estimate_decay_envelope(ensembles: list[TrajectoryEnsemble]) -> DecayEnvelopeEstimate:
    """Fit the least separable envelope gamma(r) exp(-kappa t) over ensembles.

    kappa is the most conservative fitted decay rate across the initial
    radii off the origin, and a kappa of at most 1e-4 counts as no decay;
    gamma is then the least radius gauge making the envelope dominate every
    sampled max-radius curve.  An ensemble started at the origin only needs
    its worst sup to be 0.
    """
    ensembles, first = _sorted_by_radius(ensembles)
    origin, ensembles = ensembles[:first], ensembles[first:]
    rates = []
    for ens in ensembles:
        m = ens.timeline_max_radius
        t = ens.timeline_times
        mask = m > max(1e-10, 1e-6 * m[0])  # the curve above its round-off floor
        if mask.sum() < 2:
            rates.append(0.0)
            continue
        slope = np.polyfit(t[mask], np.log(m[mask]), 1)[0]
        rates.append(-slope)
    kappa = float(min(rates))
    exited = any(ens.exited.any() for ens in origin + ensembles)
    left = [ens.sup_radius.max() for ens in origin if ens.sup_radius.max() != 0.0]

    if exited or left or kappa <= 1e-4:
        final = np.array([np.linalg.norm(e.final_states, axis=-1).max() for e in ensembles])
        initial = np.array([e.initial_radius for e in ensembles])
        if exited:
            reason = "paths left the domain"
        elif left:
            reason = f"sup-radius {max(left):.4g} from |x0|=0: paths leave the equilibrium"
        elif np.all(final <= 0.5 * initial):
            reason = ("no positive decay rate fit, but final radii shrank: "
                      "horizon likely too short")
        else:
            reason = "no decay observed (stable but not asymptotically)"
        return DecayEnvelopeEstimate(gauge=None, kappa=kappa, asymptotic=False,
                                     stable=not (exited or left), reason=reason)

    radii = np.array([ens.initial_radius for ens in ensembles])
    gammas = np.array([np.max(ens.timeline_max_radius * np.exp(kappa * ens.timeline_times))
                       for ens in ensembles])
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


def build_decay_gauge(occupation: OccupationEstimate) -> DecayGaugeConstruction:
    """Decreasing weights against uncensored occupation bounds, summable by
    construction.

    The weights l_i = 2^-i / max(T_i, 1) give sum_i l_i T_i <= sum_i 2^-i <= 2
    for any finite nondecreasing T_i.  The gauge ramps from 0 at the
    innermost radius and is constant beyond the outermost one.
    """
    occupation.require_uncensored()
    t = np.asarray(occupation.times, dtype=float)
    radii = np.asarray(occupation.radii, dtype=float)
    if np.any(~np.isfinite(t)):
        raise ValueError("occupation bounds must be finite")
    if np.any(np.diff(t) < 0):
        raise ValueError("occupation bounds must be nondecreasing")
    if np.any(np.diff(radii) >= 0) or np.any(radii <= 0):
        raise ValueError("radii must be positive and strictly decreasing")
    n = len(radii)
    scale = np.maximum(t, 1.0)
    weights = 2.0 ** -np.arange(n) / scale
    if np.any(weights <= 0) or np.any(np.diff(weights) >= 0):
        raise ValueError(f"weights 2^-i / max(T_i, 1) must be positive and decreasing, but "
                         f"{n} radii against bounds up to {t[-1]:.4g} underflow")
    budget = float(np.sum(weights * t))
    inner_weight = 2.0 ** -n / scale[-1]  # one index past the innermost radius
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
    candidate: CandidateFunction | fields.ScalarField,
    gauge: GaugeFunction | None,
    tol: float,
) -> SupermaxingaleResult:
    """Worst pathwise excess of V(X_t) + int_0^t l over V(x0).

    V is a candidate or a value field.  Uses the statistics tracked online
    during simulation; the ensemble must have been simulated with the same
    candidate and gauge, where a zero gauge counts as none.
    """
    if ensemble.supermax_excess is None:
        raise ValueError("ensemble lacks the running V + integral statistic; pass "
                         "candidate= (and gauge=) to simulate_ensemble")
    tracked, checked = (None if g is None or g.is_zero() else g
                        for g in (ensemble.gauge_ref, gauge))
    if ensemble.candidate_ref != candidate or tracked != checked:
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
    their excess distribution.  ``mu`` must be positive and finite, ``tol``
    nonnegative and finite.
    """
    if not 0 < mu < np.inf:  # also rejects NaN, which no path would exceed
        raise ValueError(f"need mu positive and finite, got {mu!r}")
    if not 0 <= tol < np.inf:
        raise ValueError(f"need tol nonnegative and finite, got {tol!r}")
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
