import ast
import dataclasses
import functools
import inspect
import itertools
import os
import re
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aslyap as al
from aslyap import expr as ex
from aslyap import fields, simulate
from aslyap.simulate import _path_generator, build_decay_gauge


def _no_children_left():
    """Fail if this process has a child, still running or exited and unreaped."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process was left " + ("running" if pid == 0 else
                                               f"unreaped: pid {pid}, wait status {status}"))


@pytest.fixture(autouse=True)
def _children_reaped():
    """Every test reaps the chunk children and producers it forks."""
    yield
    _no_children_left()


def _inline(dynamics, n=1, m=1, candidate="", domain=None):
    lower, upper = domain or ("-1" + ", -1" * (n - 1), "1" + ", 1" * (n - 1))
    return al.parse_model(
        f"[dimensions]\nstate = {n}\nnoise = {m}\n[controls]\nhold = 0.0\n"
        f"[dynamics]\n{dynamics}\n"
        + (f"[candidate]\n{candidate}\n" if candidate else "")
        + f"[domain]\nlower = {lower}\nupper = {upper}\n"
    )


# -------------------------------------------------------------- determinism

def test_same_seed_bit_identical(rotational):
    kw = dict(x0=[0.5, 0.0], dt=1e-3, T=1.0, n_paths=100, seed=99,
              candidate=rotational.candidate, gauge=rotational.gauge)
    a = al.simulate_ensemble(rotational.model, **kw)
    b = al.simulate_ensemble(rotational.model, **kw)
    assert np.array_equal(a.sup_radius, b.sup_radius)
    assert np.array_equal(a.final_states, b.final_states)
    assert np.array_equal(a.supermax_excess, b.supermax_excess)
    assert a.to_csv() == b.to_csv()


def test_workers_do_not_change_results(monkeypatch, rotational):
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)  # 128 paths still split
    kw = dict(x0=[0.5, 0.0], dt=1e-3, T=0.5, n_paths=128, seed=5)
    a = al.simulate_ensemble(rotational.model, **kw, workers=1)
    b = al.simulate_ensemble(rotational.model, **kw, workers=3)
    assert np.array_equal(a.final_states, b.final_states)
    assert np.array_equal(a.timeline_max_radius, b.timeline_max_radius)


def test_single_path_runs(linear1d):
    ens = al.simulate_ensemble(linear1d.model, [0.4], dt=1e-3, T=1.0, n_paths=1, seed=1)
    assert ens.final_states.shape == (1, 1)


# ----------------------------------------------------- reference step loop

def _reference_step(rows, x, w, dt):
    args = [*x.T, *w.T, dt]
    return np.stack([fn(*args) for fn in rows], axis=-1)


def _reference_steps(model, control_indices, integrator):
    """Stands in for ``simulate._compile_steps``: the tree walk of each row of the
    same trees instead of one kernel per control; the masked loop always draws."""
    trees, integrator = simulate._step_trees(model, control_indices, integrator)
    args = ([f"x{i+1}" for i in range(model.dim_state)]
            + [f"w{j+1}" for j in range(model.dim_noise)] + ["dt"])

    def walk(tree):
        return lambda *values: ex.evaluate(tree, dict(zip(args, values)))

    rows = {ci: [walk(t) for t in ts] for ci, ts in trees.items()}
    return rows, integrator, True


def _reference_ensemble(monkeypatch, model, **kw):
    with monkeypatch.context() as mp:
        mp.setattr(simulate, "_compile_steps", _reference_steps)
        mp.setattr(simulate, "_simulate_chunk", _reference_chunk)
        return al.simulate_ensemble(model, **{**kw, "workers": 1})


def _assert_same_arrays(new, ref):
    for field in _ENSEMBLE_ARRAYS:
        a, b = getattr(new, field), getattr(ref, field)
        if b is None:
            assert a is None, field
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def _reference_chunk(model, x0s, dt, n_steps, path_lo, path_hi, seeds, n_paths,
                     increment_mode, control_index, feedback, steps, draws, cand, gauge,
                     occ_radii, thin, spare):
    """The masked loop for one ensemble: every path is stepped every step, exited or not;
    it draws inline whether or not a core is ``spare``."""
    (x0,), (seed,) = x0s, seeds
    # the compiled rows set no error state of their own
    with np.errstate(all="ignore"):
        n = path_hi - path_lo
        dim = model.dim_state
        m = model.dim_noise
        root_dt = np.sqrt(dt)
        gens = [_path_generator(seed, i) for i in range(path_lo, path_hi)]

        x = np.tile(np.asarray(x0, dtype=float), (n, 1))
        alive = np.ones(n, dtype=bool)
        exit_times = np.full(n, np.inf)
        radius = np.linalg.norm(x, axis=-1)
        sup_radius = radius.copy()
        timeline = np.zeros(n_steps + 1)
        timeline[0] = radius.max()

        v0 = cand.value(x0) if cand is not None else None
        sup_v = np.full(n, v0) if cand is not None else None
        acc_l = np.zeros(n) if gauge is not None or cand is not None else None
        supermax = np.zeros(n) if cand is not None else None
        supermax_t = np.zeros(n) if cand is not None else None
        occupation = np.zeros((len(occ_radii), n)) if occ_radii is not None else None
        if thin:
            n_samples = n_steps // thin + 1
            stored = np.empty((n_samples, n, dim))
            stored[0] = x
            sample_row = 1

        single = model.n_controls == 1
        # the whole horizon in one draw per path, whatever the block length
        if increment_mode == "gaussian":
            incs = np.stack([g.standard_normal((n_steps, m)) for g in gens], axis=1) * root_dt
        else:  # signed-bernoulli
            incs = np.stack(
                [g.integers(0, 2, size=(n_steps, m)) * 2.0 - 1.0 for g in gens], axis=1
            ) * root_dt
        for k in range(n_steps):
            w = incs[k]
            if acc_l is not None and gauge is not None:
                acc_l[alive] += gauge.of_points(x[alive]) * dt
            if occupation is not None:
                out = radius[None, :] > np.asarray(occ_radii)[:, None]
                occupation[:, alive] += dt * out[:, alive]

            if single or feedback is None:
                xn = _reference_step(steps[control_index], x, w, dt)
            else:
                indices = feedback.lookup(x)
                xn = np.empty_like(x)
                for ci in np.unique(indices):
                    mask = indices == ci
                    xn[mask] = _reference_step(steps[ci], x[mask], w[mask], dt)

            inside = np.all(np.isfinite(xn), axis=-1)
            inside &= np.all((xn >= model.domain_lower) & (xn <= model.domain_upper), axis=-1)
            newly_exited = alive & ~inside
            exit_times[newly_exited] = (k + 1) * dt
            x = np.where((alive & inside)[:, None], xn, x)
            alive = alive & inside

            radius = np.linalg.norm(x, axis=-1)
            np.maximum(sup_radius, np.where(alive, radius, -np.inf), out=sup_radius)
            timeline[k + 1] = radius[alive].max() if alive.any() else 0.0
            if cand is not None:
                vx = cand.value(x)
                np.maximum(sup_v, np.where(alive, vx, -np.inf), out=sup_v)
                excess = vx + (acc_l if gauge is not None else 0.0) - v0
                better = alive & (excess > supermax)
                supermax_t[better] = (k + 1) * dt
                np.maximum(supermax, np.where(alive, excess, -np.inf), out=supermax)
            if thin and (k + 1) % thin == 0:
                stored[sample_row] = x
                sample_row += 1

    out = {
        "x": x, "alive": alive, "exit_times": exit_times, "sup_radius": sup_radius,
        "timeline": timeline, "sup_v": sup_v, "acc_l": acc_l, "supermax": supermax,
        "supermax_t": supermax_t, "occupation": occupation, "radius": radius,
    }
    out["timeline"] = timeline[None]  # one row per ensemble
    if thin:
        out["stored"] = stored
    return out


_ENSEMBLE_ARRAYS = ("sup_radius", "final_states", "exited", "exit_times",
                    "timeline_max_radius", "integral_gauge", "sup_candidate",
                    "supermax_excess", "supermax_excess_time", "paths", "occupation",
                    "outside_at_horizon")

_NOISY_REPELLER = (  # paths leave the box one by one, some never
    "[dimensions]\nstate = 2\nnoise = 1\n[controls]\nhold = 0.0\n"
    "[dynamics]\nf1 = 0.5*x1\nf2 = -x2\ns1_1 = 0.4\ns2_1 = x1\n"
    "[candidate]\nV = x1^2 + x2^2\nl = 0.5*r\n[domain]\nlower = -1, -1\nupper = 1, 1\n"
)
_REPELLER_3D = (  # three coordinates, so the order of the squares in |x| matters
    "[dimensions]\nstate = 3\nnoise = 1\n[controls]\nhold = 0.0\n"
    "[dynamics]\nf1 = 0.5*x1\nf2 = -x2\nf3 = x1*x2 - x3\ns1_1 = 0.4\ns2_1 = x1\n"
    "s3_1 = 0.3*x3\n[candidate]\nV = x1^2 + x2^2 + x3^2\nl = 0.5*r\n"
    "[domain]\nlower = -1, -1, -1\nupper = 1, 1, 1\n"
)
_BLOW_UP = (  # past |x1| = 1 the state runs to +inf or -inf; below x2 = -0.5 it turns NaN
    "[dimensions]\nstate = 2\nnoise = 2\n[controls]\nhold = 0.0\n"
    "[dynamics]\nf1 = x1^3 - x1\nf2 = sqrt(x2 + 0.5) - x2\ns1_1 = 0.6\ns2_2 = 0.8\n"
    "[candidate]\nV = x1^2 + x2^2\nl = r\n[domain]\nlower = -1, -1\nupper = 1, 1\n"
)
_WIDE_9D = (  # nine coordinates: |x| sums its squares pairwise, not left to right
    "[dimensions]\nstate = 9\nnoise = 1\n[controls]\nhold = 0.0\n[dynamics]\n"
    + "".join(f"f{i} = {0.1 * i - 0.5:.1f}*x{i}\ns{i}_1 = 0.3\n" for i in range(1, 10))
    + "[candidate]\nV = " + " + ".join(f"x{i}^2" for i in range(1, 10))
    + "\nl = 0.5*r\n[domain]\nlower = " + ", ".join(["-1"] * 9)
    + "\nupper = " + ", ".join(["1"] * 9) + "\n"
)
_CALM_OR_NOISY = (  # the calm control has no noise, the noisy one does
    "[dimensions]\nstate = 1\nnoise = 1\n[controls]\ncalm = 0.0\nnoisy = 1.0\n"
    "[dynamics]\nf1 = 0.5*x1 - a1*x1\ns1_1 = 0.4*a1\n"
    "[candidate]\nV = abs(x1)\nl = 0.5*r\n[domain]\nlower = -1\nupper = 1\n"
)
_TWO_CONTROL_GRID = al.Grid((-1.0,), (1.0,), (41,))


def _two_control_feedback():
    """Control 1 where |x| <= 0.3 on the grid, control 0 elsewhere."""
    nodes = _TWO_CONTROL_GRID.nodes()[:, 0]
    return al.FeedbackMap(_TWO_CONTROL_GRID, (np.abs(nodes) <= 0.3).astype(int))


def _case(name, rotational, unstable1d, unstable2d, bang1d):
    """(parsed model, simulate_ensemble keywords) for one case."""
    if name == "unstable1d":
        pm = unstable1d
        kw = dict(x0=[0.3], dt=1e-3, T=3.0, n_paths=7, seed=3, thin=100)
    elif name == "unstable2d":
        pm = unstable2d
        kw = dict(x0=[0.3, -0.2], dt=1e-3, T=3.0, n_paths=5, seed=4)
    elif name == "noisy-repeller":
        pm = al.parse_model(_NOISY_REPELLER)
        kw = dict(x0=[0.2, 0.1], dt=1e-3, T=3.0, n_paths=60, seed=5, thin=50,
                  occupation_radii=[0.5, 0.25])
    elif name == "bang1d-two-controls":
        # brake outside |x| <= 0.3, coast inside: the paths use both controls
        pm = bang1d
        assert pm.model.controls[1].label == "coast"
        kw = dict(x0=[0.8], dt=1e-3, T=2.0, n_paths=9, seed=6,
                  feedback=_two_control_feedback())
    elif name == "noisy-and-calm-controls":
        # noisy inside |x| <= 0.3, calm and expanding outside: some paths exit
        pm = al.parse_model(_CALM_OR_NOISY)
        kw = dict(x0=[0.1], dt=1e-3, T=3.0, n_paths=40, seed=11, thin=30,
                  feedback=_two_control_feedback())
    elif name == "nine-coordinates":
        pm = al.parse_model(_WIDE_9D)
        kw = dict(x0=[0.25] * 9, dt=1e-3, T=2.0, n_paths=30, seed=12, thin=40,
                  occupation_radii=[0.8, 0.5])
    elif name == "occupation-thin":
        pm = rotational
        kw = dict(x0=[0.5, 0.0], dt=1e-3, T=2.5, n_paths=40, seed=7, thin=9,
                  occupation_radii=[0.4, 0.2, 0.1])
    elif name == "signed-bernoulli":
        pm = al.parse_model(_NOISY_REPELLER)
        kw = dict(x0=[0.2, 0.1], dt=1e-3, T=3.0, n_paths=30, seed=8,
                  increment_mode="signed-bernoulli")
    elif name == "infinite-domain":
        pm = al.parse_model(_BLOW_UP.replace("lower = -1, -1\nupper = 1, 1",
                                             "lower = -inf, -inf\nupper = inf, inf"))
        kw = dict(x0=[0.0, 0.0], dt=1e-2, T=3.0, n_paths=40, seed=9, thin=4)
    else:  # uneven-workers
        pm = al.parse_model(_REPELLER_3D)
        kw = dict(x0=[0.2, 0.1, 0.3], dt=1e-3, T=2.0, n_paths=50, seed=10, thin=25,
                  occupation_radii=[0.3], workers=3)
    return pm, {**kw, "candidate": pm.candidate, "gauge": pm.gauge}


@pytest.mark.parametrize("name", [
    "unstable1d", "unstable2d", "noisy-repeller", "bang1d-two-controls",
    "noisy-and-calm-controls", "occupation-thin", "signed-bernoulli",
    "infinite-domain", "uneven-workers", "nine-coordinates",
])
def test_step_loop_matches_reference(monkeypatch, name, rotational, unstable1d,
                                     unstable2d, bang1d):
    pm, kw = _case(name, rotational, unstable1d, unstable2d, bang1d)
    # small chunks still split, so the workers case runs three uneven chunks
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
    # one process, so the spies see every chunk
    monkeypatch.setattr(fields, "_cpus", lambda: 1)
    seen = {"kernels": set(), "+inf": False, "-inf": False, "nan": False}
    compile_steps, path_generator = simulate._compile_steps, simulate._path_generator
    generators = []

    def spy(kernel):
        def step(*args):
            out = kernel(*args)
            seen["kernels"].add(id(kernel))
            seen["+inf"] |= bool(np.isposinf(out).any())
            seen["-inf"] |= bool(np.isneginf(out).any())
            seen["nan"] |= bool(np.isnan(out).any())
            return out
        return step

    def spy_compile(*args):
        steps, integrator, draws = compile_steps(*args)
        return {ci: spy(kernel) for ci, kernel in steps.items()}, integrator, draws

    with monkeypatch.context() as mp:
        mp.setattr(simulate, "_compile_steps", spy_compile)
        mp.setattr(simulate, "_path_generator", lambda *a: generators.append(a)
                   or path_generator(*a))
        new = al.simulate_ensemble(pm.model, **kw)
    ref = _reference_ensemble(monkeypatch, pm.model, **kw)
    _assert_same_arrays(new, ref)
    # each case reaches the regime it is named for
    if name in ("unstable1d", "unstable2d"):
        assert ref.exited.all() and ref.exit_times.max() < kw["T"] / 2
    elif name in ("noisy-repeller", "signed-bernoulli", "infinite-domain",
                  "uneven-workers", "noisy-and-calm-controls", "nine-coordinates"):
        assert 0 < ref.exited.sum() < kw["n_paths"]
    two = name in ("bang1d-two-controls", "noisy-and-calm-controls")
    assert len(seen["kernels"]) == (2 if two else 1)
    assert seen["+inf"] == seen["-inf"] == seen["nan"] == (name == "infinite-domain")
    # noise-free models draw nothing; one noisy control makes the batch draw
    noise_free = name in ("unstable1d", "unstable2d", "bang1d-two-controls")
    assert len(generators) == (0 if noise_free else kw["n_paths"])


@pytest.mark.parametrize("candidate, gauge_text", [
    ("1", "knots"), ("x1^2 + x2^2", "knots"), ("1", "0.25"), ("x1", "r"),
])
def test_trackers_match_reference(monkeypatch, candidate, gauge_text):
    # expression candidates and gauges run bare in the step loop; constant trees
    # broadcast, knot gauges are called as before, and paths exit along the way
    pm = al.parse_model(_NOISY_REPELLER)
    cand = al.CandidateFunction(candidate, 2)
    gauge = (al.GaugeFunction.from_knots([0.0, 0.3, 1.0], [0.0, 0.2, 0.3])
             if gauge_text == "knots" else al.GaugeFunction.from_expression(gauge_text))
    kw = dict(x0=[0.2, 0.1], dt=1e-3, T=2.0, n_paths=40, seed=13, candidate=cand,
              gauge=gauge)
    calls = {"value": 0, "gauge": 0}
    value, call = al.CandidateFunction.value, al.GaugeFunction.__call__

    def counted(key, fn):
        def spy(*args):
            calls[key] += 1
            return fn(*args)
        return spy

    with monkeypatch.context() as mp:
        mp.setattr(al.CandidateFunction, "value", counted("value", value))
        mp.setattr(al.GaugeFunction, "__call__", counted("gauge", call))
        new = al.simulate_ensemble(pm.model, **kw)
    ref = _reference_ensemble(monkeypatch, pm.model, **kw)
    _assert_same_arrays(new, ref)
    assert 0 < new.exited.sum() < kw["n_paths"]
    if candidate == "1":
        assert np.all(new.sup_candidate == 1.0)
    assert np.all(new.supermax_excess > 0) and np.all(new.integral_gauge > 0)
    assert calls["value"] == 1  # V(x0) only
    assert (calls["gauge"] > 0) == (gauge.expression is None)


# ------------------------------------------------- box test from the radius

def _still(n, lower, upper):
    """A model whose state never moves in the box [lower, upper]: each start is checked
    against the box, exactly as given, after every step."""
    return _inline("\n".join(f"f{i} = 0\ns{i}_1 = 0" for i in range(1, n + 1)), n,
                   candidate="V = sqrt(" + " + ".join(f"x{i}^2" for i in range(1, n + 1)) + ")",
                   domain=(", ".join(map(repr, lower)), ", ".join(map(repr, upper))))


_UP, _DOWN = np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)  # one ulp beyond the faces
_NAN, _INF = float("nan"), float("inf")
_BOX_CASES = {  # name -> (model, start points, whether each start's paths exit)
    "1d": (_still(1, [-1.0], [1.0]),
           [[1.0], [_UP], [-1.0], [_DOWN], [_NAN], [_INF], [-_INF], [0.5]],
           [False, True, False, True, True, True, True, False]),
    "2d-faces-and-corners": (
        _still(2, [-1.0, -1.0], [1.0, 1.0]),
        [[1.0, 0.0], [_UP, 0.0], [0.0, -1.0], [0.0, _DOWN], [1.0, 1.0], [-1.0, 1.0],
         [1.0, _UP], [_DOWN, -1.0], [_NAN, 0.0], [0.0, _INF], [-_INF, 0.0], [0.3, 0.2]],
        [False, True, False, True, False, False, True, True, True, True, True, False]),
    "2d-faces": (_still(2, [-1.0, -1.0], [1.0, 1.0]),
                 [[1.0, 0.0], [_UP, 0.0], [0.0, -1.0], [0.0, _DOWN], [_NAN, 0.0], [0.3, 0.2]],
                 [False, True, False, True, True, False]),
    # the inscribed radius is 0.3: the face at 0.3 is taken by the radius, 0.7 by the flags
    "2d-off-centre": (
        _still(2, [-0.3, -0.7], [0.7, 0.3]),
        [[-0.3, 0.0], [np.nextafter(-0.3, -1.0), 0.0], [0.7, 0.0], [0.0, -0.7],
         [np.nextafter(0.7, 1.0), 0.0], [0.0, 0.3], [0.7, 0.3], [0.1, -0.1]],
        [False, True, False, False, True, False, False, False]),
    "3d": (_still(3, [-1.0] * 3, [1.0] * 3),
           [[1.0, 0.0, 0.0], [0.0, 0.0, _UP], [1.0, 1.0, 1.0], [1.0, -1.0, _DOWN],
            [_NAN, 0.0, 0.0], [0.0, _INF, 0.0], [0.2, 0.2, 0.2]],
           [False, True, False, True, True, True, False]),
    "3d-faces": (_still(3, [-1.0] * 3, [1.0] * 3),
                 [[1.0, 0.0, 0.0], [0.0, 0.0, _UP], [0.0, -1.0, 0.0], [0.0, _INF, 0.0],
                  [0.2, 0.2, 0.2]],
                 [False, True, False, True, False]),
    "origin-outside": (  # no ball around the origin fits: the flags decide every step
        _still(2, [0.5, -1.0], [2.0, 1.0]),
        [[0.5, 0.0], [np.nextafter(0.5, 0.0), 0.0], [2.0, 1.0], [2.0, _UP], [1.0, 0.0]],
        [False, True, False, True, False]),
}


def _fast_and_flagged(monkeypatch, model, x0s, **kw):
    """The batch with the radius box test and with the flags alone, and how many times
    each ran ``_inside``."""
    monkeypatch.setattr(fields, "_cpus", lambda: 1)  # one process: the spy sees each step
    calls = []
    inside = simulate._inside
    monkeypatch.setattr(simulate, "_inside", lambda *a: calls.append(1) or inside(*a))
    seeds = list(range(len(x0s)))
    fast = simulate._simulate_batch(model, x0s, seeds=seeds, **kw)
    n_fast = len(calls)
    with monkeypatch.context() as mp:
        mp.setattr(simulate, "_inscribed", lambda lower, upper: -np.inf)
        flagged = simulate._simulate_batch(model, x0s, seeds=seeds, **kw)
    for a, b in zip(fast, flagged, strict=True):
        _assert_same_ensemble(a, b)
    return fast, n_fast, len(calls) - n_fast


@pytest.mark.parametrize("name", list(_BOX_CASES))
def test_radius_box_test_matches_the_flags(monkeypatch, name):
    pm, x0s, exits = _BOX_CASES[name]
    x0s = [np.array(x0) for x0 in x0s]
    fast, n_fast, n_flagged = _fast_and_flagged(monkeypatch, pm.model, x0s, dt=0.5, T=2.0,
                                                n_paths=2, candidate=pm.candidate)
    # per start: on a face or a corner stays, one ulp beyond, NaN or inf exits at once
    assert [bool(ens.exited.all()) for ens in fast] == exits
    assert all(ens.exited.all() or not ens.exited.any() for ens in fast)
    assert all((ens.exit_times[ens.exited] == 0.5).all() for ens in fast)
    lower, upper = np.array(pm.model.domain_lower), np.array(pm.model.domain_upper)
    if name == "origin-outside":
        assert simulate._inscribed(lower, upper) == -np.inf and n_fast == n_flagged
    else:
        # the first step flags its exits; the later ones only where a corner or a face
        # past the inscribed radius stays
        assert n_flagged == 4
        assert n_fast == (1 if name in ("1d", "2d-faces", "3d-faces") else 4)


@pytest.mark.parametrize("name", ["noisy-repeller", "uneven-workers", "noisy-and-calm-controls"])
def test_radius_box_test_matches_the_flags_on_noisy_exits(monkeypatch, name, rotational,
                                                          unstable1d, unstable2d, bang1d):
    pm, kw = _case(name, rotational, unstable1d, unstable2d, bang1d)
    x0 = kw.pop("x0")
    kw.pop("seed")
    # two starts in one batch, so the starts' paths exit at steps of their own
    x0s = [np.array(x0), 0.5 * np.array(x0)]
    fast, n_fast, n_flagged = _fast_and_flagged(monkeypatch, pm.model, x0s, **kw)
    assert all(0 < ens.exited.sum() < kw["n_paths"] for ens in fast)
    assert 0 < n_fast < n_flagged


def test_inscribed_radius():
    big = np.finfo(float).max
    assert simulate._inscribed(np.array([-1.0, -0.25]), np.array([2.0, 3.0])) == 0.25
    assert simulate._inscribed(np.array([-big]), np.array([big])) == big
    for lower, upper in (([0.0], [1.0]), ([-1.0], [1e-151]), ([0.5], [1.0]),
                         ([-1.0, _NAN], [1.0, 1.0])):
        assert simulate._inscribed(np.array(lower), np.array(upper)) == -np.inf
    assert simulate._inscribed(np.array([-1e-150]), np.array([1.0])) == 1e-150


# ---------------------------------------------- candidates that read the radius

_EXTREMES = np.array([0.0, -0.0, 5e-324, -2.5e-320, 1e-160, 1.4e-154, 1.5e-154, 1e-100,
                      0.3, -0.7, 1.0, 1e150, 1.5e154, -1e200, 1e308, _NAN, _INF, -_INF])


@pytest.mark.parametrize("model_name", ["rotational", "circle_target", "unstable2d"])
def test_radius_sharing_candidate_is_bit_equal(request, model_name):
    pm = request.getfixturevalue(model_name)
    cand = pm.candidate
    shared = simulate._share_radius(cand.expression, cand._xvars)
    assert "sqrt" not in ex.to_source(shared) and "r" in ex.free_vars(shared)
    # every pair of the extremes, subnormal and overflowing squares among them, and a
    # spread of ordinary states
    pairs = np.array(list(itertools.product(_EXTREMES, repeat=2))).T
    x = np.concatenate([pairs, np.random.default_rng(3).normal(size=(2, 500))], axis=1)
    # the step loop's one-row kernel of the shared tree against the walk of the candidate
    kernel = ex._compile_rows([shared], [*cand._xvars, "r"])
    with np.errstate(all="ignore"):
        radius = fields._norm(x.T)
        got = kernel(*x, radius, np.empty((1, x.shape[1])))[0]
        want = ex.evaluate(cand.expression, dict(zip(cand._xvars, x)))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model_name", ["rotational", "circle_target", "unstable2d"])
def test_radius_sharing_ensemble_is_bit_equal(monkeypatch, request, model_name):
    pm = request.getfixturevalue(model_name)
    x0 = {"circle_target": [1.2, 0.0]}.get(model_name, [0.5, 0.0])
    kw = dict(x0=x0, dt=1e-3, T=0.6, n_paths=30, seed=17, candidate=pm.candidate,
              gauge=pm.gauge)
    shared = al.simulate_ensemble(pm.model, **kw)
    monkeypatch.setattr(simulate, "_share_radius", lambda node, xvars: node)
    _assert_same_ensemble(shared, al.simulate_ensemble(pm.model, **kw))


@pytest.mark.parametrize("text, shared", [
    ("sqrt(x1^2 + x2^2)", "r"), ("sqrt(x1*x1 + x2^2)", None),
    ("(sqrt(x1^2 + x2^2) - 1)^2", "(r - 1)^2"),
    ("sqrt(x2^2 + x1^2)", None), ("sqrt(x1^2 + x2^2 + x1^2)", None),
    ("sqrt(x1^2)", None), ("sqrt(x1^2 + (x2^2 + 0))", None), ("sqrt(x1^2 + x2^3)", None),
    ("sqrt(x1*x2 + x2^2)", None), ("sqrt(abs(x1)^2 + x2^2)", None),
])
def test_only_the_radius_tree_is_shared(text, shared):
    tree = ex.parse_expr(text)
    got = simulate._share_radius(tree, ["x1", "x2"])
    assert got == (tree if shared is None else ex.parse_expr(shared))


def test_radius_sharing_stops_at_eight_coordinates():
    xvars = [f"x{i}" for i in range(1, 9)]
    for n in (1, 7, 8):
        tree = ex.parse_expr("sqrt(" + " + ".join(f"{v}^2" for v in xvars[:n]) + ")")
        # from eight squares on, fields._norm takes numpy's norm, which sums pairwise
        assert simulate._share_radius(tree, xvars[:n]) == (tree if n == 8 else ex.Var("r"))


@pytest.mark.parametrize("name", ["brake", "two-controls", "signed-bernoulli"])
def test_noise_free_batch_draws_nothing(monkeypatch, name, bang1d):
    kw = dict(x0=[0.8], dt=1e-3, T=0.512, n_paths=2000, seed=14,
              candidate=bang1d.candidate, gauge=bang1d.gauge)
    if name == "two-controls":  # coast inside |x| <= 0.3, brake outside
        kw.update(x0=[0.35], feedback=_two_control_feedback())
    elif name == "signed-bernoulli":
        kw.update(increment_mode="signed-bernoulli")
    calls = []
    monkeypatch.setattr(simulate, "_path_generator", lambda *a: calls.append(a))
    # the (steps, noise, paths) block, were it drawn
    block_bytes = simulate._BLOCK_STEPS * kw["n_paths"] * 8
    tracemalloc.start()
    try:
        new = al.simulate_ensemble(bang1d.model, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < block_bytes / 4
    monkeypatch.undo()
    if name == "two-controls":  # braked to the nodes that coast (|x| < 0.275), then coasted
        assert ((0.25 < new.final_states) & (new.final_states < 0.275)).all()
    _assert_same_arrays(new, _reference_ensemble(monkeypatch, bang1d.model, **kw))


# ------------------------------------------------------------------ CSV files

def _ensemble_csv_per_row(ens):
    """The row-by-row writer ``TrajectoryEnsemble.to_csv`` replaced, kept as its reference."""
    lines = ["path,sup_radius,final_radius,integral_gauge,exited,exit_time"]
    final_r = np.linalg.norm(ens.final_states, axis=-1)
    intl = (ens.integral_gauge if ens.integral_gauge is not None
            else np.full(ens.n_paths, np.nan))
    for i in range(ens.n_paths):
        lines.append(
            f"{i},{float(ens.sup_radius[i])!r},{float(final_r[i])!r},{float(intl[i])!r},"
            f"{int(ens.exited[i])},{float(ens.exit_times[i])!r}"
        )
    return "\n".join(lines) + "\n"


def _paths_csv_per_row(ens):
    """The row-by-row writer ``TrajectoryEnsemble.paths_csv`` replaced."""
    n = ens.paths.shape[-1]
    lines = ["t," + ",".join(f"x{i+1}" for i in range(n)) + ",path"]
    for k, t in enumerate(ens.path_times):
        for j in range(ens.n_paths):
            coords = ",".join(repr(float(v)) for v in ens.paths[k, j])
            lines.append(f"{float(t)!r},{coords},{j}")
    return "\n".join(lines) + "\n"


def test_ensemble_csv_matches_a_row_by_row_reference(rotational):
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-2, T=0.1, n_paths=4,
                               seed=3, thin=5, gauge=rotational.gauge)
    assert ens.to_csv() == _ensemble_csv_per_row(ens)
    assert ens.paths_csv() == _paths_csv_per_row(ens)
    inf, nan = np.inf, np.nan
    odd = dataclasses.replace(
        ens,
        sup_radius=np.array([inf, nan, -0.0, 1e-300]),
        final_states=np.array([[nan, 0.0], [-0.0, -0.0], [inf, 1.0], [0.1, 0.2]]),
        integral_gauge=None,
        exited=np.array([True, False, True, False]),
        exit_times=np.array([0.05, inf, 1 / 3, inf]),
        paths=np.where(np.arange(24).reshape(3, 4, 2) % 3 == 0, -0.0, ens.paths),
    )
    odd.paths[1, 2] = (inf, nan)
    assert odd.to_csv() == _ensemble_csv_per_row(odd)
    assert "\n1,nan,0.0,nan,0,inf\n" in odd.to_csv()
    assert odd.paths_csv() == _paths_csv_per_row(odd)
    assert "\n0.05,inf,nan,2\n" in odd.paths_csv()


# ------------------------------------------------------------- batched loop

def _batch_case(name, rotational, unstable1d, bang1d):
    """(model, start points, keywords shared by every ensemble) for one batch."""
    if name == "staggered-exits":
        # x0 e^t leaves [-1, 1] at t = 0.11 and 0.69; the start 0.2 never does
        pm = unstable1d
        x0s = [[0.9], [0.2], [0.5]]
        kw = dict(dt=1e-3, T=1.5, n_paths=6, thin=7)
    elif name == "bang1d-two-controls":
        pm = bang1d
        x0s = [[0.8], [-0.5], [0.2]]
        kw = dict(dt=1e-3, T=2.0, n_paths=9, feedback=_two_control_feedback())
    elif name == "occupation-thin":
        pm = rotational
        x0s = [[0.5, 0.0], [0.0, 0.3], [0.2, -0.2]]
        kw = dict(dt=1e-3, T=2.5, n_paths=20, thin=9, occupation_radii=[0.4, 0.2, 0.1])
    elif name == "signed-bernoulli":
        pm = al.parse_model(_NOISY_REPELLER)
        x0s = [[0.2, 0.1], [0.05, -0.3], [0.6, 0.0]]
        kw = dict(dt=1e-3, T=3.0, n_paths=30, increment_mode="signed-bernoulli")
    elif name == "noisy-and-calm-controls":
        # noisy inside |x| <= 0.3, calm and expanding outside: some paths exit
        pm = al.parse_model(_CALM_OR_NOISY)
        x0s = [[0.1], [-0.25], [0.0]]
        kw = dict(dt=1e-3, T=3.0, n_paths=12, thin=30, feedback=_two_control_feedback())
    elif name == "forked-workers":  # two chunks, the second stepped in a forked child
        pm = al.parse_model(_REPELLER_3D)
        x0s = [[0.2, 0.1, 0.3], [0.1, -0.4, 0.0]]
        kw = dict(dt=1e-3, T=2.0, n_paths=25, occupation_radii=[0.3], workers=2)
    else:  # workers: chunk bounds fall inside ensembles
        pm = al.parse_model(_REPELLER_3D)
        x0s = [[0.2, 0.1, 0.3], [0.1, -0.4, 0.0]]
        kw = dict(dt=1e-3, T=2.0, n_paths=25, thin=25, occupation_radii=[0.3], workers=3)
    return pm, x0s, {**kw, "candidate": pm.candidate, "gauge": pm.gauge}


def _assert_same_ensemble(got, alone):
    for f in dataclasses.fields(al.TrajectoryEnsemble):
        a, b = getattr(got, f.name), getattr(alone, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a is b or a == b, f.name


_BLOCK_LENGTHS = (1, 7, 256, 1024)


@pytest.mark.parametrize("name", ["staggered-exits", "bang1d-two-controls",
                                  "occupation-thin", "signed-bernoulli", "workers",
                                  "noisy-and-calm-controls", "forked-workers"])
def test_batch_matches_separate_ensembles(monkeypatch, forks, name, rotational, unstable1d,
                                          bang1d):
    pm, x0s, kw = _batch_case(name, rotational, unstable1d, bang1d)
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
    if name == "forked-workers":
        monkeypatch.setattr(fields, "_cpus", lambda: 2)
    seeds = [40 + 3 * g for g in range(len(x0s))]
    alone = [al.simulate_ensemble(pm.model, x0, seed=seed, **{**kw, "workers": 1})
             for x0, seed in zip(x0s, seeds)]
    # the block length changes no bit, whether a block ends before, at or after an exit
    for block_steps in _BLOCK_LENGTHS:
        with monkeypatch.context() as mp:
            mp.setattr(simulate, "_BLOCK_STEPS", block_steps)
            batch = simulate._simulate_batch(pm.model, x0s, seeds=seeds, **kw)
        assert len(batch) == len(x0s)
        for got, ens in zip(batch, alone):
            _assert_same_ensemble(got, ens)
    if name == "forked-workers":  # a producer per ensemble stepped alone, a child per batch
        assert len(forks) == len(x0s) + len(_BLOCK_LENGTHS)
    exited = [ens.exited.all() for ens in batch]
    if name == "staggered-exits":  # two ensembles empty while the third runs on
        assert exited == [True, False, True]
        assert not batch[1].exited.any()
    elif name in ("signed-bernoulli", "workers", "noisy-and-calm-controls", "forked-workers"):
        assert any(0 < ens.exited.sum() < kw["n_paths"] for ens in batch)


def test_block_length_rule(monkeypatch, tmp_path, rotational):
    log = tmp_path / "shapes"
    draw = simulate._draw

    def spy(gens, increment_mode, root_dt, slab, out):
        with open(log, "a") as f:  # a producer's draws reach the test through the file
            f.write(f"{out.shape}\n")
        return draw(gens, increment_mode, root_dt, slab, out)

    def shapes():
        lines = log.read_text().splitlines()
        log.unlink()
        return [ast.literal_eval(line) for line in lines]

    monkeypatch.setattr(simulate, "_draw", spy)
    kw = dict(dt=1e-3, n_paths=4)
    for cpus, n_starts in itertools.product((1, 2), (1, 3)):
        monkeypatch.setattr(fields, "_cpus", lambda: cpus)
        # inline, 256-step blocks for one start and for a batch alike: 7 blocks and 208
        # steps; a producer fills 128-step slots: 15 slots and 80 steps
        simulate._simulate_batch(rotational.model, [[0.5, 0.0]] * n_starts,
                                 seeds=list(range(n_starts)), T=2.0, **kw)
        if cpus == 1:
            assert shapes() == [(256, 1, 4 * n_starts)] * 7 + [(208, 1, 4 * n_starts)]
        else:
            assert shapes() == [(128, 1, 4 * n_starts)] * 15 + [(80, 1, 4 * n_starts)]
        # a horizon shorter than a block is drawn in one block of its length
        simulate._simulate_batch(rotational.model, [[0.5, 0.0]] * n_starts,
                                 seeds=list(range(n_starts)), T=0.1, **kw)
        assert shapes() == [(100, 1, 4 * n_starts)]


def test_increment_block_is_held_once(monkeypatch, tmp_path, rotational):
    log = tmp_path / "mapped"
    mapping = simulate.mmap.mmap

    def spy(fileno, length, **kw):
        with open(log, "a") as f:  # a forked chunk's mappings reach the test through the file
            f.write(f"{os.getpid()} {length}\n")
        return mapping(fileno, length, **kw)

    def mapped():
        by_pid = {}
        for line in log.read_text().splitlines():
            pid, length = map(int, line.split())
            by_pid.setdefault(pid, []).append(length)
        log.unlink()
        return by_pid

    # the block is a mapping of its own, which tracemalloc does not see
    monkeypatch.setattr(simulate.mmap, "mmap", spy)
    assert 2000 < simulate._SPLIT_PATHS <= 4000
    # one core: one stepper draws inline; two cores and 4000 paths: two forked chunks
    # each draw their own 2000 paths inline; two cores and 2000 paths: one stepper and a
    # producer, whose two slots of 128 steps hold the bytes of one block
    for cpus, n_paths, chunks in ((1, 4000, 1), (2, 4000, 2), (2, 2000, 1)):
        block_bytes = simulate._BLOCK_STEPS * (n_paths // chunks) * 8
        monkeypatch.setattr(fields, "_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-3, T=1.024,
                                 n_paths=n_paths, seed=1)
            by_pid = mapped()
            peak = tracemalloc.get_traced_memory()[1] + sum(by_pid.get(os.getpid(), []))
        finally:
            tracemalloc.stop()
        # one (steps, paths, noise) block per stepping process and per-path state, not a
        # per-path copy as well
        assert len(by_pid) == chunks and os.getpid() in by_pid
        assert all(lengths == [block_bytes] for lengths in by_pid.values())
        assert block_bytes <= peak < 1.5 * block_bytes
        # 256-step blocks: 11.0 MiB for 4000 paths, where 1024-step blocks took 35.8 MiB
        assert peak < 16 * 2**20


def _per_start_estimate(model, x0_list, dt, T, n_paths, seed):
    """Worst sup radii and verdict of one simulate_ensemble call per start, as before."""
    radii = np.array([np.linalg.norm(x) for x in x0_list])
    worst = []
    for j in np.argsort(radii):
        ens = al.simulate_ensemble(model, x0_list[j], dt, T, n_paths, seed + j)
        if ens.exited.any():
            return (f"{int(ens.exited.sum())} path(s) left the domain from "
                    f"|x0|={radii[j]:.4g}"), None
        worst.append(float(ens.sup_radius.max()))
    return None, np.array(worst)


@pytest.mark.parametrize("name", ["middle-radius-exits", "smallest-radius-exits",
                                  "smallest-radius-exits-in-chunks", "bounded"])
def test_gauge_estimate_matches_per_start_loop(monkeypatch, name, rotational, unstable1d):
    workers = 1
    if name == "middle-radius-exits":  # sorted radii 0.05, 0.5, 0.9: 0.5 exits first
        pm, x0s, T = unstable1d, [[0.9], [0.05], [0.5]], 1.0
    elif name.startswith("smallest-radius-exits"):
        pm, x0s, T = al.parse_model(_NOISY_REPELLER), [[0.7, 0.0], [0.05, 0.0], [0.3, 0.0]], 2.0
        if name.endswith("in-chunks"):  # two chunks, split inside the middle ensemble
            monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
            workers = 2
    else:
        pm, x0s, T = rotational, [[0.4, 0.0], [0.1, 0.0], [0.0, 0.25]], 0.5
    # the start points in their given order; the estimate sorts them by radius
    ensembles = simulate._simulate_batch(pm.model, x0s, 1e-3, T, 20,
                                         [11 + j for j in range(len(x0s))], workers=workers)

    def stepped(*args, **kwargs):
        raise AssertionError("the estimate stepped paths")

    with monkeypatch.context() as mp:
        mp.setattr(simulate, "_simulate_batch", stepped)
        mp.setattr(simulate, "_simulate_chunk", stepped)
        est = al.estimate_stabilizability_gauge(ensembles)
    reason, worst = _per_start_estimate(pm.model, x0s, 1e-3, T, 20, 11)
    assert est.radii.tolist() == sorted(np.linalg.norm(x) for x in x0s)
    if name != "bounded":
        assert not est.consistent and est.reason == reason
        assert ("|x0|=0.5" if name.startswith("middle") else "|x0|=0.05") in reason
        assert np.isinf(est.worst_sup).all()
        # nothing stopped a radius at another's exit: some ensemble kept paths
        assert not all(ens.exited.all() for ens in ensembles)
    else:
        assert est.consistent and worst is not None
        assert est.worst_sup.tobytes() == worst.tobytes()


def test_start_points_validated(rotational):
    kw = dict(dt=1e-3, T=0.1, n_paths=2, seed=0)
    with pytest.raises(ValueError, match="x0 must have 2 component"):
        al.simulate_ensemble(rotational.model, [0.1, 0.0, 0.0], **kw)
    with pytest.raises(ValueError, match="x0 must have 2 component"):
        simulate._simulate_batch(rotational.model, [[0.1, 0.0], [0.2]], 1e-3, 0.1, 2, [0, 1])
    with pytest.raises(ValueError, match="no ensemble to fit"):
        al.estimate_stabilizability_gauge([])
    with pytest.raises(ValueError, match="2 seeds for 3 x0"):
        simulate._simulate_batch(rotational.model, [[0.1, 0.0]] * 3, 1e-3, 0.1, 2, [0, 1])


# ----------------------------------------------------------- path statistics

def test_deterministic_decay_statistics(linear1d):
    ens = al.simulate_ensemble(linear1d.model, [1.0], dt=1e-3, T=5.0,
                               n_paths=20, seed=2)
    assert ens.sup_radius == pytest.approx(np.ones(20))
    final = np.linalg.norm(ens.final_states, axis=1)
    assert final == pytest.approx(np.exp(-5.0), rel=0.01)
    assert not ens.exited.any()


def test_rotational_pathwise_radius_bound(rotational):
    dt = 1e-3
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=dt, T=2.0,
                               n_paths=300, seed=8)
    assert ens.sup_radius.max() <= 0.5 * (1 + 5 * np.sqrt(dt))
    final = np.linalg.norm(ens.final_states, axis=1)
    # |X_T| = 0.5 e^{-0.5 T} pathwise up to Euler noise
    assert np.abs(final - 0.5 * np.exp(-1.0)).max() <= 0.15 * 0.5 * np.exp(-1.0)


def test_exit_flagging(unstable1d):
    ens = al.simulate_ensemble(unstable1d.model, [0.5], dt=1e-3, T=5.0,
                               n_paths=10, seed=3)
    assert ens.exited.all()
    assert np.isfinite(ens.exit_times).all()
    # statistics freeze at the exit: sup radius stays within the box
    assert ens.sup_radius.max() <= 1.0 + 1e-12


def test_dt_halving_shrinks_radius_overshoot(rotational):
    # the overshoot is Euler's: at these step sizes the Milstein chain on this
    # model never exceeds the initial radius, which would make the ratio 0/0
    def overshoot(dt):
        ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=dt, T=2.0,
                                   n_paths=400, seed=13, integrator="euler")
        return ens.sup_radius.max() - 0.5

    big, small = overshoot(2e-3), overshoot(1e-3)
    assert big / small >= 1.3


def test_milstein_step_matches_closed_form(rotational):
    # f = -x, sigma = J x: L sigma = J J x = -x, so one Milstein step is
    # x (1 - dt/2 - w^2/2) + J x w
    dt, x = 1e-3, np.array([0.3, 0.4])
    ens = al.simulate_ensemble(rotational.model, x, dt=dt, T=dt, n_paths=1, seed=21)
    w = _path_generator(21, 0).standard_normal((1, 1))[0, 0] * np.sqrt(dt)
    expect = x * (1 - dt / 2 - w * w / 2) + np.array([-x[1], x[0]]) * w
    assert ens.integrator == "milstein"
    assert ens.final_states[0] == pytest.approx(expect, rel=1e-14, abs=0)


def test_non_commutative_noise_falls_back_to_euler():
    # sigma columns (1, 0) and (0, x1): L_1 sigma_2 = (0, 1) but L_2 sigma_1 = 0
    pm = _inline("f1 = -x1\nf2 = -x2\ns1_1 = 1\ns2_2 = x1", n=2, m=2,
                 domain=("-10, -10", "10, 10"))
    kw = dict(x0=[0.2, 0.1], dt=1e-3, T=0.05, n_paths=20, seed=3)
    ens = al.simulate_ensemble(pm.model, **kw)
    assert ens.integrator == "euler"
    assert ens.manifest()["integrator"] == "euler"
    euler = al.simulate_ensemble(pm.model, **kw, integrator="euler")
    assert np.array_equal(ens.final_states, euler.final_states)


def test_signed_bernoulli_takes_the_euler_step(rotational):
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-2, T=0.1, n_paths=2,
                               seed=1, increment_mode="signed-bernoulli")
    assert ens.integrator == "euler"


def test_thinned_path_storage(rotational):
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-2, T=0.1,
                               n_paths=3, seed=4, thin=5)
    assert ens.paths.shape == (3, 3, 2)  # t = 0, 0.05, 0.1
    assert ens.path_times == pytest.approx([0.0, 0.05, 0.1])
    text = ens.paths_csv()
    assert text.splitlines()[0] == "t,x1,x2,path"


def test_increment_mode_validation(rotational):
    with pytest.raises(ValueError, match="increment"):
        al.simulate_ensemble(rotational.model, [0.1, 0], dt=1e-3, T=0.1,
                             n_paths=1, seed=0, increment_mode="cauchy")


@pytest.mark.parametrize("bad", [dict(dt=0.0), dict(T=-1.0), dict(n_paths=0),
                                 dict(workers=0), dict(thin=-1),
                                 dict(T=4e-4), dict(T=5e-4),  # round(T / dt) is 0
                                 dict(n_paths=2.5), dict(n_paths=1.0), dict(seed=-1),
                                 dict(seed=2**64), dict(seed=1.5),
                                 dict(workers=2.5), dict(workers=2.0), dict(thin=2.5)])
def test_ensemble_arguments_validated(rotational, bad):
    kw = {**dict(x0=[0.1, 0], dt=1e-3, T=0.1, n_paths=1, seed=0), **bad}
    name = next(iter(bad))
    with pytest.raises(ValueError, match=f"need {name} "):
        al.simulate_ensemble(rotational.model, **kw)


def test_documented_keywords_equal_the_batch_signature():
    # every ``name=default`` in the docstring is one keyword of _simulate_batch, and back
    documented = {name: ast.literal_eval(default) for name, default in
                  re.findall(r"``(\w+)=([^`]+)``", al.simulate_ensemble.__doc__)}
    params = inspect.signature(simulate._simulate_batch).parameters.values()
    assert documented == {p.name: p.default for p in params if p.default is not p.empty}


@pytest.mark.parametrize("removed", [dict(control=0), dict(domain=([-1, -1], [1, 1])),
                                     dict(target_distance="abs(x1)")])
def test_removed_keywords_are_rejected(rotational, removed):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{next(iter(removed))}'"):
        al.simulate_ensemble(rotational.model, [0.1, 0], dt=1e-3, T=0.1, n_paths=1, seed=0,
                             **removed)


def test_decay_gauge_takes_occupation_bounds_only():
    with pytest.raises(TypeError):
        build_decay_gauge(np.zeros(2), np.array([0.5, 0.25]))


def test_gauge_slope_and_class_are_not_inputs():
    g = al.GaugeFunction.from_knots([0.0, 0.5, 1.0], [0.0, 0.5, 2.0])
    assert g.lipschitz == 3.0  # the steepest knot slope
    with pytest.raises(TypeError, match="lipschitz"):
        al.GaugeFunction(knots_r=g.knots_r, knots_v=g.knots_v, lipschitz=5.0)
    with pytest.raises(ValueError, match="unknown gauge class 'Kinf'"):
        al.ComparisonGauge("Kinf", np.array([0.0, 1.0]), np.array([0.0, 1.0]))


@pytest.mark.parametrize("make, radii, values", [
    (al.GaugeFunction.from_knots, [0, 1, 2], [0, np.nan, 1]),
    (al.GaugeFunction.from_knots, [0, 1, np.inf], [0, 1, 2]),
    (al.GaugeFunction.from_knots, [0, 1, 2], [0, 1, np.inf]),
    (functools.partial(al.ComparisonGauge, "K"), [0, 1, 2], [0, np.nan, 1]),
], ids=["nan-value", "inf-radius", "inf-value", "comparison-nan-value"])
def test_gauge_knots_must_be_finite(make, radii, values):
    message = (f"gauge knots must be finite, got radii {np.asarray(radii, float).tolist()} "
               f"and values {np.asarray(values, float).tolist()}")
    with pytest.raises(ValueError, match=re.escape(message)):
        make(radii, values)


@pytest.mark.parametrize("text, fault", [
    ("(-1)^0.5 + r", "constant (-1)^0.5 is not a real number"),
    ("r*(1/0)", "constant 1/0 cannot be evaluated: float division by zero"),
    ("r + 10^400", "constant 10^400 cannot be evaluated"),
])
def test_gauge_expression_constants_must_be_real(text, fault):
    # the model reader's check: a kernel would raise on every call instead
    with pytest.raises(ValueError, match=re.escape(f"gauge expression: {fault}")):
        al.GaugeFunction.from_expression(text)
    assert al.GaugeFunction.from_expression("(-1)^2*r")(0.5) == 0.5


@pytest.mark.parametrize("dt", [1e-200, 1e-320])  # 1e200 steps, and T / dt = inf
def test_step_count_must_fit_an_array_axis(rotational, dt):
    with pytest.raises(ValueError, match=f"need T / dt to round to at least 1 and fewer than "
                                         f"{np.iinfo(np.intp).max} steps, got T=1.0 and dt="):
        al.simulate_ensemble(rotational.model, [0.1, 0], dt=dt, T=1.0, n_paths=1, seed=0)


def test_timeline_must_fit_an_array(rotational):
    # 5e18 steps fit an array axis, but not as 8-byte entries
    with pytest.raises(ValueError, match=r"need the timeline, 1 x \(round\(T / dt\) \+ 1\) x 8 "
                                         r"bytes, to fit in \d+ bytes, got T=1.0 and dt=2e-19"):
        al.simulate_ensemble(rotational.model, [0.1, 0], dt=2e-19, T=1.0, n_paths=1, seed=0)
    # 5e17 steps fit one start's timeline, not three
    assert simulate._step_count(1.0, 2e-18) == round(1.0 / 2e-18)
    with pytest.raises(ValueError, match=r"need the timeline, 3 x "):
        simulate._simulate_batch(rotational.model, [[0.1, 0.0]] * 3, dt=2e-18, T=1.0,
                                 n_paths=1, seeds=[0, 1, 2])


def test_small_batches_run_in_one_chunk(monkeypatch, rotational):
    monkeypatch.setattr(fields, "_cpus", lambda: 1)  # the spy sees every chunk
    bounds = []
    chunk = simulate._simulate_chunk

    def spy(*args):
        bounds.append(args[4:6])
        return chunk(*args)

    monkeypatch.setattr(simulate, "_simulate_chunk", spy)
    n = 2 * simulate._MIN_CHUNK_PATHS
    for paths in (n - 1, n):
        al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-3, T=2e-3,
                             n_paths=paths, seed=1, workers=2)
    assert bounds == [(0, n - 1), (0, n // 2), (n // 2, n)]
    # a batch splits as one of its ensembles would, not by its total size
    bounds.clear()
    small = simulate._MIN_CHUNK_PATHS
    simulate._simulate_batch(rotational.model, [[0.5, 0.0]] * 3, 1e-3, 2e-3, small - 1,
                             [1, 2, 3], workers=2)
    assert bounds == [(0, 3 * (small - 1))]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("starts", [1, 2])
def test_large_batches_step_on_every_core(monkeypatch, forks, cpus, starts, rotational):
    monkeypatch.setattr(fields, "_cpus", lambda: cpus)
    chunks = []
    run_chunks = simulate._run_chunks
    monkeypatch.setattr(simulate, "_run_chunks",
                        lambda args: chunks.append(len(args)) or run_chunks(args))
    producers = []  # whether each chunk stepped in this process had a producer
    increments = simulate._increments
    monkeypatch.setattr(simulate, "_increments",
                        lambda *args: producers.append(bool(args[1])) or increments(*args))
    x0s = [[0.5, 0.0], [0.0, -0.3]][:starts]
    kw = dict(dt=1e-3, T=3e-3, candidate=rotational.candidate, gauge=rotational.gauge)
    split = simulate._SPLIT_PATHS
    assert split % 2 == 0 and split // 2 >= 2 * simulate._MIN_CHUNK_PATHS
    for total in (split - 2, split):  # just below and at the split, in whole ensembles
        n_paths, made = total // starts, len(forks)
        producers.clear()
        got = [simulate._simulate_batch(rotational.model, x0s, n_paths=n_paths,
                                        seeds=[7, 8][:starts], workers=w, **kw)
               for w in (1, 2)]
        with monkeypatch.context() as mp:  # one chunk, stepped in order in this process
            mp.setattr(simulate, "_SPLIT_PATHS", 10 * split)
            mp.setattr(fields, "_cpus", lambda: 1)
            alone = simulate._simulate_batch(rotational.model, x0s, n_paths=n_paths,
                                             seeds=[7, 8][:starts], workers=1, **kw)
        for ensembles in got:
            for a, b in zip(ensembles, alone, strict=True):
                _assert_same_ensemble(a, b)
        # below the split, workers=1 is one stepper (with a producer on a spare core);
        # at the split, a chunk per usable core, each stepping and drawing its own paths
        one = cpus if total >= split else 1
        assert chunks[-3:] == [one, 2, 1]
        assert any(producers) == (cpus == 2 and total < split)
        assert len(forks) - made == (2 if cpus == 2 else 0)


def test_chunks_run_in_order_on_the_calling_thread(monkeypatch, rotational):
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
    monkeypatch.setattr(fields, "_cpus", lambda: 1)  # one usable core: nothing forks
    calls = []
    chunk = simulate._simulate_chunk

    def spy(*args):
        calls.append((threading.get_ident(), args[4:6]))
        return chunk(*args)

    monkeypatch.setattr(simulate, "_simulate_chunk", spy)
    simulate._simulate_batch(rotational.model, [[0.5, 0.0]] * 2, 1e-3, 2e-3, 6, [1, 2],
                             workers=3)
    me = threading.get_ident()
    assert calls == [(me, (0, 4)), (me, (4, 8)), (me, (8, 12))]
    assert not hasattr(simulate, "ThreadPoolExecutor")


# ------------------------------------------------------------ forked chunks

@pytest.fixture
def forks(monkeypatch):
    """The pids of every child forked during the test, in order."""
    made = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return made


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("batch", [False, True], ids=["alone", "batch"])
def test_forked_workers_match_one_worker(monkeypatch, forks, workers, batch):
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)
    pm = al.parse_model(_REPELLER_3D)
    x0s = [[0.2, 0.1, 0.3], [0.1, -0.4, 0.0]][:1 + batch]
    seeds = [21, 22][:len(x0s)]
    kw = dict(dt=1e-3, T=2.0, n_paths=25, thin=25, occupation_radii=[0.3],
              candidate=pm.candidate, gauge=pm.gauge)
    got = simulate._simulate_batch(pm.model, x0s, seeds=seeds, workers=workers, **kw)
    assert len(forks) == workers - 1
    _no_children_left()
    for x0, seed, ens in zip(x0s, seeds, got):
        alone = al.simulate_ensemble(pm.model, x0, seed=seed, workers=1, **kw)
        _assert_same_ensemble(ens, alone)
    # one chunk on spare cores: one producer per ensemble, no chunk child
    assert len(forks) == workers - 1 + len(x0s)
    assert any(0 < ens.exited.sum() < kw["n_paths"] for ens in got)


def _failing_chunk(monkeypatch, in_child):
    """Two usable cores, one path per chunk, and the odd chunks, which the
    child steps, call ``in_child`` first."""
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    chunk = simulate._simulate_chunk

    def spy(*args):
        if args[4] % 2:
            in_child()
        return chunk(*args)

    monkeypatch.setattr(simulate, "_simulate_chunk", spy)


def test_child_error_reaches_the_caller(monkeypatch, forks, rotational):
    def fail():
        raise ValueError("bad chunk from a child")

    _failing_chunk(monkeypatch, fail)
    with pytest.raises(ValueError, match="^bad chunk from a child$"):
        al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-3, T=0.01, n_paths=2,
                             seed=1, workers=2)
    assert len(forks) == 1
    _no_children_left()


def test_child_that_dies_is_named(monkeypatch, forks, rotational):
    _failing_chunk(monkeypatch, lambda: os._exit(7))
    with pytest.raises(RuntimeError, match=r"chunk\(s\) 1, 3 died without a result "
                                           r"\(wait status 1792\)"):
        al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-3, T=0.01, n_paths=4,
                             seed=1, workers=4)
    assert len(forks) == 1
    _no_children_left()


def test_caller_error_kills_and_reaps_the_children(monkeypatch, forks, rotational):
    _failing_chunk(monkeypatch, lambda: time.sleep(60))
    step = simulate._simulate_chunk

    def fail_first(*args):
        if args[4] == 0:
            raise KeyError("chunk 0")
        return step(*args)

    monkeypatch.setattr(simulate, "_simulate_chunk", fail_first)
    start = time.perf_counter()
    with pytest.raises(KeyError, match="chunk 0"):
        al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-3, T=0.01, n_paths=2,
                             seed=1, workers=2)
    assert time.perf_counter() - start < 30  # killed, not waited for
    assert len(forks) == 1
    _no_children_left()


def test_processes_are_capped_by_the_usable_cores(monkeypatch, forks, rotational):
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    here = []
    chunk = simulate._simulate_chunk

    def spy(*args):
        here.append(args[4:6])  # only the calling process's calls come back
        return chunk(*args)

    monkeypatch.setattr(simulate, "_simulate_chunk", spy)
    kw = dict(x0=[0.5, 0.0], dt=1e-3, T=2e-3, n_paths=64, seed=1)
    got = al.simulate_ensemble(rotational.model, **kw, workers=64)
    assert len(forks) == 1
    _no_children_left()
    # the calling process steps chunks 0, 2, 4, ...; the child steps the others
    assert here == [(p, p + 1) for p in range(0, 64, 2)]
    here.clear()
    one = al.simulate_ensemble(rotational.model, **kw, workers=1)
    assert here == [(0, 64)]
    _assert_same_ensemble(got, one)


def test_nothing_forks_beside_another_thread(monkeypatch, forks, rotational):
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    calls = []
    chunk = simulate._simulate_chunk

    def spy(*args):
        calls.append((threading.get_ident(), args[4:6]))
        return chunk(*args)

    monkeypatch.setattr(simulate, "_simulate_chunk", spy)
    kw = dict(x0=[0.5, 0.0], dt=1e-3, T=0.01, n_paths=8, seed=1)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        got = al.simulate_ensemble(rotational.model, **kw, workers=2)
    finally:
        done.set()
        other.join()
    assert forks == []
    me = threading.get_ident()
    assert calls == [(me, (0, 4)), (me, (4, 8))]
    forked = al.simulate_ensemble(rotational.model, **kw, workers=2)
    assert len(forks) == 1
    _assert_same_ensemble(got, forked)


# ------------------------------------------------------ increment producer

_ALL_EXIT = (  # x0 e^(2t) leaves [-1, 1] near t = 0.35 on every path
    "[dimensions]\nstate = 1\nnoise = 1\n[controls]\nhold = 0.0\n"
    "[dynamics]\nf1 = 2*x1\ns1_1 = 0.3*x1\n"
    "[candidate]\nV = abs(x1)\nl = 0.5*r\n[domain]\nlower = -1\nupper = 1\n"
)
_PRODUCER_CASES = {  # model text, start points, keywords
    "exits-mid-slot": (_NOISY_REPELLER, [[0.2, 0.1]], dict(thin=7, occupation_radii=[0.5])),
    "all-exit": (_ALL_EXIT, [[0.5]], dict(thin=30)),
    "signed-bernoulli": (_NOISY_REPELLER, [[0.2, 0.1]], dict(increment_mode="signed-bernoulli")),
    "feedback": (_CALM_OR_NOISY, [[0.1]], dict(T=3.0, thin=30, feedback="two-controls")),
    "three-starts": (_NOISY_REPELLER, [[0.2, 0.1], [0.05, -0.3], [0.6, 0.0]], dict(thin=25)),
}


@pytest.mark.parametrize("block_steps", _BLOCK_LENGTHS)
@pytest.mark.parametrize("name", list(_PRODUCER_CASES))
def test_producer_matches_inline_draws(monkeypatch, forks, name, block_steps):
    text, x0s, extra = _PRODUCER_CASES[name]
    pm = al.parse_model(text)
    if "feedback" in extra:
        extra = {**extra, "feedback": _two_control_feedback()}
    kw = dict(dt=1e-3, T=2.0, n_paths=20, seeds=[30 + g for g in range(len(x0s))],
              candidate=pm.candidate, gauge=pm.gauge)
    kw.update(extra)
    monkeypatch.setattr(simulate, "_BLOCK_STEPS", block_steps)
    path_generator, generators = simulate._path_generator, []
    monkeypatch.setattr(simulate, "_path_generator",
                        lambda *a: generators.append(a) or path_generator(*a))
    runs = {}
    for cpus in (1, 2):
        with monkeypatch.context() as mp:
            mp.setattr(fields, "_cpus", lambda: cpus)
            runs[cpus] = simulate._simulate_batch(pm.model, x0s, **kw)
    # two usable cores, one chunk: the producer builds the generators and draws
    assert len(forks) == 1
    assert len(generators) == len(x0s) * kw["n_paths"]  # seen here for the inline run only
    for inline, produced in zip(runs[1], runs[2]):
        _assert_same_ensemble(produced, inline)
    exits = np.concatenate([ens.exit_times[ens.exited] for ens in runs[2]])
    if name == "all-exit":
        assert len(exits) == len(x0s) * kw["n_paths"] and exits.max() < kw["T"] / 2
    else:
        assert 0 < len(exits) < len(x0s) * kw["n_paths"]
    slot = max(1, block_steps // 2)
    if slot > 1:  # some path leaves inside a slot, not at its end
        assert (np.rint(exits / kw["dt"]).astype(int) % slot).any()


def _two_cores_drawing(monkeypatch, in_producer):
    """Two usable cores and one chunk, whose producer calls ``in_producer(draws so far)``
    before each draw; returns the draws made in this process."""
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    draw, here = simulate._draw, []

    def spy(*args):
        here.append(None)
        in_producer(len(here))
        return draw(*args)

    monkeypatch.setattr(simulate, "_draw", spy)
    return here


_SMALL = dict(x0=[0.5, 0.0], dt=1e-3, T=1.0, n_paths=4, seed=1)


def test_producer_error_reaches_the_caller(monkeypatch, forks, rotational):
    def fail(drawn):
        if drawn == 3:
            raise ValueError("bad draw in the producer")

    here = _two_cores_drawing(monkeypatch, fail)
    with pytest.raises(ValueError, match="^bad draw in the producer$"):
        al.simulate_ensemble(rotational.model, **_SMALL)
    assert len(forks) == 1 and here == []


def test_killed_producer_is_named(monkeypatch, forks, rotational):
    def die(drawn):
        if drawn == 3:
            os.kill(os.getpid(), signal.SIGKILL)

    _two_cores_drawing(monkeypatch, die)
    with pytest.raises(RuntimeError, match=r"^the process drawing the increments of paths 0\.\.3 "
                                           r"died without a result \(wait status 9\)$"):
        al.simulate_ensemble(rotational.model, **_SMALL)
    assert len(forks) == 1


def test_stepper_error_kills_and_reaps_the_producer(monkeypatch, forks, rotational):
    _two_cores_drawing(monkeypatch, lambda drawn: drawn == 3 and time.sleep(60))
    compile_steps = simulate._compile_steps
    stepped = []

    def failing_steps(*args):
        steps, integrator, draws = compile_steps(*args)

        def step(*a):
            stepped.append(None)
            if len(stepped) == 200:  # in the second slot, while the producer sleeps
                raise KeyError("step 200")
            return steps[0](*a)

        return {0: step}, integrator, draws

    monkeypatch.setattr(simulate, "_compile_steps", failing_steps)
    start = time.perf_counter()
    with pytest.raises(KeyError, match="step 200"):
        al.simulate_ensemble(rotational.model, **_SMALL)
    assert time.perf_counter() - start < 30  # killed, not waited for
    assert len(forks) == 1
    _no_children_left()


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs two usable CPUs and affinity calls")
def test_producer_and_stepper_run_on_cpus_apart(monkeypatch, tmp_path, rotational):
    cpus = os.sched_getaffinity(0)
    log = tmp_path / "producer-cpus"

    def in_producer(drawn):
        if drawn == 1:
            log.write_text(repr(sorted(os.sched_getaffinity(0))))

    _two_cores_drawing(monkeypatch, in_producer)
    compile_steps, stepper = simulate._compile_steps, []

    def spied_steps(*args):
        steps, integrator, draws = compile_steps(*args)

        def step(*a):
            stepper.append(os.sched_getaffinity(0))
            return steps[0](*a)

        return {0: step}, integrator, draws

    monkeypatch.setattr(simulate, "_compile_steps", spied_steps)
    al.simulate_ensemble(rotational.model, **_SMALL)
    producer = set(ast.literal_eval(log.read_text()))
    # the stepper on one CPU for every step, the producer on all the others
    assert len(stepper[0]) == 1 and all(s == stepper[0] for s in stepper)
    assert producer == cpus - stepper[0]
    assert os.sched_getaffinity(0) == cpus  # given back


def test_no_producer_without_a_spare_core_or_draws(monkeypatch, forks, rotational, bang1d):
    monkeypatch.setattr(simulate, "_MIN_CHUNK_PATHS", 1)
    # one usable core
    monkeypatch.setattr(fields, "_cpus", lambda: 1)
    al.simulate_ensemble(rotational.model, **_SMALL)
    assert forks == []
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    # nothing drawn: bang1d's brake has no noise
    al.simulate_ensemble(bang1d.model, [0.5], dt=1e-3, T=1.0, n_paths=4, seed=1)
    assert forks == []
    # beside another thread nothing forks at all
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        al.simulate_ensemble(rotational.model, **_SMALL)
    finally:
        done.set()
        other.join()
    assert forks == []
    # two chunks on two cores: one chunk child and no producer
    al.simulate_ensemble(rotational.model, **_SMALL, workers=2)
    assert len(forks) == 1
    # two chunks on three cores: a chunk child, and a producer for the caller's chunk
    monkeypatch.setattr(fields, "_cpus", lambda: 3)
    al.simulate_ensemble(rotational.model, **_SMALL, workers=2)
    assert len(forks) == 3


def test_integrator_validation(rotational):
    with pytest.raises(ValueError, match="'runge-kutta'"):
        al.simulate_ensemble(rotational.model, [0.1, 0], dt=1e-3, T=0.1,
                             n_paths=1, seed=0, integrator="runge-kutta")


# -------------------------------------------------------- stabilizability fit

def test_stabilizability_gauge_rotational(rotational):
    ens = [al.simulate_ensemble(rotational.model, [r, 0.0], dt=1e-3, T=3.0, n_paths=100,
                                seed=6 + j) for j, r in enumerate((0.1, 0.25, 0.4))]
    est = al.estimate_stabilizability_gauge(ens)
    assert est.consistent
    # envelope approximately the identity
    assert est.worst_sup == pytest.approx(est.radii, rel=0.05)
    g = est.gauge
    assert g(0.0) == 0.0
    assert (np.diff(g(np.linspace(0, 0.5, 20))) > 0).all()


def test_stabilizability_negative_for_expansion(unstable1d):
    ens = simulate._simulate_batch(unstable1d.model, [[0.3], [0.5]], 1e-3, 10.0, 20, [6, 7])
    est = al.estimate_stabilizability_gauge(ens)
    assert not est.consistent
    assert "left the domain" in est.reason


def test_stabilizability_zero_initial_radius(linear1d):
    ens = al.simulate_ensemble(linear1d.model, [0.0], dt=1e-3, T=1.0, n_paths=10,
                               seed=7)
    assert ens.sup_radius.max() == 0.0


def _origin_and_off(model):
    return simulate._simulate_batch(model, [[0.0, 0.0], [0.5, 0.0]], 1e-3, 4.0, 50, [3, 4])


def test_envelopes_fit_the_radii_off_the_origin(rotational):
    origin, off = ens = _origin_and_off(rotational.model)
    assert origin.sup_radius.max() == 0.0  # the noise and drift vanish at the equilibrium
    stab = al.estimate_stabilizability_gauge(ens)
    alone = al.estimate_stabilizability_gauge([off])
    assert stab.consistent and stab.reason == alone.reason
    assert stab.radii.tolist() == [0.0, 0.5] and stab.worst_sup[0] == 0.0
    assert stab.gauge.knots_r.tolist() == alone.gauge.knots_r.tolist() == [0.0, 0.5]
    assert stab.gauge.knots_v.tobytes() == alone.gauge.knots_v.tobytes()
    decay = al.estimate_decay_envelope(ens)
    assert decay.asymptotic and decay.kappa == al.estimate_decay_envelope([off]).kappa
    assert decay.kappa == pytest.approx(0.5, abs=0.1)


def test_envelopes_reject_paths_that_leave_the_origin(rotational):
    origin, off = _origin_and_off(rotational.model)
    moved = dataclasses.replace(origin, sup_radius=np.full(origin.n_paths, 1e-3))
    stab = al.estimate_stabilizability_gauge([moved, off])
    assert not stab.consistent and "from |x0|=0" in stab.reason
    decay = al.estimate_decay_envelope([moved, off])
    assert not decay.stable and not decay.asymptotic and "from |x0|=0" in decay.reason
    for fit in (al.estimate_stabilizability_gauge, al.estimate_decay_envelope):
        with pytest.raises(ValueError, match=r"all 1 start at \|x0\|=0"):
            fit([origin])


# --------------------------------------------------------------- decay fits

def test_decay_envelope_rotational(rotational):
    ens = [al.simulate_ensemble(rotational.model, [r, 0.0], dt=1e-3, T=6.0,
                                n_paths=100, seed=20 + i)
           for i, r in enumerate((0.25, 0.5))]
    est = al.estimate_decay_envelope(ens)
    assert est.asymptotic
    assert est.kappa == pytest.approx(0.5, abs=0.1)
    beta = est.gauge
    # envelope dominates the sampled curves
    for e in ens:
        bound = beta(e.initial_radius, e.timeline_times)
        assert (e.timeline_max_radius <= bound * (1 + 1e-9)).all()


def test_decay_envelope_neutral_system():
    pm = _inline("f1 = 0")
    ens = [al.simulate_ensemble(pm.model, [0.3], dt=1e-2, T=5.0, n_paths=10, seed=1)]
    est = al.estimate_decay_envelope(ens)
    assert not est.asymptotic
    assert est.stable
    assert abs(est.kappa) <= 1e-6


def test_decay_envelope_linear_rate(linear1d):
    ens = [al.simulate_ensemble(linear1d.model, [0.5], dt=1e-3, T=6.0,
                                n_paths=20, seed=2)]
    est = al.estimate_decay_envelope(ens)
    assert est.kappa == pytest.approx(1.0, abs=0.1)


# ----------------------------------------------------------- occupation times

def test_occupation_times_match_closed_form(rotational):
    radii = 0.5 * 2.0 ** (-np.arange(6))
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-3, T=12.0,
                               n_paths=200, seed=9, occupation_radii=radii)
    occ = al.measure_occupation_times([ens], radii)
    assert not occ.censored.any()
    exact = np.log(0.5 / radii) / 0.5
    # max over paths biases late; the log-noise scale bounds the bias
    assert (occ.times >= exact - 0.05).all()
    assert (occ.times <= exact * 1.15 + 0.25).all()
    assert (np.diff(occ.times) >= 0).all()


def test_occupation_zero_when_never_outside(linear1d):
    radii = np.array([0.5])
    ens = al.simulate_ensemble(linear1d.model, [0.4], dt=1e-3, T=2.0, n_paths=10,
                               seed=10, occupation_radii=radii)
    occ = al.measure_occupation_times([ens], radii)
    assert occ.times[0] == 0.0


def test_occupation_censoring_flagged():
    pm = _inline("f1 = 0")
    radii = np.array([0.2])
    ens = al.simulate_ensemble(pm.model, [0.3], dt=1e-2, T=1.0, n_paths=5, seed=11,
                               occupation_radii=radii)
    occ = al.measure_occupation_times([ens], radii)
    assert occ.censored[0]
    with pytest.raises(ValueError, match="longer T"):
        build_decay_gauge(occ)


def test_occupation_requires_tracking(rotational):
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-2, T=0.1,
                               n_paths=2, seed=1)
    with pytest.raises(ValueError, match="occupation"):
        al.measure_occupation_times([ens], np.array([0.2]))


# ------------------------------------------------------------- decay gauges

def _bounds(t, radii):
    """Uncensored occupation bounds ``t`` at ``radii``."""
    return simulate.OccupationEstimate(np.asarray(radii, dtype=float),
                                       np.asarray(t, dtype=float), np.zeros(len(t), dtype=bool))


def test_build_decay_gauge_single_level():
    dg = build_decay_gauge(_bounds([0.0], [0.5]))
    assert dg.budget == 0.0
    # ramp from 0 to the inner weight, constant beyond
    assert dg.gauge(0.0) == 0.0
    assert dg.gauge(0.5) == dg.gauge(2.0) > 0


def test_build_decay_gauge_zero_occupation_times():
    t = np.zeros(4)
    radii = 0.5 * 2.0 ** (-np.arange(4))
    dg = build_decay_gauge(_bounds(t, radii))
    assert dg.budget == 0.0
    assert (dg.weights > 0).all() and (np.diff(dg.weights) < 0).all()


@given(
    raw=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=14)
)
@settings(max_examples=200, deadline=None)
def test_budget_rule_capped_by_two(raw):
    t = np.maximum.accumulate(np.asarray(raw))  # arbitrary nondecreasing times
    dg = build_decay_gauge(_bounds(t, 0.5 * 2.0 ** (-np.arange(len(t)))))
    assert dg.budget == float(np.sum(dg.weights * t)) <= 2.0
    assert (dg.weights > 0).all()
    assert (np.diff(dg.weights) < 0).all()


def test_build_decay_gauge_rejects_underflowing_weights():
    # 2^-i is 0 from i = 1075 on, so 1100 levels cannot keep their weights positive
    radii = 0.5 * 0.99 ** np.arange(1100)
    assert build_decay_gauge(_bounds(np.zeros(1075), radii[:1075])).weights[-1] > 0
    with pytest.raises(ValueError, match="must be positive and decreasing, but 1100 radii"):
        build_decay_gauge(_bounds(np.zeros(1100), radii))


@given(raw=st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=10))
@settings(max_examples=100, deadline=None)
def test_build_decay_gauge_invariants(raw):
    t = np.maximum.accumulate(np.asarray(raw))
    radii = 0.5 * 2.0 ** (-np.arange(len(t)))
    dg = build_decay_gauge(_bounds(t, radii))
    g = dg.gauge
    assert g(0.0) == 0.0
    rr = np.linspace(0, 1, 64)
    vals = g(rr)
    assert (np.diff(vals) >= -1e-15).all()          # nondecreasing
    assert (vals[rr > 0] > 0).all()                 # positive definite
    slopes = np.abs(np.diff(g.knots_v) / np.diff(g.knots_r))
    assert g.lipschitz >= slopes.max() - 1e-12


# ----------------------------------------------------------- supermaxingale

def test_supermaxingale_identity_small_excess(rotational):
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-3, T=4.0,
                               n_paths=200, seed=12, candidate=rotational.candidate,
                               gauge=rotational.gauge)
    res = al.check_supermaxingale(ens, rotational.candidate, rotational.gauge,
                                  tol=0.06)
    # V(X_t) + int l ds is pathwise constant up to Euler noise
    assert res.worst_excess <= 0.05
    assert res.passed
    assert 0.0 <= res.worst_time <= 4.0


def test_supermaxingale_deterministic_decrease(linear1d):
    ens = al.simulate_ensemble(linear1d.model, [0.8], dt=1e-3, T=2.0, n_paths=5,
                               seed=13, candidate=linear1d.candidate,
                               gauge=al.GaugeFunction.zero())
    res = al.check_supermaxingale(ens, linear1d.candidate, al.GaugeFunction.zero(),
                                  tol=1e-9)
    assert res.worst_excess <= 0.0 + 1e-15
    assert res.passed


def test_supermaxingale_fails_for_expansion(unstable1d):
    ens = al.simulate_ensemble(unstable1d.model, [0.2], dt=1e-3, T=2.0, n_paths=5,
                               seed=14, candidate=unstable1d.candidate,
                               gauge=al.GaugeFunction.zero())
    res = al.check_supermaxingale(ens, unstable1d.candidate, al.GaugeFunction.zero(),
                                  tol=0.05)
    assert not res.passed
    assert res.worst_excess > 0.1


def test_supermaxingale_requires_tracking(rotational):
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-2, T=0.1,
                               n_paths=2, seed=1)
    with pytest.raises(ValueError, match="candidate"):
        al.check_supermaxingale(ens, rotational.candidate, rotational.gauge, 0.05)


def test_supermaxingale_requires_the_tracked_gauge(rotational, linear1d):
    cand, gauge = rotational.candidate, rotational.gauge
    kw = dict(dt=1e-2, T=2.0, n_paths=20, seed=3, candidate=cand)
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], **kw)
    # the excess was tracked without l, so a check given l never saw it
    with pytest.raises(ValueError, match="different candidate or gauge"):
        al.check_supermaxingale(ens, cand, gauge, 0.05)
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], gauge=gauge, **kw)
    assert al.check_supermaxingale(ens, cand, gauge, 0.05).worst_excess > 0
    with pytest.raises(ValueError, match="different candidate or gauge"):
        al.check_supermaxingale(ens, cand, None, 0.05)
    # a zero gauge adds nothing to the excess: it matches none
    ens = al.simulate_ensemble(linear1d.model, [0.8], dt=1e-2, T=1.0, n_paths=2, seed=1,
                               candidate=linear1d.candidate)
    assert al.check_supermaxingale(ens, linear1d.candidate, al.GaugeFunction.zero(),
                                   1e-9).passed


def test_supermaxingale_tells_value_fields_apart(rotational):
    grid = al.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
    scheme = al.default_scheme(rotational.model, grid, cap=1.0)
    fld = al.worst_case_sup_value(rotational.model, grid, scheme).field
    other = al.ScalarField(grid, fld.flat, name=fld.name, fill=fld.fill)
    # fields compare by identity: an array comparison has no single truth value
    assert fld == fld and fld != other
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-2, T=1.0, n_paths=4,
                               seed=2, candidate=fld)
    assert al.check_supermaxingale(ens, fld, None, 0.05).passed
    with pytest.raises(ValueError, match="different candidate or gauge"):
        al.check_supermaxingale(ens, other, None, 0.05)


# ------------------------------------------------------------- viability MC

def test_empirical_viability_deterministic_zero(linear1d):
    ens = al.simulate_ensemble(linear1d.model, [0.5], dt=1e-3, T=2.0, n_paths=50,
                               seed=15, candidate=linear1d.candidate)
    est = al.empirical_viability(ens, mu=0.5, tol=0.0)
    assert est.escape_fraction == 0.0


def test_empirical_viability_expansion_everything_escapes(unstable1d):
    ens = al.simulate_ensemble(unstable1d.model, [0.5], dt=1e-3, T=2.0, n_paths=50,
                               seed=16, candidate=unstable1d.candidate)
    est = al.empirical_viability(ens, mu=0.5, tol=0.0)
    assert est.escape_fraction == 1.0


def test_empirical_viability_rotational_boundary(rotational):
    dt = 1e-3
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=dt, T=2.0,
                               n_paths=200, seed=17, candidate=rotational.candidate)
    est = al.empirical_viability(ens, mu=0.5, tol=5 * np.sqrt(dt))
    assert est.escape_fraction <= 0.01
    assert est.excess_quantiles[1.0] <= 5 * np.sqrt(dt)


def test_empirical_viability_needs_valid_start(rotational):
    ens = al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-2, T=0.1,
                               n_paths=2, seed=1, candidate=rotational.candidate)
    with pytest.raises(ValueError, match="above the level"):
        al.empirical_viability(ens, mu=0.3)


@pytest.mark.parametrize("bad", [dict(mu=np.nan), dict(mu=np.inf), dict(mu=0.0),
                                 dict(mu=-0.5), dict(tol=np.nan), dict(tol=np.inf),
                                 dict(tol=-0.1)])
def test_empirical_viability_rejects_bad_levels(unstable1d, bad):
    # every path escapes the level 0.5; a NaN level or tolerance would let all of them pass
    ens = al.simulate_ensemble(unstable1d.model, [0.5], dt=1e-3, T=2.0, n_paths=5,
                               seed=16, candidate=unstable1d.candidate)
    assert al.empirical_viability(ens, mu=0.5).escape_fraction == 1.0
    name = next(iter(bad))
    with pytest.raises(ValueError, match=f"need {name} "):
        al.empirical_viability(ens, **{"mu": 0.5, **bad})
