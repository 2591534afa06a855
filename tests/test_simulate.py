import dataclasses
import os
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
from aslyap.simulate import _path_generator, build_decay_gauge, default_weight_rule


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
    """Stands in for ``simulate._compile_steps``: one bare lambda per row of the
    same trees instead of one kernel per control; the masked loop always draws."""
    trees, integrator = simulate._step_trees(model, control_indices, integrator)
    args = ([f"x{i+1}" for i in range(model.dim_state)]
            + [f"w{j+1}" for j in range(model.dim_noise)] + ["dt"])
    rows = {ci: [ex._compile_bare(t, args) for t in ts] for ci, ts in trees.items()}
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
                     increment_mode, lower, upper, control_index, feedback, steps, draws, cand,
                     gauge, occ_radii, target_fn, thin):
    """The masked loop for one ensemble: every path is stepped every step, exited or not."""
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
        sup_d = (np.abs(np.asarray(target_fn(x), dtype=float)) if target_fn is not None
                 else None)
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
            inside &= np.all((xn >= lower) & (xn <= upper), axis=-1)
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
            if sup_d is not None:
                dx = np.abs(np.asarray(target_fn(x), dtype=float))
                np.maximum(sup_d, np.where(alive, dx, -np.inf), out=sup_d)
            if thin and (k + 1) % thin == 0:
                stored[sample_row] = x
                sample_row += 1

    out = {
        "x": x, "alive": alive, "exit_times": exit_times, "sup_radius": sup_radius,
        "timeline": timeline, "sup_v": sup_v, "acc_l": acc_l, "supermax": supermax,
        "supermax_t": supermax_t, "occupation": occupation, "sup_d": sup_d,
        "radius": radius,
    }
    out["timeline"] = timeline[None]  # one row per ensemble
    if thin:
        out["stored"] = stored
    return out


_ENSEMBLE_ARRAYS = ("sup_radius", "final_states", "exited", "exit_times",
                    "timeline_max_radius", "integral_gauge", "sup_candidate",
                    "supermax_excess", "supermax_excess_time", "paths", "occupation",
                    "sup_target_distance", "outside_at_horizon")

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
    elif name == "occupation-target-thin":
        pm = rotational
        kw = dict(x0=[0.5, 0.0], dt=1e-3, T=2.5, n_paths=40, seed=7, thin=9,
                  occupation_radii=[0.4, 0.2, 0.1], target_distance="abs(x1)")
    elif name == "signed-bernoulli":
        pm = al.parse_model(_NOISY_REPELLER)
        kw = dict(x0=[0.2, 0.1], dt=1e-3, T=3.0, n_paths=30, seed=8,
                  increment_mode="signed-bernoulli")
    elif name == "infinite-domain":
        pm = al.parse_model(_BLOW_UP)
        inf = np.inf
        kw = dict(x0=[0.0, 0.0], dt=1e-2, T=3.0, n_paths=40, seed=9, thin=4,
                  domain=([-inf, -inf], [inf, inf]), target_distance="abs(x2)")
    else:  # uneven-workers
        pm = al.parse_model(_REPELLER_3D)
        kw = dict(x0=[0.2, 0.1, 0.3], dt=1e-3, T=2.0, n_paths=50, seed=10, thin=25,
                  occupation_radii=[0.3], workers=3)
    return pm, {**kw, "candidate": pm.candidate, "gauge": pm.gauge}


@pytest.mark.parametrize("name", [
    "unstable1d", "unstable2d", "noisy-repeller", "bang1d-two-controls",
    "noisy-and-calm-controls", "occupation-target-thin", "signed-bernoulli",
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
    elif name == "occupation-target-thin":
        pm = rotational
        x0s = [[0.5, 0.0], [0.0, 0.3], [0.2, -0.2]]
        kw = dict(dt=1e-3, T=2.5, n_paths=20, thin=9, occupation_radii=[0.4, 0.2, 0.1],
                  target_distance="abs(x1)")
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
                                  "occupation-target-thin", "signed-bernoulli", "workers",
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
    if name == "forked-workers":  # one child per batch
        assert len(forks) == len(_BLOCK_LENGTHS)
    exited = [ens.exited.all() for ens in batch]
    if name == "staggered-exits":  # two ensembles empty while the third runs on
        assert exited == [True, False, True]
        assert not batch[1].exited.any()
    elif name in ("signed-bernoulli", "workers", "noisy-and-calm-controls", "forked-workers"):
        assert any(0 < ens.exited.sum() < kw["n_paths"] for ens in batch)


def test_block_length_rule(monkeypatch, rotational):
    shapes = []
    draw = simulate._draw

    def spy(gens, increment_mode, root_dt, slab, out):
        shapes.append(out.shape)
        return draw(gens, increment_mode, root_dt, slab, out)

    monkeypatch.setattr(simulate, "_draw", spy)
    kw = dict(dt=1e-3, n_paths=4)
    for n_starts in (1, 3):
        # 256-step blocks for one start and for a batch alike: 7 blocks and 208 steps
        shapes.clear()
        simulate._simulate_batch(rotational.model, [[0.5, 0.0]] * n_starts,
                                 seeds=list(range(n_starts)), T=2.0, **kw)
        assert shapes == [(256, 1, 4 * n_starts)] * 7 + [(208, 1, 4 * n_starts)]
        # a horizon shorter than a block is drawn in one block of its length
        shapes.clear()
        simulate._simulate_batch(rotational.model, [[0.5, 0.0]] * n_starts,
                                 seeds=list(range(n_starts)), T=0.1, **kw)
        assert shapes == [(100, 1, 4 * n_starts)]


def test_increment_block_is_held_once(rotational):
    n_paths = 4000
    block_bytes = simulate._BLOCK_STEPS * n_paths * 8
    tracemalloc.start()
    try:
        al.simulate_ensemble(rotational.model, [0.5, 0.0], dt=1e-3, T=1.024,
                             n_paths=n_paths, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (steps, paths, noise) block and per-path state, not a per-path copy as well
    assert block_bytes <= peak < 1.5 * block_bytes
    # 256-step blocks: 11.0 MiB, where 1024-step blocks took 35.8 MiB
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
                                 dict(T=4e-4), dict(T=5e-4)])  # round(T / dt) is 0
def test_ensemble_arguments_validated(rotational, bad):
    kw = {**dict(x0=[0.1, 0], dt=1e-3, T=0.1, n_paths=1, seed=0), **bad}
    name = next(iter(bad))
    with pytest.raises(ValueError, match=f"need {name} "):
        al.simulate_ensemble(rotational.model, **kw)


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


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    assert len(forks) == workers - 1  # one chunk: nothing more forked
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

def test_build_decay_gauge_single_level():
    dg = build_decay_gauge(np.array([0.0]), np.array([0.5]))
    assert dg.budget == 0.0
    # ramp from 0 to the inner weight, constant beyond
    assert dg.gauge(0.0) == 0.0
    assert dg.gauge(0.5) == dg.gauge(2.0) > 0


def test_build_decay_gauge_zero_occupation_times():
    t = np.zeros(4)
    radii = 0.5 * 2.0 ** (-np.arange(4))
    dg = build_decay_gauge(t, radii)
    assert dg.budget == 0.0
    assert (dg.weights > 0).all() and (np.diff(dg.weights) < 0).all()


@given(
    raw=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=14)
)
@settings(max_examples=200, deadline=None)
def test_budget_rule_capped_by_two(raw):
    t = np.maximum.accumulate(np.asarray(raw))  # arbitrary nondecreasing times
    weights = np.array([default_weight_rule(i, ti) for i, ti in enumerate(t)])
    assert float(np.sum(weights * t)) <= 2.0
    assert (weights > 0).all()
    assert (np.diff(weights) < 0).all()


@given(raw=st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=10))
@settings(max_examples=100, deadline=None)
def test_build_decay_gauge_invariants(raw):
    t = np.maximum.accumulate(np.asarray(raw))
    radii = 0.5 * 2.0 ** (-np.arange(len(t)))
    dg = build_decay_gauge(t, radii)
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
