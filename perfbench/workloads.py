"""The benchmark's four workloads and the repetition record they fill.

Each workload has a ``setup`` (parse model files, build grids: this is what
``setup_s`` measures, together with importing numpy and aslyap) and a list of
steps.  A step runs one operation: it times only the calls into aslyap inside
``rep.timed(op)``, then checks the outputs against closed-form oracles and
records SHA-256 digests of the numerical results.  Library functions are
looked up through their modules at call time, so the tracer's patches apply.

The inputs come from the workload seed only.  ``solve`` and ``certify`` have
no random inputs, so the seed changes nothing there; ``ensemble`` and
``pipeline`` derive their RNG seeds from it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import tempfile
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import aslyap.cli as cli
import aslyap.fields as fields
import aslyap.gauges as gauges
import aslyap.model as model
import aslyap.simulate as simulate
import aslyap.values as values
import aslyap.verifier as verifier

# Full sizes are the benchmark; smoke sizes exist for the benchmark's tests.
SIZES = {
    "full": {"solve_n": 81, "aug_counts": (57, 57, 37), "paths": 10_000, "horizon": 2.0,
             "certify_n": 401, "pipeline": ["--grid", "61"]},
    "smoke": {"solve_n": 21, "aug_counts": (15, 15, 11), "paths": 200, "horizon": 0.05,
              "certify_n": 41, "pipeline": ["--grid", "21", "--paths", "40", "-T", "2"]},
}

ENSEMBLE_DT = 1e-3  # the step size of acceptance criterion C8
PIPELINE_STAGES = ("value", "feedback", "simulate", "gauge", "supermaxingale",
                   "re_verify", "multi_cap")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def digest_arrays(*arrays) -> str:
    """SHA-256 over dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def derive_seed(seed: int, label: str) -> int:
    """Library RNG seed for one operation, a pure function of the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:4], "big")


class Rep:
    """One repetition of a workload.

    ``wall_s``/``cpu_s`` add up the timed sections only.  Each operation has
    a list of failures; an operation with none passed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.section_s: dict[str, float] = {}
        self.ops: dict[str, list[str]] = {}
        self.current_op: str | None = None
        self.digests: dict[str, str] = {}
        self.oracle_err = 0.0
        self.stage_s: dict[str, float] = {}
        self.workers: dict[str, int] = {}

    def operation(self, name: str) -> None:
        self.ops.setdefault(name, [])
        self.current_op = name

    @contextmanager
    def timed(self, name: str, op: bool = True):
        if op:
            self.operation(name)
        span = self.tracer.span("op." + name) if self.tracer else nullcontext()
        c0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with span:
                yield
        finally:
            dt = time.perf_counter() - t0
            self.cpu_s += _cpu_s() - c0
            self.wall_s += dt
            self.section_s[name] = self.section_s.get(name, 0.0) + dt

    def check(self, op: str, ok, what: str) -> None:
        if not ok:
            self.ops.setdefault(op, []).append(what)

    def digest(self, op: str, what: str, *arrays) -> str:
        d = digest_arrays(*arrays)
        self.digests[f"{op}/{what}"] = d
        return d

    @property
    def failed(self) -> int:
        return sum(1 for f in self.ops.values() if f)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[str, ...]
    setup: Callable[[dict], dict]
    steps: tuple[Callable, ...]


def run_rep(workload: Workload, state: dict, seed: int, tracer=None) -> Rep:
    """Run every step once; an exception fails its operation and skips the rest."""
    rep = Rep(tracer)
    data: dict = {}
    for step in workload.steps:
        try:
            step(state, rep, data, seed)
        except Exception as err:  # a failed operation, reported, never fatal
            missing = [o for o in workload.ops if o not in rep.ops]
            op = rep.current_op if rep.current_op in workload.ops else (missing or ["?"])[0]
            rep.check(op, False, f"{type(err).__name__}: {err}")
            break
    for op in workload.ops:
        rep.check(op, op in rep.ops, "not run")
    return rep


def _read_model(state, name):
    return model.parse_model((state["root"] / "models" / f"{name}.model").read_text())


# --------------------------------------------------------------------- solve
# Why: exercises the value engine. The operator apply (stencil gather and
# dot) and the sweep count are over 90 % of the run, and no RNG or
# integrator runs; sparse operators and sweep cuts show here.

def _solve_setup(state):
    size = state["size"]
    n = size["solve_n"]
    rot = _read_model(state, "rotational")
    grid = fields.Grid((-1.0, -1.0), (1.0, 1.0), (n, n), rho=0.1)
    aug_grid = fields.Grid((-0.7, -0.7, 0.0), (0.7, 0.7, 0.9), size["aug_counts"])
    aug_nodes = aug_grid.nodes()
    return {
        "rot": rot,
        "grid": grid,
        "dt": max(grid.spacing),
        "radii": np.linalg.norm(grid.nodes(), axis=1),
        "disc_grid": fields.Grid((-1.0, -1.0), (1.0, 1.0), (n, n)),
        "aug": values.extended_system(rot.model, rot.gauge, y_bounds=(0.0, 0.9)),
        "aug_grid": aug_grid,
        "aug_pin": np.linalg.norm(aug_nodes[:, :2], axis=1) <= grid.rho,
        "aug_plane": aug_nodes.reshape(*size["aug_counts"], 3)[:, :, 0, :2].reshape(-1, 2),
    }


def _aug_cost(points):
    return np.abs(points[:, 2])


def _solve_integral(state, rep, data, seed):
    rot, grid, dt = state["rot"], state["grid"], state["dt"]
    h = max(grid.spacing)
    with rep.timed("integral"):
        scheme = values.default_scheme(rot.model, grid, cap=2.0, dt=dt)
        res = values.worst_case_integral_value(rot.model, grid, rot.gauge, scheme)
    rep.check("integral", res.converged, "integral value not converged")
    # closed form: the integral value of the rotational model is |x|
    err = float(np.abs(res.field.flat - state["radii"])[state["radii"] <= 0.8].max())
    rep.check("integral", err <= 5 * (dt + h), f"|V - |x|| = {err:.4g} on r <= 0.8")
    rep.oracle_err = max(rep.oracle_err, err)
    rep.digest("integral", "field", res.field.flat)
    data["vint"], data["scheme"] = res, scheme


def _solve_discounted(state, rep, data, seed):
    rot, grid = state["rot"], state["disc_grid"]
    K = 0.8
    with rep.timed("discounted"):
        scheme = values.default_scheme(rot.model, grid, cap=1.0)
        res, prop = values.discounted_value_and_prop_set(
            rot.model, grid, K=K, lam=1.0, theta=10 * scheme.dt, scheme=scheme)
    rep.check("discounted", res.converged, "discounted value not converged")
    # the radius contracts pathwise, so no node inside the K-ball ever leaves it
    r = np.linalg.norm(grid.nodes(), axis=1)
    inner = r <= K - 2 * max(grid.spacing)
    rep.check("discounted", bool(prop[inner].all()),
              f"{int((~prop[inner]).sum())} nodes inside the ball miss the propagation set")
    rep.digest("discounted", "field", res.field.flat, prop)


def _solve_synthesize(state, rep, data, seed):
    rot = state["rot"]
    with rep.timed("synthesize"):
        fb = values.synthesize_feedback(rot.model, data["vint"].field, data["scheme"])
    # one control point: every node must select it
    rep.check("synthesize", bool(np.all(fb.control_indices == 0)), "feedback index out of range")
    rep.digest("synthesize", "indices", fb.control_indices)


def _solve_sup_aug(state, rep, data, seed):
    dt, grid = state["dt"], state["grid"]
    h = max(grid.spacing)
    with rep.timed("sup_aug"):
        scheme = values.RobustScheme(dt=dt, increments=data["scheme"].increments, cap=0.9)
        res = values.worst_case_sup_value(state["aug"], state["aug_grid"], scheme,
                                          cost=_aug_cost, pin_mask=state["aug_pin"])
    rep.check("sup_aug", res.converged, "augmented sup value not converged")
    # cross-check: at y = 0 the augmented sup value equals the integral value
    xs = state["aug_plane"]
    plane = res.field.values[:, :, 0].ravel()
    vint_at = data["vint"].field.interpolate(xs)
    diff = float(np.abs(vint_at - plane)[np.linalg.norm(xs, axis=1) <= 0.5].max())
    rep.check("sup_aug", diff <= 3 * (dt + h), f"cross-check difference {diff:.4g}")
    rep.oracle_err = max(rep.oracle_err, diff)
    rep.digest("sup_aug", "field", res.field.flat)


# ------------------------------------------------------------------ ensemble
# Why: exercises the stochastic lab with about 1e4 paths per numpy call, so a
# step is bound by vector arithmetic and memory; a leaner step kernel or the
# Milstein term shows here, and so does 2-worker thread scaling.

def _ensemble_setup(state):
    return {
        "rot": _read_model(state, "rotational"),
        "bang": _read_model(state, "bang1d"),
        "bang_grid": fields.Grid((-1.0,), (1.0,), (201,)),
    }


def _ensemble_arrays(ens):
    return (ens.sup_radius, ens.final_states, ens.exited, ens.exit_times,
            ens.timeline_max_radius, ens.integral_gauge, ens.sup_candidate,
            ens.supermax_excess, ens.supermax_excess_time)


def _tracked(workers):
    name = f"tracked_w{workers}"

    def step(state, rep, data, seed):
        size, rot = state["size"], state["rot"]
        with rep.timed(name):
            ens = simulate.simulate_ensemble(
                rot.model, [0.5, 0.0], dt=ENSEMBLE_DT, T=size["horizon"],
                n_paths=size["paths"], seed=derive_seed(seed, "tracked"),
                candidate=rot.candidate, gauge=rot.gauge, workers=workers)
        rep.workers[name] = workers
        rep.check(name, not ens.exited.any(), f"{int(ens.exited.sum())} paths exited")
        bound = 0.5 * (1 + 5 * np.sqrt(ENSEMBLE_DT))
        worst = float(ens.sup_radius.max())
        rep.check(name, worst <= bound, f"sup radius {worst:.4g} above {bound:.4g}")
        # the exact flow keeps V + int l constant: the excess is the Euler error
        rep.oracle_err = max(rep.oracle_err, float(ens.supermax_excess.max()))
        data[name] = rep.digest(name, "paths", *_ensemble_arrays(ens))
        if workers != 1:
            rep.check(name, data[name] == data.get("tracked_w1"),
                      "ensemble differs from the workers=1 ensemble")

    return step


def _ensemble_feedback(state, rep, data, seed):
    size, bang, grid = state["size"], state["bang"], state["bang_grid"]
    with rep.timed("feedback"):
        scheme = values.default_scheme(bang.model, grid, cap=1.0)
        value = values.worst_case_sup_value(bang.model, grid, scheme)
        fb = values.synthesize_feedback(bang.model, value.field, scheme)
        ens = simulate.simulate_ensemble(
            bang.model, [0.5], dt=ENSEMBLE_DT, T=size["horizon"], n_paths=size["paths"],
            seed=derive_seed(seed, "feedback"), feedback=fb, candidate=bang.candidate,
            gauge=bang.gauge, workers=1)
    rep.workers["feedback"] = 1
    brake = bang.model.controls[0].label == "brake"
    rep.check("feedback", brake and bool(np.all(fb.control_indices == 0)),
              "feedback does not brake everywhere")
    rep.check("feedback", not ens.exited.any(), f"{int(ens.exited.sum())} paths exited")
    # noise-free under the brake: the Euler chain is x0 (1 - dt)^n exactly
    n_steps = len(ens.timeline_times) - 1
    expect = 0.5 * (1 - ENSEMBLE_DT) ** n_steps
    err = float(np.abs(ens.final_states[:, 0] - expect).max())
    rep.check("feedback", err <= 1e-9 * expect, f"final state off the closed form by {err:.3g}")
    rep.digest("feedback", "indices", fb.control_indices)
    rep.digest("feedback", "paths", *_ensemble_arrays(ens))


# ------------------------------------------------------------------ pipeline
# Why: the user-facing run; the same simulate layer as `ensemble` in the
# opposite regime, 6 ensembles of 500 paths x 8000 steps, where per-call
# overhead of drift and sigma on small batches dominates.

def _pipeline_setup(state):
    tmp = state["root"] / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return {"tmp": tmp}


class _StampedOutput:
    """stdout replacement that remembers when each ``stage ...`` line came."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._buf = ""

    def write(self, text):
        now = time.perf_counter()
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.lines.append((now, line))
        return len(text)

    def flush(self):
        pass

    def stages(self, start: float) -> dict[str, tuple[bool, float]]:
        """Stage name -> (ok, seconds since the previous stage line)."""
        out = {}
        prev = start
        for stamp, line in self.lines:
            if line.startswith("stage "):
                name, _, status = line[len("stage "):].partition(":")
                out[name.replace("-", "_")] = (status.strip().startswith("ok"), stamp - prev)
                prev = stamp
        return out


def _pipeline(state, rep, data, seed):
    with tempfile.TemporaryDirectory(dir=state["tmp"]) as out:
        argv = ["pipeline", "--model", "models/rotational.model", "--multi-cap",
                "--seed", str(derive_seed(seed, "pipeline")), "--out", out,
                *state["size"]["pipeline"]]
        stamped = _StampedOutput()
        with rep.timed("pipeline", op=False):
            start = time.perf_counter()
            with redirect_stdout(stamped):
                code = cli.main(argv)
        stages = stamped.stages(start)
        for stage in PIPELINE_STAGES:
            rep.operation(stage)
            ok, seconds = stages.get(stage, (False, 0.0))
            rep.check(stage, ok, "stage failed or missing")
            rep.stage_s[stage] = seconds
        rep.check(PIPELINE_STAGES[-1], code == cli.EXIT_OK, f"exit code {code}")
        rep.workers.update({"simulate": 1, "gauge": 1})
        run_dir = next(Path(out).glob("run-*"))
        summary = json.loads((run_dir / "pipeline.json").read_text())
        for stage, entry in summary.items():
            rep.digests[f"{stage}/pipeline.json"] = hashlib.sha256(
                json.dumps(entry, sort_keys=True).encode()).hexdigest()
        for fname, stage in (("sup_value.csv", "value"), ("sup_value.json", "value"),
                             ("manifest.json", "value"), ("feedback.csv", "feedback")):
            rep.digests[f"{stage}/{fname}"] = hashlib.sha256(
                (run_dir / fname).read_bytes()).hexdigest()
        rep.oracle_err = float(summary["supermaxingale"]["worst_excess"])


# ------------------------------------------------------------------- certify
# Why: exercises the verifier. Without it the margin kernel, analytic
# gradients and Hessians, and finite-difference field derivatives are each
# under 2 % of every other workload; no sweeps run and no RNG is drawn.

def _certify_setup(state):
    n = state["size"]["certify_n"]
    return {
        "rot": _read_model(state, "rotational"),
        "unstable": _read_model(state, "unstable2d"),
        "circle": _read_model(state, "circle_target"),
        "grid": fields.Grid((-1.0, -1.0), (1.0, 1.0), (n, n)),
        "unstable_grid": fields.Grid((-1.2, -1.2), (1.2, 1.2), (n, n)),
        "circle_grid": fields.Grid((-2.0, -2.0), (2.0, 2.0), (n, n)),
        "gamma1": gauges.GaugeFunction.from_expression("2*r^2"),
        "gamma2": gauges.GaugeFunction.from_expression("0.5*r^2"),
    }


def _verdicts(rep, data, op, report, expect_pass: bool):
    """Compare verdicts with the known answer; the oracle is the wrong share."""
    countable = (report.statuses != verifier.STATUS_NONFINITE) & \
        (report.statuses != verifier.STATUS_EDGE)
    wrong = int((countable & (report.verdicts != expect_pass)).sum())
    _tally(rep, data, op, wrong, int(countable.sum()))
    rep.digest(op, "verdicts", report.verdicts, report.statuses, report.witnesses)
    rep.digest(op, "margins", report.margins)


def _tally(rep, data, op, wrong, countable):
    rep.check(op, countable > 0 and wrong == 0, f"{wrong} of {countable} verdicts wrong")
    data["wrong"] = data.get("wrong", 0) + wrong
    data["countable"] = data.get("countable", 0) + countable
    rep.oracle_err = data["wrong"] / max(data["countable"], 1)


def _certify_supersolution(state, rep, data, seed):
    rot = state["rot"]
    with rep.timed("supersolution"):
        report = verifier.check_supersolution(rot.model, rot.candidate, state["grid"], rot.gauge)
    _verdicts(rep, data, "supersolution", report, True)


def _certify_supersolution_fd(state, rep, data, seed):
    rot, grid = state["rot"], state["grid"]
    with rep.timed("supersolution_fd"):
        fld = fields.ScalarField(grid=grid, values=rot.candidate.value(grid.nodes()))
        report = verifier.check_supersolution(rot.model, fld, grid, rot.gauge)
    _verdicts(rep, data, "supersolution_fd", report, True)


def _certify_change_of_unknown(state, rep, data, seed):
    rot = state["rot"]
    with rep.timed("change_of_unknown"):
        res = verifier.check_change_of_unknown(rot.model, rot.candidate, "t^2", state["grid"])
    _tally(rep, data, "change_of_unknown", len(res.disagreeing_nodes), res.n_compared)
    rep.digest("change_of_unknown", "verdicts", res.report_original.verdicts,
               res.report_transformed.verdicts)
    rep.digest("change_of_unknown", "margins", res.report_transformed.margins)


def _certify_radial(state, rep, data, seed):
    with rep.timed("radial"):
        report = verifier.radial_sufficient_check(state["rot"].model, state["grid"])
    _verdicts(rep, data, "radial", report, True)


def _viability(op, model_key, grid_key, expect_pass):
    def step(state, rep, data, seed):
        parsed, grid = state[model_key], state[grid_key]
        with rep.timed(op):
            fld = fields.ScalarField(grid=grid, values=parsed.candidate.value(grid.nodes()))
            levelset = fields.extract_level_set(fld, 0.5)
            report = verifier.check_viability_boundary(parsed.model, levelset)
        _verdicts(rep, data, op, report, expect_pass)

    return step


def _certify_set_lyapunov(state, rep, data, seed):
    circle = state["circle"]
    with rep.timed("set_lyapunov"):
        report = verifier.check_set_lyapunov(
            circle.model, circle.candidate, "abs(sqrt(x1^2 + x2^2) - 1)",
            state["gamma1"], state["gamma2"], state["circle_grid"], state["gamma2"])
    _verdicts(rep, data, "set_lyapunov", report, True)


WORKLOADS = {
    "solve": Workload(
        name="solve",
        why="value engine: operator apply and sweep count are over 90 % of the run, "
            "no RNG or integrator; sparse operators and sweep cuts show here",
        ops=("integral", "discounted", "synthesize", "sup_aug"),
        setup=_solve_setup,
        steps=(_solve_integral, _solve_discounted, _solve_synthesize, _solve_sup_aug),
    ),
    "ensemble": Workload(
        name="ensemble",
        why="stochastic lab with 1e4 paths per numpy call, bound by vector arithmetic "
            "and memory; step-kernel changes and 2-worker scaling show here",
        ops=("tracked_w1", "tracked_w2", "feedback"),
        setup=_ensemble_setup,
        steps=(_tracked(1), _tracked(2), _ensemble_feedback),
    ),
    "pipeline": Workload(
        name="pipeline",
        why="the user-facing aslyap pipeline run; ensembles of 500 paths where per-call "
            "overhead dominates, the opposite regime of ensemble",
        ops=PIPELINE_STAGES,
        setup=_pipeline_setup,
        steps=(_pipeline,),
    ),
    "certify": Workload(
        name="certify",
        why="verifier on 401^2 grids: margin kernel, analytic and finite-difference "
            "derivatives, level sets; no sweeps and no RNG",
        ops=("supersolution", "supersolution_fd", "change_of_unknown", "radial",
             "viability", "viability_unstable", "set_lyapunov"),
        setup=_certify_setup,
        steps=(_certify_supersolution, _certify_supersolution_fd, _certify_change_of_unknown,
               _certify_radial,
               _viability("viability", "rot", "grid", True),
               _viability("viability_unstable", "unstable", "unstable_grid", False),
               _certify_set_lyapunov),
    ),
}


def setup(name: str, root: Path, size: str) -> dict:
    state = {"root": root, "size": SIZES[size]}
    state.update(WORKLOADS[name].setup(state))
    return state
