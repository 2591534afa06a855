"""Command-line entry point.

Subcommands: check, value, simulate, gauge, viability, pipeline.  Every run
writes a manifest (resolved config + hashes) into its own directory named by
the config hash, so identical configs land in identical directories and
reproduce identical outputs bit for bit.

Exit codes: 0 success, 1 verification/convergence failure, 2 configuration
error, 3 numerical abort or internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .fields import Grid, ScalarField, _csv, extract_level_set
from .gauges import GaugeFunction
from .model import ModelError, ParsedModel, parse_model
from .simulate import (
    _simulate_batch,
    _step_count,
    build_decay_gauge,
    check_supermaxingale,
    estimate_decay_envelope,
    estimate_stabilizability_gauge,
    measure_occupation_times,
    simulate_ensemble,
)
from .values import (
    NumericalError,
    default_scheme,
    discounted_value_and_prop_set,
    synthesize_feedback,
    worst_case_integral_value,
    worst_case_sup_value,
)
from .verifier import STATUS_NONFINITE, check_supersolution, check_viability_boundary

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3  # also internal errors


class ConfigError(ValueError):
    pass


# the rules a flag's value must meet: (what it must be, test of the value)
_POSITIVE = ("a positive finite number", lambda v: 0 < v < np.inf)
_NONNEGATIVE = ("nonnegative and finite", lambda v: 0 <= v < np.inf)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_FINITE = ("finite", np.isfinite)
# a path's Philox key, (seed << 64) + path, must stay below 2**128, also for the
# seeds the commands derive from --seed by adding small offsets
_SEED = ("nonnegative and below 2**63", lambda v: 0 <= v < 2**63)


def _load_model(path: str) -> ParsedModel:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"model file not found: {path}")
    try:
        return parse_model(p.read_text())
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read model file {path}: {err}") from None
    except ModelError as err:
        raise ConfigError(f"bad model file {path}: {err}") from None


def _parse_grid(spec: str | None, parsed: ParsedModel, rho: float | None) -> Grid:
    """The grid of ``--grid``, else 61 nodes per axis on the model's finite
    ``[domain]``; every error in the spec, also from ``Grid``, names the flag."""
    lo, up = parsed.model.domain_lower, parsed.model.domain_upper
    if spec is None:
        if not np.all(np.isfinite((*lo, *up))):
            raise ConfigError(
                f"model [domain] lower = {', '.join(map(str, lo))}, upper = "
                f"{', '.join(map(str, up))} is not a finite box; give the grid with "
                "--grid lo:hi:n per axis")
        return Grid(lo, up, tuple(61 for _ in lo), rho=rho)
    parts = spec.split(",")
    try:
        if all(":" not in p for p in parts):
            counts = tuple(int(p) for p in parts)
            if len(counts) == 1:
                counts = counts * len(lo)
            if len(counts) != len(lo):
                raise ValueError("grid counts must match the state dimension")
            return Grid(lo, up, counts, rho=rho)
        if len(parts) != len(lo) or any(p.count(":") != 2 for p in parts):
            raise ValueError("expected one lo:hi:n block per axis")
        lows, ups, counts = zip(*(p.split(":") for p in parts))
        return Grid(tuple(map(float, lows)), tuple(map(float, ups)), tuple(map(int, counts)),
                    rho=rho)
    except ValueError as err:
        raise ConfigError(f"--grid {spec}: {err}") from None


def _inner_radius(grid: Grid) -> float:
    """The distance from the origin to the grid box's nearest face, which sets the
    default caps; ConfigError unless the origin lies strictly inside the box."""
    if not all(l < 0 < u for l, u in zip(grid.lower, grid.upper)):
        raise ConfigError(f"the grid (--grid, else the model's [domain]) must hold the "
                          f"origin strictly inside, got lower {grid.lower}, upper {grid.upper}")
    return min(min(-l, u) for l, u in zip(grid.lower, grid.upper))


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _run_dir(out: str, cfg: dict) -> Path:
    d = Path(out) / f"run-{_config_hash(cfg)}"
    d.mkdir(parents=True, exist_ok=True)
    (d / "manifest.json").write_text(
        json.dumps({"version": __version__, "config": cfg, "hash": _config_hash(cfg)},
                   indent=2, sort_keys=True, default=str)
    )
    return d


def _check_steps(dt_flag: str, dt: float, *horizons, starts: int = 1) -> None:
    """Reject each (flag, value) horizon whose step count at ``dt`` is not one
    ``_simulate_batch`` can step from ``starts`` start points: at least 1, and a
    timeline of ``starts`` x (steps + 1) x 8 bytes at most np.intp's largest value."""
    most = np.iinfo(np.intp).max
    for flag, value in horizons:
        try:
            _step_count(value, dt, starts)
        except ValueError:
            raise ConfigError(f"{flag} must be at least one and fewer than {most} {dt_flag} "
                              f"steps once rounded, with a timeline of {starts} x (steps + 1) "
                              f"x 8 bytes at most {most}, got {flag} {value} with {dt_flag} "
                              f"{dt}") from None


def _vector(flag: str, text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _write_field(run_dir: Path, name: str, result, extra: dict | None = None):
    fld = result.field
    (run_dir / f"{name}.csv").write_text(fld.to_csv())
    sidecar = {
        "name": fld.name,
        "iterations": fld.iterations,
        "residual": fld.residual,
        "converged": fld.converged,
        "residual_history": result.residuals[-50:],
    }
    sidecar.update(extra or {})
    (run_dir / f"{name}.json").write_text(json.dumps(sidecar, indent=2))


def cmd_check(args) -> int:
    parsed = _load_model(args.model)
    if parsed.candidate is None:
        raise ConfigError("model has no [candidate] section; nothing to check")
    grid = _parse_grid(args.grid, parsed, args.rho)
    # a verdict on the nodes alone can pass a function that fails between them, so
    # the cell centres are checked as a second grid
    if min(grid.counts) < 4:
        raise ConfigError(f"--grid {args.grid}: check needs at least 4 nodes per axis, "
                          "so that the cell centres form a grid of at least 3")
    h = grid.spacing
    centres = Grid(tuple(l + d / 2 for l, d in zip(grid.lower, h)),
                   tuple(u - d / 2 for u, d in zip(grid.upper, h)),
                   tuple(c - 1 for c in grid.counts), rho=grid.rho)
    cfg = {"cmd": "check", "model": args.model, "grid": args.grid, "rho": grid.rho,
           "eps_tan": args.eps_tan, "tol": args.tol, "model_hash": parsed.text_hash()}
    run_dir = _run_dir(args.out, cfg)
    passed = True
    for name, what, g in (("report", "nodes", grid),
                          ("report_staggered", "cell centres", centres)):
        report = check_supersolution(parsed.model, parsed.candidate, g,
                                     parsed.gauge, eps_tan=args.eps_tan, tol=args.tol)
        (run_dir / f"{name}.json").write_text(report.to_json())
        (run_dir / f"{name}.csv").write_text(report.to_csv())
        print(f"checked {report.n_pass + report.n_fail} {what}: "
              f"{report.n_fail} failing, worst margin {report.worst_margin:.3e}")
        passed = passed and report.all_pass
    print(f"report in {run_dir}")
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_value(args) -> int:
    parsed = _load_model(args.model)
    model = parsed.model
    grid = _parse_grid(args.grid, parsed, args.rho)
    inner_radius = _inner_radius(grid)
    if args.kind == "discounted" and args.cap is not None and args.cap >= inner_radius:
        raise ConfigError(f"--cap must be below the grid radius {inner_radius} for a "
                          f"discounted value, got {args.cap}")
    if args.kind == "integral":
        if parsed.gauge is None:
            raise ConfigError("integral value needs a gauge l in the [candidate] section")
        l_min = float(np.min(parsed.gauge.of_points(grid.nodes())))
        if not l_min >= 0:
            raise ConfigError(f"l in the [candidate] section of {args.model} must be "
                              f"nonnegative on the grid, got {l_min}")
    cfg = {"cmd": "value", "kind": args.kind, "model": args.model, "grid": args.grid,
           "dt": args.dt, "cap": args.cap, "tol": args.tol, "lambda": args.discount,
           "theta": args.theta, "model_hash": parsed.text_hash()}
    run_dir = _run_dir(args.out, cfg)

    if args.kind == "sup":
        cap = args.cap if args.cap is not None else inner_radius
        scheme = default_scheme(model, grid, cap=cap, dt=args.dt, tolerance=args.tol)
        result = worst_case_sup_value(model, grid, scheme)
    elif args.kind == "integral":
        max_r = float(np.linalg.norm(grid.nodes(), axis=-1).max())
        cap = args.cap if args.cap is not None else 5.0 * max_r
        scheme = default_scheme(model, grid, cap=cap, dt=args.dt, tolerance=args.tol)
        result = worst_case_integral_value(model, grid, parsed.gauge, scheme)
    else:  # discounted
        K = args.cap if args.cap is not None else 0.8 * inner_radius
        scheme = default_scheme(model, grid, cap=max(K, 1.0), dt=args.dt,
                                tolerance=args.tol)
        theta = args.theta if args.theta is not None else 10.0 * scheme.dt
        result, prop_mask = discounted_value_and_prop_set(
            model, grid, K=K, lam=args.discount, theta=theta, scheme=scheme
        )
        (run_dir / "prop_set.csv").write_text(
            _csv("index,in_prop_set", [np.arange(len(prop_mask)), prop_mask]))
        print(f"propagation set: {int(prop_mask.sum())} of {len(prop_mask)} nodes")

    _write_field(run_dir, "field", result, {"kind": args.kind, "dt": scheme.dt,
                                            "cap": scheme.cap})
    print(f"{args.kind} value: {result.field.iterations} sweeps, "
          f"residual {result.field.residual:.2e}, converged={result.converged}")
    print(f"field in {run_dir}")
    return EXIT_OK if result.converged else EXIT_VERIFICATION


def cmd_simulate(args) -> int:
    _check_steps("--dt", args.dt, ("-T", args.horizon))
    parsed = _load_model(args.model)
    x0 = _vector("--x0", args.x0)
    if len(x0) != parsed.model.dim_state:
        raise ConfigError(f"--x0 must have {parsed.model.dim_state} component(s), "
                          f"got {len(x0)}")
    if not np.all(np.isfinite(x0)):
        raise ConfigError(f"--x0 must be finite, got {args.x0}")
    cfg = {"cmd": "simulate", "model": args.model, "x0": args.x0, "dt": args.dt,
           "T": args.horizon, "paths": args.paths, "seed": args.seed,
           "increments": args.increments, "thin": args.thin,
           "model_hash": parsed.text_hash()}
    run_dir = _run_dir(args.out, cfg)
    ens = simulate_ensemble(
        parsed.model, x0, dt=args.dt, T=args.horizon, n_paths=args.paths,
        seed=args.seed, increment_mode=args.increments,
        candidate=parsed.candidate, gauge=parsed.gauge, thin=args.thin,
        workers=args.workers,
    )
    (run_dir / "ensemble.csv").write_text(ens.to_csv())
    (run_dir / "ensemble.json").write_text(ens.manifest_json(parsed.text_hash()))
    if args.thin:
        (run_dir / "paths.csv").write_text(ens.paths_csv())
    print(f"{ens.n_paths} paths, {int(ens.exited.sum())} exited, "
          f"max sup-radius {ens.sup_radius.max():.4g}")
    print(f"ensemble in {run_dir}")
    return EXIT_OK


def cmd_gauge(args) -> int:
    parsed = _load_model(args.model)
    radii = sorted(_vector("--radii", args.radii))
    if not all(0 < r < np.inf for r in radii):
        raise ConfigError("--radii must be positive and finite")
    if len(set(radii)) < len(radii):
        raise ConfigError(f"--radii must be strictly increasing once sorted, got {args.radii}")
    _check_steps("--dt", args.dt, ("-T", args.horizon), starts=len(radii))
    cfg = {"cmd": "gauge", "model": args.model, "radii": args.radii, "dt": args.dt,
           "T": args.horizon, "paths": args.paths, "seed": args.seed,
           "model_hash": parsed.text_hash()}
    run_dir = _run_dir(args.out, cfg)
    model = parsed.model
    x0s = [np.concatenate([[r], np.zeros(model.dim_state - 1)]) for r in radii]
    ensembles = _simulate_batch(model, x0s, args.dt, args.horizon, args.paths,
                                [args.seed + 1000 + i for i in range(len(x0s))],
                                workers=args.workers)
    stab = estimate_stabilizability_gauge(ensembles)
    decay = estimate_decay_envelope(ensembles)
    out = {
        "integrator": ensembles[0].integrator,
        "stabilizability": {
            "consistent": stab.consistent,
            "reason": stab.reason,
            "radii": stab.radii.tolist(),
            "envelope": stab.worst_sup.tolist(),
        },
        "decay": {
            "asymptotic": decay.asymptotic,
            "stable": decay.stable,
            "kappa": decay.kappa,
            "reason": decay.reason,
        },
    }
    (run_dir / "gauges.json").write_text(json.dumps(out, indent=2))
    print(f"stabilizability: {'consistent' if stab.consistent else 'NEGATIVE'} "
          f"({stab.reason})")
    print(f"decay: kappa={decay.kappa:.4g} asymptotic={decay.asymptotic}")
    print(f"gauges in {run_dir}")
    return EXIT_OK if stab.consistent else EXIT_VERIFICATION


def cmd_viability(args) -> int:
    parsed = _load_model(args.model)
    if parsed.candidate is None:
        raise ConfigError("viability check needs a [candidate] section")
    grid = _parse_grid(args.grid, parsed, args.rho)
    fld = ScalarField(grid=grid, values=parsed.candidate.value(grid.nodes()), name="candidate")
    if not fld.min() < args.mu < fld.max():
        raise ConfigError(f"--mu must be strictly between the candidate's least and "
                          f"greatest values on the grid, {fld.min()} and {fld.max()}, "
                          f"got {args.mu}")
    cfg = {"cmd": "viability", "model": args.model, "grid": args.grid, "mu": args.mu,
           "eps_tan": args.eps_tan, "tol": args.tol, "model_hash": parsed.text_hash()}
    run_dir = _run_dir(args.out, cfg)
    levelset = extract_level_set(fld, args.mu)
    report = check_viability_boundary(parsed.model, levelset, tol=args.tol,
                                      eps_tan=args.eps_tan)
    (run_dir / "report.json").write_text(report.to_json())
    (run_dir / "report.csv").write_text(report.to_csv())
    print(f"boundary nodes: {len(levelset)}, failing: {report.n_fail}, "
          f"inconclusive: {report.n_inconclusive}")
    print(f"report in {run_dir}")
    return EXIT_OK if report.all_pass else EXIT_VERIFICATION


class _FieldValue:
    """Adapter making a computed field usable as a path-statistics candidate."""

    def __init__(self, field: ScalarField, fill: float):
        self.field = field
        self.fill = fill

    def value(self, x):
        return self.field.interpolate(np.asarray(x, dtype=float), fill=self.fill)


def cmd_pipeline(args) -> int:
    _check_steps("--sim-dt", args.sim_dt, ("-T", args.horizon),
                 ("--gauge-horizon", args.gauge_horizon))
    parsed = _load_model(args.model)
    model = parsed.model
    grid = _parse_grid(args.grid, parsed, args.rho)
    inner_radius = _inner_radius(grid)
    cap = args.cap if args.cap is not None else inner_radius
    cfg = {"cmd": "pipeline", "model": args.model, "grid": args.grid, "dt": args.dt,
           "cap": cap, "paths": args.paths, "seed": args.seed, "T": args.horizon,
           "build_gauge": args.build_gauge, "multi_cap": args.multi_cap,
           "model_hash": parsed.text_hash()}
    run_dir = _run_dir(args.out, cfg)
    stages = {}

    def finish(code: int) -> int:
        (run_dir / "pipeline.json").write_text(json.dumps(stages, indent=2, default=str))
        print(f"pipeline artifacts in {run_dir}")
        return code

    # 1. worst-case sup value
    scheme = default_scheme(model, grid, cap=cap, dt=args.dt)
    result = worst_case_sup_value(model, grid, scheme)
    _write_field(run_dir, "sup_value", result)
    stages["value"] = {"converged": result.converged,
                       "iterations": result.field.iterations}
    if not result.converged:
        print("stage value: FAILED (not converged)")
        return finish(EXIT_VERIFICATION)
    print(f"stage value: ok ({result.field.iterations} sweeps)")

    # 2. feedback synthesis
    feedback = synthesize_feedback(model, result.field, scheme)
    (run_dir / "feedback.csv").write_text(feedback.to_csv())
    stages["feedback"] = {"n_controls_used": int(len(np.unique(feedback.control_indices)))}
    print("stage feedback: ok")

    # 3. ensembles over initial radii
    radii = [f * inner_radius for f in (0.25, 0.4, 0.55)]
    x0s = [np.concatenate([[r], np.zeros(model.dim_state - 1)]) for r in radii]
    sim_candidate = parsed.candidate or _FieldValue(result.field, fill=cap)
    ensembles = []
    for i, x0 in enumerate(x0s):
        ens = simulate_ensemble(
            model, x0, dt=args.sim_dt, T=args.horizon, n_paths=args.paths,
            seed=args.seed + i, feedback=feedback, candidate=sim_candidate,
            gauge=parsed.gauge, workers=args.workers,
        )
        ensembles.append(ens)
    n_exited = sum(int(e.exited.sum()) for e in ensembles)
    stages["simulate"] = {"radii": radii, "exited": n_exited,
                          "integrator": ensembles[0].integrator}
    if n_exited:
        print(f"stage simulate: FAILED ({n_exited} paths left the domain)")
        return finish(EXIT_VERIFICATION)
    print("stage simulate: ok")

    # 4. gauges, fitted to the stage-3 ensembles
    stab = estimate_stabilizability_gauge(ensembles)
    decay = estimate_decay_envelope(ensembles)
    stages["gauge"] = {"stabilizability": stab.consistent, "reason": stab.reason,
                       "kappa": decay.kappa, "asymptotic": decay.asymptotic}
    if not stab.consistent:
        print(f"stage gauge: FAILED ({stab.reason})")
        return finish(EXIT_VERIFICATION)
    print(f"stage gauge: ok (kappa={decay.kappa:.3g})")

    # 5. pathwise monotonicity of the candidate along controlled paths
    checks = [check_supermaxingale(e, sim_candidate, parsed.gauge, args.supermax_tol)
              for e in ensembles]
    worst = max(c.worst_excess for c in checks)
    ok = all(c.passed for c in checks)
    stages["supermaxingale"] = {"worst_excess": worst, "passed": ok}
    if not ok:
        print(f"stage supermaxingale: FAILED (excess {worst:.4g})")
        return finish(EXIT_VERIFICATION)
    print(f"stage supermaxingale: ok (excess {worst:.3g})")

    # 6. optional decrease-gauge construction from occupation times
    if args.build_gauge:
        occ_radii = radii[-1] * 2.0 ** (-np.arange(args.gauge_levels + 1))
        occ_ens = [
            simulate_ensemble(model, x0s[-1], dt=args.sim_dt, T=args.gauge_horizon,
                              n_paths=args.paths, seed=args.seed + 500,
                              feedback=feedback, occupation_radii=occ_radii,
                              workers=args.workers)
        ]
        occ = measure_occupation_times(occ_ens, occ_radii)
        try:
            construction = build_decay_gauge(occ)
        except ValueError as err:
            stages["build_gauge"] = {"error": str(err)}
            print(f"stage build-gauge: FAILED ({err})")
            return finish(EXIT_VERIFICATION)
        stages["build_gauge"] = {"budget": construction.budget,
                                 "weights": construction.weights.tolist()}
        print(f"stage build-gauge: ok (budget {construction.budget:.3g})")

    # 7. re-verify the computed field as a candidate (no decrease rate)
    report = check_supersolution(model, result.field, grid, None)
    nodes = grid.nodes()
    rad = np.linalg.norm(nodes[np.linalg.norm(nodes, axis=-1) > grid.rho], axis=-1)
    band = (rad >= 4 * max(grid.spacing)) & (rad <= 0.8 * cap)
    countable = (report.statuses != STATUS_NONFINITE) & band
    frac = float(report.verdicts[countable].mean()) if countable.any() else 0.0
    stages["re_verify"] = {"band_pass_fraction": frac}
    if frac < 0.99:
        print(f"stage re-verify: FAILED (pass fraction {frac:.4f})")
        return finish(EXIT_VERIFICATION)
    print(f"stage re-verify: ok (pass fraction {frac:.4f})")

    # 8. optional monotonicity under a doubled cap
    if args.multi_cap:
        grid2 = Grid(tuple(2 * v for v in grid.lower), tuple(2 * v for v in grid.upper),
                     tuple(2 * c - 1 for c in grid.counts), rho=grid.rho)
        scheme2 = default_scheme(model, grid2, cap=2 * cap, dt=scheme.dt)
        result2 = worst_case_sup_value(model, grid2, scheme2)
        v2_at = result2.field.interpolate(nodes, fill=2 * cap)
        tol = 10 * max(grid.spacing) ** 2 + scheme.tolerance * 10
        ok = bool(np.all(v2_at >= result.field.flat - tol))
        stages["multi_cap"] = {"monotone_in_cap": ok}
        if not ok:
            print("stage multi-cap: FAILED (value not monotone in the cap)")
            return finish(EXIT_VERIFICATION)
        print("stage multi-cap: ok")

    print("pipeline: all stages passed")
    return finish(EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aslyap",
        description="Verify, construct, and empirically validate control Lyapunov "
                    "functions for pathwise-stabilizable controlled diffusions.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, grid=True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func, checks=[])
        sp.add_argument("--model", required=True, help="model file path")
        sp.add_argument("--out", default="runs", help="output directory")
        if grid:
            sp.add_argument("--grid", default=None,
                            help="nodes per axis 'n' / 'n1,n2' or 'lo:hi:n,...'")
            arg(sp, "--rho", type=float, default=None, check=_NONNEGATIVE,
                help="origin exclusion radius (default 2 max spacing)")
        return sp

    def arg(sp, *names, check, **kw):
        """Add a numeric flag with the rule (one of _POSITIVE, ...) that ``main``
        applies to its value, when given, before the command runs."""
        sp.get_default("checks").append((names[0], sp.add_argument(*names, **kw).dest, check))

    def ensemble(sp, horizon, paths):
        arg(sp, "-T", "--horizon", type=float, default=horizon, check=_POSITIVE)
        arg(sp, "--paths", type=int, default=paths, check=_AT_LEAST_1)
        arg(sp, "--seed", type=int, default=0, check=_SEED)
        arg(sp, "--workers", type=int, default=1, check=_AT_LEAST_1)

    sp = command("check", cmd_check, "verify the model's candidate function")
    arg(sp, "--eps-tan", type=float, default=None, check=_NONNEGATIVE)
    arg(sp, "--tol", type=float, default=None, check=_NONNEGATIVE)

    sp = command("value", cmd_value, "compute a worst-case or discounted value field")
    sp.add_argument("kind", choices=["sup", "integral", "discounted"])
    arg(sp, "--dt", type=float, default=None, check=_POSITIVE)
    arg(sp, "--cap", type=float, default=None, check=_POSITIVE,
        help="saturation cap (sup/integral) or ball radius K (discounted)")
    arg(sp, "--tol", type=float, default=1e-6, check=_POSITIVE,
        help="sweep residual tolerance")
    arg(sp, "--lambda", dest="discount", type=float, default=1.0, check=_POSITIVE)
    arg(sp, "--theta", type=float, default=None, check=_POSITIVE)

    sp = command("simulate", cmd_simulate, "run a Milstein (or Euler-Maruyama) ensemble",
                 grid=False)
    sp.add_argument("--x0", required=True, help="initial state, comma separated")
    arg(sp, "--dt", type=float, default=1e-3, check=_POSITIVE)
    ensemble(sp, horizon=10.0, paths=1000)
    sp.add_argument("--increments", choices=["gaussian", "signed-bernoulli"],
                    default="gaussian")
    arg(sp, "--thin", type=int, default=0, check=_NONNEGATIVE, help="store every n-th state")

    sp = command("gauge", cmd_gauge, "fit stabilizability and decay envelopes", grid=False)
    sp.add_argument("--radii", required=True, help="initial radii, comma separated")
    arg(sp, "--dt", type=float, default=1e-3, check=_POSITIVE)
    ensemble(sp, horizon=10.0, paths=1000)

    sp = command("viability", cmd_viability, "boundary viability of a sublevel set")
    arg(sp, "--mu", type=float, required=True, check=_FINITE, help="sublevel of the candidate")
    arg(sp, "--eps-tan", type=float, default=None, check=_NONNEGATIVE)
    arg(sp, "--tol", type=float, default=None, check=_NONNEGATIVE)

    sp = command("pipeline", cmd_pipeline, "value, feedback, ensembles, gauges, re-check")
    arg(sp, "--dt", type=float, default=None, check=_POSITIVE, help="value-iteration step")
    arg(sp, "--sim-dt", type=float, default=1e-3, check=_POSITIVE)
    arg(sp, "--cap", type=float, default=None, check=_POSITIVE)
    ensemble(sp, horizon=8.0, paths=500)
    arg(sp, "--supermax-tol", type=float, default=0.05, check=_NONNEGATIVE)
    sp.add_argument("--build-gauge", action="store_true")
    arg(sp, "--gauge-levels", type=int, default=8, check=_NONNEGATIVE)
    arg(sp, "--gauge-horizon", type=float, default=25.0, check=_POSITIVE)
    sp.add_argument("--multi-cap", action="store_true")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        for flag, dest, (rule, ok) in args.checks:
            value = getattr(args, dest)
            if value is not None and not ok(value):
                raise ConfigError(f"{flag} must be {rule}, got {value}")
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as err:
        # a fault in aslyap itself, not a failed verification (exit 1)
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
