#!/usr/bin/env python3
"""aslyap benchmark: four workloads, end-to-end metrics, traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: ``solve`` (value engine), ``ensemble`` (stochastic lab, large
batches), ``pipeline`` (the ``aslyap pipeline`` command, small batches) and
``certify`` (verifier); see workloads.py for why each exists.  ``all``
runs the four one after the other, each in a fresh process.

One run is one fresh process.  It measures set-up (importing numpy and
aslyap, parsing the model files, building the grids) in itself and in
PROBES fresh probe processes, then repeats the workload for ``--seconds``
(at least MIN_REPS times).  Every repetition checks its outputs against
closed-form oracles and SHA-256 digests; a digest that differs from the
first repetition fails that operation.  With ``--trace 1`` one more
repetition runs with aslyap's public functions wrapped, its spans are
written to ``.perfbench/`` and the per-layer metrics are reported; its
digests must equal the untraced ones.

Output: a human-readable summary, a ``report {...}`` JSON line (machine
facts, seed, workers, digests, oracle error, tracing overhead, quartiles)
and, as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` runs tiny sizes for the benchmark's tests:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("solve", "ensemble", "pipeline", "certify")
# the machine has 2 cores: the ensemble's 2 workers are the only parallelism
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBES = 4
MIN_REPS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def summarize(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    if n > 10:
        k = n - 11  # xs[k] has exactly ten samples above it
        tail = {"percentile": 100.0 * (k + 1) / n, "value": xs[k]}
    quartiles = statistics.quantiles(xs, n=4) if n > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "tail": tail, "n": n,
            "q1": quartiles[0], "q3": quartiles[2]}


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": version("scipy"), "threads_env": THREAD_ENV}


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def check_digests(rep, reference: dict) -> int:
    """Fail each operation whose digests differ from the reference repetition."""
    bad = [key for key, d in rep.digests.items() if reference.get(key, d) != d]
    for key in bad:
        rep.check(key.split("/")[0], False, f"digest {key} differs between repetitions")
    return len(bad)


def run(args) -> dict:
    size = "smoke" if args.smoke else "full"
    setup_s = [] if args.trace else [probe_setup(args) for _ in range(PROBES)]
    t0 = time.perf_counter()
    import workloads

    state = workloads.setup(args.workload, ROOT, size)
    setup_s.append(time.perf_counter() - t0)
    workload = workloads.WORKLOADS[args.workload]

    reps = []
    start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        rep = workloads.run_rep(workload, state, args.seed)
        if reps:
            check_digests(rep, reps[0].digests)
        reps.append(rep)
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now - start + (now - t_rep) > args.seconds:
            break

    result = {"reps": reps, "setup_s": setup_s, "workload": workload, "size": size,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        result.update(run_traced(args, workload, size, reps))
    return result


def run_traced(args, workload, size, reps) -> dict:
    import layers
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    try:
        with tracer.span("setup"):
            state = workloads.setup(args.workload, ROOT, size)
        rep = workloads.run_rep(workload, state, args.seed, tracer=tracer)
    finally:
        tracer.uninstall()
    mismatch = check_digests(rep, reps[0].digests)
    overhead = rep.wall_s - statistics.median(r.wall_s for r in reps)
    per_layer = layers.per_layer_metrics(tracer.spans, rep.stage_s, rep.oracle_err,
                                         overhead, mismatch)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "per_layer": per_layer})
    return {"traced": rep, "per_layer": per_layer, "overhead_s": overhead,
            "spans_file": str(path.relative_to(ROOT)), "run_id": tracer.run_id,
            "n_spans": len(tracer.spans)}


def report(args, res) -> tuple[dict, dict]:
    import layers

    reps = res["reps"]
    all_reps = reps + ([res["traced"]] if "traced" in res else [])
    attempted = sum(len(r.ops) for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    samples = {
        "wall_s": [r.wall_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "setup_s": res["setup_s"],
        "peak_rss_mb": [res["peak_rss_mb"]],
    }
    units = {name: unit for name, unit, _ in layers.END_TO_END}
    e2e = {name: {"unit": units[name], **summarize(v)} for name, v in samples.items()}
    if args.trace:
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]} for k, v in e2e.items()}
    full = {
        "workload": args.workload, "why": res["workload"].why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": res["size"],
        "machine": machine_facts(),
        "end_to_end": e2e,
        "fail_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        # the same in every repetition: solves are deterministic, ensembles reproducible
        "oracle_err": {"value": max(r.oracle_err for r in all_reps), "unit": "1",
                       "n": len(all_reps), "distinct": len({r.oracle_err for r in all_reps})},
        "workers": reps[0].workers,
        "digests": reps[0].digests,
        "sections_s": [r.section_s for r in reps],
        "stage_s": [r.stage_s for r in reps] if reps[0].stage_s else None,
        "failures": {op: f for r in all_reps for op, f in r.ops.items() if f},
    }
    if args.trace:
        full["tracing"] = {k: res[k] for k in ("overhead_s", "spans_file", "run_id", "n_spans")}
        full["tracing"]["digests_equal_untraced"] = res["per_layer"]["simulate.digest_mismatch"] == 0
        full["layer_map"] = {name: {"moves": moves, "on": on}
                             for name, _, _, moves, on in layers.PER_LAYER}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return full, line


def print_summary(full):
    print(f"workload {full['workload']}  seed {full['seed']}  size {full['size']}  "
          f"nproc {full['machine']['nproc']}  workers {full['workers']}")
    for name, s in full["end_to_end"].items():
        tail = (f"p{s['tail']['percentile']:.1f} {s['tail']['value']:.6g}" if s["tail"]
                else "p- (n<11)")
        print(f"  {name:<12} {s['median']:>12.6g} {s['unit']:<3} median  {tail}  n={s['n']}")
    f, o = full["fail_rate"], full["oracle_err"]
    print(f"  {'fail_rate':<12} {f['value']:>12.6g} 1   {f['failed']} of {f['attempted']} "
          f"operations failed")
    print(f"  {'oracle_err':<12} {o['value']:>12.6g} {o['unit']:<3} max  n={o['n']}")
    if "tracing" in full:
        t = full["tracing"]
        print(f"  tracing overhead {t['overhead_s']:.4g} s, {t['n_spans']} spans in "
              f"{t['spans_file']}")
    for op, failures in full["failures"].items():
        print(f"  FAILED {op}: {'; '.join(failures)}")


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    lines = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        out = done.stdout.strip().splitlines()
        if done.returncode != 0 or not out:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        print("\n".join(out[:-1]))
        lines[name] = json.loads(out[-1])
    print(json.dumps(lines))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aslyap" / "__init__.py").is_file() or \
            not (ROOT / "models" / "rotational.model").is_file():
        print(f"perfbench: no aslyap source tree (src/aslyap, models/) under {ROOT}",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        workloads.setup(args.workload, ROOT, "smoke" if args.smoke else "full")
        print(time.perf_counter() - t0)
        return 0
    if args.workload == "all":
        return run_all(args)
    full, line = report(args, run(args))
    print_summary(full)
    print("report " + json.dumps(full, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
