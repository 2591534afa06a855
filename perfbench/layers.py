"""Metric tables and the per-layer metrics computed from a traced repetition.

END_TO_END and PER_LAYER are the benchmark's metric definitions; the
BENCHMARK.json at the repository root lists the same names and units.  Each
per-layer row also names the end-to-end metric it should move and the
workload where it shows, so that a change to one layer can be checked
against the whole.

Times named ``*_s`` of one function are self times (the span minus the time
its traced children cover).  Times of a whole operation (a value solve, an
ensemble, a verifier check, a pipeline stage) include their children.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import self_time

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SOLVE_OPS = ("integral", "discounted", "sup_aug")
ENSEMBLE_OPS = ("tracked_w1", "tracked_w2", "feedback")
CLI_STAGES = ("value", "feedback", "simulate", "gauge", "supermaxingale", "re_verify",
              "multi_cap")

# name, unit, better, end-to-end metric it moves, workloads where it shows
PER_LAYER = (
    ("model.parse_s", "s", "lower", "setup_s", "all"),
    ("model.drift_calls", "count", "lower", "wall_s", "pipeline >> ensemble"),
    ("model.drift_s", "s", "lower", "wall_s", "pipeline >> ensemble"),
    ("model.sigma_calls", "count", "lower", "wall_s", "pipeline >> ensemble"),
    ("model.sigma_s", "s", "lower", "wall_s", "pipeline >> ensemble"),
    ("model.points_per_call", "points", "higher", "wall_s", "pipeline >> ensemble"),
    ("model.candidate_value_s", "s", "lower", "wall_s", "certify; value only: ensemble"),
    ("model.candidate_grad_hess_s", "s", "lower", "wall_s", "certify"),
    ("model.candidate_points", "count", "lower", "wall_s", "certify"),
    ("gauges.of_points_calls", "count", "lower", "wall_s", "ensemble, pipeline"),
    ("gauges.of_points_s", "s", "lower", "wall_s", "ensemble, pipeline"),
    ("fields.prepare_calls", "count", "lower", "wall_s", "solve"),
    ("fields.prepare_points", "count", "lower", "peak_rss_mb", "solve"),
    ("fields.prepare_s", "s", "lower", "wall_s", "solve"),
    ("fields.apply_calls", "count", "lower", "wall_s", "solve"),
    ("fields.apply_s", "s", "lower", "wall_s", "solve"),
    ("fields.apply_points_per_s", "1/s", "higher", "wall_s", "solve"),
    ("fields.gather_bytes_computed", "bytes", "lower", "wall_s", "solve"),
    ("fields.derivatives_s", "s", "lower", "wall_s", "certify"),
    ("fields.level_set_s", "s", "lower", "wall_s", "certify"),
    *((f"values.solve_s.{k}", "s", "lower", "wall_s", "solve") for k in SOLVE_OPS),
    *((f"values.sweeps.{k}", "count", "lower", "wall_s", "solve") for k in SOLVE_OPS),
    *((f"values.ms_per_sweep.{k}", "ms", "lower", "wall_s", "solve") for k in SOLVE_OPS),
    ("values.node_sweeps_per_s", "1/s", "higher", "wall_s", "solve"),
    ("values.feedback_s", "s", "lower", "wall_s", "solve; small on pipeline"),
    ("values.unconverged", "count", "lower", "fail_rate", "solve"),
    *((f"simulate.ensemble_s.{k}", "s", "lower", "wall_s", "ensemble") for k in ENSEMBLE_OPS),
    *((f"simulate.path_steps_per_s.{k}", "1/s", "higher", "wall_s", "ensemble")
      for k in ENSEMBLE_OPS),
    ("simulate.w2_speedup", "ratio", "higher", "wall_s", "ensemble"),
    ("simulate.lookup_calls", "count", "lower", "wall_s", "pipeline, ensemble"),
    ("simulate.lookup_s", "s", "lower", "wall_s", "pipeline, ensemble"),
    ("simulate.envelope_s", "s", "lower", "wall_s", "pipeline"),
    ("simulate.exited_paths", "count", "lower", "fail_rate", "ensemble, pipeline"),
    ("simulate.digest_mismatch", "count", "lower", "fail_rate", "ensemble, pipeline"),
    ("verifier.supersolution_s", "s", "lower", "wall_s", "certify; under 1 % on pipeline"),
    ("verifier.change_of_unknown_s", "s", "lower", "wall_s", "certify"),
    ("verifier.radial_s", "s", "lower", "wall_s", "certify"),
    ("verifier.viability_s", "s", "lower", "wall_s", "certify"),
    ("verifier.set_lyapunov_s", "s", "lower", "wall_s", "certify"),
    ("verifier.nodes_checked", "count", "lower", "wall_s", "certify"),
    ("verifier.nodes_per_s", "1/s", "higher", "wall_s", "certify"),
    *((f"cli.stage_s.{k}", "s", "lower", "wall_s", "pipeline") for k in CLI_STAGES),
    ("oracle_err", "1", "lower", "fail_rate", "all"),
    ("trace.overhead_s", "s", "lower", "wall_s", "all"),
)


# ------------------------------------------------------------ span measures

def _points(args, kwargs, result):
    x = np.asarray(args[1])
    return int(np.prod(x.shape[:-1])) if x.ndim else 1


def _apply(args, kwargs, result):
    idx, wts, inside = args[2][:3]
    values = args[1]
    n = idx.shape[0]
    # computed from array sizes: indices, weights and gathered values, the
    # in-box mask, and the output; cache misses are not counted
    gathered = idx.nbytes + wts.nbytes + idx.size * values.itemsize + inside.nbytes + n * 8
    return (n, gathered)


def _value_solve(args, kwargs, result):
    res = result[0] if isinstance(result, tuple) else result
    return (res.field.grid.n_nodes, res.field.iterations, bool(res.converged))


def _ensemble(args, kwargs, result):
    steps = len(result.timeline_times) - 1
    return (result.n_paths * steps, int(result.exited.sum()))


def _report_nodes(args, kwargs, result):
    return len(result.verdicts)


# module, function or Class.method, span name, measure
TARGETS = (
    ("aslyap.model", "parse_model", "model.parse_model", None),
    ("aslyap.model", "ControlledDiffusion.drift", "model.drift", _points),
    ("aslyap.model", "ControlledDiffusion.sigma", "model.sigma", _points),
    ("aslyap.model", "CandidateFunction.value", "model.candidate.value", _points),
    ("aslyap.model", "CandidateFunction.gradient", "model.candidate.gradient", _points),
    ("aslyap.model", "CandidateFunction.hessian", "model.candidate.hessian", _points),
    ("aslyap.gauges", "GaugeFunction.of_points", "gauges.of_points", None),
    ("aslyap.fields", "BoxInterpolator.prepare", "fields.prepare", _points),
    ("aslyap.fields", "BoxInterpolator.apply", "fields.apply", _apply),
    ("aslyap.fields", "gradient_field", "fields.gradient_field", None),
    ("aslyap.fields", "hessian_field", "fields.hessian_field", None),
    ("aslyap.fields", "extract_level_set", "fields.extract_level_set", None),
    ("aslyap.values", "worst_case_sup_value", "values.sup", _value_solve),
    ("aslyap.values", "worst_case_integral_value", "values.integral", _value_solve),
    ("aslyap.values", "discounted_value_and_prop_set", "values.discounted", _value_solve),
    ("aslyap.values", "synthesize_feedback", "values.synthesize_feedback", None),
    ("aslyap.values", "FeedbackMap.lookup", "simulate.lookup", None),
    ("aslyap.simulate", "simulate_ensemble", "simulate.ensemble", _ensemble),
    ("aslyap.simulate", "estimate_stabilizability_gauge", "simulate.estimate_stabilizability",
     None),
    ("aslyap.simulate", "estimate_decay_envelope", "simulate.estimate_decay", None),
    ("aslyap.verifier", "check_supersolution", "verifier.supersolution", _report_nodes),
    ("aslyap.verifier", "check_change_of_unknown", "verifier.change_of_unknown", None),
    ("aslyap.verifier", "radial_sufficient_check", "verifier.radial", _report_nodes),
    ("aslyap.verifier", "check_viability_boundary", "verifier.viability", _report_nodes),
    ("aslyap.verifier", "check_set_lyapunov", "verifier.set_lyapunov", _report_nodes),
)

_SOLVES = ("values.sup", "values.integral", "values.discounted")
_CANDIDATE = ("model.candidate.value", "model.candidate.gradient", "model.candidate.hessian")


def per_layer_metrics(spans, stage_s: dict, oracle_err: float, overhead_s: float,
                      digest_mismatch: int) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of one traced repetition."""
    by_id = {s.sid: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def self_s(*names):
        return sum(self_time(s, children[s.sid]) for n in names for s in by_name[n])

    def total_s(spans_):
        return sum(s.duration for s in spans_)

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p else ""

    def op_label(s):
        while s is not None and not s.name.startswith("op."):
            s = by_id.get(s.parent)
        return s.name[3:] if s is not None else None

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    m["model.parse_s"] = self_s("model.parse_model")
    evals = by_name["model.drift"] + by_name["model.sigma"]
    for name in ("drift", "sigma"):
        m[f"model.{name}_calls"] = len(by_name[f"model.{name}"])
        m[f"model.{name}_s"] = self_s(f"model.{name}")
    m["model.points_per_call"] = rate(sum(s.info or 0 for s in evals), len(evals))
    m["model.candidate_value_s"] = self_s("model.candidate.value")
    m["model.candidate_grad_hess_s"] = self_s("model.candidate.gradient",
                                              "model.candidate.hessian")
    m["model.candidate_points"] = sum(
        s.info or 0 for n in _CANDIDATE for s in by_name[n] if parent_name(s) not in _CANDIDATE)

    m["gauges.of_points_calls"] = len(by_name["gauges.of_points"])
    m["gauges.of_points_s"] = self_s("gauges.of_points")

    m["fields.prepare_calls"] = len(by_name["fields.prepare"])
    m["fields.prepare_points"] = sum(s.info or 0 for s in by_name["fields.prepare"])
    m["fields.prepare_s"] = self_s("fields.prepare")
    applies = by_name["fields.apply"]
    m["fields.apply_calls"] = len(applies)
    m["fields.apply_s"] = self_s("fields.apply")
    m["fields.apply_points_per_s"] = rate(sum(s.info[0] for s in applies if s.info),
                                          m["fields.apply_s"])
    m["fields.gather_bytes_computed"] = sum(s.info[1] for s in applies if s.info)
    m["fields.derivatives_s"] = self_s("fields.gradient_field", "fields.hessian_field")
    m["fields.level_set_s"] = self_s("fields.extract_level_set")

    # a sweep phase starts at the first operator apply, after stencil set-up
    solves = [s for n in _SOLVES for s in by_name[n] if s.info]

    def sweep_phase(s):
        starts = [c.start for c in children[s.sid] if c.name == "fields.apply"]
        return s.end - min(starts) if starts else 0.0

    for key in SOLVE_OPS:
        mine = [s for s in solves if op_label(s) == key]
        sweeps = sum(s.info[1] for s in mine)
        m[f"values.solve_s.{key}"] = total_s(mine)
        m[f"values.sweeps.{key}"] = sweeps
        m[f"values.ms_per_sweep.{key}"] = 1000 * rate(sum(sweep_phase(s) for s in mine), sweeps)
    m["values.node_sweeps_per_s"] = rate(sum(s.info[0] * s.info[1] for s in solves),
                                         sum(sweep_phase(s) for s in solves))
    m["values.feedback_s"] = total_s(by_name["values.synthesize_feedback"])
    m["values.unconverged"] = sum(1 for s in solves if not s.info[2])

    ensembles = [s for s in by_name["simulate.ensemble"] if s.info]
    for key in ENSEMBLE_OPS:
        mine = [s for s in ensembles if op_label(s) == key]
        m[f"simulate.ensemble_s.{key}"] = total_s(mine)
        m[f"simulate.path_steps_per_s.{key}"] = rate(sum(s.info[0] for s in mine), total_s(mine))
    m["simulate.w2_speedup"] = rate(m["simulate.ensemble_s.tracked_w1"],
                                    m["simulate.ensemble_s.tracked_w2"])
    m["simulate.lookup_calls"] = len(by_name["simulate.lookup"])
    m["simulate.lookup_s"] = self_s("simulate.lookup")
    m["simulate.envelope_s"] = self_s("simulate.estimate_stabilizability",
                                      "simulate.estimate_decay")
    m["simulate.exited_paths"] = sum(s.info[1] for s in ensembles)
    m["simulate.digest_mismatch"] = digest_mismatch

    # a check nested in another check (change of unknown) counts once, as the outer one
    outer = defaultdict(list)
    for s in spans:
        if s.name.startswith("verifier.") and not parent_name(s).startswith("verifier."):
            outer[s.name].append(s)
    for key in ("supersolution", "change_of_unknown", "radial", "viability", "set_lyapunov"):
        m[f"verifier.{key}_s"] = total_s(outer[f"verifier.{key}"])
    m["verifier.nodes_checked"] = sum(s.info or 0 for s in spans
                                      if s.name.startswith("verifier."))
    m["verifier.nodes_per_s"] = rate(m["verifier.nodes_checked"],
                                     sum(total_s(v) for v in outer.values()))

    for key in CLI_STAGES:
        m[f"cli.stage_s.{key}"] = stage_s.get(key, 0.0)
    m["oracle_err"] = oracle_err
    m["trace.overhead_s"] = overhead_s
    return {name: float(m[name]) for name, *_ in PER_LAYER}
