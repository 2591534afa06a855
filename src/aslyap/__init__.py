"""Numerical toolkit for control Lyapunov functions of controlled diffusions
under almost-sure (pathwise) stabilizability.

Pieces: a model DSL for finite-control degenerate diffusions, a pointwise
verifier for the tangency-constrained decrease inequality, worst-case value
constructions that build candidate functions from the dynamics, and a
Milstein / Euler-Maruyama lab for pathwise validation.
"""

from .expr import ExprError, parse_expr
from .fields import BoxInterpolator, Grid, LevelSet, ScalarField, extract_level_set
from .gauges import ComparisonGauge, GaugeFunction
from .model import (
    CandidateFunction,
    Control,
    ControlledDiffusion,
    ModelError,
    ParsedModel,
    eval_a,
    parse_model,
    serialize_model,
)
from .simulate import (
    TrajectoryEnsemble,
    build_decay_gauge,
    check_supermaxingale,
    empirical_viability,
    estimate_decay_envelope,
    estimate_stabilizability_gauge,
    measure_occupation_times,
    simulate_ensemble,
)
from .values import (
    FeedbackMap,
    NumericalError,
    RobustScheme,
    default_scheme,
    discounted_value_and_prop_set,
    extended_system,
    step,
    synthesize_feedback,
    worst_case_integral_value,
    worst_case_sup_value,
)
from .verifier import (
    VerificationReport,
    check_change_of_unknown,
    check_geometric_invariance,
    check_set_lyapunov,
    check_supersolution,
    check_viability_boundary,
    radial_sufficient_check,
)

__version__ = "0.1.0"

__all__ = [
    "ExprError",
    "parse_expr",
    "Grid",
    "ScalarField",
    "LevelSet",
    "BoxInterpolator",
    "extract_level_set",
    "GaugeFunction",
    "ComparisonGauge",
    "ModelError",
    "Control",
    "ControlledDiffusion",
    "CandidateFunction",
    "ParsedModel",
    "parse_model",
    "serialize_model",
    "eval_a",
    "VerificationReport",
    "check_supersolution",
    "radial_sufficient_check",
    "check_geometric_invariance",
    "check_change_of_unknown",
    "check_viability_boundary",
    "check_set_lyapunov",
    "NumericalError",
    "RobustScheme",
    "default_scheme",
    "step",
    "worst_case_sup_value",
    "worst_case_integral_value",
    "discounted_value_and_prop_set",
    "FeedbackMap",
    "synthesize_feedback",
    "extended_system",
    "TrajectoryEnsemble",
    "simulate_ensemble",
    "estimate_stabilizability_gauge",
    "estimate_decay_envelope",
    "measure_occupation_times",
    "build_decay_gauge",
    "check_supermaxingale",
    "empirical_viability",
]
