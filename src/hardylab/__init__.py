"""Weighted means, their best Hardy-type constants, and structural checks."""

from .scalars import Number, format_number, is_exact, json_ready, parse_number
from .kernel import (AxiomReport, CheckOutcome, MeanDomainError, MeanFlags,
                     MeanSpec, StepFunction, check_axioms, evaluate,
                     interval_mean, replay_axiom, shuffle, step_profile)
from .families import (GeneratorHandle, builtin_generator, make_generator,
                       parse_mean, power, power_mean, quasiarithmetic,
                       quasiarithmetic_mean)
from .weights import (RatioReport, WeightSeq, coarsen, is_coarsening_of,
                      make_sequence, random_rational_sequence, ratio_diagnostics,
                      term_ratios)
from .search import (OptimizerConfig, SearchResult, hardy_ratio, maximize_hardy_ratio,
                     prefix_means)
from .hardy import (HardyEstimate, HypothesisViolation, InconclusiveError,
                    arithmetic_hardy, copson_constant, finite_lower_bound,
                    kedlaya_estimate, kedlaya_sequence, unweighted_limit)
from .checks import (CheckReport, ExpansionBudgetError, LscReport,
                     RearrangementResult, equal_sum_rearrangement, jcin_sweep,
                     lsc_example_table, mu1_sweep, verify_cut,
                     verify_decreasing, verify_jcin)

__version__ = "0.1.0"

__all__ = [
    "Number", "format_number", "is_exact", "json_ready", "parse_number",
    "AxiomReport", "CheckOutcome", "MeanDomainError", "MeanFlags", "MeanSpec",
    "StepFunction", "check_axioms", "evaluate", "interval_mean",
    "replay_axiom", "shuffle", "step_profile",
    "GeneratorHandle", "builtin_generator", "make_generator", "parse_mean",
    "power", "power_mean", "quasiarithmetic", "quasiarithmetic_mean",
    "RatioReport", "WeightSeq", "coarsen", "is_coarsening_of",
    "make_sequence", "random_rational_sequence", "ratio_diagnostics",
    "term_ratios",
    "OptimizerConfig", "SearchResult", "hardy_ratio", "maximize_hardy_ratio",
    "prefix_means",
    "HardyEstimate", "HypothesisViolation", "InconclusiveError",
    "arithmetic_hardy", "copson_constant", "finite_lower_bound",
    "kedlaya_estimate", "kedlaya_sequence", "unweighted_limit",
    "CheckReport", "ExpansionBudgetError", "LscReport", "RearrangementResult",
    "equal_sum_rearrangement", "jcin_sweep", "lsc_example_table", "mu1_sweep",
    "verify_cut", "verify_decreasing", "verify_jcin",
]
