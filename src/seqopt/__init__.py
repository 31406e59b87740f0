"""Exactly optimal sequential hypothesis testing on finite alphabets.

Models a sequential experiment over a finite parameter set: observations
arrive one at a time, a randomized stopping rule decides after each whether
to continue, and a terminal rule picks a decision. The package computes
optimal procedures by backward induction, evaluates any procedure's exact
operating characteristics, matches error constraints with Lagrange
multipliers or SPRT thresholds, and cross-checks everything by simulation.
"""

from .backward_induction import (
    ValueTables,
    should_take_observations,
    solve_limit,
    solve_truncated,
)
from .bayes_decision import HistoryTable, stagewise_bayes_risk
from .config import load_problem, problem_to_dict
from .errors import (
    BudgetExceededError,
    ConfigError,
    InfeasibleTargetsError,
    InvalidProblemError,
    KernelDomainError,
    SeqOptError,
    UnreachableTargetsError,
)
from .histories import CountStateSpace, TreeStateSpace, state_space
from .lagrange import (
    MultiplierSearchResult,
    SearchConfig,
    lagrangian,
    match_constraints,
    weighted_problem,
)
from .model import (
    ConstraintSpec,
    CostSpec,
    LossSpec,
    ObservationModel,
    ParameterSpace,
    Priors,
    Problem,
    iid_problem,
    validate_problem,
    zero_one_loss,
)
from .monte_carlo import SimConfig, SimResult, simulate
from .risk_evaluation import (
    RiskReport,
    TruncatabilityDiagnostic,
    evaluate,
    truncatability_diagnostic,
)
from .sprt import (
    SprtOC,
    SprtSpec,
    continuation_is_interval,
    llr_by_state,
    llr_increments,
    match_sprt_errors,
    sprt_operating_characteristics,
    sprt_rule,
)
from .stopping_policy import (
    DecisionStrategy,
    SandwichViolation,
    StoppingRule,
    extract_rule,
    reachable_sets,
    rule_from_csv,
    sandwich_check,
    truncate_rule,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BudgetExceededError",
    "ConfigError",
    "ConstraintSpec",
    "CostSpec",
    "CountStateSpace",
    "DecisionStrategy",
    "HistoryTable",
    "InfeasibleTargetsError",
    "InvalidProblemError",
    "KernelDomainError",
    "LossSpec",
    "MultiplierSearchResult",
    "ObservationModel",
    "ParameterSpace",
    "Priors",
    "Problem",
    "RiskReport",
    "SandwichViolation",
    "SearchConfig",
    "SeqOptError",
    "SimConfig",
    "SimResult",
    "SprtOC",
    "SprtSpec",
    "StoppingRule",
    "TreeStateSpace",
    "TruncatabilityDiagnostic",
    "UnreachableTargetsError",
    "ValueTables",
    "continuation_is_interval",
    "evaluate",
    "extract_rule",
    "iid_problem",
    "lagrangian",
    "llr_by_state",
    "llr_increments",
    "load_problem",
    "match_constraints",
    "match_sprt_errors",
    "problem_to_dict",
    "reachable_sets",
    "rule_from_csv",
    "sandwich_check",
    "should_take_observations",
    "simulate",
    "solve_limit",
    "solve_truncated",
    "sprt_operating_characteristics",
    "sprt_rule",
    "stagewise_bayes_risk",
    "state_space",
    "truncatability_diagnostic",
    "truncate_rule",
    "validate_problem",
    "weighted_problem",
    "zero_one_loss",
]
