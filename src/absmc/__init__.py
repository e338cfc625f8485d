"""Upper probability bounds for randomized, nondeterministic programs.

Each analysis trial runs the program once over an interval abstraction,
drawing concrete values for random generators outside fixpoint
computations and widening them to their full range inside, then reports
whether the outcome event can be ruled out.  Averaging many independent
trials and applying the Chernoff-Hoeffding inequality yields an upper
bound on the outcome probability that holds with a stated confidence
even under worst-case choices of the unconstrained inputs.
"""

from .concrete import (
    ChoiceSource,
    MissingChoice,
    NondetSpec,
    OracleError,
    OracleReport,
    oracle_estimate,
    run_concrete,
)
from .estimator import (
    Report,
    RestrictionError,
    RestrictionSpec,
    derive_seed,
    hoeffding_margin,
    plan_trials,
    run,
)
from .interp import StepBudgetExceeded, TrialConfig, TrialOutcome, analyze_trial
from .intervals import AbstractEnv, DomainError, Interval, eval_range, filter_env
from .lang import Kind, LangError, Program, parse, to_source

__version__ = "0.1.0"

__all__ = [
    "AbstractEnv",
    "ChoiceSource",
    "DomainError",
    "Interval",
    "Kind",
    "LangError",
    "MissingChoice",
    "NondetSpec",
    "OracleError",
    "OracleReport",
    "Program",
    "Report",
    "RestrictionError",
    "RestrictionSpec",
    "StepBudgetExceeded",
    "TrialConfig",
    "TrialOutcome",
    "analyze_trial",
    "derive_seed",
    "eval_range",
    "filter_env",
    "hoeffding_margin",
    "oracle_estimate",
    "parse",
    "plan_trials",
    "run",
    "run_concrete",
    "to_source",
]
