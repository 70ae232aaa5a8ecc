"""Analysis of pushdown processes up to bisimilarity.

The package decides bounded-round equivalence games between configurations,
decides exactly whether a configuration is bisimilar to a state of a given
finite system, and runs a pair of semidecision procedures for the question
"does any finite system behave like this configuration", producing
machine-checkable certificates either way.
"""

from .config import AnalysisConfig
from .errors import BudgetError, InputError
from .lts import (
    EqLevelResult,
    FiniteLts,
    FiniteLtsOracle,
    GameContext,
    Strategy,
    bounded_bisim,
    eqlevel,
    quotient_finite,
    region,
)
from .pda import (
    Config,
    Pda,
    PdaOracle,
    Rule,
    StackWord,
    canonicalize,
    normalize_rules,
    step,
    validate_config,
)
from .reachability import ConfigAutomaton, completion, poststar, reachable_truncations
from .transformers import compute_transformers, apply_set_transformer, period_iteration
from .equivalence import (
    BisimCertificate,
    FiniteComparison,
    absorb_dead_tail,
    bisim_pda_vs_finite,
    certify_bisimilar,
    check_coverage,
    eqlevel_configs,
    limit_level_bound,
)
from .regularity import (
    LoopCandidate,
    NonRegularityEvidence,
    NormedEvidence,
    PumpBound,
    StairSearch,
    Verdict,
    Witness,
    WitnessCheck,
    decide_regularity,
    pump_bound,
    verify_witness,
)
from . import certs

__all__ = [
    "AnalysisConfig",
    "BisimCertificate",
    "BudgetError",
    "Config",
    "ConfigAutomaton",
    "EqLevelResult",
    "FiniteComparison",
    "FiniteLts",
    "FiniteLtsOracle",
    "GameContext",
    "InputError",
    "LoopCandidate",
    "NonRegularityEvidence",
    "NormedEvidence",
    "Pda",
    "PdaOracle",
    "PumpBound",
    "Rule",
    "StackWord",
    "StairSearch",
    "Strategy",
    "Verdict",
    "Witness",
    "WitnessCheck",
    "absorb_dead_tail",
    "apply_set_transformer",
    "bisim_pda_vs_finite",
    "bounded_bisim",
    "canonicalize",
    "certify_bisimilar",
    "certs",
    "check_coverage",
    "completion",
    "compute_transformers",
    "decide_regularity",
    "eqlevel",
    "eqlevel_configs",
    "limit_level_bound",
    "normalize_rules",
    "period_iteration",
    "poststar",
    "pump_bound",
    "quotient_finite",
    "region",
    "reachable_truncations",
    "step",
    "validate_config",
    "verify_witness",
]
