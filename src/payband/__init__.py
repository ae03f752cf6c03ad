"""Simulation framework for payment-incentivized exploration in linear
contextual bandits.

A platform displays per-arm attribute estimates and payment vectors to
myopic agents, learns the attributes from the observed choices, and tracks
cumulative regret and payments across several payment strategies.
"""

from .linalg import SingularMatrixError, min_eig_sym
from .model import InstanceSpec, RoundRecord, agent_choose, unit_ball_projection
from .estimation import EstimatorState, confidence_width
from .environment import (
    BanditDataset,
    DatasetReplaySpec,
    ExhaustedSequenceError,
    FixedSequenceSpec,
    GaussianContextSpec,
    covariate_diversity_report,
    load_dataset_csv,
)
from .policies import (
    POLICY_KINDS,
    Policy,
    PolicyConfig,
    build_chain,
    build_policy,
    chained_payment,
    initial_exploration,
)
from .metrics import (
    AggregateCurves,
    MixedConfigError,
    RunTrace,
    accumulate,
    aggregate,
    payment_bound_ratio,
)
from .harness import (
    ExperimentConfig,
    child_seed_sequence,
    load_config_file,
    run_experiment,
    run_single,
    validate_config_data,
)

__version__ = "0.1.0"

__all__ = [
    "SingularMatrixError", "min_eig_sym",
    "InstanceSpec", "RoundRecord", "agent_choose", "unit_ball_projection",
    "EstimatorState", "confidence_width",
    "BanditDataset", "DatasetReplaySpec", "ExhaustedSequenceError", "load_dataset_csv",
    "FixedSequenceSpec", "GaussianContextSpec", "covariate_diversity_report",
    "POLICY_KINDS", "Policy", "PolicyConfig", "build_chain", "build_policy",
    "chained_payment", "initial_exploration",
    "AggregateCurves", "MixedConfigError", "RunTrace", "accumulate",
    "aggregate", "payment_bound_ratio",
    "ExperimentConfig", "child_seed_sequence", "load_config_file",
    "run_experiment", "run_single", "validate_config_data",
    "__version__",
]
