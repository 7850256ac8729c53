"""Multi-objective distributional RL with a priority preorder over objectives.

The pieces compose bottom-up: :mod:`preorder` validates the priority
DAG, :mod:`relations` classifies action pairs on raw reward vectors,
:mod:`comparators` scores actions from quantile estimates, and
:mod:`selection` runs the comparator down the preorder to produce the
survivor sets a policy may play.  :mod:`learner` trains tabular
quantile tensors on the worlds in :mod:`envs`; :mod:`stats`,
:mod:`plots`, :mod:`config`, :mod:`artifacts` and :mod:`runner` handle
experiment orchestration, and :mod:`cli` exposes it all as subcommands.
"""

from .comparators import (
    ComparatorConfig,
    HeadStack,
    PairwiseDecision,
    QuantileMatrix,
    action_scores,
    classify_pairs,
    ideal_profile,
    midpoint_fractions,
    qd,
    w1_to_ideal,
    zscore_normalize,
)
from .envs import ChainMDP, ConflictBandit, CrossingGrid, EnvSpec, StepResult, make_env
from .errors import (
    ConfigError,
    CycleError,
    EmptySetError,
    LengthMismatch,
    MissingArtifact,
    ShapeMismatch,
)
from .learner import (
    EpisodeRecord,
    EpsilonSchedule,
    LearnerConfig,
    QuantileTensor,
    VectorTransition,
    act,
    evaluate,
    greedy_target_action,
    td_update,
    train,
)
from .preorder import PreorderGraph, build_graph
from .relations import ActionRelation, oracle_survivors, relate
from .selection import (
    SelectionState,
    aggregate_survivor_sets,
    global_leaf_survivors,
    sample_action,
    select,
)
from .stats import bootstrap_ci, iqm, optimality_gap, prob_improvement

__version__ = "0.1.0"

__all__ = [
    "ActionRelation",
    "ChainMDP",
    "ComparatorConfig",
    "ConfigError",
    "ConflictBandit",
    "CrossingGrid",
    "CycleError",
    "EmptySetError",
    "EnvSpec",
    "EpisodeRecord",
    "EpsilonSchedule",
    "HeadStack",
    "LearnerConfig",
    "LengthMismatch",
    "MissingArtifact",
    "PairwiseDecision",
    "PreorderGraph",
    "QuantileMatrix",
    "QuantileTensor",
    "SelectionState",
    "ShapeMismatch",
    "StepResult",
    "VectorTransition",
    "act",
    "action_scores",
    "aggregate_survivor_sets",
    "bootstrap_ci",
    "build_graph",
    "classify_pairs",
    "evaluate",
    "global_leaf_survivors",
    "greedy_target_action",
    "ideal_profile",
    "iqm",
    "make_env",
    "midpoint_fractions",
    "optimality_gap",
    "oracle_survivors",
    "prob_improvement",
    "qd",
    "relate",
    "sample_action",
    "select",
    "td_update",
    "train",
    "w1_to_ideal",
    "zscore_normalize",
]
