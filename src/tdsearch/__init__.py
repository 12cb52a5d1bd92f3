"""Temporal-difference learning for evaluation functions inside minimax search.

The package bundles small two-player perfect-information games, a negamax
search engine with principal-variation extraction, linear evaluation with
tanh squashing, TD(lambda) / TDLeaf(lambda) weight updates, and an arena for
rated training runs against graded opponent pools.
"""

from tdsearch.games import GAMES, Side
from tdsearch.search import SearchResult, TieBreakPolicy, alphabeta, minimax
from tdsearch.evaluation import (
    FeatureSet,
    SquashConfig,
    WeightVector,
    feature_set,
    grad_squashed,
    raw_eval,
    squash,
)
from tdsearch.learner import (
    AlphaSchedule,
    ClipPolicy,
    GameTrace,
    LearnerConfig,
    StepRecord,
    TemporalDifference,
    discounted_difference_sums,
    td_update,
    tdleaf_update,
    temporal_differences,
)

__version__ = "0.1.0"
