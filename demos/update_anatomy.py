"""
Anatomy of one weight update
============================

Builds a two-step game trace by hand and walks through every quantity the
learner derives from it: per-step value differences, the discounted suffix
sums, and the final weight movement.
"""

import numpy as np

from tdsearch.games.base import WIN, Side
from tdsearch.learner import (
    AlphaSchedule,
    GameTrace,
    LearnerConfig,
    StepRecord,
    discounted_difference_sums,
    tdleaf_delta,
    temporal_differences,
)


def step(features, value):
    phi = np.asarray(features, dtype=np.float64)
    return StepRecord(root=None, leaf=None, pv=(), leaf_features=phi,
                      value=value, raw_value=value,
                      opponent_move_predicted=False, opponent_rating_lower=False)


# Two decisions with a unit feature on a different axis each, both valued
# 0.0 at search time, and then the game is won.
trace = GameTrace(
    agent_side=Side.WHITE,
    steps=(step([1.0, 0.0], 0.0), step([0.0, 1.0], 0.0)),
    outcome=WIN,
)
cfg = LearnerConfig(lambda_=0.7, alpha=AlphaSchedule(base=1.0),
                    squash=False)

# Differences: value[t+1] - value[t], with the final reward standing in as
# the value after the last step.  Here: [0 - 0, 1 - 0].
diffs = temporal_differences(trace, cfg)
print("differences:   ", diffs)

# Each step then accumulates its future differences, discounted by lambda
# per step of distance: sums[t] = sum_j lambda^(j-t) * d[j].
sums = discounted_difference_sums(diffs, cfg.lambda_)
print("suffix sums:   ", sums)

# The weight movement is alpha * sum_t sums[t] * gradient[t].  With unit
# features and no squashing the gradients select one axis per step, so the
# delta just reproduces the suffix sums.  Each gradient is taken at the
# stored value, so the update needs only the trace and the number of
# weights (2 here), not the weights themselves.
delta = tdleaf_delta(trace, cfg, 2)
print("weight delta:  ", [float(x) for x in delta])

# Lowering lambda shortens the credit horizon: at 0 each decision only sees
# the very next difference, at 1 every decision absorbs the final result.
for lam in (0.0, 0.5, 1.0):
    cfg_lam = LearnerConfig(lambda_=lam, alpha=AlphaSchedule(base=1.0),
                            squash=False)
    d = tdleaf_delta(trace, cfg_lam, 2)
    print(f"lambda {lam:.1f}: delta {[float(x) for x in d]}")
