"""
A small training run against a rated opponent pool
==================================================

Trains a depth-2 connect4 evaluator for a few hundred games against a mixed
pool, then checks the result against an untrained copy.  Takes a few
seconds on one core.
"""

import tempfile
from pathlib import Path

from tdsearch.arena import (
    OpponentPool,
    RandomAgent,
    SearchAgent,
    head_to_head,
    train_online,
)
from tdsearch.evaluation import feature_set
from tdsearch.games import GAMES
from tdsearch.learner import AlphaSchedule, LearnerConfig

game = GAMES["connect4"]
fs = feature_set("connect4")

pool = OpponentPool(opponents=(
    RandomAgent("rnd"),
    SearchAgent("base-d1", fs, fs.preset("baseline"), 1),
    SearchAgent("base-d2", fs, fs.preset("baseline"), 2),
), matching="uniform")

agent = SearchAgent("learner", fs, fs.weights_from({}), 2, tie_mode="random")
cfg = LearnerConfig(lambda_=0.7, alpha=AlphaSchedule(base=0.05),
                    squash=True)

out = Path(tempfile.mkdtemp(prefix="pool-demo-"))
result = train_online(game, agent, pool, cfg, 300, seed=3, out_dir=out)

print(f"trained 300 games; final rating {result.ratings['learner']:.0f}")
print("weights by feature:")
for name, value in zip(fs.names, result.weights.values):
    print(f"  {name:16s} {value:+.3f}")

# the run directory holds everything needed to reproduce or replay the run
print("artifacts:", sorted(p.name for p in out.iterdir()))

trained = SearchAgent("trained", fs, result.weights, 2, tie_mode="random")
fresh = SearchAgent("fresh", fs, fs.weights_from({}), 2, tie_mode="random")
score, tally = head_to_head(game, trained, fresh, 100, seed=5)
print(f"trained vs untrained over 100 games: {score:.2f} ({tally})")
