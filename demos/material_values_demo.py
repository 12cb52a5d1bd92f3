"""
Learning piece values from self-play
====================================

Starts a 5x5 chess evaluator from nothing but "a pawn is worth 1.0" and
lets self-play push the other piece values around.  A short run like this
already separates the queen from the minor pieces; the full experiment in
configs/mc_material_selfplay.json runs longer and gets the whole ranking.
"""

import tempfile
from pathlib import Path

from tdsearch.arena import SearchAgent, train_selfplay
from tdsearch.evaluation import feature_set, load_weights
from tdsearch.games import GAMES
from tdsearch.learner import AlphaSchedule, ClipPolicy, LearnerConfig

game = GAMES["minichess"]
fs = feature_set("minichess-material")

agent = SearchAgent("learner", fs, fs.weights_from({}), 2, tie_mode="random")
cfg = LearnerConfig(
    lambda_=0.95,
    alpha=AlphaSchedule(kind="inverse", base=0.2, decay_games=400, floor=0.01),
    squash=True,
    clipping=ClipPolicy.UNLESS_PREDICTED,
)

out = Path(tempfile.mkdtemp(prefix="material-demo-"))
# two random opening plies per game keep the starts diverse
train_selfplay(game, agent, cfg, 400, seed=11, out_dir=out,
               record_both=True, opening_plies=2, opening_epsilon=1.0,
               snapshot_every=100)

print("value trajectory (pawn is anchored at 1.0):")
header = "  ".join(f"{n.split('_')[0]:>7s}" for n in fs.names)
print(f"  games  {header}")
for snap in sorted(out.glob("weights_*.snapshot")):
    tag = snap.stem.split("_")[1]
    _, w = load_weights(snap)
    row = "  ".join(f"{v:+7.2f}" for v in w.values)
    label = tag if tag == "final" else str(int(tag))
    print(f"  {label:>5s}  {row}")
