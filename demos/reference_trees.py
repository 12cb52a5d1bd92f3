"""
Two small fixture trees and how search reads them
=================================================

Walks the bundled four-leaf-per-side trees, prints the root value and the
principal variation both search routines report, and shows how the tied
tree's two equal leaves surface under randomized tie-breaking.
"""

from tdsearch.games.synthetic import TIED_PV_TREE, UNIQUE_PV_TREE, SyntheticTreeGame
from tdsearch.search import alphabeta, minimax

# Each fixture tree is a nested tuple of floats; leaves are scores for the
# side to move at the root.
print("unique-PV tree:", UNIQUE_PV_TREE)
game = SyntheticTreeGame(UNIQUE_PV_TREE)
root = game.initial_state()

for algo in (minimax, alphabeta):
    res = algo(game, root, game.max_depth(), game.evaluator)
    states = [root]
    for move in res.pv:
        states.append(game.apply(states[-1], move))
    path = " -> ".join(game.label(s) for s in states)
    print(f"  {algo.__name__:9s} value {res.value:+.0f}, line {path}")

# A second tree where two leaves tie for the optimal value.  First-found
# tie-breaking always lands on the earlier leaf; a tie-break seed reaches
# both across seeds.
print("tied-PV tree:", TIED_PV_TREE)
game = SyntheticTreeGame(TIED_PV_TREE)
root = game.initial_state()

res = alphabeta(game, root, game.max_depth(), game.evaluator)
print(f"  first-found leaf: {game.label(res.leaf)} (value {res.value:+.0f})")

seen = {}
for seed in range(40):
    res = alphabeta(game, root, game.max_depth(), game.evaluator, seed=seed)
    leaf = game.label(res.leaf)
    seen[leaf] = seen.get(leaf, 0) + 1
print(f"  randomized over 40 seeds: {dict(sorted(seen.items()))}")
