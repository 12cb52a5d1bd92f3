"""Fixed-depth game-tree search with principal-variation extraction.

Both engines use the negamax formulation: every value is from the point of
view of the side to move at that node, and one sign flip per ply converts
between levels.  The returned root value therefore relates to the stored
leaf by value == (-1)**len(pv) * leaf_score(leaf), with exact float
equality, since negation is exact.

Each node is handled in a fixed order: the terminal test first, then the
depth test, and only then move generation, so no moves are generated at
depth-0 leaves.  Terminal positions inside the tree score
+/-(MATE_SCORE - ply) from the winner's perspective, so forced wins dominate
any static evaluation and faster wins are preferred.  The evaluator is only
ever invoked on non-terminal leaves.  A non-terminal node with no legal
actions (possible only in synthetic trees) is scored as a leaf at any depth.

No iterative deepening, transposition tables, or quiescence extensions:
searches are plain fixed-depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MATE_SCORE = 1.0e6

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class TieBreakPolicy:
    """How a search resolves equal-valued moves.

    "first" keeps the first move found (deterministic given move order).
    "random" resolves ties with a generator freshly seeded per search, so
    the same policy object yields the same SearchResult on repeated calls.
    """

    mode: str = "first"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("first", "random"):
            raise ValueError(f"bad tie-break mode {self.mode!r}")

    @classmethod
    def first_found(cls) -> "TieBreakPolicy":
        return cls("first")

    @classmethod
    def uniform_random(cls, seed: int) -> "TieBreakPolicy":
        return cls("random", seed)


FIRST_FOUND = TieBreakPolicy.first_found()


@dataclass(frozen=True)
class SearchResult:
    value: float  # root side-to-move perspective
    pv: tuple     # principal variation, actions from the root
    leaf: object  # state reached by following pv
    depth: int
    nodes: int    # number of leaf scorings


def terminal_score(game, state, ply: int) -> float:
    """Side-to-move score of a terminal state ply levels below the root."""
    r = game.outcome(state).for_side(state.side_to_move)
    return r * (MATE_SCORE - ply)


def leaf_score(game, state, evaluator, ply: int) -> float:
    """Score the search assigns where it stops: terminal rule or evaluator."""
    if game.is_terminal(state):
        return terminal_score(game, state, ply)
    return evaluator(state)


def minimax(game, root, depth: int, evaluator, tie: TieBreakPolicy = FIRST_FOUND) -> SearchResult:
    """Full-width negamax to the given depth.

    Ties between equal-valued moves are resolved per policy at every node;
    "random" picks uniformly among the argmax set.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rng = random.Random(tie.seed) if tie.mode == "random" else None
    apply = game.apply_trusted
    is_terminal = game.is_terminal
    legal = game.legal_actions
    nodes = 0

    def rec(state, d, ply):
        nonlocal nodes
        if is_terminal(state):
            nodes += 1
            return terminal_score(game, state, ply), (), state
        if d == 0 or not (actions := legal(state)):
            nodes += 1
            return evaluator(state), (), state
        results = []
        best = _NEG_INF
        for a in actions:
            v, pv, leaf = rec(apply(state, a), d - 1, ply + 1)
            v = -v
            if v > best:
                best = v
            results.append((v, a, pv, leaf))
        ties = [r for r in results if r[0] == best]
        v, a, pv, leaf = ties[0] if rng is None else ties[rng.randrange(len(ties))]
        return v, (a, *pv), leaf

    value, pv, leaf = rec(root, depth, 0)
    return SearchResult(value, pv, leaf, depth, nodes)


def alphabeta(game, root, depth: int, evaluator, tie: TieBreakPolicy = FIRST_FOUND) -> SearchResult:
    """Negamax with alpha-beta pruning; value identical to minimax.

    Under the "random" policy the move order is shuffled per node with a
    generator seeded once per search.  That randomizes which of several
    tied principal variations is reported (pruning makes an exactly uniform
    choice ill-defined) without affecting the value.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rng = random.Random(tie.seed) if tie.mode == "random" else None
    apply = game.apply_trusted
    is_terminal = game.is_terminal
    legal = game.legal_actions
    nodes = 0

    def rec(state, d, alpha, beta, ply):
        nonlocal nodes
        if is_terminal(state):
            nodes += 1
            return terminal_score(game, state, ply), (), state
        if d == 0 or not (actions := legal(state)):
            nodes += 1
            return evaluator(state), (), state
        if rng is not None and len(actions) > 1:
            actions = list(actions)
            rng.shuffle(actions)
        best_v = _NEG_INF
        best_a = best_pv = best_leaf = None
        first = True
        for a in actions:
            v, pv, leaf = rec(apply(state, a), d - 1, -beta, -alpha, ply + 1)
            v = -v
            if first or v > best_v:
                best_v, best_a, best_pv, best_leaf = v, a, pv, leaf
                first = False
            if v > alpha:
                alpha = v
            if alpha >= beta:
                break
        return best_v, (best_a, *best_pv), best_leaf

    value, pv, leaf = rec(root, depth, _NEG_INF, float("inf"), 0)
    return SearchResult(value, pv, leaf, depth, nodes)
