"""Fixed-depth game-tree search with principal-variation extraction.

Both engines use the negamax formulation: every value is from the point of
view of the side to move at that node, and one sign flip per ply converts
between levels.  The returned root value therefore equals (-1)**len(pv)
times the score of the stored leaf from its own side to move (the terminal
score or the evaluator's value), with exact float equality, since negation
is exact.

Each node is handled in one pass: the depth test first, then move
generation, so no moves are generated at depth-0 leaves and interior nodes
generate their moves once.  Only a depth-0 leaf or a node whose action list
came back empty is a leaf; one Game.outcome call there tells a terminal
from an evaluator stop and gives the terminal's result.  This relies on the
Game.legal_actions rule that a terminal state has no legal actions.
Terminal positions score +/-(MATE_SCORE - ply) from the winner's
perspective, so forced wins dominate every static evaluation below
MATE_SCORE / 2 in size, the bound FeatureSet.check_bound holds linear
evaluations to, and faster wins are preferred.  The evaluator is only ever
invoked on non-terminal leaves.
A non-terminal node with no legal actions (possible only in synthetic
trees) is scored by the evaluator at any depth.

Alphabeta has one loop over a node's children.  A depth-1 node scores each
child in that loop, with no call per leaf, as a depth-0 call would; deeper
children go through the recursive call.  The best-move, alpha and cut-off
update that follows either is written once.

Ties between equal-valued moves go to the first move found unless a seed
is given; then random.Random(seed) breaks them, freshly per search, so one
seed yields one SearchResult.  Alphabeta shuffles with this module's own
Fisher-Yates (shuffle), which draws from the generator exactly as
Random.shuffle does.

No iterative deepening, transposition tables, or quiescence extensions:
searches are plain fixed-depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MATE_SCORE = 1.0e6

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class SearchResult:
    value: float  # root side-to-move perspective
    pv: tuple     # principal variation, actions from the root
    leaf: object  # state reached by following pv
    nodes: int    # number of leaf scorings


def terminal_score(outcome, state, ply: int) -> float:
    """Side-to-move score of state, whose outcome is given, ply levels below the root."""
    return outcome.reward * state.side_to_move.sign * (MATE_SCORE - ply)


def minimax(game, root, depth: int, evaluator, seed: int | None = None) -> SearchResult:
    """Full-width negamax to the given depth.

    With a seed, every node picks uniformly among its tied best moves.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rng = None if seed is None else random.Random(seed)
    apply = game.apply_trusted
    outcome = game.outcome
    legal = game.legal_actions
    nodes = 0

    def rec(state, d, ply):
        nonlocal nodes
        if d == 0 or not (actions := legal(state)):
            nodes += 1
            if (o := outcome(state)) is not None:
                return terminal_score(o, state, ply), (), state
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
    rec = None  # rec's cell refers to rec: break the cycle, so the search leaves no garbage
    return SearchResult(value, pv, leaf, nodes)


def shuffle(x: list, getrandbits) -> None:
    """Fisher-Yates shuffle of x in place, drawing from getrandbits.

    Makes the draws of CPython's Random.shuffle: for i = n-1 down to 1, a
    swap index below i+1 by rejection over (i+1).bit_length() bits.  Given
    random.Random(seed).getrandbits it leaves x and the generator as
    random.Random(seed).shuffle(x) would, without the two Python calls per
    swap that Random.shuffle makes.
    """
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def alphabeta(game, root, depth: int, evaluator, seed: int | None = None) -> SearchResult:
    """Negamax with alpha-beta pruning; value identical to minimax.

    With a seed, the move order is shuffled per node with a generator
    seeded once per search.  That randomizes which of several tied
    principal variations is reported (pruning makes an exactly uniform
    choice ill-defined) without affecting the value.

    One loop per node applies each child once, then scores it in place at
    depth 1 (terminal test, then terminal score or evaluator) or searches it
    recursively deeper down.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    getrandbits = None if seed is None else random.Random(seed).getrandbits
    apply = game.apply_trusted
    outcome = game.outcome
    legal = game.legal_actions
    nodes = 0

    def rec(state, d, alpha, beta, ply):
        nonlocal nodes
        if d == 0 or not (actions := legal(state)):
            nodes += 1
            if (o := outcome(state)) is not None:
                return terminal_score(o, state, ply), (), state
            return evaluator(state), (), state
        if getrandbits is not None and len(actions) > 1:
            actions = list(actions)
            shuffle(actions, getrandbits)
        best_v = _NEG_INF
        best_a = best_pv = best_leaf = None
        first = True
        pv = ()  # a depth-1 node's children are leaves, so their lines stay empty
        for a in actions:
            leaf = apply(state, a)  # the child; deeper down, rec returns its line's leaf
            if d == 1:  # score the leaf here, as a call at depth 0 would
                nodes += 1
                if (o := outcome(leaf)) is not None:
                    v = -terminal_score(o, leaf, ply + 1)
                else:
                    v = -evaluator(leaf)
            else:
                v, pv, leaf = rec(leaf, d - 1, -beta, -alpha, ply + 1)
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
    rec = None  # as in minimax: no cycle for the GC to collect
    return SearchResult(value, pv, leaf, nodes)
