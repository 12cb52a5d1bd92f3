import numpy as np
import pytest

from oracles import random_position, random_tree, text_eval, white_minimax
from tdsearch.games import GAMES, SyntheticTreeGame, TIED_PV_TREE, UNIQUE_PV_TREE
from tdsearch.games.base import Side
from tdsearch.search import (
    FIRST_FOUND,
    MATE_SCORE,
    SearchResult,
    TieBreakPolicy,
    alphabeta,
    minimax,
)


def replay_pv(game, state, pv):
    for a in pv:
        state = game.apply(state, a)
    return state


# ---------------------------------------------------------------------------
# Reference trees
# ---------------------------------------------------------------------------


def test_unique_tree_minimax():
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    res = minimax(g, g.initial_state(), 3, g.evaluator)
    assert res.value == 4.0
    assert g.label(res.leaf) == "L"
    assert [g.label(s) for s in _pv_states(g, res)] == ["C", "F", "L"]


def test_unique_tree_alphabeta_prunes_but_agrees():
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    full = minimax(g, g.initial_state(), 3, g.evaluator)
    pruned = alphabeta(g, g.initial_state(), 3, g.evaluator)
    assert pruned.value == full.value == 4.0
    assert g.label(pruned.leaf) == "L"
    assert pruned.nodes <= full.nodes


def _pv_states(g, res):
    s = g.initial_state()
    out = []
    for a in res.pv:
        s = g.apply(s, a)
        out.append(s)
    return out


def test_tied_tree_first_found_is_deterministic():
    g = SyntheticTreeGame(TIED_PV_TREE)
    r1 = minimax(g, g.initial_state(), 3, g.evaluator, FIRST_FOUND)
    r2 = minimax(g, g.initial_state(), 3, g.evaluator, FIRST_FOUND)
    assert r1 == r2
    assert r1.value == 4.0
    assert g.label(r1.leaf) == "H"  # left-most of the tied pair


def test_tied_tree_random_reaches_both_leaves():
    g = SyntheticTreeGame(TIED_PV_TREE)
    seen = set()
    for seed in range(200):
        res = minimax(g, g.initial_state(), 3, g.evaluator,
                      TieBreakPolicy.uniform_random(seed))
        assert res.value == 4.0
        seen.add(g.label(res.leaf))
    assert seen == {"H", "L"}


def test_tied_tree_same_seed_same_choice():
    g = SyntheticTreeGame(TIED_PV_TREE)
    picks = {
        minimax(g, g.initial_state(), 3, g.evaluator,
                TieBreakPolicy.uniform_random(123)).leaf
        for _ in range(10)
    }
    assert len(picks) == 1


# ---------------------------------------------------------------------------
# Equivalence against the reference implementation
# ---------------------------------------------------------------------------


def test_random_trees_match_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        depth = int(rng.integers(1, 5))
        g = SyntheticTreeGame(random_tree(rng, depth))
        root = g.initial_state()
        d = g.max_depth()
        want_white = white_minimax(g, root, d, lambda s: s.side_to_move.sign * g.evaluator(s))
        got_mm = minimax(g, root, d, g.evaluator)
        got_ab = alphabeta(g, root, d, g.evaluator)
        assert got_mm.value == want_white * root.side_to_move.sign
        assert got_ab.value == got_mm.value


def test_alphabeta_equals_minimax_on_real_games(game_id, game):
    if game_id == "minichess":
        depths = (1, 2)
        trials = 30
    else:
        depths = (1, 2, 3)
        trials = 60
    rng = np.random.default_rng(4)
    evaluator = text_eval(game)
    for _ in range(trials):
        s = game.initial_state()
        for _ in range(int(rng.integers(0, 12))):
            if game.is_terminal(s):
                break
            acts = game.legal_actions(s)
            s = game.apply(s, acts[int(rng.integers(len(acts)))])
        if game.is_terminal(s):
            continue
        for depth in depths:
            mm = minimax(game, s, depth, evaluator)
            ab = alphabeta(game, s, depth, evaluator)
            assert mm.value == ab.value
            white_eval = lambda st: st.side_to_move.sign * evaluator(st)
            want = white_minimax(game, s, depth, white_eval)
            assert mm.value == want * s.side_to_move.sign


# ---------------------------------------------------------------------------
# PV and value invariants
# ---------------------------------------------------------------------------


def test_pv_reaches_reported_leaf(game):
    rng = np.random.default_rng(8)
    evaluator = text_eval(game)
    for _ in range(25):
        s = game.initial_state()
        for _ in range(int(rng.integers(0, 10))):
            if game.is_terminal(s):
                break
            acts = game.legal_actions(s)
            s = game.apply(s, acts[int(rng.integers(len(acts)))])
        if game.is_terminal(s):
            continue
        res = alphabeta(game, s, 3, evaluator)
        assert replay_pv(game, s, res.pv) == res.leaf
        assert len(res.pv) <= 3


def test_value_equals_sign_adjusted_leaf_eval(game):
    # the root value is exactly the leaf evaluation seen from the root side
    rng = np.random.default_rng(12)
    evaluator = text_eval(game)
    for _ in range(25):
        s = game.initial_state()
        for _ in range(int(rng.integers(0, 10))):
            if game.is_terminal(s):
                break
            acts = game.legal_actions(s)
            s = game.apply(s, acts[int(rng.integers(len(acts)))])
        if game.is_terminal(s):
            continue
        res = alphabeta(game, s, 3, evaluator)
        leaf = res.leaf
        if game.is_terminal(leaf):
            reward = game.outcome(leaf).for_side(leaf.side_to_move)
            leaf_val = reward * (MATE_SCORE - len(res.pv))
        else:
            leaf_val = evaluator(leaf)
        assert res.value == (-1.0) ** len(res.pv) * leaf_val


def test_mate_scores_prefer_quicker_wins():
    # connect4: an immediate four beats a delayed one
    c4 = GAMES["connect4"]
    s = c4.initial_state()
    for col in (0, 6, 0, 6, 0, 6):  # three X stones on col 0, three O on col 6
        s = c4.apply(s, col)
    evaluator = text_eval(c4)
    res = alphabeta(c4, s, 4, evaluator)
    assert res.pv == (0,)
    assert res.value == MATE_SCORE - 1


def test_losing_side_cannot_stop_double_threat():
    c4 = GAMES["connect4"]
    s = c4.initial_state()
    # X builds cols 2-4 on the floor: open three, wins at 1 or 5
    for col in (2, 2, 3, 3, 4):
        s = c4.apply(s, col)
    assert s.side_to_move.sign == -1  # O to move, facing the double threat
    res = alphabeta(c4, s, 4, text_eval(c4))
    # whatever O does, X mates on the second ply from here
    assert res.value == -(MATE_SCORE - 2)
    assert len(res.pv) == 2


def test_depth_zero_returns_static_eval(game):
    evaluator = text_eval(game)
    s = game.initial_state()
    res = minimax(game, s, 0, evaluator)
    assert res.value == evaluator(s)
    assert res.pv == ()
    assert res.leaf == s
    assert alphabeta(game, s, 0, evaluator) == res


def test_negative_depth_rejected(game):
    with pytest.raises(ValueError):
        minimax(game, game.initial_state(), -1, text_eval(game))
    with pytest.raises(ValueError):
        alphabeta(game, game.initial_state(), -1, text_eval(game))


def test_node_counts_positive_and_pruning_helps():
    c4 = GAMES["connect4"]
    s = c4.initial_state()
    evaluator = text_eval(c4)
    mm = minimax(c4, s, 4, evaluator)
    ab = alphabeta(c4, s, 4, evaluator)
    assert mm.nodes == 7**4
    assert 0 < ab.nodes < mm.nodes


def test_tie_policy_validation():
    with pytest.raises(ValueError):
        TieBreakPolicy(mode="coin-flip")
    assert TieBreakPolicy.first_found().mode == "first"
    assert TieBreakPolicy.uniform_random(5).seed == 5


def test_search_result_is_plain_data():
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    res = minimax(g, g.initial_state(), 3, g.evaluator)
    assert isinstance(res, SearchResult)
    assert res.depth == 3
    assert isinstance(res.pv, tuple)


# ---------------------------------------------------------------------------
# Node order: no move generation at depth-0 leaves
# ---------------------------------------------------------------------------


class CountingGame:
    """Delegates to a game and records the ply of every legal_actions call."""

    def __init__(self, game):
        self._game = game
        self.legal_plies = []

    def __getattr__(self, name):
        return getattr(self._game, name)

    def legal_actions(self, state):
        self.legal_plies.append(state.ply)
        return self._game.legal_actions(state)


@pytest.mark.parametrize("search", [minimax, alphabeta])
@pytest.mark.parametrize("game_id, depth", [("connect4", 3), ("minichess", 2), ("tictactoe", 3)])
def test_no_move_generation_at_depth_zero_leaves(game_id, depth, search):
    game = GAMES[game_id]
    evaluator = text_eval(game)
    white_eval = lambda st: st.side_to_move.sign * evaluator(st)
    rng = np.random.default_rng(31)
    searched = 0
    while searched < 12:
        s = random_position(game, rng, 12)
        if game.is_terminal(s):
            continue
        searched += 1
        counting = CountingGame(game)
        assert search(counting, s, 0, evaluator).value == evaluator(s)
        assert counting.legal_plies == []
        res = search(counting, s, depth, evaluator)
        assert counting.legal_plies[0] == s.ply
        assert max(counting.legal_plies) < s.ply + depth
        assert res.value == white_minimax(game, s, depth, white_eval) * s.side_to_move.sign
