import gc
import random

import numpy as np
import pytest

from oracles import (
    C4_DRAW_MOVES,
    random_playouts,
    random_position,
    random_tree,
    text_eval,
    white_minimax,
    white_search,
)
from tdsearch.games import GAMES, SyntheticTreeGame, TIED_PV_TREE, UNIQUE_PV_TREE
from tdsearch.games.base import Side
from tdsearch.games.minichess import PLY_CAP, in_check
from tdsearch.search import (
    MATE_SCORE,
    SearchResult,
    alphabeta,
    minimax,
    shuffle,
)


def replay_pv(game, state, pv):
    for a in pv:
        state = game.apply(state, a)
    return state


def test_a_search_leaves_no_reference_cycle():
    # Each engine's recursive closure refers to itself until the search
    # returns; what is left must be freed by reference counting alone.
    game = GAMES["connect4"]
    root = game.initial_state()
    gc.collect()
    gc.disable()
    try:
        for seed in (None, 1, 2):
            alphabeta(game, root, 3, lambda s: float(s.mover % 5), seed=seed)
            minimax(game, root, 2, lambda s: float(s.mover % 5), seed=seed)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    r1 = minimax(g, g.initial_state(), 3, g.evaluator)
    r2 = minimax(g, g.initial_state(), 3, g.evaluator)
    assert r1 == r2
    assert r1.value == 4.0
    assert g.label(r1.leaf) == "H"  # left-most of the tied pair


def test_tied_tree_random_reaches_both_leaves():
    g = SyntheticTreeGame(TIED_PV_TREE)
    seen = set()
    for seed in range(200):
        res = minimax(g, g.initial_state(), 3, g.evaluator, seed)
        assert res.value == 4.0
        seen.add(g.label(res.leaf))
    assert seen == {"H", "L"}


def test_tied_tree_same_seed_same_choice():
    g = SyntheticTreeGame(TIED_PV_TREE)
    picks = {
        minimax(g, g.initial_state(), 3, g.evaluator, 123).leaf
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


@pytest.mark.parametrize("n", range(13))
def test_shuffle_draws_like_random_shuffle(n):
    # The search's own Fisher-Yates makes Random.shuffle's draws, so a
    # search shuffles as before and later nodes, which share the generator,
    # see the same generator state.  Each seed shuffles n items three times
    # in a row on one generator.
    for seed in range(240):
        ref, own = random.Random(seed), random.Random(seed)
        for _ in range(3):
            want, got = list(range(n)), list(range(n))
            ref.shuffle(want)
            shuffle(got, own.getrandbits)
            assert got == want
            assert own.getstate() == ref.getstate()


def test_search_result_is_plain_data():
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    res = minimax(g, g.initial_state(), 3, g.evaluator)
    assert isinstance(res, SearchResult)
    assert isinstance(res.pv, tuple)


# ---------------------------------------------------------------------------
# Node order: no move generation at depth-0 leaves
# ---------------------------------------------------------------------------


class CountingGame:
    """Delegates to a game and records its legal_actions and outcome calls.

    `legal_plies` holds the ply of every legal_actions call; `calls` holds
    ("legal", state, number of actions) and ("terminal", state) in call order.
    """

    def __init__(self, game):
        self._game = game
        self.calls = []

    @property
    def legal_plies(self):
        return [call[1].ply for call in self.calls if call[0] == "legal"]

    def __getattr__(self, name):
        return getattr(self._game, name)

    def legal_actions(self, state):
        actions = self._game.legal_actions(state)
        self.calls.append(("legal", state, len(actions)))
        return actions

    def outcome(self, state):
        self.calls.append(("terminal", state))
        return self._game.outcome(state)

    def interior_terminal_tests(self, leaf_ply):
        """States above leaf_ply that got a terminal test, after checking
        each came straight after its own legal_actions call returned []."""
        tested = []
        for i, call in enumerate(self.calls):
            if call[0] == "terminal" and call[1].ply < leaf_ply:
                assert self.calls[i - 1] == ("legal", call[1], 0)
                tested.append(call[1])
        return tested


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


# ---------------------------------------------------------------------------
# Node order: moves first, terminal test only where the move list is empty
# ---------------------------------------------------------------------------


def _roots_with_terminals_inside(game_id):
    """(root, depth, kind) triples whose search tree has a terminal at d > 0."""
    game = GAMES[game_id]
    rng = np.random.default_rng(53)
    if game_id == "connect4":
        roots = []
        for states in random_playouts(game, rng):
            if game.outcome(states[-1]).reward != 0:
                roots.append((states[-2], 3, "four"))
            if len(roots) == 6:
                break
        before_last = game.replay(int(c) for c in C4_DRAW_MOVES[:-1])
        return roots + [(before_last, 3, "full board")]
    wanted = {"mate": 3, "stalemate": 2, "ply 48": 2, "ply 49": 2}
    roots = []
    for states in random_playouts(game, rng):
        end = states[-1]
        if end.ply < PLY_CAP:
            kind = "mate" if in_check(end) else "stalemate"
            root, depth = states[-2], 2
        else:  # the game reached the cap: states[i] is at ply i
            kind = ("ply 48", "ply 49")[int(rng.integers(2))]
            root = states[48 if kind == "ply 48" else 49]
            depth = 3 if kind == "ply 48" else 2
        if wanted[kind]:
            wanted[kind] -= 1
            roots.append((root, depth, kind))
        if not any(wanted.values()):
            return roots


@pytest.mark.parametrize("seed", [None, 7], ids=["first", "random"])
@pytest.mark.parametrize("search", [minimax, alphabeta])
@pytest.mark.parametrize("game_id", ["connect4", "minichess"])
def test_terminal_test_only_where_moves_ran_out(game_id, search, seed):
    game = GAMES[game_id]
    evaluator = text_eval(game)
    white_eval = lambda st: st.side_to_move.sign * evaluator(st)
    for root, depth, kind in _roots_with_terminals_inside(game_id):
        assert not game.is_terminal(root), kind
        counting = CountingGame(game)
        res = search(counting, root, depth, evaluator, seed)
        rng = None if seed is None else random.Random(seed)
        value, pv, nodes = white_search(game, root, depth, white_eval,
                                        prune=search is alphabeta, rng=rng)
        assert res.value == value * root.side_to_move.sign, kind
        assert res.pv == pv, kind
        assert res.nodes == nodes, kind
        assert replay_pv(game, root, res.pv) == res.leaf
        # one terminal test per scored leaf, above the depth-0 leaves only
        # where legal_actions came back empty, and those are real terminals
        assert sum(call[0] == "terminal" for call in counting.calls) == res.nodes
        inside = counting.interior_terminal_tests(root.ply + depth)
        assert inside and all(game.is_terminal(st) for st in inside), kind


@pytest.mark.parametrize("seed", [None, 3], ids=["first", "random"])
@pytest.mark.parametrize("game_id, depth", [("connect4", 1), ("connect4", 3), ("minichess", 1),
                                            ("minichess", 2), ("tictactoe", 4)])
def test_alphabeta_keeps_first_of_tied_leaves(game_id, depth, seed):
    # A three-valued evaluator makes most sibling leaves tie, so the line
    # reported depends on which tied child each node keeps, depth-1 nodes
    # scoring their children in place included: the first found in the
    # (shuffled) move order, as in the oracle.
    game = GAMES[game_id]
    fine = text_eval(game)
    evaluator = lambda st: float(round(fine(st)))
    white_eval = lambda st: st.side_to_move.sign * evaluator(st)
    rng = np.random.default_rng(61)
    roots = [random_position(game, rng, 12) for _ in range(10)]
    for root in (r for r in roots if not game.is_terminal(r)):
        res = alphabeta(game, root, depth, evaluator, seed)
        value, pv, nodes = white_search(game, root, depth, white_eval, prune=True,
                                        rng=None if seed is None else random.Random(seed))
        assert (res.value, res.pv, res.nodes) == (value * root.side_to_move.sign, pv, nodes)


@pytest.mark.parametrize("search", [minimax, alphabeta])
def test_synthetic_dead_end_scored_by_evaluator(search):
    # [1, [2, 3]]: the root's first child is a dead end at d = 1, empty but not
    # terminal, so it still gets the evaluator, as the oracle scores it
    g = SyntheticTreeGame([1.0, [2.0, 3.0]])
    root = g.initial_state()
    counting = CountingGame(g)
    res = search(counting, root, 2, g.evaluator)
    white_eval = lambda s: s.side_to_move.sign * g.evaluator(s)
    assert (res.value, res.pv, res.nodes) == white_search(g, root, 2, white_eval,
                                                          prune=search is alphabeta)
    assert res.value == 2.0 and res.pv == (1, 0) and res.nodes == 3
    assert counting.interior_terminal_tests(2) == [g.apply(root, 0)]
