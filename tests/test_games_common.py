import copy
import pickle

import numpy as np
import pytest

from oracles import C4_DRAW_MOVES, state_for_label
from tdsearch.games import GAMES, SyntheticState, SyntheticTreeGame, UNIQUE_PV_TREE
from tdsearch.games.base import BLACK, WHITE, Side, WIN, DRAW, LOSS


def random_playout(game, rng):
    states = [game.initial_state()]
    moves = []
    while not game.is_terminal(states[-1]):
        acts = game.legal_actions(states[-1])
        a = acts[int(rng.integers(len(acts)))]
        moves.append(a)
        states.append(game.apply(states[-1], a))
    return states, moves


def test_outcome_constants():
    assert WIN.reward == 1.0 and LOSS.reward == -1.0 and DRAW.reward == 0.0
    assert WIN.for_side(Side.WHITE) == 1.0
    assert WIN.for_side(Side.BLACK) == -1.0
    assert DRAW.for_side(Side.BLACK) == 0.0
    assert Side.WHITE.opponent is Side.BLACK
    assert Side.BLACK.sign == -1


def test_playouts_terminate_and_stay_consistent(game):
    rng = np.random.default_rng(7)
    for _ in range(50):
        states, _ = random_playout(game, rng)
        final = states[-1]
        assert game.is_terminal(final)
        assert game.outcome(final).reward in (-1.0, 0.0, 1.0)
        for s, nxt in zip(states, states[1:]):
            assert nxt.ply == s.ply + 1
            assert nxt.side_to_move is s.side_to_move.opponent


def test_apply_is_pure(game):
    s0 = game.initial_state()
    a = game.legal_actions(s0)[0]
    s1 = game.apply(s0, a)
    assert s0 == game.initial_state()  # original untouched
    assert s1 != s0


def test_apply_trusted_matches_apply(game):
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = game.initial_state()
        while not game.is_terminal(s):
            acts = game.legal_actions(s)
            a = acts[int(rng.integers(len(acts)))]
            assert game.apply_trusted(s, a) == game.apply(s, a)
            s = game.apply(s, a)


def test_state_text_round_trip_along_games(game):
    rng = np.random.default_rng(17)
    for _ in range(20):
        states, _ = random_playout(game, rng)
        for s in states:
            back = game.from_text(game.to_text(s))
            assert back == s


def test_action_text_round_trip(game):
    rng = np.random.default_rng(21)
    s = game.initial_state()
    while not game.is_terminal(s):
        for a in game.legal_actions(s):
            assert game.action_from_str(game.action_to_str(a)) == a
        acts = game.legal_actions(s)
        s = game.apply(s, acts[int(rng.integers(len(acts)))])


@pytest.mark.parametrize("game", [GAMES["connect4"], GAMES["tictactoe"],
                                  SyntheticTreeGame(UNIQUE_PV_TREE)],
                         ids=["connect4", "tictactoe", "synthetic"])
def test_integer_action_tokens_have_one_spelling(game):
    # int() reads each of these as an action; action_to_str writes none.
    assert [game.action_from_str(t) for t in ("0", "3", "10")] == [0, 3, 10]
    for token in ("06", "+5", "-0", "-3", " 3", "3\n", "1_0", "\u0663"):
        with pytest.raises(ValueError, match="bad move token"):
            game.action_from_str(token)
    for token in ("", "a", "3.0"):
        with pytest.raises(ValueError):
            game.action_from_str(token)


def test_moves_text_round_trip_and_replay(game):
    rng = np.random.default_rng(23)
    states, moves = random_playout(game, rng)
    # a trace log stores a PV as ';'-joined tokens in a space-separated field
    tokens = [game.action_to_str(a) for a in moves]
    assert all(tok and ";" not in tok and not any(ch.isspace() for ch in tok) for tok in tokens)
    back = [game.action_from_str(tok) for tok in tokens]
    assert back == list(moves)
    final = game.replay(back)
    assert final == states[-1]


def test_replay_rejects_illegal_continuation(game):
    from tdsearch.games.base import IllegalMoveError

    rng = np.random.default_rng(27)
    _, moves = random_playout(game, rng)
    with pytest.raises(IllegalMoveError):
        game.replay(list(moves) + [moves[-1]])


def test_determinism_across_identical_seeds(game):
    a = random_playout(game, np.random.default_rng(99))[1]
    b = random_playout(game, np.random.default_rng(99))[1]
    assert a == b


def _protocol_edge_states(game_id, game):
    """(terminal state, White reward) pairs random playouts may miss."""
    if game_id == "connect4":
        return [(game.replay(int(c) for c in C4_DRAW_MOVES), 0.0)]
    if game_id == "minichess":
        return [
            (game.from_text("k4/1Q3/2K2/5/5 b 10"), 1.0),  # mate
            (game.from_text("k4/5/1Q3/5/4K b 10"), 0.0),   # stalemate
            (game.initial_state()._replace(ply=50), 0.0),  # the ply cap
            (game.from_text("k4/1Q3/2K2/5/5 b 50"), 1.0),  # mate at the cap
        ]
    return []


def test_terminal_states_have_no_legal_actions(game_id, game):
    # Game.legal_actions rule the search relies on: terminal => [].  For the
    # real games the converse holds too: a non-terminal state has a move.
    # outcome() is the one terminal rule: None exactly on non-terminal states.
    rng = np.random.default_rng(41)
    states = [s for _ in range(40) for s in random_playout(game, rng)[0]]
    edges = []
    for s, reward in _protocol_edge_states(game_id, game):
        assert game.is_terminal(s) and game.outcome(s).reward == reward
        edges.append(s)
    for s in states + edges:
        result = game.outcome(s)
        assert game.is_terminal(s) is (result is not None)
        assert (game.legal_actions(s) == []) is (result is not None)


def test_synthetic_tree_has_no_terminal_states():
    # A synthetic tree's leaves are evaluator stops: outcome is None on every
    # node, the leaves included, though a leaf has no moves.
    g = SyntheticTreeGame(UNIQUE_PV_TREE)
    frontier, seen = [g.initial_state()], 0
    while frontier:
        s = frontier.pop()
        assert g.outcome(s) is None and not g.is_terminal(s)
        frontier.extend(g.apply(s, a) for a in g.legal_actions(s))
        seen += 1
    assert seen == 15


# -- value semantics: immutable states, singleton sides ---------------------


def _states_of_every_game():
    """(game, states along one seeded playout) for each game, synthetic too."""
    rng = np.random.default_rng(37)
    out = [(game, random_playout(game, rng)[0]) for game in GAMES.values()]
    tree = SyntheticTreeGame(UNIQUE_PV_TREE)
    leaf = state_for_label(tree, "L")
    out.append((tree, [tree.initial_state(), *(SyntheticState(leaf.path[:i + 1])
                                                for i in range(len(leaf.path)))]))
    return out


def test_state_fields_cannot_be_assigned():
    for game, states in _states_of_every_game():
        s = states[len(states) // 2]
        for name in type(s)._fields:
            with pytest.raises(AttributeError):
                setattr(s, name, getattr(s, name))
        with pytest.raises(AttributeError):
            s.extra = 1


def test_states_compare_and_hash_by_value_and_apply_keeps_its_argument():
    for game, states in _states_of_every_game():
        for s, nxt in zip(states, states[1:]):
            same = game.from_text(game.to_text(s))  # equal value, fresh object
            assert same == s and hash(same) == hash(s) and same is not s
            assert nxt != s
            a = next(a for a in game.legal_actions(s) if game.apply(s, a) == nxt)
            for step in (game.apply, game.apply_trusted):
                assert step(s, a) == nxt
                assert s == same and hash(s) == hash(same)
        assert len(set(states)) == len(states)


def test_side_members_are_singletons_with_plain_attributes():
    assert (WHITE, BLACK) == (Side.WHITE, Side.BLACK)
    for side in Side:
        assert copy.copy(side) is side
        assert copy.deepcopy(side) is side
        box = copy.deepcopy([side, {side: side}])
        assert box[0] is side and box[1][side] is side
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(side, protocol)) is side
        assert side.opponent is not side and side.opponent.opponent is side
        assert type(side.sign) is int and side.sign == side.value
        assert Side(side.sign) is side
    assert Side.WHITE.opponent is Side.BLACK and Side.BLACK.opponent is Side.WHITE
    assert Side.WHITE.sign == 1 and Side.BLACK.sign == -1
    assert list(Side) == [Side.WHITE, Side.BLACK]
