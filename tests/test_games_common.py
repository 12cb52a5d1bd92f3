import numpy as np
import pytest

from oracles import C4_DRAW_MOVES
from tdsearch.games.base import Side, WIN, DRAW, LOSS
from tdsearch.games.minichess import INITIAL_BOARD, MinichessState


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


def test_moves_text_round_trip_and_replay(game):
    rng = np.random.default_rng(23)
    states, moves = random_playout(game, rng)
    text = game.moves_to_text(moves)
    assert text.endswith("\n") or text == ""
    back = game.moves_from_text(text)
    assert list(back) == list(moves)
    final = game.replay(moves)
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
            (MinichessState(INITIAL_BOARD, Side.WHITE, 50), 0.0),  # the ply cap
            (game.from_text("k4/1Q3/2K2/5/5 b 50"), 1.0),  # mate at the cap
        ]
    return []


def test_terminal_states_have_no_legal_actions(game_id, game):
    # Game.legal_actions rule the search relies on: terminal => [].  For the
    # real games the converse holds too: a non-terminal state has a move.
    rng = np.random.default_rng(41)
    states = [s for _ in range(40) for s in random_playout(game, rng)[0]]
    edges = []
    for s, reward in _protocol_edge_states(game_id, game):
        assert game.is_terminal(s) and game.outcome(s).reward == reward
        edges.append(s)
    for s in states + edges:
        actions = game.legal_actions(s)
        if game.is_terminal(s):
            assert actions == []
        else:
            assert actions != []
