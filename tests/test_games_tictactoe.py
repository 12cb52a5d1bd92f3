import numpy as np
import pytest

from oracles import t3_solve
from tdsearch.games import GAMES
from tdsearch.games.base import IllegalMoveError, Side

T3 = GAMES["tictactoe"]


def play(moves):
    s = T3.initial_state()
    for m in moves:
        s = T3.apply(s, m)
    return s


def test_initial_state():
    s = T3.initial_state()
    assert s.board == (0,) * 9
    assert s.side_to_move is Side.WHITE
    assert s.ply == 0
    assert list(T3.legal_actions(s)) == list(range(9))
    assert not T3.is_terminal(s)


def test_apply_places_mark_and_alternates():
    s = play([4, 0])
    assert s.board[4] == 1 and s.board[0] == -1
    assert s.side_to_move is Side.WHITE
    assert s.ply == 2


def test_occupied_square_rejected():
    s = play([4])
    with pytest.raises(IllegalMoveError):
        T3.apply(s, 4)


def test_row_win():
    # X: 0 1 2, O elsewhere
    s = play([0, 3, 1, 4, 2])
    assert T3.is_terminal(s)
    assert T3.outcome(s).reward == 1.0
    assert list(T3.legal_actions(s)) == []


def test_column_win_for_second_player():
    s = play([0, 6, 1, 7, 4, 8])
    assert T3.is_terminal(s)
    assert T3.outcome(s).reward == -1.0


def test_draw():
    s = play([0, 1, 2, 4, 7, 8, 3, 6, 5])
    assert s.ply == 9
    assert T3.is_terminal(s)
    assert T3.outcome(s).reward == 0.0


def test_outcome_is_none_before_terminal():
    assert T3.outcome(play([0, 1])) is None


def test_text_round_trip():
    s = play([4, 0, 8])
    text = T3.to_text(s)
    assert text == "O../.X./..X"
    back = T3.from_text(text)
    assert back == s


def test_from_text_rejects_unreachable():
    with pytest.raises(ValueError):
        T3.from_text("XXX/XXX/...")  # mark counts impossible
    with pytest.raises(ValueError):
        T3.from_text("OO./.../...")  # O cannot lead


def test_action_text_round_trip():
    for a in range(9):
        assert T3.action_from_str(T3.action_to_str(a)) == a


def test_random_playouts_match_solver():
    # game value of every visited position agrees with the exact solver
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = T3.initial_state()
        while not T3.is_terminal(s):
            acts = T3.legal_actions(s)
            s = T3.apply(s, acts[int(rng.integers(len(acts)))])
        # terminal reward matches solver applied to the final board
        assert T3.outcome(s).reward == float(t3_solve(s.board))
