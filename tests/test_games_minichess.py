from collections import Counter
from itertools import islice

import numpy as np
import pytest

from oracles import (
    mc_board,
    mc_in_check_oracle,
    mc_legal_moves_oracle,
    mc_loop_to_text,
    mc_mirror,
    mc_str_from_text,
    mc_str_in_check,
    mc_str_legal_moves,
    mc_str_pseudo_moves,
    mc_with_mover,
    random_playouts,
    random_position,
)
from tdsearch.games import GAMES
from tdsearch.games.base import IllegalMoveError, Side
from tdsearch.games.minichess import PLY_CAP, in_check, legal_moves

MC = GAMES["minichess"]


def play_strs(move_strs):
    s = MC.initial_state()
    for text in move_strs:
        s = MC.apply(s, MC.action_from_str(text))
    return s


def test_initial_position():
    s = MC.initial_state()
    assert mc_board(s) == "RNBQK" + "PPPPP" + "....." + "ppppp" + "rnbqk"
    assert s.side_to_move is Side.WHITE
    moves = {MC.action_to_str(m) for m in MC.legal_actions(s)}
    assert moves == {"a2a3", "b2b3", "c2c3", "d2d3", "e2e3", "b1a3", "b1c3"}


def test_text_round_trip():
    s = MC.initial_state()
    text = MC.to_text(s)
    assert text == "rnbqk/ppppp/5/PPPPP/RNBQK w 0"
    assert MC.from_text(text) == s
    s2 = play_strs(["c2c3", "d4d3"])
    assert MC.from_text(MC.to_text(s2)) == s2


def test_illegal_moves_rejected():
    s = MC.initial_state()
    with pytest.raises(IllegalMoveError):
        MC.apply(s, MC.action_from_str("a1a2"))  # own pawn on a2
    with pytest.raises(IllegalMoveError):
        MC.apply(s, MC.action_from_str("a2a4"))  # no double push
    with pytest.raises(IllegalMoveError):
        MC.apply(s, MC.action_from_str("e5e4"))  # not your piece


def test_pinned_piece_cannot_expose_king():
    # White rook d2 is pinned on the d-file: queen d4 against king d1
    s = MC.from_text("4k/3q1/5/3R1/3K1 w 0")
    moves = {MC.action_to_str(m) for m in MC.legal_actions(s)}
    rook_moves = {m for m in moves if m.startswith("d2")}
    assert rook_moves == {"d2d3", "d2d4"}  # slide the pin line or capture


def test_movegen_matches_oracle_on_random_positions():
    rng = np.random.default_rng(9)
    positions = 0
    while positions < 1000:
        s = MC.initial_state()
        for _ in range(int(rng.integers(0, 40))):
            if MC.is_terminal(s):
                break
            acts = MC.legal_actions(s)
            s = MC.apply(s, acts[int(rng.integers(len(acts)))])
        if MC.is_terminal(s):
            continue
        positions += 1
        white = s.side_to_move is Side.WHITE
        got = sorted(MC.legal_actions(s))
        want = mc_legal_moves_oracle(mc_board(s), white)
        assert got == want, MC.to_text(s)
        assert in_check(s) == mc_in_check_oracle(mc_board(s), white)


def _full_filter(state):
    """The string-board engine's list: every pseudo-move played out and tested."""
    return mc_str_legal_moves(mc_board(state), state.side_to_move)


def test_pin_aware_movegen_equals_full_filter_on_random_walks():
    rng = np.random.default_rng(29)
    for _ in range(1500):
        s = random_position(MC, rng, 60)
        for side in (Side.WHITE, Side.BLACK):
            st = mc_with_mover(s, side)
            assert legal_moves(st) == _full_filter(st), MC.to_text(st)


def test_legal_actions_keep_the_string_engines_order_on_random_playouts():
    # Element for element, so the search sees moves in the same order and
    # traces keep their bytes.  The games must reach every case that takes
    # its own path: check, a pinned piece, a promotion and the ply cap.
    rng = np.random.default_rng(47)
    seen = Counter()
    for states in islice(random_playouts(MC, rng), 150):
        for s in states:
            board, side = mc_board(s), s.side_to_move
            got = MC.legal_actions(s)
            check = mc_str_in_check(board, side)
            assert in_check(s) == check, MC.to_text(s)
            if s.ply >= PLY_CAP:
                assert got == []
                seen["ply cap"] += 1
                continue
            assert got == mc_str_legal_moves(board, side), MC.to_text(s)
            seen["check"] += check
            seen["pin"] += not check and any(
                board[frm] not in "Kk" and (frm, to) not in got
                for frm, to in mc_str_pseudo_moves(board, side))
            seen["promotion"] += any(board[frm] in "Pp" and to // 5 in (0, 4) for frm, to in got)
    assert all(seen[case] for case in ("check", "pin", "promotion", "ply cap")), seen


def test_state_invariants_and_text_round_trip_on_random_playouts():
    rng = np.random.default_rng(53)
    for states in islice(random_playouts(MC, rng), 60):
        for s in states:
            kinds = s[2:8]
            assert s.own & s.opp == 0
            assert all(a & b == 0 for i, a in enumerate(kinds) for b in kinds[i + 1:])
            assert sum(kinds) == s.own | s.opp
            assert (s.kings & s.own).bit_count() == 1 and (s.kings & s.opp).bit_count() == 1
            assert MC.from_text(MC.to_text(s)) == s
            assert mc_str_from_text(MC.to_text(s)) == (mc_board(s), s.side_to_move, s.ply)


def test_to_text_matches_the_square_loop_on_random_playouts():
    rng = np.random.default_rng(61)
    for states in islice(random_playouts(MC, rng), 60):
        for s in states:
            assert MC.to_text(s) == mc_loop_to_text(s)


# The side not to move is in check, so its king could be captured: no game
# reaches such a root.  The second text mirrors the first (ranks flipped,
# colours swapped, Black to move); with the other side to move, each is a
# check to answer.
@pytest.mark.parametrize("text, answerable", [
    ("k3R/5/5/5/K4 w 0", "k3R/5/5/5/K4 b 0"),
    ("k4/5/5/5/K3r b 0", "k4/5/5/5/K3r w 0"),
])
def test_from_text_rejects_the_side_not_to_move_in_check(text, answerable):
    message = f"side not to move is in check: {text!r}"
    with pytest.raises(ValueError) as engine:
        MC.from_text(text)
    with pytest.raises(ValueError) as reference:
        mc_str_from_text(text)
    assert str(engine.value) == str(reference.value) == message
    assert in_check(MC.from_text(answerable))


@pytest.mark.parametrize("text, square, expected", [
    # rook pin on a file: knight a2 cannot move at all
    ("r3k/5/5/N4/K4 w 0", "a2", set()),
    # bishop pin on a diagonal: rook b2 cannot move at all
    ("4k/3b1/5/1R3/K4 w 0", "b2", set()),
    # queen pins on a file and on a diagonal
    ("2q1k/5/5/2B2/2K2 w 0", "c2", set()),
    ("4k/3q1/5/1N3/K4 w 0", "b2", set()),
    # pinned pieces slide along the pin line, up to capturing the pinner
    ("r3k/5/R4/5/K4 w 0", "a3", {"a3a2", "a3a4", "a3a5"}),
    ("4k/3b1/5/1B3/K4 w 0", "b2", {"b2c3", "b2d4"}),
    # pinned pawn: the capture of the pinner stays on the line, the push does not
    ("4k/5/2b2/1P3/K4 w 0", "b2", {"b2c3"}),
    # pinned pawn promotes by capturing the pinner, but may not promote by pushing
    ("k3b/3P1/2K2/5/5 w 0", "d4", {"d4e5"}),
    # black pins, mirrored
    ("k4/n4/5/5/R3K b 0", "a4", set()),
    # in check from c3 with knight a2 pinned and rook d1 unable to help:
    # only the king moves
    ("r3k/5/2b2/N4/K2R1 w 0", "", {"a1b1"}),
])
def test_pin_aware_movegen_hand_built(text, square, expected):
    s = MC.from_text(text)
    got = legal_moves(s)
    assert got == _full_filter(s)
    assert sorted(got) == mc_legal_moves_oracle(mc_board(s), s.side_to_move is Side.WHITE)
    strs = {MC.action_to_str(m) for m in got}
    assert {m for m in strs if m.startswith(square)} == expected


def test_queen_mate_in_corner():
    # queen e4 supported by king d3 mates the king on e5
    s = MC.from_text("4k/4Q/3K1/5/5 b 8")
    assert in_check(s)
    assert in_check(s) == mc_in_check_oracle(mc_board(s), False)
    assert list(MC.legal_actions(s)) == []
    assert MC.is_terminal(s)
    assert MC.outcome(s).reward == 1.0  # the side that delivered mate won


def test_stalemate_is_draw():
    # Black king a5 boxed in by White queen c4 and king c5; Black to move
    text = "k1K2/2Q2/5/5/5 b 10"
    s = MC.from_text(text)
    assert not in_check(s)
    assert list(MC.legal_actions(s)) == []
    assert MC.is_terminal(s)
    assert MC.outcome(s).reward == 0.0


def test_checkmate_outcome_sign():
    # White queen delivers mate supported by king; Black to move and mated
    text = "k1K2/1Q3/5/5/5 b 8"
    s = MC.from_text(text)
    assert in_check(s)
    assert list(MC.legal_actions(s)) == []
    assert MC.is_terminal(s)
    assert MC.outcome(s).reward == 1.0


def test_promotion_to_queen():
    # White pawn on d4 promotes on d5
    text = "k4/3P1/5/5/4K w 0"
    s = MC.from_text(text)
    s2 = MC.apply(s, MC.action_from_str("d4d5"))
    assert mc_board(s2)[23] == "Q"  # d5 = rank 4 * 5 + file 3


def test_black_promotion():
    text = "k4/5/5/1p3/4K b 0"
    s = MC.from_text(text)
    s2 = MC.apply(s, MC.action_from_str("b2b1"))
    assert mc_board(s2)[1] == "q"


def test_ply_cap_draws():
    s = MC.from_text("rnbqk/ppppp/5/PPPPP/RNBQK w " + str(PLY_CAP))
    assert MC.is_terminal(s)
    assert legal_moves(s)  # moves exist, game ends anyway
    assert MC.outcome(s).reward == 0.0


def test_mate_beats_ply_cap():
    # a mate on the final allowed ply still counts as a win, not a cap draw
    text = "k1K2/1Q3/5/5/5 b " + str(PLY_CAP)
    s = MC.from_text(text)
    assert MC.is_terminal(s)
    assert MC.outcome(s).reward == 1.0


def test_mirror_flips_perspective():
    rng = np.random.default_rng(19)
    for _ in range(50):
        s = MC.initial_state()
        for _ in range(int(rng.integers(0, 20))):
            if MC.is_terminal(s):
                break
            acts = MC.legal_actions(s)
            s = MC.apply(s, acts[int(rng.integers(len(acts)))])
        m = mc_mirror(s)
        assert m.side_to_move is s.side_to_move.opponent
        assert mc_mirror(m) == s
        # legal move counts match under the flip
        if not MC.is_terminal(s):
            assert len(MC.legal_actions(m)) == len(MC.legal_actions(s))


def test_zero_sum_and_termination_random_playouts():
    rng = np.random.default_rng(29)
    rewards = set()
    for _ in range(300):
        s = MC.initial_state()
        while not MC.is_terminal(s):
            acts = MC.legal_actions(s)
            assert acts, "non-terminal position must have a legal move"
            s = MC.apply(s, acts[int(rng.integers(len(acts)))])
        rewards.add(MC.outcome(s).reward)
        assert s.ply <= PLY_CAP
    assert rewards <= {-1.0, 0.0, 1.0}
