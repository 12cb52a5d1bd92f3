from collections import Counter
from itertools import islice, product

import numpy as np
import pytest

from oracles import (
    mc_action_from_str,
    mc_apply_scan,
    mc_board,
    mc_has_any_legal_scan,
    mc_in_check_oracle,
    mc_legal_moves_filter,
    mc_legal_moves_oracle,
    mc_loop_to_text,
    mc_material,
    mc_mirror,
    mc_pseudo_moves_gen,
    mc_str_from_text,
    mc_str_in_check,
    mc_str_legal_moves,
    mc_str_pseudo_moves,
    mc_with_mover,
    random_playouts,
    random_position,
)
from tdsearch.games import GAMES
from tdsearch.games import minichess as mc
from tdsearch.games.base import IllegalMoveError, Side
from tdsearch.games.minichess import NSQUARES, PLY_CAP, in_check, legal_moves

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


_KIND_NAMES = ("pawn", "knight", "bishop", "rook", "queen")


def test_material_is_a_recount_of_the_bitboards_after_every_move():
    # Every legal move from every state of seeded games, through the validated
    # apply, through apply_trusted and through a text round trip: the material
    # the successor carries equals a recount of its bitboards.
    rng = np.random.default_rng(59)
    seen = Counter()
    for states in islice(random_playouts(MC, rng), 30):
        assert states[0].material == mc_material(states[0])
        for s in states[:-1]:
            for move in MC.legal_actions(s):
                child = MC.apply(s, move)
                assert child == MC.apply_trusted(s, move) == MC.from_text(MC.to_text(child))
                assert child.material == mc_material(child), (MC.to_text(s), move)
                frm, to = move
                captured = next((name for name, bits in zip(_KIND_NAMES, s[2:7])
                                 if s.opp & bits >> to & 1), None)
                promoted = s.pawns >> frm & 1 and to // mc.SIZE in (0, mc.SIZE - 1)
                seen[captured] += 1
                if promoted:
                    seen["capture-promotion" if captured else "promotion"] += 1
    assert all(seen[case] for case in (*_KIND_NAMES, "promotion", "capture-promotion")), seen


def test_to_text_matches_the_square_loop_on_random_playouts():
    rng = np.random.default_rng(61)
    for states in islice(random_playouts(MC, rng), 60):
        for s in states:
            assert MC.to_text(s) == mc_loop_to_text(s)


def _result(f, *args):
    """What f returns, or the type and message of the ValueError it raises."""
    try:
        return "returned", f(*args)
    except ValueError as e:  # IllegalMoveError is one
        return type(e).__name__, str(e)


def test_apply_matches_the_generator_scan_on_random_playouts():
    # Every (from, to) pair, off-board squares included, on every state of
    # seeded games: the same successor or the same IllegalMoveError message
    # as the scan of pseudo_moves apply made before its reach tables.
    rng = np.random.default_rng(71)
    seen = Counter()
    squares = range(-1, NSQUARES + 1)
    for states in islice(random_playouts(MC, rng), 8):
        for s in states:
            applied = set()
            for action in product(squares, squares):
                got = _result(MC.apply, s, action)
                assert got == _result(mc_apply_scan, s, action), (MC.to_text(s), action)
                if got[0] == "returned":
                    applied.add(action)
                seen[got[1].split(" on ")[0] if got[0] != "returned" else "applied"] += 1
            assert applied == set(MC.legal_actions(s)), MC.to_text(s)
    for bad in [None, 3, (1,), (1, 2, 3), "a1a2", [7, 12]]:
        assert _result(MC.apply, MC.initial_state(), bad) == \
            _result(mc_apply_scan, MC.initial_state(), bad)
    assert set(seen) == {"applied", "game over: ply cap reached", "no movable piece",
                         "move leaves the king in check"} | {
        f"piece cannot reach square {to}" for to in range(NSQUARES)}, seen


def test_move_lists_and_terminal_tests_match_the_generator_on_random_playouts(monkeypatch):
    # Every state of seeded games and every child a pseudo-move leads to,
    # legal or not: the same moves in the same order as the square-by-square
    # generator and the per-move filter, and the verdict of the full scan.
    # has_any_legal builds a move list only where no legal move is a pawn's,
    # a knight's, a king's or a slider's next square.  The games must reach
    # mates, stalemates and positions whose only legal moves are a slider's
    # farther squares.
    scans = Counter()
    scan = mc.pseudo_moves

    def counting(state, unsafe=0):
        scans[state] += 1
        return scan(state, unsafe)

    monkeypatch.setattr(mc, "pseudo_moves", counting)
    rng = np.random.default_rng(83)
    seen = Counter()
    for states in islice(random_playouts(MC, rng), 40):
        for s in states:
            for st in [s] + [mc._successor(s, move) for move in mc_pseudo_moves_gen(s)]:
                assert scan(st) == list(mc_pseudo_moves_gen(st)), MC.to_text(st)
                legal = legal_moves(st)
                assert legal == mc_legal_moves_filter(st), MC.to_text(st)
                scans.clear()
                verdict = mc.has_any_legal(st)
                assert verdict == mc_has_any_legal_scan(st) == bool(legal), MC.to_text(st)
                sliders = st.own & (st.bishops | st.rooks | st.queens)
                far_only = all(sliders >> frm & 1 and not mc.KING_MASKS[frm] >> to & 1
                               for frm, to in legal)
                assert scans[st] == far_only, MC.to_text(st)
                if not verdict:
                    seen["mate" if in_check(st) else "stalemate"] += 1
                elif far_only:
                    seen["far slider only"] += 1
    assert all(seen[case] for case in ("mate", "stalemate", "far slider only")), seen


# Positions with one legal move: a bishop's far square that also blocks the
# check, a queen stepping into the check's line, and the king capturing.
@pytest.mark.parametrize("text, only", [
    ("q4/5/5/2k2/K1B2 w 0", "c1a3"),
    ("4q/5/3QK/5/2k2 w 0", "d3e4"),
    ("Kn3/5/k4/5/5 w 0", "a5b5"),
])
def test_the_only_legal_move_is_found(text, only):
    s = MC.from_text(text)
    assert [MC.action_to_str(m) for m in legal_moves(s)] == [only]
    assert legal_moves(s) == mc_legal_moves_filter(s) == _full_filter(s)
    assert mc.pseudo_moves(s) == list(mc_pseudo_moves_gen(s))
    assert mc.has_any_legal(s) and mc_has_any_legal_scan(s)
    assert MC.outcome(s) is None


def test_action_from_str_matches_the_parser_on_every_token():
    tokens = ["".join(t) for t in product("abcde", "12345", "abcde", "12345")]
    assert [MC.action_to_str(MC.action_from_str(t)) for t in tokens] == tokens
    for token in tokens:
        assert MC.action_from_str(token) == mc_action_from_str(token), token
    # Spellings action_to_str never writes.  The parser reads some of them
    # (a0a1 as (-5, 0), " a1a2" and "a1a2\n" as (0, 5)); each is a bad token.
    malformed = ["a0a1", "f1a1", " a1a2", "a1a", "a1a2\n", "A1a2", "a6e5", "a\u0663a1", "", "a1a2a"]
    assert mc_action_from_str("a0a1") == (-5, 0)
    assert mc_action_from_str(" a1a2") == mc_action_from_str("a1a2\n") == (0, 5)
    for token in malformed:
        with pytest.raises(ValueError, match="bad move token"):
            MC.action_from_str(token)


# Placements to_text never writes: a long rank beside a short one of the
# same total length, a rank too many, the digits 0 and 6, Unicode digits,
# bad characters in two ranks, a lone surrogate, and runs of empty squares
# split into several digits.  Both parsers reject each with one message,
# which names the whole text.
ODD_PLACEMENTS = [
    "rnbqk1/pppp/5/PPPPP/RNBQK",
    "rnbq/ppppp1/5/PPPPP/RNBQK",
    "rnbqk/ppppp/5/PPPPP/RNBQK/",
    "rnbqk/pp0ppp/5/PPPPP/RNBQK",
    "rnbqk/ppppp/6/PPPPP/RNBQK",
    "r\u0663k/ppppp/5/PPPPP/RNBQK",
    "r\u00b2qk/ppppp/5/PPPPP/RNBQK",
    "rnbqk/pp6/x4/PPPPP/RNBQK",
    "rnbqk/ppxpp/5/PP?PP/RNBQK",
    "rnbqk/ppppp/5/PPPPP/RNBQ\ud800",
    "rnbqk/ppppp/11111/PPPPP/RNBQK",
    "rnbqk/ppppp/23/PPPPP/RNBQK",
    "rnb2/pp1pk/11111/qPP1P/RNB1K",
    "rnbqk/p13/5/PPPPP/RNBQK",
    "rnbqk/pp21x/5/PPPPP/RNBQK",
]


@pytest.mark.parametrize("placement", ODD_PLACEMENTS)
def test_from_text_reads_odd_placements_as_the_string_parser_does(placement):
    def read(text):
        s = MC.from_text(text)
        return mc_board(s), s.side_to_move, s.ply

    text = f"{placement} w 0"
    message = f"bad minichess text: {text!r}"
    assert _result(read, text) == _result(mc_str_from_text, text) == ("ValueError", message)


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


# The ply token is the ASCII decimal to_text writes, from 0 to PLY_CAP: int()
# would also read a sign, an underscore, other Unicode digits or a ply past
# the cap, which no game reaches.
@pytest.mark.parametrize("token", ["-5", "+3", "1_0", "\u0663", "77", "51", "07"])
def test_from_text_rejects_a_bad_ply_token(token):
    text = f"k4/1Q3/2K2/5/5 b {token}"
    with pytest.raises(ValueError) as engine:
        MC.from_text(text)
    with pytest.raises(ValueError) as reference:
        mc_str_from_text(text)
    assert str(engine.value) == str(reference.value) == f"bad ply token {token!r}"
    assert MC.from_text(f"k4/1Q3/2K2/5/5 b {PLY_CAP}").ply == PLY_CAP


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
