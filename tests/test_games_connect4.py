from itertools import islice

import numpy as np
import pytest

from oracles import (
    C4_DRAW_MOVES,
    c4_fours,
    c4_has_alignment_loop,
    c4_legal_actions_scan,
    c4_loop_to_text,
    c4_mirror_lr,
    c4_winning_squares,
    c4_wins_from_text,
    random_playouts,
)
from tdsearch.games import GAMES
from tdsearch.games.base import IllegalMoveError, Side
from tdsearch.games.connect4 import (
    COLS,
    COLUMN_ORDER,
    FULL_MASK,
    ROWS,
    STRIDE,
    ConnectFourState,
    has_alignment,
)

C4 = GAMES["connect4"]


def play(cols):
    s = C4.initial_state()
    for c in cols:
        s = C4.apply(s, c)
    return s


def test_initial_state():
    s = C4.initial_state()
    assert s.filled == 0 and s.mover == 0
    assert s.side_to_move is Side.WHITE
    acts = list(C4.legal_actions(s))
    assert sorted(acts) == list(range(7))
    assert acts[0] == 3  # center explored first


def test_gravity_text():
    s = play([3, 3, 3])
    text = C4.to_text(s)
    assert text == "......./......./......./...X.../...O.../...X..."


def test_full_column_rejected():
    s = play([0] * 6)
    assert 0 not in C4.legal_actions(s)
    with pytest.raises(IllegalMoveError):
        C4.apply(s, 0)


def test_vertical_win():
    s = play([2, 3, 2, 3, 2, 3, 2])
    assert C4.is_terminal(s)
    assert C4.outcome(s).reward == 1.0


def test_horizontal_win_second_player():
    s = play([0, 3, 0, 4, 1, 5, 1, 6])
    assert C4.is_terminal(s)
    assert C4.outcome(s).reward == -1.0


def test_diagonal_win():
    s = play([0, 1, 1, 2, 2, 3, 2, 3, 3, 6, 3])
    assert C4.is_terminal(s)
    assert C4.outcome(s).reward == 1.0


def test_draw_when_board_full():
    # full board, no four in a row: find one by seeded random playouts
    rng = np.random.default_rng(2)
    for _ in range(2000):
        s = C4.initial_state()
        while not C4.is_terminal(s):
            acts = C4.legal_actions(s)
            s = C4.apply(s, acts[int(rng.integers(len(acts)))])
        if s.filled == FULL_MASK:
            assert C4.outcome(s).reward == 0.0
            assert list(C4.legal_actions(s)) == []
            return
    pytest.fail("no drawn playout found")


def test_text_round_trip_random_positions():
    rng = np.random.default_rng(5)
    for _ in range(300):
        s = C4.initial_state()
        for _ in range(int(rng.integers(0, 42))):
            acts = C4.legal_actions(s)
            if not acts or C4.is_terminal(s):
                break
            s = C4.apply(s, acts[int(rng.integers(len(acts)))])
        back = C4.from_text(C4.to_text(s))
        assert back == s


def test_to_text_matches_the_cell_loop_on_random_playouts():
    for states in islice(random_playouts(C4, np.random.default_rng(17)), 60):
        for s in states:
            assert C4.to_text(s) == c4_loop_to_text(s)


def test_from_text_rejects_floating_stone():
    for row, column in (("X......", 0), ("...X.O.", 3)):
        rows = ["." * 7] * 6
        rows[2] = row  # stones with empty cells below; the lowest such column is named
        with pytest.raises(ValueError, match=f"^floating stones in column {column}$"):
            C4.from_text("/".join(rows))


def test_alignment_matches_text_scan():
    # terminal detection agrees with a grid scan of the rendered board
    rng = np.random.default_rng(17)
    for _ in range(500):
        s = C4.initial_state()
        while not C4.is_terminal(s):
            acts = C4.legal_actions(s)
            s = C4.apply(s, acts[int(rng.integers(len(acts)))])
        text = C4.to_text(s)
        x_wins = c4_wins_from_text(text, "X")
        o_wins = c4_wins_from_text(text, "O")
        assert not (x_wins and o_wins)
        reward = C4.outcome(s).reward
        assert reward == (1.0 if x_wins else -1.0 if o_wins else 0.0)


def test_has_alignment_agrees_with_oracle_midgame():
    rng = np.random.default_rng(23)
    for _ in range(300):
        s = C4.initial_state()
        for _ in range(int(rng.integers(0, 42))):
            if C4.is_terminal(s):
                break
            acts = C4.legal_actions(s)
            s = C4.apply(s, acts[int(rng.integers(len(acts)))])
        text = C4.to_text(s)
        white_bits = s.mover if s.side_to_move is Side.WHITE else s.opponent_stones
        black_bits = s.filled ^ white_bits
        assert has_alignment(white_bits) == c4_wins_from_text(text, "X")
        assert has_alignment(black_bits) == c4_wins_from_text(text, "O")


def test_winning_squares_completes_a_four():
    # every reported square, when filled with the same color, forms a four
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(200):
        s = C4.initial_state()
        for _ in range(int(rng.integers(4, 30))):
            if C4.is_terminal(s):
                break
            acts = C4.legal_actions(s)
            s = C4.apply(s, acts[int(rng.integers(len(acts)))])
        if C4.is_terminal(s):
            continue
        for bits in (s.mover, s.opponent_stones):
            squares = c4_winning_squares(bits, s.filled)
            assert squares & s.filled == 0
            assert squares & ~FULL_MASK == 0
            while squares:
                sq = squares & -squares
                squares ^= sq
                assert has_alignment(bits | sq)
                checked += 1
            # squares not reported must not complete a four
            empty = FULL_MASK & ~s.filled & ~c4_winning_squares(bits, s.filled)
            while empty:
                sq = empty & -empty
                empty ^= sq
                assert not has_alignment(bits | sq)
    assert checked > 50


def test_mirror_preserves_outcome():
    rng = np.random.default_rng(41)
    for _ in range(100):
        s = C4.initial_state()
        while not C4.is_terminal(s):
            acts = C4.legal_actions(s)
            s = C4.apply(s, acts[int(rng.integers(len(acts)))])
        m = c4_mirror_lr(s)
        assert C4.is_terminal(m)
        assert C4.outcome(m).reward == C4.outcome(s).reward
        assert m.ply == s.ply


# -- the unrolled has_alignment and the column table against the old loops --


def _walk_states(seed, games):
    playouts = random_playouts(C4, np.random.default_rng(seed))
    return [s for _ in range(games) for s in next(playouts)]


def _draw_states():
    states = [C4.initial_state()]
    for c in C4_DRAW_MOVES:
        states.append(C4.apply(states[-1], int(c)))
    assert states[-1].filled == FULL_MASK and not C4.is_terminal(states[-2])
    return states


def _stacked_state(heights):
    """Columns stacked to the given heights, coloured so that no four forms:
    cell (row, col) is the mover's when (row + col // 2) is even."""
    mover = filled = 0
    for c, h in enumerate(heights):
        for r in range(h):
            bit = 1 << (c * STRIDE + r)
            filled |= bit
            if (r + c // 2) % 2 == 0:
                mover |= bit
    return ConnectFourState(mover, filled)


def test_has_alignment_matches_reference_loop_on_walks_and_draw():
    for s in _walk_states(3, 200) + _draw_states():
        for stones in (s.mover, s.opponent_stones, s.filled):
            assert has_alignment(stones) == c4_has_alignment_loop(stones)


def test_has_alignment_finds_fours_touching_every_edge():
    touched = set()
    rng = np.random.default_rng(9)
    for cells, four in c4_fours():
        (r0, c0), (r1, c1) = cells[:2]
        direction = (r1 - r0, c1 - c0)
        rows, cols = {r for r, _ in cells}, {c for _, c in cells}
        edges = {"bottom": 0 in rows, "top": ROWS - 1 in rows,
                 "left": 0 in cols, "right": COLS - 1 in cols}
        touched |= {(direction, edge) for edge, hit in edges.items() if hit}
        assert has_alignment(four) and c4_has_alignment_loop(four)
        for r, c in cells:  # three of the four are not a four
            three = four ^ 1 << (c * STRIDE + r)
            assert not has_alignment(three) and not c4_has_alignment_loop(three)
        noise = int(rng.integers(1 << 49)) & FULL_MASK  # the four amid other stones
        assert has_alignment(four | noise)
        assert has_alignment(four | noise) == c4_has_alignment_loop(four | noise)
        assert has_alignment(noise) == c4_has_alignment_loop(noise)
    directions = {(1, 0), (0, 1), (1, 1), (-1, 1)}
    edges = {"bottom", "top", "left", "right"}
    assert touched >= {(d, e) for d in directions for e in edges}


def test_legal_actions_match_reference_scan():
    for s in _walk_states(5, 200) + _draw_states():
        assert C4.legal_actions(s) == c4_legal_actions_scan(s)


def test_legal_actions_for_every_set_of_full_columns():
    rng = np.random.default_rng(11)
    for key in range(1 << COLS):
        full = {c for c in range(COLS) if key >> c & 1}
        low = [int(h) for h in rng.integers(0, ROWS, size=COLS)]
        for heights in ([0] * COLS, [ROWS - 1] * COLS, low):
            s = _stacked_state([ROWS if c in full else heights[c] for c in range(COLS)])
            assert not has_alignment(s.mover) and not has_alignment(s.opponent_stones)
            want = [c for c in COLUMN_ORDER if c not in full]
            assert C4.legal_actions(s) == c4_legal_actions_scan(s) == want
