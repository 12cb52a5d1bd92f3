"""Independent reference implementations used to cross-check the package.

Everything here is written from scratch with a different structure than the
library code: explicit max/min instead of negamax, coordinate walks instead
of precomputed tables, quadratic sums instead of backward recursion.  Slow
is fine; these exist to catch shared-bug failure modes.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

MATE = 1.0e6


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def white_minimax(game, state, depth, white_eval, ply=0):
    """Full-width minimax on White-perspective scores, no pruning, no negamax.

    Returns the White-perspective value of `state` searched to `depth`.
    """
    if game.is_terminal(state):
        return game.outcome(state).reward * (MATE - ply)
    actions = game.legal_actions(state)
    if depth == 0 or not actions:
        return white_eval(state)
    child_values = [
        white_minimax(game, game.apply(state, a), depth - 1, white_eval, ply + 1)
        for a in actions
    ]
    if state.side_to_move.sign > 0:
        return max(child_values)
    return min(child_values)


def text_eval(game, scale=1.0):
    """Deterministic pseudo-random leaf evaluator, side-to-move perspective.

    Hashes the text form of the state so the value depends on nothing the
    search could exploit.  Range (-scale, scale).
    """

    def evaluator(state):
        digest = hashlib.sha256(game.to_text(state).encode()).digest()
        return scale * (int.from_bytes(digest[:8], "big") / 2**63 - 1.0)

    return evaluator


# ---------------------------------------------------------------------------
# Learning math
# ---------------------------------------------------------------------------


def suffix_sums_quadratic(diffs, lam):
    """S_t = sum_{j>=t} lam^(j-t) * d_j by direct double loop."""
    n = len(diffs)
    return [
        sum(lam ** (j - t) * diffs[j] for j in range(t, n)) for t in range(n)
    ]


def fd_gradient(f, x, h=1e-5):
    """Central finite differences of scalar f at vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# Tic-tac-toe exact solver
# ---------------------------------------------------------------------------

_T3_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)


@lru_cache(maxsize=None)
def t3_solve(board):
    """Game value (1 X wins, 0 draw, -1 O wins) of a 9-tuple board, X=+1."""
    for a, b, c in _T3_LINES:
        s = board[a] + board[b] + board[c]
        if s == 3:
            return 1
        if s == -3:
            return -1
    empties = [i for i, v in enumerate(board) if v == 0]
    if not empties:
        return 0
    mover = 1 if sum(board) == 0 else -1
    values = []
    for i in empties:
        child = list(board)
        child[i] = mover
        values.append(t3_solve(tuple(child)))
    return max(values) if mover == 1 else min(values)


# ---------------------------------------------------------------------------
# Connect four oracles (text grid scans)
# ---------------------------------------------------------------------------


def c4_wins_from_text(text, symbol):
    """True if `symbol` has four in a row in a top-down board text."""
    rows = text.strip().replace("\n", "/").split("/")
    grid = [[ch == symbol for ch in row] for row in rows]
    nr, nc = len(grid), len(grid[0])
    for r in range(nr):
        for c in range(nc):
            for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
                rr, cc = r + 3 * dr, c + 3 * dc
                if 0 <= rr < nr and 0 <= cc < nc:
                    if all(grid[r + k * dr][c + k * dc] for k in range(4)):
                        return True
    return False


@lru_cache(maxsize=None)
def _c4_windows(length):
    """Every line of `length` on-board (row, col) cells, by direction class."""
    out = {"h": [], "v": [], "diag": []}
    for cls, dr, dc in (("h", 0, 1), ("v", 1, 0), ("diag", 1, 1), ("diag", -1, 1)):
        for r in range(6):
            for c in range(7):
                cells = [(r + k * dr, c + k * dc) for k in range(length)]
                if all(0 <= rr < 6 and 0 <= cc < 7 for rr, cc in cells):
                    out[cls].append(cells)
    return out


def c4_features_oracle(game, state):
    """The 12 connect4 features, mover minus opponent, by walking cells.

    Reads the text grid, so it shares no bit layout with the library:
    runs are counted line by line, winning squares are the empty cells of
    four-cell lines whose other three cells belong to one side.
    """
    rows = game.to_text(state).split("/")[::-1]  # row 0 at the bottom
    mine = "X" if state.side_to_move.sign > 0 else "O"
    owner = {(r, c): 0 if ch == "." else 1 if ch == mine else -1
             for r, row in enumerate(rows) for c, ch in enumerate(row)}

    def runs(length, cls):
        total = 0
        for cells in _c4_windows(length)[cls]:
            who = {owner[p] for p in cells}
            if len(who) == 1:
                total += who.pop()
        return total

    wins = {1: set(), -1: set()}
    for lines in _c4_windows(4).values():
        for cells in lines:
            empty = [p for p in cells if owner[p] == 0]
            who = sum(owner[p] for p in cells)
            if len(empty) == 1 and abs(who) == 3:
                wins[who // 3].add(empty[0])

    def win_count(keep):
        return sum(side * sum(1 for p in wins[side] if keep(*p)) for side in (1, -1))

    def playable(r, c):
        return r == 0 or owner[(r - 1, c)] != 0

    return [
        1.0,
        sum(owner[(r, 3)] for r in range(6)),
        runs(2, "h"), runs(2, "v"), runs(2, "diag"),
        runs(3, "h"), runs(3, "v"), runs(3, "diag"),
        win_count(lambda r, c: r % 2 == 0),
        win_count(lambda r, c: r % 2 == 1),
        win_count(playable),
        sum(owner[(r, c)] for r in range(3) for c in range(7)),
    ]


# ---------------------------------------------------------------------------
# Minichess legality oracle (2D coordinate walker)
# ---------------------------------------------------------------------------

_KNIGHT_STEPS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))
_KING_STEPS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
_ROOK_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_BISHOP_DIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _sq(rank, file):
    return rank * 5 + file


def _on_board(rank, file):
    return 0 <= rank < 5 and 0 <= file < 5


def mc_attacked_squares(board, by_white):
    """Set of squares attacked by one side on a 25-char board string."""
    own = "PNBRQK" if by_white else "pnbrqk"
    attacked = set()
    for i, piece in enumerate(board):
        if piece not in own or piece == ".":
            continue
        r, f = divmod(i, 5)
        kind = piece.upper()
        if kind == "P":
            dr = 1 if by_white else -1
            for df in (-1, 1):
                if _on_board(r + dr, f + df):
                    attacked.add(_sq(r + dr, f + df))
        elif kind == "N":
            for dr, df in _KNIGHT_STEPS:
                if _on_board(r + dr, f + df):
                    attacked.add(_sq(r + dr, f + df))
        elif kind == "K":
            for dr, df in _KING_STEPS:
                if _on_board(r + dr, f + df):
                    attacked.add(_sq(r + dr, f + df))
        else:
            dirs = ()
            if kind in ("R", "Q"):
                dirs += _ROOK_DIRS
            if kind in ("B", "Q"):
                dirs += _BISHOP_DIRS
            for dr, df in dirs:
                rr, ff = r + dr, f + df
                while _on_board(rr, ff):
                    attacked.add(_sq(rr, ff))
                    if board[_sq(rr, ff)] != ".":
                        break
                    rr += dr
                    ff += df
    return attacked


def _mc_pseudo(board, white_to_move):
    own = "PNBRQK" if white_to_move else "pnbrqk"
    enemy = "pnbrqk" if white_to_move else "PNBRQK"
    for i, piece in enumerate(board):
        if piece not in own or piece == ".":
            continue
        r, f = divmod(i, 5)
        kind = piece.upper()
        if kind == "P":
            dr = 1 if white_to_move else -1
            if _on_board(r + dr, f) and board[_sq(r + dr, f)] == ".":
                yield (i, _sq(r + dr, f))
            for df in (-1, 1):
                if _on_board(r + dr, f + df) and board[_sq(r + dr, f + df)] in enemy:
                    yield (i, _sq(r + dr, f + df))
        elif kind in ("N", "K"):
            steps = _KNIGHT_STEPS if kind == "N" else _KING_STEPS
            for dr, df in steps:
                if _on_board(r + dr, f + df) and board[_sq(r + dr, f + df)] not in own:
                    yield (i, _sq(r + dr, f + df))
        else:
            dirs = ()
            if kind in ("R", "Q"):
                dirs += _ROOK_DIRS
            if kind in ("B", "Q"):
                dirs += _BISHOP_DIRS
            for dr, df in dirs:
                rr, ff = r + dr, f + df
                while _on_board(rr, ff):
                    t = _sq(rr, ff)
                    if board[t] == ".":
                        yield (i, t)
                    else:
                        if board[t] in enemy:
                            yield (i, t)
                        break
                    rr += dr
                    ff += df


def mc_apply_to_board(board, move, white_to_move):
    """Board string after a move, with last-rank pawn promotion to queen."""
    frm, to = move
    cells = list(board)
    piece = cells[frm]
    if piece == "P" and to >= 20:
        piece = "Q"
    if piece == "p" and to < 5:
        piece = "q"
    cells[to] = piece
    cells[frm] = "."
    return "".join(cells)


def mc_in_check_oracle(board, white_king):
    king = "K" if white_king else "k"
    return board.index(king) in mc_attacked_squares(board, by_white=not white_king)


def mc_legal_moves_oracle(board, white_to_move):
    """Sorted legal (from, to) pairs on a 25-char board string."""
    out = []
    for move in _mc_pseudo(board, white_to_move):
        after = mc_apply_to_board(board, move, white_to_move)
        if not mc_in_check_oracle(after, white_king=white_to_move):
            out.append(move)
    return sorted(out)


# ---------------------------------------------------------------------------
# Random-walk position generators
# ---------------------------------------------------------------------------


def random_position(game, rng, max_plies):
    """Play up to max_plies uniformly random legal moves; may end terminal."""
    state = game.initial_state()
    for _ in range(int(rng.integers(0, max_plies + 1))):
        if game.is_terminal(state):
            break
        actions = game.legal_actions(state)
        if not actions:
            break
        state = game.apply(state, actions[int(rng.integers(len(actions)))])
    return state


def random_tree(rng, depth, branching=(2, 3), value_range=9):
    """Random nested-list tree for the synthetic game, integer leaf values."""
    if depth == 0:
        return int(rng.integers(-value_range, value_range + 1))
    width = int(rng.integers(branching[0], branching[1] + 1))
    return [random_tree(rng, depth - 1, branching, value_range) for _ in range(width)]
