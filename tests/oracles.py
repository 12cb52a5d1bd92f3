"""Independent reference implementations used to cross-check the package.

Everything here is written from scratch with a different structure than the
library code: explicit max/min instead of negamax, coordinate walks instead
of precomputed tables, quadratic sums instead of backward recursion.  Slow
is fine; these exist to catch shared-bug failure modes.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import lru_cache

import numpy as np

from tdsearch.evaluation import features_white, raw_eval, squash
from tdsearch.learner import tdleaf_delta
from tdsearch.games import connect4 as c4
from tdsearch.games.connect4 import ConnectFourState
from tdsearch.games import minichess as mc
from tdsearch.games.base import IllegalMoveError, Side
from tdsearch.games.minichess import MinichessState

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


def white_search(game, state, depth, white_eval, prune=False, rng=None):
    """Explicit max/min search that also reports the chosen line.

    Returns (White-perspective value, pv, number of scored leaves).  Every
    node runs the terminal test first, then generates its moves.  Children
    are tried in legal_actions order and the first best one is kept.  With
    `prune`, alpha-beta cut-offs on the White-perspective window and, given
    a random.Random `rng`, each move list of two or more is shuffled first.
    Without `prune`, `rng` instead picks uniformly among the tied best
    children once they are all scored.  These are the tie conventions of
    tdsearch.search, so its results can be compared exactly.
    """
    nodes = 0

    def rec(s, d, ply, alpha, beta):
        nonlocal nodes
        if game.is_terminal(s):
            nodes += 1
            return game.outcome(s).reward * (MATE - ply), ()
        actions = game.legal_actions(s)
        if d == 0 or not actions:
            nodes += 1
            return white_eval(s), ()
        maximizing = s.side_to_move.sign > 0
        if prune and rng is not None and len(actions) > 1:
            actions = list(actions)
            rng.shuffle(actions)
        lines = []
        for a in actions:
            v, pv = rec(game.apply(s, a), d - 1, ply + 1, alpha, beta)
            lines.append((v, (a, *pv)))
            if prune:
                if maximizing:
                    alpha = max(alpha, v)
                else:
                    beta = min(beta, v)
                if alpha >= beta:
                    break
        best = (max if maximizing else min)(v for v, _ in lines)
        ties = [line for line in lines if line[0] == best]
        if prune or rng is None:
            return ties[0]
        return ties[rng.randrange(len(ties))]

    value, pv = rec(state, depth, 0, float("-inf"), float("inf"))
    return value, pv, nodes


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


def rebase_on_roots(trace, weights, fs, squashed):
    """The same trace with each step's leaf replaced by its search root.

    Features and values are recomputed at the roots with the given weights,
    which is exactly what the root-based update rule operates on.
    """
    steps = []
    for s in trace.steps:
        phi = features_white(fs, s.root)
        raw = raw_eval(phi, weights)
        steps.append(
            replace(s, leaf=s.root, pv=(), leaf_features=phi,
                    value=squash(raw, squashed), raw_value=raw)
        )
    return replace(trace, steps=tuple(steps))


def td_update(trace, cfg, weights, fs, game_index=0):
    """Root-based TD(lambda) delta, the paper's comparator for TDLeaf(lambda).

    The same rule applied to the searched positions themselves; no run mode
    uses it, the acceptance checks compare against it.
    """
    rebased = rebase_on_roots(trace, weights, fs, cfg.squash)
    return tdleaf_delta(rebased, cfg, len(weights), game_index)


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


# Shift distances: vertical, horizontal, the two diagonals.
C4_DIRECTIONS = (1, c4.STRIDE, c4.STRIDE - 1, c4.STRIDE + 1)


# The two loops connect4 ran before its unrolled test and column table,
# kept as references the faster forms must agree with.


def c4_has_alignment_loop(stones):
    """Four in a row, one shift direction at a time."""
    for s in C4_DIRECTIONS:
        pairs = stones & (stones >> s)
        if pairs & (pairs >> (2 * s)):
            return True
    return False


def c4_legal_actions_scan(state):
    """Columns in COLUMN_ORDER whose next free cell is on the board; [] once
    a four is on the board."""
    if c4_has_alignment_loop(state.filled ^ state.mover):
        return []
    playable = (state.filled + c4.BOTTOM_MASK) & c4.FULL_MASK
    return [c for c in c4.COLUMN_ORDER if playable & c4.COLUMN_MASK[c]]


def c4_fours():
    """Every four-in-a-row on the board as (cells, stone mask), cells (row, col)."""
    return [(cells, sum(1 << (c * c4.STRIDE + r) for r, c in cells))
            for lines in _c4_windows(4).values() for cells in lines]


def c4_winning_squares(stones, filled):
    """Empty playable-board squares that would complete a four for stones,
    one colour at a time, as the features were computed before packing."""
    r = (stones << 1) & (stones << 2) & (stones << 3)  # vertical
    for s in C4_DIRECTIONS[1:]:
        p = (stones << s) & (stones << (2 * s))
        r |= p & (stones << (3 * s))
        r |= p & (stones >> s)
        p = (stones >> s) & (stones >> (2 * s))
        r |= p & (stones >> (3 * s))
        r |= p & (stones << s)
    return r & c4.FULL_MASK & ~filled


def c4_mirror_lr(state):
    """Reflect the board left-right (column c -> 6-c)."""

    def flip(mask):
        out = 0
        for c in range(c4.COLS):
            col = (mask >> (c * c4.STRIDE)) & ((1 << c4.STRIDE) - 1)
            out |= col << ((c4.COLS - 1 - c) * c4.STRIDE)
        return out

    return ConnectFourState(flip(state.mover), flip(state.filled))


# The cell-by-cell text codec connect4 ran before its table-driven one, kept
# as the reference the tables must agree with, messages included.


def c4_loop_to_text(state):
    """Rows top-down, 'X' White, 'O' Black, '.' empty, one cell at a time."""
    white = state.mover if state.side_to_move is Side.WHITE else state.opponent_stones
    black = state.filled ^ white
    rows = []
    for r in range(c4.ROWS - 1, -1, -1):
        row = []
        for c in range(c4.COLS):
            bit = 1 << (c * c4.STRIDE + r)
            row.append("X" if white & bit else "O" if black & bit else ".")
        rows.append("".join(row))
    return "/".join(rows)


def c4_loop_from_text(text):
    rows = text.split("/")
    if len(rows) != c4.ROWS or any(len(r) != c4.COLS for r in rows):
        raise ValueError(f"bad connect4 text: {text!r}")
    white = black = 0
    for i, row in enumerate(rows):
        r = c4.ROWS - 1 - i
        for c, ch in enumerate(row):
            bit = 1 << (c * c4.STRIDE + r)
            if ch == "X":
                white |= bit
            elif ch == "O":
                black |= bit
            elif ch != ".":
                raise ValueError(f"bad cell char {ch!r}")
    nw, nb = white.bit_count(), black.bit_count()
    if nb not in (nw, nw - 1):
        raise ValueError(f"unreachable stone counts in {text!r}")
    filled = white | black
    for c in range(c4.COLS):
        col = (filled & c4.COLUMN_MASK[c]) >> (c * c4.STRIDE)
        if col & (col + 1):  # stones must be a contiguous stack from the floor
            raise ValueError(f"floating stones in column {c}")
    mover = white if nw == nb else black
    if c4_wins_from_text(text, "X" if nw == nb else "O"):
        raise ValueError(f"side to move already has four in a row: {text!r}")
    return ConnectFourState(mover, filled)


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


def mc_board(state):
    """The 25-char board string of a state, uppercase White, '.' empty."""
    white = state.own if state.side_to_move is Side.WHITE else state.opp
    cells = []
    for sq in range(25):
        letters = [ch for ch, bits in zip("PNBRQK", state[2:8]) if bits >> sq & 1]
        assert len(letters) <= 1, f"square {sq} holds {letters}"
        cells.append("." if not letters else letters[0] if white >> sq & 1 else letters[0].lower())
    return "".join(cells)


def mc_material(state):
    """The material field recounted from the bitboards: each colour's pawns,
    knights, bishops, rooks and queens, 5 bits each, Black's lane above White's."""
    white = state.own if state.side_to_move is Side.WHITE else state.opp
    black = (state.own | state.opp) ^ white
    return sum((kind & colour).bit_count() << 5 * i + lane
               for lane, colour in ((0, white), (mc.BLACK_LANE, black))
               for i, kind in enumerate(state[2:7]))


def mc_with_mover(state, side):
    """The same pieces with side to move; own and opp follow the mover."""
    if side is state.side_to_move:
        return state
    return state._replace(own=state.opp, opp=state.own, side_to_move=side)


def mc_mirror(state):
    """Color-swapped position: ranks flipped, colours swapped, mover toggled.

    The mover keeps its pieces (own stays own) but plays the other colour,
    so the material's White and Black lanes swap.
    """
    def flip(bits):
        return sum(((bits >> 5 * r) & 0b11111) << 5 * (4 - r) for r in range(5))

    lane = (1 << mc.BLACK_LANE) - 1
    material = state.material >> mc.BLACK_LANE | (state.material & lane) << mc.BLACK_LANE
    return MinichessState(*map(flip, state[:8]), state.side_to_move.opponent, state.ply, material)


# A string-board minichess engine: a 25-char board, a move generator in the
# engine's order, and every pseudo-move played out and tested for check.  It
# is the reference for the bitboard engine's move order and for what its
# from_text accepts and rejects.


def mc_str_in_check(board, side):
    """True if side's king is attacked.  Attack scan from the king square."""
    if side is Side.WHITE:
        ksq, knight, bishop, rook, queen, king, pawn_srcs = (
            board.index("K"), "n", "b", "r", "q", "k", mc.WHITE_PAWN_CAPS)
    else:
        ksq, knight, bishop, rook, queen, king, pawn_srcs = (
            board.index("k"), "N", "B", "R", "Q", "K", mc.BLACK_PAWN_CAPS)
    for t in mc.KNIGHT_TARGETS[ksq]:
        if board[t] == knight:
            return True
    for t in mc.KING_TARGETS[ksq]:
        if board[t] == king:
            return True
    pawn = "p" if side is Side.WHITE else "P"
    for t in pawn_srcs[ksq]:
        if board[t] == pawn:
            return True
    for ray in mc.ROOK_RAYS[ksq]:
        for t in ray:
            ch = board[t]
            if ch != ".":
                if ch == rook or ch == queen:
                    return True
                break
    for ray in mc.BISHOP_RAYS[ksq]:
        for t in ray:
            ch = board[t]
            if ch != ".":
                if ch == bishop or ch == queen:
                    return True
                break
    return False


def mc_str_pseudo_moves(board, side):
    """Yield (from, to) pairs ignoring king safety.  Deterministic order."""
    white = side is Side.WHITE
    own = "PNBRQK" if white else "pnbrqk"
    for sq, piece in enumerate(board):
        if piece not in own:  # '.' is never in own
            continue
        kind = piece.upper()
        if kind == "P":
            step = 5 if white else -5
            fwd = sq + step
            if 0 <= fwd < 25 and board[fwd] == ".":
                yield (sq, fwd)
            for t in (mc.WHITE_PAWN_CAPS if white else mc.BLACK_PAWN_CAPS)[sq]:
                if board[t] != "." and board[t] not in own:
                    yield (sq, t)
        elif kind == "N":
            for t in mc.KNIGHT_TARGETS[sq]:
                if board[t] not in own:  # '.' is never in own
                    yield (sq, t)
        elif kind == "K":
            for t in mc.KING_TARGETS[sq]:
                if board[t] not in own:
                    yield (sq, t)
        else:
            rays = []
            if kind in ("R", "Q"):
                rays.extend(mc.ROOK_RAYS[sq])
            if kind in ("B", "Q"):
                rays.extend(mc.BISHOP_RAYS[sq])
            for ray in rays:
                for t in ray:
                    ch = board[t]
                    if ch == ".":
                        yield (sq, t)
                        continue
                    if ch not in own:
                        yield (sq, t)
                    break


def mc_str_edit(board, move):
    """Board after the move, with automatic queen promotion."""
    frm, to = move
    piece = board[frm]
    if piece == "P" and to >= 20:
        piece = "Q"
    elif piece == "p" and to < 5:
        piece = "q"
    cells = list(board)
    cells[frm] = "."
    cells[to] = piece
    return "".join(cells)


def mc_str_legal_moves(board, side):
    """Legal (from, to) pairs in the engine's order: every pseudo-move played and tested."""
    return [m for m in mc_str_pseudo_moves(board, side)
            if not mc_str_in_check(mc_str_edit(board, m), side)]


def features_oracle(set_id, game, state):
    """A feature set's vector as a list, read from the text or board string.

    connect4 is c4_features_oracle; tictactoe reads the text grid;
    minichess counts letters on the board string and its string move
    generator's moves, and walks the king's neighbour squares.
    """
    if set_id == "connect4":
        return c4_features_oracle(game, state)
    side = state.side_to_move
    if set_id == "tictactoe":
        mine = "X" if side is Side.WHITE else "O"
        cells = game.to_text(state).replace("/", "")
        return [0 if ch == "." else 1 if ch == mine else -1 for ch in cells] + [1.0]
    board = mc_board(state)
    material = [side.sign * (board.count(w) - board.count(b)) for w, b in ("Pp", "Nn", "Bb", "Rr", "Qq")]
    if set_id == "minichess-material":
        return material

    def exposure(king):  # the king's neighbour squares its own pieces leave open
        mine = str.isupper if king == "K" else str.islower
        return sum(1 for t in mc.KING_TARGETS[board.index(king)] if not mine(board[t]))

    own_king, opp_king = ("K", "k") if side is Side.WHITE else ("k", "K")
    mobility = (len(list(mc_str_pseudo_moves(board, side)))
                - len(list(mc_str_pseudo_moves(board, side.opponent))))
    return material + [mobility, exposure(opp_king) - exposure(own_king)]


def mc_loop_to_text(state):
    """Minichess text one square at a time: the to_text minichess ran before its tables."""
    white = state.own if state.side_to_move is Side.WHITE else state.opp
    cells = ["1"] * 25  # one text cell per square, "1" while empty
    for kind, bits in enumerate(state[2:8]):
        while bits:
            bit = bits & -bits
            bits ^= bit
            cells[bit.bit_length() - 1] = "PNBRQKpnbrqk"[kind if bit & white else kind + 6]
    squares = "".join(cells)
    placement = "/".join([squares[r:r + 5] for r in range(20, -1, -5)])
    for run in "5432":
        placement = placement.replace("1" * int(run), run)
    side = "w" if state.side_to_move is Side.WHITE else "b"
    return f"{placement} {side} {state.ply}"


def mc_str_from_text(text):
    """(board, side, ply) from minichess text: the string-board engine's parser."""
    try:
        placement, side_txt, ply_txt = text.split(" ")
        ranks = placement.split("/")
        assert len(ranks) == 5
    except (ValueError, AssertionError):
        raise ValueError(f"bad minichess text: {text!r}") from None
    rows = []
    for rank_txt in ranks:
        row = ""
        for ch in rank_txt:
            if ch in "12345":  # the ASCII digits to_text writes
                row += "." * int(ch)
            elif ch.upper() in "PNBRQK":
                row += ch
            else:  # a bad piece char
                raise ValueError(f"bad minichess text: {text!r}")
        # to_text packs each run of empty squares into one digit
        if any(a in "12345" and b in "12345" for a, b in zip(rank_txt, rank_txt[1:])):
            raise ValueError(f"bad minichess text: {text!r}")
        if len(row) != 5:  # the rank does not fill the files
            raise ValueError(f"bad minichess text: {text!r}")
        rows.append(row)
    board = "".join(reversed(rows))
    if board.count("K") != 1 or board.count("k") != 1:
        raise ValueError("each side needs exactly one king")
    side = {"w": Side.WHITE, "b": Side.BLACK}.get(side_txt)
    if side is None:
        raise ValueError(f"bad side token {side_txt!r}")
    # ASCII decimal digits, no sign or leading zero, at most the ply cap
    if not (ply_txt.isascii() and ply_txt.isdigit()) or str(int(ply_txt)) != ply_txt \
            or int(ply_txt) > mc.PLY_CAP:
        raise ValueError(f"bad ply token {ply_txt!r}")
    ply = int(ply_txt)
    if mc_str_in_check(board, side.opponent):  # its king could be captured
        raise ValueError(f"side not to move is in check: {text!r}")
    return board, side, ply


def mc_apply_scan(state, action):
    """Minichess.apply as it validated before its reach tables: the action
    must be in the list pseudo_moves generates for the side to move."""
    try:
        frm, to = action
    except (TypeError, ValueError):
        raise IllegalMoveError(f"bad action: {action!r}") from None
    if state.ply >= mc.PLY_CAP:
        raise IllegalMoveError("game over: ply cap reached")
    if not (0 <= frm < 25 and 0 <= to < 25) or not state.own >> frm & 1:
        raise IllegalMoveError(f"no movable piece on square {frm}")
    if action not in mc.pseudo_moves(state):
        raise IllegalMoveError(f"piece cannot reach square {to}")
    if not mc._is_safe(action, state, state.own | state.opp, state.kings & state.own):
        raise IllegalMoveError("move leaves the king in check")
    return mc._successor(state, action)


def mc_action_from_str(text):
    """The minichess move-token parser before its token table."""
    text = text.strip()
    if len(text) != 4:
        raise ValueError(f"bad move token {text!r}")
    frm = ("abcde".index(text[0])) + (int(text[1]) - 1) * 5
    to = ("abcde".index(text[2])) + (int(text[3]) - 1) * 5
    return (frm, to)


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


def random_playouts(game, rng):
    """Endless uniformly random games, each a list of states from the start."""
    while True:
        states = [game.initial_state()]
        while not game.is_terminal(states[-1]):
            actions = game.legal_actions(states[-1])
            states.append(game.apply(states[-1], actions[int(rng.integers(len(actions)))]))
        yield states


# A drawn connect4 game: the 42nd move fills the board without a four.
C4_DRAW_MOVES = "032220653341512250331461110530666440556244"


def state_for_label(game, label):
    """The synthetic-tree state with the given breadth-first label."""
    queue = [game.initial_state()]
    while queue:
        state = queue.pop(0)
        if game.label(state) == label:
            return state
        queue.extend(game.apply(state, a) for a in game.legal_actions(state))
    raise KeyError(label)


def random_tree(rng, depth, branching=(2, 3), value_range=9):
    """Random nested-list tree for the synthetic game, integer leaf values."""
    if depth == 0:
        return int(rng.integers(-value_range, value_range + 1))
    width = int(rng.integers(branching[0], branching[1] + 1))
    return [random_tree(rng, depth - 1, branching, value_range) for _ in range(width)]


# The move generator, legality filter and terminal test minichess ran before
# its move-list tables, kept as references the table-driven forms must agree
# with, move order included.


def mc_pseudo_moves_gen(state):
    """Yield the side to move's (from, to) pairs ignoring king safety, square by square."""
    own, opp, pawns, knights, bishops, rooks, _, kings, side, _, _ = state
    occ = own | opp
    white = side is Side.WHITE
    rest = own
    while rest:
        bit = rest & -rest
        rest ^= bit
        sq = bit.bit_length() - 1
        if bit & pawns:
            fwd = sq + 5 if white else sq - 5
            if 0 <= fwd < 25 and not occ >> fwd & 1:
                yield (sq, fwd)
            for t in (mc.WHITE_PAWN_CAPS if white else mc.BLACK_PAWN_CAPS)[sq]:
                if opp >> t & 1:
                    yield (sq, t)
        elif bit & (knights | kings):
            for t in (mc.KNIGHT_TARGETS if bit & knights else mc.KING_TARGETS)[sq]:
                if not own >> t & 1:
                    yield (sq, t)
        else:
            rays = (mc.ROOK_RAYS if bit & rooks else mc.BISHOP_RAYS if bit & bishops
                    else mc.QUEEN_RAYS)[sq]
            for ray in rays:
                for t in ray:
                    if occ >> t & 1:
                        if opp >> t & 1:
                            yield (sq, t)
                        break
                    yield (sq, t)


def mc_legal_moves_filter(state):
    """Legal pairs, one move at a time: in check every move gets the attack
    test, otherwise each move from the king's square or from a rook or
    bishop ray of the king that holds an enemy slider of that kind."""
    own, opp = state.own, state.opp
    occ = own | opp
    king = state.kings & own
    ksq = king.bit_length() - 1
    if mc.in_check(state):
        unsafe = own
    else:
        unsafe = king
        queens = state.queens & opp
        for rays, sliders in ((mc.ROOK_RAYS[ksq], state.rooks & opp | queens),
                              (mc.BISHOP_RAYS[ksq], state.bishops & opp | queens)):
            for ray in rays:
                mask = sum(1 << t for t in ray)
                if mask & sliders:
                    unsafe |= mask & own
    return [move for move in mc_pseudo_moves_gen(state)
            if not unsafe >> move[0] & 1 or mc._is_safe(move, state, occ, king)]


def mc_has_any_legal_scan(state):
    """True if some generated move leaves the king unattacked, scanning in order."""
    occ, king = state.own | state.opp, state.kings & state.own
    return any(mc._is_safe(move, state, occ, king) for move in mc_pseudo_moves_gen(state))
