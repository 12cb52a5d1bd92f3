"""5x5 Gardner-style minichess.

Files a-e, ranks 1-5.  Setup mirrors orthodox chess restricted to 5x5:
rook/knight/bishop/queen/king on the back rank, five pawns in front.
Rule restrictions: no castling, no en passant, pawns move a single square,
promotion is always to a queen.  Checkmate and stalemate are standard; a
game is drawn once it reaches 50 plies.

The board is a 25-char string, square index = rank * 5 + file, rank 0 being
White's back rank.  Uppercase pieces are White.  Actions are (from, to)
square pairs; promotion is implicit.
"""

from __future__ import annotations

from typing import NamedTuple

from tdsearch.games.base import (
    BLACK,
    DRAW,
    WHITE,
    Game,
    IllegalMoveError,
    Outcome,
    Side,
)

SIZE = 5
NSQUARES = 25
PLY_CAP = 50

INITIAL_BOARD = "RNBQK" "PPPPP" "....." "ppppp" "rnbqk"

WHITE_PIECES = "PNBRQK"
BLACK_PIECES = "pnbrqk"

_FILES = "abcde"


def _sq(file: int, rank: int) -> int:
    return rank * SIZE + file


def _on_board(file: int, rank: int) -> bool:
    return 0 <= file < SIZE and 0 <= rank < SIZE


def _build_step_table(deltas):
    table = []
    for sq in range(NSQUARES):
        f, r = sq % SIZE, sq // SIZE
        table.append(tuple(_sq(f + df, r + dr) for df, dr in deltas if _on_board(f + df, r + dr)))
    return tuple(table)


def _build_ray_table(deltas):
    table = []
    for sq in range(NSQUARES):
        f, r = sq % SIZE, sq // SIZE
        rays = []
        for df, dr in deltas:
            ray = []
            nf, nr = f + df, r + dr
            while _on_board(nf, nr):
                ray.append(_sq(nf, nr))
                nf, nr = nf + df, nr + dr
            if ray:
                rays.append(tuple(ray))
        table.append(tuple(rays))
    return tuple(table)


KNIGHT_TARGETS = _build_step_table(
    [(1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2)]
)
KING_TARGETS = _build_step_table(
    [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]
)
ROOK_RAYS = _build_ray_table([(0, 1), (1, 0), (0, -1), (-1, 0)])
BISHOP_RAYS = _build_ray_table([(1, 1), (1, -1), (-1, -1), (-1, 1)])

# Diagonal squares a white pawn on sq attacks (and, by symmetry, the squares
# a black pawn must stand on to attack sq).
WHITE_PAWN_CAPS = _build_step_table([(-1, 1), (1, 1)])
BLACK_PAWN_CAPS = _build_step_table([(-1, -1), (1, -1)])


class MinichessState(NamedTuple):
    board: str
    side_to_move: Side
    ply: int


def in_check(board: str, side: Side) -> bool:
    """True if side's king is attacked.  Attack scan from the king square."""
    if side is WHITE:
        ksq, knight, bishop, rook, queen, king, pawn_srcs = (
            board.index("K"), "n", "b", "r", "q", "k", WHITE_PAWN_CAPS)
    else:
        ksq, knight, bishop, rook, queen, king, pawn_srcs = (
            board.index("k"), "N", "B", "R", "Q", "K", BLACK_PAWN_CAPS)
    for t in KNIGHT_TARGETS[ksq]:
        if board[t] == knight:
            return True
    for t in KING_TARGETS[ksq]:
        if board[t] == king:
            return True
    pawn = "p" if side is WHITE else "P"
    for t in pawn_srcs[ksq]:
        if board[t] == pawn:
            return True
    for ray in ROOK_RAYS[ksq]:
        for t in ray:
            ch = board[t]
            if ch != ".":
                if ch == rook or ch == queen:
                    return True
                break
    for ray in BISHOP_RAYS[ksq]:
        for t in ray:
            ch = board[t]
            if ch != ".":
                if ch == bishop or ch == queen:
                    return True
                break
    return False


def pseudo_moves(board: str, side: Side):
    """Yield (from, to) pairs ignoring king safety.  Deterministic order."""
    white = side is WHITE
    own = WHITE_PIECES if white else BLACK_PIECES
    for sq, piece in enumerate(board):
        if piece not in own:  # '.' is never in own
            continue
        kind = piece.upper()
        if kind == "P":
            step = SIZE if white else -SIZE
            fwd = sq + step
            if 0 <= fwd < NSQUARES and board[fwd] == ".":
                yield (sq, fwd)
            for t in (WHITE_PAWN_CAPS if white else BLACK_PAWN_CAPS)[sq]:
                if board[t] != "." and board[t] not in own:
                    yield (sq, t)
        elif kind == "N":
            for t in KNIGHT_TARGETS[sq]:
                if board[t] not in own:  # '.' is never in own
                    yield (sq, t)
        elif kind == "K":
            for t in KING_TARGETS[sq]:
                if board[t] not in own:
                    yield (sq, t)
        else:
            rays = []
            if kind in ("R", "Q"):
                rays.extend(ROOK_RAYS[sq])
            if kind in ("B", "Q"):
                rays.extend(BISHOP_RAYS[sq])
            for ray in rays:
                for t in ray:
                    ch = board[t]
                    if ch == ".":
                        yield (sq, t)
                        continue
                    if ch not in own:
                        yield (sq, t)
                    break


def _edit(board: str, move) -> str:
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


ALL_SQUARES = frozenset(range(NSQUARES))


def _unsafe_origins(board: str, side: Side):
    """Squares whose pseudo-moves may leave side's king attacked.

    In check, that is every square.  Otherwise it is the king's square plus
    each own piece pinned to the king: the first own piece on a rook or
    bishop ray from the king, with an enemy rook/queen (resp. bishop/queen)
    as the next piece behind it.  Moving any other piece cannot expose the
    king: only sliders attack along lines, a move only vacates its origin,
    and there is no en passant to vacate a second square.
    """
    if in_check(board, side):
        return ALL_SQUARES
    if side is WHITE:
        ksq, own, rook, bishop, queen = board.index("K"), WHITE_PIECES, "r", "b", "q"
    else:
        ksq, own, rook, bishop, queen = board.index("k"), BLACK_PIECES, "R", "B", "Q"
    unsafe = {ksq}
    for rays, slider in ((ROOK_RAYS[ksq], rook), (BISHOP_RAYS[ksq], bishop)):
        for ray in rays:
            shield = None
            for t in ray:
                ch = board[t]
                if ch == ".":
                    continue
                if shield is None and ch in own:
                    shield = t
                    continue
                if shield is not None and (ch == slider or ch == queen):
                    unsafe.add(shield)
                break
    return unsafe


def legal_moves(board: str, side: Side):
    """Legal (from, to) pairs, in pseudo_moves order.

    Pin rule: a pseudo-move is tested with _edit + in_check only if it
    starts on a square from _unsafe_origins (the king, a pinned piece, or
    any piece while in check); every other pseudo-move is legal as it is.
    """
    unsafe = _unsafe_origins(board, side)
    return [
        move for move in pseudo_moves(board, side)
        if move[0] not in unsafe or not in_check(_edit(board, move), side)
    ]


def has_any_legal(board: str, side: Side) -> bool:
    for move in pseudo_moves(board, side):
        if not in_check(_edit(board, move), side):
            return True
    return False


class Minichess(Game):
    def initial_state(self) -> MinichessState:
        return MinichessState(INITIAL_BOARD, WHITE, 0)

    def legal_actions(self, state: MinichessState):
        if state.ply >= PLY_CAP:
            return []
        return legal_moves(state.board, state.side_to_move)

    def apply(self, state: MinichessState, action) -> MinichessState:
        try:
            frm, to = action
        except (TypeError, ValueError):
            raise IllegalMoveError(f"bad action: {action!r}") from None
        if state.ply >= PLY_CAP:
            raise IllegalMoveError("game over: ply cap reached")
        own = WHITE_PIECES if state.side_to_move is WHITE else BLACK_PIECES
        if not (0 <= frm < NSQUARES and 0 <= to < NSQUARES) or state.board[frm] not in own:
            raise IllegalMoveError(f"no movable piece on square {frm}")
        if action not in pseudo_moves(state.board, state.side_to_move):
            raise IllegalMoveError(f"piece cannot reach square {to}")
        board = _edit(state.board, action)
        if in_check(board, state.side_to_move):
            raise IllegalMoveError("move leaves the king in check")
        return MinichessState(board, state.side_to_move.opponent, state.ply + 1)

    def apply_trusted(self, state: MinichessState, action) -> MinichessState:
        # Fast path for callers holding an action from legal_actions().
        return MinichessState(
            _edit(state.board, action), state.side_to_move.opponent, state.ply + 1
        )

    def outcome(self, state: MinichessState) -> Outcome | None:
        # Mate/stalemate take precedence if both trip at the cap.
        board, side = state.board, state.side_to_move
        if has_any_legal(board, side):
            return DRAW if state.ply >= PLY_CAP else None
        return Outcome(float(side.opponent.sign)) if in_check(board, side) else DRAW

    # -- text round trip: placement top rank first / side / ply ----------

    def to_text(self, state: MinichessState) -> str:
        ranks = []
        for r in range(SIZE - 1, -1, -1):
            row = state.board[r * SIZE:(r + 1) * SIZE]
            out, empties = "", 0
            for ch in row:
                if ch == ".":
                    empties += 1
                else:
                    if empties:
                        out += str(empties)
                        empties = 0
                    out += ch
            if empties:
                out += str(empties)
            ranks.append(out)
        side = "w" if state.side_to_move is WHITE else "b"
        return f"{'/'.join(ranks)} {side} {state.ply}"

    def from_text(self, text: str) -> MinichessState:
        try:
            placement, side_txt, ply_txt = text.strip().split()
            ranks = placement.split("/")
            assert len(ranks) == SIZE
        except (ValueError, AssertionError):
            raise ValueError(f"bad minichess text: {text!r}") from None
        rows = []
        for rank_txt in ranks:
            row = ""
            for ch in rank_txt:
                if ch.isdigit():
                    row += "." * int(ch)
                elif ch.upper() in WHITE_PIECES:
                    row += ch
                else:
                    raise ValueError(f"bad piece char {ch!r}")
            if len(row) != SIZE:
                raise ValueError(f"rank {rank_txt!r} does not fill {SIZE} files")
            rows.append(row)
        board = "".join(reversed(rows))
        if board.count("K") != 1 or board.count("k") != 1:
            raise ValueError("each side needs exactly one king")
        side = {"w": WHITE, "b": BLACK}.get(side_txt)
        if side is None:
            raise ValueError(f"bad side token {side_txt!r}")
        return MinichessState(board, side, int(ply_txt))

    def action_to_str(self, action) -> str:
        frm, to = action
        return f"{_FILES[frm % SIZE]}{frm // SIZE + 1}{_FILES[to % SIZE]}{to // SIZE + 1}"

    def action_from_str(self, text: str):
        text = text.strip()
        if len(text) != 4:
            raise ValueError(f"bad move token {text!r}")
        frm = _sq(_FILES.index(text[0]), int(text[1]) - 1)
        to = _sq(_FILES.index(text[2]), int(text[3]) - 1)
        return (frm, to)
