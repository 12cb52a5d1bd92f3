"""Connect-4 on the standard 7x6 board, bitboard representation.

Each column occupies 7 bits (6 playable rows plus a guard bit that absorbs
the carry when a column is full); bit index = col * 7 + row, row 0 at the
bottom.  A state stores the side-to-move's stones and the union of all
stones, so the encoding is mover-relative by construction.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from tdsearch.games.base import (
    BLACK,
    DRAW,
    LOSS,
    WHITE,
    WIN,
    Game,
    IllegalMoveError,
    Outcome,
    Side,
)

COLS = 7
ROWS = 6
STRIDE = ROWS + 1  # bits per column, including the guard row

COLUMN_MASK = tuple(((1 << ROWS) - 1) << (c * STRIDE) for c in range(COLS))
BOTTOM_BIT = tuple(1 << (c * STRIDE) for c in range(COLS))
FULL_MASK = sum(COLUMN_MASK)
BOTTOM_MASK = sum(BOTTOM_BIT)

CENTER_MASK = COLUMN_MASK[3]
LOW_HALF_MASK = sum(0b111 << (c * STRIDE) for c in range(COLS))
EVEN_ROW_MASK = sum(0b010101 << (c * STRIDE) for c in range(COLS))
ODD_ROW_MASK = FULL_MASK ^ EVEN_ROW_MASK

# Center-first column order; tends to tighten alpha-beta windows early.
COLUMN_ORDER = (3, 2, 4, 1, 5, 0, 6)

# A column is full once its top row is filled, so the playable columns are a
# function of the top-row bits alone: 128 entries, each in COLUMN_ORDER.
TOP_BIT = tuple(1 << (c * STRIDE + ROWS - 1) for c in range(COLS))
TOP_MASK = sum(TOP_BIT)
_OPEN_COLUMNS = {
    sum(TOP_BIT[c] for c in range(COLS) if key >> c & 1):
        tuple(c for c in COLUMN_ORDER if not key >> c & 1)
    for key in range(1 << COLS)
}

# Text codec tables.  _TEXT_INDEX is the text character of each bit (rows
# top first, joined by '/'; a guard bit names a '/').  to_text adds each
# column's byte deltas, looked up by its 6 stone bits for column 0 and
# shifted c bytes for column c, to the blank text read as a big-endian
# integer; from_text gathers the characters into bit order and reads each
# colour's as one binary number.
TEXT_LEN = ROWS * (COLS + 1) - 1
_TEXT_INDEX = [(ROWS - 1 - b % STRIDE) * (COLS + 1) + b // STRIDE if b % STRIDE < ROWS else COLS
               for b in range(COLS * STRIDE)]
_BLANK_TEXT = int.from_bytes(b"/".join([b"." * COLS] * ROWS), "big")
_X_COLUMN, _O_COLUMN = (
    tuple(sum(delta << 8 * (TEXT_LEN - 1 - _TEXT_INDEX[r]) for r in range(ROWS) if bits >> r & 1)
          for bits in range(1 << ROWS))
    for delta in (ord("X") - ord("."), ord("O") - ord(".")))
_BIT_ORDER = itemgetter(*reversed(_TEXT_INDEX))
_X_BIT = bytes.maketrans(b"XO./", b"1000")
_O_BIT = bytes.maketrans(b"XO./", b"0100")
_new_tuple = tuple.__new__


def has_alignment(stones: int) -> bool:
    """True if stones contains four in a row in any direction.

    One unrolled test per shift s (1 vertical, STRIDE horizontal, STRIDE - 1
    and STRIDE + 1 the diagonals): a pair at s, then a pair of pairs at 2s.
    """
    p = stones & (stones >> 1)
    if p & (p >> 2):
        return True
    p = stones & (stones >> 7)
    if p & (p >> 14):
        return True
    p = stones & (stones >> 6)
    if p & (p >> 12):
        return True
    p = stones & (stones >> 8)
    return bool(p & (p >> 16))


class ConnectFourState(NamedTuple):
    mover: int   # stones of the side to move
    filled: int  # all stones

    @property
    def ply(self) -> int:
        return self.filled.bit_count()

    @property
    def side_to_move(self) -> Side:
        return BLACK if self.filled.bit_count() & 1 else WHITE

    @property
    def opponent_stones(self) -> int:
        return self.filled ^ self.mover


class ConnectFour(Game):
    def initial_state(self) -> ConnectFourState:
        return ConnectFourState(0, 0)

    def legal_actions(self, state: ConnectFourState):
        filled = state.filled
        if has_alignment(filled ^ state.mover):
            return []
        return [*_OPEN_COLUMNS[filled & TOP_MASK]]

    def apply(self, state: ConnectFourState, action: int) -> ConnectFourState:
        if not isinstance(action, int) or not 0 <= action < COLS:
            raise IllegalMoveError(f"bad column: {action!r}")
        if has_alignment(state.opponent_stones):
            raise IllegalMoveError("game already decided")
        cell = (state.filled + BOTTOM_BIT[action]) & COLUMN_MASK[action]
        if not cell:
            raise IllegalMoveError(f"column {action} is full")
        return ConnectFourState(state.opponent_stones, state.filled | cell)

    def apply_trusted(self, state: ConnectFourState, action: int) -> ConnectFourState:
        # Fast path for callers holding an action from legal_actions();
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        mover, filled = state
        cell = (filled + BOTTOM_BIT[action]) & COLUMN_MASK[action]
        return _new_tuple(ConnectFourState, (filled ^ mover, filled | cell))

    def outcome(self, state: ConnectFourState) -> Outcome | None:
        # Only the player who just moved can have completed a four; an odd
        # stone count means that was White.
        filled = state.filled
        if has_alignment(filled ^ state.mover):
            return WIN if filled.bit_count() & 1 else LOSS
        return DRAW if filled == FULL_MASK else None

    # -- text round trip: rows top-down, 'X' White, 'O' Black ------------

    def to_text(self, state: ConnectFourState) -> str:
        filled = state.filled
        white = filled ^ state.mover if filled.bit_count() & 1 else state.mover
        black = filled & ~white
        text = _BLANK_TEXT
        for c in range(COLS):
            shift = c * STRIDE
            text += (_X_COLUMN[white >> shift & 63] + _O_COLUMN[black >> shift & 63]) >> 8 * c
        return text.to_bytes(TEXT_LEN, "big").decode()

    def from_text(self, text: str) -> ConnectFourState:
        if (len(text) != TEXT_LEN or text.count("/") != ROWS - 1
                or text[COLS::COLS + 1] != "/" * (ROWS - 1)):
            raise ValueError(f"bad connect4 text: {text!r}")
        cells = text.encode("ascii", "replace")  # a non-ASCII character becomes a bad '?'
        if cells.translate(None, b"XO./"):
            raise ValueError(f"bad cell char {next(ch for ch in text if ch not in 'XO./')!r}")
        nw, nb = cells.count(b"X"), cells.count(b"O")
        if nb not in (nw, nw - 1):
            raise ValueError(f"unreachable stone counts in {text!r}")
        bits = bytes(_BIT_ORDER(cells))
        white, black = int(bits.translate(_X_BIT), 2), int(bits.translate(_O_BIT), 2)
        filled = white | black
        floating = (filled + BOTTOM_MASK) & filled  # a stack from the floor carries through
        if floating:
            column = ((floating & -floating).bit_length() - 1) // STRIDE  # the lowest one
            raise ValueError(f"floating stones in column {column}")
        mover = white if nw == nb else black
        if has_alignment(mover):  # the game ended before its last move was made
            raise ValueError(f"side to move already has four in a row: {text!r}")
        return ConnectFourState(mover, filled)
