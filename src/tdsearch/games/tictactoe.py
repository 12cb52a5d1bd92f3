"""3x3 tic-tac-toe.  White plays X and moves first."""

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

# Cell indices, row-major:
#   0 1 2
#   3 4 5
#   6 7 8
LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),   # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),   # columns
    (0, 4, 8), (2, 4, 6),              # diagonals
)

_CHARS = {1: "X", -1: "O", 0: "."}
_MARKS = {"X": 1, "O": -1, ".": 0}


class TicTacToeState(NamedTuple):
    board: tuple  # 9 ints: +1 White mark, -1 Black mark, 0 empty
    side_to_move: Side
    ply: int


class TicTacToe(Game):
    def initial_state(self) -> TicTacToeState:
        return TicTacToeState((0,) * 9, WHITE, 0)

    def legal_actions(self, state: TicTacToeState):
        if self._winner(state.board) != 0:
            return []
        return [i for i in range(9) if state.board[i] == 0]

    def apply(self, state: TicTacToeState, action: int) -> TicTacToeState:
        if not isinstance(action, int) or not 0 <= action < 9:
            raise IllegalMoveError(f"bad cell index: {action!r}")
        if state.board[action] != 0 or self._winner(state.board) != 0:
            raise IllegalMoveError(f"cell {action} not playable")
        board = list(state.board)
        board[action] = state.side_to_move.sign
        return TicTacToeState(tuple(board), state.side_to_move.opponent, state.ply + 1)

    def outcome(self, state: TicTacToeState) -> Outcome | None:
        w = self._winner(state.board)
        if w != 0:
            return Outcome(float(w))
        return DRAW if state.ply == 9 else None

    @staticmethod
    def _winner(board) -> int:
        for a, b, c in LINES:
            if board[a] != 0 and board[a] == board[b] == board[c]:
                return board[a]
        return 0

    # -- text round trip: row-major grid, rows joined by '/' -------------

    def to_text(self, state: TicTacToeState) -> str:
        rows = []
        for r in range(3):
            rows.append("".join(_CHARS[state.board[3 * r + c]] for c in range(3)))
        return "/".join(rows)

    def from_text(self, text: str) -> TicTacToeState:
        rows = text.split("/")
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError(f"bad tictactoe text: {text!r}")
        try:
            board = tuple(_MARKS[ch] for row in rows for ch in row)
        except KeyError as e:
            raise ValueError(f"bad cell char {e.args[0]!r}") from None
        xs = sum(1 for v in board if v == 1)
        os = sum(1 for v in board if v == -1)
        if os not in (xs, xs - 1):
            raise ValueError(f"unreachable mark counts in {text!r}")
        side = WHITE if xs == os else BLACK
        return TicTacToeState(board, side, xs + os)
