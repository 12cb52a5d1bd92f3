"""Game implementations and the shared game interface."""

from tdsearch.games.base import (
    DRAW,
    Game,
    IllegalMoveError,
    LOSS,
    Outcome,
    Side,
    WIN,
)
from tdsearch.games.connect4 import ConnectFour, ConnectFourState
from tdsearch.games.minichess import Minichess, MinichessState
from tdsearch.games.synthetic import (
    SyntheticState,
    SyntheticTreeGame,
    TIED_PV_TREE,
    UNIQUE_PV_TREE,
)
from tdsearch.games.tictactoe import TicTacToe, TicTacToeState

GAMES = {
    "tictactoe": TicTacToe(),
    "connect4": ConnectFour(),
    "minichess": Minichess(),
}
