"""Linear evaluation: feature tables, weights, squashing, snapshots.

Feature vectors are side-to-move relative: swapping colors and the mover
leaves the vector unchanged, so a single weight vector serves both seats.
Converting to White's fixed perspective is a plain sign flip (see
features_white), under which mirrored positions negate.

For learning, raw evaluations are squashed through tanh(beta * j).  beta is
calibrated so that an advantage of one anchor unit (a pawn, where the game
has one) squashes to exactly 0.25, matching the convention that a win
counts 1.0.  Win/loss/draw rewards themselves pass through unsquashed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tdsearch.games.base import Side
from tdsearch.games import connect4 as c4
from tdsearch.games import minichess as mc

# tanh(ATANH_QUARTER) == 0.25: one anchor unit of advantage squashes to 1/4.
ATANH_QUARTER = math.atanh(0.25)

_ONE_INSIDE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class SquashConfig:
    """tanh squashing parameters; enabled=False means the identity map."""

    beta: float = ATANH_QUARTER
    enabled: bool = True

    @classmethod
    def calibrated(cls, unit_value: float = 1.0) -> "SquashConfig":
        """beta such that squash(unit_value) == 0.25."""
        if unit_value <= 0:
            raise ValueError("unit_value must be positive")
        return cls(beta=ATANH_QUARTER / unit_value)

    @classmethod
    def disabled(cls) -> "SquashConfig":
        return cls(beta=1.0, enabled=False)


def squash(j: float, cfg: SquashConfig | None) -> float:
    """tanh(beta * j), strictly inside (-1, 1).

    float64 tanh rounds to exactly +/-1 once |beta*j| exceeds about 19
    (mate-score leaves); those saturated values are pulled one ulp inward
    so the open-interval range holds for every input.
    """
    if cfg is None or not cfg.enabled:
        return float(j)
    v = math.tanh(cfg.beta * j)
    if v >= 1.0:
        return _ONE_INSIDE
    if v <= -1.0:
        return -_ONE_INSIDE
    return v


@dataclass(frozen=True)
class WeightVector:
    """Immutable weight vector with optionally anchored (frozen) entries."""

    values: np.ndarray
    anchors: tuple = ()  # ((index, value), ...) entries updates must not move

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError(f"weights must be finite, got {arr.tolist()}")
        for i, v in self.anchors:
            if not 0 <= i < arr.shape[0]:
                raise ValueError(f"anchor index {i} out of range")
            if arr[i] != v:
                raise ValueError(f"weight {i} is {arr[i]!r}, anchored at {v!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "anchors", tuple((int(i), float(v)) for i, v in self.anchors))

    def __len__(self) -> int:
        return self.values.shape[0]

    def with_values(self, values) -> "WeightVector":
        return WeightVector(values, self.anchors)

    def anchor_indices(self) -> tuple:
        return tuple(i for i, _ in self.anchors)


def raw_eval(features: np.ndarray, weights: WeightVector) -> float:
    """Linear evaluation w . phi."""
    if features.shape != weights.values.shape:
        raise ValueError(
            f"feature/weight length mismatch: {features.shape} vs {weights.values.shape}"
        )
    return float(np.dot(weights.values, features))


def grad_squashed(features: np.ndarray, weights: WeightVector, cfg: SquashConfig | None,
                  value: float | None = None) -> np.ndarray:
    """Gradient of squash(raw_eval) wrt the weights: beta*(1-v^2)*phi.

    v is the squashed value of the features under the weights; a caller
    that already holds it (a trace's stored leaf value) passes it as value.
    Entries at anchored indices are zeroed, which is what keeps anchors
    fixed under updates (no post-hoc clamping).
    """
    if cfg is None or not cfg.enabled:
        g = np.array(features, dtype=np.float64)
    else:
        v = squash(raw_eval(features, weights), cfg) if value is None else value
        g = (cfg.beta * (1.0 - v * v)) * features
    for i in weights.anchor_indices():
        g[i] = 0.0
    return g


# ---------------------------------------------------------------------------
# Per-game feature tables
# ---------------------------------------------------------------------------


def _tictactoe_features(state) -> np.ndarray:
    """9 cell-ownership values from the mover's side (+1 mine) plus a bias."""
    s = state.side_to_move.sign
    return np.array([s * v for v in state.board] + [1.0], dtype=np.float64)


_C4_NAMES = (
    "bias",
    "center_col",
    "run2_h",
    "run2_v",
    "run2_diag",
    "run3_h",
    "run3_v",
    "run3_diag",
    "win_sq_even_row",
    "win_sq_odd_row",
    "playable_win_sq",
    "low_half",
)


# Both colours packed into one int: the mover's stones in bits 0..48, the
# opponent's in bits 80..128, so each shift, AND and OR below acts on both
# at once.  No shift exceeds 3 * (STRIDE + 1) = 24 bits, so a stone shifted
# off its own colour's squares lands in the free bits 49..79 (the mover's
# reach bit 72 at most, the opponent's bit 56 at least), which every count
# masks away: one colour never reaches the other's squares.
_C4_GAP = 80
_C4_LO = (1 << _C4_GAP) - 1
_C4_CENTER, _C4_LOW, _C4_EVEN, _C4_ODD, _C4_BOTTOM, _C4_FULL = (
    m | m << _C4_GAP for m in (c4.CENTER_MASK, c4.LOW_HALF_MASK, c4.EVEN_ROW_MASK,
                               c4.ODD_ROW_MASK, c4.BOTTOM_MASK, c4.FULL_MASK))


def _connect4_features(state) -> np.ndarray:
    """Bit-parallel Connect-4 features, mover minus opponent throughout.

    Runs are adjacent same-color pairs/triples per direction class (both
    diagonals merged so the table is left-right mirror invariant); winning
    squares are empty cells completing a four, split by row parity;
    playable winning squares are those available this instant.
    """
    G, LO = _C4_GAP, _C4_LO
    mine, filled = state.mover, state.filled
    b = mine | (filled ^ mine) << G
    filled |= filled << G
    # Shift 1 is vertical, STRIDE = 7 horizontal, 6 and 8 the two diagonals.
    v1, h1, a1, c1 = b >> 1, b >> 7, b >> 6, b >> 8
    v2, h2, a2, c2 = b >> 2, b >> 14, b >> 12, b >> 16
    H1, A1, C1 = b << 7, b << 6, b << 8
    win = ((b << 1) & (b << 2) & (b << 3)  # c4.winning_squares of both colours
           | H1 & (b << 14) & (b << 21 | h1) | h1 & h2 & (b >> 21 | H1)
           | A1 & (b << 12) & (b << 18 | a1) | a1 & a2 & (b >> 18 | A1)
           | C1 & (b << 16) & (b << 24 | c1) | c1 & c2 & (b >> 24 | C1)) & ~filled
    ph, pv, pa, pc = b & h1, b & v1, b & a1, b & c1
    th, tv, ta, tc = ph & h2, pv & v2, pa & a2, pc & c2
    ce, lw, ev, od = b & _C4_CENTER, b & _C4_LOW, win & _C4_EVEN, win & _C4_ODD
    pl = win & (filled + _C4_BOTTOM) & _C4_FULL
    return np.array([
        1.0,
        (ce & LO).bit_count() - (ce >> G).bit_count(),
        (ph & LO).bit_count() - (ph >> G).bit_count(),
        (pv & LO).bit_count() - (pv >> G).bit_count(),
        (pa & LO).bit_count() + (pc & LO).bit_count() - (pa >> G).bit_count() - (pc >> G).bit_count(),
        (th & LO).bit_count() - (th >> G).bit_count(),
        (tv & LO).bit_count() - (tv >> G).bit_count(),
        (ta & LO).bit_count() + (tc & LO).bit_count() - (ta >> G).bit_count() - (tc >> G).bit_count(),
        (ev & LO).bit_count() - (ev >> G).bit_count(),
        (od & LO).bit_count() - (od >> G).bit_count(),
        (pl & LO).bit_count() - (pl >> G).bit_count(),
        (lw & LO).bit_count() - (lw >> G).bit_count(),
    ], dtype=np.float64)


_PIECE_PAIRS = (("P", "p"), ("N", "n"), ("B", "b"), ("R", "r"), ("Q", "q"))


def _minichess_material(state) -> list:
    board = state.board
    mat = [float(board.count(w) - board.count(b)) for w, b in _PIECE_PAIRS]
    if state.side_to_move is Side.BLACK:
        mat = [-v for v in mat]
    return mat


def _minichess_material_features(state) -> np.ndarray:
    return np.array(_minichess_material(state), dtype=np.float64)


def _king_exposure(board: str, side: Side) -> int:
    own = mc.WHITE_PIECES if side is Side.WHITE else mc.BLACK_PIECES
    ksq = board.index("K" if side is Side.WHITE else "k")
    return sum(1 for t in mc.KING_TARGETS[ksq] if board[t] not in own)


def _minichess_features(state) -> np.ndarray:
    """Material differences plus pseudo-mobility and king exposure."""
    vals = _minichess_material(state)
    side = state.side_to_move
    mob = sum(1 for _ in mc.pseudo_moves(state.board, side)) - sum(
        1 for _ in mc.pseudo_moves(state.board, side.opponent)
    )
    exposure = _king_exposure(state.board, side.opponent) - _king_exposure(state.board, side)
    vals.append(float(mob))
    vals.append(float(exposure))
    return np.array(vals, dtype=np.float64)


@dataclass(frozen=True)
class FeatureSet:
    """A named feature table bound to one game."""

    id: str
    game_id: str
    names: tuple
    extract: object  # callable(state) -> np.ndarray
    anchors: tuple = ()       # anchored (index, value) pairs for new weights
    unit_value: float = 1.0   # raw-eval points worth one calibration unit

    @property
    def k(self) -> int:
        return len(self.names)

    def zero_weights(self) -> WeightVector:
        w = np.zeros(self.k)
        for i, v in self.anchors:
            w[i] = v
        return WeightVector(w, self.anchors)

    def weights_from(self, named: dict) -> WeightVector:
        unknown = set(named) - set(self.names)
        if unknown:
            raise ValueError(f"unknown feature names: {sorted(unknown)}")
        w = np.zeros(self.k)
        for i, name in enumerate(self.names):
            w[i] = named.get(name, 0.0)
        for i, v in self.anchors:
            w[i] = v
        return WeightVector(w, self.anchors)

    def squash_config(self) -> SquashConfig:
        return SquashConfig.calibrated(self.unit_value)


FEATURE_SETS = {
    "tictactoe": FeatureSet(
        id="tictactoe",
        game_id="tictactoe",
        names=tuple(f"cell_{i}" for i in range(9)) + ("bias",),
        extract=_tictactoe_features,
    ),
    "connect4": FeatureSet(
        id="connect4",
        game_id="connect4",
        names=_C4_NAMES,
        extract=_connect4_features,
    ),
    "minichess": FeatureSet(
        id="minichess",
        game_id="minichess",
        names=(
            "pawn_diff", "knight_diff", "bishop_diff", "rook_diff", "queen_diff",
            "mobility_diff", "king_exposure_diff",
        ),
        extract=_minichess_features,
        anchors=((0, 1.0),),  # a pawn is the unit of evaluation
    ),
    "minichess-material": FeatureSet(
        id="minichess-material",
        game_id="minichess",
        names=("pawn_diff", "knight_diff", "bishop_diff", "rook_diff", "queen_diff"),
        extract=_minichess_material_features,
        anchors=((0, 1.0),),
    ),
}


def feature_set(set_id: str) -> FeatureSet:
    try:
        return FEATURE_SETS[set_id]
    except KeyError:
        raise KeyError(f"unknown feature set {set_id!r}") from None


def features_white(fs: FeatureSet, state) -> np.ndarray:
    """Feature vector in White's fixed perspective."""
    phi = fs.extract(state)
    return phi if state.side_to_move is Side.WHITE else -phi


def linear_evaluator(fs: FeatureSet, weights: WeightVector):
    """Side-to-move raw evaluator for the search engines."""
    if len(weights) != fs.k:
        raise ValueError(f"need {fs.k} weights for {fs.id}, got {len(weights)}")
    extract = fs.extract
    w = weights.values

    def evaluator(state) -> float:
        return float(np.dot(w, extract(state)))

    return evaluator


# ---------------------------------------------------------------------------
# Weight snapshot files
# ---------------------------------------------------------------------------

_G = "{:.17g}".format  # 17 significant digits: exact float64 round trip


def weights_to_text(fs: FeatureSet, weights: WeightVector) -> str:
    """Snapshot format: header (feature set, k, anchors), then index,name,value."""
    if len(weights) != fs.k:
        raise ValueError("weight length does not match the feature set")
    anchors = ";".join(f"{i}:{_G(v)}" for i, v in weights.anchors) or "-"
    lines = [f"game={fs.id} k={fs.k} anchors={anchors}"]
    for i, name in enumerate(fs.names):
        lines.append(f"{i},{name},{_G(weights.values[i])}")
    return "\n".join(lines) + "\n"


def weights_from_text(text: str):
    """Parse a snapshot; returns (feature_set_id, WeightVector)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty snapshot")
    header = dict(part.split("=", 1) for part in lines[0].split())
    fs = feature_set(header["game"])
    k = int(header["k"])
    if k != fs.k:
        raise ValueError(f"snapshot k={k} but {fs.id} has {fs.k} features")
    anchors = ()
    if header["anchors"] != "-":
        anchors = tuple(
            (int(i), float(v))
            for i, v in (pair.split(":") for pair in header["anchors"].split(";"))
        )
    values = np.zeros(k)
    seen = set()
    for ln in lines[1:]:
        idx, name, val = ln.split(",")
        i = int(idx)
        if fs.names[i] != name:
            raise ValueError(f"feature {i} is {fs.names[i]!r}, snapshot says {name!r}")
        values[i] = float(val)
        seen.add(i)
    if seen != set(range(k)):
        raise ValueError("snapshot does not cover every weight")
    return fs.id, WeightVector(values, anchors)


def save_weights(path, fs: FeatureSet, weights: WeightVector) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(weights_to_text(fs, weights))


def load_weights(path):
    with open(path, encoding="ascii") as fh:
        return weights_from_text(fh.read())
