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
import struct
from dataclasses import dataclass

import numpy as np

from tdsearch.games.base import WHITE
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
    def disabled(cls) -> "SquashConfig":
        return cls(beta=1.0, enabled=False)


def squash(j: float, cfg: SquashConfig) -> float:
    """tanh(beta * j), strictly inside (-1, 1).

    float64 tanh rounds to exactly +/-1 once |beta*j| exceeds about 19
    (mate-score leaves); those saturated values are pulled one ulp inward
    so the open-interval range holds for every input.
    """
    if not cfg.enabled:
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


def grad_squashed(features: np.ndarray, weights: WeightVector, cfg: SquashConfig,
                  value: float | None = None) -> np.ndarray:
    """Gradient of squash(raw_eval) wrt the weights: beta*(1-v^2)*phi.

    v is the squashed value of the features under the weights; a caller
    that already holds it (a trace's stored leaf value) passes it as value.
    Entries at anchored indices are zeroed, which is what keeps anchors
    fixed under updates (no post-hoc clamping).
    """
    if not cfg.enabled:
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


# Each extractor closes over its tables and a struct.Struct(f"{k}d").  Given
# out, a writable float64 array of length k, it fills out with pack_into and
# returns it; else it returns np.frombuffer(pack(*values)), fresh and read-only.
# 'd' converts each value with float(), as np.array(values, dtype=np.float64) did.


def _tictactoe_extractor():
    st = struct.Struct("10d")
    pack, pack_into, frombuffer = st.pack, st.pack_into, np.frombuffer

    def _tictactoe_features(state, out=None) -> np.ndarray:
        """9 cell-ownership values from the mover's side (+1 mine) plus a bias."""
        s = state.side_to_move.sign
        cells = [s * v for v in state.board]
        if out is None:
            return frombuffer(pack(*cells, 1.0))
        pack_into(out, 0, *cells, 1.0)
        return out

    return _tictactoe_features


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
# reach bit 72 at most, the opponent's bit 64 at least), which every count
# masks away: one colour never reaches the other's squares.  Every packed
# value stays below 2**160, so one popcount gives a mover-minus-opponent
# difference: with HI the 80 bits from bit 80 up, (x ^ HI).bit_count() - 80
# counts the low half plus the 80 - n zeros of the high half.
def _connect4_extractor():
    G, G2 = 80, 160
    HI = ((1 << G) - 1) << G
    CENTER, LOW, EVEN, ODD, BOTTOM, FULL = (
        m | m << G for m in (c4.CENTER_MASK, c4.LOW_HALF_MASK, c4.EVEN_ROW_MASK,
                             c4.ODD_ROW_MASK, c4.BOTTOM_MASK, c4.FULL_MASK))
    st = struct.Struct("12d")
    pack, pack_into, frombuffer = st.pack, st.pack_into, np.frombuffer

    def _connect4_features(state, out=None) -> np.ndarray:
        """Bit-parallel Connect-4 features, mover minus opponent throughout.

        Runs are adjacent same-color pairs/triples per direction class (both
        diagonals merged so the table is left-right mirror invariant); winning
        squares are empty cells completing a four, split by row parity;
        playable winning squares are those available this instant.
        """
        mine, filled = state
        b = mine | (filled ^ mine) << G
        filled |= filled << G
        # Shift 1 is vertical, STRIDE = 7 horizontal, 6 and 8 the two diagonals.
        v1, h1, a1, c1 = b >> 1, b >> 7, b >> 6, b >> 8
        pv, ph, pa, pc = b & v1, b & h1, b & a1, b & c1  # a pair starts here
        tv, th, ta, tc = pv & v1 >> 1, ph & h1 >> 7, pa & a1 >> 6, pc & c1 >> 8  # a triple
        # Empty squares completing a four: below a vertical triple, or in direction s
        # after a triple (t << 3s), before one (t >> s), or between a pair and a stone.
        win = (tv << 3
               | th << 21 | th >> 7 | ph << 14 & b >> 7 | b << 7 & ph >> 7
               | ta << 18 | ta >> 6 | pa << 12 & b >> 6 | b << 6 & pa >> 6
               | tc << 24 | tc >> 8 | pc << 16 & b >> 8 | b << 8 & pc >> 8) & ~filled
        ctr, low = (b & CENTER ^ HI).bit_count() - G, (b & LOW ^ HI).bit_count() - G
        r2h, r2v = (ph ^ HI).bit_count() - G, (pv ^ HI).bit_count() - G
        r2d = (pa ^ HI).bit_count() + (pc ^ HI).bit_count() - G2
        r3h, r3v = (th ^ HI).bit_count() - G, (tv ^ HI).bit_count() - G
        r3d = (ta ^ HI).bit_count() + (tc ^ HI).bit_count() - G2
        ev, od = (win & EVEN ^ HI).bit_count() - G, (win & ODD ^ HI).bit_count() - G
        pl = (win & (filled + BOTTOM) & FULL ^ HI).bit_count() - G
        if out is None:
            return frombuffer(pack(1.0, ctr, r2h, r2v, r2d, r3h, r3v, r3d, ev, od, pl, low))
        pack_into(out, 0, 1.0, ctr, r2h, r2v, r2d, r3h, r3v, r3d, ev, od, pl, low)
        return out

    return _connect4_features


def _minichess_material(state) -> list:
    """Side-to-move material differences, pawn, knight, bishop, rook, queen."""
    own, opp, pawns, knights, bishops, rooks, queens = state[:7]
    return [(pawns & own).bit_count() - (pawns & opp).bit_count(),
            (knights & own).bit_count() - (knights & opp).bit_count(),
            (bishops & own).bit_count() - (bishops & opp).bit_count(),
            (rooks & own).bit_count() - (rooks & opp).bit_count(),
            (queens & own).bit_count() - (queens & opp).bit_count()]


def _king_exposure(kings: int, pieces: int) -> int:
    """King-neighbour squares of the king in pieces that pieces do not fill."""
    return (mc.KING_MASKS[(kings & pieces).bit_length() - 1] & ~pieces).bit_count()


def _minichess_extractors():
    st5, st7, frombuffer = struct.Struct("5d"), struct.Struct("7d"), np.frombuffer
    pack5, pack5_into, pack7, pack7_into = st5.pack, st5.pack_into, st7.pack, st7.pack_into

    def _minichess_material_features(state, out=None) -> np.ndarray:
        if out is None:
            return frombuffer(pack5(*_minichess_material(state)))
        pack5_into(out, 0, *_minichess_material(state))
        return out

    def _minichess_features(state, out=None) -> np.ndarray:
        """Material differences plus pseudo-mobility and king exposure."""
        swapped = state._replace(own=state.opp, opp=state.own,
                                 side_to_move=state.side_to_move.opponent)
        values = [*_minichess_material(state),
                  len(mc.pseudo_moves(state)) - len(mc.pseudo_moves(swapped)),
                  _king_exposure(state.kings, state.opp) - _king_exposure(state.kings, state.own)]
        if out is None:
            return frombuffer(pack7(*values))
        pack7_into(out, 0, *values)
        return out

    return _minichess_material_features, _minichess_features


_tictactoe_features = _tictactoe_extractor()
_connect4_features = _connect4_extractor()
_minichess_material_features, _minichess_features = _minichess_extractors()


@dataclass(frozen=True)
class FeatureSet:
    """A named feature table bound to one game."""

    id: str
    game_id: str
    names: tuple
    extract: object  # callable(state, out=None) -> out filled, or a fresh read-only array
    anchors: tuple = ()  # anchored (index, value) pairs for new weights

    @property
    def k(self) -> int:
        return len(self.names)

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
    return phi if state.side_to_move is WHITE else -phi


def linear_evaluator(fs: FeatureSet, weights: WeightVector):
    """Side-to-move raw evaluator for the search engines.

    All-zero weights give a constant evaluator that extracts no features.
    That returns the same bits as the dot product for any kernel and any
    summation order.  Every product 0 * phi_i of a finite feature is +0 or
    -0.  Every accumulator starts at +0, and in round-to-nearest
    +0 + (-0) == +0, so no partial or combined sum can become -0.  Hence
    float(np.dot(w, phi)) is exactly +0.0, also when w holds -0.0 entries.
    """
    if len(weights) != fs.k:
        raise ValueError(f"need {fs.k} weights for {fs.id}, got {len(weights)}")
    if not weights.values.any():
        return lambda state: 0.0
    extract, dot, out = fs.extract, weights.values.dot, np.empty(fs.k)

    def evaluator(state) -> float:
        return float(dot(extract(state, out)))

    return evaluator


# ---------------------------------------------------------------------------
# Weight snapshot files
# ---------------------------------------------------------------------------

# 17 significant digits round-trip every float64 exactly, so snapshots, ratings
# and trace logs written with _G reload to the same bits.
_G = "{:.17g}".format


def _snapshot_lines(fs: FeatureSet, values, anchors):
    """The lines of a snapshot: header (feature set, k, anchors), then index,name,value."""
    yield f"game={fs.id} k={fs.k} anchors={';'.join(f'{i}:{_G(v)}' for i, v in anchors) or '-'}"
    for i, name in enumerate(fs.names):
        yield f"{i},{name},{_G(values[i])}"


def weights_to_text(fs: FeatureSet, weights: WeightVector) -> str:
    if len(weights) != fs.k:
        raise ValueError("weight length does not match the feature set")
    return "\n".join(_snapshot_lines(fs, weights.values, weights.anchors)) + "\n"


def weights_from_text(text: str):
    """Parse a snapshot; returns (feature_set_id, WeightVector).

    Each line must be the one weights_to_text writes for the values it
    holds: header keys game, k, anchors in that order, index lines 0..k-1
    in order, every float token equal to _G(float(token)), and "\n" ending each.
    """
    *lines, tail = text.split("\n")
    if tail or not lines:
        raise ValueError(f"snapshot does not end in a newline: ...{text[-24:]!r}")
    header = dict(part.split("=", 1) for part in lines[0].split(" "))
    fs = feature_set(header["game"])
    pairs = (pair.partition(":") for pair in header["anchors"].split(";"))
    anchors = tuple((int(i), float(v)) for i, colon, v in pairs if colon)  # none in "-"
    if len(lines) != fs.k + 1:
        raise ValueError(f"snapshot has {len(lines) - 1} weight lines, {fs.id} has {fs.k}")
    values = [float(row.rpartition(",")[2]) for row in lines[1:]]
    for n, (got, want) in enumerate(zip(lines, _snapshot_lines(fs, values, anchors)), start=1):
        if got != want:
            raise ValueError(f"snapshot line {n} reads {got!r}; the writer writes {want!r}")
    return fs.id, WeightVector(values, anchors)


def load_weights(path):
    with open(path, encoding="ascii", newline="\n") as fh:
        return weights_from_text(fh.read())
