"""Linear evaluation: feature tables, weights, squashing, snapshots.

Feature vectors are side-to-move relative: swapping colors and the mover
leaves the vector unchanged, so a single weight vector serves both seats.
Converting to White's fixed perspective is a plain sign flip (see
features_white), under which mirrored positions negate.

For learning, raw evaluations are squashed through tanh(ATANH_QUARTER * j),
so that an advantage of one anchor unit (a pawn, where the game has one)
squashes to exactly 0.25, matching the convention that a win counts 1.0.
Win/loss/draw rewards themselves pass through unsquashed, and so does every
value when the bool LearnerConfig.squash is False.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from tdsearch.games.base import WHITE
from tdsearch.games import connect4 as c4
from tdsearch.games import minichess as mc
from tdsearch.search import MATE_SCORE

# atanh(0.25) = ln(5/3)/2, correctly rounded (0x1.058aefa811452p-2), so that
# tanh(ATANH_QUARTER) == 0.25: one anchor unit of advantage squashes to 1/4.
ATANH_QUARTER = 0.25541281188299536

_ONE_INSIDE = math.nextafter(1.0, 0.0)


def squash(j: float, enabled: bool) -> float:
    """tanh(ATANH_QUARTER * j), strictly inside (-1, 1); j itself when not enabled.

    float64 tanh rounds to exactly +/-1 once |ATANH_QUARTER*j| exceeds about 19
    (mate-score leaves); those saturated values are pulled one ulp inward
    so the open-interval range holds for every input.
    """
    if not enabled:
        return float(j)
    v = math.tanh(ATANH_QUARTER * j)
    if v >= 1.0:
        return _ONE_INSIDE
    if v <= -1.0:
        return -_ONE_INSIDE
    return v


@dataclass(frozen=True)
class WeightVector:
    """Immutable weight vector, a tuple of finite Python floats; numpy meets
    the weights only in the two dot products, through array."""

    values: tuple

    def __post_init__(self):
        values = tuple(map(float, self.values))
        if not all(map(math.isfinite, values)):
            raise ValueError(f"weights must be finite, got {list(values)}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def array(self) -> np.ndarray:
        """The values as a read-only float64 array, built once for the dot products."""
        array = np.array(self.values, dtype=np.float64)
        array.flags.writeable = False
        return array


def raw_eval(features, weights: WeightVector) -> float:
    """Linear evaluation w . phi."""
    if len(features) != len(weights):
        raise ValueError(f"feature/weight length mismatch: {len(features)} vs {len(weights)}")
    return float(weights.array.dot(features))


def grad_squashed(features, squashed: bool, value: float) -> tuple:
    """Gradient of squash(raw_eval) wrt the weights: ATANH_QUARTER*(1-v^2)*phi,
    or phi itself (1.0 * phi, the same bits) when not squashed.

    value is v, the squashed value of the features under the weights, which
    the caller holds (a trace's stored leaf value), so no weights are read.
    """
    scale = 1.0
    if squashed:
        scale = ATANH_QUARTER * (1.0 - value * value)
    return tuple(scale * f for f in features)


# ---------------------------------------------------------------------------
# Per-game feature tables
# ---------------------------------------------------------------------------


# Each extractor closes over its tables and the pack_into of a
# struct.Struct(f"{k}d"): it writes a state's k values into out, a writable
# float64 array of length k, and returns out.


def _tictactoe_extractor():
    pack_into = struct.Struct("10d").pack_into

    def _tictactoe_features(state, out) -> np.ndarray:
        """9 cell-ownership values from the mover's side (+1 mine) plus a bias."""
        s = state.side_to_move.sign
        pack_into(out, 0, *[s * v for v in state.board], 1.0)
        return out

    return _tictactoe_features


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
    pack_into = struct.Struct("12d").pack_into

    def _connect4_features(state, out) -> np.ndarray:
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


def _material_key(state) -> int:
    """The minichess-material key: the material, complemented with Black to move."""
    return state.material if state.side_to_move is WHITE else ~state.material


def _king_exposure(kings: int, pieces: int) -> int:
    """King-neighbour squares of the king in pieces that pieces do not fill."""
    return (mc.KING_MASKS[(kings & pieces).bit_length() - 1] & ~pieces).bit_count()


def _minichess_extractors():
    pack5_into, pack7_into = struct.Struct("5d").pack_into, struct.Struct("7d").pack_into

    def _minichess_material_features(state, out) -> np.ndarray:
        pack5_into(out, 0, *_minichess_material(state))
        return out

    def _minichess_features(state, out) -> np.ndarray:
        """Material differences plus pseudo-mobility and king exposure."""
        swapped = state._replace(own=state.opp, opp=state.own,
                                 side_to_move=state.side_to_move.opponent)
        pack7_into(out, 0, *_minichess_material(state),
                   len(mc.pseudo_moves(state)) - len(mc.pseudo_moves(swapped)),
                   _king_exposure(state.kings, state.opp) - _king_exposure(state.kings, state.own))
        return out

    return _minichess_material_features, _minichess_features


_tictactoe_features = _tictactoe_extractor()
_connect4_features = _connect4_extractor()
_minichess_material_features, _minichess_features = _minichess_extractors()


# Hand-set preset weights: a serviceable Connect-4 baseline for pool opponents
# and comparisons, and classical material values on the pawn scale (pawn = 1).
_CONNECT4 = (
    ("bias", 0.0),
    ("center_col", 0.15),
    ("run2_h", 0.08),
    ("run2_v", 0.08),
    ("run2_diag", 0.08),
    ("run3_h", 0.30),
    ("run3_v", 0.25),
    ("run3_diag", 0.30),
    ("win_sq_even_row", 0.45),
    ("win_sq_odd_row", 0.55),
    ("playable_win_sq", 1.6),
    ("low_half", 0.03),
)
_MATERIAL = (
    ("pawn_diff", 1.0),
    ("knight_diff", 4.0),
    ("bishop_diff", 4.0),
    ("rook_diff", 6.0),
    ("queen_diff", 12.0),
)


@dataclass(frozen=True)
class FeatureSet:
    """A named feature table bound to one game, with its preset weights."""

    id: str
    game_id: str
    table: tuple  # (name, preset weight) per feature, in extraction order
    extract: object  # callable(state, out) -> out, a float64 array of length k, filled
    bound: float  # |phi_i(s)| <= bound for every feature i and state s
    preset_name: str | None = None  # the name of the table's weights; None: only "zero"
    anchors: tuple = ()  # (index, value) pairs: weights pinned at value, never learned
    key: object = None  # callable(state) -> int; states with one key share a feature vector

    @cached_property
    def names(self) -> tuple:
        return tuple(name for name, _ in self.table)

    @property
    def k(self) -> int:
        return len(self.names)

    def weights_from(self, named: dict) -> WeightVector:
        if unknown := set(named) - set(self.names):
            raise ValueError(f"unknown feature names: {sorted(unknown)}")
        anchored = dict(self.anchors)
        values = [anchored.get(i, named.get(name, 0.0)) for i, name in enumerate(self.names)]
        return WeightVector(values)

    def preset(self, name: str) -> WeightVector:
        """The weights of a named preset: "zero", or preset_name for the table's."""
        if name not in ("zero", self.preset_name):
            raise KeyError(f"no preset {name!r} for feature set {self.id!r}")
        return self.weights_from({} if name == "zero" else dict(self.table))

    def check_bound(self, weights: WeightVector) -> None:
        """Raise unless |w . phi| < MATE_SCORE / 2 for every state, so forced wins outrank it."""
        size = math.fsum(map(abs, weights.values)) * self.bound
        if size >= MATE_SCORE / 2:
            raise ValueError(f"weights break the forced-win bound: sum |w| * {self.bound:g} = "
                             f"{size:.6g} reaches MATE_SCORE / 2 = {MATE_SCORE / 2:g}")


FEATURE_SETS = {fs.id: fs for fs in (
    FeatureSet(
        id="tictactoe",
        game_id="tictactoe",
        table=tuple((f"cell_{i}", 0.0) for i in range(9)) + (("bias", 0.0),),
        extract=_tictactoe_features,
        bound=1,  # cells are -1, 0 or +1, the bias 1
    ),
    FeatureSet(
        id="connect4",
        game_id="connect4",
        table=_CONNECT4,
        extract=_connect4_features,
        bound=84,  # popcount differences over 42 cells; each diagonal count adds two
        preset_name="baseline",
    ),
    FeatureSet(
        id="minichess",
        game_id="minichess",
        table=_MATERIAL + (("mobility_diff", 0.0), ("king_exposure_diff", 0.0)),
        extract=_minichess_features,
        bound=600,  # mobility counts distinct from-to pairs of squares, at most 25 * 24
        preset_name="material",
        anchors=((0, 1.0),),  # a pawn is the unit of evaluation
    ),
    FeatureSet(
        id="minichess-material",
        game_id="minichess",
        table=_MATERIAL,
        extract=_minichess_material_features,
        bound=24,  # a side holds at most 24 pieces: every square but the other king's
        preset_name="material",
        anchors=((0, 1.0),),
        key=_material_key,
    ),
)}


def feature_set(set_id: str, game_id: str | None = None) -> FeatureSet:
    """The feature set set_id; given game_id, it must be a set for that game."""
    fs = FEATURE_SETS.get(set_id)
    if fs is None:
        raise ValueError(f"unknown feature set {set_id!r}")
    if game_id is not None and fs.game_id != game_id:
        raise ValueError(f"feature set {set_id!r} is for {fs.game_id}, not {game_id}")
    return fs


def features_white(fs: FeatureSet, state) -> tuple:
    """Feature vector in White's fixed perspective, a tuple of Python floats of its own."""
    phi = fs.extract(state, np.empty(fs.k)).tolist()
    return tuple(phi) if state.side_to_move is WHITE else tuple(-f for f in phi)


def linear_evaluator(fs: FeatureSet, weights: WeightVector):
    """Side-to-move raw evaluator for the search engines.

    All-zero weights give a constant evaluator that extracts no features.
    That returns the same bits as the dot product for any kernel and any
    summation order.  Every product 0 * phi_i of a finite feature is +0 or
    -0.  Every accumulator starts at +0, and in round-to-nearest
    +0 + (-0) == +0, so no partial or combined sum can become -0.  Hence
    float(np.dot(w, phi)) is exactly +0.0, also when w holds -0.0 entries.

    A feature set with a key has its values memoized by key in the
    evaluator's own dict: states with one key have one feature vector, so
    each gets the bits the first of them computed.  The dict lives as long
    as the evaluator and holds one value per key it has seen.
    """
    if len(weights) != fs.k:
        raise ValueError(f"need {fs.k} weights for {fs.id}, got {len(weights)}")
    if not any(weights.values):
        return lambda state: 0.0
    extract, dot, out = fs.extract, weights.array.dot, np.empty(fs.k)

    def evaluator(state) -> float:
        return float(dot(extract(state, out)))

    if fs.key is None:
        return evaluator
    key, memo = fs.key, {}

    def keyed_evaluator(state) -> float:
        k = key(state)
        try:
            return memo[k]
        except KeyError:
            value = memo[k] = evaluator(state)
            return value

    return keyed_evaluator


# ---------------------------------------------------------------------------
# Weight snapshot files
# ---------------------------------------------------------------------------

# 17 significant digits round-trip every float64 exactly, so snapshots, ratings
# and trace logs written with _G reload to the same bits.
_G = "{:.17g}".format


def _snapshot_lines(fs: FeatureSet, values):
    """The lines of a snapshot: header (feature set, k, anchors), then index,name,value."""
    yield f"game={fs.id} k={fs.k} anchors={';'.join(f'{i}:{_G(v)}' for i, v in fs.anchors) or '-'}"
    for i, name in enumerate(fs.names):
        yield f"{i},{name},{_G(values[i])}"


def weights_to_text(fs: FeatureSet, weights: WeightVector) -> str:
    if len(weights) != fs.k:
        raise ValueError("weight length does not match the feature set")
    return "\n".join(_snapshot_lines(fs, weights.values)) + "\n"


def weights_from_text(text: str):
    """Parse a snapshot; returns (feature_set_id, WeightVector).

    Each line must be the one weights_to_text writes for the values it
    holds: the header of the set its game key names (so k and the anchors
    are the set's), index lines 0..k-1 in order, every float token equal
    to _G(float(token)), and "\n" ending each.  An anchored weight must
    hold the set's value for it.
    """
    *lines, tail = text.split("\n")
    if tail or not lines:
        raise ValueError(f"snapshot does not end in a newline: ...{text[-24:]!r}")
    key, _, set_id = lines[0].partition(" ")[0].partition("=")
    if key != "game":
        raise ValueError(f"snapshot line 1 reads {lines[0]!r}, not a snapshot header")
    fs = feature_set(set_id)
    if len(lines) != fs.k + 1:
        raise ValueError(f"snapshot has {len(lines) - 1} weight lines, {fs.id} has {fs.k}")
    values = []
    for n, row in enumerate(lines[1:], start=2):
        try:
            values.append(float(row.rpartition(",")[2]))
        except ValueError:
            raise ValueError(f"snapshot line {n} reads {row!r}, not index,name,number") from None
    for n, (got, want) in enumerate(zip(lines, _snapshot_lines(fs, values)), start=1):
        if got != want:
            raise ValueError(f"snapshot line {n} reads {got!r}; the writer writes {want!r}")
    for i, v in fs.anchors:
        if values[i] != v:
            raise ValueError(f"snapshot line {i + 2} reads {lines[i + 1]!r}; "
                             f"{fs.id} anchors {fs.names[i]} at {_G(v)}")
    return fs.id, WeightVector(values)


def load_weights(path):
    with open(path, encoding="ascii", errors="surrogateescape", newline="\n") as fh:
        return weights_from_text(fh.read())
