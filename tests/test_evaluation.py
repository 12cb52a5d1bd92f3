import dataclasses
import decimal
import math
import struct
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    c4_features_oracle,
    c4_mirror_lr,
    c4_winning_squares,
    fd_gradient,
    features_oracle,
    mc_board,
    mc_mirror,
    mc_with_mover,
    random_playouts,
    random_position,
)
from tdsearch.arena import _learn
from tdsearch.evaluation import (
    ATANH_QUARTER,
    FEATURE_SETS,
    WeightVector,
    feature_set,
    features_white,
    grad_squashed,
    linear_evaluator,
    load_weights,
    raw_eval,
    squash,
    weights_from_text,
    weights_to_text,
)
from tdsearch.games import GAMES
from tdsearch.games import connect4 as c4
from tdsearch.games.base import WIN, Side
from tdsearch.learner import GameTrace, LearnerConfig, StepRecord

T3 = GAMES["tictactoe"]
C4 = GAMES["connect4"]
MC = GAMES["minichess"]


def _phi(fs, state):
    """fs's features of state, extracted into a new buffer."""
    return fs.extract(state, np.empty(fs.k))


# ---------------------------------------------------------------------------
# Squashing
# ---------------------------------------------------------------------------


def test_atanh_quarter_is_the_correctly_rounded_constant():
    # A literal, so its bits do not depend on the platform's libm: atanh(1/4)
    # is ln(5/3)/2, and the float nearest that at 60 digits is the constant.
    assert ATANH_QUARTER.hex() == "0x1.058aefa811452p-2"
    with decimal.localcontext(decimal.Context(prec=60)):
        assert float((decimal.Decimal(5) / 3).ln() / 2) == ATANH_QUARTER


def test_one_unit_squashes_to_a_quarter():
    assert squash(0.0, True) == 0.0
    assert squash(1.0, True) == 0.25
    assert squash(-1.0, True) == -0.25


def test_squash_is_odd_and_monotone():
    xs = [0.1, 0.5, 1.0, 3.0, 10.0, 100.0]
    for x in xs:
        assert squash(-x, True) == -squash(x, True)
    vals = [squash(x, True) for x in xs]
    assert vals == sorted(vals)


def test_squash_stays_strictly_inside_unit_interval():
    for j in (50.0, 1e3, 1e6, 1e9, 1e12):
        assert -1.0 < squash(j, True) < 1.0
        assert -1.0 < squash(-j, True) < 1.0
    assert squash(1e9, True) == math.nextafter(1.0, 0.0)


def test_squash_disabled_is_identity():
    assert squash(123.456, False) == 123.456


# ---------------------------------------------------------------------------
# Gradient
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(30):
        k = int(rng.integers(2, 12))
        phi = rng.normal(size=k)
        w = WeightVector(rng.normal(size=k) * 0.5)

        def f(values):
            return math.tanh(ATANH_QUARTER * float(np.dot(values, phi)))

        got = grad_squashed(phi, True, squash(raw_eval(phi, w), True))
        want = fd_gradient(f, w.values, h=1e-5)
        denom = max(np.max(np.abs(want)), 1e-9)
        assert np.max(np.abs(got - want)) / denom < 1e-6


def test_gradient_unsquashed_is_feature_vector():
    phi = np.array([1.0, -2.0, 3.5])
    w = WeightVector(np.array([0.3, 0.1, -0.2]))
    g = grad_squashed(phi, False, squash(raw_eval(phi, w), False))
    assert np.array_equal(g, phi)
    phi[0] = 99.0  # the returned gradient is a copy, not a view
    assert g[0] == 1.0


def test_gradient_zeroed_at_anchored_indices():
    # The gradient itself covers every index; the learning loop applies it
    # everywhere but at the feature set's anchored indices.
    fs = feature_set("minichess")
    phi = (1.0, 2.0, 3.0, -1.0, 0.5, 4.0, -2.0)
    w = fs.preset("material")
    v = squash(raw_eval(phi, w), True)
    assert all(g != 0.0 for g in grad_squashed(phi, True, v))
    step = StepRecord(root=None, leaf=None, pv=(), leaf_features=phi, value=v)
    game = [GameTrace(Side.WHITE, (step,), WIN)]
    ((_, _, _, after),) = _learn(LearnerConfig(), fs, w, [game], lambda item, _: (None, item))
    moved = [a != b for a, b in zip(after.values, w.values)]
    assert moved == [False] + [True] * (fs.k - 1)
    assert after.values[0].hex() == w.values[0].hex() == "0x1.0000000000000p+0"


# ---------------------------------------------------------------------------
# Weight vectors
# ---------------------------------------------------------------------------


def test_weight_vector_immutable():
    w = WeightVector(np.array([1.0, 2.0]))
    assert w.values == (1.0, 2.0) and all(type(v) is float for v in w.values)
    with pytest.raises(TypeError):
        w.values[0] = 5.0


def test_anchor_value_enforced():
    # A snapshot's anchored weights must hold the values its feature set pins
    # them at; the error names the line.
    fs = feature_set("minichess")
    text = weights_to_text(fs, fs.preset("material"))
    assert text.splitlines()[1] == "0,pawn_diff,1"
    with pytest.raises(ValueError) as bad:
        weights_from_text(text.replace("0,pawn_diff,1\n", "0,pawn_diff,2\n"))
    assert str(bad.value) == ("snapshot line 2 reads '0,pawn_diff,2'; "
                              "minichess anchors pawn_diff at 1")


def test_a_snapshot_takes_its_anchors_from_its_feature_set():
    # A header cannot pin a weight its feature set leaves free, nor drop one.
    fs = feature_set("connect4")
    text = weights_to_text(fs, fs.preset("baseline"))
    for header in ("game=connect4 k=12 anchors=3:0.5",
                   "game=connect4 k=12 anchors=3:0.080000000000000002"):  # run2_v's own value
        with pytest.raises(ValueError) as bad:
            weights_from_text(header + text[text.index("\n"):])
        assert str(bad.value) == (f"snapshot line 1 reads {header!r}; "
                                  "the writer writes 'game=connect4 k=12 anchors=-'")
    mc = feature_set("minichess")
    dropped = weights_to_text(mc, mc.preset("zero")).replace("anchors=0:1", "anchors=-")
    with pytest.raises(ValueError, match="snapshot line 1 reads 'game=minichess k=7 anchors=-'; "
                                         "the writer writes 'game=minichess k=7 anchors=0:1'"):
        weights_from_text(dropped)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weights_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        WeightVector(np.array([1.0, bad]))
    w = WeightVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        WeightVector(w.values + np.array([0.0, bad]))  # an update that overflowed
    fs = feature_set("tictactoe")
    text = weights_to_text(fs, fs.weights_from({}))
    with pytest.raises(ValueError, match="finite"):
        weights_from_text(text.replace("cell_3,0", f"cell_3,{bad}"))


def test_weight_array_is_read_only_and_holds_the_values():
    w = WeightVector((0.5, -0.0, 3.25, -1e-300))
    array = w.array
    assert array is w.array and array.dtype == np.float64 and not array.flags.writeable
    assert [v.hex() for v in array.tolist()] == [v.hex() for v in w.values]
    with pytest.raises(ValueError):
        array[0] = 1.0


_FINITE = st.floats(min_value=-1e150, max_value=1e150) | st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14).flatmap(
    lambda k: st.tuples(*[st.lists(_FINITE, min_size=k, max_size=k)] * 2)))
def test_raw_eval_has_the_bits_of_np_dot_over_the_values(vectors):
    values, features = map(tuple, vectors)
    w = WeightVector(values)
    assert _bits(raw_eval(features, w)) == _bits(float(np.dot(values, features)))


def test_raw_eval_is_dot_product():
    w = WeightVector(np.array([2.0, -1.0, 0.5]))
    phi = np.array([1.0, 3.0, 4.0])
    assert raw_eval(phi, w) == 2.0 - 3.0 + 2.0
    with pytest.raises(ValueError):
        raw_eval(np.array([1.0, 2.0]), w)


# ---------------------------------------------------------------------------
# Feature extraction, hand-checked positions
# ---------------------------------------------------------------------------


def test_tictactoe_features_by_hand():
    fs = feature_set("tictactoe")
    s0 = T3.initial_state()
    phi0 = _phi(fs, s0)
    assert np.array_equal(phi0, np.array([0.0] * 9 + [1.0]))
    s1 = T3.apply(s0, 4)  # X in the center, O to move
    phi1 = _phi(fs, s1)
    want = np.zeros(10)
    want[4] = -1.0  # the center belongs to the opponent of the mover
    want[9] = 1.0
    assert np.array_equal(phi1, want)


def test_connect4_features_by_hand_fresh_pair():
    fs = feature_set("connect4")
    s = C4.apply(C4.apply(C4.initial_state(), 3), 0)  # X center, O column 0
    phi = dict(zip(fs.names, _phi(fs, s)))
    assert phi["bias"] == 1.0
    assert phi["center_col"] == 1.0
    assert phi["low_half"] == 0.0  # one stone each in the bottom rows
    for name in ("run2_h", "run2_v", "run2_diag", "run3_h", "run3_v",
                 "run3_diag", "win_sq_even_row", "win_sq_odd_row",
                 "playable_win_sq"):
        assert phi[name] == 0.0, name


def test_connect4_features_by_hand_open_three():
    # X: floor of columns 0,1,2.  O: row 1 of the same columns.  X to move.
    fs = feature_set("connect4")
    s = C4.initial_state()
    for col in (0, 0, 1, 1, 2, 2):
        s = C4.apply(s, col)
    phi = dict(zip(fs.names, _phi(fs, s)))
    assert phi["run2_h"] == 0.0   # both sides hold two adjacent pairs
    assert phi["run3_h"] == 0.0   # and one triple each
    assert phi["win_sq_even_row"] == 1.0   # X completes at (col 3, row 0)
    assert phi["win_sq_odd_row"] == -1.0   # O would complete at (col 3, row 1)
    assert phi["playable_win_sq"] == 1.0   # only X's square is playable now
    assert phi["low_half"] == 0.0
    assert phi["center_col"] == 0.0


def test_connect4_features_mirror_invariant():
    fs = feature_set("connect4")
    rng = np.random.default_rng(14)
    for _ in range(200):
        s = C4.initial_state()
        for _ in range(int(rng.integers(0, 30))):
            if C4.is_terminal(s):
                break
            acts = C4.legal_actions(s)
            s = C4.apply(s, acts[int(rng.integers(len(acts)))])
        assert np.array_equal(_phi(fs, s), _phi(fs, c4_mirror_lr(s)))


def _c4_features_per_colour(state):
    """The per-colour formula the packed extraction replaced: the byte reference."""
    mine, theirs, filled = state.mover, state.opponent_stones, state.filled
    h, d1, d2 = c4.STRIDE, c4.STRIDE - 1, c4.STRIDE + 1

    def runs(m, s, k):
        r = m & (m >> s)
        if k == 3:
            r &= m >> (2 * s)
        return r.bit_count()

    def diff(mask, a=mine, b=theirs):
        return (a & mask).bit_count() - (b & mask).bit_count()

    mw = c4_winning_squares(mine, filled)
    tw = c4_winning_squares(theirs, filled)
    playable = (filled + c4.BOTTOM_MASK) & c4.FULL_MASK
    return np.array([
        1.0, diff(c4.CENTER_MASK),
        runs(mine, h, 2) - runs(theirs, h, 2),
        runs(mine, 1, 2) - runs(theirs, 1, 2),
        (runs(mine, d1, 2) + runs(mine, d2, 2)) - (runs(theirs, d1, 2) + runs(theirs, d2, 2)),
        runs(mine, h, 3) - runs(theirs, h, 3),
        runs(mine, 1, 3) - runs(theirs, 1, 3),
        (runs(mine, d1, 3) + runs(mine, d2, 3)) - (runs(theirs, d1, 3) + runs(theirs, d2, 3)),
        diff(c4.EVEN_ROW_MASK, mw, tw), diff(c4.ODD_ROW_MASK, mw, tw), diff(playable, mw, tw),
        diff(c4.LOW_HALF_MASK),
    ], dtype=np.float64)


def _assert_c4_features_exact(states):
    fs = feature_set("connect4")
    for s in states:
        phi = _phi(fs, s)
        assert np.array_equal(phi, _c4_features_per_colour(s)), C4.to_text(s)
        assert phi.tolist() == c4_features_oracle(C4, s), C4.to_text(s)


def test_connect4_features_equal_references_on_random_walks():
    rng = np.random.default_rng(20)
    _assert_c4_features_exact(random_position(C4, rng, 42) for _ in range(5000))


def _playout_states(game, seed, n):
    """Every state of n seeded random playouts, and every child of each."""
    states = []
    for played in islice(random_playouts(game, np.random.default_rng(seed)), n):
        for s in played:
            states.append(s)
            states += [game.apply(s, a) for a in game.legal_actions(s)]
    return states


def test_connect4_leaf_values_equal_the_oracle_on_every_playout_state_and_child():
    # Extraction into a new and a reused buffer, and the evaluator's leaf value, against the
    # cell-walking oracle on every position a game reaches and every child of it.
    fs = feature_set("connect4")
    w = np.random.default_rng(37).normal(size=fs.k) * 10.0 ** np.arange(-5, 7)
    ev = linear_evaluator(fs, WeightVector(w))
    out = np.empty(fs.k)
    states = _playout_states(C4, seed=38, n=60)
    assert len(states) > 8000
    for s in states:
        ref = c4_features_oracle(C4, s)
        assert _phi(fs, s).tolist() == ref, C4.to_text(s)
        assert fs.extract(s, out).tolist() == ref, C4.to_text(s)
        assert _bits(ev(s)) == _bits(float(np.dot(w, np.array(ref)))), C4.to_text(s)


def test_connect4_features_equal_references_at_the_bit_range_edges():
    # Both colours share one packed int; stones in the top row, in the edge
    # columns and on near-full boards sit at the ends of each colour's bits.
    texts = (
        "X.....O/O.....X/X.....O/O.....X/X.....O/O.....X",   # full columns 0 and 6
        "O.....X/X.....O/O.....X/X.....O/O.....X/X.....O",
        ".OXOXOX/XOXOXOX/OXOXOXO/OXOXOXO/XOXOXOX/XOXOXOX",   # 41 plies
        ".O.OXOX/XOXOXOX/OXOXOXO/OXOXOXO/XOXOXOX/XOXOXOX",   # 40 plies
        "XO...OX/OX...XO/XO...OX/OX...XO/XO...OX/OX...XO",   # top row, four columns
    )
    states = [C4.from_text(t) for t in texts]
    rng = np.random.default_rng(23)
    for _ in range(40):  # random play that never ends the game: near-full boards
        s = C4.initial_state()
        while True:
            if s.ply >= 30:
                states.append(s)
            quiet = [a for a in C4.legal_actions(s) if not C4.is_terminal(C4.apply(s, a))]
            if not quiet:
                break
            s = C4.apply(s, quiet[int(rng.integers(len(quiet)))])
        states += [C4.apply(s, a) for a in C4.legal_actions(s)]  # the game-ending moves
    assert max(s.ply for s in states) >= 41
    _assert_c4_features_exact(states)


def test_tictactoe_features_color_mirror_invariant():
    # swapping marks and the side to move leaves mover-relative features alone
    fs = feature_set("tictactoe")
    rng = np.random.default_rng(15)
    swap = {"X": "O", "O": "X", ".": ".", "/": "/"}
    for _ in range(100):
        s = T3.initial_state()
        for _ in range(int(rng.integers(0, 3)) * 2):  # even ply only
            if T3.is_terminal(s):
                break
            acts = T3.legal_actions(s)
            s = T3.apply(s, acts[int(rng.integers(len(acts)))])
        if s.ply % 2 or T3.is_terminal(s):
            continue
        flipped = T3.from_text("".join(swap[ch] for ch in T3.to_text(s)))
        if flipped.side_to_move is s.side_to_move:
            continue  # diverged mark counts; skip
        assert np.array_equal(_phi(fs, s), _phi(fs, flipped))


def test_minichess_features_initial_and_after_knight_move():
    fs = feature_set("minichess")
    s0 = MC.initial_state()
    assert np.array_equal(_phi(fs, s0), np.zeros(7))
    s1 = MC.apply(s0, MC.action_from_str("b1c3"))
    phi = dict(zip(fs.names, _phi(fs, s1)))
    assert all(phi[n] == 0.0 for n in
               ("pawn_diff", "knight_diff", "bishop_diff", "rook_diff", "queen_diff"))
    # mover is Black with 8 pseudo moves (4 pushes, b4xc3, d4xc3, Na3, Nxc3)
    # against White's 10 (4 pushes, 5 knight moves, Ra1b1)
    assert phi["mobility_diff"] == -2.0
    assert phi["king_exposure_diff"] == 0.0


def test_minichess_material_features_by_hand():
    fs = feature_set("minichess-material")
    s = MC.from_text("k4/5/5/5/K2Q1 w 0")
    assert np.array_equal(_phi(fs, s), np.array([0, 0, 0, 0, 1.0]))
    s2 = MC.from_text("k4/5/5/5/K2Q1 b 0")
    assert np.array_equal(_phi(fs, s2), np.array([0, 0, 0, 0, -1.0]))


def test_minichess_material_equals_per_pair_counts():
    # reference: board.count(w) - board.count(b) per piece pair, negated
    # when Black is to move; each position is checked with both movers
    pairs = ("Pp", "Nn", "Bb", "Rr", "Qq")
    full, material = feature_set("minichess"), feature_set("minichess-material")
    rng = np.random.default_rng(61)
    seen = set()
    for _ in range(300):
        s = random_position(MC, rng, 45)
        for side in (Side.WHITE, Side.BLACK):
            st = mc_with_mover(s, side)
            board = mc_board(st)
            want = [side.sign * (board.count(w) - board.count(b)) for w, b in pairs]
            assert _phi(material, st).tolist() == want
            assert _phi(full, st)[:5].tolist() == want
            seen.update((i, v) for i, v in enumerate(want) if v)
    # every entry was seen nonzero with both signs, so a swap or a sign slip shows
    assert seen >= {(i, v) for i in range(5) for v in (1, -1)}


def test_minichess_features_mirror_invariant():
    fs = feature_set("minichess")
    fsm = feature_set("minichess-material")
    rng = np.random.default_rng(16)
    for _ in range(100):
        s = MC.initial_state()
        for _ in range(int(rng.integers(0, 25))):
            if MC.is_terminal(s):
                break
            acts = MC.legal_actions(s)
            s = MC.apply(s, acts[int(rng.integers(len(acts)))])
        m = mc_mirror(s)
        assert np.array_equal(_phi(fs, s), _phi(fs, m))
        assert np.array_equal(_phi(fsm, s), _phi(fsm, m))


def test_features_white_flips_sign_for_black():
    fs = feature_set("minichess-material")
    s = MC.from_text("k4/5/5/5/K2Q1 b 0")
    phi = _phi(fs, s)
    phi_w = features_white(fs, s)
    assert np.array_equal(phi_w, -phi)
    assert phi_w[4] == 1.0  # White is up a queen regardless of the mover
    s_w = MC.from_text("k4/5/5/5/K2Q1 w 0")
    assert np.array_equal(features_white(fs, s_w), _phi(fs, s_w))


# ---------------------------------------------------------------------------
# Evaluator plumbing and snapshots
# ---------------------------------------------------------------------------


def _bits(x):
    return struct.pack("<d", x)


def _walk_states(fs, seed, n=150):
    rng = np.random.default_rng(seed)
    game = GAMES[fs.game_id]
    return [random_position(game, rng, 40) for _ in range(n)]


def _zero_vectors(k):
    """+0.0 everywhere, and a mix of +0.0 and -0.0 entries."""
    return [np.zeros(k), np.array([-0.0 if i % 2 == 0 else 0.0 for i in range(k)])]


@pytest.mark.parametrize("set_id", sorted(FEATURE_SETS))
def test_zero_weight_evaluator_is_the_dot_product_bit_for_bit(set_id):
    # The constant evaluator must give what w . phi gives, sign of zero included.
    fs = feature_set(set_id)
    states = _walk_states(fs, seed=32)
    for values in _zero_vectors(fs.k):
        ev = linear_evaluator(fs, WeightVector(values))
        for s in states:
            assert _bits(ev(s)) == _bits(float(np.dot(values, _phi(fs, s))))


def test_linear_evaluator_matches_raw_eval():
    for fs in FEATURE_SETS.values():
        w = WeightVector(np.random.default_rng(31).normal(size=fs.k))
        ev = linear_evaluator(fs, w)
        for s in _walk_states(fs, seed=33):
            assert _bits(ev(s)) == _bits(raw_eval(_phi(fs, s), w)), (fs.id, s)


@pytest.mark.parametrize("set_id", sorted(FEATURE_SETS))
def test_leaf_value_has_the_bits_of_the_dot_over_the_oracle_array(set_id):
    # extract packs the features into a float64 buffer.  The evaluator must
    # still give, bit for bit, np.dot over the array np.array built from the
    # oracle's features, with weights spanning many magnitudes so that
    # rounding and summation order show.
    fs = feature_set(set_id)
    game = GAMES[fs.game_id]
    rng = np.random.default_rng(35)
    states = _walk_states(fs, seed=36, n=120)
    for _ in range(4):
        w = rng.normal(size=fs.k) * 10.0 ** rng.integers(-6, 7, size=fs.k)
        ev = linear_evaluator(fs, WeightVector(w))
        for s in states:
            phi = _phi(fs, s)
            assert phi.dtype == np.float64 and phi.shape == (fs.k,)
            ref = np.array(features_oracle(set_id, game, s), dtype=np.float64)
            assert _bits(ev(s)) == _bits(float(np.dot(w, ref))), game.to_text(s)


@pytest.mark.parametrize("set_id", sorted(FEATURE_SETS))
def test_zero_weight_evaluator_extracts_no_features(set_id):
    base = feature_set(set_id)
    calls = []

    def counting_extract(state, out):
        calls.append(state)
        return base.extract(state, out)

    fs = dataclasses.replace(base, extract=counting_extract)
    states = _walk_states(fs, seed=34, n=20)
    for values in _zero_vectors(fs.k):
        ev = linear_evaluator(fs, WeightVector(values))
        for s in states:
            ev(s)
    assert calls == []
    ev = linear_evaluator(fs, WeightVector(np.ones(fs.k)))
    for s in states:
        ev(s)
    assert len(calls) == _extractions(fs, states)


def _extractions(fs, states):
    """The extractions one evaluator makes scoring states: one per state, or
    one per distinct key for a keyed set."""
    return len(states) if fs.key is None else len({fs.key(s) for s in states})


def test_material_key_memo_keeps_the_bits_of_a_fresh_dot():
    # One evaluator per weight vector scores playout states with each side
    # to move: every value has the bits of np.dot over a fresh extraction,
    # and extract runs once per distinct key, never with zero weights.
    base = feature_set("minichess-material")
    calls = []

    def counting_extract(state, out):
        calls.append(state)
        return base.extract(state, out)

    fs = dataclasses.replace(base, extract=counting_extract)
    rng = np.random.default_rng(38)
    played = [s for states in islice(random_playouts(MC, rng), 8) for s in states]
    assert len(played) >= 200
    states = [mc_with_mover(s, side) for s in played for side in (Side.WHITE, Side.BLACK)]
    features = {}
    for s in states:  # one key, one feature vector
        assert features.setdefault(fs.key(s), _phi(base, s).tobytes()) == _phi(base, s).tobytes()
    random = rng.normal(size=fs.k) * 10.0 ** rng.integers(-3, 4, size=fs.k)
    random[2] = -0.0
    for weights in (base.preset("material"), *map(WeightVector, _zero_vectors(fs.k)),
                    WeightVector(random)):
        calls.clear()
        ev = linear_evaluator(fs, weights)
        for s in states:
            assert _bits(ev(s)) == _bits(float(np.dot(weights.values, _phi(base, s)))), \
                MC.to_text(s)
        assert len(calls) == (len(features) if any(weights.values) else 0)


def _two_states(fs, seed):
    """Two walk states whose feature vectors differ."""
    a, *rest = _walk_states(fs, seed, n=20)
    return a, next(b for b in rest if _phi(fs, b).tobytes() != _phi(fs, a).tobytes())


@pytest.mark.parametrize("set_id", sorted(FEATURE_SETS))
def test_evaluator_scores_every_leaf_in_one_buffer_with_fresh_extraction_bits(set_id):
    base = feature_set(set_id)
    outs = []

    def recording_extract(state, out):
        outs.append(out)
        return base.extract(state, out)

    fs = dataclasses.replace(base, extract=recording_extract)
    w = np.random.default_rng(41).normal(size=fs.k) * 10.0 ** np.arange(-3, fs.k - 3)
    ev = linear_evaluator(fs, WeightVector(w))
    a, b = _two_states(base, seed=42)
    got = [ev(s) for s in (a, b, a)]
    n = _extractions(fs, [a, b, a])
    assert len(outs) == n and outs[0] is not None and all(o is outs[0] for o in outs)
    assert [_bits(v) for v in got] == [_bits(float(np.dot(w, _phi(base, s)))) for s in (a, b, a)]
    assert outs[0].tobytes() == _phi(base, a if n == 3 else b).tobytes()
    linear_evaluator(fs, WeightVector(w))(a)  # a second evaluator owns a second buffer
    assert outs[n] is not outs[0] and not np.shares_memory(outs[n], outs[0])


@pytest.mark.parametrize("set_id", sorted(FEATURE_SETS))
def test_fresh_extraction_is_read_only_and_never_aliases_a_buffer(set_id):
    # features_white returns a tuple of Python floats of its own, which no
    # buffer filled before or after it shares.
    fs = feature_set(set_id)
    a, b = _two_states(fs, seed=43)
    out = np.empty(fs.k)
    assert fs.extract(a, out) is out
    fresh, again = features_white(fs, b), features_white(fs, b)
    assert type(fresh) is tuple and len(fresh) == fs.k and all(type(f) is float for f in fresh)
    assert fresh is not again
    want = [f.hex() for f in fresh]
    fs.extract(a, out)  # refilling the buffer leaves an earlier fresh tuple alone
    assert [f.hex() for f in fresh] == want == [f.hex() for f in again] != [
        f.hex() for f in out.tolist()]


@pytest.mark.parametrize("set_id", sorted(FEATURE_SETS))
def test_linear_evaluator_rejects_wrong_length(set_id):
    fs = feature_set(set_id)
    for k in (fs.k - 1, fs.k + 1):
        for values in (np.zeros(k), np.ones(k)):
            with pytest.raises(ValueError):
                linear_evaluator(fs, WeightVector(values))


def test_zero_weights_respect_anchors():
    fs = feature_set("minichess")
    w = fs.preset("zero")
    assert w.values[0] == 1.0  # pawn anchored at one unit
    assert np.array_equal(w.values[1:], np.zeros(fs.k - 1))


def test_weights_from_named_dict():
    fs = feature_set("minichess-material")
    w = fs.weights_from({"knight_diff": 3.0, "queen_diff": 9.0})
    assert list(w.values) == [1.0, 3.0, 0.0, 0.0, 9.0]
    with pytest.raises(ValueError):
        fs.weights_from({"no_such": 1.0})


def test_snapshot_round_trip_exact(tmp_path):
    fs = feature_set("connect4")
    rng = np.random.default_rng(77)
    w = WeightVector(rng.normal(size=fs.k) * np.pi)
    path = tmp_path / "w.snapshot"
    path.write_text(weights_to_text(fs, w), encoding="ascii")
    fs_id, back = load_weights(path)
    assert fs_id == "connect4"
    assert np.array_equal(back.values, w.values)  # bitwise, via 17 digits
    assert back == w


def test_snapshot_preserves_anchors(tmp_path):
    fs = feature_set("minichess")
    w = WeightVector([1.0, 3.3, 3.1, 5.0, 9.9, 0.1, 0.2])
    path = tmp_path / "m.snapshot"
    path.write_text(weights_to_text(fs, w), encoding="ascii")
    assert path.read_text().splitlines()[:2] == ["game=minichess k=7 anchors=0:1", "0,pawn_diff,1"]
    assert load_weights(path) == ("minichess", w)


def test_snapshot_text_rejects_wrong_names():
    fs = feature_set("tictactoe")
    text = weights_to_text(fs, fs.weights_from({}))
    with pytest.raises(ValueError):
        weights_from_text(text.replace("cell_0", "cell_X"))


def test_snapshot_text_rejects_a_repeated_index():
    # A later line for the same index would otherwise win silently.
    fs = feature_set("connect4")
    text = weights_to_text(fs, fs.preset("baseline"))
    with pytest.raises(ValueError, match="snapshot has 13 weight lines, connect4 has 12"):
        weights_from_text(text + "3,run2_v,99\n")
    lines = text.splitlines()
    lines[12] = "3,run2_v,99"  # in place of index 11: the count still fits
    with pytest.raises(ValueError, match="snapshot line 13 reads '3,run2_v,99'"):
        weights_from_text("\n".join(lines) + "\n")


def _snapshot_lines_of(set_id):
    fs = feature_set(set_id)
    w = fs.preset("baseline" if set_id == "connect4" else "material")
    if set_id == "connect4":
        w = WeightVector(w.values * np.where(np.arange(fs.k) % 2, -1.0, 1.0))
    return weights_to_text(fs, w).splitlines()


# Spellings of a snapshot that name the writer's very weights but that the
# writer never writes: (feature set, edit of the writer's lines, the line
# the error names).
SNAPSHOT_SPELLINGS = {
    "extra header key": ("connect4", lambda ls: [ls[0] + " note=x", *ls[1:]], 1),
    "header keys reordered": ("connect4", lambda ls: ["game=connect4 anchors=- k=12", *ls[1:]], 1),
    "k with a sign": ("connect4", lambda ls: [ls[0].replace("k=12", "k=+12"), *ls[1:]], 1),
    "anchor as 1.0": ("minichess", lambda ls: [ls[0].replace("0:1", "0:1.0"), *ls[1:]], 1),
    "index lines reversed": ("connect4", lambda ls: [ls[0], *reversed(ls[1:])], 2),
    "index with a leading zero": ("connect4", lambda ls: [*ls[:3], "0" + ls[3], *ls[4:]], 4),
    "float with a leading zero": ("connect4", lambda ls: [*ls[:2], ls[2].replace("-0.", "-00."),
                                                          *ls[3:]], 3),
    "float with a trailing zero": ("minichess", lambda ls: [*ls[:3], ls[3] + ".0", *ls[4:]], 4),
    "float with a plus sign": ("connect4", lambda ls: [*ls[:7], ls[7].replace(",0", ",+0"),
                                                       *ls[8:]], 8),
    "value not a number": ("connect4", lambda ls: [*ls[:2], ls[2].rpartition(",")[0] + ",abc",
                                                   *ls[3:]], 3),
    "value missing": ("minichess", lambda ls: [*ls[:2], ls[2].rpartition(",")[0], *ls[3:]], 3),
}


@pytest.mark.parametrize("spelling", SNAPSHOT_SPELLINGS)
def test_snapshot_text_rejects_a_second_spelling(spelling):
    set_id, edit, line = SNAPSHOT_SPELLINGS[spelling]
    lines = _snapshot_lines_of(set_id)
    weights_from_text("\n".join(lines) + "\n")  # the writer's own text loads
    tampered = edit(lines)
    assert tampered != lines
    with pytest.raises(ValueError, match=f"snapshot line {line} reads "):
        weights_from_text("\n".join(tampered) + "\n")


@pytest.mark.parametrize("set_id", ["connect4", "minichess"])
def test_snapshot_text_ends_every_line_with_a_newline_alone(set_id, tmp_path):
    # connect4 has no anchors ("anchors=-") and minichess has one: a "\r"
    # after the header's last token fails either header's compare.
    lines = _snapshot_lines_of(set_id)
    text = "\n".join(lines) + "\n"
    path = tmp_path / "w.snapshot"
    path.write_bytes(text.encode())
    assert load_weights(path)[0] == set_id
    name = lines[1].split(",")[1]
    spellings = (
        # A non-ASCII byte in a name: load_weights reads it as a lone surrogate.
        (text.replace(f",{name},", f",{name}\u00e9,", 1),
         "snapshot line 2 reads '[^']*'; the writer writes"),
        (text.replace("\n", "\r\n"), "snapshot line 1 reads '[^']*\\\\r'"),
        (text[:-1] + "\r\n", f"snapshot line {len(lines)} reads '[^']*\\\\r'"),
        (text[:-1], "does not end in a newline"),
        (text + "\n", f"snapshot has {len(lines)} weight lines"),
        ("", "does not end in a newline"),
    )
    for bad, match in spellings:
        with pytest.raises(ValueError, match=match):
            weights_from_text(bad)
        path.write_bytes(bad.encode())
        with pytest.raises(ValueError, match=match):
            load_weights(path)


def test_all_feature_sets_registered():
    assert set(FEATURE_SETS) == {"tictactoe", "connect4", "minichess",
                                 "minichess-material"}
    for fs in FEATURE_SETS.values():
        assert fs.k == len(fs.names)
        assert fs.game_id in ("tictactoe", "connect4", "minichess")


# ---------------------------------------------------------------------------
# Presets and the forced-win bound
# ---------------------------------------------------------------------------

# (feature set, preset) -> the snapshot text of its weights, as written
# before the presets moved into the feature tables.
PRESET_TEXTS = {
    ("tictactoe", "zero"):
        "game=tictactoe k=10 anchors=-\n0,cell_0,0\n1,cell_1,0\n2,cell_2,0\n3,cell_3,0\n"
        "4,cell_4,0\n5,cell_5,0\n6,cell_6,0\n7,cell_7,0\n8,cell_8,0\n9,bias,0\n",
    ("connect4", "zero"):
        "game=connect4 k=12 anchors=-\n0,bias,0\n1,center_col,0\n2,run2_h,0\n3,run2_v,0\n"
        "4,run2_diag,0\n5,run3_h,0\n6,run3_v,0\n7,run3_diag,0\n8,win_sq_even_row,0\n"
        "9,win_sq_odd_row,0\n10,playable_win_sq,0\n11,low_half,0\n",
    ("connect4", "baseline"):
        "game=connect4 k=12 anchors=-\n0,bias,0\n1,center_col,0.14999999999999999\n"
        "2,run2_h,0.080000000000000002\n3,run2_v,0.080000000000000002\n"
        "4,run2_diag,0.080000000000000002\n5,run3_h,0.29999999999999999\n6,run3_v,0.25\n"
        "7,run3_diag,0.29999999999999999\n8,win_sq_even_row,0.45000000000000001\n"
        "9,win_sq_odd_row,0.55000000000000004\n10,playable_win_sq,1.6000000000000001\n"
        "11,low_half,0.029999999999999999\n",
    ("minichess", "zero"):
        "game=minichess k=7 anchors=0:1\n0,pawn_diff,1\n1,knight_diff,0\n2,bishop_diff,0\n"
        "3,rook_diff,0\n4,queen_diff,0\n5,mobility_diff,0\n6,king_exposure_diff,0\n",
    ("minichess", "material"):
        "game=minichess k=7 anchors=0:1\n0,pawn_diff,1\n1,knight_diff,4\n2,bishop_diff,4\n"
        "3,rook_diff,6\n4,queen_diff,12\n5,mobility_diff,0\n6,king_exposure_diff,0\n",
    ("minichess-material", "zero"):
        "game=minichess-material k=5 anchors=0:1\n0,pawn_diff,1\n1,knight_diff,0\n"
        "2,bishop_diff,0\n3,rook_diff,0\n4,queen_diff,0\n",
    ("minichess-material", "material"):
        "game=minichess-material k=5 anchors=0:1\n0,pawn_diff,1\n1,knight_diff,4\n"
        "2,bishop_diff,4\n3,rook_diff,6\n4,queen_diff,12\n",
}


@pytest.mark.parametrize("set_id, name", PRESET_TEXTS)
def test_every_preset_keeps_its_bits(set_id, name):
    fs = feature_set(set_id)
    assert weights_to_text(fs, fs.preset(name)) == PRESET_TEXTS[set_id, name]


def test_a_preset_a_feature_set_lacks_is_an_error():
    for set_id, name in (("tictactoe", "baseline"), ("connect4", "material"),
                         ("minichess", "baseline"), ("minichess-material", "")):
        with pytest.raises(KeyError, match=f"no preset '{name}' for feature set '{set_id}'"):
            feature_set(set_id).preset(name)


def test_feature_set_checks_the_game_it_is_for():
    assert feature_set("minichess-material", "minichess").id == "minichess-material"
    with pytest.raises(ValueError) as bad:
        feature_set("connect4", "tictactoe")
    assert str(bad.value) == "feature set 'connect4' is for connect4, not tictactoe"
    with pytest.raises(ValueError) as unknown:
        feature_set("nope")
    assert str(unknown.value) == "unknown feature set 'nope'"


@pytest.mark.parametrize("set_id", sorted(FEATURE_SETS))
def test_every_feature_stays_within_its_sets_bound(set_id):
    fs = feature_set(set_id)
    game = GAMES[fs.game_id]
    top = np.zeros(fs.k)
    for played in islice(random_playouts(game, np.random.default_rng(2024)), 30):
        for state in played:
            np.maximum(top, np.abs(_phi(fs, state)), out=top)
    assert top.max() <= fs.bound, (fs.names, top.tolist())


def test_check_bound_raises_once_the_weights_could_outrank_a_forced_win():
    fs = feature_set("connect4")  # bound 84: 500000 / 84 is about 5952.4
    fs.check_bound(fs.weights_from({"bias": 5952.0}))
    fs.check_bound(fs.weights_from({"bias": -2976.0, "low_half": 2976.0}))
    for named in ({"bias": 5953.0}, {"bias": -2977.0, "low_half": 2977.0}):
        with pytest.raises(ValueError, match="forced-win bound"):
            fs.check_bound(fs.weights_from(named))


@pytest.mark.parametrize("header", ["bogus", "game=tictactoe", "game=tictactoe k=10",
                                    "game=tictactoe k=10 anchors=x:1"])
def test_snapshot_header_errors_name_the_line(header):
    # Only the game key is read; the rest of a header is the set's to write.
    fs = feature_set("tictactoe")
    text = weights_to_text(fs, fs.preset("zero"))
    with pytest.raises(ValueError) as bad:
        weights_from_text(header + text[text.index("\n"):])
    want = (f"snapshot line 1 reads {header!r}, not a snapshot header" if header == "bogus" else
            f"snapshot line 1 reads {header!r}; the writer writes 'game=tictactoe k=10 anchors=-'")
    assert str(bad.value) == want


def test_a_snapshot_of_an_unknown_feature_set_says_so_plainly():
    with pytest.raises(ValueError) as bad:
        weights_from_text("game=nope k=1 anchors=-\n0,x,0\n")
    assert str(bad.value) == "unknown feature set 'nope'"
