import io
import math

import numpy as np
import pytest

from oracles import rebase_on_roots, suffix_sums_quadratic, td_update
from tdsearch.evaluation import (
    ATANH_QUARTER,
    SquashConfig,
    WeightVector,
    feature_set,
    features_white,
    raw_eval,
    squash,
)
from tdsearch.games import GAMES
from tdsearch.games.base import DRAW, LOSS, Side, WIN
from tdsearch.learner import (
    AlphaSchedule,
    ClipPolicy,
    GameTrace,
    LearnerConfig,
    StepRecord,
    discounted_difference_sums,
    tdleaf_delta,
    temporal_differences,
    text_hash,
    trace_to_log,
    traces_from_log,
)

T3 = GAMES["tictactoe"]
OFF = SquashConfig.disabled()


def mkstep(phi, value, predicted=False, lower=False, root=None, leaf=None, pv=()):
    phi = np.asarray(phi, dtype=np.float64)
    return StepRecord(
        root=root, leaf=leaf, pv=tuple(pv), leaf_features=phi,
        value=float(value), raw_value=float(value),
        opponent_move_predicted=predicted, opponent_rating_lower=lower,
    )


def mktrace(values, outcome, side=Side.WHITE, k=2, predicted=False):
    steps = tuple(
        mkstep(np.zeros(k), v, predicted=predicted) for v in values
    )
    return GameTrace(agent_side=side, steps=steps, outcome=outcome)


def cfg_of(lam=0.7, alpha=1.0, squash_cfg=OFF, clipping=ClipPolicy.NONE, **kw):
    return LearnerConfig(
        lambda_=lam, alpha=AlphaSchedule(base=alpha), squash=squash_cfg,
        clipping=clipping, **kw,
    )


# ---------------------------------------------------------------------------
# Temporal differences
# ---------------------------------------------------------------------------


def test_differences_for_white():
    tr = mktrace([0.1, -0.2, 0.3], WIN)
    ds = temporal_differences(tr, cfg_of())
    assert ds == pytest.approx([-0.3, 0.5, 0.7])


def test_differences_for_black_flip_stored_values():
    # stored values are White-centric; a Black agent sees them negated
    tr = mktrace([0.1, -0.2, 0.3], WIN, side=Side.BLACK)
    ds = temporal_differences(tr, cfg_of())
    assert ds == pytest.approx([0.3, -0.5, -0.7])


def test_final_difference_uses_reward_as_terminal_value():
    tr = mktrace([0.4], DRAW)
    (d,) = temporal_differences(tr, cfg_of())
    assert d == pytest.approx(-0.4)  # 0 - 0.4


def test_missing_outcome_rejected():
    tr = GameTrace(Side.WHITE, (mkstep([0.0, 0.0], 0.0),), None)
    with pytest.raises(ValueError):
        temporal_differences(tr, cfg_of())


def test_empty_trace_gives_no_differences():
    tr = GameTrace(Side.WHITE, (), WIN)
    assert temporal_differences(tr, cfg_of()) == []
    assert np.array_equal(
        tdleaf_delta(tr, cfg_of(), WeightVector(np.zeros(2))), np.zeros(2)
    )


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------


def make_clip_trace(predicted, lower):
    # values 0.0, 0.5 then a loss: differences +0.5 and -1.5
    steps = (
        mkstep([1.0, 0.0], 0.0, predicted=predicted, lower=lower),
        mkstep([0.0, 1.0], 0.5, predicted=predicted, lower=lower),
    )
    return GameTrace(Side.WHITE, steps, LOSS)


def test_positive_difference_clipped_when_unpredicted():
    tr = make_clip_trace(predicted=False, lower=False)
    cfg = cfg_of(clipping=ClipPolicy.UNLESS_PREDICTED)
    assert temporal_differences(tr, cfg) == [0.0, -1.5]


def test_positive_difference_kept_when_predicted():
    tr = make_clip_trace(predicted=True, lower=False)
    cfg = cfg_of(clipping=ClipPolicy.UNLESS_PREDICTED)
    assert temporal_differences(tr, cfg) == [0.5, -1.5]


def test_negative_differences_never_clipped():
    tr = mktrace([0.9, 0.2], LOSS)
    cfg = cfg_of(clipping=ClipPolicy.UNLESS_PREDICTED)
    ds = temporal_differences(tr, cfg)
    assert ds == pytest.approx([-0.7, -1.2])


def test_stronger_opponent_variant_keeps_gains_from_equals():
    cfg = cfg_of(clipping=ClipPolicy.UNLESS_PREDICTED_OR_STRONGER)
    kept = make_clip_trace(predicted=False, lower=False)  # peer or stronger
    assert temporal_differences(kept, cfg)[0] == 0.5
    dropped = make_clip_trace(predicted=False, lower=True)  # weaker opponent
    assert temporal_differences(dropped, cfg)[0] == 0.0


def test_no_clipping_by_default():
    tr = make_clip_trace(predicted=False, lower=True)
    assert temporal_differences(tr, cfg_of()) == [0.5, -1.5]


# ---------------------------------------------------------------------------
# Discounted sums
# ---------------------------------------------------------------------------


def test_discounted_sums_against_quadratic_oracle():
    rng = np.random.default_rng(2)
    for lam in (0.0, 0.3, 0.7, 0.95, 1.0):
        for n in (1, 2, 5, 17):
            ds = list(rng.normal(size=n))
            got = discounted_difference_sums(ds, lam)
            want = suffix_sums_quadratic(ds, lam)
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_lambda_zero_keeps_raw_differences():
    ds = [3.0, -1.0, 2.0]
    assert discounted_difference_sums(ds, 0.0) == ds


def test_lambda_one_gives_plain_suffix_sums():
    ds = [3.0, -1.0, 2.0]
    assert discounted_difference_sums(ds, 1.0) == [4.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# The update rule
# ---------------------------------------------------------------------------


def test_textbook_two_step_update():
    # two steps, unit feature on a different axis each, zero values, a win:
    # differences are [0, 1], suffix sums [0.7, 1.0], so the update is exact
    steps = (mkstep([1.0, 0.0], 0.0), mkstep([0.0, 1.0], 0.0))
    tr = GameTrace(Side.WHITE, steps, WIN)
    w = WeightVector(np.zeros(2))
    delta = tdleaf_delta(tr, cfg_of(lam=0.7, alpha=1.0), w)
    assert delta[0] == 0.7 and delta[1] == 1.0
    w2 = w.with_values(w.values + delta)
    assert list(w2.values) == [0.7, 1.0]


def test_textbook_update_scales_with_alpha():
    steps = (mkstep([1.0, 0.0], 0.0), mkstep([0.0, 1.0], 0.0))
    tr = GameTrace(Side.WHITE, steps, WIN)
    delta = tdleaf_delta(tr, cfg_of(lam=0.7, alpha=0.25), WeightVector(np.zeros(2)))
    assert delta[0] == 0.25 * 0.7 and delta[1] == 0.25


def test_textbook_update_with_squashing():
    # at value 0 the squash derivative is exactly beta
    steps = (mkstep([1.0, 0.0], 0.0), mkstep([0.0, 1.0], 0.0))
    tr = GameTrace(Side.WHITE, steps, WIN)
    delta = tdleaf_delta(tr, cfg_of(squash_cfg=SquashConfig()), WeightVector(np.zeros(2)))
    assert delta[0] == 0.7 * ATANH_QUARTER
    assert delta[1] == 1.0 * ATANH_QUARTER


def test_black_agent_update_mirrors_white():
    steps = (mkstep([1.0, 0.0], 0.0), mkstep([0.0, 1.0], 0.0))
    # same stored trace, Black agent, Black lost (White won)
    tr = GameTrace(Side.BLACK, steps, WIN)
    delta = tdleaf_delta(tr, cfg_of(), WeightVector(np.zeros(2)))
    # differences are [0, -1] in Black's view; gradient sign flips once more,
    # so the weight movement lands in the same direction as a White loss
    assert delta[0] == 0.7 and delta[1] == 1.0


def test_gradient_uses_stored_value_not_current_weights():
    # the derivative factor must come from the recorded value, not from
    # the weights passed in
    cfg = cfg_of(squash_cfg=SquashConfig())
    step = mkstep([2.0, 0.0], 0.6)
    tr = GameTrace(Side.WHITE, (step,), WIN)
    w_a = WeightVector(np.zeros(2))
    w_b = WeightVector(np.array([5.0, 5.0]))
    d_a = tdleaf_delta(tr, cfg, w_a)
    d_b = tdleaf_delta(tr, cfg, w_b)
    assert np.array_equal(d_a, d_b)
    expected = (1.0 - 0.6) * ATANH_QUARTER * (1 - 0.6**2) * 2.0
    assert d_a[0] == pytest.approx(expected)


def test_anchored_weight_never_moves():
    fs = feature_set("minichess-material")
    w = fs.weights_from({})
    steps = (mkstep([1.0, 1.0, 0.0, 0.0, 0.0], 0.0),)
    tr = GameTrace(Side.WHITE, steps, WIN)
    w2 = w.with_values(w.values + tdleaf_delta(tr, cfg_of(squash_cfg=SquashConfig()), w))
    assert w2.values[0] == 1.0
    assert w2.values[1] > 0.0


# ---------------------------------------------------------------------------
# Alpha schedules
# ---------------------------------------------------------------------------


def test_constant_schedule():
    sched = AlphaSchedule(base=0.1)
    assert sched.at(0) == sched.at(10_000) == 0.1


def test_inverse_decay_schedule():
    sched = AlphaSchedule(kind="inverse", base=1.0, decay_games=100.0, floor=0.05)
    assert sched.at(0) == 1.0
    assert sched.at(100) == 0.5
    assert sched.at(300) == 0.25
    assert sched.at(10_000_000) == 0.05


def test_schedule_validation():
    with pytest.raises(ValueError):
        AlphaSchedule(kind="warmup")
    with pytest.raises(ValueError):
        AlphaSchedule(base=0.0)
    for decay in (0.0, -1.0):
        with pytest.raises(ValueError):
            AlphaSchedule(kind="inverse", decay_games=decay)


# ---------------------------------------------------------------------------
# Root-based variant
# ---------------------------------------------------------------------------


def test_rebase_replaces_leaves_with_roots():
    fs = feature_set("tictactoe")
    squash_cfg = SquashConfig()
    w = WeightVector(np.linspace(-0.4, 0.5, fs.k))
    root = T3.initial_state()
    leaf = T3.apply(T3.apply(root, 4), 0)
    phi_leaf = features_white(fs, leaf)
    step = StepRecord(
        root=root, leaf=leaf, pv=(4, 0), leaf_features=phi_leaf,
        value=squash(raw_eval(phi_leaf, w), squash_cfg),
        raw_value=raw_eval(phi_leaf, w),
        opponent_move_predicted=False, opponent_rating_lower=False,
    )
    tr = GameTrace(Side.WHITE, (step,), WIN)
    rebased = rebase_on_roots(tr, w, fs, squash_cfg)
    (rstep,) = rebased.steps
    assert rstep.leaf == root
    assert np.array_equal(rstep.leaf_features, features_white(fs, root))
    assert rstep.raw_value == raw_eval(features_white(fs, root), w)
    assert rstep.value == squash(rstep.raw_value, squash_cfg)
    # flags survive the rebase
    assert rstep.opponent_move_predicted == step.opponent_move_predicted


def test_td_update_equals_leaf_update_at_depth_zero():
    # when every leaf IS its root the two rules coincide bitwise
    fs = feature_set("tictactoe")
    squash_cfg = SquashConfig()
    rng = np.random.default_rng(42)
    w = WeightVector(rng.normal(size=fs.k) * 0.1)
    root = T3.initial_state()
    steps = []
    s = root
    for _ in range(3):
        phi = features_white(fs, s)
        raw = raw_eval(phi, w)
        steps.append(StepRecord(
            root=s, leaf=s, pv=(), leaf_features=phi,
            value=squash(raw, squash_cfg), raw_value=raw,
            opponent_move_predicted=False, opponent_rating_lower=False,
        ))
        s = T3.apply(s, T3.legal_actions(s)[0])
        s = T3.apply(s, T3.legal_actions(s)[0])
    tr = GameTrace(Side.WHITE, tuple(steps), WIN)
    cfg = cfg_of(squash_cfg=squash_cfg)
    assert np.array_equal(td_update(tr, cfg, w, fs), tdleaf_delta(tr, cfg, w))


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


def _played_trace():
    from tdsearch.arena import SearchAgent, RandomAgent, play_game

    fs = feature_set("tictactoe")
    rng = np.random.default_rng(3)
    agent = SearchAgent("a", fs, WeightVector(rng.normal(size=fs.k) * 0.2), 2)
    rec = play_game(
        T3, agent, RandomAgent("r"),
        record_sides=(Side.WHITE,), squash_cfg=SquashConfig(), rng=rng,
    )
    return fs, rec.traces[Side.WHITE]


def test_trace_log_round_trip():
    fs, trace = _played_trace()
    text = trace_to_log(T3, trace, 7, "r")
    out = list(traces_from_log(io.StringIO(text), T3, fs))
    assert len(out) == 1
    idx, opponent, back, outcomes = out[0]
    assert idx == 7 and opponent == "r"
    assert outcomes == tuple(T3.outcome(step.leaf) for step in back.steps)
    assert back.agent_side is trace.agent_side
    assert back.outcome == trace.outcome
    assert len(back.steps) == len(trace.steps)
    for a, b in zip(trace.steps, back.steps):
        assert np.array_equal(a.leaf_features, b.leaf_features)
        assert a.value == b.value and a.raw_value == b.raw_value
        assert a.opponent_move_predicted == b.opponent_move_predicted
        assert a.opponent_rating_lower == b.opponent_rating_lower
        assert a.pv == b.pv


def test_trace_log_detects_corruption():
    fs, trace = _played_trace()
    text = trace_to_log(T3, trace, 0, "r")
    lines = text.splitlines()
    step_line = next(i for i, l in enumerate(lines) if l.startswith("step"))
    parts = lines[step_line].split()
    parts[2] = "0" * len(parts[2])  # clobber the position hash
    lines[step_line] = " ".join(parts)
    with pytest.raises(ValueError):
        list(traces_from_log(io.StringIO("\n".join(lines) + "\n"), T3, fs))


# line index -> edit of its space-separated tokens
MALFORMED_FIELDS = {
    "opponent-without-key": (0, lambda t: t[:3] + ["r"]),
    "agent-neither-white-nor-black": (0, lambda t: t[:2] + ["white"] + t[3:]),
    "root-cell-not-a-mark": (1, lambda t: t[:3] + ["=" + t[3][1:]] + t[4:]),
}


@pytest.mark.parametrize("field", MALFORMED_FIELDS)
def test_trace_log_malformed_field_raises_value_error(field):
    line, edit = MALFORMED_FIELDS[field]
    fs, trace = _played_trace()
    lines = trace_to_log(T3, trace, 0, "r").splitlines()
    lines[line] = " ".join(edit(lines[line].split(" ")))
    with pytest.raises(ValueError):
        list(traces_from_log(io.StringIO("\n".join(lines) + "\n"), T3, fs))


def test_trace_log_rejects_truncated_block():
    fs, trace = _played_trace()
    text = trace_to_log(T3, trace, 0, "r")
    no_outcome = "".join(
        line + "\n" for line in text.splitlines() if not line.startswith("outcome")
    )
    with pytest.raises(ValueError):
        list(traces_from_log(io.StringIO(no_outcome), T3, fs))


def _rehashed_floating_root(tokens):
    # A root text whose hash matches but which from_text rejects: one stone
    # in the top-left cell of an empty connect4 board floats.
    tokens[3] = "X....../......./......./......./......./......."
    tokens[2] = text_hash(tokens[3])


# name -> (line index, edit of its space-separated tokens in place, error after "line N")
LINE_EDITS = {
    "root-from-text-rejects": (1, _rehashed_floating_root, ": floating stones in column 0"),
    "raw-not-a-float": (1, lambda t: t.__setitem__(5, "abc"), ": could not convert string"),
    "squashed-not-a-float": (1, lambda t: t.__setitem__(6, "abc"), ": could not convert string"),
    # A flag other than 1 reads as 0, which the writer spells 0.
    "predicted-flag-2": (1, lambda t: t.__setitem__(7, "2"),
                         r" reads '[^']* 2 [01]\\n'; the writer writes '[^']* 0 [01]\\n'$"),
    "lower-flag-2": (1, lambda t: t.__setitem__(8, "2"),
                     r" reads '[^']* 2\\n'; the writer writes '[^']* 0\\n'$"),
    "lower-flag-00": (1, lambda t: t.__setitem__(8, "00"),
                      r" reads '[^']* 00\\n'; the writer writes '[^']* 0\\n'$"),
    "outcome-not-a-float": (-1, lambda t: t.__setitem__(1, "abc"), ": could not convert string"),
}


@pytest.mark.parametrize("edit", LINE_EDITS)
def test_trace_log_error_names_its_line(edit):
    from tdsearch.arena import RandomAgent, SearchAgent, play_game

    c4, fs = GAMES["connect4"], feature_set("connect4")
    agent = SearchAgent("a", fs, fs.weights_from({}), 1)
    rec = play_game(c4, agent, RandomAgent("r"), record_sides=(Side.WHITE,))
    lines = trace_to_log(c4, rec.traces[Side.WHITE], 0, "r").splitlines()
    at, change, says = LINE_EDITS[edit]
    tokens = lines[at].split(" ")
    change(tokens)
    lines[at] = " ".join(tokens)
    with pytest.raises(ValueError, match=f"^line {at % len(lines) + 1}{says}"):
        list(traces_from_log(io.StringIO("\n".join(lines) + "\n"), c4, fs))


def test_state_hash_is_stable():
    # A root's hash is text_hash of the text to_text writes for it.
    import hashlib

    s = T3.initial_state()
    want = hashlib.sha256(T3.to_text(s).encode()).hexdigest()[:16]
    assert text_hash(T3.to_text(s)) == want
