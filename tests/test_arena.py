import io
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tdsearch import arena, cli, rundir
from tdsearch.arena import (
    INITIAL_RATING,
    K_FACTOR,
    MatchRecord,
    OpponentPool,
    RandomAgent,
    SearchAgent,
    elo_update,
    expected_score,
    game_rng,
    head_to_head,
    play_game,
    replay_traces,
    train_online,
    train_selfplay,
)
from tdsearch.evaluation import (
    WeightVector,
    feature_set,
    features_white,
    load_weights,
    raw_eval,
    squash,
)
from tdsearch.games import GAMES, minichess
from tdsearch.games.base import WIN, IllegalMoveError, Side
from tdsearch.learner import AlphaSchedule, ClipPolicy, LearnerConfig, traces_from_log
from tdsearch.rundir import open_log, weights_hash

T3 = GAMES["tictactoe"]
FS3 = feature_set("tictactoe")


def small_cfg(**kw):
    defaults = dict(
        lambda_=0.7, alpha=AlphaSchedule(base=0.05),
        squash=True, clipping=ClipPolicy.NONE,
    )
    defaults.update(kw)
    return LearnerConfig(**defaults)


def fresh_agent(agent_id="learner", depth=2, tie="random"):
    return SearchAgent(agent_id, FS3, FS3.weights_from({}), depth, tie_mode=tie)


# ---------------------------------------------------------------------------
# Ratings
# ---------------------------------------------------------------------------


def test_expected_score_formula():
    assert expected_score(1500.0, 1500.0) == 0.5
    assert expected_score(1500.0, 1900.0) == pytest.approx(1.0 / 11.0)
    assert expected_score(1900.0, 1500.0) == pytest.approx(10.0 / 11.0)
    # symmetric pairs always sum to one
    for gap in (0.0, 37.0, 123.0, 555.0):
        assert expected_score(1500.0, 1500.0 + gap) + expected_score(
            1500.0 + gap, 1500.0
        ) == pytest.approx(1.0)


def test_underdog_win_moves_thirty_points():
    ratings = {"a": 1500.0, "b": 1900.0}
    elo_update(ratings, "a", "b", 1.0)
    gain = ratings["a"] - 1500.0
    assert gain == pytest.approx(K_FACTOR * 10.0 / 11.0)
    assert gain == pytest.approx(29.09, abs=0.01)
    # exactly zero sum
    assert ratings["a"] + ratings["b"] == 1500.0 + 1900.0


def test_draw_moves_ratings_toward_each_other():
    ratings = {"a": 1600.0, "b": 1400.0}
    elo_update(ratings, "a", "b", 0.5)
    assert ratings["a"] < 1600.0
    assert ratings["b"] > 1400.0
    assert ratings["a"] + ratings["b"] == 3000.0


def test_rating_table_defaults(tmp_path):
    # A pool run rates the learner and every opponent, each from INITIAL_RATING,
    # and the updates are zero sum.  An id the run never rated has no rating.
    pool = OpponentPool([RandomAgent("r1"), RandomAgent("r2")], "uniform")
    ratings = train_online(T3, fresh_agent(), pool, small_cfg(), 3, 0, tmp_path).ratings
    assert sorted(ratings) == ["learner", "r1", "r2"]
    assert sum(ratings.values()) == pytest.approx(3 * INITIAL_RATING)
    with pytest.raises(KeyError):
        OpponentPool(pool.opponents, "nearest").pick(ratings, "unknown", game_rng(0, 0))


# ---------------------------------------------------------------------------
# Game playing and trace recording
# ---------------------------------------------------------------------------


def test_play_game_runs_to_completion():
    rng = np.random.default_rng(0)
    rec = play_game(T3, RandomAgent("a"), RandomAgent("b"), rng=rng)
    assert rec.outcome is not None
    assert rec.white_id == "a" and rec.black_id == "b"
    assert rec.moves >= 5
    assert rec.fault is None


def test_search_agent_builds_its_evaluator_once(monkeypatch):
    # Through arena's linear_evaluator, which the bench tracer wraps; a
    # copy with new weights builds its own.
    built = []
    make = arena.linear_evaluator
    monkeypatch.setattr(arena, "linear_evaluator",
                        lambda fs, weights: built.append(weights) or make(fs, weights))
    agent = fresh_agent()
    rec = play_game(T3, agent, agent, rng=np.random.default_rng(0))
    assert rec.moves >= 5 and len(built) == 1 and built[0] is agent.weights
    heavier = FS3.weights_from({name: 1.0 for name in FS3.names})
    replace(agent, weights=heavier)
    assert len(built) == 2 and built[1] is heavier


def test_recorded_steps_store_white_perspective_values():
    rng = np.random.default_rng(1)
    agent = fresh_agent()
    rec = play_game(T3, agent, RandomAgent("r"),
                    record_sides=(Side.WHITE,), squashed=True,
                    rng=rng)
    trace = rec.traces[Side.WHITE]
    assert trace.agent_side is Side.WHITE
    assert trace.outcome == rec.outcome
    for step in trace.steps:
        if step.leaf is not None and not T3.is_terminal(step.leaf):
            phi = features_white(FS3, step.leaf)
            assert np.array_equal(step.leaf_features, phi)
            assert step.raw_value == raw_eval(phi, agent.weights)
            assert step.value == squash(step.raw_value, True)


def test_prediction_flags_match_reconstruction():
    # replace the stored flag with one recomputed from roots and PVs
    rng = np.random.default_rng(5)
    a = fresh_agent("a")
    b = fresh_agent("b")
    for _ in range(30):
        rec = play_game(T3, a, b, record_sides=(Side.WHITE, Side.BLACK),
                        squashed=True, rng=rng)
        for side in (Side.WHITE, Side.BLACK):
            steps = rec.traces[side].steps
            for t, step in enumerate(steps):
                after_own = T3.apply(step.root, step.pv[0])
                if T3.is_terminal(after_own):
                    # own move ended the game: trivially correct forecast
                    assert step.opponent_move_predicted is True
                    continue
                if t + 1 < len(steps):
                    next_root = steps[t + 1].root
                    reply = next(
                        m for m in T3.legal_actions(after_own)
                        if T3.apply(after_own, m) == next_root
                    )
                    want = len(step.pv) >= 2 and reply == step.pv[1]
                    assert step.opponent_move_predicted == want


class PlayedMoves(type(T3)):
    """Tic-tac-toe that logs the moves play_game applies (the search applies
    its moves through apply_trusted, which skips the log)."""

    def __init__(self):
        self.played = []

    def apply(self, state, action):
        self.played.append(action)
        return super().apply(state, action)

    def apply_trusted(self, state, action):
        return super().apply(state, action)


def test_prediction_flags_follow_the_moves_played():
    # Every flag, recomputed from the game's move list: the reply played
    # after the step's move equals pv[1], or the step's own move ended the
    # game.  Random opening moves must not count as a seat's own last move.
    agent = fresh_agent()
    checked = 0
    for i in range(100):
        game = PlayedMoves()
        rec = play_game(game, agent, agent, record_sides=(Side.WHITE, Side.BLACK),
                        rng=game_rng(1, i), opening_plies=9, opening_epsilon=0.5)
        played = game.played
        assert rec.moves == len(played) and rec.fault is None
        for side in (Side.WHITE, Side.BLACK):
            for step in rec.traces[side].steps:
                m = step.root.ply
                assert played[m] == step.pv[0]
                if m + 1 == len(played):
                    want = True
                else:
                    want = len(step.pv) > 1 and played[m + 1] == step.pv[1]
                assert step.opponent_move_predicted == want, (i, side, m)
                checked += 1
    assert checked > 300


def test_faulty_agent_forfeits():
    class Cheater:
        id = "cheater"

        def select_move(self, game, state, rng):
            return 99, None  # not a legal square

    rec = play_game(T3, Cheater(), RandomAgent("r"), rng=np.random.default_rng(2))
    assert rec.fault is Side.WHITE
    assert rec.outcome.reward == -1.0  # the faulting side loses


def test_opening_randomization_skips_recording():
    rng = np.random.default_rng(9)
    agent = fresh_agent()
    rec = play_game(T3, agent, agent, record_sides=(Side.WHITE,),
                    squashed=True, rng=rng,
                    opening_plies=2, opening_epsilon=1.0)
    trace = rec.traces[Side.WHITE]
    # the first White move fell in the opening window, so no step for ply 0
    assert all(s.root.ply >= 2 for s in trace.steps)


# ---------------------------------------------------------------------------
# Opponent pools
# ---------------------------------------------------------------------------


def _pool_of(values):
    opponents = [RandomAgent(f"o{i}") for i in range(len(values))]
    return OpponentPool(opponents, "nearest"), {o.id: r for o, r in zip(opponents, values)}


def test_nearest_matching_picks_closest_rating():
    pool, ratings = _pool_of([1400.0, 1500.0, 1800.0])
    ratings["me"] = 1520.0
    assert pool.pick(ratings, "me", np.random.default_rng(0)).id == "o1"
    ratings["high"] = 1750.0
    assert pool.pick(ratings, "high", np.random.default_rng(0)).id == "o2"


def test_uniform_matching_covers_pool():
    opponents = [RandomAgent(f"o{i}") for i in range(3)]
    pool = OpponentPool(opponents, "uniform")
    ratings = dict.fromkeys(["me", "o0", "o1", "o2"], INITIAL_RATING)
    rng = np.random.default_rng(3)
    seen = {pool.pick(ratings, "me", rng).id for _ in range(100)}
    assert seen == {"o0", "o1", "o2"}


def test_pool_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        OpponentPool([RandomAgent("x"), RandomAgent("x")], "uniform")


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------


def test_train_online_writes_complete_artifacts(tmp_path):
    agent = fresh_agent()
    pool = OpponentPool([RandomAgent("rnd")], "uniform")
    result = train_online(T3, agent, pool, small_cfg(), 12, 5, tmp_path,
                          snapshot_every=5)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "ratings.csv", "traces.log",
        "weights_000000.snapshot", "weights_000005.snapshot",
        "weights_000010.snapshot", "weights_final.snapshot",
    }
    rows = (tmp_path / "ratings.csv").read_text().strip().split("\n")
    assert rows[0] == ("game_index,opponent_id,color,outcome,agent_rating,"
                       "opponent_rating,moves,nodes_searched,weight_snapshot_hash")
    assert len(rows) == 13
    first = rows[1].split(",")
    assert first[0] == "0" and first[1] == "rnd" and first[2] == "white"
    # colors alternate
    assert rows[2].split(",")[2] == "black"
    # learning moved the weights away from zero
    _, final = load_weights(tmp_path / "weights_final.snapshot")
    assert any(v != 0.0 for v in final.values)
    # ratings stay zero sum around the initial point
    assert result.ratings[agent.id] + result.ratings["rnd"] == pytest.approx(2 * INITIAL_RATING)


def test_train_online_is_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                     small_cfg(), 10, 123, out)
    for name in ("ratings.csv", "traces.log", "weights_final.snapshot"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_replay_recovers_online_run_exactly(tmp_path):
    agent = fresh_agent()
    pool = OpponentPool([RandomAgent("rnd")], "uniform")
    cfg = small_cfg()
    result = train_online(T3, agent, pool, cfg, 11, 99, tmp_path)
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    with open_log(tmp_path) as log:
        report = replay_traces(T3, FS3, cfg, initial, log)
    assert not report.mismatches
    assert report.games == 11
    assert report.mismatches == []
    assert np.array_equal(report.weights.values, result.weights.values)


def _tampered_replay(tmp_path, field):
    """Replay of a short online run whose first step has logged field `field`
    changed; returns (report, logged value, tampered value)."""
    cfg = small_cfg()
    train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                 cfg, 5, 31, tmp_path)
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    lines = (tmp_path / "traces.log").read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if line.startswith("step"))
    parts = lines[n].split()
    logged = float(parts[field])
    parts[field] = "0.12345" if parts[field] != "0.12345" else "0.54321"
    lines[n] = " ".join(parts)
    report = replay_traces(T3, FS3, cfg, initial, io.StringIO("\n".join(lines) + "\n"))
    return report, logged, float(parts[field])


def test_replay_flags_tampered_log(tmp_path):
    # Field 6 of a step line is the squashed value, which only replay's
    # squash check reads.  (The learning update then diverges too, so later
    # games report raw mismatches after this first one.)
    report, _, _ = _tampered_replay(tmp_path, 6)
    assert report.mismatches
    assert report.mismatches[0] == "game 0 step 0: squashed value mismatch"


def test_replay_flags_tampered_raw_value(tmp_path):
    # Field 5 is the raw value: the recomputed leaf value disagrees first.
    report, logged, tampered = _tampered_replay(tmp_path, 5)
    assert report.mismatches
    assert report.mismatches[0] == f"game 0 step 0: raw {logged!r} != logged {tampered!r}"


def test_replay_flags_tampered_mate_distance(tmp_path):
    # A step whose PV ends in a won or lost position logs +/-(MATE_SCORE - plies).
    # Moving that mate two plies further away leaves the squashed value (which
    # saturates) as it was, so only replay's terminal-leaf rule can catch it.
    cfg = small_cfg()
    train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                 cfg, 6, 31, tmp_path)
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    lines = (tmp_path / "traces.log").read_text().splitlines()
    target = None
    for n, line in enumerate(lines):
        parts = line.split()
        if parts[0] == "game":
            game, t = int(parts[1]), -1
        elif parts[0] == "step":
            t += 1
            root = T3.from_text(parts[3].replace("_", " "))
            leaf = T3.replay([T3.action_from_str(a) for a in parts[4].split(";")], root)
            if T3.is_terminal(leaf) and T3.outcome(leaf).reward != 0.0:
                target = n, game, t, float(parts[5])
                break
    assert target is not None, "no step with a decisive terminal PV leaf"
    n, game, t, raw = target
    tampered = raw - math.copysign(2.0, raw)
    parts = lines[n].split()
    parts[5] = f"{tampered:.17g}"  # the writer's spelling
    lines[n] = " ".join(parts)
    report = replay_traces(T3, FS3, cfg, initial, io.StringIO("\n".join(lines) + "\n"))
    assert report.mismatches
    assert report.mismatches == [f"game {game} step {t}: raw {raw!r} != logged {tampered!r}"]


class _CountingTicTacToe(type(T3)):
    """Tictactoe that counts its outcome calls; is_terminal goes through outcome too."""

    def __init__(self):
        self.outcome_calls = 0

    def outcome(self, state):
        self.outcome_calls += 1
        return super().outcome(state)


def test_replay_runs_one_terminal_test_per_step(tmp_path):
    # Two tampered steps, one with a decisive terminal leaf and one with a
    # non-terminal leaf: both rules still report, with one outcome call per step.
    cfg = small_cfg()
    train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                 cfg, 6, 31, tmp_path)
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    lines = (tmp_path / "traces.log").read_text().splitlines()
    targets = {}  # terminal? -> (line, game, step, logged raw)
    for n, line in enumerate(lines):
        parts = line.split()
        if parts[0] == "game":
            game, t = int(parts[1]), -1
        elif parts[0] == "step":
            t += 1
            root = T3.from_text(parts[3].replace("_", " "))
            leaf = T3.replay([T3.action_from_str(a) for a in parts[4].split(";")], root)
            outcome = T3.outcome(leaf)
            if outcome is None or outcome.reward != 0.0:
                targets.setdefault(outcome is not None, (n, game, t, float(parts[5])))
    assert set(targets) == {True, False}
    expected = []
    for terminal, (n, game, t, raw) in sorted(targets.items(), key=lambda item: item[1]):
        tampered = raw - math.copysign(2.0, raw)
        parts = lines[n].split()
        parts[5] = f"{tampered:.17g}"  # the writer's spelling
        lines[n] = " ".join(parts)
        expected.append(f"game {game} step {t}: raw {raw!r} != logged {tampered!r}")
        if not terminal:  # a mate score's squashed value saturates; an evaluation's does not
            expected.append(f"game {game} step {t}: squashed value mismatch")
    counting = _CountingTicTacToe()
    report = replay_traces(counting, FS3, cfg, initial, io.StringIO("\n".join(lines) + "\n"))
    assert report.mismatches == expected
    assert counting.outcome_calls == sum(line.startswith("step") for line in lines)


def test_minichess_replay_scans_moves_only_in_the_terminal_test(tmp_path, monkeypatch):
    # apply checks a move by its piece's reach, so replay builds move lists
    # only in the one terminal test of each step, never for apply; that test
    # builds one only when no piece's nearest move is legal.
    mc, fs = GAMES["minichess"], feature_set("minichess-material")
    cfg = small_cfg()
    train_selfplay(mc, SearchAgent("learner", fs, fs.weights_from({}), 1, tie_mode="random"),
                   cfg, 6, 5, tmp_path, opening_plies=4, opening_epsilon=0.5)
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    text = (tmp_path / "traces.log").read_text()
    callers = Counter()
    scan = minichess.pseudo_moves

    def counting(state, unsafe=0):
        callers[sys._getframe(1).f_code.co_name] += 1
        return scan(state, unsafe)

    monkeypatch.setattr(minichess, "pseudo_moves", counting)
    assert not replay_traces(mc, fs, cfg, initial, io.StringIO(text)).mismatches
    assert set(callers) <= {"has_any_legal"}
    assert callers["has_any_legal"] <= sum(line.startswith("step") for line in text.splitlines())


def test_replay_holds_one_game_at_a_time(tmp_path):
    # tracemalloc peak of replaying 80 minichess games against the first 20,
    # each read from its run directory's log: a replay that held every parsed
    # game, or the whole log text, would need about four times more.  The
    # window opens before the log does, so the text read is counted too.
    mc, fs = GAMES["minichess"], feature_set("minichess-material")
    cfg = small_cfg()
    run, first_20 = tmp_path / "run", tmp_path / "first-20"
    train_selfplay(mc, SearchAgent("learner", fs, fs.weights_from({}), 1, tie_mode="random"),
                   cfg, 80, 5, run, opening_plies=4, opening_epsilon=0.5)
    _, initial = load_weights(run / "weights_000000.snapshot")
    text = (run / "traces.log").read_text()
    first_20.mkdir()
    (first_20 / "traces.log").write_text(text[:text.index("game 20 ")])
    del text

    def peak(run_dir):
        tracemalloc.start()
        try:
            with open_log(run_dir) as log:
                assert not replay_traces(mc, fs, cfg, initial, log).mismatches
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with open_log(run) as log:
        replay_traces(mc, fs, cfg, initial, log)  # one-time allocations, not counted
    assert peak(run) < 1.5 * peak(first_20)


def test_train_selfplay_records_and_replays(tmp_path):
    agent = fresh_agent()
    cfg = small_cfg()
    result = train_selfplay(T3, agent, cfg, 8, 11, tmp_path,
                            record_both=True, opening_plies=2,
                            opening_epsilon=0.25)
    text = (tmp_path / "traces.log").read_text()
    assert text.count("game ") == 16  # two traces per game
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    report = replay_traces(T3, FS3, cfg, initial, io.StringIO(text))
    assert not report.mismatches
    assert report.games == 8 and report.mismatches == []
    assert np.array_equal(report.weights.values, result.weights.values)
    # selfplay has no meaningful ratings
    rows = (tmp_path / "ratings.csv").read_text().strip().split("\n")[1:]
    assert all(float(r.split(",")[4]) == INITIAL_RATING for r in rows)


def _log_blocks(text):
    blocks = []
    for line in text.splitlines(keepends=True):
        if line.startswith("game "):
            blocks.append("")
        blocks[-1] += line
    return blocks


# name -> (log edit, first game the replay must flag, what it must say)
BLOCK_EDITS = {
    "swapped": (lambda b: [b[1], b[0], *b[2:]], 0, "log has game 1 in its place"),
    "dropped": (lambda b: [b[0], *b[2:]], 1, "log has game 2 in its place"),
    "duplicated": (lambda b: [b[0], b[1], b[1], *b[2:]], 1, "seat blocks repeated or out of order"),
    "seats-swapped": (lambda b: [b[1], b[0], *b[2:]], 0, "seat blocks repeated or out of order"),
}


@pytest.mark.parametrize("edit", sorted(BLOCK_EDITS))
def test_replay_flags_blocks_out_of_training_order(tmp_path, edit):
    change, game, says = BLOCK_EDITS[edit]
    cfg = small_cfg()
    if edit == "seats-swapped":  # both seats of game 0, Black's block first
        train_selfplay(T3, fresh_agent(), cfg, 4, 3, tmp_path, record_both=True)
    else:
        train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                     cfg, 5, 31, tmp_path)
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    text = "".join(change(_log_blocks((tmp_path / "traces.log").read_text())))
    report = replay_traces(T3, FS3, cfg, initial, io.StringIO(text))
    assert report.mismatches
    assert report.mismatches[0] == f"game {game}: {says}"


@pytest.mark.parametrize("mode", ["online", "selfplay"])
def test_training_leaves_the_agent_unchanged(tmp_path, mode):
    agent = fresh_agent()
    before = agent.weights
    if mode == "online":
        result = train_online(T3, agent, OpponentPool([RandomAgent("rnd")], "uniform"),
                              small_cfg(), 4, 5, tmp_path)
    else:
        result = train_selfplay(T3, agent, small_cfg(), 4, 5, tmp_path)
    assert agent.weights is before
    assert np.array_equal(agent.weights.values, FS3.weights_from({}).values)
    assert any(v != 0.0 for v in result.weights.values)  # the learned weights are in the result


def test_loops_reach_the_module_globals_the_bench_patches(tmp_path, monkeypatch):
    # bench/tracer.py and bench/worker.py time the layers by replacing these names
    calls = dict.fromkeys(("play_game", "tdleaf_delta", "trace_to_log", "traces_from_log"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(arena, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(arena, name, counted)
    cfg = small_cfg()
    train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                 cfg, 3, 1, tmp_path / "online")
    assert calls == {"play_game": 3, "tdleaf_delta": 3, "trace_to_log": 3, "traces_from_log": 0}
    train_selfplay(T3, fresh_agent(), cfg, 3, 1, tmp_path / "self", record_both=True)
    assert calls == {"play_game": 6, "tdleaf_delta": 9, "trace_to_log": 9, "traces_from_log": 0}
    _, initial = load_weights(tmp_path / "self" / "weights_000000.snapshot")
    with open_log(tmp_path / "self") as log:
        assert not replay_traces(T3, FS3, cfg, initial, log).mismatches
    assert calls == {"play_game": 6, "tdleaf_delta": 15, "trace_to_log": 9, "traces_from_log": 1}
    for loop in ("train_online", "train_selfplay", "head_to_head", "replay_traces"):
        assert getattr(cli, loop) is getattr(arena, loop)


def test_replay_stops_at_weights_past_the_forced_win_bound(tmp_path):
    # The log was recorded at alpha 0.05; replayed at alpha 1e7, game 0's
    # update takes sum |w| past MATE_SCORE / 2, and the fold stops there.
    train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                 small_cfg(), 3, 99, tmp_path)
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    with open_log(tmp_path) as log, pytest.raises(ValueError, match="forced-win bound"):
        replay_traces(T3, FS3, small_cfg(alpha=AlphaSchedule(base=1e7)), initial, log)


def _overflowing_run(mode, out_dir):
    # alpha 1e308 without squashing: the weights stop being finite after a game or two
    cfg = small_cfg(alpha=AlphaSchedule(base=1e308), squash=False)
    if mode == "online":
        pool = OpponentPool([RandomAgent("rnd")], "uniform")
        return train_online(T3, fresh_agent(), pool, cfg, 6, 4, out_dir)
    return train_selfplay(T3, fresh_agent(), cfg, 6, 4, out_dir)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("mode", ["online", "selfplay"])
def test_failed_run_keeps_finished_games_and_no_final_snapshot(tmp_path, mode):
    (tmp_path / "weights_final.snapshot").write_text("left by an earlier run\n")
    with pytest.raises(ValueError, match="finite") as failure:
        _overflowing_run(mode, tmp_path)
    # `failure` still holds the run's frames, so only closing can have flushed the files
    rows = (tmp_path / "ratings.csv").read_text().splitlines()
    assert rows[0].startswith("game_index,") and len(rows) > 1
    with open_log(tmp_path) as log:
        games = [idx for idx, *_ in traces_from_log(log, T3, FS3)]
    assert sorted(set(games)) == list(range(len(rows) - 1))
    assert {p.name for p in tmp_path.iterdir()} == {
        "ratings.csv", "traces.log", "weights_000000.snapshot"}


def test_rerun_in_a_used_directory_keeps_only_its_own_snapshots(tmp_path):
    # A shorter second run must not leave the first run's later snapshots,
    # whose hashes match no row of its ratings.csv, nor a stray temporary.
    pool = OpponentPool([RandomAgent("rnd")], "uniform")
    train_online(T3, fresh_agent(), pool, small_cfg(), 6, 5, tmp_path, snapshot_every=2)
    (tmp_path / "weights_final.snapshot.tmp").write_text("left by a killed run\n")
    (tmp_path / "notes.txt").write_text("kept\n")
    train_online(T3, fresh_agent(), pool, small_cfg(), 2, 5, tmp_path, snapshot_every=2)
    assert {p.name for p in tmp_path.iterdir()} == {
        "ratings.csv", "traces.log", "notes.txt", "weights_000000.snapshot",
        "weights_000002.snapshot", "weights_final.snapshot"}


def test_final_snapshot_is_renamed_into_place(tmp_path, monkeypatch):
    replaced = []
    monkeypatch.setattr(rundir.os, "replace", lambda src, dst: replaced.append((src, dst)))
    train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                 small_cfg(), 2, 5, tmp_path)
    final = tmp_path / "weights_final.snapshot"
    assert replaced == [(tmp_path / "weights_final.snapshot.tmp", final)]
    assert not final.exists()  # nothing but the rename writes the final name


def test_head_to_head_alternates_and_scores():
    a = SearchAgent("a", FS3, FS3.weights_from({}), 1, tie_mode="random")
    b = SearchAgent("b", FS3, FS3.weights_from({}), 1, tie_mode="random")
    score, tally = head_to_head(T3, a, b, 20, 17)
    assert tally["wins"] + tally["draws"] + tally["losses"] == 20
    assert 0.0 <= score <= 1.0
    again, _ = head_to_head(T3, a, b, 20, 17)
    assert again == score  # same seed, same games


def test_head_to_head_gives_agent_a_white_in_even_games(monkeypatch):
    # Every game is a White win, so agent_a wins the games it opens as White
    # (0, 2, 4) and loses those it plays as Black (1, 3).
    seats = []

    def white_wins(game, white, black, **kwargs):
        seats.append((white.id, black.id))
        return MatchRecord(white.id, black.id, WIN, {}, 5, {Side.WHITE: 0, Side.BLACK: 0}, None)

    monkeypatch.setattr(arena, "play_game", white_wins)
    score, tally = head_to_head(T3, RandomAgent("a"), RandomAgent("b"), 5, 17)
    assert seats == [("a", "b"), ("b", "a"), ("a", "b"), ("b", "a"), ("a", "b")]
    assert tally == {"wins": 3, "draws": 0, "losses": 2}
    assert score == 3 / 5


def test_fixed_agent_weights_cannot_drift():
    w = FS3.weights_from({})
    agent = SearchAgent("f", FS3, w, 1)
    with pytest.raises(AttributeError):
        agent.weights = FS3.weights_from({})


def test_game_rng_streams_are_decorrelated():
    def draws(rng):
        return [rng.integers(1000) for _ in range(8)]

    a, b, c = draws(game_rng(5, 0)), draws(game_rng(5, 1)), draws(game_rng(5, 0))
    assert a != b
    assert a == c


def test_weights_hash_tracks_content():
    w1 = FS3.weights_from({})
    w2 = WeightVector(np.linspace(0, 1, FS3.k))
    assert weights_hash(FS3, w1) != weights_hash(FS3, w2)
    assert weights_hash(FS3, w1) == weights_hash(FS3, FS3.weights_from({}))
    assert len(weights_hash(FS3, w1)) == 12
