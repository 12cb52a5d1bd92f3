import math
from pathlib import Path

import numpy as np
import pytest

from tdsearch import arena
from tdsearch.arena import (
    INITIAL_RATING,
    K_FACTOR,
    FixedAgent,
    OpponentPool,
    RandomAgent,
    RatingTable,
    SearchAgent,
    elo_update,
    expected_score,
    game_rng,
    head_to_head,
    play_game,
    replay_traces,
    train_online,
    train_selfplay,
    weights_hash,
)
from tdsearch.evaluation import (
    SquashConfig,
    WeightVector,
    feature_set,
    features_white,
    load_weights,
    raw_eval,
    squash,
)
from tdsearch.games import GAMES
from tdsearch.games.base import IllegalMoveError, Side
from tdsearch.learner import AlphaSchedule, ClipPolicy, LearnerConfig, traces_from_log

T3 = GAMES["tictactoe"]
FS3 = feature_set("tictactoe")


def small_cfg(**kw):
    defaults = dict(
        lambda_=0.7, alpha=AlphaSchedule(base=0.05),
        squash=FS3.squash_config(), clipping=ClipPolicy.NONE,
        update_every_n_games=1,
    )
    defaults.update(kw)
    return LearnerConfig(**defaults)


def fresh_agent(agent_id="learner", depth=2, tie="random"):
    return SearchAgent(agent_id, FS3, FS3.zero_weights(), depth, tie_mode=tie)


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
    table = RatingTable()
    table.register("a", 1500.0)
    table.register("b", 1900.0)
    elo_update(table, "a", "b", 1.0)
    gain = table.rating("a") - 1500.0
    assert gain == pytest.approx(K_FACTOR * 10.0 / 11.0)
    assert gain == pytest.approx(29.09, abs=0.01)
    # exactly zero sum
    assert table.rating("a") + table.rating("b") == 1500.0 + 1900.0


def test_draw_moves_ratings_toward_each_other():
    table = RatingTable()
    table.register("a", 1600.0)
    table.register("b", 1400.0)
    elo_update(table, "a", "b", 0.5)
    assert table.rating("a") < 1600.0
    assert table.rating("b") > 1400.0
    assert table.rating("a") + table.rating("b") == 3000.0


def test_rating_table_defaults():
    table = RatingTable()
    table.register("x")
    assert table.rating("x") == INITIAL_RATING
    with pytest.raises(KeyError):
        table.rating("unknown")


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


def test_recorded_steps_store_white_perspective_values():
    rng = np.random.default_rng(1)
    agent = fresh_agent()
    rec = play_game(T3, agent, RandomAgent("r"),
                    record_sides=(Side.WHITE,), squash_cfg=FS3.squash_config(),
                    rng=rng)
    trace = rec.traces[Side.WHITE]
    assert trace.agent_side is Side.WHITE
    assert trace.outcome == rec.outcome
    for step in trace.steps:
        if step.leaf is not None and not T3.is_terminal(step.leaf):
            phi = features_white(FS3, step.leaf)
            assert np.array_equal(step.leaf_features, phi)
            assert step.raw_value == raw_eval(phi, agent.weights)
            assert step.value == squash(step.raw_value, FS3.squash_config())


def test_prediction_flags_match_reconstruction():
    # replace the stored flag with one recomputed from roots and PVs
    rng = np.random.default_rng(5)
    a = fresh_agent("a")
    b = fresh_agent("b")
    for _ in range(30):
        rec = play_game(T3, a, b, record_sides=(Side.WHITE, Side.BLACK),
                        squash_cfg=FS3.squash_config(), rng=rng)
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
                    squash_cfg=FS3.squash_config(), rng=rng,
                    opening_plies=2, opening_epsilon=1.0)
    trace = rec.traces[Side.WHITE]
    # the first White move fell in the opening window, so no step for ply 0
    assert all(s.root.ply >= 2 for s in trace.steps)


# ---------------------------------------------------------------------------
# Opponent pools
# ---------------------------------------------------------------------------


def _pool_of(ratings):
    table = RatingTable()
    opponents = []
    for i, r in enumerate(ratings):
        o = RandomAgent(f"o{i}")
        opponents.append(o)
        table.register(o.id, r)
    return OpponentPool(opponents, "nearest"), table


def test_nearest_matching_picks_closest_rating():
    pool, table = _pool_of([1400.0, 1500.0, 1800.0])
    table.register("me", 1520.0)
    assert pool.pick(table, "me", np.random.default_rng(0)).id == "o1"
    table.register("high", 1750.0)
    assert pool.pick(table, "high", np.random.default_rng(0)).id == "o2"


def test_uniform_matching_covers_pool():
    opponents = [RandomAgent(f"o{i}") for i in range(3)]
    pool = OpponentPool(opponents, "uniform")
    table = RatingTable()
    table.register("me")
    for o in opponents:
        table.register(o.id)
    rng = np.random.default_rng(3)
    seen = {pool.pick(table, "me", rng).id for _ in range(100)}
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
    assert result.games == 12
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
    assert np.any(final.values != 0.0)
    # ratings stay zero sum around the initial point
    assert result.table.rating(agent.id) + result.table.rating("rnd") == \
        pytest.approx(2 * INITIAL_RATING)


def test_train_online_is_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                     small_cfg(), 10, 123, out)
    for name in ("ratings.csv", "traces.log", "weights_final.snapshot"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_train_online_batching_defers_updates(tmp_path):
    agent = fresh_agent()
    pool = OpponentPool([RandomAgent("rnd")], "uniform")
    train_online(T3, agent, pool, small_cfg(update_every_n_games=2), 4, 7, tmp_path)
    rows = (tmp_path / "ratings.csv").read_text().strip().split("\n")[1:]
    hashes = [r.split(",")[-1] for r in rows]
    w0 = weights_hash(FS3, FS3.zero_weights())
    assert hashes[0] == w0          # game 0 accumulated, not applied
    assert hashes[1] != w0          # applied after game 1
    assert hashes[2] == hashes[1]   # game 2 accumulated again
    assert hashes[3] != hashes[2]


def test_replay_recovers_online_run_exactly(tmp_path):
    agent = fresh_agent()
    pool = OpponentPool([RandomAgent("rnd")], "uniform")
    cfg = small_cfg(update_every_n_games=3)
    result = train_online(T3, agent, pool, cfg, 11, 99, tmp_path)
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    report = replay_traces(T3, FS3, cfg, initial,
                           (tmp_path / "traces.log").read_text())
    assert report.ok
    assert report.games == 11
    assert report.mismatches == []
    assert np.array_equal(report.weights.values, result.weights.values)


def test_replay_flags_tampered_log(tmp_path):
    agent = fresh_agent()
    pool = OpponentPool([RandomAgent("rnd")], "uniform")
    cfg = small_cfg()
    train_online(T3, agent, pool, cfg, 5, 31, tmp_path)
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    text = (tmp_path / "traces.log").read_text()
    lines = text.splitlines()
    # nudge one logged squashed value
    for i, line in enumerate(lines):
        if line.startswith("step"):
            parts = line.split()
            parts[5] = "0.12345" if parts[5] != "0.12345" else "0.54321"
            lines[i] = " ".join(parts)
            break
    report = replay_traces(T3, FS3, cfg, initial, "\n".join(lines) + "\n")
    assert not report.ok
    assert report.mismatches


def test_train_selfplay_records_and_replays(tmp_path):
    agent = fresh_agent()
    cfg = small_cfg()
    result = train_selfplay(T3, agent, cfg, 8, 11, tmp_path,
                            record_both=True, opening_plies=2,
                            opening_epsilon=0.25)
    text = (tmp_path / "traces.log").read_text()
    assert text.count("game ") == 16  # two traces per game
    _, initial = load_weights(tmp_path / "weights_000000.snapshot")
    report = replay_traces(T3, FS3, cfg, initial, text)
    assert report.ok
    assert np.array_equal(report.weights.values, result.weights.values)
    # selfplay has no meaningful ratings
    rows = (tmp_path / "ratings.csv").read_text().strip().split("\n")[1:]
    assert all(float(r.split(",")[4]) == INITIAL_RATING for r in rows)


def _overflowing_run(mode, out_dir):
    # alpha 1e308 without squashing: the weights stop being finite after a game or two
    cfg = small_cfg(alpha=AlphaSchedule(base=1e308), squash=SquashConfig.disabled())
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
    games = [idx for idx, _, _ in traces_from_log((tmp_path / "traces.log").read_text(), T3, FS3)]
    assert sorted(set(games)) == list(range(len(rows) - 1))
    assert {p.name for p in tmp_path.iterdir()} == {
        "ratings.csv", "traces.log", "weights_000000.snapshot"}


def test_final_snapshot_is_renamed_into_place(tmp_path, monkeypatch):
    replaced = []
    monkeypatch.setattr(arena.os, "replace", lambda src, dst: replaced.append((src, dst)))
    train_online(T3, fresh_agent(), OpponentPool([RandomAgent("rnd")], "uniform"),
                 small_cfg(), 2, 5, tmp_path)
    final = tmp_path / "weights_final.snapshot"
    assert replaced == [(tmp_path / "weights_final.snapshot.tmp", final)]
    assert not final.exists()  # nothing but the rename writes the final name


def test_head_to_head_alternates_and_scores():
    a = FixedAgent("a", FS3, FS3.zero_weights(), 1, tie_mode="random")
    b = FixedAgent("b", FS3, FS3.zero_weights(), 1, tie_mode="random")
    score, tally = head_to_head(T3, a, b, 20, 17)
    assert tally["wins"] + tally["draws"] + tally["losses"] == 20
    assert 0.0 <= score <= 1.0
    again, _ = head_to_head(T3, a, b, 20, 17)
    assert again == score  # same seed, same games


def test_fixed_agent_weights_cannot_drift():
    w = FS3.zero_weights()
    agent = FixedAgent("f", FS3, w, 1)
    with pytest.raises(AttributeError):
        agent.weights = FS3.zero_weights()


def test_game_rng_streams_are_decorrelated():
    a = game_rng(5, 0).integers(0, 1000, size=8)
    b = game_rng(5, 1).integers(0, 1000, size=8)
    c = game_rng(5, 0).integers(0, 1000, size=8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_weights_hash_tracks_content():
    w1 = FS3.zero_weights()
    w2 = w1.with_values(np.linspace(0, 1, FS3.k))
    assert weights_hash(FS3, w1) != weights_hash(FS3, w2)
    assert weights_hash(FS3, w1) == weights_hash(FS3, FS3.zero_weights())
    assert len(weights_hash(FS3, w1)) == 12
