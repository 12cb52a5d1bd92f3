import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tdsearch
from tdsearch import cli
from tdsearch.cli import MODES, load_config, main
from tdsearch.evaluation import feature_set, weights_to_text
from tdsearch.learner import text_hash
from tdsearch.search import SearchResult


def write_cfg(path, **kw):
    path.write_text(json.dumps(kw, indent=1) + "\n")
    return str(path)


def online_cfg(tmp_path, **overrides):
    cfg = dict(
        mode="train-online",
        game="tictactoe",
        seed=4,
        games=6,
        out_dir=str(tmp_path / "run"),
        agent=dict(id="learner", depth=2, tie_break="random",
                   initial_weights="zero"),
        learner=dict(alpha=0.05, squash=True, clipping="none"),
        pool=dict(matching="uniform",
                  opponents=[dict(id="rnd", type="random")]),
    )
    cfg.update(overrides)
    cfg["learner"]["lambda"] = 0.7
    return write_cfg(tmp_path / "cfg.json", **cfg)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    # The path is named once: not again inside the OSError's own text.
    p = tmp_path / "nope.json"
    assert main(["--config", str(p)]) == 2
    assert capsys.readouterr().err == f"config error: {p}: No such file or directory\n"


def test_malformed_json_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{\n "mode": oops\n}\n')
    assert main(["--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:2:" in err


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    text = json.dumps(dict(mode="verify-figures", game="synthetic-tree", out_dir=str(out)))
    p = tmp_path / "cfg.json"
    p.write_bytes(text.encode()[:-1] + b', "trials": 5, "\xff": 1}')
    assert main(["--config", str(p), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "cfg.json" in err and "utf-8" in err, err
    assert not out.exists()


@pytest.mark.parametrize("key, old, new", [("games", '"games": 6,', '"games": 6, "games": 7,'),
                                           ("depth", '"depth": 2,', '"depth": 2, "depth": 3,')])
def test_a_repeated_config_key_is_a_config_error(tmp_path, capsys, key, old, new):
    # json.loads keeps a repeated key's last value, so the echoed config
    # would not show the first; the reader refuses the file and names the key.
    p = Path(online_cfg(tmp_path))
    text = p.read_text()
    assert text.count(old) == 1
    p.write_text(text.replace(old, new))
    assert main(["--config", str(p), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"repeated key {key!r}" in err, err
    assert not (tmp_path / "run").exists()


def _too_deep(path):
    # Nested far past the interpreter's recursion limit: json.loads raises RecursionError.
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


def test_a_config_nested_too_deeply_is_a_config_error(tmp_path, capsys):
    p = _too_deep(tmp_path / "deep.json")
    assert main(["--config", str(p), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {p}: JSON nested too deeply to read\n", err
    assert sorted(tmp_path.iterdir()) == [p]


def test_replay_of_a_run_dir_whose_config_is_nested_too_deeply_is_a_config_error(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    _too_deep(run / "config.json")
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(run),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "config.json" in err and "nested" in err, err
    assert not (tmp_path / "replay").exists()
    assert [p.name for p in run.iterdir()] == ["config.json"]


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    p = write_cfg(tmp_path / "c.json", mode="verify-figures",
                  game="synthetic-tree", out_dir=str(tmp_path / "o"),
                  extra=True)
    assert main(["--config", p]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_unknown_nested_key_rejected(tmp_path, capsys):
    cfg_path = online_cfg(tmp_path)
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["learner"]["momentum"] = 0.9
    p = write_cfg(tmp_path / "c2.json", **cfg)
    assert main(["--config", p]) == 2
    assert "momentum" in capsys.readouterr().err


def test_bad_mode_rejected(tmp_path):
    p = write_cfg(tmp_path / "c.json", mode="train", game="tictactoe",
                  out_dir=str(tmp_path / "o"))
    assert main(["--config", p]) == 2


def test_bad_lambda_rejected(tmp_path, capsys):
    cfg_path = online_cfg(tmp_path)
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["learner"]["lambda"] = 1.5
    p = write_cfg(tmp_path / "c3.json", **cfg)
    assert main(["--config", p]) == 2
    assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, key", [
    (dict(kind="inverse", base=0.2, decay_games=0), "decay_games"),
    (dict(kind="inverse", base=0.2, decay_games=-5), "decay_games"),
    (dict(kind="inverse", base=0.2, decay_games="x"), "decay_games"),
    (dict(kind="constant", base=-1), "base"),
    (-0.5, "alpha"),
    (0, "alpha"),
])
def test_bad_alpha_rejected_before_running(tmp_path, capsys, alpha, key):
    cfg = json.loads(Path(online_cfg(tmp_path)).read_text())
    cfg["learner"]["alpha"] = alpha
    p = write_cfg(tmp_path / "c4.json", **cfg)
    assert main(["--config", p]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _online(tmp_path, **top):
    return {**json.loads(Path(online_cfg(tmp_path)).read_text()), **top}


def _selfplay(tmp_path, **selfplay):
    cfg = _online(tmp_path, mode="train-selfplay", selfplay=selfplay)
    del cfg["pool"]
    return cfg


def _fixed_opponent(tmp_path, weights):
    cfg = _online(tmp_path)
    cfg["pool"]["opponents"].append(dict(type="fixed", id="f", depth=1, weights=weights))
    return cfg


def _nan_snapshot(tmp_path):
    fs = feature_set("tictactoe")
    text = weights_to_text(fs, fs.weights_from({})).replace("cell_3,0", "cell_3,nan")
    (tmp_path / "nan.snapshot").write_text(text)
    return _fixed_opponent(tmp_path, {"path": "nan.snapshot"})


def _big_snapshot(tmp_path):
    # tictactoe's bound is 1, so these weights could outrank a forced win
    fs = feature_set("tictactoe")
    text = weights_to_text(fs, fs.weights_from({"cell_4": 3e5, "bias": -2e5}))
    (tmp_path / "big.snapshot").write_text(text)
    return _fixed_opponent(tmp_path, {"path": "big.snapshot"})


def _repeated_index_snapshot(tmp_path):
    fs = feature_set("tictactoe")
    text = weights_to_text(fs, fs.weights_from({})) + "3,cell_3,99.0\n"
    (tmp_path / "twice.snapshot").write_text(text)
    return _fixed_opponent(tmp_path, {"path": "twice.snapshot"})


# snapshot spelling -> (edit of the writer's text, text stderr must contain)
SNAPSHOT_EDITS = {
    "crlf": (lambda text: text.replace("\n", "\r\n"), "snapshot line 1 reads"),
    "no-final-newline": (lambda text: text[:-1], "does not end in a newline"),
}


def _initial_snapshot(tmp_path, spelling):
    fs = feature_set("tictactoe")
    edit, _ = SNAPSHOT_EDITS[spelling]
    (tmp_path / "w.snapshot").write_bytes(edit(weights_to_text(fs, fs.weights_from({}))).encode())
    cfg = _online(tmp_path)
    cfg["agent"]["initial_weights"] = {"path": "w.snapshot"}
    return cfg


def _replay_of_head_to_head(tmp_path):
    # a match run into an old training run's directory: every replay file is there
    assert main(["--config", online_cfg(tmp_path), "--out", str(tmp_path / "h2h"), "--quiet"]) == 0
    h2h = write_cfg(
        tmp_path / "h.json", mode="head-to-head", game="tictactoe", games=2,
        out_dir=str(tmp_path / "h2h"), agents=[dict(depth=1), dict(depth=1)])
    assert main(["--config", h2h, "--quiet"]) == 0
    return dict(mode="replay", run_dir=str(tmp_path / "h2h"), out_dir=str(tmp_path / "run"))


def _replay_of_a_repeated_key(tmp_path):
    # replay reads the stored config through the same reader as --config
    run = tmp_path / "trained"
    assert main(["--config", online_cfg(tmp_path), "--out", str(run), "--quiet"]) == 0
    stored = run / "config.json"
    stored.write_text(stored.read_text().replace('\n  "games": 6,', '\n  "games": 6,' * 2, 1))
    return dict(mode="replay", run_dir=str(run), out_dir=str(tmp_path / "run"))


def _learner_named(tmp_path, agent_id):
    # the learner and a pool opponent would share one Elo table entry
    cfg = _online(tmp_path)
    cfg["agent"]["id"] = agent_id
    return cfg


def _opponent_named(tmp_path, opponent_id):
    # ids are written into the ASCII ratings.csv and traces.log
    cfg = _online(tmp_path)
    cfg["pool"]["opponents"][0]["id"] = opponent_id
    return cfg


def _batched_learner(tmp_path):
    # updates are per game; the key that batched them is gone
    cfg = _online(tmp_path)
    cfg["learner"]["update_every_n_games"] = 2
    return cfg


def _alpha_of(tmp_path, **alpha):
    # decay_games and floor shape only the inverse schedule
    cfg = _online(tmp_path)
    cfg["learner"]["alpha"] = alpha
    return cfg


# hole -> (config maker, text stderr must contain)
HOLES = {
    "seed": (lambda t: _online(t, seed=-1), "seed"),
    "snapshot_every": (lambda t: _online(t, snapshot_every=-1), "snapshot_every"),
    "opening_plies": (lambda t: _selfplay(t, opening_plies=-3), "opening_plies"),
    "opening_epsilon": (lambda t: _selfplay(t, opening_epsilon=5.0), "opening_epsilon"),
    "other-game-features": (lambda t: _online(t, features="connect4"), "connect4"),
    "unknown-features": (lambda t: _online(t, features="no-such-set"), "no-such-set"),
    "unknown-preset": (lambda t: _fixed_opponent(t, "basline"), "basline"),
    "nan-snapshot": (_nan_snapshot, "finite"),
    "snapshot-past-the-bound": (_big_snapshot, "forced-win bound"),
    "repeated-index-snapshot": (_repeated_index_snapshot, "snapshot has 11 weight lines"),
    "crlf-initial-snapshot": (lambda t: _initial_snapshot(t, "crlf"), "snapshot line 1 reads"),
    "unterminated-initial-snapshot": (lambda t: _initial_snapshot(t, "no-final-newline"),
                                      "does not end in a newline"),
    "replay-head-to-head": (_replay_of_head_to_head, "head-to-head"),
    "replay-repeated-key": (_replay_of_a_repeated_key, "repeated key 'games'"),
    "learner-id-in-pool": (lambda t: _learner_named(t, "rnd"), "pool opponent"),
    "non-ascii-opponent-id": (lambda t: _opponent_named(t, "r\u00f1d"), "printable ASCII"),
    "update_every_n_games": (_batched_learner, "update_every_n_games"),
    "decay-keys-of-a-constant-alpha": (
        lambda t: _alpha_of(t, kind="constant", base=0.05, decay_games=3, floor=7),
        "learner.alpha: unknown key(s) 'decay_games', 'floor'"),
    "decay-key-of-an-alpha-without-kind": (lambda t: _alpha_of(t, base=0.05, decay_games=3),
                                           "learner.alpha: unknown key(s) 'decay_games'"),
}


@pytest.mark.parametrize("hole", HOLES)
def test_config_hole_rejected_before_running(tmp_path, capsys, hole):
    make, needle = HOLES[hole]
    p = write_cfg(tmp_path / "c5.json", **make(tmp_path))
    capsys.readouterr()
    assert main(["--config", p]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_weights_fail_the_run(tmp_path, capsys):
    # alpha 1e308 without squashing overflows the weights within a few games
    cfg = _online(tmp_path, seed=1)
    cfg["learner"].update(alpha=1e308, squash=False)
    p = write_cfg(tmp_path / "c6.json", **cfg)
    assert main(["--config", p, "--quiet"]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "weights_final.snapshot").exists()


@pytest.mark.parametrize("out", ["afile", "afile/run"])
def test_out_dir_blocked_by_a_file_is_a_config_error(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("kept\n")
    p = write_cfg(tmp_path / "v.json", mode="verify-figures", game="synthetic-tree",
                  trials=1, out_dir=str(tmp_path / out))
    assert main(["--config", p, "--quiet"]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert sorted(q.name for q in tmp_path.iterdir()) == ["afile", "v.json"]


def test_missing_weight_file_rejected_before_running(tmp_path, capsys):
    p = write_cfg(
        tmp_path / "h.json", mode="head-to-head", game="tictactoe",
        games=2, out_dir=str(tmp_path / "o"),
        agents=[dict(id="a", depth=1, weights=dict(path="missing.snapshot")),
                dict(id="b", depth=1)],
    )
    assert main(["--config", p]) == 2
    assert "missing.snapshot" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # nothing written on config errors


# The zero tictactoe snapshot, as weights_to_text writes it.
T3_ZERO = ("game=tictactoe k=10 anchors=-\n"
           + "".join(f"{i},cell_{i},0\n" for i in range(9)) + "9,bias,0\n")

# snapshot -> (its text, or None for no file; the reason its error line gives)
SNAPSHOT_READ_ERRORS = {
    "missing": (None, "No such file or directory"),
    "no-header": ("bogus\n", "snapshot line 1 reads 'bogus', not a snapshot header"),
    "header-without-anchors": (
        T3_ZERO.replace(" anchors=-", ""),
        "snapshot line 1 reads 'game=tictactoe k=10'; "
        "the writer writes 'game=tictactoe k=10 anchors=-'"),
    "unknown-set": ("game=nope k=1 anchors=-\n0,x,0\n", "unknown feature set 'nope'"),
    "value-not-a-number": (
        T3_ZERO.replace("0,cell_0,0", "0,cell_0,abc"),
        "snapshot line 2 reads '0,cell_0,abc', not index,name,number"),
    "non-ascii-name": (
        T3_ZERO.replace("0,cell_0,0", "0,cell_\u00e9,0"),
        "snapshot line 2 reads '0,cell_\\udcc3\\udca9,0'; the writer writes '0,cell_0,0'"),
}


def test_a_snapshot_cannot_anchor_a_weight_its_feature_set_leaves_free(tmp_path, capsys):
    # The anchors are the feature set's: a header naming others is a read
    # error, where it once froze run2_v at 0.5 for the whole run.
    fs = feature_set("connect4")
    text = weights_to_text(fs, fs.preset("zero")).replace(" anchors=-\n", " anchors=3:0.5\n")
    text = text.replace("\n3,run2_v,0\n", "\n3,run2_v,0.5\n")
    path = tmp_path / "pinned.snapshot"
    path.write_text(text)
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "c4_pool_train.json").read_text())
    cfg["agent"]["initial_weights"] = {"path": "pinned.snapshot"}
    p = write_cfg(tmp_path / "c4.json", **dict(cfg, games=6, out_dir=str(tmp_path / "run")))
    assert main(["--config", p, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: agent.initial_weights: cannot read weight snapshot {path}: "
        "snapshot line 1 reads 'game=connect4 k=12 anchors=3:0.5'; "
        "the writer writes 'game=connect4 k=12 anchors=-'\n")
    assert not (tmp_path / "run").exists()


def test_a_snapshot_must_hold_its_anchored_weights_at_their_values(tmp_path, capsys):
    fs = feature_set("minichess-material")
    path = tmp_path / "pawn.snapshot"
    path.write_text(weights_to_text(fs, fs.preset("material")).replace(",pawn_diff,1\n",
                                                                       ",pawn_diff,2\n"))
    p = write_cfg(tmp_path / "h.json", mode="head-to-head", game="minichess",
                  features="minichess-material", games=2, out_dir=str(tmp_path / "run"),
                  agents=[dict(depth=1, weights={"path": "pawn.snapshot"}), dict(depth=1)])
    assert main(["--config", p, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: agents[0].weights: cannot read weight snapshot {path}: "
        "snapshot line 2 reads '0,pawn_diff,2'; minichess-material anchors pawn_diff at 1\n")
    assert not (tmp_path / "run").exists()


def _run_files(run):
    return {q.name: q.read_bytes() for q in run.iterdir()}


def test_replay_into_its_own_run_dir_is_a_config_error(tmp_path, capsys):
    # Replay echoes its config into out_dir; into run_dir it would overwrite
    # the config.json it replays, and the next replay of run_dir would fail.
    assert main(["--config", online_cfg(tmp_path), "--quiet"]) == 0
    run = tmp_path / "run"
    before = _run_files(run)
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir="run",
                   out_dir=str(run / ".." / "run"))
    capsys.readouterr()
    assert main(["--config", rp, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: run_dir: snapshot {run / 'weights_000000.snapshot'} "
        "is a file the run writes into out_dir\n")
    assert _run_files(run) == before


@pytest.mark.parametrize("name", ["weights_final.snapshot", "weights_000000.snapshot"])
def test_a_run_that_would_overwrite_a_snapshot_it_reads_is_a_config_error(tmp_path, capsys,
                                                                          name):
    # Training into the directory of its initial snapshot would overwrite
    # it, and the echoed config would then name other weights.
    assert main(["--config", online_cfg(tmp_path), "--quiet"]) == 0
    run = tmp_path / "run"
    before = _run_files(run)
    cfg = _online(tmp_path)
    cfg["agent"]["initial_weights"] = {"path": f"run/{name}"}
    p = write_cfg(tmp_path / "again.json", **cfg)
    capsys.readouterr()
    assert main(["--config", p, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: agent.initial_weights: snapshot {run / name} "
        "is a file the run writes into out_dir\n")
    assert _run_files(run) == before
    # A snapshot of another name in out_dir is no run file: the run reads it.
    (run / "mine.snapshot").write_bytes(before[name])
    cfg["agent"]["initial_weights"] = {"path": "run/mine.snapshot"}
    assert main(["--config", write_cfg(tmp_path / "again.json", **cfg), "--quiet"]) == 0


@pytest.mark.parametrize("case", SNAPSHOT_READ_ERRORS)
def test_a_snapshot_read_error_names_the_file_once(tmp_path, capsys, case):
    text, reason = SNAPSHOT_READ_ERRORS[case]
    path = tmp_path / "w.snapshot"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    p = write_cfg(tmp_path / "c.json", **_fixed_opponent(tmp_path, {"path": "w.snapshot"}))
    capsys.readouterr()
    assert main(["--config", p]) == 2
    assert capsys.readouterr() == ("", f"config error: pool.opponents[1].weights: cannot read "
                                       f"weight snapshot {path}: {reason}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["config.json", "traces.log", "weights_000000.snapshot",
                                  "weights_final.snapshot"])
def test_replay_names_a_missing_run_file_once(tmp_path, capsys, name):
    assert main(["--config", online_cfg(tmp_path), "--quiet"]) == 0
    path = tmp_path / "run" / name
    path.unlink()
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(tmp_path / "run"),
                   out_dir=str(tmp_path / "replay"))
    capsys.readouterr()
    assert main(["--config", rp]) == 2
    reason = f"{path}: No such file or directory"
    if name.endswith(".snapshot"):
        reason = f"cannot read weight snapshot {reason}"
    assert capsys.readouterr() == ("", f"config error: run_dir: {reason}\n")
    assert not (tmp_path / "replay").exists()


def test_weights_past_the_forced_win_bound_fail_the_run(tmp_path, capsys):
    # Game 0's update takes sum |w| far past MATE_SCORE / 2; the run stops there.
    cfg = _selfplay(tmp_path)
    cfg.update(games=2, seed=1)
    cfg["agent"]["depth"] = 1  # a decisive game 0, so its update is not zero
    cfg["learner"].update(alpha=1e300, squash=False)
    p = write_cfg(tmp_path / "c.json", **cfg)
    assert main(["--config", p, "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "error: ValueError: weights break the forced-win bound: sum |w| * 1 = "), err
    assert err.endswith(" reaches MATE_SCORE / 2 = 500000\n"), err
    assert not (tmp_path / "run" / "weights_final.snapshot").exists()


def test_synthetic_tree_only_verifies(tmp_path):
    p = write_cfg(tmp_path / "c.json", mode="train-selfplay",
                  game="synthetic-tree", games=1, out_dir=str(tmp_path / "o"),
                  agent=dict(depth=1), learner=dict())
    assert main(["--config", p]) == 2


def test_load_config_applies_overrides(tmp_path):
    p = online_cfg(tmp_path)
    cfg = load_config(p, seed_override=99, out_override=str(tmp_path / "other"))
    assert cfg["seed"] == 99
    assert cfg["out_dir"] == str(tmp_path / "other")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def test_verify_figures_passes(tmp_path, capsys):
    p = write_cfg(tmp_path / "f.json", mode="verify-figures",
                  game="synthetic-tree", seed=0, trials=200,
                  out_dir=str(tmp_path / "out"))
    assert main(["--config", p]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert all(report.values())


def test_verify_figures_fails_a_search_that_finds_the_value_at_the_wrong_leaf(tmp_path, capsys,
                                                                              monkeypatch):
    # The root value is right, 4, but the PV ends at leaf M, not L.  The
    # stand-in keeps the name alphabeta, which the check's name is built from.
    def alphabeta(game, root, depth, evaluator, seed=None):
        pv = (1, 0, 1)
        leaf = root
        for action in pv:
            leaf = game.apply(leaf, action)
        return SearchResult(4.0, pv, leaf, 8)

    monkeypatch.setattr(cli, "alphabeta", alphabeta)
    p = write_cfg(tmp_path / "f.json", mode="verify-figures", game="synthetic-tree", seed=0,
                  trials=20, out_dir=str(tmp_path / "out"))
    assert main(["--config", p, "--quiet"]) == 1
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["unique-pv tree, alphabeta: root value 4 with PV leaf L"] is False
    assert report["unique-pv tree, minimax: root value 4 with PV leaf L"] is True
    assert "FAIL: unique-pv tree, alphabeta" in capsys.readouterr().err


def test_train_online_end_to_end(tmp_path, capsys):
    p = online_cfg(tmp_path)
    assert main(["--config", p]) == 0
    run = tmp_path / "run"
    for name in ("config.json", "ratings.csv", "traces.log",
                 "weights_000000.snapshot", "weights_final.snapshot"):
        assert (run / name).is_file(), name
    echoed = json.loads((run / "config.json").read_text())
    assert echoed["seed"] == 4
    assert echoed["mode"] == "train-online"


def test_echoed_config_reproduces_run_bitwise(tmp_path):
    p = online_cfg(tmp_path)
    assert main(["--config", p, "--quiet"]) == 0
    run = tmp_path / "run"
    rerun = tmp_path / "rerun"
    assert main(["--config", str(run / "config.json"), "--out", str(rerun),
                 "--quiet"]) == 0
    for name in ("ratings.csv", "traces.log", "weights_final.snapshot"):
        assert (run / name).read_bytes() == (rerun / name).read_bytes()


def test_seed_override_changes_run(tmp_path):
    p = online_cfg(tmp_path)
    assert main(["--config", p, "--quiet"]) == 0
    other = tmp_path / "other"
    assert main(["--config", p, "--seed", "5", "--out", str(other),
                 "--quiet"]) == 0
    a = (tmp_path / "run" / "traces.log").read_bytes()
    b = (other / "traces.log").read_bytes()
    assert a != b
    assert json.loads((other / "config.json").read_text())["seed"] == 5


def test_replay_mode_passes_on_genuine_run(tmp_path, capsys):
    p = online_cfg(tmp_path)
    assert main(["--config", p, "--quiet"]) == 0
    rp = write_cfg(tmp_path / "r.json", mode="replay",
                   run_dir=str(tmp_path / "run"),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    report = json.loads((tmp_path / "replay" / "replay.json").read_text())
    assert report["final_weights_match"] is True
    assert report["step_values_match"] is True


def test_replay_mode_fails_on_tampered_log(tmp_path, capsys):
    p = online_cfg(tmp_path)
    assert main(["--config", p, "--quiet"]) == 0
    run = tmp_path / "run"
    log = run / "traces.log"
    lines = log.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("step"):
            parts = line.split()
            parts[5] = "3.5"  # fake raw score
            lines[i] = " ".join(parts)
            break
    log.write_text("\n".join(lines) + "\n")
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(run),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp, "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "FAIL" in err


# edit -> (config, games, text in the final snapshot, its replacement, exit
# code, text stderr must contain).  The replayed weights do not write the
# edited text.  The snapshot reader takes -0, whose value compares equal, so
# the replay runs and fails its final compare (exit 1); a header that drops
# the feature set's anchors is a read error (exit 2).
FINAL_SNAPSHOT_EDITS = {
    "negative-zero": ("c4_pool_train.json", 4, "\n6,run3_v,0\n", "\n6,run3_v,-0\n", 1,
                      "0 step mismatches; final weights match: False"),
    "anchors-dropped": ("mc_material_selfplay.json", 6, " anchors=0:1\n", " anchors=-\n", 2,
                        "snapshot line 1 reads 'game=minichess-material k=5 anchors=-'; "
                        "the writer writes 'game=minichess-material k=5 anchors=0:1'"),
}


@pytest.mark.parametrize("edit", FINAL_SNAPSHOT_EDITS)
def test_replay_fails_on_a_final_snapshot_the_replayed_weights_do_not_write(tmp_path, capsys,
                                                                            edit):
    name, games, old, new, code, needle = FINAL_SNAPSHOT_EDITS[edit]
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / name).read_text())
    run = tmp_path / "run"
    p = write_cfg(tmp_path / "train.json", **dict(cfg, games=games, out_dir=str(run)))
    assert main(["--config", p, "--quiet"]) == 0
    final = run / "weights_final.snapshot"
    text = final.read_text()
    assert text.count(old) == 1
    final.write_text(text.replace(old, new))
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(run),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp, "--quiet"]) == code
    out, err = capsys.readouterr()
    assert out == "" and needle in err, err
    assert (tmp_path / "replay").exists() == (code == 1)


def test_replay_mode_fails_on_a_root_text_to_text_never_writes(tmp_path, capsys):
    # The first game of the minichess self-play config logs this root on
    # line 4.  Spelling its empty rank 11111 names the same position, but
    # it is not the logged text the hash was taken of, and from_text
    # rejects it: replay fails and names the line.
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "mc_material_selfplay.json").read_text())
    run = tmp_path / "run"
    p = write_cfg(tmp_path / "train.json", **dict(cfg, games=1, out_dir=str(run)))
    assert main(["--config", p, "--quiet"]) == 0
    log = run / "traces.log"
    text = log.read_text()
    root = "rnb2/pp1pk/5/qPP1P/RNB1K_w_6"
    assert text.splitlines()[3].split(" ")[3] == root
    log.write_text(text.replace(root, "rnb2/pp1pk/11111/qPP1P/RNB1K_w_6", 1))
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(run),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp, "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "line 4: root hash mismatch" in err


def test_replay_mode_fails_on_an_action_token_action_to_str_never_writes(tmp_path, capsys):
    # The first step of a 4-game connect4 pool run logs the PV 1;3;3 on
    # line 2.  int() reads 01;+3;3 as the same columns, but action_to_str
    # writes neither 01 nor +3: replay fails and names the line.
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "c4_pool_train.json").read_text())
    run = tmp_path / "run"
    p = write_cfg(tmp_path / "train.json", **dict(cfg, games=4, out_dir=str(run)))
    assert main(["--config", p, "--quiet"]) == 0
    log = run / "traces.log"
    lines = log.read_text().split("\n")
    step = lines[1].split(" ")
    assert step[4] == "1;3;3"
    step[4] = "01;+3;3"
    lines[1] = " ".join(step)
    log.write_text("\n".join(lines))
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(run),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp, "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "line 2: bad move token '01'" in err


def test_replay_mode_fails_on_a_non_ascii_byte_and_names_its_line(tmp_path, capsys):
    # The log is read one line at a time, so a byte the ASCII writer never
    # writes is found mid-replay: replay fails and names the line.
    assert main(["--config", online_cfg(tmp_path), "--quiet"]) == 0
    log = tmp_path / "run" / "traces.log"
    lines = log.read_bytes().split(b"\n")
    lines[2] = b"\xe9" + lines[2]
    log.write_bytes(b"\n".join(lines))
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(tmp_path / "run"),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp, "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "line 3: non-ASCII byte" in err


@pytest.mark.parametrize("token", ["0.5", "7", "-0", "nan", "inf"])
def test_replay_mode_fails_on_an_outcome_no_game_ends_in(tmp_path, capsys, token):
    # The writer spells the three results 1, 0 and -1.  Any other token in
    # an outcome line, even one float() reads, fails replay and names the line.
    run = tmp_path / "run"
    p = write_cfg(tmp_path / "s.json", mode="train-selfplay", game="tictactoe", seed=6, games=2,
                  out_dir=str(run), agent=dict(id="learner", depth=2, tie_break="random"),
                  learner={"lambda": 0, "alpha": 0.05}, selfplay={})
    assert main(["--config", p, "--quiet"]) == 0
    log = run / "traces.log"
    lines = log.read_text().split("\n")
    assert lines[-1] == "" and lines[-2] in ("outcome 1", "outcome 0", "outcome -1")
    lines[-2] = f"outcome {token}"
    log.write_text("\n".join(lines))
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(run),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp, "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"line {len(lines) - 1}: bad outcome '{token}'" in err, err


def _rehashed(line, root_field):
    """A step line whose root field is root_field, under that field's own hash."""
    fields = line.split(" ")
    fields[2], fields[3] = text_hash(root_field.replace("_", " ")), root_field
    return " ".join(fields)


def _with_field(line, k, edit):
    fields = line[:-1].split(" ")
    fields[k] = edit(fields[k])
    return " ".join(fields) + "\n"


def _first(lines, test):
    return next(n for n, line in enumerate(lines) if test(line))


def _edit_first(lines, test, edit):
    n = _first(lines, test)
    lines[n] = edit(lines[n])
    return n + 1


def _insert_blank(lines):
    n = _first(lines, lambda line: line.startswith("game 1 "))
    lines.insert(n, "\n")
    return n + 1


# edit -> (run, edit of the log's lines in place returning the 1-based line it
# breaks).  Each spells a value the parse reads as the writer's, or pads a root
# text whose hash is taken again; the writer writes none of them.
LOG_SPELLINGS = {
    "ply-plus-3": ("tictactoe", lambda lines: _edit_first(
        lines, lambda line: line.startswith("step 3 "), lambda line: "step +3 " + line[7:])),
    "squashed-leading-0": ("tictactoe", lambda lines: _edit_first(
        lines, lambda line: line.startswith("step "),
        lambda line: _with_field(line, 6, lambda v: re.sub("^-?", r"\g<0>0", v)))),
    "game-index-00": ("tictactoe", lambda lines: _edit_first(
        lines, lambda line: line.startswith("game 0 "), lambda line: "game 00 " + line[7:])),
    "outcome-1.000": ("tictactoe", lambda lines: _edit_first(
        lines, lambda line: line == "outcome 1\n", lambda line: "outcome 1.000\n")),
    "trailing-space": ("tictactoe", lambda lines: _edit_first(
        lines, lambda line: line.startswith("step "), lambda line: line[:-1] + " \n")),
    "blank-line": ("tictactoe", _insert_blank),
    "crlf": ("tictactoe", lambda lines: _edit_first(
        lines, lambda line: line.startswith("outcome "), lambda line: line[:-1] + "\r\n")),
    "connect4-root-leading-space": ("connect4", lambda lines: _edit_first(
        lines, lambda line: line.startswith("step "),
        lambda line: _rehashed(line, "_" + line.split(" ")[3]))),
    "tictactoe-root-trailing-space": ("tictactoe", lambda lines: _edit_first(
        lines, lambda line: line.startswith("step "),
        lambda line: _rehashed(line, line.split(" ")[3] + "_"))),
    "minichess-root-double-space": ("minichess", lambda lines: _edit_first(
        lines, lambda line: line.startswith("step "),
        lambda line: _rehashed(line, line.split(" ")[3].replace("_", "__", 1)))),
}


def _logged_run(tmp_path, game):
    """The run directory of a short training run of game."""
    if game == "tictactoe":
        assert main(["--config", online_cfg(tmp_path), "--quiet"]) == 0
        return tmp_path / "run"
    name = {"connect4": "c4_pool_train.json", "minichess": "mc_material_selfplay.json"}[game]
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / name).read_text())
    run = tmp_path / "run"
    p = write_cfg(tmp_path / "train.json", **dict(cfg, games=2, out_dir=str(run)))
    assert main(["--config", p, "--quiet"]) == 0
    return run


@pytest.mark.parametrize("spelling", LOG_SPELLINGS)
def test_replay_reads_only_the_writers_spelling(tmp_path, capsys, spelling):
    game, edit = LOG_SPELLINGS[spelling]
    run = _logged_run(tmp_path, game)
    log = run / "traces.log"
    lines = log.read_bytes().decode().splitlines(keepends=True)
    n = edit(lines)
    log.write_bytes("".join(lines).encode())
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(run),
                   out_dir=str(tmp_path / "replay"))
    capsys.readouterr()
    assert main(["--config", rp, "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and re.search(f"line {n}[ :]", err), err


def test_replay_requires_run_artifacts(tmp_path, capsys):
    rp = write_cfg(tmp_path / "r.json", mode="replay",
                   run_dir=str(tmp_path / "empty"),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp]) == 2


@pytest.mark.parametrize("name", ["weights_000000.snapshot", "weights_final.snapshot"])
@pytest.mark.parametrize("spelling", SNAPSHOT_EDITS)
def test_replay_reads_only_the_snapshot_writers_spelling(tmp_path, capsys, spelling, name):
    assert main(["--config", online_cfg(tmp_path), "--quiet"]) == 0
    edit, needle = SNAPSHOT_EDITS[spelling]
    path = tmp_path / "run" / name
    path.write_bytes(edit(path.read_bytes().decode()).encode())
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(tmp_path / "run"),
                   out_dir=str(tmp_path / "replay"))
    capsys.readouterr()
    assert main(["--config", rp, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert name in err and needle in err, err


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_replay_with_a_bad_final_snapshot_leaves_no_open_file(tmp_path, capsys):
    # The log opens, but the final snapshot does not parse: a config error,
    # with no file left open for the garbage collector to close and warn about.
    assert main(["--config", online_cfg(tmp_path), "--quiet"]) == 0
    run = tmp_path / "run"
    (run / "weights_final.snapshot").write_text("not a snapshot\n")
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(run),
                   out_dir=str(tmp_path / "replay"))
    capsys.readouterr()
    assert main(["--config", rp, "--quiet"]) == 2
    gc.collect()
    assert "weights_final.snapshot" in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_replay_closes_its_log_when_the_config_echo_fails(tmp_path, capsys, monkeypatch):
    # The parse has opened the log when the echo raises: the run fails with
    # exit 1, and the log is closed then, not by the garbage collector.
    assert main(["--config", online_cfg(tmp_path), "--quiet"]) == 0
    rp = write_cfg(tmp_path / "r.json", mode="replay", run_dir=str(tmp_path / "run"),
                   out_dir=str(tmp_path / "replay"))

    def refuse(out_dir, cfg):
        raise OSError("no room for the config")

    monkeypatch.setattr(cli, "write_config", refuse)
    capsys.readouterr()
    assert main(["--config", rp, "--quiet"]) == 1
    gc.collect()
    assert "OSError: no room for the config" in capsys.readouterr().err


def test_head_to_head_writes_result(tmp_path, capsys):
    p = write_cfg(
        tmp_path / "h.json", mode="head-to-head", game="tictactoe",
        seed=2, games=8, out_dir=str(tmp_path / "h2h"),
        agents=[dict(id="a", depth=2, tie_break="random", weights="zero"),
                dict(id="b", depth=1, tie_break="random", weights="zero")],
    )
    assert main(["--config", p]) == 0
    report = json.loads((tmp_path / "h2h" / "result.json").read_text())
    assert report["games"] == 8
    assert report["wins"] + report["draws"] + report["losses"] == 8
    assert report["score_a"] == (report["wins"] + 0.5 * report["draws"]) / 8
    out = capsys.readouterr().out
    assert "a vs b" in out


def test_head_to_head_quiet_prints_nothing(tmp_path, capsys):
    p = write_cfg(
        tmp_path / "h.json", mode="head-to-head", game="tictactoe",
        seed=2, games=2, out_dir=str(tmp_path / "h2h"),
        agents=[dict(id="a", depth=1, weights="zero"),
                dict(id="b", depth=1, weights="zero")],
    )
    assert main(["--config", p, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "h2h" / "result.json").is_file()


def _quiet_run(tmp_path, mode):
    """A config of each mode, with any run it needs already made."""
    if mode == "train-online":
        return online_cfg(tmp_path)
    if mode == "train-selfplay":
        return write_cfg(tmp_path / "s.json", **_selfplay(tmp_path, record_both=True))
    if mode == "head-to-head":
        return write_cfg(tmp_path / "h.json", mode=mode, game="tictactoe", games=2,
                         out_dir=str(tmp_path / "h2h"), agents=[dict(depth=1), dict(depth=1)])
    if mode == "replay":
        assert main(["--config", online_cfg(tmp_path), "--quiet"]) == 0
        return write_cfg(tmp_path / "r.json", mode=mode, run_dir=str(tmp_path / "run"),
                         out_dir=str(tmp_path / "replay"))
    return write_cfg(tmp_path / "f.json", mode=mode, game="synthetic-tree",
                     out_dir=str(tmp_path / "fig"))


@pytest.mark.parametrize("mode", MODES)
def test_quiet_keeps_stdout_empty(tmp_path, capsys, mode):
    p = _quiet_run(tmp_path, mode)
    capsys.readouterr()
    assert main(["--config", p, "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("mode", MODES)
def test_no_mode_imports_numpy_random(tmp_path, mode):
    # Games draw from tdsearch.rng, so a run never loads numpy's random module
    # (about 2 MB resident); a fresh interpreter shows what a run imports.
    p = _quiet_run(tmp_path, mode)
    script = ("import sys; from tdsearch.cli import main; "
              "rc = main(['--config', sys.argv[1], '--quiet']); "
              "print(rc, 'numpy.random' in sys.modules)")
    src = str(Path(tdsearch.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", script, p], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["0", "False"]


def test_quiet_verify_figures_failure_goes_to_stderr(tmp_path, capsys):
    # one trial cannot reach both tied leaves, so that check fails
    p = write_cfg(tmp_path / "f.json", mode="verify-figures", game="synthetic-tree",
                  trials=1, out_dir=str(tmp_path / "fig"))
    assert main(["--config", p, "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("FAIL") == 1 and "random tie-breaking" in err


def test_train_selfplay_mode(tmp_path):
    p = write_cfg(
        tmp_path / "s.json", mode="train-selfplay", game="tictactoe",
        seed=6, games=4, out_dir=str(tmp_path / "sp"),
        agent=dict(id="learner", depth=2, tie_break="random"),
        learner={"lambda": 0.7, "alpha": 0.05},
        selfplay=dict(record_both=True, opening_plies=2, opening_epsilon=0.3),
    )
    assert main(["--config", p, "--quiet"]) == 0
    text = (tmp_path / "sp" / "traces.log").read_text()
    assert text.count("game ") == 8


def test_writes_stay_inside_out_dir(tmp_path, monkeypatch):
    # run from a scratch cwd; nothing may appear there or next to the config
    scratch = tmp_path / "cwd"
    scratch.mkdir()
    monkeypatch.chdir(scratch)
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    p = write_cfg(cfg_dir / "f.json", mode="verify-figures",
                  game="synthetic-tree", out_dir=str(tmp_path / "only_here"))
    assert main(["--config", str(p)]) == 0
    assert list(scratch.iterdir()) == []
    assert list(cfg_dir.iterdir()) == [cfg_dir / "f.json"]
    assert (tmp_path / "only_here" / "verify.json").is_file()
