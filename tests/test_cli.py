import json
from pathlib import Path

import numpy as np
import pytest

from tdsearch.cli import load_config, main
from tdsearch.evaluation import feature_set, weights_to_text


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
        learner=dict(alpha=0.05, squash=True, clipping="none",
                     update_every_n_games=1),
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
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{\n "mode": oops\n}\n')
    assert main(["--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:2:" in err


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
    text = weights_to_text(fs, fs.zero_weights()).replace("cell_3,0", "cell_3,nan")
    (tmp_path / "nan.snapshot").write_text(text)
    return _fixed_opponent(tmp_path, {"path": "nan.snapshot"})


def _replay_of_head_to_head(tmp_path):
    # a match run into an old training run's directory: every replay file is there
    assert main(["--config", online_cfg(tmp_path), "--out", str(tmp_path / "h2h"), "--quiet"]) == 0
    h2h = write_cfg(
        tmp_path / "h.json", mode="head-to-head", game="tictactoe", games=2,
        out_dir=str(tmp_path / "h2h"), agents=[dict(depth=1), dict(depth=1)])
    assert main(["--config", h2h, "--quiet"]) == 0
    return dict(mode="replay", run_dir=str(tmp_path / "h2h"), out_dir=str(tmp_path / "run"))


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
    "replay-head-to-head": (_replay_of_head_to_head, "head-to-head"),
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
    assert main(["--config", rp]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_replay_requires_run_artifacts(tmp_path, capsys):
    rp = write_cfg(tmp_path / "r.json", mode="replay",
                   run_dir=str(tmp_path / "empty"),
                   out_dir=str(tmp_path / "replay"))
    assert main(["--config", rp]) == 2


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
