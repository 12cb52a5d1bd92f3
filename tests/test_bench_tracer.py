"""Guard: the benchmark's span tracer still reaches trace writes, parses and replay.

bench/tracer.py times the layers by replacing module globals from outside
src/: arena.trace_to_log, arena.traces_from_log and cli.replay_traces among
them.  A refactor that stopped calling one of those names would leave its
span empty, and `bench/run.py --trace 1` would report the layer as free
without failing.  The tracer is read from its file and run here, with every
name it replaces restored afterwards.
"""

import json
import types
from pathlib import Path

from tdsearch import arena, cli, evaluation
from tdsearch.games import GAMES
from tdsearch.games.connect4 import ConnectFour

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    """bench/tracer.py executed into a fresh module, without importing it (no bytecode)."""
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def _config(path, **cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return ["--config", str(path), "--quiet"]


def test_tracer_spans_record_trace_writes_parses_and_replay(tmp_path, monkeypatch):
    for name in ("linear_evaluator", "alphabeta", "tdleaf_delta", "trace_to_log",
                 "traces_from_log"):
        monkeypatch.setattr(arena, name, getattr(arena, name))
    for name in ("train_online", "train_selfplay", "head_to_head", "replay_traces", "main"):
        monkeypatch.setattr(cli, name, getattr(cli, name))
    monkeypatch.setattr(evaluation, "FEATURE_SETS", dict(evaluation.FEATURE_SETS))
    game = ConnectFour()  # the tracer wraps its methods; the shared instance stays as it was
    monkeypatch.setitem(GAMES, "connect4", game)

    tracer = _tracer_module().Tracer()
    tracer.install(cli, arena, evaluation, game)
    run = tmp_path / "run"
    assert cli.main(_config(
        tmp_path / "train.json", mode="train-online", game="connect4", seed=3, games=2,
        out_dir=str(run),
        agent={"id": "learner", "depth": 1, "tie_break": "random", "initial_weights": "baseline"},
        learner={"lambda": 0.7, "alpha": 0.05},
        pool={"opponents": [{"type": "random", "id": "rnd"}]})) == 0
    tracer.phase = "replay"
    assert cli.main(_config(tmp_path / "replay.json", mode="replay", run_dir=str(run),
                            out_dir=str(tmp_path / "replay"))) == 0

    calls = {key: stats[0] for key, stats in tracer.stats.items()}
    assert calls[("play", "learner.trace_to_log")] == 2
    assert calls[("replay", "arena.replay_traces")] == 1
    assert calls[("replay", "learner.traces_from_log")] == 3  # two game blocks, then the end
    assert calls[("play", "games.is_terminal")] > 0 and calls[("replay", "games.outcome")] > 0
    # The learner's baseline weights score leaves through the wrapped extract
    # too, not only each recorded step's PV leaf.
    steps = sum(line.startswith("step ") for line in (run / "traces.log").open(encoding="ascii"))
    assert calls[("play", "evaluation.extract")] > steps > 0
