"""Config-driven command line front end.

Usage: tdsearch --config cfg.json [--seed N] [--out DIR] [--quiet]

The JSON config selects a mode (train-online, train-selfplay, head-to-head,
replay, verify-figures) and a game; --seed and --out override the config's
seed and out_dir.  A run parses first and writes second: one pass reads
each config section, checks its types and ranges (unknown keys are
rejected), and builds the object it configures, resolving every preset,
snapshot and run directory the config names.  Only then is the resolved
config echoed into out_dir (tdsearch.rundir names the files) and the run
started, so a config error writes nothing, and feeding the echoed file back
reproduces the run's artifacts byte for byte.  Exit codes: 0 on success, 1
on a runtime fault (including failed replay/verification), 2 on a config
error.  No mode writes outside its out_dir.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from tdsearch.arena import (
    OpponentPool,
    RandomAgent,
    SearchAgent,
    head_to_head,
    replay_traces,
    train_online,
    train_selfplay,
)
from tdsearch.evaluation import SquashConfig, load_weights
from tdsearch.games import GAMES, SyntheticTreeGame, TIED_PV_TREE, UNIQUE_PV_TREE
from tdsearch.learner import AlphaSchedule, ClipPolicy, LearnerConfig
from tdsearch.presets import preset_weights, resolve_feature_set
from tdsearch.rundir import open_log, read_config, snapshot_path, write_config, write_json
from tdsearch.search import alphabeta, minimax

MODES = ("train-online", "train-selfplay", "head-to-head", "replay", "verify-figures")
NUMBER = (int, float)
_REQUIRED = object()


class ConfigError(Exception):
    pass


class _Section:
    """One JSON object of a config: typed reads, then a check for unread keys."""

    def __init__(self, value, where: str = "config"):
        self.where = where
        if not isinstance(value, dict):
            raise ConfigError(f"{self.where} must be an object, got {type(value).__name__}")
        self.value = value
        self.read = set()

    def get(self, key: str, kind, default=_REQUIRED, lo=None, hi=None):
        """The value of key, of type kind and inside [lo, hi]; default when absent."""
        self.read.add(key)
        if key not in self.value:
            if default is _REQUIRED:
                raise ConfigError(f"{self.where}: missing required key {key!r}")
            return default
        value = self.value[key]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"{self.where}: {key!r} has wrong type {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{self.where}: {key!r} must be finite, got {value!r}")
        if lo is not None and not lo <= value <= (math.inf if hi is None else hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ConfigError(f"{self.where}: {key!r} must be {bound}, got {value!r}")
        return value

    def choice(self, key: str, options):
        value = self.get(key, str)
        if value not in options:
            raise ConfigError(f"{self.where}: {key!r} must be one of {list(options)}, got {value!r}")
        return value

    def path(self, key: str, config_dir: Path) -> Path:
        """A path made absolute against config_dir; the config keeps the absolute form."""
        path = Path(self.get(key, str))
        if not path.is_absolute():
            path = config_dir / path
            self.value[key] = str(path)
        return path

    def fields(self, **specs) -> dict:
        """Keyword arguments from the keys present, given as name=(key, kind[, convert]).

        Absent keys are left out, so the configured class's own defaults apply.
        """
        kwargs = {}
        for name, (key, kind, *convert) in specs.items():
            value = self.get(key, kind, None)
            if value is not None:
                kwargs[name] = self.call(convert[0], value) if convert else value
        return kwargs

    def build(self, cls, *args, **kwargs):
        """cls(*args, **kwargs) for a section whose keys have all been read."""
        self.done()
        return self.call(cls, *args, **kwargs)

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), with a lookup or value error as a ConfigError."""
        try:
            return fn(*args, **kwargs)
        except (LookupError, ValueError) as e:
            raise ConfigError(f"{self.where}: {e.args[0] if e.args else e}") from None

    def done(self) -> None:
        unknown = sorted(set(self.value) - self.read)
        if unknown:
            raise ConfigError(f"{self.where}: unknown key(s) {', '.join(map(repr, unknown))}")


def load_config(path: str, seed_override=None, out_override=None) -> dict:
    """Read a run config and apply the overrides; parse() checks it.  Raises ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if seed_override is not None:
        cfg["seed"] = seed_override
    if out_override is not None:
        cfg["out_dir"] = out_override
    return cfg


# ---------------------------------------------------------------------------
# The parse pass
# ---------------------------------------------------------------------------


def parse(cfg: dict, config_dir: Path, owned: ExitStack):
    """Check a loaded config and build what it configures.  Raises ConfigError.

    Returns the run as a callable taking `quiet` and returning the exit
    code.  Relative snapshot and run_dir paths are resolved against
    config_dir and stored back into cfg in absolute form.  A file the run
    reads is opened here and entered into owned, which closes it on every
    path.  Nothing is written.
    """
    top = _Section(cfg)
    mode = top.choice("mode", MODES)
    out_dir = Path(top.get("out_dir", str))
    existing = next(filter(Path.exists, (out_dir, *out_dir.parents)), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"config: out_dir {str(out_dir)!r}: "
                          f"{str(existing)!r} is not a directory")
    seed = top.get("seed", int, 0, lo=0)
    if mode == "replay":
        run_dir = top.path("run_dir", config_dir)
        top.done()  # before the replay opens its log
        return _parse_replay(run_dir, out_dir, owned)
    if mode == "verify-figures":
        top.choice("game", ("synthetic-tree",))
        run = partial(_run_verify_figures, seed, top.get("trials", int, 200, lo=1), out_dir)
    else:
        game_id = top.choice("game", tuple(GAMES))
        fs = top.call(resolve_feature_set, game_id, top.get("features", str, None))
        games = top.get("games", int, lo=1)
        if mode == "head-to-head":
            specs = top.get("agents", list)
            if len(specs) != 2:
                raise ConfigError("config: 'agents' must list exactly 2 agents")
            a, b = (_agent(_Section(spec, f"agents[{i}]"), fs, config_dir, True, default)
                    for i, (spec, default) in enumerate(zip(specs, "ab")))
            if a.id == b.id:
                b = replace(b, id=b.id + "-2")
            run = partial(_run_head_to_head, GAMES[game_id], a, b, games, seed, out_dir)
        else:
            agent = _agent(_Section(top.get("agent", dict), "agent"), fs, config_dir, False,
                           "learner")
            learner = _learner(_Section(top.get("learner", dict), "learner"), fs)
            common = (GAMES[game_id], agent, learner, games, seed, out_dir,
                      top.get("snapshot_every", int, 0, lo=0))
            if mode == "train-online":
                pool = _pool(_Section(top.get("pool", dict), "pool"), fs, config_dir)
                if any(opp.id == agent.id for opp in pool.opponents):
                    raise ConfigError(f"config: agent id {agent.id!r} is also a pool opponent's id")
                run = partial(_run_training, *common, pool=pool)
            else:
                sp = _Section(top.get("selfplay", dict, {}), "selfplay")
                run = partial(_run_training, *common,
                              record_both=sp.get("record_both", bool, False),
                              opening_plies=sp.get("opening_plies", int, 0, lo=0),
                              opening_epsilon=float(sp.get("opening_epsilon", NUMBER, 0.0,
                                                           lo=0, hi=1)))
                sp.done()
    top.done()
    return run


def _snapshot(path: Path, fs, where: str):
    """The weights stored at path, which must be a snapshot for fs."""
    try:
        fs_id, weights = load_weights(path)
    except (OSError, LookupError, ValueError) as e:
        raise ConfigError(f"{where}: cannot read weight snapshot {path}: {e}") from None
    if fs_id != fs.id:
        raise ConfigError(f"{where}: snapshot {path} is for feature set {fs_id!r}, expected {fs.id!r}")
    return weights


def _agent(sec: _Section, fs, config_dir: Path, fixed: bool, default_id=_REQUIRED):
    """A SearchAgent: a fixed player (key 'weights') or a learner (key 'initial_weights')."""
    key = "weights" if fixed else "initial_weights"
    spec = sec.get(key, (str, dict), "zero")
    if isinstance(spec, str):
        weights = sec.call(preset_weights, fs, spec)
    else:
        ref = _Section(spec, f"{sec.where}.{key}")
        weights = _snapshot(ref.path("path", config_dir), fs, ref.where)
        ref.done()
    return sec.build(SearchAgent, sec.get("id", str, default_id), fs,
                     weights, sec.get("depth", int, lo=1), **sec.fields(tie_mode=("tie_break", str)))


def _pool(sec: _Section, fs, config_dir: Path) -> OpponentPool:
    opponents = []
    for i, spec in enumerate(sec.get("opponents", list)):
        opp = _Section(spec, f"{sec.where}.opponents[{i}]")
        if opp.choice("type", ("random", "fixed")) == "fixed":
            opponents.append(_agent(opp, fs, config_dir, True))
        else:
            opponents.append(opp.build(RandomAgent, opp.get("id", str)))
    return sec.build(OpponentPool, opponents, **sec.fields(matching=("matching", str)))


def _learner(sec: _Section, fs) -> LearnerConfig:
    squash = SquashConfig() if sec.get("squash", bool, True) else SquashConfig.disabled()
    return sec.build(LearnerConfig, squash=squash, **sec.fields(
        lambda_=("lambda", NUMBER, float),
        alpha=("alpha", NUMBER + (dict,), partial(_alpha, f"{sec.where}.alpha")),
        clipping=("clipping", str, ClipPolicy),
    ))


def _alpha(where: str, value) -> AlphaSchedule:
    """A number is a constant rate; an object is {kind, base, decay_games, floor}."""
    sec = _Section(value if isinstance(value, dict) else {"base": value}, where)
    return sec.build(AlphaSchedule, **sec.fields(
        kind=("kind", str),
        base=("base", NUMBER, float),
        decay_games=("decay_games", NUMBER, float),
        floor=("floor", NUMBER, float),
    ))


def _parse_replay(run_dir: Path, out_dir: Path, owned: ExitStack):
    """The replay of run_dir, with the game, features and learner of its stored config."""
    where = f"run_dir {run_dir}"
    try:
        run_cfg = _Section(read_config(run_dir), f"{where} config")
        run_cfg.choice("mode", ("train-online", "train-selfplay"))
        game_id = run_cfg.choice("game", tuple(GAMES))
        fs = run_cfg.call(resolve_feature_set, game_id, run_cfg.get("features", str, None))
        learner = _learner(_Section(run_cfg.get("learner", dict), f"{where} config learner"), fs)
        initial, final = (_snapshot(snapshot_path(run_dir, k), fs, where) for k in (0, None))
        log = owned.enter_context(open_log(run_dir))  # last, once nothing else can fail
    except (OSError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from None
    return partial(_run_replay, run_dir, GAMES[game_id], fs, learner, initial, final, log, out_dir)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _run_training(game, agent, learner, games, seed, out_dir, snapshot_every, quiet,
                  pool=None, **selfplay) -> int:
    """train-online against pool, or train-selfplay with the selfplay options."""
    if pool is not None:
        result = train_online(game, agent, pool, learner, games, seed, out_dir,
                              snapshot_every=snapshot_every)
        summary = (f"trained {result.games} games vs pool; final rating "
                   f"{result.table.rating(agent.id):.1f}")
    else:
        result = train_selfplay(game, agent, learner, games, seed, out_dir,
                                snapshot_every=snapshot_every, **selfplay)
        summary = f"self-played {result.games} games"
    if not quiet:
        print(f"{summary}; artifacts in {out_dir}")
    return 0


def _run_head_to_head(game, a, b, games, seed, out_dir, quiet) -> int:
    score, tally = head_to_head(game, a, b, games, seed)
    write_json(out_dir / "result.json",
               {"agent_a": a.id, "agent_b": b.id, "games": games, "score_a": score, **tally})
    if not quiet:
        print(f"{a.id} vs {b.id}: score {score:.4f} over {games} games "
              f"(+{tally['wins']} ={tally['draws']} -{tally['losses']})")
    return 0


def _run_replay(run_dir, game, fs, learner, initial, final, log, out_dir, quiet) -> int:
    report = replay_traces(game, fs, learner, initial, log)
    weights_match = bool(np.array_equal(report.weights.values, final.values))
    write_json(out_dir / "replay.json", {
        "run_dir": str(run_dir),
        "games_replayed": report.games,
        "step_values_match": report.ok,
        "final_weights_match": weights_match,
        "mismatches": report.mismatches[:20],
    })
    if report.ok and weights_match:
        if not quiet:
            print(f"PASS: replayed {report.games} games; recomputed weights match the final snapshot")
        return 0
    print(f"FAIL: replay diverged ({len(report.mismatches)} step mismatches; "
          f"final weights match: {weights_match})", file=sys.stderr)
    return 1


def _run_verify_figures(seed, trials, out_dir, quiet) -> int:
    checks = []

    unique = SyntheticTreeGame(UNIQUE_PV_TREE)
    root = unique.initial_state()
    depth = unique.max_depth()
    for algo in (minimax, alphabeta):
        res = algo(unique, root, depth, unique.evaluator)
        checks.append(
            (f"unique-pv tree, {algo.__name__}: root value 4 with PV leaf L",
             res.value == 4.0 and unique.label(res.leaf) == "L"))

    tied = SyntheticTreeGame(TIED_PV_TREE)
    troot = tied.initial_state()
    for algo in (minimax, alphabeta):
        res = algo(tied, troot, depth, tied.evaluator)
        checks.append(
            (f"tied-pv tree, {algo.__name__}: root value 4 with PV leaf in {{H, L}}",
             res.value == 4.0 and tied.label(res.leaf) in ("H", "L")))

    seen = set()
    for t in range(trials):
        res = minimax(tied, troot, depth, tied.evaluator, seed + t)
        if res.value != 4.0:
            seen = set()
            break
        seen.add(tied.label(res.leaf))
    checks.append(
        (f"tied-pv tree: random tie-breaking reaches both H and L within {trials} trials",
         seen == {"H", "L"}))

    write_json(out_dir / "verify.json", {name: bool(ok) for name, ok in checks})
    for name, ok in checks:
        if not ok:
            print(f"FAIL: {name}", file=sys.stderr)
        elif not quiet:
            print(f"PASS: {name}")
    return 0 if all(ok for _, ok in checks) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tdsearch",
        description="Training and evaluation runs for search-based TD learning.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the config out_dir")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    with ExitStack() as owned:
        try:
            cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
            run = parse(cfg, Path(args.config).parent, owned)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2

        try:
            write_config(cfg["out_dir"], cfg)
            return run(args.quiet)
        except Exception as e:  # noqa: BLE001 - map any runtime fault to exit 1
            print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
