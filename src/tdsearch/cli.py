"""Config-driven command line front end.

Usage: tdsearch --config cfg.json [--seed N] [--out DIR] [--quiet]

The JSON config selects a mode (train-online, train-selfplay, head-to-head,
replay, verify-figures) and a game; --seed and --out override the config's
seed and out_dir.  Unknown config keys are rejected.  Exit codes: 0 on
success, 1 on a runtime fault (including failed replay/verification), 2 on
a config error.  The resolved config is echoed to out_dir/config.json
before running, and feeding that file back reproduces the run's artifacts
byte for byte.  No mode writes outside its out_dir.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from tdsearch.arena import (
    FixedAgent,
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
from tdsearch.search import TieBreakPolicy, alphabeta, minimax

MODES = ("train-online", "train-selfplay", "head-to-head", "replay", "verify-figures")
GAME_IDS = ("tictactoe", "connect4", "minichess", "synthetic-tree")


class ConfigError(Exception):
    pass


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _check_keys(cfg: dict, allowed, where: str = "config") -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _typed(value, kind, key: str, where: str):
    ok = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
    if not ok:
        raise ConfigError(f"{where}: {key!r} has wrong type {type(value).__name__}")
    return value


def load_config(path: str, seed_override=None, out_override=None) -> dict:
    """Read, override, and validate a run config.  Raises ConfigError."""
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
    _validate(cfg, config_dir=p.parent)
    return cfg


def _validate(cfg: dict, config_dir: Path) -> None:
    mode = _require(cfg, "mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    _require(cfg, "out_dir")
    _typed(cfg["out_dir"], str, "out_dir", "config")
    _typed(cfg.get("seed", 0), int, "seed", "config")

    common = {"mode", "out_dir", "seed"}
    if mode == "replay":
        _check_keys(cfg, common | {"run_dir"}, "config")
        run_dir = Path(_typed(_require(cfg, "run_dir"), str, "run_dir", "config"))
        if not run_dir.is_absolute():
            run_dir = config_dir / run_dir
            cfg["run_dir"] = str(run_dir)
        for name in ("config.json", "traces.log", "weights_000000.snapshot",
                     "weights_final.snapshot"):
            if not (run_dir / name).is_file():
                raise ConfigError(f"run_dir is missing {name}: {run_dir}")
        return

    game_id = _require(cfg, "game")
    if game_id not in GAME_IDS:
        raise ConfigError(f"game must be one of {GAME_IDS}, got {game_id!r}")

    if mode == "verify-figures":
        _check_keys(cfg, common | {"game", "trials"}, "config")
        if game_id != "synthetic-tree":
            raise ConfigError("verify-figures runs on game 'synthetic-tree'")
        _typed(cfg.get("trials", 200), int, "trials", "config")
        return

    if game_id == "synthetic-tree":
        raise ConfigError(f"game 'synthetic-tree' only supports verify-figures, not {mode}")
    _typed(_require(cfg, "games"), int, "games", "config")
    if cfg["games"] < 1:
        raise ConfigError("games must be >= 1")
    if "features" in cfg:
        _typed(cfg["features"], str, "features", "config")
        resolve_feature_set(game_id, cfg["features"])  # raises on mismatch

    if mode == "head-to-head":
        _check_keys(cfg, common | {"game", "games", "features", "agents"}, "config")
        agents = _typed(_require(cfg, "agents"), list, "agents", "config")
        if len(agents) != 2:
            raise ConfigError("head-to-head needs exactly 2 agents")
        for i, spec in enumerate(agents):
            _validate_agent(spec, f"agents[{i}]", config_dir, require_weights=True)
        return

    agent = _typed(_require(cfg, "agent"), dict, "agent", "config")
    _validate_agent(agent, "agent", config_dir, require_weights=False)
    _validate_learner(_typed(_require(cfg, "learner"), dict, "learner", "config"))
    _typed(cfg.get("snapshot_every", 0), int, "snapshot_every", "config")

    if mode == "train-online":
        _check_keys(
            cfg, common | {"game", "games", "features", "agent", "learner", "pool",
                           "snapshot_every"}, "config")
        pool = _typed(_require(cfg, "pool"), dict, "pool", "config")
        _check_keys(pool, {"matching", "opponents"}, "pool")
        if pool.get("matching", "uniform") not in ("uniform", "nearest"):
            raise ConfigError("pool.matching must be 'uniform' or 'nearest'")
        opponents = _typed(_require(pool, "opponents", "pool"), list, "opponents", "pool")
        if not opponents:
            raise ConfigError("pool.opponents must not be empty")
        ids = set()
        for i, spec in enumerate(opponents):
            where = f"pool.opponents[{i}]"
            _typed(spec, dict, "opponent", where)
            kind = _require(spec, "type", where)
            if kind == "random":
                _check_keys(spec, {"type", "id"}, where)
            elif kind == "fixed":
                _check_keys(spec, {"type", "id", "depth", "weights", "tie_break"}, where)
                _validate_agent(spec, where, config_dir, require_weights=True,
                                extra_keys={"type"})
            else:
                raise ConfigError(f"{where}: type must be 'random' or 'fixed'")
            oid = _require(spec, "id", where)
            if oid in ids:
                raise ConfigError(f"{where}: duplicate opponent id {oid!r}")
            ids.add(oid)
    elif mode == "train-selfplay":
        _check_keys(
            cfg, common | {"game", "games", "features", "agent", "learner", "selfplay",
                           "snapshot_every"}, "config")
        sp = _typed(cfg.get("selfplay", {}), dict, "selfplay", "config")
        _check_keys(sp, {"record_both", "opening_plies", "opening_epsilon"}, "selfplay")
        _typed(sp.get("record_both", False), bool, "record_both", "selfplay")
        _typed(sp.get("opening_plies", 0), int, "opening_plies", "selfplay")
        _typed(sp.get("opening_epsilon", 0.0), (int, float), "opening_epsilon", "selfplay")


def _validate_agent(spec, where: str, config_dir: Path, require_weights: bool,
                    extra_keys=frozenset()) -> None:
    _typed(spec, dict, "agent spec", where)
    _check_keys(spec, {"id", "depth", "tie_break", "initial_weights", "weights"} | set(extra_keys), where)
    depth = _require(spec, "depth", where)
    _typed(depth, int, "depth", where)
    if depth < 1:
        raise ConfigError(f"{where}: depth must be >= 1")
    if spec.get("tie_break", "first") not in ("first", "random"):
        raise ConfigError(f"{where}: tie_break must be 'first' or 'random'")
    key = "weights" if require_weights else "initial_weights"
    other = "initial_weights" if require_weights else "weights"
    if other in spec:
        raise ConfigError(f"{where}: use {key!r}, not {other!r}")
    w = spec.get(key, "zero")
    if isinstance(w, dict):
        _check_keys(w, {"path"}, f"{where}.{key}")
        path = Path(_typed(_require(w, "path", where), str, "path", where))
        if not path.is_absolute():
            path = config_dir / path
            w["path"] = str(path)
        if not path.is_file():
            raise ConfigError(f"{where}: weight snapshot not found: {path}")
    elif not isinstance(w, str):
        raise ConfigError(f"{where}: {key} must be a preset name or {{'path': ...}}")


def _validate_learner(spec: dict) -> None:
    _check_keys(
        spec,
        {"lambda", "alpha", "squash", "clipping", "update_every_n_games"},
        "learner",
    )
    lam = spec.get("lambda", 0.7)
    _typed(lam, (int, float), "lambda", "learner")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("learner.lambda must be in [0, 1]")
    alpha = spec.get("alpha", 1.0)
    if isinstance(alpha, dict):
        _check_keys(alpha, {"kind", "base", "decay_games", "floor"}, "learner.alpha")
        if alpha.get("kind", "constant") not in ("constant", "inverse"):
            raise ConfigError("learner.alpha.kind must be 'constant' or 'inverse'")
        for key in ("base", "decay_games"):
            value = _typed(alpha.get(key, 1.0), (int, float), key, "learner.alpha")
            if not value > 0:
                raise ConfigError(f"learner.alpha.{key} must be > 0")
        _typed(alpha.get("floor", 0.0), (int, float), "floor", "learner.alpha")
    elif not _typed(alpha, (int, float), "alpha", "learner") > 0:
        raise ConfigError("learner.alpha must be > 0")
    _typed(spec.get("squash", True), bool, "squash", "learner")
    clip = spec.get("clipping", "none")
    if clip not in tuple(p.value for p in ClipPolicy):
        raise ConfigError(f"learner.clipping must be one of {[p.value for p in ClipPolicy]}")
    ue = spec.get("update_every_n_games", 1)
    _typed(ue, int, "update_every_n_games", "learner")
    if ue < 1:
        raise ConfigError("learner.update_every_n_games must be >= 1")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _build_learner(spec: dict, fs) -> LearnerConfig:
    alpha = spec.get("alpha", 1.0)
    if isinstance(alpha, dict):
        schedule = AlphaSchedule(
            kind=alpha.get("kind", "constant"),
            base=float(alpha.get("base", 1.0)),
            decay_games=float(alpha.get("decay_games", 1.0)),
            floor=float(alpha.get("floor", 0.0)),
        )
    else:
        schedule = AlphaSchedule(base=float(alpha))
    squash_cfg = fs.squash_config() if spec.get("squash", True) else SquashConfig.disabled()
    return LearnerConfig(
        lambda_=float(spec.get("lambda", 0.7)),
        alpha=schedule,
        squash=squash_cfg,
        clipping=ClipPolicy(spec.get("clipping", "none")),
        update_every_n_games=spec.get("update_every_n_games", 1),
    )


def _resolve_weights(fs, spec_value):
    if isinstance(spec_value, dict):
        fs_id, weights = load_weights(spec_value["path"])
        if fs_id != fs.id:
            raise ConfigError(f"snapshot is for feature set {fs_id!r}, expected {fs.id!r}")
        return weights
    try:
        return preset_weights(fs, spec_value)
    except KeyError as e:
        raise ConfigError(str(e)) from None


def _build_agent(spec: dict, fs, default_id: str, fixed: bool):
    cls = FixedAgent if fixed else SearchAgent
    key = "weights" if fixed else "initial_weights"
    return cls(
        spec.get("id", default_id),
        fs,
        _resolve_weights(fs, spec.get(key, "zero")),
        spec["depth"],
        tie_mode=spec.get("tie_break", "first"),
    )


def _build_pool(spec: dict, fs) -> OpponentPool:
    opponents = []
    for opp in spec["opponents"]:
        if opp["type"] == "random":
            opponents.append(RandomAgent(opp["id"]))
        else:
            opponents.append(_build_agent(opp, fs, opp["id"], fixed=True))
    return OpponentPool(opponents, spec.get("matching", "uniform"))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def _echo_config(cfg: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _run_training(cfg: dict, quiet: bool) -> int:
    game = GAMES[cfg["game"]]
    fs = resolve_feature_set(cfg["game"], cfg.get("features"))
    agent = _build_agent(cfg["agent"], fs, "learner", fixed=False)
    learner = _build_learner(cfg["learner"], fs)
    out_dir = Path(cfg["out_dir"])
    seed = cfg.get("seed", 0)
    if cfg["mode"] == "train-online":
        result = train_online(
            game, agent, _build_pool(cfg["pool"], fs), learner,
            cfg["games"], seed, out_dir, snapshot_every=cfg.get("snapshot_every", 0),
        )
        if not quiet:
            print(f"trained {result.games} games vs pool; final rating "
                  f"{result.table.rating(agent.id):.1f}; artifacts in {out_dir}")
    else:
        sp = cfg.get("selfplay", {})
        result = train_selfplay(
            game, agent, learner, cfg["games"], seed, out_dir,
            record_both=sp.get("record_both", False),
            opening_plies=sp.get("opening_plies", 0),
            opening_epsilon=float(sp.get("opening_epsilon", 0.0)),
            snapshot_every=cfg.get("snapshot_every", 0),
        )
        if not quiet:
            print(f"self-played {result.games} games; artifacts in {out_dir}")
    return 0


def _run_head_to_head(cfg: dict, quiet: bool) -> int:
    game = GAMES[cfg["game"]]
    fs = resolve_feature_set(cfg["game"], cfg.get("features"))
    a = _build_agent(cfg["agents"][0], fs, "a", fixed=True)
    b = _build_agent(cfg["agents"][1], fs, "b", fixed=True)
    if a.id == b.id:
        b = _build_agent({**cfg["agents"][1], "id": b.id + "-2"}, fs, "b", fixed=True)
    score, tally = head_to_head(game, a, b, cfg["games"], cfg.get("seed", 0))
    out_dir = Path(cfg["out_dir"])
    report = {
        "agent_a": a.id,
        "agent_b": b.id,
        "games": cfg["games"],
        "score_a": score,
        **tally,
    }
    (out_dir / "result.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if not quiet:
        print(f"{a.id} vs {b.id}: score {score:.4f} over {cfg['games']} games "
              f"(+{tally['wins']} ={tally['draws']} -{tally['losses']})")
    return 0


def _run_replay(cfg: dict, quiet: bool) -> int:
    run_dir = Path(cfg["run_dir"])
    run_cfg = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    if run_cfg.get("mode") not in ("train-online", "train-selfplay"):
        raise ConfigError(f"run_dir holds a {run_cfg.get('mode')!r} run; nothing to replay")
    game = GAMES[run_cfg["game"]]
    fs = resolve_feature_set(run_cfg["game"], run_cfg.get("features"))
    learner = _build_learner(run_cfg["learner"], fs)
    fs_id, initial = load_weights(run_dir / "weights_000000.snapshot")
    _, final = load_weights(run_dir / "weights_final.snapshot")
    report = replay_traces(
        game, fs, learner, initial, (run_dir / "traces.log").read_text(encoding="ascii")
    )
    weights_match = bool(np.array_equal(report.weights.values, final.values))
    ok = report.ok and weights_match
    out_dir = Path(cfg["out_dir"])
    (out_dir / "replay.json").write_text(
        json.dumps(
            {
                "run_dir": str(run_dir),
                "games_replayed": report.games,
                "step_values_match": report.ok,
                "final_weights_match": weights_match,
                "mismatches": report.mismatches[:20],
            },
            indent=2, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    if ok:
        print(f"PASS: replayed {report.games} games; recomputed weights match "
              f"weights_final.snapshot")
        return 0
    print(f"FAIL: replay diverged ({len(report.mismatches)} step mismatches; "
          f"final weights match: {weights_match})", file=sys.stderr)
    return 1


def _run_verify_figures(cfg: dict, quiet: bool) -> int:
    trials = cfg.get("trials", 200)
    seed = cfg.get("seed", 0)
    checks = []

    unique = SyntheticTreeGame(UNIQUE_PV_TREE)
    root = unique.initial_state()
    depth = unique.max_depth()
    expected = {"unique": ("L",), "tied": ("H", "L")}
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
             res.value == 4.0 and tied.label(res.leaf) in expected["tied"]))

    seen = set()
    for t in range(trials):
        res = minimax(tied, troot, depth, tied.evaluator,
                      TieBreakPolicy.uniform_random(seed + t))
        if res.value != 4.0:
            seen = set()
            break
        seen.add(tied.label(res.leaf))
    checks.append(
        (f"tied-pv tree: random tie-breaking reaches both H and L within {trials} trials",
         seen == {"H", "L"}))

    out_dir = Path(cfg["out_dir"])
    (out_dir / "verify.json").write_text(
        json.dumps({name: bool(ok) for name, ok in checks}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return 1 if failed else 0


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

    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        out_dir = Path(cfg["out_dir"])
        _echo_config(cfg, out_dir)
        mode = cfg["mode"]
        if mode in ("train-online", "train-selfplay"):
            return _run_training(cfg, args.quiet)
        if mode == "head-to-head":
            return _run_head_to_head(cfg, args.quiet)
        if mode == "replay":
            return _run_replay(cfg, args.quiet)
        return _run_verify_figures(cfg, args.quiet)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - map any runtime fault to exit 1
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
