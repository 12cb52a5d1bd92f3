"""tdsearch benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload c4-pool --seed 1 --seconds 30 --trace 0

Run from the root of a tdsearch checkout; it needs src/, configs/ and
BENCHMARK.json there.  Metric units come from BENCHMARK.json, and a run
whose measured metric names differ from the declared ones fails.

--trace 0 times the workload with nothing traced and reports the
end-to-end metrics.  --trace 1 plays a fixed plan of games once untraced and
twice with every layer's entry points wrapped in spans (tracer.py), and
reports the per-layer metrics.  Both check the program's output (see
worker.py); a failed check prints "correct": false and exits with 1.

Everything runs in one worker process (worker.py), which times set-up by
starting fresh interpreters (probe.py) between its games.  Nothing runs
concurrently: each child is waited for, the program is single-threaded and
BLAS is pinned to 1 thread.  Temporary run directories live under .bench_tmp/
and are removed at the end; a traced run leaves its span summary in
.bench_out/.

Workload choices, the metric predictions and baseline numbers are in
NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@dataclass(frozen=True)
class Workload:
    config: str          # relative to the checkout root
    episode_games: int   # games per episode
    golden_games: int    # games of the recorded-seed episode
    trace_episodes: int  # episodes in the fixed traced plan


WORKLOADS = {
    "c4-pool": Workload("configs/c4_pool_train.json", 40, 20, 3),
    "mc-selfplay": Workload("configs/mc_material_selfplay.json", 20, 10, 3),
    "c4-match": Workload("bench/c4_match.json", 40, 20, 3),
}

WORKER_TIMEOUT_S = 170


def pinned_env() -> dict:
    """BLAS on one thread, tdsearch from src/, and no bytecode written, so
    every run imports the same way and writes nothing into src/."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "PYTHONDONTWRITEBYTECODE"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, env, timeout) -> dict:
    """Run a bench script; its last stdout line is JSON.  Raises on failure."""
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def make_spec(workload: str, tmp: Path, **run) -> dict:
    """What the worker needs for one run of a workload."""
    wl = WORKLOADS[workload]
    return {
        "config": json.loads((ROOT / wl.config).read_text(encoding="utf-8")),
        "episode_games": wl.episode_games, "golden_games": wl.golden_games,
        "trace_episodes": wl.trace_episodes, "tmp": str(tmp), **run,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    wl = WORKLOADS[args.workload]
    config_path = ROOT / wl.config
    if not (ROOT / "src" / "tdsearch" / "cli.py").is_file() or not config_path.is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} lacks src/tdsearch, {wl.config} or BENCHMARK.json",
              file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        tmp.mkdir(parents=True)
        spec = make_spec(args.workload, tmp, seed=args.seed, seconds=args.seconds,
                         trace=bool(args.trace), expected=expected.get(args.workload))
        spec_path = tmp / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        report = run_child([str(BENCH / "worker.py"), str(spec_path)], pinned_env(),
                           WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = report["metrics"]
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"metrics": metrics, **report["detail"], "env": report["env"]},
                       indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for key, value in report["detail"].items():
        if not isinstance(value, dict):
            print(f"{key} {value}")
    print(f"wrong_game_frac {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} games)")
    for note in report["notes"]:
        print(f"check: {note}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
