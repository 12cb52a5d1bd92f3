"""One benchmark run of one tdsearch workload, in a fresh interpreter.

    python3 bench/worker.py SPEC.json

run.py writes SPEC and starts this process with BLAS threads pinned to 1
and src/ on PYTHONPATH.  The last line of stdout is a JSON report.

An episode is one complete `tdsearch --config` run of a generated copy of
the workload's config in which only games, seed and out_dir differ.  Games
are played in a closed loop: one process, one game at a time.  Every run
also checks the program's output:

- golden: an untimed episode at the config's own (recorded) seed whose
  per-game digests must equal the ones stored in expected.json;
- replay: every training episode is replayed with `mode: replay`, which
  must reproduce every step value and the final weights;
- repeat: an episode run twice with one seed must write identical bytes.

A game whose output fails a check is counted as failed, never dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tdsearch.arena as arena
import tdsearch.cli as cli
import tdsearch.evaluation as evaluation
from tdsearch.games import GAMES

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 7        # set-up is the median of this many fresh interpreters
REPLAY_SHARE = 0.15     # replay time per episode, as a share of its play time
MATCH_REPLAY_GAMES = 6  # recorded-seed games a match replay plays again
SELF_SUM_BOUND = 0.02   # traced self times must sum to the traced wall within this


def episode_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


# Rounds per second of reference_round at the reference speed.  Any fixed
# value works: the parent and a change are scaled by the same constant.
REFERENCE_RATE = 10000.0
SPEED_SAMPLE_S = 0.1


def reference_round(k: int) -> int:
    """A fixed mix of the interpreter work tdsearch does, with none of its code:
    calls, tuples, dict stores, integer bit tricks, small strings, a sort."""
    seen = {}
    acc = 0
    for i in range(100):
        bits = (i * 2654435761 + k) & 0xFFFFFFFF
        seen[(i, k & 7)] = bits
        acc += (bits & (bits >> 7)).bit_count()
        acc += len(("." * (i % 5) + "P").replace(".", ""))
    return acc + len(sorted(seen.values()))


def host_speed() -> float:
    """The host's current speed relative to the reference.

    On a VM that shares its host, speed drifts by 20-30% over tens of
    seconds as other tenants load the host.  Work that does not change
    between commits, timed for SPEED_SAMPLE_S, slows down with it; a time
    measured at speed v is multiplied by v to read as if measured at the
    reference speed.
    """
    n = 0
    t0 = time.perf_counter()
    end = t0 + SPEED_SAMPLE_S
    while (now := time.perf_counter()) < end:
        reference_round(n)
        n += 1
    return n / (now - t0) / REFERENCE_RATE


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def environment() -> dict:
    """What the stored digests and the timings depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0))}


class GameClock:
    """One timer per game, around arena.play_game; also keeps a match record."""

    def __init__(self):
        self.times = []
        self.records = []
        play_game = arena.play_game

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            rec = play_game(*args, **kwargs)
            self.times.append(time.perf_counter() - t0)
            nodes = " ".join(str(n) for n in rec.nodes.values())
            self.records.append(f"{rec.white_id} {rec.black_id} {rec.outcome.reward!r} "
                                f"{rec.moves} {nodes}")
            return rec

        arena.play_game = timed


@dataclass
class Episode:
    name: str
    seed: int
    games: int
    out_dir: Path
    wall: float      # seconds inside the tdsearch command
    times: list      # seconds per game
    records: list    # per-game match records


@dataclass
class Slot:
    """One episode of a timed run with what was interleaved with it."""
    setup: float | None       # set-up probe taken before the episode, if one was due
    ep: Episode | None = None
    replayed: int = 0         # games replayed after the episode
    replay_wall: float = 0.0


class Bench:
    def __init__(self, spec: dict):
        self.spec = spec
        self.tmp = Path(spec["tmp"])
        self.base = spec["config"]
        self.training = self.base["mode"] != "head-to-head"
        self.env = environment()
        self.clock = GameClock()
        self.tracer = None
        self.recorded = None  # (episode, digests) of the recorded-seed episode
        self.attempted = 0
        self.wrong = set()   # (episode name, game index)
        self.notes = []      # failed checks, one line each
        self.episodes_run = 0
        self.probe_config = self.tmp / "probe.json"
        self.probe_config.write_text(json.dumps(
            {**self.base, "games": spec["episode_games"], "out_dir": str(self.tmp / "probe")}),
            encoding="utf-8")

    # -- running the program ----------------------------------------------

    def _cli(self, cfg: dict, name: str) -> tuple:
        path = self.tmp / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(["--config", str(path), "--quiet"])
            return rc, time.perf_counter() - t0

    def episode(self, seed: int, games: int) -> Episode:
        self.episodes_run += 1
        name = f"ep{self.episodes_run:04d}"
        out_dir = self.tmp / name
        if self.tracer:
            self.tracer.phase = "play"
        start = len(self.clock.times)
        rc, wall = self._cli({**self.base, "games": games, "seed": seed,
                              "out_dir": str(out_dir)}, name)
        ep = Episode(name, seed, games, out_dir, wall,
                     self.clock.times[start:], self.clock.records[start:])
        self.attempted += games
        if rc != 0:
            self.fail(ep, range(games), f"tdsearch exited with {rc}")
        return ep

    def replay(self, ep: Episode) -> tuple:
        """Reproduce an episode from its inputs; returns (games, wall seconds).

        Training: `mode: replay` over the run directory must recompute every
        step value and the final weights.  A match writes no trace log, but
        each of its games is a function of (seed, game index), so its replay
        plays the first games of the recorded-seed episode again; they are
        the same few games in every run, and they must repeat exactly.
        """
        if not self.training:
            ref, ref_digests = self.recorded
            n = min(ref.games, MATCH_REPLAY_GAMES)
            again = self.episode(ref.seed, n)
            self.compare(again, {"games": self.digests(again)["games"]},
                         {"games": ref_digests["games"][:n]},
                         "re-play of the recorded-seed games differs")
            return n, again.wall
        if self.tracer:
            self.tracer.phase = "replay"
        rc, wall = self._cli({"mode": "replay", "run_dir": str(ep.out_dir),
                              "out_dir": str(ep.out_dir) + "-replay"}, ep.name + "-replay")
        if rc != 0:
            self.fail(ep, range(ep.games), "replay did not reproduce the run")
        return ep.games, wall

    def repeat(self, ep: Episode) -> None:
        """Run an episode's seed again: every artifact must repeat byte for byte."""
        again = self.episode(ep.seed, ep.games)
        self.compare(again, self.digests(again), self.digests(ep),
                     f"second run of {ep.name}'s seed differs")

    def probe(self) -> dict:
        """Time a fresh `tdsearch` process from its start to its first game."""
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(self.probe_config)],
                              capture_output=True, text=True, timeout=60, check=True)
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        return {"setup_s": r["ready"] - t0, "import_ms": r["import_ms"],
                "load_config_ms": r["load_config_ms"]}

    # -- output checks --------------------------------------------------------

    def fail(self, ep: Episode, games, why: str) -> None:
        games = {(ep.name, g) for g in games}
        self.wrong |= games
        note = f"{ep.name} seed {ep.seed}: {why} ({len(games)} games)"
        if note not in self.notes:
            self.notes.append(note)

    def digests(self, ep: Episode) -> dict:
        """Per-game digests and whole-file digests of an episode's artifacts.

        Training: a game's digest covers its ratings.csv row and its
        traces.log block(s).  Match: it covers the game's record (seats,
        outcome, moves, nodes), since result.json only holds the tally.
        config.json is left out: it names the episode's own out_dir.
        """
        files = {p.name: sha(p.read_text(encoding="ascii"))
                 for p in sorted(ep.out_dir.glob("*")) if p.name != "config.json"}
        if not self.training:
            return {"games": [sha(r) for r in ep.records], "files": files}
        rows = {}
        blocks = {}
        if "ratings.csv" in files and "traces.log" in files:
            for row in (ep.out_dir / "ratings.csv").read_text(encoding="ascii").splitlines()[1:]:
                rows[int(row.split(",", 1)[0])] = row
            game = None
            for line in (ep.out_dir / "traces.log").read_text(encoding="ascii").splitlines():
                if line.startswith("game "):
                    game = int(line.split()[1])
                blocks.setdefault(game, []).append(line)
        games = [sha("\n".join([rows.get(i, "")] + blocks.get(i, [])))
                 for i in range(ep.games)]
        return {"games": games, "files": files}

    def compare(self, ep: Episode, got: dict, want: dict, why: str) -> None:
        have, need = got["games"], want["games"]
        bad = [i for i in range(ep.games)
               if i >= len(have) or i >= len(need) or have[i] != need[i]]
        if not bad and got.get("files") != want.get("files"):
            bad = range(ep.games)
        if bad:
            self.fail(ep, bad, why)

    def golden(self) -> dict:
        """Untimed episode at the recorded seed, checked against stored digests."""
        s = self.spec
        ep = self.episode(self.base["seed"], s["golden_games"])
        if self.training:
            self.replay(ep)
        got = self.digests(ep)
        self.recorded = ep, got
        want = s.get("expected")
        if want is None:
            self.notes.append("no stored digests for this workload")
        elif want["env"]["cpu_model"] != self.env["cpu_model"]:
            # np.dot goes to OpenBLAS ddot, whose kernel is picked per CPU, so
            # the last bit of a weight may legitimately differ on another CPU.
            if got["games"] != want["games"] or got["files"] != want["files"]:
                self.notes.append(
                    f"golden digests differ, but were recorded on {want['env']['cpu_model']!r} "
                    f"and this is {self.env['cpu_model']!r}; not counted as wrong games")
        else:
            self.compare(ep, got, want, "differs from the stored digests")
        return got

    # -- runs ---------------------------------------------------------------

    def run_timed(self) -> dict:
        """Play distinct episodes until the time is up, replaying each as it ends.

        Set-up probes and replays are interleaved with the games.  The host
        speed is sampled between episodes, and everything timed between two
        samples is scaled by their mean (see host_speed).  An untimed second
        run of the first episode's seed must then write the same bytes.
        """
        s = self.spec
        self.golden()
        speeds = [host_speed()]   # one before each episode, one after the last
        slots = []
        t0 = time.perf_counter()
        while not slots or time.perf_counter() - t0 < s["seconds"]:
            slot = Slot(setup=None)
            if time.perf_counter() - t0 >= sum(x.setup is not None for x in slots) \
                    * s["seconds"] / SETUP_PROBES:
                slot.setup = self.probe()["setup_s"]
            slot.ep = self.episode(episode_seed(s["seed"], len(slots)), s["episode_games"])
            while slot.replay_wall == 0.0 or slot.replay_wall < REPLAY_SHARE * slot.ep.wall:
                n, wall = self.replay(slot.ep)
                slot.replayed += n
                slot.replay_wall += wall
            slots.append(slot)
            speeds.append(host_speed())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        setup, times = [], []
        play = replay = 0.0   # seconds at the reference speed
        for slot, a, b in zip(slots, speeds, speeds[1:]):
            v = (a + b) / 2
            if slot.setup is not None:
                setup.append(slot.setup * v)
            play += slot.ep.wall * v
            replay += slot.replay_wall * v
            times += [t * v for t in slot.ep.times]
        while len(setup) < SETUP_PROBES:
            setup.append(self.probe()["setup_s"] * host_speed())
        self.repeat(slots[0].ep)
        games = sum(x.ep.games for x in slots)
        replayed = sum(x.replayed for x in slots)
        metrics = {
            "setup_s": statistics.median(setup),
            "games_per_s": games / play,
            "game_ms_p50": statistics.median(times) * 1e3,
            "game_ms_p90": statistics.quantiles(times, n=10)[-1] * 1e3,
            "replay_games_per_s": replayed / replay,
            "peak_rss_mb": peak_rss_mb,
        }
        return self.report(metrics, {
            "game_samples": len(times), "replayed_games": replayed,
            "setup_samples": len(setup), "host_speed_mean": statistics.fmean(speeds),
            "unscaled_games_per_s": games / sum(x.ep.wall for x in slots)})

    def plan_pass(self) -> dict:
        """The fixed traced-run plan: play each episode, then replay it.

        "speed" is the mean host speed sampled around the episodes; the
        pass's times are scaled by it.
        """
        s = self.spec
        out = {"episodes": [], "play_wall": 0.0, "replay_wall": 0.0, "games": 0}
        speeds = [host_speed()]
        for k in range(s["trace_episodes"]):
            ep = self.episode(episode_seed(s["seed"], k), s["episode_games"])
            out["episodes"].append(ep)
            out["play_wall"] += ep.wall
            out["games"] += ep.games
            if self.training:
                out["replay_wall"] += self.replay(ep)[1]
            speeds.append(host_speed())
        out["speed"] = statistics.fmean(speeds)
        return out

    def run_traced(self) -> dict:
        """One untraced and two traced passes of a fixed plan, so counts repeat."""
        self.golden()
        probes = []
        for _ in range(SETUP_PROBES):
            speed = host_speed()
            probes.append({k: v * speed for k, v in self.probe().items()})
        plain = self.plan_pass()
        tracer = self.tracer = Tracer()
        tracer.install(cli, arena, evaluation, GAMES[self.base["game"]])
        passes = []
        for _ in range(2):
            tracer.reset()
            p = self.plan_pass()
            p["stats"] = dict(tracer.stats)
            p["counts"] = tracer.counts()
            p["search_ns"] = list(tracer.search_ns)
            passes.append(p)
            for ep, ref in zip(p["episodes"], plain["episodes"]):
                self.compare(ep, self.digests(ep), self.digests(ref),
                             f"traced run of {ref.name}'s seed differs")
        selftest = []
        if passes[0]["counts"] != passes[1]["counts"]:
            diff = sorted(k for k in passes[0]["counts"]
                          if passes[0]["counts"][k] != passes[1]["counts"].get(k))
            selftest.append(f"per-layer counts differ between two traced runs: {diff}")
        metrics, detail = layer_metrics(passes, plain)
        metrics["cli.import_ms"] = statistics.median(p["import_ms"] for p in probes)
        metrics["cli.load_config_ms"] = statistics.median(p["load_config_ms"] for p in probes)
        if abs(detail["self_sum_frac"] - 1.0) > SELF_SUM_BOUND:
            selftest.append(f"layer self times sum to {detail['self_sum_frac']:.4f} "
                            f"of the traced wall time (bound {SELF_SUM_BOUND})")
        if any(v < 0 for k, v in metrics.items() if k.endswith("self_ms")):
            selftest.append("a negative self time")
        self.notes.extend(selftest)
        return self.report(metrics, detail, selftest_ok=not selftest)

    def report(self, metrics: dict, detail: dict, selftest_ok: bool = True) -> dict:
        return {"correct": not self.wrong and selftest_ok, "attempted": self.attempted,
                "failed": len(self.wrong), "metrics": metrics, "detail": detail,
                "notes": self.notes, "env": self.env}


def layer_metrics(passes: list, plain: dict) -> tuple:
    """Per-layer metrics from two traced passes of one plan.

    Counts come from the first pass (the self-test checks that the second
    repeats them).  Times are the mean of the two passes, in ms per game of
    the phase the layer works in: per played game, or per replayed game.
    """
    first = passes[0]
    games = first["games"]
    leaves = first["counts"]["leaf_nodes"]

    def stat(phase, name, i):
        """Mean over the passes of a time column, scaled to the reference speed."""
        return statistics.fmean(p["stats"].get((phase, name), [0, 0, 0])[i] * p["speed"]
                                for p in passes)

    def calls(name, phase="play"):
        return first["stats"].get((phase, name), [0, 0, 0])[0]

    def self_ms(name, phase="play"):
        return stat(phase, name, 2) / 1e6 / games

    search_ms = sorted(ns / 1e6 * p["speed"] for p in passes for ns in p["search_ns"])
    search_s = stat("play", "search", 1) / 1e9
    traced_wall = statistics.fmean((p["play_wall"] + p["replay_wall"]) * p["speed"]
                                   for p in passes)
    plain_wall = (plain["play_wall"] + plain["replay_wall"]) * plain["speed"]
    m = {}
    for name in ("games.legal_actions", "games.is_terminal", "games.apply",
                 "games.apply_trusted", "evaluation.extract", "learner.tdleaf_delta"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
    m["games.outcome.calls"] = calls("games.outcome")
    m["games.legal_per_leaf"] = calls("games.legal_actions") / max(leaves, 1)
    m["evaluation.evaluator.self_ms"] = self_ms("evaluation.evaluator")
    m["search.calls"] = calls("search")
    m["search.self_ms"] = self_ms("search")
    m["search.leaf_nodes"] = leaves
    m["search.leaf_nodes_per_s"] = leaves / search_s if search_s else 0.0
    m["search.ms_p50"] = statistics.median(search_ms) if search_ms else 0.0
    m["search.ms_p99"] = statistics.quantiles(search_ms, n=100)[-1] if len(search_ms) > 1 else 0.0
    m["learner.trace_to_log.self_ms"] = self_ms("learner.trace_to_log")
    m["learner.trace_bytes"] = first["counts"]["trace_bytes"]
    m["arena.self_ms"] = self_ms("arena")
    # Replay-phase layers, per replayed game: every played game is replayed
    # once in a training plan; a match plan has no replay phase (all zero).
    for name in ("learner.traces_from_log", "arena.replay_traces"):
        m[f"{name}.self_ms"] = self_ms(name, "replay")
    for name in ("games.apply", "games.is_terminal", "evaluation.extract"):
        m[f"replay.{name}.self_ms"] = self_ms(name, "replay")
    m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    stats = sorted(first["stats"].items(), key=lambda kv: -kv[1][2])
    self_ns = sum(s[2] for _, s in stats)
    detail = {"traced_games": games, "search_samples": len(search_ms),
              "self_sum_frac": self_ns / 1e9 / (first["play_wall"] + first["replay_wall"]),
              "self_time_share": {f"{ph}:{n}": s[2] / self_ns for (ph, n), s in stats},
              "stats": {f"{ph}:{n}": s for (ph, n), s in stats}}
    return m, detail


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    bench = Bench(spec)
    if spec.get("record"):
        report = {"digests": {**bench.golden(), "env": bench.env},
                  "correct": not bench.wrong, "notes": bench.notes}
    elif spec["trace"]:
        report = bench.run_traced()
    else:
        report = bench.run_timed()
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])
