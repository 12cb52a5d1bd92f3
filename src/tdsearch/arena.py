"""Rated match play: agents, Elo bookkeeping, training loops, replay.

Runs are deterministic functions of (config, seed): every game draws its
randomness from a generator seeded by (run_seed, game_index), agents get
per-move tie-break seeds from that stream, and artifacts are written with
fixed formatting, so repeating a run reproduces ratings.csv and every
weight snapshot byte for byte.

A run directory contains config.json (written by the CLI), ratings.csv,
traces.log, weights_000000.snapshot (the starting weights), periodic
weights_NNNNNN.snapshot files, and weights_final.snapshot.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tdsearch.evaluation import (
    FeatureSet,
    SquashConfig,
    WeightVector,
    features_white,
    linear_evaluator,
    raw_eval,
    squash,
    weights_to_text,
)
from tdsearch.games.base import IllegalMoveError, Outcome, Side
from tdsearch.learner import (
    GameTrace,
    LearnerConfig,
    StepRecord,
    tdleaf_delta,
    trace_to_log,
    traces_from_log,
)
from tdsearch.search import FIRST_FOUND, MATE_SCORE, TieBreakPolicy, alphabeta

INITIAL_RATING = 1500.0
K_FACTOR = 32.0


@dataclass
class RatingTable:
    """Elo ratings, K=32, everyone starts at 1500."""

    k_factor: float = K_FACTOR
    ratings: dict = field(default_factory=dict)

    def register(self, agent_id: str, rating: float = INITIAL_RATING) -> None:
        self.ratings.setdefault(agent_id, rating)

    def rating(self, agent_id: str) -> float:
        return self.ratings[agent_id]


def expected_score(rating: float, opponent_rating: float) -> float:
    return 1.0 / (1.0 + 10.0 ** ((opponent_rating - rating) / 400.0))


def elo_update(table: RatingTable, white_id: str, black_id: str, score_white: float) -> RatingTable:
    """Apply one game; the two deltas are one number, so the update is zero-sum."""
    rw, rb = table.ratings[white_id], table.ratings[black_id]
    delta = table.k_factor * (score_white - expected_score(rw, rb))
    table.ratings[white_id] = rw + delta
    table.ratings[black_id] = rb - delta
    return table


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------


def _check_id(agent_id: str) -> str:
    if not agent_id or any(ch.isspace() for ch in agent_id):
        raise ValueError(f"agent id must be non-empty without spaces: {agent_id!r}")
    return agent_id


class RandomAgent:
    """Plays uniformly random legal moves."""

    def __init__(self, agent_id: str = "random"):
        self.id = _check_id(agent_id)

    def select_move(self, game, state, rng):
        actions = game.legal_actions(state)
        return actions[int(rng.integers(len(actions)))], None


class SearchAgent:
    """Plays the first move of a fixed-depth alpha-beta principal variation.

    tie_mode "random" draws a fresh tie-break seed per move from the game's
    generator, so tied PVs vary between games while staying reproducible.
    """

    def __init__(self, agent_id: str, fs: FeatureSet, weights: WeightVector,
                 depth: int, tie_mode: str = "first"):
        if depth < 1:
            raise ValueError("a playing agent needs depth >= 1")
        if tie_mode not in ("first", "random"):
            raise ValueError(f"bad tie_mode {tie_mode!r}")
        self.id = _check_id(agent_id)
        self.fs = fs
        self.weights = weights
        self.depth = depth
        self.tie_mode = tie_mode

    def select_move(self, game, state, rng):
        if self.tie_mode == "random":
            tie = TieBreakPolicy.uniform_random(int(rng.integers(2**63)))
        else:
            tie = FIRST_FOUND
        result = alphabeta(
            game, state, self.depth, linear_evaluator(self.fs, self.weights), tie
        )
        return result.pv[0], result


class FixedAgent(SearchAgent):
    """A SearchAgent whose weights are frozen copies; training never touches them."""

    def __init__(self, agent_id, fs, weights, depth, tie_mode="first"):
        frozen = WeightVector(weights.values.copy(), weights.anchors)
        super().__init__(agent_id, fs, frozen, depth, tie_mode)
        object.__setattr__(self, "_sealed", True)

    def __setattr__(self, name, value):
        if getattr(self, "_sealed", False) and name == "weights":
            raise AttributeError("FixedAgent weights are frozen")
        super().__setattr__(name, value)


# ---------------------------------------------------------------------------
# Playing one game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchRecord:
    white_id: str
    black_id: str
    outcome: Outcome
    traces: dict          # Side -> GameTrace for each recorded seat
    moves: int
    nodes: dict           # Side -> leaf scorings spent by that seat
    fault: Side | None    # seat that played an illegal move, if any


def play_game(game, white, black, *, record_sides=(), squash_cfg: SquashConfig | None = None,
              rng=None, rating_lower=None, start=None,
              opening_plies: int = 0, opening_epsilon: float = 0.0) -> MatchRecord:
    """Play one game; optionally record learner traces for given seats.

    For the first opening_plies plies, a uniformly random move replaces the
    seat's normal choice with probability opening_epsilon (no trace step is
    recorded for a substituted move).  An illegal move aborts the game and
    scores it as a loss for the offender.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    rating_lower = rating_lower or {}
    record_sides = tuple(record_sides)
    state = game.initial_state() if start is None else start
    steps = {side: [] for side in record_sides}
    expected_reply = {side: None for side in record_sides}
    nodes = {Side.WHITE: 0, Side.BLACK: 0}
    moves = 0
    fault = None
    last_mover = None
    outcome = None

    while not game.is_terminal(state):
        side = state.side_to_move
        mover = white if side is Side.WHITE else black
        action = None
        result = None
        if moves < opening_plies and opening_epsilon > 0.0 and rng.random() < opening_epsilon:
            actions = game.legal_actions(state)
            action = actions[int(rng.integers(len(actions)))]
        else:
            action, result = mover.select_move(game, state, rng)
        # Resolve the other seat's pending prediction against this reply.
        opp = side.opponent
        if opp in expected_reply and steps[opp]:
            pred = expected_reply[opp]
            if pred is not None:
                steps[opp][-1] = _set_predicted(steps[opp][-1], action == pred)
                expected_reply[opp] = None
        if result is not None:
            nodes[side] += result.nodes
            if side in expected_reply:
                steps[side].append(_make_step(game, mover.fs, state, result, squash_cfg,
                                              rating_lower.get(side, False)))
                expected_reply[side] = result.pv[1] if len(result.pv) > 1 else None
        try:
            state = game.apply(state, action)
        except IllegalMoveError:
            fault = side
            outcome = Outcome(float(side.opponent.sign))
            break
        moves += 1
        last_mover = side

    if outcome is None:
        outcome = game.outcome(state)
    # The agent's own move ended the game: its prediction is vacuously true.
    if last_mover in expected_reply and fault is None and steps[last_mover]:
        steps[last_mover][-1] = _set_predicted(steps[last_mover][-1], True)

    traces = {
        side: GameTrace(side, tuple(steps[side]), outcome) for side in record_sides
    }
    wid = white.id if hasattr(white, "id") else "white"
    bid = black.id if hasattr(black, "id") else "black"
    return MatchRecord(wid, bid, outcome, traces, moves, nodes, fault)


def _set_predicted(step: StepRecord, value: bool) -> StepRecord:
    from dataclasses import replace

    return replace(step, opponent_move_predicted=value)


def _make_step(game, fs, root, result, squash_cfg, lower: bool) -> StepRecord:
    leaf = result.leaf
    raw_white = result.value * root.side_to_move.sign
    if game.is_terminal(leaf):
        phi = np.zeros(fs.k)
    else:
        phi = features_white(fs, leaf)
    return StepRecord(
        root=root,
        leaf=leaf,
        pv=result.pv,
        leaf_features=phi,
        value=squash(raw_white, squash_cfg),
        raw_value=raw_white,
        opponent_move_predicted=False,
        opponent_rating_lower=lower,
    )


# ---------------------------------------------------------------------------
# Opponent pools
# ---------------------------------------------------------------------------


@dataclass
class OpponentPool:
    opponents: list
    matching: str = "uniform"  # "uniform" | "nearest"

    def __post_init__(self):
        if self.matching not in ("uniform", "nearest"):
            raise ValueError(f"bad matching {self.matching!r}")
        if not self.opponents:
            raise ValueError("pool needs at least one opponent")
        ids = [o.id for o in self.opponents]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate opponent ids in {ids}")

    def pick(self, table: RatingTable, agent_id: str, rng):
        if self.matching == "uniform":
            return self.opponents[int(rng.integers(len(self.opponents)))]
        r = table.rating(agent_id)
        return min(self.opponents, key=lambda o: abs(table.rating(o.id) - r))


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "game_index", "opponent_id", "color", "outcome", "agent_rating",
    "opponent_rating", "moves", "nodes_searched", "weight_snapshot_hash",
)

_G = "{:.17g}".format


def game_rng(seed: int, game_index: int):
    return np.random.default_rng(np.random.SeedSequence((seed, game_index)))


def weights_hash(fs: FeatureSet, weights: WeightVector) -> str:
    return hashlib.sha256(weights_to_text(fs, weights).encode()).hexdigest()[:12]


@dataclass
class RunResult:
    out_dir: Path
    weights: WeightVector
    table: RatingTable
    games: int


class _RunWriter:
    """Streams ratings.csv, traces.log and snapshots for a training run.

    A context manager: leaving it closes both streams, also when the run
    raises, so every finished game's row reaches disk.  weights_final.snapshot
    is written last and renamed into place whole, so it exists only once a
    run has completed.
    """

    def __init__(self, out_dir, fs: FeatureSet, weights: WeightVector, snapshot_every: int):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._final = self.out_dir / "weights_final.snapshot"
        self._final.unlink(missing_ok=True)  # left by an earlier run in this directory
        self.fs = fs
        self.snapshot_every = snapshot_every
        self._csv_fh = open(self.out_dir / "ratings.csv", "w", newline="", encoding="ascii")
        self._csv = csv.writer(self._csv_fh, lineterminator="\n")
        self._csv.writerow(CSV_COLUMNS)
        self._log_fh = open(self.out_dir / "traces.log", "w", encoding="ascii")
        self.snapshot(weights, 0)

    def snapshot(self, weights: WeightVector, game_count: int) -> None:
        path = self.out_dir / f"weights_{game_count:06d}.snapshot"
        path.write_text(weights_to_text(self.fs, weights), encoding="ascii")

    def row(self, game_index, opponent_id, color, outcome_for_agent, agent_rating,
            opponent_rating, moves, nodes, weights) -> None:
        self._csv.writerow(
            [
                game_index,
                opponent_id,
                color,
                _G(outcome_for_agent),
                _G(agent_rating),
                _G(opponent_rating),
                moves,
                nodes,
                weights_hash(self.fs, weights),
            ]
        )

    def trace(self, game, trace: GameTrace, game_index: int, opponent_id: str) -> None:
        self._log_fh.write(trace_to_log(game, trace, game_index, opponent_id))

    def maybe_periodic(self, weights: WeightVector, games_done: int) -> None:
        if self.snapshot_every and games_done % self.snapshot_every == 0:
            self.snapshot(weights, games_done)

    def __enter__(self) -> "_RunWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._csv_fh.close()
        self._log_fh.close()

    def finish(self, weights: WeightVector) -> None:
        self._csv_fh.flush()
        self._log_fh.flush()
        tmp = self._final.with_name(self._final.name + ".tmp")
        tmp.write_text(weights_to_text(self.fs, weights), encoding="ascii")
        os.replace(tmp, self._final)


def train_online(game, agent: SearchAgent, pool: OpponentPool, cfg: LearnerConfig,
                 n_games: int, seed: int, out_dir, snapshot_every: int = 0) -> RunResult:
    """Learn from rated games against a pool of fixed opponents.

    The learning agent alternates colors; opponents are matched per the
    pool's policy; weights update every cfg.update_every_n_games games with
    deltas computed against the weights those games were played with.
    """
    table = RatingTable()
    table.register(agent.id)
    for opp in pool.opponents:
        table.register(opp.id)
    with _RunWriter(out_dir, agent.fs, agent.weights, snapshot_every) as writer:
        acc = np.zeros(agent.fs.k)
        for i in range(n_games):
            rng = game_rng(seed, i)
            opp = pool.pick(table, agent.id, rng)
            agent_side = Side.WHITE if i % 2 == 0 else Side.BLACK
            white, black = (agent, opp) if agent_side is Side.WHITE else (opp, agent)
            lower = table.rating(opp.id) < table.rating(agent.id)
            rec = play_game(
                game, white, black,
                record_sides=(agent_side,), squash_cfg=cfg.squash, rng=rng,
                rating_lower={agent_side: lower},
            )
            trace = rec.traces[agent_side]
            acc += tdleaf_delta(trace, cfg, agent.weights, game_index=i)
            if (i + 1) % cfg.update_every_n_games == 0 or i + 1 == n_games:
                agent.weights = agent.weights.with_values(agent.weights.values + acc)
                acc = np.zeros(agent.fs.k)
            score_white = (rec.outcome.reward + 1.0) / 2.0
            elo_update(table, rec.white_id, rec.black_id, score_white)
            writer.row(
                i, opp.id, "white" if agent_side is Side.WHITE else "black",
                rec.outcome.for_side(agent_side),
                table.rating(agent.id), table.rating(opp.id),
                rec.moves, rec.nodes[agent_side], agent.weights,
            )
            writer.trace(game, trace, i, opp.id)
            writer.maybe_periodic(agent.weights, i + 1)
        writer.finish(agent.weights)
    return RunResult(Path(out_dir), agent.weights, table, n_games)


def train_selfplay(game, agent: SearchAgent, cfg: LearnerConfig, n_games: int,
                   seed: int, out_dir, record_both: bool = False,
                   opening_plies: int = 0, opening_epsilon: float = 0.0,
                   snapshot_every: int = 0) -> RunResult:
    """Learn by playing both seats of every game.

    The White seat's trace is recorded by default (record_both adds the
    Black seat, applied after White's within the same batch).  Without an
    exploration source, identical weights play identical games; exploration
    comes from random PV tie-breaking and the optional epsilon-random
    opening plies.  Ratings are not meaningful against oneself and stay at
    the initial value in the CSV.
    """
    table = RatingTable()
    table.register(agent.id)
    sides = (Side.WHITE, Side.BLACK) if record_both else (Side.WHITE,)
    with _RunWriter(out_dir, agent.fs, agent.weights, snapshot_every) as writer:
        acc = np.zeros(agent.fs.k)
        for i in range(n_games):
            rng = game_rng(seed, i)
            rec = play_game(
                game, agent, agent,
                record_sides=sides, squash_cfg=cfg.squash, rng=rng,
                opening_plies=opening_plies, opening_epsilon=opening_epsilon,
            )
            for side in sides:
                acc += tdleaf_delta(rec.traces[side], cfg, agent.weights, game_index=i)
            if (i + 1) % cfg.update_every_n_games == 0 or i + 1 == n_games:
                agent.weights = agent.weights.with_values(agent.weights.values + acc)
                acc = np.zeros(agent.fs.k)
            writer.row(
                i, agent.id, "white", rec.outcome.reward,
                table.rating(agent.id), table.rating(agent.id),
                rec.moves, rec.nodes[Side.WHITE] + rec.nodes[Side.BLACK], agent.weights,
            )
            for side in sides:
                writer.trace(game, rec.traces[side], i, agent.id)
            writer.maybe_periodic(agent.weights, i + 1)
        writer.finish(agent.weights)
    return RunResult(Path(out_dir), agent.weights, table, n_games)


def head_to_head(game, agent_a, agent_b, n_games: int, seed: int):
    """Alternating-color match; returns (score for agent_a, tally dict)."""
    tally = {"wins": 0, "draws": 0, "losses": 0}
    for i in range(n_games):
        rng = game_rng(seed, i)
        a_white = i % 2 == 0
        white, black = (agent_a, agent_b) if a_white else (agent_b, agent_a)
        rec = play_game(game, white, black, rng=rng)
        r = rec.outcome.reward if a_white else -rec.outcome.reward
        if r > 0:
            tally["wins"] += 1
        elif r < 0:
            tally["losses"] += 1
        else:
            tally["draws"] += 1
    score = (tally["wins"] + 0.5 * tally["draws"]) / n_games
    return score, tally


# ---------------------------------------------------------------------------
# Offline replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayReport:
    ok: bool
    games: int
    weights: WeightVector
    mismatches: list


def replay_traces(game, fs: FeatureSet, cfg: LearnerConfig, initial: WeightVector,
                  traces_text: str) -> ReplayReport:
    """Recompute the weight trajectory from a trace log.

    Every step's raw and squashed values are recomputed from the replayed
    leaf and the weights current at that point of the trajectory; any
    disagreement with the logged numbers is reported.
    """
    weights = initial
    acc = np.zeros(fs.k)
    mismatches = []
    parsed = list(traces_from_log(traces_text, game, fs))
    count_by_game = {}
    for idx, _opp, _trace in parsed:
        count_by_game[idx] = count_by_game.get(idx, 0) + 1
    n_games = max(count_by_game) + 1 if count_by_game else 0
    done = set()
    for idx, _opp, trace in parsed:
        for t, step in enumerate(trace.steps):
            if game.is_terminal(step.leaf):
                expect_raw = game.outcome(step.leaf).reward * (MATE_SCORE - len(step.pv))
            else:
                expect_raw = raw_eval(step.leaf_features, weights)
            if expect_raw != step.raw_value:
                mismatches.append(f"game {idx} step {t}: raw {expect_raw!r} != logged {step.raw_value!r}")
            if squash(step.raw_value, cfg.squash) != step.value:
                mismatches.append(f"game {idx} step {t}: squashed value mismatch")
        acc += tdleaf_delta(trace, cfg, weights, game_index=idx)
        count_by_game[idx] -= 1
        if count_by_game[idx] == 0:
            done.add(idx)
            if (idx + 1) % cfg.update_every_n_games == 0 or idx + 1 == n_games:
                weights = weights.with_values(weights.values + acc)
                acc = np.zeros(fs.k)
    return ReplayReport(not mismatches, len(done), weights, mismatches)
