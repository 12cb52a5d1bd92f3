"""Rated match play: agents, Elo bookkeeping, training loops, replay.

Runs are deterministic functions of (config, seed): every game draws its
randomness from a generator seeded by (run_seed, game_index), agents get
per-move tie-break seeds from that stream, and artifacts are written with
fixed formatting, so repeating a run reproduces its ratings, trace log and
every weight snapshot byte for byte.

Online training, self-play training and replay share one learning loop,
_learn, which holds the weights and adds each game's TDLeaf(lambda)
update before the next game; replay feeds it the logged games, so it
matches training by construction.  Agents are immutable: games are played
by copies carrying the current weights, and RunResult.weights holds the
learned weights.  tdsearch.rundir writes and reads the run directory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from itertools import groupby, pairwise
from pathlib import Path

import numpy as np

from tdsearch.evaluation import (
    FeatureSet,
    SquashConfig,
    WeightVector,
    linear_evaluator,
    raw_eval,
    squash,
)
from tdsearch.games.base import IllegalMoveError, Outcome, Side
from tdsearch.learner import (
    GameTrace,
    LearnerConfig,
    StepRecord,
    leaf_features_white,
    tdleaf_delta,
    trace_to_log,
    traces_from_log,
)
from tdsearch.rng import PCG64
from tdsearch.rundir import RunWriter
from tdsearch.search import alphabeta, terminal_score

INITIAL_RATING = 1500.0
K_FACTOR = 32.0


@dataclass
class RatingTable:
    """Elo ratings, K=32, everyone starts at 1500."""

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
    delta = K_FACTOR * (score_white - expected_score(rw, rb))
    table.ratings[white_id] = rw + delta
    table.ratings[black_id] = rb - delta
    return table


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------


def _check_id(agent_id: str) -> None:
    # Ids are written into the ASCII run files, as one space-free field.
    if not re.fullmatch("[!-~]+", agent_id):
        raise ValueError(f"agent id must be printable ASCII without spaces: {agent_id!r}")


@dataclass(frozen=True, eq=False)
class RandomAgent:
    """Plays uniformly random legal moves."""

    id: str = "random"

    def __post_init__(self):
        _check_id(self.id)

    def select_move(self, game, state, rng):
        actions = game.legal_actions(state)
        return actions[int(rng.integers(len(actions)))], None


@dataclass(frozen=True, eq=False)
class SearchAgent:
    """Plays the first move of a fixed-depth alpha-beta principal variation.

    tie_mode "random" draws a fresh tie-break seed per move from the game's
    generator, so tied PVs vary between games while staying reproducible.
    Agents are immutable: training plays each game with a copy carrying the
    current weights and leaves the agent it was given as it was.  Each copy
    builds its search evaluator once, when it is made.
    """

    id: str
    fs: FeatureSet
    weights: WeightVector
    depth: int
    tie_mode: str = "first"
    evaluator: object = field(init=False, repr=False)  # callable(state) -> float

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("a playing agent needs depth >= 1")
        if self.tie_mode not in ("first", "random"):
            raise ValueError(f"bad tie_mode {self.tie_mode!r}")
        _check_id(self.id)
        object.__setattr__(self, "evaluator", linear_evaluator(self.fs, self.weights))

    def select_move(self, game, state, rng):
        seed = int(rng.integers(2**63)) if self.tie_mode == "random" else None
        result = alphabeta(game, state, self.depth, self.evaluator, seed)
        return result.pv[0], result


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


def play_game(game, white, black, *, record_sides=(), squash_cfg: SquashConfig = SquashConfig(),
              rng=None, rating_lower=None,
              opening_plies: int = 0, opening_epsilon: float = 0.0) -> MatchRecord:
    """Play one game; optionally record learner traces for given seats.

    For the first opening_plies plies, a uniformly random move replaces the
    seat's normal choice with probability opening_epsilon (no trace step is
    recorded for a substituted move).  An illegal move aborts the game and
    scores it as a loss for the offender.  Prediction flags are set once the
    game is over, from the moves actually played.
    """
    rng = rng if rng is not None else PCG64((0,))
    rating_lower = rating_lower or {}
    record_sides = tuple(record_sides)
    state = game.initial_state()
    seats = {Side.WHITE: white, Side.BLACK: black}
    searched = {side: [] for side in record_sides}  # (move index, root, result)
    played = []  # every action tried, an illegal last one included
    nodes = {Side.WHITE: 0, Side.BLACK: 0}
    fault = None

    while (outcome := game.outcome(state)) is None:
        side = state.side_to_move
        if len(played) < opening_plies and opening_epsilon > 0.0 and rng.random() < opening_epsilon:
            actions = game.legal_actions(state)
            action = actions[int(rng.integers(len(actions)))]
        else:
            action, result = seats[side].select_move(game, state, rng)
            if result is not None:
                nodes[side] += result.nodes
                if side in searched:
                    searched[side].append((len(played), state, result))
        played.append(action)
        try:
            state = game.apply(state, action)
        except IllegalMoveError:
            fault = side
            outcome = Outcome(float(side.opponent.sign))
            break

    def predicted(m, pv):
        # Did the reply played after move m match the PV's second ply?  A
        # searched move that ended the game predicted vacuously, unless it
        # was the illegal move that forfeited it.
        if m + 1 < len(played):
            return len(pv) > 1 and played[m + 1] == pv[1]
        return fault is None

    traces = {
        side: GameTrace(side, tuple(
            _make_step(game, seats[side].fs, root, result, squash_cfg,
                       rating_lower.get(side, False), predicted(m, result.pv))
            for m, root, result in searched[side]), outcome)
        for side in record_sides
    }
    moves = len(played) - (fault is not None)
    return MatchRecord(white.id, black.id, outcome, traces, moves, nodes, fault)


def _make_step(game, fs, root, result, squash_cfg, lower: bool, predicted: bool) -> StepRecord:
    raw_white = result.value * root.side_to_move.sign
    return StepRecord(
        root=root,
        leaf=result.leaf,
        pv=result.pv,
        leaf_features=leaf_features_white(fs, result.leaf, game.is_terminal(result.leaf)),
        value=squash(raw_white, squash_cfg),
        raw_value=raw_white,
        opponent_move_predicted=predicted,
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


def game_rng(seed: int, game_index: int) -> PCG64:
    return PCG64((seed, game_index))


@dataclass
class RunResult:
    out_dir: Path
    weights: WeightVector
    table: RatingTable
    games: int


def _learn(cfg: LearnerConfig, weights: WeightVector, games, play):
    """Fold a stream of games into the weights; yields (i, result, traces, weights after game i).

    play(item, weights) plays or reads back one item of games and returns
    (result, traces).  Each trace's delta is taken at the weights the game
    was played with; their sum, in trace order, is added before the next game.
    """
    for i, item in enumerate(games):
        result, traces = play(item, weights)
        delta = sum((tdleaf_delta(trace, cfg, weights, game_index=i) for trace in traces),
                    np.zeros(len(weights)))
        weights = weights.with_values(weights.values + delta)
        yield i, result, traces, weights


def _train(game, agent: SearchAgent, cfg: LearnerConfig, n_games: int, out_dir,
           snapshot_every: int, table: RatingTable, play) -> RunResult:
    """Learn from n_games games of play, writing each game as it finishes.

    play(i, weights) plays game i and returns its ratings row (opponent id,
    color, outcome for the agent, agent rating, opponent rating, moves,
    nodes searched) and its recorded traces.
    """
    weights = agent.weights
    with RunWriter(out_dir, agent.fs, weights, snapshot_every) as writer:
        for i, row, traces, weights in _learn(cfg, weights, range(n_games), play):
            writer.write_game(i, *row, weights, [trace_to_log(game, t, i, row[0]) for t in traces])
        writer.finish(weights)
    return RunResult(Path(out_dir), weights, table, n_games)


def train_online(game, agent: SearchAgent, pool: OpponentPool, cfg: LearnerConfig,
                 n_games: int, seed: int, out_dir, snapshot_every: int = 0) -> RunResult:
    """Learn from rated games against a pool of fixed opponents.

    The learning agent alternates colors; opponents are matched per the
    pool's policy; the weights learn from each game before the next.
    """
    table = RatingTable()
    table.register(agent.id)
    for opp in pool.opponents:
        table.register(opp.id)

    def play(i, weights):
        rng = game_rng(seed, i)
        opp = pool.pick(table, agent.id, rng)
        side = Side.WHITE if i % 2 == 0 else Side.BLACK
        me = replace(agent, weights=weights)
        white, black = (me, opp) if side is Side.WHITE else (opp, me)
        rec = play_game(game, white, black, record_sides=(side,), squash_cfg=cfg.squash, rng=rng,
                        rating_lower={side: table.rating(opp.id) < table.rating(agent.id)})
        elo_update(table, rec.white_id, rec.black_id, (rec.outcome.reward + 1.0) / 2.0)
        return (opp.id, side.name.lower(), rec.outcome.for_side(side), table.rating(agent.id),
                table.rating(opp.id), rec.moves, rec.nodes[side]), (rec.traces[side],)

    return _train(game, agent, cfg, n_games, out_dir, snapshot_every, table, play)


def train_selfplay(game, agent: SearchAgent, cfg: LearnerConfig, n_games: int,
                   seed: int, out_dir, record_both: bool = False,
                   opening_plies: int = 0, opening_epsilon: float = 0.0,
                   snapshot_every: int = 0) -> RunResult:
    """Learn by playing both seats of every game.

    The White seat's trace is recorded by default (record_both adds the
    Black seat, whose delta is added after White's).  Without an
    exploration source, identical weights play identical games; exploration
    comes from random PV tie-breaking and the optional epsilon-random
    opening plies.  Ratings are not meaningful against oneself and stay at
    the initial value in the CSV.
    """
    table = RatingTable()
    table.register(agent.id)
    rating = table.rating(agent.id)
    sides = (Side.WHITE, Side.BLACK) if record_both else (Side.WHITE,)

    def play(i, weights):
        me = replace(agent, weights=weights)
        rec = play_game(game, me, me, record_sides=sides, squash_cfg=cfg.squash,
                        rng=game_rng(seed, i), opening_plies=opening_plies,
                        opening_epsilon=opening_epsilon)
        return ((agent.id, "white", rec.outcome.reward, rating, rating, rec.moves,
                 sum(rec.nodes.values())), [rec.traces[side] for side in sides])

    return _train(game, agent, cfg, n_games, out_dir, snapshot_every, table, play)


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
                  log) -> ReplayReport:
    """Recompute the weight trajectory from a trace log's lines, through training's loop.

    Blocks must come in training order: games 0, 1, ..., n-1, one block per
    recorded seat, White's first.  Every step's raw and squashed values are
    recomputed from the replayed leaf and the weights current at that point
    of the trajectory; any disagreement or out-of-order block is reported.
    """
    # One game's blocks at a time: the log is read and parsed as the replay reaches it.
    blocks = enumerate((idx, [block[2:] for block in group])
                       for idx, group in groupby(traces_from_log(log, game, fs),
                                                 key=lambda block: block[0]))

    def play(block, weights):
        i, (idx, seats) = block
        traces = [trace for trace, _ in seats]
        found = []
        if idx != i:
            found.append(f"game {i}: log has game {idx} in its place")
        if any(a.sign <= b.sign for a, b in pairwise(t.agent_side for t in traces)):
            found.append(f"game {i}: seat blocks repeated or out of order")
        for trace, outcomes in seats:
            for t, (step, outcome) in enumerate(zip(trace.steps, outcomes)):
                if outcome is not None:
                    leaf = step.leaf
                    expect_raw = terminal_score(outcome, leaf, len(step.pv)) * leaf.side_to_move.sign
                else:
                    expect_raw = raw_eval(step.leaf_features, weights)
                if expect_raw != step.raw_value:
                    found.append(f"game {i} step {t}: raw {expect_raw!r} != logged {step.raw_value!r}")
                if squash(step.raw_value, cfg.squash) != step.value:
                    found.append(f"game {i} step {t}: squashed value mismatch")
        return found, traces

    games, mismatches, weights = 0, [], initial
    for i, found, _, weights in _learn(cfg, initial, blocks, play):
        games = i + 1
        mismatches += found
    return ReplayReport(not mismatches, games, weights, mismatches)
