"""Temporal-difference learning on game traces.

A trace holds one step per decision the learning agent took: the root it
searched, the principal variation and its leaf, the leaf's feature vector,
and the squashed leaf value.  Values and features are stored in White's
fixed perspective; the update converts to the agent's perspective by a
sign flip when the agent held the Black seat.

With leaf values v_1..v_n and final reward r, the n temporal differences
are d_t = v_{t+1} - v_t and d_n = r - v_n (the terminal position's value is
the reward by convention).  The weight update is

    delta_w = alpha * sum_t grad(v_t) * sum_{j>=t} lambda**(j-t) * d_j

computed with a backward recursion for the inner sums.  At lambda=0 this
collapses to per-step bootstrapping; at lambda=1 (unclipped) it telescopes
to gradient descent on the final outcome error.

tdleaf_delta applies the rule to the principal-variation leaves, which is
what makes it consistent with the deep searches actually choosing moves.
(The root-based TD(lambda) rule, the paper's comparator, lives in the test
oracles: no run mode uses it.)

Positive differences can optionally be clipped: a positive surprise that
merely reflects an opponent blunder (their reply was not the one the agent
predicted) teaches nothing about one's own evaluation.  Negative
differences are never clipped.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

import numpy as np

from tdsearch.evaluation import (
    _G,
    FeatureSet,
    SquashConfig,
    WeightVector,
    features_white,
    grad_squashed,
)
from tdsearch.games.base import Outcome, Side


class ClipPolicy(enum.Enum):
    NONE = "none"
    UNLESS_PREDICTED = "unless-predicted"
    # Footnote variant: also keep positive differences against opponents
    # not rated below the agent.
    UNLESS_PREDICTED_OR_STRONGER = "unless-predicted-or-stronger"


@dataclass(frozen=True)
class AlphaSchedule:
    """Learning-rate schedule: constant, or base/(1 + t/decay_games)."""

    kind: str = "constant"
    base: float = 1.0
    decay_games: float = 1.0
    floor: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "inverse"):
            raise ValueError(f"bad schedule kind {self.kind!r}")
        if self.base <= 0:
            raise ValueError("alpha base must be positive")
        if self.decay_games <= 0:
            raise ValueError("alpha decay_games must be positive")

    def at(self, game_index: int) -> float:
        if self.kind == "constant":
            return self.base
        return max(self.floor, self.base / (1.0 + game_index / self.decay_games))


@dataclass(frozen=True)
class LearnerConfig:
    lambda_: float = 0.7
    alpha: AlphaSchedule = field(default_factory=AlphaSchedule)
    squash: SquashConfig = field(default_factory=SquashConfig)
    clipping: ClipPolicy = ClipPolicy.NONE

    def __post_init__(self):
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError("lambda must be in [0, 1]")


@dataclass(frozen=True)
class StepRecord:
    """One agent decision: search root, PV, and the PV leaf's evaluation.

    value and raw_value are White-perspective; leaf_features is the leaf's
    feature vector in White's perspective (zeros when the leaf is terminal,
    where no features exist and the gradient vanishes).
    opponent_move_predicted says whether the opponent's reply to this move
    matched the second ply of the PV; it is vacuously true when the agent's
    own move ended the game.
    """

    root: object
    leaf: object
    pv: tuple
    leaf_features: np.ndarray
    value: float
    raw_value: float = 0.0
    opponent_move_predicted: bool = False
    opponent_rating_lower: bool = False


def leaf_features_white(fs: FeatureSet, leaf, terminal: bool) -> np.ndarray:
    """A StepRecord's leaf_features: zeros at a terminal leaf, else features_white."""
    return np.zeros(fs.k) if terminal else features_white(fs, leaf)


@dataclass(frozen=True)
class GameTrace:
    agent_side: Side
    steps: tuple
    outcome: Outcome | None


def _retained(policy: ClipPolicy, step: StepRecord) -> bool:
    if policy is ClipPolicy.NONE:
        return True
    if policy is ClipPolicy.UNLESS_PREDICTED:
        return step.opponent_move_predicted
    return step.opponent_move_predicted or not step.opponent_rating_lower


def temporal_differences(trace: GameTrace, cfg: LearnerConfig):
    """Agent-perspective differences d_1..d_n with the clipping rule applied."""
    if trace.outcome is None:
        raise ValueError("trace has no outcome; cannot form the final difference")
    steps = trace.steps
    if not steps:
        return []
    c = trace.agent_side.sign
    vals = [c * s.value for s in steps]
    r = trace.outcome.for_side(trace.agent_side)
    raw = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    raw.append(r - vals[-1])
    return [0.0 if d > 0.0 and not _retained(cfg.clipping, step) else d
            for d, step in zip(raw, steps)]


def discounted_difference_sums(diffs, lam: float):
    """S_t = sum_{j>=t} lambda**(j-t) * d_j via S_t = d_t + lambda*S_{t+1}."""
    out = [0.0] * len(diffs)
    acc = 0.0
    for i in range(len(diffs) - 1, -1, -1):
        acc = diffs[i] + lam * acc
        out[i] = acc
    return out


def tdleaf_delta(trace: GameTrace, cfg: LearnerConfig, weights: WeightVector,
                 game_index: int = 0) -> np.ndarray:
    """Weight change for one trace under the leaf-based update rule."""
    diffs = temporal_differences(trace, cfg)
    delta = np.zeros(len(weights))
    if not diffs:
        return delta
    sums = discounted_difference_sums(diffs, cfg.lambda_)
    c = trace.agent_side.sign
    for step, s in zip(trace.steps, sums):
        if s != 0.0:
            # White-perspective gradient at the recorded leaf, at its stored value.
            delta += (c * s) * grad_squashed(step.leaf_features, weights, cfg.squash, step.value)
    return cfg.alpha.at(game_index) * delta


# ---------------------------------------------------------------------------
# Trace log files
# ---------------------------------------------------------------------------
#
# One block per game:
#
#   game <index> agent=<white|black> opponent=<id>
#   step <ply> <root_hash> <root_text> <pv> <raw> <squashed> <predicted> <opp_lower>
#   ...
#   outcome <reward>
#
# Fields are space-separated; spaces inside the root text are written as
# '_', the PV is ';'-joined move tokens ('-' when empty), floats use 17
# significant digits, flags are 0/1.  The root hash is the first 16 hex
# digits of the sha256 of the root text, and the stored PV replays from the
# root text to the leaf, so updates can be recomputed offline.  Writer and
# reader share one formatter per line kind.


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _game_line(game_index: int, side: Side, opponent_id: str) -> str:
    agent = "white" if side is Side.WHITE else "black"
    return f"game {game_index} agent={agent} opponent={opponent_id}\n"


def _step_line(ply: int, digest: str, root_field: str, pv_field: str, raw: float, value: float,
               predicted: bool, lower: bool) -> str:
    return (f"step {ply} {digest} {root_field} {pv_field} {_G(raw)} {_G(value)} "
            f"{int(predicted)} {int(lower)}\n")


def _outcome_line(reward: float) -> str:
    return f"outcome {_G(reward)}\n"


def trace_to_log(game, trace: GameTrace, game_index: int, opponent_id: str) -> str:
    lines = [_game_line(game_index, trace.agent_side, opponent_id)]
    for step in trace.steps:
        root_text = game.to_text(step.root)
        lines.append(_step_line(
            step.root.ply, text_hash(root_text), root_text.replace(" ", "_"),
            ";".join(game.action_to_str(a) for a in step.pv) or "-",
            step.raw_value, step.value, step.opponent_move_predicted, step.opponent_rating_lower))
    lines.append(_outcome_line(trace.outcome.reward))
    return "".join(lines)


def traces_from_log(lines, game, fs: FeatureSet):
    """Parse a trace log; yields (game_index, opponent_id, GameTrace, leaf_outcomes).

    lines is any iterable of the log's lines, such as the open file, so a
    long log is read one line at a time.  leaf_outcomes holds each step's
    leaf Outcome (None while play goes on), the one terminal test of the
    step, for replay's check.

    Each line must be the one the writer writes for the values read from
    it, newline included.  Leaf states are rebuilt by replaying each stored
    PV from its root, and each root text is checked against its logged hash
    before it is parsed, so a corrupted log fails loudly rather than
    replaying quietly wrong.  Every error in a line names the line.
    """
    header = None
    for line_no, line in enumerate(lines, start=1):
        try:
            if not line.isascii():
                raise ValueError("non-ASCII byte")
            # Missing fields fail to unpack; extra ones are left out of the rendered line.
            kind, *fields = line[:-1].split(" ")
            if kind == "game":
                if header is not None:
                    raise ValueError("previous game missing outcome")
                idx_txt, agent_txt, opp_txt = fields[:3]
                header = (int(idx_txt), Side.WHITE if agent_txt == "agent=white" else Side.BLACK,
                          opp_txt.removeprefix("opponent="))
                steps, outcomes = [], []
                written = _game_line(*header)
            elif kind == "step":
                if header is None:
                    raise ValueError("step outside a game block")
                _, digest, root_txt, pv_txt, raw_txt, val_txt, pred, lower = fields[:8]
                root_text = root_txt.replace("_", " ")
                if text_hash(root_text) != digest:
                    raise ValueError("root hash mismatch")
                root = game.from_text(root_text)
                pv = () if pv_txt == "-" else tuple(map(game.action_from_str, pv_txt.split(";")))
                leaf = game.replay(pv, root)  # raises IllegalMoveError, a ValueError
                outcomes.append(outcome := game.outcome(leaf))
                step = StepRecord(
                    root=root,
                    leaf=leaf,
                    pv=pv,
                    leaf_features=leaf_features_white(fs, leaf, outcome is not None),
                    value=float(val_txt),
                    raw_value=float(raw_txt),
                    opponent_move_predicted=pred == "1",
                    opponent_rating_lower=lower == "1",
                )
                steps.append(step)
                written = _step_line(root.ply, digest, root_txt, pv_txt, step.raw_value, step.value,
                                     step.opponent_move_predicted, step.opponent_rating_lower)
            elif kind == "outcome":
                if header is None:
                    raise ValueError("outcome outside a game block")
                (reward_txt,) = fields[:1]
                final = Outcome(float(reward_txt))
                written = _outcome_line(final.reward)
            else:
                raise ValueError(f"unknown record {kind!r}")
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
        if line != written:
            raise ValueError(f"line {line_no} reads {line!r}; the writer writes {written!r}")
        if kind == "outcome":
            idx, side, opp = header
            yield idx, opp, GameTrace(side, tuple(steps), final), tuple(outcomes)
            header = None
    if header is not None:
        raise ValueError("log ended inside a game block")
