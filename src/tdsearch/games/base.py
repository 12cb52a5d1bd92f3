"""Shared game-core types.

Games are deterministic, two-player, zero-sum, perfect information.  States
are immutable named tuples: applying an action returns a fresh state and
never mutates the argument, and states compare and hash by value.  Rewards
are always reported from White's point of view; use Outcome.for_side to flip
perspective.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Side(enum.Enum):
    WHITE = 1
    BLACK = -1

    opponent: "Side"  # the other side
    sign: int         # +1 for White, -1 for Black


# Module-level names for the members, and opponent and sign as plain member
# attributes set once here.  Enum's metaclass makes every lookup through the
# class (Side.WHITE) and every property on a member several times slower
# than a global or an instance attribute, and per-node code reads these.
WHITE, BLACK = Side.WHITE, Side.BLACK
WHITE.opponent, BLACK.opponent = BLACK, WHITE
WHITE.sign, BLACK.sign = 1, -1


class IllegalMoveError(ValueError):
    """Raised by apply() when the action is not legal in the given state."""


@dataclass(frozen=True)
class Outcome:
    """Terminal result, stored from White's perspective: +1 / 0 / -1."""

    reward: float

    def for_side(self, side: Side) -> float:
        return self.reward * side.sign


WIN = Outcome(1.0)
DRAW = Outcome(0.0)
LOSS = Outcome(-1.0)


class Game:
    """Interface the engine expects from a game implementation.

    Subclasses provide pure functions over immutable states.  Transitions are
    deterministic: apply(s, a) is a function of its arguments alone, so any
    recorded action sequence replays to field-identical states.  Stochastic
    games are out of scope.

    outcome() is the one terminal rule a game writes: it returns the result
    of a finished game and None while play goes on, and is_terminal is
    derived from it.
    """

    def initial_state(self):
        raise NotImplementedError

    def legal_actions(self, state):
        """Ordered list of legal actions; deterministic order.

        A terminal state has no legal actions: legal_actions returns [] for
        every state whose outcome is not None.  The search relies on this
        and calls outcome only at depth-0 leaves and at nodes whose list
        came back empty.  The converse may fail (a synthetic tree's dead end
        is empty but not terminal); such a node is scored by the evaluator.
        """
        raise NotImplementedError

    def apply(self, state, action):
        """Successor state; raises IllegalMoveError on an illegal action."""
        raise NotImplementedError

    def apply_trusted(self, state, action):
        """Like apply(), for actions known to come from legal_actions(state).

        Games may override this to skip validation on the search hot path.
        """
        return self.apply(state, action)

    def outcome(self, state) -> Outcome | None:
        """White-perspective result of a terminal state; None if play goes on."""
        raise NotImplementedError

    def is_terminal(self, state) -> bool:
        return self.outcome(state) is not None

    # -- text round-trip interfaces -------------------------------------

    def to_text(self, state) -> str:
        raise NotImplementedError

    def from_text(self, text: str):
        raise NotImplementedError

    def action_to_str(self, action) -> str:
        """Move token for a trace log; the default suits integer actions."""
        return str(action)

    def action_from_str(self, text: str):
        """The action of a token action_to_str writes, 0|[1-9][0-9]*; no other spelling."""
        action = int(text)
        if action < 0 or str(action) != text:
            raise ValueError(f"bad move token {text!r}")
        return action

    def replay(self, actions, state=None):
        """Fold apply() over an action sequence from state (default initial)."""
        s = self.initial_state() if state is None else state
        for a in actions:
            s = self.apply(s, a)
        return s
