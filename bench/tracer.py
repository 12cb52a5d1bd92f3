"""Span tracer that wraps tdsearch's public entry points from outside.

Nothing in src/ is edited: the tracer replaces module globals, game instance
methods and feature-set extractors with timing wrappers, so every call into
a layer opens a span whose parent is the span that was open when it began.
A search makes tens of thousands of game and evaluation calls, so spans are
kept in memory as aggregates per (phase, name): call count, inclusive time
and self time (inclusive time minus the time of child spans).  Search calls
are also kept one by one for their percentiles.  Nothing is written while a
traced pass runs.

Nesting is what keeps self times honest: connect4 inherits apply_trusted
from the base class, which calls the (wrapped) validated apply, so apply's
time is a child of apply_trusted and is counted once.
"""

from __future__ import annotations

import dataclasses
import time

_DONE = object()


class Tracer:
    def __init__(self):
        self.phase = "play"
        self._stack = []      # child-time frames of open spans, under a root frame
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far; wrappers stay installed."""
        self.stats = {}       # (phase, name) -> [calls, inclusive_ns, self_ns]
        self.search_ns = []   # inclusive ns of each play-phase search call
        self.leaf_nodes = 0   # leaf scorings reported by play-phase searches
        self.trace_bytes = 0  # bytes of trace log text written in the play phase
        self._stack[:] = [[0]]

    def counts(self) -> dict:
        """Everything that must repeat exactly between two passes of one plan."""
        calls = {f"{phase}:{name}": s[0] for (phase, name), s in sorted(self.stats.items())}
        return {**calls, "leaf_nodes": self.leaf_nodes, "trace_bytes": self.trace_bytes,
                "searches": len(self.search_ns)}

    def wrap(self, name, fn, observe=None):
        """fn wrapped in a span; observe(result, ns) runs after the span closes."""
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ns = clock() - t0
                stack.pop()
                stack[-1][0] += ns
                key = (self.phase, name)
                s = self.stats.get(key)
                if s is None:
                    s = self.stats[key] = [0, 0, 0]
                s[0] += 1
                s[1] += ns
                s[2] += ns - frame[0]
            if observe is not None:
                observe(result, ns)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """A generator function whose consumption, one item at a time, is spanned."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            step = self.wrap(name, lambda: next(it, _DONE))
            while (item := step()) is not _DONE:
                yield item

        return traced

    def _searched(self, result, ns):
        if self.phase == "play":
            self.search_ns.append(ns)
            self.leaf_nodes += result.nodes

    def _logged(self, text, ns):
        if self.phase == "play":
            self.trace_bytes += len(text)

    def install(self, cli, arena, evaluation, game) -> None:
        """Wrap the entry points of every layer one workload can reach."""
        for method in ("legal_actions", "is_terminal", "apply", "apply_trusted", "outcome"):
            setattr(game, method, self.wrap(f"games.{method}", getattr(game, method)))

        for fs_id, fs in list(evaluation.FEATURE_SETS.items()):
            evaluation.FEATURE_SETS[fs_id] = dataclasses.replace(
                fs, extract=self.wrap("evaluation.extract", fs.extract))
        make_evaluator = arena.linear_evaluator
        arena.linear_evaluator = lambda fs, weights: self.wrap(
            "evaluation.evaluator", make_evaluator(fs, weights))

        arena.alphabeta = self.wrap("search", arena.alphabeta, self._searched)
        arena.tdleaf_delta = self.wrap("learner.tdleaf_delta", arena.tdleaf_delta)
        arena.trace_to_log = self.wrap("learner.trace_to_log", arena.trace_to_log, self._logged)
        arena.traces_from_log = self.wrap_generator("learner.traces_from_log",
                                                    arena.traces_from_log)

        for loop in ("train_online", "train_selfplay", "head_to_head"):
            setattr(cli, loop, self.wrap("arena", getattr(cli, loop)))
        cli.replay_traces = self.wrap("arena.replay_traces", cli.replay_traces)
        cli.main = self.wrap("cli", cli.main)
