"""The per-game generator port draws what numpy's default_rng(SeedSequence(...)) draws.

Every game's randomness comes from rng.PCG64((seed, game_index)), so its
stream is part of every artifact's bytes.  The numpy comparisons check the
port against the implementation it was ported from; the pinned draws keep
the stream fixed whatever numpy is installed.
"""

import random

import numpy as np
import pytest

from tdsearch.arena import game_rng
from tdsearch.rng import PCG64

SEEDS = (0, 5, 7, 11, 42, 2**32 + 7, 10**12 + 3)
GAME_INDICES = range(300)

# arena's calls: integers(n) for move, opponent and opening choices, integers(2**63)
# for tie-break seeds, random() for opening noise; plus both sides of the
# 32-bit/64-bit split.  None stands for random().
CALLS = [*range(1, 17), 2**63, 2**32, 2**32 + 1, None]


def _draws(rng, calls):
    return [rng.random() if n is None else int(rng.integers(n)) for n in calls]


def _numpy(entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy))


def test_port_matches_numpy_on_arena_call_mix():
    pairs = [(seed, i) for seed in SEEDS for i in GAME_INDICES]
    assert len(pairs) >= 2000
    for k, pair in enumerate(pairs):
        calls = random.Random(k).choices(CALLS, k=24)  # 32-bit, 64-bit and float draws interleaved
        assert _draws(game_rng(*pair), calls) == _draws(_numpy(pair), calls), pair


@pytest.mark.parametrize("entropy", [(3,), (2**32 - 1, 2**32), (2**200 + 1, 9), tuple(range(7))])
def test_port_matches_numpy_on_other_entropy_lengths(entropy):
    # one to more than four 32-bit words: the pool's padding and its extra-word pass
    calls = CALLS * 3
    assert _draws(PCG64(entropy), calls) == _draws(_numpy(entropy), calls)


@pytest.mark.parametrize("n, outputs_per_draw", [(3 << 30, 0.5), (3 << 61, 1)])
def test_rejection_loop_matches_numpy(n, outputs_per_draw):
    # (2**bits - n) % n is a quarter of 2**bits here, so about one draw in four is redrawn
    outputs = 0

    class Counting(PCG64):
        def _next64(self):
            nonlocal outputs
            outputs += 1
            return super()._next64()

    for i in range(50):
        assert _draws(Counting((i,)), [n] * 20) == _draws(_numpy((i,)), [n] * 20), i
    assert outputs > 50 * 20 * outputs_per_draw  # some draws were redrawn


# Ten draws each, recorded from numpy 2.4.6: 7, 2**63, 16, random, 2**32, 3,
# 2**32 + 1, random, 2, 11.
PINNED = {
    (0,): [5, 2488343231644625808, 10, 0.04097352393619469, 323153949, 0,
           3492969080, 0.9127555772777217, 1, 6],
    (42, 0): [0, 4047939128787533792, 12, 0.8585979199113825, 369133709, 2,
              404488629, 0.9756223516367559, 1, 8],
    (10**12 + 3, 5): [6, 2445522839758896539, 9, 0.13775583391789525, 3383891988, 1,
                      973352231, 0.014327566229783484, 0, 6],
}


@pytest.mark.parametrize("entropy", sorted(PINNED))
def test_pinned_draws(entropy):
    calls = [7, 2**63, 16, None, 2**32, 3, 2**32 + 1, None, 2, 11]
    assert _draws(PCG64(entropy), calls) == PINNED[entropy]


@pytest.mark.parametrize("n", [0, -1])
def test_empty_range_is_a_value_error_as_in_numpy(n):
    with pytest.raises(ValueError, match="high <= 0"):
        PCG64((1,)).integers(n)
    with pytest.raises(ValueError, match="high <= 0"):
        _numpy((1,)).integers(n)


def test_negative_entropy_is_a_value_error_as_in_numpy():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        PCG64((-1, 0))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence((-1, 0))
