"""The per-game generator: numpy's SeedSequence and PCG64, ported draw for draw.

PCG64(entropy) draws what numpy's default_rng(SeedSequence(entropy)) draws,
for the two calls a game makes: integers(n) and random().  numpy does not
promise that its Generator streams stay the same across versions (NEP 19);
this port keeps the stream inside the package, so a run's bytes do not
depend on the installed numpy, and no run imports numpy's random module.
"""

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy):
    """SeedSequence's entropy: each int as its 32-bit words, least significant first."""
    words = []
    for n in entropy:
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & M32)
        while n := n >> 32:
            words.append(n & M32)
    return words


def _seed_state(entropy):
    """SeedSequence(entropy).generate_state(4, uint64), from its four-word hashmix pool."""
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & M32
        value = value * const & M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ r >> 16

    words = _words(entropy)
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out, const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & M32
        value = value * const & M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """numpy's default_rng(SeedSequence(entropy)), for integers(n) and random().

    A 128-bit LCG with XSL-RR output.  A 32-bit draw takes the low half of
    an output and keeps the high half for the next 32-bit draw, as numpy does.
    """

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, entropy):
        w = _seed_state(entropy)
        self._inc = (w[2] << 65 | w[3] << 1 | 1) & M128
        self._state = ((self._inc + (w[0] << 64 | w[1])) * PCG_MULT + self._inc) & M128
        self._high = None

    def _next64(self):
        s = self._state = (self._state * PCG_MULT + self._inc) & M128
        x, rot = (s >> 64 ^ s) & M64, s >> 122
        return (x >> rot | x << (64 - rot)) & M64

    def _next32(self):
        if self._high is not None:
            x, self._high = self._high, None
            return x
        x = self._next64()
        self._high = x >> 32
        return x & M32

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """A uniform int in [0, n): Lemire's bounded draw, on 32-bit draws up to 2**32."""
        if n < 1:
            raise ValueError("high <= 0")
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        draw, bits = (self._next32, 32) if n <= 1 << 32 else (self._next64, 64)
        mask = (1 << bits) - 1
        m = draw() * n
        if m & mask < n:
            threshold = ((1 << bits) - n) % n
            while m & mask < threshold:
                m = draw() * n
        return m >> bits
