"""Deterministic random streams.

Every consumer of randomness (a node, a channel, the query workload, ...)
gets its own counter-based Philox stream keyed by the run seed plus a
structural key. Results therefore do not depend on the order in which
streams are built or consumed, so a stream can be built on first use.

`make_stream` and `StreamFactory` hand out bare numpy `Philox` bit
generators. Node and channel streams are wrapped in a `Stream`, which
reads their raw 64-bit words in blocks and draws scalars from them with
roundsim's own samplers. Those take the words numpy's `Generator.random`,
`.integers` and `.poisson` would take and return the same values
(`tests/test_rng.py` checks them against numpy), so node and channel
draws rest on SeedSequence and raw Philox output, which numpy keeps
stable, and not on numpy's distribution code, which its RNG policy
(NEP 19) lets change. The poisson sampler also calls the platform's
`exp` and `log`, as numpy's does. Reading a block ahead is invisible,
because every stream is private to one (computation, entity) key.

Blockchain peers skip the `Stream`: each reads its node stream's
`random_raw` words for a block of rounds at a time, and compares the
doubles `Stream.random` would make of them with its trial probabilities
elementwise in numpy: exact conversion and IEEE comparison, not numpy's
distribution code. The DHT draws its query schedule through a `Stream`
on its workload stream, and its kademlia shortcuts from `halves` of its
topology stream. No numpy `Generator` is built, so every draw of a run
rests on SeedSequence, raw Philox words and this module.

Node, workload and topology streams, and `derive_seed`, are seeded by
numpy's `SeedSequence`, which for one entropy tuple is faster than any
port. Channel keys come from roundsim's batch port of SeedSequence's
mixing, in `seedmix`, checked against numpy: it keys every channel of
one computation in one vectorised pass, and `keyed_philox` builds a
channel's Philox from its key, so a channel draws the words
`make_stream(seed, computation, CHANNEL, sender, receiver)` would.

numpy is imported where a stream, a key or a seed is made, not when
this module is. A run that builds no stream (a fixed law with nodes
that never read `ctx.rng`) never loads numpy; any other run loads it at
its first stream.
"""

from array import array
from itertools import chain
from math import exp, floor, log, sqrt

# Domain separators so that e.g. node 3 and channel (0,3) never share a stream.
NODE = 1
CHANNEL = 2
WORKLOAD = 3
TOPOLOGY = 4
SWEEP = 5

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# A raw word w read as a double in [0, 1) is (w >> 11) * TO_DOUBLE, as
# numpy's Generator.random makes it.
TO_DOUBLE = 2.0 ** -53

# Words read by a stream's first refill, and the most read by one refill.
# Blocks double from the first size to the cap, so a stream that draws
# little reads little.
_FIRST_BLOCK = 8
_MAX_BLOCK = 64

# numpy refuses a poisson rate above this (int64 max less ten of its
# square roots), so the port refuses it too.
_POISSON_LAM_MAX = float(2 ** 63 - 1) - sqrt(2 ** 63 - 1) * 10

# numpy's random_loggam series coefficients.
_LOGGAM = (8.333333333333333e-02, -2.777777777777778e-03,
           7.936507936507937e-04, -5.952380952380952e-04,
           8.417508417508418e-04, -1.917526917526918e-03,
           6.410256410256410e-03, -2.955065359477124e-02,
           1.796443723688307e-01, -1.39243221690590e+00)


def make_stream(seed: int, computation: int, domain: int,
                *key: int) -> "numpy.random.Philox":
    """Create the bit generator for one (computation, entity) pair."""
    import numpy as np
    entropy = (seed & _MASK64, computation, domain) + tuple(k & _MASK64 for k in key)
    return np.random.Philox(np.random.SeedSequence(entropy))


def derive_seed(seed: int, domain: int, *key: int) -> int:
    """Fold a structural key into a base seed, yielding a new 64-bit seed."""
    import numpy as np
    entropy = (seed & _MASK64, domain) + tuple(k & _MASK64 for k in key)
    state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)
    return int(state[0])


def keyed_philox(seed_seq) -> "numpy.random.Philox":
    """A Philox seeded by `seed_seq`, which hands it a precomputed key
    (`seedmix.KeyedSeed`), so that every stream is built in this module."""
    import numpy as np
    return np.random.Philox(seed_seq)


class StreamFactory:
    """Stream source for one computation of a run."""

    def __init__(self, seed: int, computation: int):
        self.seed = seed
        self.computation = computation

    def node(self, node_id: int) -> "numpy.random.Philox":
        return make_stream(self.seed, self.computation, NODE, node_id)

    def channel(self, sender: int, receiver: int) -> "numpy.random.Philox":
        # A network keys its channels in one batch (seedmix.ChannelKeys);
        # this scalar path is the reference they match.
        return make_stream(self.seed, self.computation, CHANNEL, sender, receiver)

    def workload(self) -> "numpy.random.Philox":
        return make_stream(self.seed, self.computation, WORKLOAD)

    def topology(self) -> "numpy.random.Philox":
        return make_stream(self.seed, self.computation, TOPOLOGY)


def _blocks(bit_generator):
    """The bit generator's raw words, one block at a time."""
    random_raw = bit_generator.random_raw
    size = _FIRST_BLOCK
    while True:
        yield array("Q", random_raw(size).tobytes())
        size = min(2 * size, _MAX_BLOCK)


def _loggam(x: float) -> float:
    """log(Gamma(x)), numpy's random_loggam operation for operation."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM[9]
    for coeff in _LOGGAM[8::-1]:
        gl0 *= x2
        gl0 += coeff
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * log(x0) - x0
    for _ in range(n):
        gl -= log(x0 - 1.0)
        x0 -= 1.0
    return gl


def _poisson_ptrs(word, lam: float) -> int:
    """numpy's random_poisson_ptrs, Hormann's transformed rejection for
    lam >= 10, operation for operation."""
    slam = sqrt(lam)
    loglam = log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    while True:
        u = (word() >> 11) * TO_DOUBLE - 0.5
        v = (word() >> 11) * TO_DOUBLE
        us = 0.5 - abs(u)
        if us == 0.0:
            continue  # numpy's k is then floor(-inf): negative, rejected
        k = floor((2 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            return k
        # A k beyond int64 wraps to int64's minimum in numpy's cast on
        # x86-64, so it is rejected like any negative k.
        if k < 0 or k >= 1 << 63 or (us < 0.013 and v > us):
            continue
        if v == 0.0:
            return k  # log(0) is -inf, which every k passes
        if (log(v) + log(invalpha) - log(a / (us * us) + b)
                <= -lam + k * loglam - _loggam(float(k + 1))):
            return k


def halves(bit_generator: "numpy.random.Philox", count: int) -> "numpy.ndarray":
    """A fresh bit generator's first `count` 32-bit draws, as an array:
    each raw word gives its low half, then its high half, the order
    `Stream` takes them in."""
    words = bit_generator.random_raw((count + 1) // 2)
    return words.astype("<u8", copy=False).view("<u4")[:count]


class Stream:
    """Scalar draws from one Philox's raw words, read in blocks.

    `random()`, `integers(low, high=None)` and `poisson(lam)` take the
    words numpy's `Generator` methods of the same names take for one
    scalar draw, in the same order, and return the same values, as
    Python ints and floats. Build it on a bit generator nothing has drawn
    from yet. `word()` returns the next raw 64-bit word, which
    `Channel.make_packet` reads to make the loss trial and the poisson
    delay without a method call per draw.
    """

    __slots__ = ("word", "_half")

    def __init__(self, bit_generator: "numpy.random.Philox"):
        self.word = chain.from_iterable(_blocks(bit_generator)).__next__
        # The high 32 bits of the last word whose low half a 32-bit draw
        # took, or None. Doubles read whole words and leave it alone.
        self._half = None

    def random(self) -> float:
        """A double in [0, 1)."""
        return (self.word() >> 11) * TO_DOUBLE

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self.word()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

    def integers(self, low: int, high=None) -> int:
        """An int from [low, high), or from [0, low) when high is None.

        Lemire's method over 32-bit draws up to a range of 2^32 (where it
        is one plain 32-bit draw), over whole words above it; a range of 1
        draws nothing. Both ends must fit int64, as in numpy.
        """
        if high is None:
            low, high = 0, low
        if low < -(1 << 63):
            raise ValueError("low is out of bounds for int64")
        if high > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        span = high - low
        if span < 1:
            raise ValueError("low >= high")
        if span == 1:
            return low
        if span <= 1 << 32:
            m = self._uint32() * span
            if m & _MASK32 < span:
                threshold = (1 << 32) % span
                while m & _MASK32 < threshold:
                    m = self._uint32() * span
            return low + (m >> 32)
        m = self.word() * span
        if m & _MASK64 < span:
            threshold = (1 << 64) % span
            while m & _MASK64 < threshold:
                m = self.word() * span
        return low + (m >> 64)

    def poisson(self, lam: float) -> int:
        """A Poisson(lam) count: the multiplication method over doubles
        below lam 10, PTRS from 10 up; lam 0 draws nothing."""
        if lam >= 10.0:
            if lam > _POISSON_LAM_MAX:
                raise ValueError("lam value too large")
            return _poisson_ptrs(self.word, lam)
        if not lam >= 0.0:
            raise ValueError("lam < 0 or lam is NaN")
        if lam == 0.0:
            return 0
        enlam = exp(-lam)
        word = self.word
        count = 0
        prod = (word() >> 11) * TO_DOUBLE
        while prod > enlam:
            count += 1
            prod *= (word() >> 11) * TO_DOUBLE
        return count
