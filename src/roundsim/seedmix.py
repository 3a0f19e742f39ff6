"""Channel keys: roundsim's batch port of numpy's `SeedSequence` mixing.

A channel's Philox key is what numpy's `SeedSequence` makes of the
entropy (seed, computation, CHANNEL, sender, receiver), as
`rng.make_stream` builds it. `channel_keys` computes the key of every
channel of one computation's adjacency in one vectorised numpy pass,
through `seed_keys`, the port, and `ChannelKeys` hands each channel a
Philox built from its key alone (`KeyedSeed`, through
`rng.keyed_philox`), so a channel draws the words `make_stream` would
give it. `tests/test_rng.py` checks the port against numpy's
`SeedSequence`. Other streams and `rng.derive_seed` use numpy's
`SeedSequence` itself, which for one entropy tuple is faster than any
port.

Only a network that opens a channel imports this module, and it loads
numpy; `import roundsim` and a run on a fixed law load neither.
"""

from itertools import accumulate, chain, islice

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .config import CompleteAdjacency
from .rng import CHANNEL, keyed_philox

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# SeedSequence's entropy pool holds 4 words, and it hashes and mixes
# 32-bit words with these constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# Channels keyed per `seed_keys` call. A chunk's temporaries take about
# 110 bytes a channel, 3.5 MB in all, whatever the topology's width.
_KEY_CHUNK = 1 << 15


def _words(n: int) -> list:
    """A non-negative int as SeedSequence's entropy words: 32 bits each,
    low word first, one word for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def seed_keys(entropy: np.ndarray) -> np.ndarray:
    """What `generate_state(2, numpy.uint64)` gives for numpy's
    `SeedSequence` of each row of a (rows, words) uint32 entropy matrix,
    as a (rows, 2) uint64 array.

    SeedSequence's steps on its pool of 4 words, each vectorised over the
    rows: hash the first 4 words in (0 where a row is shorter), mix every
    pool word into every other, mix each further word into every pool
    word, then hash the pool out into 4 words, read as 2 little-endian
    uint64s. The hash constant a step uses depends only on the step, not
    on the data, so it is a Python int shared by all rows.
    """
    u32 = np.uint32
    words = entropy.shape[1]
    columns = np.ascontiguousarray(entropy.T, dtype=u32)
    rows = columns.shape[1]
    pool = np.empty((_POOL_SIZE, rows), u32)
    hashed, shifted = np.empty(rows, u32), np.empty(rows, u32)
    const = _INIT_A

    def hashmix(value, out):
        nonlocal const
        np.bitwise_xor(value, u32(const), out=out)
        const = const * _MULT_A & _MASK32
        np.multiply(out, u32(const), out=out)
        np.right_shift(out, _XSHIFT, out=shifted)
        return np.bitwise_xor(out, shifted, out=out)

    def mix(x, y):  # into x; y is scratch
        np.multiply(x, u32(_MIX_MULT_L), out=x)
        np.multiply(y, u32(_MIX_MULT_R), out=y)
        np.subtract(x, y, out=x)
        np.right_shift(x, _XSHIFT, out=shifted)
        np.bitwise_xor(x, shifted, out=x)

    for i in range(_POOL_SIZE):
        hashmix(columns[i] if i < words else u32(0), pool[i])
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mix(pool[dst], hashmix(pool[src], hashed))
    for src in range(_POOL_SIZE, words):
        for dst in range(_POOL_SIZE):
            mix(pool[dst], hashmix(columns[src], hashed))

    const = _INIT_B
    state = np.empty((rows, _POOL_SIZE), u32)
    for i in range(_POOL_SIZE):
        np.bitwise_xor(pool[i], u32(const), out=hashed)
        const = const * _MULT_B & _MASK32
        np.multiply(hashed, u32(const), out=hashed)
        np.right_shift(hashed, _XSHIFT, out=shifted)
        np.bitwise_xor(hashed, shifted, out=state[:, i])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64,
                                                              copy=False)


def _uint64s(ids: tuple) -> np.ndarray:
    """Ids as a uint64 array, each masked to 64 bits as `make_stream`
    masks a key."""
    try:
        return np.fromiter(ids, np.uint64, len(ids))
    except OverflowError:  # an id below 0 or of 2^64 or more
        return np.fromiter((v & _MASK64 for v in ids), np.uint64, len(ids))


def _key_batch(prefix: list, senders, receivers) -> np.ndarray:
    """The keys of channels (senders[i], receivers[i]), uint64 ids, whose
    entropy starts with the words `prefix`. An id of 2^32 or more takes
    two words, so the rows are keyed in groups of one word count."""
    keys = np.empty((len(senders), 2), np.uint64)
    # Bit 1: the sender takes two words; bit 0: the receiver does.
    wide = (senders > _MASK32) * 2 + (receivers > _MASK32)
    groups = np.flatnonzero(np.bincount(wide, minlength=4)).tolist()
    for group in groups:
        rows = np.flatnonzero(wide == group) if len(groups) > 1 else slice(None)
        sender, receiver = senders[rows], receivers[rows]
        columns = (prefix + [sender] + [sender >> 32] * (group >> 1)
                   + [receiver] + [receiver >> 32] * (group & 1))
        entropy = np.empty((len(columns), len(sender)), np.uint32)
        for row, column in zip(entropy, columns):
            np.copyto(row, column, casting="unsafe")  # the low 32 bits
        keys[rows] = seed_keys(entropy.T)
    return keys


def channel_keys(seed: int, computation: int, adjacency: dict) -> np.ndarray:
    """The key of every channel of `adjacency`, as a (channels, 2) uint64
    array in row order: row i is the Philox key
    `make_stream(seed, computation, CHANNEL, u, v)` gives the i-th edge
    (u, v) of the rows in the adjacency's order. Channels are keyed
    `_KEY_CHUNK` at a time, so no temporary grows with the topology and
    no Python object is built per channel."""
    rows = adjacency.values()
    ends = np.fromiter(accumulate(map(len, rows)), np.int64, len(adjacency))
    count = int(ends[-1]) if len(ends) else 0
    senders = _uint64s(tuple(adjacency))
    receivers = chain.from_iterable(rows)
    prefix = _words(seed & _MASK64) + _words(computation) + _words(CHANNEL)
    keys = np.empty((count, 2), np.uint64)
    for low in range(0, count, _KEY_CHUNK):
        high = min(low + _KEY_CHUNK, count)
        row_of = np.searchsorted(ends, np.arange(low, high), side="right")
        keys[low:high] = _key_batch(prefix, senders[row_of], _uint64s(
            tuple(islice(receivers, high - low))))
    return keys


class KeyedSeed(ISeedSequence):
    """A seed sequence that only hands a Philox its precomputed key."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype != np.uint64:
            raise ValueError("a channel key is 2 uint64 words")
        return self.key


class ChannelKeys:
    """The Philox keys of every channel of one computation, computed
    together by `channel_keys`: one (channels, 2) uint64 array in the
    adjacency's row order, and where each row starts in it.

    `channel(sender, receiver)` builds the edge's bit generator from its
    key, the one `make_stream(seed, computation, CHANNEL, sender,
    receiver)` builds. On a complete topology an edge's index is
    arithmetic; on any other, a row's first opened channel scans that row
    once into a map of its receivers, so opening every channel costs
    O(channels) in all.
    """

    __slots__ = ("_keys", "_rows", "_starts", "_width", "_index")

    def __init__(self, adjacency: dict, streams):
        self._keys = channel_keys(streams.seed, streams.computation, adjacency)
        self._rows = adjacency
        if type(adjacency) is CompleteAdjacency:
            # Row u holds every id but u, so it starts at u * (n - 1).
            self._width, self._starts = len(adjacency) - 1, None
        else:
            self._width, self._starts = None, dict(zip(adjacency, accumulate(
                map(len, adjacency.values()), initial=0)))
        self._index = {}  # sender -> {receiver: key index}, rows opened

    def channel(self, sender: int, receiver: int) -> "numpy.random.Philox":
        if self._width is not None:
            index = sender * self._width + receiver - (receiver > sender)
        else:
            row = self._index.get(sender)
            if row is None:
                row = self._index[sender] = {
                    v: i for i, v in enumerate(self._rows[sender],
                                               self._starts[sender])}
            index = row[receiver]
        return keyed_philox(KeyedSeed(self._keys[index]))
