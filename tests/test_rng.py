import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roundsim.network import Channel, DelayDistribution, NodeContext
from roundsim.rng import (CHANNEL, NODE, SWEEP, TOPOLOGY, Stream, StreamFactory,
                          derive_seed, halves, keyed_philox, make_stream)
from roundsim.seedmix import KeyedSeed, seed_keys

MASK64 = 2 ** 64 - 1


def test_same_key_same_stream():
    a = make_stream(42, 0, 1, 7)
    b = make_stream(42, 0, 1, 7)
    assert a.random_raw(100).tolist() == b.random_raw(100).tolist()


def test_distinct_entities_distinct_streams():
    draws = set()
    for computation in range(3):
        for node in range(5):
            rng = make_stream(1, computation, 1, node)
            draws.add(tuple(rng.random_raw(4).tolist()))
    assert len(draws) == 15


def test_domain_separation():
    # node 3 and channel (0,3) share numeric key material but not a domain
    factory = StreamFactory(9, 0)
    node = factory.node(3).random_raw(8).tolist()
    chan = factory.channel(0, 3).random_raw(8).tolist()
    assert node != chan


def test_streams_independent_of_consumption_order():
    f1 = StreamFactory(5, 2)
    a_first = f1.node(0).random_raw(4).tolist()
    f1.node(1).random_raw(4)

    f2 = StreamFactory(5, 2)
    f2.node(1).random_raw(4)
    a_second = f2.node(0).random_raw(4).tolist()
    assert a_first == a_second


def test_derive_seed_deterministic_and_distinct():
    s0 = derive_seed(42, SWEEP, 0)
    assert s0 == derive_seed(42, SWEEP, 0)
    points = {derive_seed(42, SWEEP, i) for i in range(20)}
    assert len(points) == 20
    assert all(0 <= s < 2 ** 64 for s in points)


def test_negative_keys_are_masked():
    # genesis-style ids (-1) must not crash the entropy packing
    rng = make_stream(1, 0, 2, -1)
    assert isinstance(rng, np.random.Philox)


# The batch port of SeedSequence against numpy ---------------------------------

# Ids at the word boundaries, any 64-bit id (two words from 2^32 on), and
# ids past 64 bits masked as make_stream masks them.
IDS = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]),
                st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, MASK64),
                st.integers(2 ** 64, 2 ** 80).map(lambda v: v & MASK64))
# A channel's entropy, seeds of 2^32 and above included, or any short
# tuple of ids: fewer words than SeedSequence's pool of 4 takes its other
# branch.
ENTROPIES = st.one_of(
    st.tuples(IDS, st.integers(0, 2 ** 33), st.just(CHANNEL), IDS, IDS),
    st.lists(IDS, min_size=1, max_size=3).map(tuple))


def entropy_words(entropy):
    """numpy's entropy words of a tuple of ints: each int's 32-bit words,
    low word first, one word for 0."""
    words = []
    for value in entropy:
        words.append(value & 0xFFFFFFFF)
        while value >> 32:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return words


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(ENTROPIES, min_size=1, max_size=12))
def test_seed_keys_port_is_numpy_seed_sequence(entropies):
    by_count = {}
    for entropy in entropies:
        by_count.setdefault(len(entropy_words(entropy)), []).append(entropy)
    for group in by_count.values():
        keys = seed_keys(np.array([entropy_words(e) for e in group], np.uint32))
        assert keys.dtype == np.uint64 and keys.shape == (len(group), 2)
        for entropy, key in zip(group, keys):
            want = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
            assert key.tolist() == want.tolist(), entropy
            words = keyed_philox(KeyedSeed(key)).random_raw(16).tolist()
            assert words == np.random.Philox(
                np.random.SeedSequence(entropy)).random_raw(16).tolist()
            if len(entropy) == 5:  # a channel's: make_stream's words too
                seed, computation, _, sender, receiver = entropy
                assert words == make_stream(seed, computation, CHANNEL, sender,
                                            receiver).random_raw(16).tolist()


def test_a_keyed_philox_hands_out_only_its_key():
    key = np.array([3, 5], np.uint64)
    bit_generator = keyed_philox(KeyedSeed(key))
    assert bit_generator.state["state"]["key"].tolist() == [3, 5]
    assert bit_generator.state["state"]["counter"].tolist() == [0] * 4
    seed_seq = bit_generator._seed_seq
    assert seed_seq.generate_state(2, np.uint64) is key
    assert seed_seq.generate_state(2, np.dtype(np.uint64)) is key
    for args in ((2,), (4, np.uint64), (2, np.uint32), (1, np.uint64)):
        with pytest.raises(ValueError, match="2 uint64 words"):
            seed_seq.generate_state(*args)


# Stream's samplers against numpy ----------------------------------------------

# Ranges of 1 (no draw), small ones, two either side of 2^31 (Lemire's
# method rejects nearly half its draws at 2^31 + 1), exactly 2^32 (a plain
# 32-bit draw), and 64-bit Lemire above it, which rejects nearly half its
# draws at 2^63 + 1.
SPANS = (1, 2, 3, 2 ** 31 - 1, 2 ** 31 + 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63 - 1,
         2 ** 63 + 1)
# Multiplication method below 10, PTRS from 10 up.
RATES = (1e-9, 1.5, 9.999, 10.0, 10.5, 1e3, 1e9 - 1)


def test_samplers_match_numpy_over_interleaved_draws():
    for seed in range(200):
        pick = random.Random(seed)
        ours = Stream(make_stream(seed, 0, NODE, 3))
        numpy_ = np.random.Generator(make_stream(seed, 0, NODE, 3))
        # 60 draws cross several blocks, and a 32-bit draw's kept high half
        # meets doubles and Poisson counts drawn in between.
        for _ in range(60):
            draw = pick.randrange(4)
            if draw == 0:
                got, want = ours.random(), float(numpy_.random())
            elif draw == 1:
                span = pick.choice(SPANS)
                low = min(pick.choice((0, -7, -(2 ** 62))), 2 ** 63 - span)
                got, want = (ours.integers(low, low + span),
                             int(numpy_.integers(low, low + span)))
            elif draw == 2:
                span = pick.choice(SPANS[:-1])  # high alone must fit int64
                got, want = ours.integers(span), int(numpy_.integers(span))
            else:
                lam = pick.choice(RATES)
                got, want = ours.poisson(lam), int(numpy_.poisson(lam))
            assert got == want, (seed, draw)
            assert type(got) is type(want)


def test_integers_at_the_int64_ends_match_numpy():
    for seed in range(20):
        ours = Stream(make_stream(seed, 0, NODE, 4))
        numpy_ = np.random.Generator(make_stream(seed, 0, NODE, 4))
        for low, high in ((-(2 ** 63), 2 ** 63), (-(2 ** 63), 0),
                          (2 ** 63 - 2, 2 ** 63), (0, 2 ** 32 - 1)):
            assert ours.integers(low, high) == int(numpy_.integers(low, high))


def test_samplers_refuse_what_numpy_refuses():
    ours = Stream(make_stream(1, 0, NODE, 0))
    numpy_ = np.random.Generator(make_stream(1, 0, NODE, 0))
    for args in ((5, 5), (0,), (-(2 ** 63) - 1, 0), (0, 2 ** 63 + 1)):
        with pytest.raises(ValueError):
            numpy_.integers(*args)
        with pytest.raises(ValueError):
            ours.integers(*args)
    for lam in (-1.0, float("nan"), 1e19):
        with pytest.raises(ValueError):
            numpy_.poisson(lam)
        with pytest.raises(ValueError):
            ours.poisson(lam)
    # Nothing was drawn: both streams still agree.
    assert ours.random() == numpy_.random()


@pytest.mark.parametrize("count", [0, 1, 7, 40])
def test_halves_are_numpy_plain_32_bit_draws(count):
    for seed in range(5):
        got = halves(make_stream(seed, 0, TOPOLOGY), count)
        want = np.random.Generator(make_stream(seed, 0, TOPOLOGY)).integers(
            2 ** 32, size=count)
        assert got.tolist() == want.tolist()
        assert got.dtype == np.uint32 and got.shape == (count,)


def test_node_and_channel_streams_are_block_readers():
    factory = StreamFactory(3, 1)
    ctx = NodeContext(4, (5,), factory, logger=None)
    channel = Channel(0, 1, DelayDistribution.poisson(2.5), 0.1, factory)
    assert isinstance(ctx.rng, Stream) and isinstance(channel.rng, Stream)
    assert ctx.rng.random() == np.random.Generator(factory.node(4)).random()
    assert (channel.rng.random()
            == np.random.Generator(factory.channel(0, 1)).random())


def test_ptrs_takes_words_numpy_is_never_steered_to():
    # A word of 0 reads as the double 0. As u it is -0.5, so us is 0 and
    # numpy's k is floor(-inf): rejected. As v, log(v) is -inf: accepted.
    lam = 100.0
    d = 0.95  # u = d - 0.5 gives us = 0.05: past the quick accept
    stream = Stream(make_stream(1, 0, NODE, 0))
    stream.word = iter([0, 5 << 11, int(d * 2 ** 53) << 11, 0]).__next__
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    u = d - 0.5
    us = 0.5 - abs(u)
    assert stream.poisson(lam) == math.floor((2 * a / us + b) * u + lam + 0.43)
