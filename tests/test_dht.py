import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from roundsim import config as config_mod
from roundsim.config import MAX_SCHEDULED_QUERIES, parse_obj
from roundsim.engine import run
from roundsim.errors import ConfigError, MetricError
from roundsim.network import NodeContext
from roundsim.rng import Stream, StreamFactory
from roundsim.algorithms.base import get_algorithm
from roundsim.algorithms.dht import TAG_FORWARDED, mean_hops, ring_next_hop
from roundsim.runlog import LogDocument, LogRecord, RunLogger


def dht_config(variant, nodes, **overrides):
    obj = {"algorithm": variant, "topology": {"kind": "ring", "nodes": nodes},
           "roundsPerComputation": 200, "seed": 31}
    obj.update(overrides)
    return parse_obj(obj)


# The id geometry, written out as the reference for kademlia's shortcuts and
# its lookup.

def common_prefix_len(a, b, bits):
    diff = a ^ b
    if diff == 0:
        return bits
    return bits - diff.bit_length()


def prefix_groups(node_id, bits):
    """For each prefix length l, the id range [lo, hi) of peers sharing
    the first l bits with node_id and differing at bit l."""
    groups = []
    for l in range(bits):
        width = bits - l - 1
        lo = ((node_id >> width) ^ 1) << width
        groups.append((lo, lo + (1 << width)))
    return groups


def scan_next_hop(node_id, shortcuts, target, bits):
    """The peer sharing the longest prefix with the target, provided it
    beats the node's own; the lower id wins a tie."""
    best, best_len = None, common_prefix_len(node_id, target, bits)
    for peer in shortcuts:
        length = common_prefix_len(peer, target, bits)
        if length > best_len or (length == best_len and best is not None
                                 and peer < best):
            best, best_len = peer, length
    return best


# routing primitives ----------------------------------------------------------

def test_ring_next_hop_takes_the_short_way():
    assert ring_next_hop(0, 3, 16) == 1
    assert ring_next_hop(0, 13, 16) == 15
    assert ring_next_hop(5, 4, 16) == 4
    # diametrically opposite: clockwise by convention
    assert ring_next_hop(0, 8, 16) == 1


@given(st.integers(2, 256), st.integers(0, 255), st.integers(0, 255))
def test_ring_walk_terminates_within_half_the_ring(n, u, t):
    u, t = u % n, t % n
    hops = 0
    node = u
    while node != t:
        node = ring_next_hop(node, t, n)
        hops += 1
        assert hops <= (n + 1) // 2
    assert hops == min((t - u) % n, (u - t) % n)


def test_common_prefix_len():
    assert common_prefix_len(0b1010, 0b1010, 4) == 4
    assert common_prefix_len(0b1010, 0b1011, 4) == 3
    assert common_prefix_len(0b1010, 0b0010, 4) == 0
    assert common_prefix_len(0, 1, 7) == 6


def test_prefix_groups_cover_everyone_else():
    bits = 4
    for node in range(16):
        groups = prefix_groups(node, bits)
        sizes = [hi - lo for lo, hi in groups]
        assert sizes == [8, 4, 2, 1]
        members = set()
        for lo, hi in groups:
            members |= set(range(lo, hi))
        assert members == set(range(16)) - {node}


@given(st.integers(0, 63))
def test_prefix_group_members_share_exactly_l_bits(node):
    bits = 6
    for l, (lo, hi) in enumerate(prefix_groups(node, bits)):
        for member in (lo, hi - 1):
            assert common_prefix_len(node, member, bits) == l


def kademlia_nodes(n, seed):
    config = dht_config("kademlia", n, roundsPerComputation=1)
    family = get_algorithm("kademlia")(config, StreamFactory(seed, 0))
    return family.bits, [family.create_node(u) for u in range(n)]


@pytest.mark.parametrize("seed", [3, 31])
@pytest.mark.parametrize("n", [2 ** k for k in range(1, 9)])
def test_kademlia_lookup_is_the_scan(n, seed):
    # Every (node, target) pair of the family's real shortcuts.
    bits, nodes = kademlia_nodes(n, seed)
    for node in nodes:
        for target in range(n):
            if target != node.id:
                assert node._kademlia_next_hop(target) == scan_next_hop(
                    node.id, node.shortcuts, target, bits)


def test_kademlia_lookup_is_the_scan_on_4096_nodes():
    bits, nodes = kademlia_nodes(4096, 5)
    rnd = random.Random(5)
    for _ in range(4000):
        node, target = rnd.choice(nodes), rnd.randrange(4096)
        if target != node.id:
            assert node._kademlia_next_hop(target) == scan_next_hop(
                node.id, node.shortcuts, target, bits)


# run-level -------------------------------------------------------------------

def resolved(doc):
    return [r.payload["hops"] for r in doc.records("queryResolved")]


def test_chord_mean_hops_tracks_the_ring_quarter():
    # uniform origin and target on a ring: expected distance ~ n/4
    doc = run(dht_config("chord", 16, roundsPerComputation=400,
                         computationsPerRun=4))
    hops = resolved(doc)
    assert len(hops) >= 1000
    assert max(hops) <= 8
    assert sum(hops) / len(hops) == pytest.approx(4.0, abs=0.5)


def test_chord_hops_never_exceed_half_the_ring():
    for n in (8, 32):
        doc = run(dht_config("chord", n))
        assert max(resolved(doc)) <= n // 2


def test_kademlia_hops_bounded_by_the_bit_width():
    doc = run(dht_config("kademlia", 64, roundsPerComputation=300,
                         computationsPerRun=3))
    hops = resolved(doc)
    assert len(hops) >= 800
    assert max(hops) <= 6


def test_kademlia_shortcut_lands_in_its_group():
    config = dht_config("kademlia", 32)
    family = get_algorithm("kademlia")(config, StreamFactory(31, 0))
    for node, picks in family.shortcuts.items():
        for pick, (lo, hi) in zip(picks, prefix_groups(node, family.bits)):
            assert lo <= pick < hi
    merged = family.adjacency()
    for node, picks in family.shortcuts.items():
        assert set(picks) <= set(merged[node])


@pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (16, 7), (128, 31),
                                    (1024, 5)])
def test_kademlia_shortcuts_match_one_draw_per_group(n, seed):
    # Reference: one scalar draw per (node, prefix group), node by node.
    config = dht_config("kademlia", n, roundsPerComputation=1)
    bits = (n - 1).bit_length()
    rng = np.random.Generator(StreamFactory(seed, 0).topology())
    expected = {u: tuple(lo + int(rng.integers(hi - lo))
                         for lo, hi in prefix_groups(u, bits))
                for u in range(n)}
    family = get_algorithm("kademlia")(config, StreamFactory(seed, 0))
    assert family.shortcuts == expected
    assert all(type(pick) is int for pick in family.shortcuts[n - 1])


def test_kademlia_shortcuts_count_toward_the_channel_cap(monkeypatch):
    # 128 ring nodes hold 256 channels; 7 shortcuts each add 896 more.
    monkeypatch.setattr(config_mod, "MAX_CHANNELS", 1000)
    assert dht_config("chord", 128).n_channels == 256
    with pytest.raises(ConfigError, match="topology: a kademlia overlay "
                                          "of 128 nodes has 1152 channels"):
        dht_config("kademlia", 128)


def explicit_ring(n):
    return {"adjacency": {str(u): [(u - 1) % n, (u + 1) % n]
                          for u in range(n)}}


def test_kademlia_on_an_explicit_ring_is_refused_at_topology(monkeypatch):
    # An explicit adjacency has no topology.nodes key to name.
    with pytest.raises(ConfigError) as refused:
        dht_config("kademlia", 6, topology=explicit_ring(6))
    assert str(refused.value) == ("topology: kademlia needs a power-of-two "
                                  "node count, got 6")
    # 8 ring nodes hold 16 channels; 3 shortcuts each add 24 more.
    monkeypatch.setattr(config_mod, "MAX_CHANNELS", 20)
    with pytest.raises(ConfigError) as refused:
        dht_config("kademlia", 8, topology=explicit_ring(8))
    assert str(refused.value) == ("topology: a kademlia overlay of 8 nodes "
                                  "has 40 channels, above the limit of 20")


@pytest.mark.parametrize("variant,n,rate,seed", [
    ("chord", 2, 1, 0), ("chord", 5, 3, 7), ("kademlia", 16, 2, 31),
    ("chord", 1000, 8, 5)])
def test_query_schedule_matches_scalar_draws(variant, n, rate, seed):
    # Reference: round by round, one scalar draw for the origin, then one
    # for the target.
    rounds = 40
    config = dht_config(variant, n, roundsPerComputation=rounds,
                        algorithmParams={"queriesPerRound": rate})
    rng = np.random.Generator(StreamFactory(seed, 0).workload())
    expected, qid = {}, 0
    for round_ in range(rounds):
        for _ in range(rate):
            origin, target = int(rng.integers(n)), int(rng.integers(n))
            expected.setdefault(origin, {}).setdefault(round_, []).append(
                (qid, target))
            qid += 1
    family = get_algorithm(variant)(config, StreamFactory(seed, 0))
    assert family.schedules == expected
    assert all(type(origin) is int and type(target) is int
               for origin, by_round in family.schedules.items()
               for queries in by_round.values() for _, target in queries)


@pytest.mark.parametrize("n", [1, 2, 3, 2 ** 31 + 1, 2 ** 32, 2 ** 32 + 1, 2 ** 33])
def test_one_vector_draw_takes_the_scalar_draws(n):
    # The schedule's scalar Stream.integers(n) calls take the draws numpy's
    # integers(n, size=k) takes, 32- and 64-bit, in order, for ring sizes
    # past any a config can reach too.
    for seed in range(5):
        scalar = Stream(StreamFactory(seed, 0).workload())
        vector = np.random.Generator(StreamFactory(seed, 0).workload()).integers(
            n, size=41).tolist()
        assert vector == [scalar.integers(n) for _ in range(41)]


def test_dht_schedule_is_capped_before_it_is_drawn():
    with pytest.raises(ConfigError, match="algorithmParams.queriesPerRound"):
        dht_config("chord", 4, roundsPerComputation=2,
                   algorithmParams={"queriesPerRound": MAX_SCHEDULED_QUERIES})
    dht_config("chord", 4, roundsPerComputation=1,
               algorithmParams={"queriesPerRound": MAX_SCHEDULED_QUERIES})


def test_kademlia_never_needs_the_xor_fallback():
    # Every hop the log shows takes the query strictly closer to its
    # target: the next node's XOR distance to it has fewer bits than the
    # forwarding node's, so no hop needs a fallback route.
    config = dht_config("kademlia", 32)
    family = get_algorithm("kademlia")(config, StreamFactory(config.seed, 0))
    targets = {qid: target for schedule in family.schedules.values()
               for queries in schedule.values() for qid, target in queries}
    doc = run(config)
    resolved = doc.payloads("queryResolved")
    assert resolved
    assert all(targets[r["query"]] == r["target"] for r in resolved)
    forwarded = doc.records("queryForwarded")
    assert forwarded
    for record in forwarded:
        target = targets[record.payload["query"]]
        assert ((record.payload["to"] ^ target).bit_length()
                < (record.node ^ target).bit_length()), record


def test_self_targeted_queries_resolve_in_zero_hops():
    doc = run(dht_config("chord", 8, roundsPerComputation=300))
    hops = resolved(doc)
    assert 0 in hops


def test_two_node_ring_resolves_in_at_most_one_hop():
    doc = run(dht_config("kademlia", 2, roundsPerComputation=50))
    assert set(resolved(doc)) <= {0, 1}
    assert 1 in resolved(doc)


def test_kademlia_beats_chord_on_the_same_workload():
    chord = run(dht_config("chord", 64))
    kademlia = run(dht_config("kademlia", 64))
    # same seed -> same (origin, target) workload for both variants
    assert mean_hops(kademlia)[0] < mean_hops(chord)[0]


def test_queries_per_round_zero_is_quiet():
    doc = run(dht_config("chord", 8, algorithmParams={"queriesPerRound": 0}))
    assert doc.records("queryResolved") == []
    assert doc.records("queryForwarded") == []


def test_workload_is_identical_across_variants():
    chord = run(dht_config("chord", 16))
    kademlia = run(dht_config("kademlia", 16))

    def targets(doc):
        return sorted((r.payload["query"], r.payload["target"])
                      for r in doc.records("queryResolved"))

    chord_t, kad_t = targets(chord), targets(kademlia)
    # both variants resolve the bulk of the shared workload within the
    # horizon; the paired queries must agree on their targets
    common = set(dict(chord_t)) & set(dict(kad_t))
    assert len(common) >= 0.9 * len(chord_t)
    for qid in common:
        assert dict(chord_t)[qid] == dict(kad_t)[qid]


def test_dht_run_builds_no_node_stream(monkeypatch):
    built = []
    original = StreamFactory.node

    def counting(self, node_id):
        built.append(node_id)
        return original(self, node_id)

    monkeypatch.setattr(StreamFactory, "node", counting)
    run(dht_config("kademlia", 64, roundsPerComputation=50))
    assert built == []
    # the probe itself sees streams a protocol does draw from
    run(parse_obj({"algorithm": "bitcoin",
                   "topology": {"kind": "complete", "nodes": 3},
                   "roundsPerComputation": 2, "seed": 1}))
    assert sorted(built) == [0, 1, 2]


def test_node_handles_same_round_queries_in_qid_order():
    config = dht_config("chord", 4, roundsPerComputation=5,
                        algorithmParams={"queriesPerRound": 8})
    family = get_algorithm("chord")(config, StreamFactory(31, 0))
    # 8 queries over 4 origins: some origin injects two in one round, none
    # of them for itself, so each is logged as one forward
    origin, round_, entries = next(
        (origin, round_, entries)
        for origin, schedule in sorted(family.schedules.items())
        for round_, entries in sorted(schedule.items())
        if len(entries) >= 2 and all(target != origin for _, target in entries))
    logger = RunLogger(None, 0)
    logger.round = round_
    ctx = NodeContext(origin, config.adjacency[origin], None, logger)
    ctx.round = round_
    family.create_node(origin).perform_computation(ctx)
    qids = [payload["query"] for payload in logger.document.payloads(TAG_FORWARDED)]
    assert qids == [qid for qid, _ in entries]
    assert qids == sorted(qids)


# metric ----------------------------------------------------------------------

def hops_doc(hop_counts):
    doc = LogDocument()
    for i, hops in enumerate(hop_counts):
        doc.append("queryResolved", LogRecord(0, 10, hops % 4,
                                              {"query": i, "target": 0,
                                               "hops": hops}))
    return doc


def test_mean_hops_pools_queries():
    value, count, series = mean_hops(hops_doc([2, 4]))
    assert value == 3.0
    assert count == 2
    assert series is None


def test_mean_hops_requires_resolutions():
    with pytest.raises(MetricError):
        mean_hops(LogDocument())
