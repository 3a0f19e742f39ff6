import pytest

from roundsim.config import parse_obj
from roundsim.engine import Engine, run
from roundsim.errors import MetricError
from roundsim.algorithms.consensus import (ConsensusFamily, PbftNode,
                                           mean_latency, pbft_thresholds)
from roundsim.network import Packet
from roundsim.node import NodeContext
from roundsim.runlog import LogDocument, LogRecord, RunLogger, serialize

from logcheck import assert_same_log
from test_engine import always_awake


def consensus_config(variant, **overrides):
    obj = {"algorithm": variant, "topology": {"kind": "complete", "nodes": 7},
           "roundsPerComputation": 100, "seed": 13}
    obj.update(overrides)
    return parse_obj(obj)


def latencies(doc):
    return [(r.payload["start"], r.payload["end"]) for r in doc.records("latency")]


def test_pbft_thresholds():
    # f = 2 at n = 7: 4 prepares from others, 5 commit votes with own
    assert pbft_thresholds(7) == (4, 5)
    assert pbft_thresholds(4) == (2, 3)
    assert pbft_thresholds(1) == (0, 1)


@pytest.mark.parametrize("delay", [1, 2, 5])
def test_pbft_latency_is_three_delays(delay):
    doc = run(consensus_config(
        "pbft", delay={"kind": "deterministic", "value": delay},
        roundsPerComputation=20 * delay))
    samples = latencies(doc)
    assert samples
    assert all(end - start == 3 * delay for start, end in samples)


@pytest.mark.parametrize("delay", [1, 2, 5])
def test_raft_latency_is_two_delays(delay):
    doc = run(consensus_config(
        "raft", delay={"kind": "deterministic", "value": delay},
        roundsPerComputation=20 * delay))
    samples = latencies(doc)
    assert samples
    assert all(end - start == 2 * delay for start, end in samples)


def test_instance_count_at_unit_delay():
    # one instance per latency+1 rounds: starts at 0, 3, 6, ... for raft
    # and 0, 4, 8, ... for pbft over a 1000-round computation
    raft = run(consensus_config("raft", roundsPerComputation=1000))
    pbft = run(consensus_config("pbft", roundsPerComputation=1000))
    assert len(latencies(raft)) == 333
    assert len(latencies(pbft)) == 250
    assert [s for s, _ in latencies(raft)] == [3 * k for k in range(333)]
    assert [s for s, _ in latencies(pbft)] == [4 * k for k in range(250)]


def test_single_node_commits_alone():
    for variant in ("pbft", "raft"):
        doc = run(consensus_config(
            variant, topology={"kind": "complete", "nodes": 1},
            roundsPerComputation=10))
        samples = latencies(doc)
        assert samples
        assert all(end - start == 1 for start, end in samples)


def test_commit_values_agree_across_nodes():
    # runs with jittered delays: every node that commits a sequence number
    # must commit the same value
    doc = run(consensus_config(
        "pbft", delay={"kind": "uniform", "min": 1, "max": 3},
        computationsPerRun=3, roundsPerComputation=120))
    assert doc.records("protocolError") == []
    seen = {}
    for rec in doc.records("commit"):
        key = (rec.computation, rec.payload["seq"])
        assert seen.setdefault(key, rec.payload["value"]) == rec.payload["value"]


def test_nonfaulty_pbft_commits_everywhere():
    config = consensus_config("pbft", roundsPerComputation=40)
    doc = run(config)
    by_node = {}
    for rec in doc.records("commit"):
        by_node.setdefault(rec.node, set()).add(rec.payload["seq"])
    full = by_node[0]
    assert len(full) >= 5
    # every replica eventually commits every instance the leader closed,
    # except possibly the last ones still in flight at the horizon
    for node, seqs in by_node.items():
        assert seqs >= {s for s in full if s < max(full) - 1}


def test_leader_instances_commit_in_order():
    doc = run(consensus_config(
        "raft", delay={"kind": "uniform", "min": 1, "max": 4},
        roundsPerComputation=200))
    seqs = [r.payload["seq"] for r in doc.records("latency")]
    assert seqs == sorted(seqs)
    assert seqs == list(range(len(seqs)))


def test_latency_bounded_by_max_delay():
    for variant, phases in (("pbft", 3), ("raft", 2)):
        doc = run(consensus_config(
            variant, delay={"kind": "uniform", "min": 1, "max": 4},
            roundsPerComputation=150))
        samples = latencies(doc)
        assert samples
        assert all(end - start <= phases * 4 for start, end in samples)
        assert all(end - start >= phases for start, end in samples)


def test_raft_beats_pbft_on_the_same_network():
    raft = run(consensus_config("raft", roundsPerComputation=400))
    pbft = run(consensus_config("pbft", roundsPerComputation=400))
    assert mean_latency(raft)[0] < mean_latency(pbft)[0]


def test_pbft_logs_a_conflicting_value_and_keeps_the_first():
    # Node 1 of 4 takes leader 0's pre-prepare of value 0 for seq 0, then a
    # prepare from node 2 that carries 5 for the same seq.
    logger = RunLogger(["protocolError"], 0)
    node = PbftNode(1, 4, 0)
    ctx = NodeContext(1, (0, 2, 3), streams=None, logger=logger)
    for round_, packet in ((1, Packet(0, 0, 1, 1, ("pp", 0, 0))),
                           (2, Packet(2, 1, 1, 2, ("p", 0, 5)))):
        logger.round = round_
        ctx.round, ctx.in_stream = round_, [packet]
        node.perform_computation(ctx)
    assert [(r.round, r.node, r.payload)
            for r in logger.document.records("protocolError")] == [
        (2, 1, {"seq": 0, "stored": 0, "got": 5})]
    assert node.values[0] == 0


def pbft_follower(*rounds):
    """Node 1 of 4 under leader 0, fed one list of payloads per round from
    round 1 on; returns the node, its context and its protocolError
    records as (round, payload)."""
    logger = RunLogger(["protocolError"], 0)
    node = PbftNode(1, 4, 0)
    ctx = NodeContext(1, (0, 2, 3), streams=None, logger=logger)
    for round_, payloads in enumerate(rounds, start=1):
        logger.round = round_
        ctx.round = round_
        ctx.in_stream = [Packet(0, round_ - 1, 1, round_, payload)
                         for payload in payloads]
        node.perform_computation(ctx)
    errors = [(r.round, r.payload)
              for r in logger.document.records("protocolError")]
    return node, ctx, errors


@pytest.mark.parametrize("kind", ["pp", "p", "c"])
def test_pbft_conflict_in_any_kind_logs_once_and_keeps_the_first(kind):
    node, ctx, errors = pbft_follower([("pp", 0, 0)], [(kind, 0, 5)])
    assert errors == [(2, {"seq": 0, "stored": 0, "got": 5})]
    assert node.values == {0: 0}
    # the conflicting message is still dispatched on its kind
    assert ctx.out_buffer.count((None, ("p", 0, 5))) == (kind == "pp")
    assert node.prepares.get(0, 0) == (kind == "p")
    assert node.commits.get(0, 0) == (kind == "c")


def test_pbft_equal_repeats_log_nothing():
    node, _, errors = pbft_follower([("pp", 0, 0)],
                                    [("pp", 0, 0), ("p", 0, 0), ("c", 0, 0)])
    assert errors == []
    assert node.values == {0: 0}
    assert (node.prepares[0], node.commits[0]) == (1, 1)


@pytest.mark.parametrize("kind", ["p", "c"])
def test_pbft_first_value_may_come_in_any_kind(kind):
    node, _, errors = pbft_follower([(kind, 3, 7)], [("pp", 3, 7)])
    assert errors == []
    assert node.values == {3: 7}
    assert 3 in node.open


PBFT_LAWS = {
    "fixed-1": {"delay": {"kind": "deterministic", "value": 1}},
    "fixed-4": {"delay": {"kind": "deterministic", "value": 4}},
    "uniform-1-4": {"delay": {"kind": "uniform", "min": 1, "max": 4}},
    "poisson-lossy": {"delay": {"kind": "poisson", "mean": 2.5},
                      "lossProbability": 0.2},
}


@pytest.mark.parametrize("n", [4, 7, 20])
@pytest.mark.parametrize("law", sorted(PBFT_LAWS))
def test_pbft_followers_asleep_between_arrivals_keep_the_log_bytes(
        monkeypatch, law, n):
    rounds, computations = 60, 2
    config = consensus_config(
        "pbft", topology={"kind": "complete", "nodes": n},
        algorithmParams={"leaderId": n // 2},
        logTags=["latency", "commit", "protocolError"],
        roundsPerComputation=rounds, computationsPerRun=computations,
        **PBFT_LAWS[law])
    engine = Engine(config)
    opted_in = serialize(engine.run())
    assert '"latency"' in opted_in
    if law == "fixed-4":
        # Followers sleep 10 of every 13 rounds: both computations together
        # take fewer calls than one with every node awake.
        assert engine.stats["computed"] < n * rounds
    always_awake(monkeypatch, ConsensusFamily)
    assert_same_log(serialize(run(config)), opted_in)


# metric ----------------------------------------------------------------------

def latency_doc(samples):
    doc = LogDocument()
    for i, (start, end) in enumerate(samples):
        doc.append("latency", LogRecord(0, end, 0, {"seq": i, "start": start,
                                                    "end": end}))
    return doc


def test_mean_latency_pools_samples():
    value, count, series = mean_latency(latency_doc([(0, 2), (2, 4)]))
    assert value == 2.0
    assert count == 2
    assert series is None


def test_mean_latency_requires_samples():
    with pytest.raises(MetricError):
        mean_latency(LogDocument())
