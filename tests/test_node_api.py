import numpy as np
import pytest

from roundsim.config import parse_obj
from roundsim.engine import run
from roundsim.errors import SimulationError
from roundsim.network import (CompleteAdjacency, DelayDistribution, Network,
                              NodeContext)
from roundsim.rng import StreamFactory
from roundsim.runlog import NET_SEND, RunLogger
from roundsim.algorithms.base import Algorithm, AlgorithmNode, register


def make_ctx(node_id=0, neighbors=(1, 2), tags=None):
    return NodeContext(node_id, neighbors, streams=None, logger=RunLogger(tags))


# A fixed law stages without channels, a drawing one through them: a
# uniform delay of exactly one round draws nothing yet takes the channels.
LAWS = [DelayDistribution.deterministic(1), DelayDistribution.uniform(1, 1)]


def fabric_messages(ctx, delay):
    """The messages `Network.send` makes of ctx's out-buffer, as
    (receiver, payload) in staging order: the `net.send` trace gives the
    receivers in order and each receiver's packets give the payloads."""
    logger = RunLogger([NET_SEND])
    adjacency = {ctx.id: ctx.neighbors, **{v: () for v in ctx.neighbors}}
    net = Network(adjacency, delay, 0.0, StreamFactory(1, 0), logger=logger)
    net.send([(ctx.id, ctx.out_buffer)], 0)
    arrivals = {dest: iter(packets)
                for dest, packets in net.collect_deliverable(1).items()}
    messages = [(rec.destination, next(arrivals[rec.destination]).payload)
                for rec in logger.document.records(NET_SEND)]
    assert all(next(rest, None) is None for rest in arrivals.values())
    assert net.total_sent == len(messages)
    return messages


def test_broadcast_stages_one_copy_per_neighbor():
    ctx = make_ctx(neighbors=(3, 1, 2))
    ctx.broadcast("hello")
    for delay in LAWS:
        assert fabric_messages(ctx, delay) == [(3, "hello"), (1, "hello"),
                                               (2, "hello")]


def test_broadcast_without_neighbors_is_noop():
    ctx = make_ctx(neighbors=())
    ctx.broadcast("x")
    assert ctx.out_buffer == []
    for delay in LAWS:
        assert fabric_messages(ctx, delay) == []


def test_broadcasts_keep_call_order():
    ctx = make_ctx(neighbors=(1, 2))
    ctx.broadcast("a")
    ctx.unicast(2, "b")
    ctx.broadcast("c")
    for delay in LAWS:
        assert fabric_messages(ctx, delay) == [(1, "a"), (2, "a"), (2, "b"),
                                               (1, "c"), (2, "c")]


def test_unicast_requires_a_channel():
    ctx = make_ctx(neighbors=(1,))
    with pytest.raises(SimulationError):
        ctx.unicast(5, "x")


def test_unicast_stages_the_neighbor_id():
    ctx = make_ctx(neighbors=(1, 2))
    ctx.unicast(np.int64(2), "a")
    ctx.unicast(2, "b")
    assert ctx.out_buffer == [(2, "a"), (2, "b")]
    assert [type(dest) for dest, _ in ctx.out_buffer] == [int, int]


def complete_contexts(n, delay):
    adjacency = CompleteAdjacency(n)
    net = Network(adjacency, delay, 0.0, StreamFactory(1, 0))
    return net, {u: NodeContext(u, adjacency[u], None, RunLogger(),
                                net.neighbor_ids[u]) for u in adjacency}


@pytest.mark.parametrize("delay", LAWS, ids=["fixed", "drawing"])
def test_complete_topology_unicast_stages_the_int_id(delay):
    net, ctxs = complete_contexts(5, delay)
    ctx = ctxs[1]
    ctx.unicast(np.int64(3), "a")
    ctx.unicast(3.0, "b")
    assert ctx.out_buffer == [(3, "a"), (3, "b")]
    assert [type(dest) for dest, _ in ctx.out_buffer] == [int, int]
    net.send([(1, ctx.out_buffer)], 0)
    assert [p.payload for p in net.collect_deliverable(1)[3]] == ["a", "b"]


def test_complete_topology_refuses_a_unicast_to_oneself():
    _, ctxs = complete_contexts(5, LAWS[0])
    for own in (2, np.int64(2), 2.0):
        with pytest.raises(SimulationError) as err:
            ctxs[2].unicast(own, "x")
        assert str(err.value) == (f"node 2 has no channel to {own}; "
                                  f"neighbors are [0, 1, 3, 4]")
    assert ctxs[2].out_buffer == []
    # The map is shared: node 1 may still reach node 2.
    ctxs[1].unicast(2, "y")
    assert ctxs[1].out_buffer == [(2, "y")]


def test_explicit_self_loop_still_unicasts():
    adjacency = {0: (0, 1), 1: (0,)}
    net = Network(adjacency, LAWS[0], 0.0, StreamFactory(1, 0))
    ctx = NodeContext(0, adjacency[0], None, RunLogger(), net.neighbor_ids[0])
    ctx.unicast(0, "self")
    assert ctx.out_buffer == [(0, "self")]
    with pytest.raises(SimulationError, match=r"neighbors are \[0\]"):
        NodeContext(1, adjacency[1], None, RunLogger(),
                    net.neighbor_ids[1]).unicast(1, "x")


def test_log_respects_tag_filter():
    logger = RunLogger(("keep",), 2)
    logger.round = 7
    ctx = NodeContext(4, (1, 2), streams=None, logger=logger)
    ctx.log("keep", {"v": 1})
    ctx.log("drop", {"v": 2})
    doc = logger.document
    assert doc.tags() == ["keep"]
    [rec] = doc.records("keep")
    assert (rec.computation, rec.round, rec.node) == (2, 7, 4)
    assert rec.payload == {"v": 1}


# A scripted probe protocol: node 0 sends its round number to node 1 every
# round; every node journals what it receives. Registered once per session.
@register
class _ProbeFamily(Algorithm):
    variants = ("probe",)

    def create_node(self, node_id: int) -> AlgorithmNode:
        return _ProbeNode()


class _ProbeNode(AlgorithmNode):
    def perform_computation(self, ctx: NodeContext) -> None:
        for packet in ctx.in_stream:
            ctx.log("got", {"from": packet.source, "value": packet.payload,
                            "sentAt": packet.send_round})
        if ctx.id == 0:
            ctx.unicast(1, ctx.round)


def probe_config(**overrides):
    base = {"algorithm": "probe", "topology": {"adjacency": {"0": [1], "1": [0]}},
            "delay": {"kind": "deterministic", "value": 2},
            "roundsPerComputation": 6, "seed": 3}
    base.update(overrides)
    return parse_obj(base)


def test_messages_arrive_after_their_delay():
    doc = run(probe_config())
    got = [(r.round, r.payload) for r in doc.records("got")]
    # sent at rounds 0..5, delay 2 -> received at 2..5 within the computation
    assert got == [
        (2, {"from": 0, "value": 0, "sentAt": 0}),
        (3, {"from": 0, "value": 1, "sentAt": 1}),
        (4, {"from": 0, "value": 2, "sentAt": 2}),
        (5, {"from": 0, "value": 3, "sentAt": 3}),
    ]


def test_same_round_send_is_invisible_to_receiver():
    doc = run(probe_config(delay={"kind": "deterministic", "value": 1}))
    assert all(r.payload["sentAt"] < r.round for r in doc.records("got"))


def test_unread_packets_are_gone_next_round():
    # node 0 sends three packets in round 0; node 1 reads only the first
    @register
    class _LazyFamily(Algorithm):
        variants = ("lazy-probe",)

        def create_node(self, node_id):
            return _LazyNode()

    class _LazyNode(AlgorithmNode):
        def perform_computation(self, ctx):
            if ctx.id == 0 and ctx.round == 0:
                for value in "abc":
                    ctx.unicast(1, value)
            elif ctx.id == 1 and ctx.in_stream:
                ctx.log("seen", [len(ctx.in_stream), ctx.in_stream[0].payload])

    config = parse_obj({"algorithm": "lazy-probe", "topology": {"adjacency": {"0": [1], "1": [0]}},
                   "roundsPerComputation": 8, "seed": 1})
    doc = run(config)
    assert [(r.round, r.payload) for r in doc.records("seen")] == [(1, [3, "a"])]
