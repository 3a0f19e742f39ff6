import numpy as np
import pytest

from roundsim.config import parse_obj
from roundsim.engine import run
from roundsim.errors import SimulationError
from roundsim.node import NodeContext
from roundsim.runlog import RunLogger
from roundsim.algorithms.base import Algorithm, AlgorithmNode, register


def make_ctx(node_id=0, neighbors=(1, 2), tags=None):
    return NodeContext(node_id, neighbors, streams=None, logger=RunLogger(tags))


def test_broadcast_stages_one_copy_per_neighbor():
    ctx = make_ctx(neighbors=(3, 1, 2))
    ctx.broadcast("hello")
    assert ctx.out_buffer == [(3, "hello"), (1, "hello"), (2, "hello")]


def test_broadcast_without_neighbors_is_noop():
    ctx = make_ctx(neighbors=())
    ctx.broadcast("x")
    assert ctx.out_buffer == []


def test_broadcasts_keep_call_order():
    ctx = make_ctx(neighbors=(1, 2))
    ctx.broadcast("a")
    ctx.unicast(2, "b")
    ctx.broadcast("c")
    assert ctx.out_buffer == [(1, "a"), (2, "a"), (2, "b"), (1, "c"), (2, "c")]


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


def test_pop_on_empty_stream_raises():
    ctx = make_ctx()
    assert not ctx.in_stream
    with pytest.raises(SimulationError):
        ctx.pop_in_stream()


def test_in_stream_drains_fifo():
    ctx = make_ctx()
    ctx.in_stream.extend(["p1", "p2", "p3"])
    assert [ctx.pop_in_stream() for _ in range(3)] == ["p1", "p2", "p3"]
    assert not ctx.in_stream


def test_log_respects_tag_filter():
    logger = RunLogger(("keep",))
    logger.set_position(2, 7)
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
        while ctx.in_stream:
            packet = ctx.pop_in_stream()
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


def test_unread_packets_survive_to_the_next_round():
    # receiver that reads at most one packet per round
    @register
    class _LazyFamily(Algorithm):
        variants = ("lazy-probe",)

        def create_node(self, node_id):
            return _LazyNode()

    class _LazyNode(AlgorithmNode):
        def perform_computation(self, ctx):
            if ctx.id == 0 and ctx.round < 3:
                ctx.unicast(1, ctx.round)
            elif ctx.id == 1 and ctx.in_stream:
                ctx.log("seen", ctx.pop_in_stream().payload)

    config = parse_obj({"algorithm": "lazy-probe", "topology": {"adjacency": {"0": [1], "1": [0]}},
                   "roundsPerComputation": 8, "seed": 1})
    doc = run(config)
    assert [r.payload for r in doc.records("seen")] == [0, 1, 2]
