"""The fabric against a per-message reference.

The reference stages every message on its own into a plain
{round: {dest: [packets]}} map and writes each trace record as the
payload dict the log shows. Both are driven with the same generated
topology, law and out-buffers, and must agree on every delivery, every
trace record and every counter. The out-buffers mix unicasts with
broadcast entries, `(None, payload)`, which the reference expands into
one message per neighbour, in neighbour order.

On a fixed law (deterministic delay, no loss) the reference builds each
packet with `Channel.make_packet`, while `Network.send` stages a whole
call under one delivery round without opening channels. On a drawing law
the reference does not go through `Channel` at all: it draws from each
edge's `np.random.Generator` (`StreamFactory.channel`) with numpy's own
samplers, by the formula written out here (loss trial, then delay, then
the FIFO clamp), while the fabric draws through roundsim's `Stream`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from roundsim.network import (DETERMINISTIC, UNIFORM, Channel,
                              CompleteAdjacency, DelayDistribution, Network,
                              Packet)
from roundsim.node import NodeContext
from roundsim.rng import StreamFactory
from roundsim.runlog import NET_DELIVER, NET_DROP, NET_SEND, RunLogger

COMPUTATION = 1
SEED = 9


class ReferenceFabric:
    """`packet_for(sender, dest, payload, send_round)` is one message's
    packet, or None when it is lost."""

    def __init__(self, adjacency, packet_for):
        self.adjacency = adjacency
        self.packet_for = packet_for
        self.schedule = {}  # delivery round -> {receiver: [Packet]}
        self.records = {NET_SEND: [], NET_DROP: [], NET_DELIVER: []}
        self.sent = self.delivered = self.dropped = 0

    def messages(self, sender, out):
        for dest, payload in out:
            if dest is None:
                for dest in self.adjacency[sender]:
                    yield dest, payload
            else:
                yield dest, payload

    def send(self, sender, out, send_round):
        packet = None
        for dest, payload in self.messages(sender, out):
            packet = self.packet_for(sender, dest, payload, send_round)
            if packet is None:
                self.records[NET_DROP].append((COMPUTATION, send_round, None, {
                    "from": sender, "to": dest}))
                self.dropped += 1
                continue
            by_dest = self.schedule.setdefault(packet.delivery_round, {})
            by_dest.setdefault(dest, []).append(packet)
            self.records[NET_SEND].append((COMPUTATION, send_round, None, {
                "from": sender, "to": dest,
                "deliveryRound": packet.delivery_round}))
            self.sent += 1
        return packet

    def collect(self, round_):
        by_dest = self.schedule.pop(round_, {})
        for dest, packets in by_dest.items():
            packets.sort(key=lambda p: p.source)
            self.delivered += len(packets)
            self.records[NET_DELIVER] += [(COMPUTATION, round_, None, {
                "from": p.source, "to": dest, "sentRound": p.send_round})
                for p in packets]
        return by_dest


def fixed_law_reference(adjacency, delay):
    channels = {(u, v): Channel(u, v, delay, 0.0, streams=None)
                for u, vs in adjacency.items() for v in vs}
    return ReferenceFabric(
        adjacency, lambda sender, dest, payload, send_round:
        channels[(sender, dest)].make_packet(payload, send_round))


def drawing_law_reference(adjacency, delay, loss, fifo):
    """The reference opens an edge's stream on the edge's first message;
    its `opened` holds those edges."""
    streams = StreamFactory(SEED, COMPUTATION)
    rngs, last = {}, {}  # per edge, opened on its first message

    def packet_for(sender, dest, payload, send_round):
        edge = (sender, dest)
        if edge not in rngs:
            rngs[edge], last[edge] = streams.channel(sender, dest), 0
        rng = rngs[edge]
        if loss > 0.0 and rng.random() < loss:
            return None
        if delay.kind == DETERMINISTIC:
            value = delay.value
        elif delay.kind == UNIFORM:
            value = int(rng.integers(delay.min, delay.max + 1))
        else:
            value = 1 + int(rng.poisson(delay.mean - 1.0))
        delivery = send_round + value
        if fifo:
            delivery = max(delivery, last[edge])
        last[edge] = delivery
        return Packet(source=sender, send_round=send_round, delay=value,
                      delivery_round=delivery, payload=payload)

    ref = ReferenceFabric(adjacency, packet_for)
    ref.opened = rngs.keys()
    return ref


@st.composite
def adjacencies(draw, max_nodes=12):
    n = draw(st.integers(2, max_nodes))
    kind = draw(st.sampled_from(("complete", "ring", "explicit")))
    if kind == "complete":
        return CompleteAdjacency(n)  # the parser's type, so the map is shared
    if kind == "ring":
        return {u: tuple(sorted({(u - 1) % n, (u + 1) % n})) for u in range(n)}
    # Explicit: sparse ids, neighbours in any order, self-loops allowed.
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    return {u: tuple(draw(st.lists(st.sampled_from(ids), max_size=n, unique=True)))
            for u in ids}


@st.composite
def send_rounds(draw, adjacency, max_rounds=8, max_buffer=5):
    """Out-buffers of unicasts and broadcasts (dest None); a sender with
    no neighbours gets broadcasts only, which expand to nothing."""
    rounds = []
    for _ in range(draw(st.integers(1, max_rounds))):
        buffers = []
        for u in sorted(adjacency):
            dest = st.none()
            if adjacency[u]:
                dest |= st.sampled_from(adjacency[u])
            dests = draw(st.lists(dest, max_size=max_buffer))
            if dests:
                buffers.append((u, dests))
        rounds.append(buffers)
    return rounds


def arrivals(by_dest):
    """One row per delivered packet, in delivery order: the receiver it
    was filed under, then its fields."""
    return [(dest, p.source, p.send_round, p.delay, p.delivery_round, p.payload)
            for dest, packets in by_dest.items() for p in packets]


def drive(net, ref, rounds, extra_rounds):
    """Send `rounds` of buffers on both, then only deliver for
    `extra_rounds` more, checking every delivery, return and counter."""
    payload = 0
    for round_, buffers in enumerate(rounds + [[]] * extra_rounds):
        # Receiver order counts too: it is the order of first staging.
        assert arrivals(net.collect_deliverable(round_)) == \
            arrivals(ref.collect(round_))
        for sender, dests in buffers:
            out = [(dest, payload + i) for i, dest in enumerate(dests)]
            payload += len(out)
            assert net.send(sender, out, round_) == ref.send(sender, out, round_)
        assert (net.total_sent, net.total_delivered, net.total_dropped,
                net.in_flight) == (ref.sent, ref.delivered, ref.dropped,
                                   ref.sent - ref.delivered)


def assert_same_records(logger, ref):
    for tag, want in ref.records.items():
        assert [(r.computation, r.round, r.node, r.payload)
                for r in logger.document.records(tag)] == want


@st.composite
def fixed_law_runs(draw):
    adjacency = draw(adjacencies())
    return adjacency, draw(st.integers(1, 5)), draw(send_rounds(adjacency))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fixed_law_runs())
def test_fixed_law_fabric_matches_per_message_reference(case):
    adjacency, value, rounds = case
    delay = DelayDistribution.deterministic(value)
    logger = RunLogger([NET_SEND, NET_DROP, NET_DELIVER])
    net = Network(adjacency, delay, 0.0, StreamFactory(SEED, COMPUTATION),
                  logger=logger)
    ref = fixed_law_reference(adjacency, delay)
    # The last `value` rounds only deliver.
    drive(net, ref, rounds, value)
    assert net.in_flight == 0 and net.total_dropped == 0
    assert net.channels == {}
    assert_same_records(logger, ref)


# Uniform spans: short ones, one where Lemire's method rejects often, and
# ones past 2^32, where it works on whole 64-bit words.
_SPANS = st.one_of(st.integers(0, 6), st.sampled_from((2 ** 31, 2 ** 32 - 1)),
                   st.integers(2 ** 32, 2 ** 40))


@st.composite
def drawing_laws(draw):
    """A law that draws: loss, a random delay, or both."""
    loss = draw(st.sampled_from((0.0, 0.1, 0.5)) | st.floats(0.0, 0.5))
    kind = draw(st.sampled_from(("deterministic", "uniform", "poisson")))
    if kind == "deterministic":
        loss = loss or 0.25
        delay = DelayDistribution.deterministic(draw(st.integers(1, 4)))
    elif kind == "uniform":
        lo = draw(st.integers(1, 4))
        delay = DelayDistribution.uniform(lo, lo + draw(_SPANS))
    else:
        # Rates below 10 take the multiplication method, from 10 up PTRS;
        # mean 1 is rate 0, which draws nothing.
        delay = DelayDistribution.poisson(
            draw(st.sampled_from((1.0, 10.999, 11.0)) | st.floats(1.0, 16.0)))
    return delay, loss


@st.composite
def drawing_law_runs(draw):
    adjacency = draw(adjacencies(max_nodes=6))
    delay, loss = draw(drawing_laws())
    return (adjacency, delay, loss, draw(st.booleans()),
            draw(send_rounds(adjacency, max_rounds=6)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(drawing_law_runs())
def test_drawing_law_fabric_matches_numpy_reference(case):
    adjacency, delay, loss, fifo, rounds = case
    logger = RunLogger([NET_SEND, NET_DROP, NET_DELIVER])
    net = Network(adjacency, delay, loss, StreamFactory(SEED, COMPUTATION),
                  fifo=fifo, logger=logger)
    ref = drawing_law_reference(adjacency, delay, loss, fifo)
    # Enough delivery-only rounds for every short delay; a long uniform
    # delay's packets stay in flight and show in the send records.
    drive(net, ref, rounds, 30)
    assert_same_records(logger, ref)
    assert net.channels.keys() == ref.opened


@pytest.mark.parametrize("delay,loss", [
    (DelayDistribution.deterministic(1), 0.0),
    (DelayDistribution.poisson(2.5), 0.1),
], ids=["fixed", "drawing"])
def test_sender_without_neighbors_stages_nothing(delay, loss):
    # Explicit topology: node 2 hears from 0 but has no channel out.
    adjacency = {0: (1, 2), 1: (0,), 2: ()}
    logger = RunLogger([NET_SEND, NET_DROP, NET_DELIVER])
    streams = StreamFactory(SEED, COMPUTATION)
    net = Network(adjacency, delay, loss, streams, logger=logger)
    ctx = NodeContext(2, adjacency[2], streams, logger, net.neighbor_ids[2])
    ctx.broadcast("x")
    assert ctx.out_buffer == []
    # A broadcast entry handed to the fabric directly expands to nothing.
    assert net.send(2, [(None, "x")], 0) is None
    assert (net.total_sent, net.total_dropped) == (0, 0)
    assert net.channels == {}
    assert not any(logger.document.records(tag)
                   for tag in (NET_SEND, NET_DROP, NET_DELIVER))
