"""The fixed-law fabric against a per-message reference.

On a deterministic, lossless law `Network.send` stages a whole call under
one delivery round without opening channels. The reference here stages
every message on its own through `Channel.make_packet` into a plain
{round: {dest: [packets]}} map, and writes each trace record as the
payload dict the log shows. Both are driven with the same generated
topology, delay and out-buffers, and must agree on every delivery, every
trace record and every counter.
"""

from hypothesis import given, settings, strategies as st

from roundsim.network import Channel, DelayDistribution, Network
from roundsim.rng import StreamFactory
from roundsim.runlog import NET_DELIVER, NET_SEND, RunLogger

COMPUTATION = 1


class ReferenceFabric:
    def __init__(self, adjacency, delay):
        self.channels = {(u, v): Channel(u, v, delay, 0.0, streams=None)
                         for u, vs in adjacency.items() for v in vs}
        self.schedule = {}  # delivery round -> {dest: [Packet]}
        self.records = {NET_SEND: [], NET_DELIVER: []}
        self.sent = self.delivered = 0

    def send(self, sender, out, send_round):
        packet = None
        for dest, payload in out:
            packet = self.channels[(sender, dest)].make_packet(payload, send_round)
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


@st.composite
def adjacencies(draw):
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(("complete", "ring", "explicit")))
    if kind == "complete":
        return {u: tuple(v for v in range(n) if v != u) for u in range(n)}
    if kind == "ring":
        return {u: tuple(sorted({(u - 1) % n, (u + 1) % n})) for u in range(n)}
    # Explicit: sparse ids, neighbours in any order, self-loops allowed.
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    return {u: tuple(draw(st.lists(st.sampled_from(ids), max_size=n, unique=True)))
            for u in ids}


@st.composite
def fabric_runs(draw):
    adjacency = draw(adjacencies())
    delay = draw(st.integers(1, 5))
    senders = sorted(u for u, vs in adjacency.items() if vs)
    rounds = []
    for _ in range(draw(st.integers(1, 8))):
        buffers = []
        for u in senders:
            dests = draw(st.lists(st.sampled_from(adjacency[u]), max_size=5))
            if dests:
                buffers.append((u, dests))
        rounds.append(buffers)
    return adjacency, delay, rounds


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fabric_runs())
def test_fixed_law_fabric_matches_per_message_reference(case):
    adjacency, value, rounds = case
    delay = DelayDistribution.deterministic(value)
    logger = RunLogger([NET_SEND, NET_DELIVER])
    net = Network(adjacency, delay, 0.0, StreamFactory(9, COMPUTATION),
                  logger=logger)
    ref = ReferenceFabric(adjacency, delay)
    payload = 0
    # The last `value` rounds only deliver.
    for round_, buffers in enumerate(rounds + [[]] * value):
        # Destination order counts too: it is the order of first staging.
        assert list(net.collect_deliverable(round_).items()) == \
            list(ref.collect(round_).items())
        for sender, dests in buffers:
            out = [(dest, payload + i) for i, dest in enumerate(dests)]
            payload += len(out)
            assert net.send(sender, out, round_) == ref.send(sender, out, round_)
        assert (net.total_sent, net.total_delivered, net.in_flight) == \
            (ref.sent, ref.delivered, ref.sent - ref.delivered)
    assert net.in_flight == 0 and net.total_dropped == 0
    assert net.channels == {}
    for tag, want in ref.records.items():
        assert [(r.computation, r.round, r.node, r.payload)
                for r in logger.document.records(tag)] == want

