import random
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from roundsim.config import load_file
from roundsim.engine import run
from roundsim.errors import ConfigError, SimulationError
from roundsim.network import (Channel, CompleteAdjacency, DelayDistribution,
                              Network, NodeContext, Packet, sample_delay)
from roundsim.rng import CHANNEL, Stream, StreamFactory, make_stream
from roundsim.runlog import NET_DELIVER, NET_DROP, NET_SEND, RunLogger, serialize
from roundsim.seedmix import ChannelKeys

from logcheck import assert_same_log

N_STAT = 100_000
ALPHA = 0.01


def make_channel(delay, loss=0.0, fifo=True, seed=7):
    return Channel(0, 1, delay, loss, StreamFactory(seed, 0), fifo=fifo)


def draw_delays(dist, n, seed=11):
    rng = Stream(StreamFactory(seed, 0).channel(0, 1))
    return np.array([sample_delay(dist, rng) for _ in range(n)])


def test_deterministic_delay_fixes_delivery_round():
    chan = make_channel(DelayDistribution.deterministic(3))
    packet = chan.make_packet("m", send_round=10)
    assert packet.delay == 3
    assert packet.delivery_round == 13


def test_deterministic_delay_is_constant():
    samples = draw_delays(DelayDistribution.deterministic(4), 1000)
    assert set(samples.tolist()) == {4}


def test_uniform_delay_support_and_mean():
    samples = draw_delays(DelayDistribution.uniform(1, 10), N_STAT)
    assert samples.min() == 1
    assert samples.max() == 10
    assert abs(samples.mean() - 5.5) < 0.05


def test_uniform_delay_goodness_of_fit():
    samples = draw_delays(DelayDistribution.uniform(1, 10), N_STAT)
    counts = np.bincount(samples, minlength=11)[1:]
    _, p = stats.chisquare(counts)
    assert p > ALPHA


def test_poisson_delay_shifted_by_one():
    dist = DelayDistribution.poisson(3.0)
    samples = draw_delays(dist, N_STAT)
    assert samples.min() == 1
    assert abs(samples.mean() - 3.0) < 0.05


def test_poisson_delay_goodness_of_fit():
    samples = draw_delays(DelayDistribution.poisson(3.0), N_STAT) - 1
    # bin the tail so every expected count is comfortably large
    cap = 9
    clipped = np.minimum(samples, cap)
    counts = np.bincount(clipped, minlength=cap + 1)
    pmf = stats.poisson.pmf(np.arange(cap), 2.0)
    expected = np.append(pmf, 1.0 - pmf.sum()) * len(samples)
    _, p = stats.chisquare(counts, expected)
    assert p > ALPHA


def test_delay_always_at_least_one_round():
    for dist in (DelayDistribution.uniform(1, 3), DelayDistribution.poisson(1.2)):
        samples = draw_delays(dist, 20_000)
        assert samples.min() >= 1


def test_sample_delay_returns_a_python_int():
    rng = Stream(StreamFactory(11, 0).channel(0, 1))
    for dist in (DelayDistribution.deterministic(2),
                 DelayDistribution.uniform(1, 3), DelayDistribution.poisson(2.5)):
        for _ in range(20):
            assert type(sample_delay(dist, rng)) is int


def test_deterministic_lossless_channel_draws_nothing():
    chan = make_channel(DelayDistribution.deterministic(2))
    packets = [chan.make_packet("m", r) for r in range(5)]
    assert [p.delivery_round for p in packets] == [2, 3, 4, 5, 6]
    # The channel's next word is a fresh stream's first.
    assert chan.rng.word() == Stream(StreamFactory(7, 0).channel(0, 1)).word()


def test_loss_one_drops_everything():
    chan = make_channel(DelayDistribution.deterministic(1), loss=1.0)
    assert all(chan.make_packet("m", r) is None for r in range(100))


def test_loss_zero_drops_nothing():
    chan = make_channel(DelayDistribution.deterministic(1), loss=0.0)
    assert all(chan.make_packet("m", r) is not None for r in range(100))


def test_loss_frequency_matches_probability():
    chan = make_channel(DelayDistribution.deterministic(1), loss=0.5)
    dropped = sum(chan.make_packet("m", r) is None for r in range(N_STAT))
    assert abs(dropped / N_STAT - 0.5) < 0.01


def test_fifo_never_inverts_delivery_order():
    chan = make_channel(DelayDistribution.poisson(4.0))
    rng = np.random.default_rng(3)
    send_round = 0
    last = 0
    for _ in range(N_STAT):
        send_round += int(rng.integers(0, 3))
        packet = chan.make_packet("m", send_round)
        assert packet.delivery_round >= last
        assert packet.delivery_round > send_round
        last = packet.delivery_round


def test_non_fifo_channel_can_invert():
    chan = make_channel(DelayDistribution.uniform(1, 10), fifo=False)
    deliveries = [chan.make_packet("m", r).delivery_round for r in range(1000)]
    assert any(b < a for a, b in zip(deliveries, deliveries[1:]))


def test_fifo_clamp_preserves_sampled_delay_field():
    # a later short-delay packet is clamped, but its drawn delay is recorded
    chan = make_channel(DelayDistribution.uniform(1, 10), seed=1)
    packets = [chan.make_packet("m", r) for r in range(200)]
    clamped = [p for p in packets if p.delivery_round > p.send_round + p.delay]
    assert clamped, "uniform 1..10 over 200 sends should clamp at least once"


def make_network(adjacency, delay, loss=0.0, seed=5):
    return Network(adjacency, delay, loss, StreamFactory(seed, 0))


def test_collect_deliverable_buckets_by_round():
    net = make_network({0: (1,), 1: (0,)}, DelayDistribution.deterministic(3))
    net.enqueue(0, 1, "a", send_round=0)
    net.enqueue(0, 1, "b", send_round=0)
    net.enqueue(0, 1, "c", send_round=2)
    at3 = net.collect_deliverable(3)
    assert [p.payload for p in at3[1]] == ["a", "b"]
    assert net.collect_deliverable(4) == {}
    at5 = net.collect_deliverable(5)
    assert [p.payload for p in at5[1]] == ["c"]
    assert net.in_flight == 0


def test_delivery_sorted_by_sender_then_enqueue_order():
    adjacency = {0: (), 2: (0,), 7: (0,)}
    net = make_network(adjacency, DelayDistribution.deterministic(2))
    net.enqueue(7, 0, "x1", 0)
    net.enqueue(2, 0, "y1", 0)
    net.enqueue(7, 0, "x2", 0)
    delivered = net.collect_deliverable(2)[0]
    assert [(p.source, p.payload) for p in delivered] == [
        (2, "y1"), (7, "x1"), (7, "x2")]


def rows(by_dest):
    """One row per packet of a {receiver: [Packet]} map, in its order: the
    receiver, then the packet's fields."""
    return [(dest, p.source, p.send_round, p.delay, p.delivery_round, p.payload)
            for dest, packets in by_dest.items() for p in packets]


def test_arrivals_grouped_by_destination_then_stably_by_sender():
    nodes = range(6)
    adjacency = {u: tuple(v for v in nodes if v != u) for u in nodes}
    logger = RunLogger([NET_DELIVER], 0)
    net = Network(adjacency, DelayDistribution.uniform(1, 4), 0.0,
                  StreamFactory(3, 0), logger=logger)
    rnd = random.Random(4)
    sent, delivered = [], []  # sent: (receiver, packet) in enqueue order
    for round_ in range(40):
        logger.round = round_
        arrivals = net.collect_deliverable(round_)
        # reference: this round's packets by receiver in enqueue order,
        # then stable-sorted by sender
        expected = {}
        for dest, p in sent:
            if p.delivery_round == round_:
                expected.setdefault(dest, []).append(p)
        for packets in expected.values():
            packets.sort(key=lambda p: p.source)
        assert rows(arrivals) == rows(expected)
        delivered += [(p.source, dest, p.send_round)
                      for dest, packets in expected.items() for p in packets]
        if round_ < 30:
            for _ in range(rnd.randint(0, 8)):
                u = rnd.choice((0, 2, 3, 5))
                v = rnd.choice(adjacency[u])
                sent.append((v, net.enqueue(u, v, len(sent), round_)))
    assert net.in_flight == 0 and net.total_delivered == len(sent)
    assert len({dest for dest, _ in sent}) > 3
    assert [(r.payload["from"], r.payload["to"], r.payload["sentRound"])
            for r in logger.document.records(NET_DELIVER)] == delivered


def test_missing_channel_raises():
    net = make_network({0: (1,), 1: (0,)}, DelayDistribution.deterministic(1))
    with pytest.raises(ConfigError):
        net.enqueue(0, 0, "m", 0)


def test_channels_open_on_first_send():
    adjacency = {0: (1, 2), 1: (0,), 2: (0,)}

    def refuse_unknown_edges(net):
        for sender, receiver in ((1, 2), (0, 0), (5, 0)):
            with pytest.raises(ConfigError,
                               match=f"topology: no channel {sender}->{receiver}"):
                net.enqueue(sender, receiver, "m", 0)
        # Mid-buffer: the message staged before the unknown edge counts.
        with pytest.raises(ConfigError, match="no channel 0->0"):
            net.send([(0, [(1, "a"), (0, "b"), (2, "c")])], 2)
        assert (net.total_sent, net.in_flight) == (3, 3)

    # A drawing law opens a channel on its edge's first send, and none
    # for an edge it refuses.
    net = make_network(adjacency, DelayDistribution.uniform(1, 2))
    assert net.channels == {}
    net.enqueue(0, 2, "m", 0)
    net.enqueue(0, 2, "n", 1)
    assert list(net.channels) == [(0, 2)]
    refuse_unknown_edges(net)
    assert list(net.channels) == [(0, 2), (0, 1)]

    # A fixed law opens none, and files the staged message all the same.
    net = make_network(adjacency, DelayDistribution.deterministic(1))
    net.enqueue(0, 2, "m", 0)
    net.enqueue(0, 2, "n", 1)
    refuse_unknown_edges(net)
    assert net.channels == {}
    assert [p.payload for p in net.collect_deliverable(3)[1]] == ["a"]
    # Asked for one, it opens it.
    net.channel(0, 1)
    assert list(net.channels) == [(0, 1)]
    with pytest.raises(ConfigError, match="no channel 1->2"):
        net.channel(1, 2)


@pytest.mark.parametrize("delay", [DelayDistribution.deterministic(1),
                                   DelayDistribution.uniform(1, 2)],
                         ids=["fixed", "drawing"])
def test_complete_topology_refuses_a_send_to_oneself(delay):
    net = make_network(CompleteAdjacency(4), delay)
    # Every node holds the one map of all ids, its own among them.
    assert len({id(ids) for ids in net.neighbor_ids.values()}) == 1
    assert net.neighbor_ids[0] == {0: 0, 1: 1, 2: 2, 3: 3}
    with pytest.raises(ConfigError, match="topology: no channel 1->1"):
        net.send([(1, [(0, "a"), (1, "b"), (2, "c")])], 0)
    assert (net.total_sent, net.in_flight) == (1, 1)
    with pytest.raises(ConfigError, match="topology: no channel 2->2"):
        net.channel(2, 2)
    # Broadcasts go to the neighbours alone, in row order.
    net.send([(3, [(None, "d")])], 1)
    assert net.total_sent == 4
    assert sorted((dest, p.payload) for r in range(1, 5)
                  for dest, ps in net.collect_deliverable(r).items()
                  for p in ps) == [
        (0, "a"), (0, "d"), (1, "d"), (2, "d")]


def test_an_explicit_complete_adjacency_keeps_a_map_per_node():
    # Only the parser's CompleteAdjacency is shared; the same rows in a
    # plain dict are held row for row.
    net = make_network(dict(CompleteAdjacency(4)),
                       DelayDistribution.deterministic(1))
    assert len({id(ids) for ids in net.neighbor_ids.values()}) == 4
    assert net.neighbor_ids[0] == {1: 1, 2: 2, 3: 3}
    with pytest.raises(ConfigError, match="topology: no channel 1->1"):
        net.send([(1, [(0, "a"), (1, "b")])], 0)
    assert (net.total_sent, net.in_flight) == (1, 1)


@pytest.mark.parametrize("delay", [DelayDistribution.deterministic(1),
                                   DelayDistribution.uniform(1, 2)],
                         ids=["fixed", "drawing"])
def test_explicit_self_loop_still_carries_messages(delay):
    net = make_network({0: (0, 1), 1: (0,)}, delay)
    net.send([(0, [(0, "self"), (None, "all")])], 0)
    assert net.total_sent == 3
    with pytest.raises(ConfigError, match="no channel 1->1"):
        net.send([(1, [(1, "x")])], 0)


def test_network_counters():
    net = make_network({0: (1,), 1: (0,)}, DelayDistribution.deterministic(1),
                       loss=1.0)
    net.enqueue(0, 1, "m", 0)
    assert (net.total_sent, net.total_dropped) == (0, 1)
    net2 = make_network({0: (1,), 1: (0,)}, DelayDistribution.deterministic(1))
    net2.enqueue(0, 1, "m", 0)
    net2.collect_deliverable(1)
    assert (net2.total_sent, net2.total_delivered, net2.in_flight) == (1, 1, 0)


def test_identical_seeds_identical_traffic():
    def trace(seed):
        net = make_network({0: (1,), 1: (0,)}, DelayDistribution.poisson(2.5),
                           loss=0.2, seed=seed)
        out = []
        for r in range(50):
            p = net.enqueue(0, 1, r, r)
            out.append(None if p is None else p.delivery_round)
        return out

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


ROUND_LAWS = pytest.mark.parametrize("delay,loss", [
    (DelayDistribution.deterministic(2), 0.0),
    (DelayDistribution.poisson(2.5), 0.1),
], ids=["fixed", "drawing"])


def logged_fabric(adjacency, delay, loss):
    logger = RunLogger([NET_SEND, NET_DROP, NET_DELIVER], 0)
    return logger, Network(adjacency, delay, loss, StreamFactory(8, 0),
                           logger=logger)


def counters(net):
    return (net.in_flight, net.total_sent, net.total_dropped,
            net.total_delivered)


@ROUND_LAWS
def test_one_send_per_round_matches_a_send_per_sender_and_enqueues(delay, loss):
    # One call stages the whole round; a call per sender and a call per
    # message must give the same counters, deliveries and trace.
    nodes = range(6)
    adjacency = {u: tuple(v for v in nodes if v != u) for u in nodes}
    fabrics = [logged_fabric(adjacency, delay, loss) for _ in range(3)]
    (_, per_round), (_, per_sender), (_, per_message) = fabrics
    rnd = random.Random(6)
    payload_id = 0
    for round_ in range(40):
        for logger, _ in fabrics:
            logger.round = round_
        arrivals = [net.collect_deliverable(round_) for _, net in fabrics]
        assert rows(arrivals[0]) == rows(arrivals[1]) == rows(arrivals[2])
        outboxes = []
        for sender in nodes:
            out = []
            for _ in range(rnd.choice((0, 1, 5, 12))):
                dest = rnd.choice(adjacency[sender] + (None,))
                out.append((dest, payload_id))
                payload_id += 1
            if out:
                outboxes.append((sender, out))
        last = per_round.send(outboxes, round_)
        for sender, out in outboxes:
            per_sender.send([(sender, out)], round_)
            for dest, payload in out:
                packet = per_message.enqueue(sender, dest, payload, round_)
        if outboxes:  # the last packet built, or None if it was lost
            assert last == packet
        assert counters(per_round) == counters(per_sender) == \
            counters(per_message)
    assert per_round.total_delivered > 0
    assert (per_round.total_dropped > 0) == (loss > 0)
    for tag in (NET_SEND, NET_DROP, NET_DELIVER):
        want = fabrics[0][0].document.records(tag)
        assert all(logger.document.records(tag) == want
                   for logger, _ in fabrics[1:])
        assert want or (tag == NET_DROP and not loss)


@ROUND_LAWS
def test_an_unknown_edge_mid_round_stops_the_later_senders(delay, loss):
    # A ring: node 2 has no channel to 5. Senders 0 and 1 and node 2's
    # first message are staged and counted; node 2's later message and
    # senders 3 and 4 stage nothing.
    adjacency = {u: ((u - 1) % 6, (u + 1) % 6) for u in range(6)}
    logger, net = logged_fabric(adjacency, delay, loss)
    reference_logger, reference = logged_fabric(adjacency, delay, loss)
    outboxes = [(0, [(1, "a"), (None, "b")]), (1, [(None, "c")]),
                (2, [(3, "d"), (5, "e"), (1, "f")]), (3, [(None, "g")]),
                (4, [(5, "h")])]
    with pytest.raises(ConfigError, match="topology: no channel 2->5"):
        net.send(outboxes, 0)
    reference.send(outboxes[:2] + [(2, [(3, "d")])], 0)
    assert counters(net) == counters(reference)
    assert net.total_sent + net.total_dropped == 6
    assert sorted(net.channels) == sorted(reference.channels)
    assert all(sender < 3 for sender, _ in net.channels)
    for round_ in range(1, 40):
        assert rows(net.collect_deliverable(round_)) == \
            rows(reference.collect_deliverable(round_))
    assert net.in_flight == 0
    for tag in (NET_SEND, NET_DROP, NET_DELIVER):
        assert logger.document.records(tag) == \
            reference_logger.document.records(tag)


def test_fixed_delay_branch_equals_make_packet():
    # The fixed law builds its packets itself; a standalone channel of the
    # same law is the reference for each of them.
    delay = DelayDistribution.deterministic(3)
    net = Network({0: (1,), 1: ()}, delay, 0.0, streams=None)
    twin = make_channel(delay)
    rnd = random.Random(2)
    send_round = 0
    staged = []
    for i in range(200):
        send_round += rnd.choice((0, 0, 1, 2))
        payload = {"i": i}
        packet = net.enqueue(0, 1, payload, send_round)
        assert packet == twin.make_packet(payload, send_round)
        assert packet.payload is payload
        assert (packet.source, packet.send_round, packet.delay,
                packet.delivery_round) == (0, send_round, 3, send_round + 3)
        staged.append((send_round + 3, 1, 0, send_round, 3, send_round + 3,
                       payload))
    assert net.channels == {}
    # Every packet arrives for receiver 1, in its delivery round.
    assert [(round_, *row) for round_ in range(send_round + 4)
            for row in rows(net.collect_deliverable(round_))] == staged
    assert net.in_flight == 0
    assert Packet._fields == ("source", "send_round", "delay",
                              "delivery_round", "payload")


def test_fixed_law_entry_is_one_packet_filed_under_each_receiver():
    adjacency = {0: (3, 1, 2), 1: (0,), 2: (0,), 3: (0,)}
    net = make_network(adjacency, DelayDistribution.deterministic(2))
    payload = {"v": 1}
    packet = net.send([(0, [(None, payload)])], 5)
    assert packet.payload is payload
    assert (packet.source, packet.send_round, packet.delay,
            packet.delivery_round) == (0, 5, 2, 7)
    by_dest = net.collect_deliverable(7)
    assert list(by_dest) == [3, 1, 2]
    for packets in by_dest.values():
        assert len(packets) == 1 and packets[0] is packet

    # A mixed out-buffer keeps staging order at every receiver; each entry
    # is one packet wherever it is filed.
    net.send([(0, [(None, "a"), (1, "b"), (None, "c")])], 8)
    by_dest = net.collect_deliverable(10)
    assert {dest: [p.payload for p in packets]
            for dest, packets in by_dest.items()} == {
        3: ["a", "c"], 1: ["a", "b", "c"], 2: ["a", "c"]}
    assert list(by_dest) == [3, 1, 2]
    assert by_dest[3][0] is by_dest[1][0] is by_dest[2][0]
    assert by_dest[3][1] is by_dest[1][2] is by_dest[2][1]
    assert (net.total_sent, net.total_delivered) == (10, 10)


def test_fabric_records_read_as_stamped_payloads():
    nodes = range(5)
    adjacency = {u: tuple(v for v in nodes if v != u) for u in nodes}
    logger = RunLogger([NET_SEND, NET_DROP, NET_DELIVER], 2)
    net = Network(adjacency, DelayDistribution.poisson(2.0), 0.2,
                  StreamFactory(4, 2), logger=logger)
    rnd = random.Random(9)
    # (computation, round, node, payload) as the dict-per-message trace had them
    expected = {NET_SEND: [], NET_DROP: [], NET_DELIVER: []}
    for round_ in range(30):
        logger.round = round_
        for dest, packets in net.collect_deliverable(round_).items():
            expected[NET_DELIVER] += [
                (2, round_, None, {"from": p.source, "to": dest,
                                   "sentRound": p.send_round})
                for p in packets]
        for _ in range(rnd.randint(0, 6) if round_ < 20 else 0):
            u = rnd.choice(nodes)
            v = rnd.choice(adjacency[u])
            p = net.enqueue(u, v, None, round_)
            if p is None:
                expected[NET_DROP].append((2, round_, None, {"from": u, "to": v}))
            else:
                expected[NET_SEND].append((2, round_, None, {
                    "from": u, "to": v, "deliveryRound": p.delivery_round}))
    doc = logger.document
    for tag, want in expected.items():
        assert want
        assert [(r.computation, r.round, r.node, r.payload)
                for r in doc.records(tag)] == want
        assert doc.payloads(tag) == [payload for *_, payload in want]
    # payloads() builds a fresh dict per fabric record: changing it leaves
    # the log as it is.
    text = serialize(doc)
    doc.payloads(NET_SEND)[0]["to"] = -1
    assert doc.records(NET_SEND)[0].payload == expected[NET_SEND][0][3]
    assert_same_log(serialize(doc), text)


def test_fabric_stamps_its_computation_and_the_given_round():
    # The logger stays at round 0: the stamps come from the logger's
    # computation, not the streams', and from the round each call is given.
    logger = RunLogger([NET_SEND, NET_DROP, NET_DELIVER], 3)
    net = Network({0: (1,), 1: (0,)}, DelayDistribution.uniform(1, 3), 0.5,
                  StreamFactory(12, 5), logger=logger)
    sends = drops = 0
    for round_ in range(5, 25):
        net.collect_deliverable(round_)
        for _ in range(3):
            if net.enqueue(0, 1, None, round_) is None:
                drops += 1
            else:
                sends += 1
    for round_ in range(25, 30):
        net.collect_deliverable(round_)
    assert (logger.computation, logger.round) == (3, 0)
    doc = logger.document
    send, drop, deliver = (doc.records(tag)
                           for tag in (NET_SEND, NET_DROP, NET_DELIVER))
    assert (len(send), len(drop), len(deliver)) == (sends, drops, sends)
    assert sends and drops
    assert {r.computation for r in send + drop + deliver} == {3}
    assert sorted(r.round for r in send + drop) == [
        round_ for round_ in range(5, 25) for _ in range(3)]
    for r in send:
        assert r.round + 1 <= r.payload["deliveryRound"] <= r.round + 3
    for r in deliver:
        assert r.round > r.payload["sentRound"]
    assert sorted((r.payload["sentRound"], r.round) for r in deliver) == \
        sorted((r.round, r.payload["deliveryRound"]) for r in send)


def test_fixed_law_fabric_stamps_without_streams():
    # A fixed law never draws, so its network needs no StreamFactory even
    # when it logs.
    logger = RunLogger([NET_SEND], 3)
    net = Network({0: (1,), 1: (0,)}, DelayDistribution.deterministic(1), 0.0,
                  None, logger=logger)
    net.send(((0, ((1, "m"), (1, "n"))),), 4)
    assert [(r.computation, r.round, r.payload["deliveryRound"])
            for r in logger.document.records(NET_SEND)] == [(3, 4, 5)] * 2


# Channel keys: the batch keying against make_stream ------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def first_words(stream, count=16):
    return [stream.word() for _ in range(count)]


def reference_words(streams, sender, receiver, count=16):
    return first_words(Stream(make_stream(streams.seed, streams.computation,
                                          CHANNEL, sender, receiver)), count)


@pytest.mark.parametrize("name", ["bitcoin-lossy", "chord-lossy", "abp", "sdl"])
def test_every_channel_a_drawing_config_opens_is_make_streams(monkeypatch, name):
    tables, opened = {}, []
    build, open_channel = ChannelKeys.__init__, ChannelKeys.channel

    def keying(self, adjacency, streams):
        tables[id(self)] = (self, streams)  # holding self keeps ids unique
        build(self, adjacency, streams)

    def opening(self, sender, receiver):
        bit_generator = open_channel(self, sender, receiver)
        opened.append((tables[id(self)][1], sender, receiver,
                       bit_generator.state))
        return bit_generator

    monkeypatch.setattr(ChannelKeys, "__init__", keying)
    monkeypatch.setattr(ChannelKeys, "channel", opening)
    config = load_file(CONFIGS / f"{name}.json")
    run(config)
    assert len(tables) == config.computations_per_run
    assert opened
    for streams, sender, receiver, state in opened:
        want = make_stream(streams.seed, streams.computation, CHANNEL, sender,
                           receiver)
        assert (state["state"]["key"].tolist()
                == want.state["state"]["key"].tolist())
        got = np.random.Philox()
        got.state = state
        assert got.random_raw(16).tolist() == want.random_raw(16).tolist()


# Rows out of order, ids of one and of two words, and ids past 64 bits,
# which a key masks as make_stream does.
WIDE_IDS = [7, 2 ** 32 + 9, 0, 2 ** 64 - 1, 3, 2 ** 32, 2 ** 70 + 11]


def wide_adjacency(seed=3):
    pick = random.Random(seed)
    rows = {}
    for u in WIDE_IDS:
        row = [v for v in WIDE_IDS if v != u and pick.random() < 0.8]
        pick.shuffle(row)
        rows[u] = tuple(row)
    return rows


def test_channel_keys_follow_an_unsorted_explicit_adjacency_of_wide_ids():
    adjacency = wide_adjacency()
    assert any(list(row) != sorted(row) for row in adjacency.values())
    streams = StreamFactory(2 ** 40 + 1, 3)
    keys = ChannelKeys(adjacency, streams)
    edges = [(u, v) for u, row in adjacency.items() for v in row]
    random.Random(5).shuffle(edges)
    net = Network(adjacency, DelayDistribution.uniform(1, 3), 0.25, streams)
    for u, v in edges:
        want = make_stream(streams.seed, streams.computation, CHANNEL, u, v)
        assert (keys.channel(u, v).state["state"]["key"].tolist()
                == want.state["state"]["key"].tolist())
        assert first_words(net.channel(u, v).rng) == reference_words(streams, u, v)


def test_a_channel_opened_late_draws_what_an_early_one_draws():
    adjacency = wide_adjacency()
    law, loss, streams = DelayDistribution.poisson(2.5), 0.1, StreamFactory(4, 2)
    u, v = WIDE_IDS[1], adjacency[WIDE_IDS[1]][-1]
    early = Network(adjacency, law, loss, streams)
    words = first_words(early.channel(u, v).rng)
    # The other network keys its channels on another edge's first send,
    # broadcasts from every node for a while, and only then opens (u, v).
    late = Network(adjacency, law, loss, streams)
    for round_ in range(20):
        for sender in WIDE_IDS:
            if sender != u:
                late.send([(sender, [(None, round_)])], round_)
    assert (u, v) not in late.channels and len(late.channels) > 1
    assert first_words(late.channel(u, v).rng) == words


class ScannedRow(tuple):
    """An adjacency row that counts how often it is scanned."""

    def __new__(cls, values):
        row = super().__new__(cls, values)
        row.scans = 0
        return row

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def __contains__(self, value):
        self.scans += 1
        return super().__contains__(value)

    def index(self, *args):
        self.scans += 1
        return super().index(*args)


def test_opening_every_channel_scans_each_row_at_most_once():
    # Keying reads each row once; then a row's first opened channel maps
    # that row, and every later open is a lookup, so opening every channel
    # costs O(channels) in all.
    pick = random.Random(8)
    adjacency = {u: ScannedRow(pick.sample([v for v in range(60) if v != u], 40))
                 for u in range(60)}
    keys = ChannelKeys(adjacency, StreamFactory(1, 0))
    assert {row.scans for row in adjacency.values()} == {1}
    for row in adjacency.values():
        row.scans = 0
    edges = [(u, v) for u, row in adjacency.items() for v in tuple.__iter__(row)]
    pick.shuffle(edges)
    for u, v in edges:
        keys.channel(u, v)
    assert {row.scans for row in adjacency.values()} == {1}
    # A complete row's channel is found by arithmetic, with no scan.
    complete = CompleteAdjacency(30)
    for u in complete:
        complete[u] = ScannedRow(complete[u])
    keys = ChannelKeys(complete, StreamFactory(1, 0))
    for row in complete.values():
        row.scans = 0
    for u, row in complete.items():
        for v in tuple.__iter__(row):
            assert (keys.channel(u, v).state["state"]["key"].tolist()
                    == make_stream(1, 0, CHANNEL, u, v).state["state"]["key"].tolist())
    assert {row.scans for row in complete.values()} == {0}


# One edge rule: u reaches v when v is in u's map and, if v is u, u's row
# lists u. ------------------------------------------------------------------

NOT_A_NODE = 64  # above every id the strategy draws


@st.composite
def edge_rule_topologies(draw):
    """A complete topology of 1-8 nodes, a ring of 2-8 as the config
    parser builds it, or an explicit adjacency over sparse ids whose rows
    may list their own node. Every row counts its scans."""
    kind = draw(st.sampled_from(["complete", "ring", "explicit"]))
    if kind == "complete":
        adjacency = CompleteAdjacency(draw(st.integers(1, 8)))
    elif kind == "ring":
        n = draw(st.integers(2, 8))
        adjacency = {u: tuple(sorted({(u - 1) % n, (u + 1) % n}))
                     for u in range(n)}
    else:
        ids = draw(st.lists(st.integers(0, NOT_A_NODE - 1), min_size=1,
                            max_size=6, unique=True))
        adjacency = {u: tuple(draw(st.lists(st.sampled_from(ids), unique=True)))
                     for u in ids}
    for u in adjacency:
        adjacency[u] = ScannedRow(adjacency[u])
    return adjacency


def admits(stage, sender, receiver) -> bool:
    """Whether stage runs; it may only refuse the edge sender->receiver."""
    try:
        stage()
    except ConfigError as err:
        assert str(err) == f"topology: no channel {sender}->{receiver}"
        return False
    return True


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edge_rule_topologies())
def test_unicast_send_and_channel_follow_one_edge_rule(adjacency):
    fixed, drawing = (Network(adjacency, delay, 0.0, StreamFactory(1, 0))
                      for delay in (DelayDistribution.deterministic(1),
                                    DelayDistribution.uniform(1, 2)))
    for u, row in adjacency.items():
        ctx = NodeContext(u, row, None, RunLogger(), fixed.neighbor_ids[u])
        ctx.neighbors = row  # the context's own copy would not count scans
        listed = sorted(tuple.__iter__(row))
        for v in [*adjacency, NOT_A_NODE]:
            edge = tuple.__contains__(row, v)
            for dest in (v, np.int64(v), float(v)):
                scans = row.scans
                if edge:
                    ctx.unicast(dest, "m")
                    staged = ctx.out_buffer.pop()
                    assert staged == (v, "m") and type(staged[0]) is int
                else:
                    with pytest.raises(SimulationError) as err:
                        ctx.unicast(dest, "m")
                    assert str(err.value) == (f"node {u} has no channel to "
                                              f"{dest}; neighbors are {listed}")
                    assert ctx.out_buffer == []
                message = [(u, [(dest, "m")])]
                assert admits(partial(fixed.send, message, 0), u, dest) == edge
                if v != u:
                    # Only a send to oneself reads the row to test its edge;
                    # a refused unicast lists the row in its message.
                    assert row.scans == scans + (not edge)
                assert [admits(stage, u, dest) for stage in (
                    partial(drawing.send, message, 0),
                    partial(fixed.channel, u, dest),
                    partial(drawing.channel, u, dest))] == [edge] * 3


# Delivery order as staged ---------------------------------------------------

def staged_buckets(monkeypatch, config):
    """Every receiver's packet list of one run of config, as it reaches
    `collect_deliverable`, before that sorts it."""
    collect, buckets = Network.collect_deliverable, []

    def spy(self, round_):
        buckets.extend(list(packets)
                       for packets in self._buckets.get(round_, {}).values())
        return collect(self, round_)

    monkeypatch.setattr(Network, "collect_deliverable", spy)
    run(config)
    return buckets


def in_source_order(packets):
    return all(a.source <= b.source for a, b in zip(packets, packets[1:]))


@pytest.mark.parametrize("name", ["pbft", "raft", "chord", "bench/dht-500"])
def test_fixed_law_buckets_are_staged_in_source_order(monkeypatch, name):
    # One send per round, senders ascending, and one delay: each bucket
    # fills in source order, so delivery's sort moves nothing.
    config = load_file(CONFIGS / f"{name}.json")
    assert config.delay.kind == "deterministic" and config.loss_probability == 0
    buckets = staged_buckets(monkeypatch, config)
    assert any(len(packets) > 1 for packets in buckets)
    assert all(map(in_source_order, buckets))


def test_drawing_law_buckets_need_the_sort(monkeypatch):
    # Packets due in one round were staged in several rounds.
    buckets = staged_buckets(monkeypatch, load_file(CONFIGS / "bitcoin-lossy.json"))
    assert not all(map(in_source_order, buckets))
