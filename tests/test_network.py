import random

import numpy as np
import pytest
from scipy import stats

from roundsim.errors import ConfigError
from roundsim.network import (Channel, DelayDistribution, Network, Packet,
                              sample_delay)
from roundsim.rng import StreamFactory
from roundsim.runlog import NET_DELIVER, NET_DROP, NET_SEND, RunLogger, serialize

from logcheck import assert_same_log

N_STAT = 100_000
ALPHA = 0.01


def make_channel(delay, loss=0.0, fifo=True, seed=7):
    return Channel(0, 1, delay, loss, StreamFactory(seed, 0), fifo=fifo)


def draw_delays(dist, n, seed=11):
    rng = StreamFactory(seed, 0).channel(0, 1)
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


def test_deterministic_lossless_channel_draws_nothing():
    chan = Channel(0, 1, DelayDistribution.deterministic(2), 0.0, streams=None)
    assert chan.rng is None
    packets = [chan.make_packet("m", r) for r in range(5)]
    assert [p.delivery_round for p in packets] == [2, 3, 4, 5, 6]


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
            net.send(0, [(1, "a"), (0, "b"), (2, "c")], 2)
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
    # Asked for one, it opens it; a channel that draws nothing has no stream.
    assert net.channel(0, 1).rng is None
    assert list(net.channels) == [(0, 1)]
    with pytest.raises(ConfigError, match="no channel 1->2"):
        net.channel(1, 2)


def complete(n):
    return {u: tuple(v for v in range(n) if v != u) for u in range(n)}


@pytest.mark.parametrize("delay", [DelayDistribution.deterministic(1),
                                   DelayDistribution.uniform(1, 2)],
                         ids=["fixed", "drawing"])
def test_complete_topology_refuses_a_send_to_oneself(delay):
    net = make_network(complete(4), delay)
    # Every node holds the one map of all ids, its own among them.
    assert len({id(ids) for ids in net.neighbor_ids.values()}) == 1
    assert net.neighbor_ids[0] == {0: 0, 1: 1, 2: 2, 3: 3}
    with pytest.raises(ConfigError, match="topology: no channel 1->1"):
        net.send(1, [(0, "a"), (1, "b"), (2, "c")], 0)
    assert (net.total_sent, net.in_flight) == (1, 1)
    with pytest.raises(ConfigError, match="topology: no channel 2->2"):
        net.channel(2, 2)
    # Broadcasts go to the neighbours alone, in row order.
    net.send(3, [(None, "d")], 1)
    assert net.total_sent == 4
    assert sorted((dest, p.payload) for r in range(1, 5)
                  for dest, ps in net.collect_deliverable(r).items()
                  for p in ps) == [
        (0, "a"), (0, "d"), (1, "d"), (2, "d")]


@pytest.mark.parametrize("delay", [DelayDistribution.deterministic(1),
                                   DelayDistribution.uniform(1, 2)],
                         ids=["fixed", "drawing"])
def test_explicit_self_loop_still_carries_messages(delay):
    net = make_network({0: (0, 1), 1: (0,)}, delay)
    net.send(0, [(0, "self"), (None, "all")], 0)
    assert net.total_sent == 3
    with pytest.raises(ConfigError, match="no channel 1->1"):
        net.send(1, [(1, "x")], 0)


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


def test_one_send_per_sender_matches_per_message_enqueues():
    nodes = range(6)
    adjacency = {u: tuple(v for v in nodes if v != u) for u in nodes}

    def fabric():
        logger = RunLogger([NET_SEND, NET_DROP, NET_DELIVER], 0)
        return logger, Network(adjacency, DelayDistribution.poisson(2.5), 0.1,
                               StreamFactory(8, 0), logger=logger)

    def counters(net):
        return (net.in_flight, net.total_sent, net.total_dropped,
                net.total_delivered)

    (log_a, batched), (log_b, single) = fabric(), fabric()
    rnd = random.Random(6)
    payload_id = 0
    for round_ in range(40):
        for log in (log_a, log_b):
            log.round = round_
        assert batched.collect_deliverable(round_) == \
            single.collect_deliverable(round_)
        for sender in nodes:
            out = []
            for _ in range(rnd.choice((0, 1, 5, 12))):
                out.append((rnd.choice(adjacency[sender]), payload_id))
                payload_id += 1
            if out:
                batched.send(sender, out, round_)
            for dest, payload in out:
                single.enqueue(sender, dest, payload, round_)
        assert counters(batched) == counters(single)
    assert batched.total_dropped > 0 and batched.total_delivered > 0
    for tag in (NET_SEND, NET_DROP, NET_DELIVER):
        assert log_a.document.records(tag) == log_b.document.records(tag)
        assert log_a.document.records(tag)


def test_fixed_delay_branch_equals_make_packet():
    # The fixed law builds its packets itself; a standalone channel of the
    # same law is the reference for each of them.
    delay = DelayDistribution.deterministic(3)
    net = Network({0: (1,), 1: ()}, delay, 0.0, streams=None)
    twin = Channel(0, 1, delay, 0.0, streams=None)
    assert twin.rng is None
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
    packet = net.send(0, [(None, payload)], 5)
    assert packet.payload is payload
    assert (packet.source, packet.send_round, packet.delay,
            packet.delivery_round) == (0, 5, 2, 7)
    by_dest = net.collect_deliverable(7)
    assert list(by_dest) == [3, 1, 2]
    for packets in by_dest.values():
        assert len(packets) == 1 and packets[0] is packet

    # A mixed out-buffer keeps staging order at every receiver; each entry
    # is one packet wherever it is filed.
    net.send(0, [(None, "a"), (1, "b"), (None, "c")], 8)
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
    # The logger stays at (0, 0): the stamps come from the network's own
    # StreamFactory and from the round each call is given.
    logger = RunLogger([NET_SEND, NET_DROP, NET_DELIVER])
    net = Network({0: (1,), 1: (0,)}, DelayDistribution.uniform(1, 3), 0.5,
                  StreamFactory(12, 3), logger=logger)
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
    assert (logger.computation, logger.round) == (0, 0)
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
