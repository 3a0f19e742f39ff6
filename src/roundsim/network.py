"""Network fabric: topology, channels, packets, delay and loss.

A network is built for its law. A fixed law (deterministic delay, no
loss) draws nothing: every message of one `Network.send` call is
delivered exactly `value` rounds after the send, so the call resolves
that delivery round once and files all its messages under that round.
It opens no `Channel`. It needs no FIFO clamp either: its delay is
constant and send rounds never go down, so it is FIFO as it is.

Only a drawing law (loss, or a random delay) opens channels. Channels
are unicast and FIFO by default, and opened on their first send; each
builds its stream as it opens, keyed by (sender, receiver), so opening
it late draws the same values. The first channel a network opens keys
all of its computation's channels at once (`seedmix.ChannelKeys`):
roundsim's batch port of numpy's SeedSequence mixing, checked against
numpy, computes every edge's Philox key in one vectorised pass, 16 bytes
an edge, and a channel builds its Philox from its key alone. A fixed law
keys nothing. A packet's delivery round is fixed when it is staged: send
round + sampled delay, clamped so delivery order matches staging order
on FIFO channels.

The engine stages a round's sends with one `Network.send` call, which
takes the round's non-empty out-buffers as `(sender, out)` pairs in
ascending sender order, so the fabric's per-call set-up is paid once per
round, not once per sender. An entry is a unicast, `(receiver,
payload)`, or a broadcast, `(None, payload)`, which goes to each of the
sender's neighbours in neighbour order. On a fixed law an entry builds one `Packet` and files
that same packet under each of its receivers. On a drawing law each
receiver gets its own packet from its channel, with its own loss trial
and delay. Packets are filed under their delivery round and receiver, so
delivery is one lookup per round and idle edges cost nothing; a packet
does not name its receiver, since the bucket key does. A broadcast reads
the sender's neighbour tuple from the adjacency it was built with.

Membership is held as `{neighbour id: the same id}` maps, which the engine
hands to each node's `NodeContext`, so the fabric and the node share them.
One edge rule holds on every topology: u may send to v when v is in u's
map and, if v is u, u's adjacency row lists u. The row is read only for
a send to oneself, so a map may hold its own node's id without meaning a
self-loop. That lets the nodes of a complete topology, whose adjacency
the config parser built as a `CompleteAdjacency`, share one map of every
id, so membership costs n entries, not n^2. Any other adjacency, an
explicit one that lists every other node included, has one map per node.

The per-message trace (`net.send`, `net.drop`, `net.deliver`) goes straight
into the run log: the fabric takes each enabled tag's record list from the
`RunLogger` once, and appends `SendRecord`, `DropRecord` and `DeliverRecord`
tuples to it. Each is stamped with the logger's computation, read once
when the network is built, and the round the call is given (`send_round`
or `round_`); the fabric never reads the logger's round. No dict and
no `LogRecord` is built per message; `runlog.serialize` renders the
tuples through their templates.
"""

from collections import defaultdict
from functools import partial
from math import exp
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import ConfigError
from .rng import TO_DOUBLE, Stream, StreamFactory
from .runlog import DeliverRecord, DropRecord, RunLogger, SendRecord

DETERMINISTIC = "deterministic"
UNIFORM = "uniform"
POISSON = "poisson"


class DelayDistribution(NamedTuple):
    """Per-message delay law; every sample is an integer number of rounds >= 1.

    Poisson is shifted by one (1 + Poisson(mean - 1)) so the one-round
    minimum holds while the configured mean is preserved.
    """

    kind: str
    value: int = 0        # deterministic
    min: int = 0          # uniform, inclusive
    max: int = 0          # uniform, inclusive
    mean: float = 0.0     # poisson

    @staticmethod
    def deterministic(value: int) -> "DelayDistribution":
        return DelayDistribution(DETERMINISTIC, value=value)

    @staticmethod
    def uniform(lo: int, hi: int) -> "DelayDistribution":
        return DelayDistribution(UNIFORM, min=lo, max=hi)

    @staticmethod
    def poisson(mean: float) -> "DelayDistribution":
        return DelayDistribution(POISSON, mean=mean)

    def expected(self) -> float:
        if self.kind == DETERMINISTIC:
            return float(self.value)
        if self.kind == UNIFORM:
            return (self.min + self.max) / 2.0
        return self.mean

    def to_json(self) -> dict:
        if self.kind == DETERMINISTIC:
            return {"kind": DETERMINISTIC, "value": self.value}
        if self.kind == UNIFORM:
            return {"kind": UNIFORM, "min": self.min, "max": self.max}
        return {"kind": POISSON, "mean": self.mean}


def sample_delay(dist: DelayDistribution, rng: Stream) -> int:
    """Draw one delay from a `Stream`; integer, always >= 1."""
    if dist.kind == DETERMINISTIC:
        return dist.value
    if dist.kind == UNIFORM:
        return rng.integers(dist.min, dist.max + 1)
    return 1 + rng.poisson(dist.mean - 1.0)


class Packet(NamedTuple):
    """Envelope around an algorithm message while in transit.

    A packet names no receiver: it is filed under its receiver, and on a
    fixed law one packet is filed under every receiver of a broadcast.
    The fabric builds packets with ``tuple.__new__``, so making one runs
    no Python frame; fields read by name or by index.
    """

    source: int
    send_round: int
    delay: int
    delivery_round: int
    payload: object


_new_tuple = tuple.__new__
_by_source = itemgetter(0)


def _draws(delay: DelayDistribution, loss_probability: float) -> bool:
    """Whether a law draws: it loses messages or its delay is random."""
    return loss_probability > 0.0 or delay.kind != DETERMINISTIC


def _no_channel(sender, receiver) -> ConfigError:
    return ConfigError("topology", f"no channel {sender}->{receiver}")


class CompleteAdjacency(dict):
    """The adjacency of a complete topology over nodes 0..n-1: row u lists
    every id but u, ascending. The rows are two slices each of one tuple
    of ids, so the n^2 entries are references to n ints. The config
    parser builds one only for `{"kind": "complete", "nodes": n}`, so the
    type is the shape: no layer compares rows to learn it."""

    __slots__ = ()

    def __init__(self, n: int):
        ids = tuple(range(n))
        super().__init__((u, ids[:u] + ids[u + 1:]) for u in ids)


class Channel:
    """Unicast link from one sender to one receiver, holding its stream,
    keyed by (sender, receiver), as a `Stream` in rng. `streams.channel`
    gives its bit generator: a network passes its `seedmix.ChannelKeys`,
    and a `StreamFactory` gives the same words. `Network.send` opens
    channels only on a drawing law."""

    __slots__ = ("sender", "receiver", "delay", "loss_probability", "fifo",
                 "last_delivery_round", "rng", "_enlam")

    def __init__(self, sender: int, receiver: int, delay: DelayDistribution,
                 loss_probability: float, streams, fifo: bool = True):
        self.sender = sender
        self.receiver = receiver
        self.delay = delay
        self.loss_probability = loss_probability
        self.fifo = fifo
        self.last_delivery_round = 0
        self.rng = Stream(streams.channel(sender, receiver))
        # exp(-rate) when the delay is 1 + Poisson(rate) with 0 < rate < 10,
        # which make_packet draws inline; None for any other law.
        rate = delay.mean - 1.0
        self._enlam = (exp(-rate) if delay.kind == POISSON and 0.0 < rate < 10.0
                       else None)

    def make_packet(self, payload, send_round: int) -> Optional[Packet]:
        """Loss trial, then delay sample; None when the message is lost.

        The loss trial comes first so a lost message never consumes a
        delay sample. The loss trial and a poisson delay below mean 11
        read the stream's words here, the draws `Stream.random` and
        `Stream.poisson` make, without their method calls: on chain-lossy
        (2 vCPUs, 10 alternated runs) calling `rng.random()` and
        `sample_delay` instead gave back more than half of the speed-up
        over numpy's scalar draws. `tests/test_fabric_reference.py` checks
        both draws against numpy.
        """
        rng = self.rng
        loss = self.loss_probability
        if loss > 0.0 and (rng.word() >> 11) * TO_DOUBLE < loss:
            return None
        enlam = self._enlam
        if enlam is None:
            delay = sample_delay(self.delay, rng)
        else:
            word = rng.word
            delay = 1
            prod = (word() >> 11) * TO_DOUBLE
            while prod > enlam:
                delay += 1
                prod *= (word() >> 11) * TO_DOUBLE
        delivery = send_round + delay
        if self.fifo and delivery < self.last_delivery_round:
            delivery = self.last_delivery_round
        self.last_delivery_round = delivery
        return _new_tuple(Packet, (self.sender, send_round, delay, delivery,
                                   payload))


class Network:
    """The in-flight schedule of one computation, built for its law:
    a fixed law stages without channels, a drawing law through them."""

    def __init__(self, adjacency: dict, delay: DelayDistribution,
                 loss_probability: float, streams: StreamFactory,
                 fifo: bool = True, logger: Optional[RunLogger] = None):
        self.channels = {}  # (sender, receiver) -> Channel; drawing laws only
        # sender -> its channels in neighbour order, opened on its first
        # broadcast; drawing laws only
        self._fans = {}
        self._adjacency = adjacency
        # node -> {neighbour id: the same id}, shared with the node's
        # context. On a complete topology every node has the one map of
        # all ids, its own among them.
        if type(adjacency) is CompleteAdjacency:
            self.neighbor_ids = dict.fromkeys(adjacency, {u: u for u in adjacency})
        else:
            self.neighbor_ids = {u: {v: v for v in vs}
                                 for u, vs in adjacency.items()}
        self._fixed = not _draws(delay, loss_probability)
        self._value = delay.value
        self._streams = streams
        self._keys = None  # ChannelKeys, made as the first channel opens
        self._open = partial(Channel, delay=delay, loss_probability=loss_probability,
                             fifo=fifo)
        # delivery round -> {receiver -> [Packet]}
        self._buckets = defaultdict(partial(defaultdict, list))
        # Fabric tags are resolved once here, never per message: each is
        # that tag's record list, or None when the tag is off.
        self._send_log, self._drop_log, self._deliver_log = (
            None if logger is None else logger.records_for(kind.TAG)
            for kind in (SendRecord, DropRecord, DeliverRecord))
        # The computation every trace record is stamped with.
        self._computation = None if logger is None else logger.computation
        self.total_sent = 0
        self.total_delivered = 0
        self.total_dropped = 0

    @property
    def in_flight(self) -> int:
        """Messages staged and not yet delivered."""
        return self.total_sent - self.total_delivered

    def channel(self, sender: int, receiver: int) -> Channel:
        """The sender's channel to receiver, opened if it is not yet."""
        channel = self.channels.get((sender, receiver))
        if channel is None:
            neighbors = self.neighbor_ids.get(sender, ())
            if receiver not in neighbors or (
                    receiver == sender and sender not in self._adjacency[sender]):
                raise _no_channel(sender, receiver)
            if self._keys is None:
                from .seedmix import ChannelKeys  # loads numpy
                self._keys = ChannelKeys(self._adjacency, self._streams)
            channel = self.channels[(sender, receiver)] = self._open(
                sender, receiver, streams=self._keys)
        return channel

    def send(self, outboxes, send_round: int) -> Optional[Packet]:
        """Stage a round's out-buffers: `outboxes` holds `(sender, out)`
        pairs in ascending sender order, and each out-buffer is staged in
        order. Returns the last packet built, or None if that message was
        lost or nothing was built.

        An entry is `(receiver, payload)` for one message, or
        `(None, payload)` for a broadcast: one message to each of the
        sender's neighbours, in neighbour order. On a fixed law an entry
        builds one packet, delivered `value` rounds later, and files it
        under each of its receivers; a broadcast from a sender without
        neighbours builds none. On a drawing law each message is built by
        its channel's `Channel.make_packet`; a broadcast walks the
        sender's channels, all opened on its first broadcast. A unicast
        follows the edge rule (see the module docstring), on a fixed law
        here and on a drawing law as its channel opens. An unknown edge
        raises mid-buffer: the messages staged before it stay counted,
        and later senders stage nothing. The call resolves the law's
        state once, so each sender costs one map lookup, and each
        receiver's packet is filed with one append.
        """
        buckets, send_log = self._buckets, self._send_log
        computation, adjacency = self._computation, self._adjacency
        packet = None
        sent = dropped = 0
        try:
            if self._fixed:
                neighbor_ids, value = self.neighbor_ids, self._value
                delivery = send_round + value
                by_dest = buckets[delivery]
                for sender, out in outboxes:
                    neighbors = neighbor_ids.get(sender, ())
                    for receiver, payload in out:
                        if receiver is not None:
                            if receiver not in neighbors or (
                                    receiver == sender
                                    and sender not in adjacency[sender]):
                                raise _no_channel(sender, receiver)
                            dests = (receiver,)
                        else:
                            dests = adjacency.get(sender, ())
                            if not dests:
                                continue
                        packet = _new_tuple(Packet, (sender, send_round, value,
                                                     delivery, payload))
                        for dest in dests:
                            by_dest[dest].append(packet)
                            if send_log is not None:
                                send_log.append(_new_tuple(SendRecord, (
                                    computation, delivery, sender, dest,
                                    send_round)))
                        sent += len(dests)
                return packet

            channels, drop_log, fans = self.channels, self._drop_log, self._fans
            open_channel = self.channel
            for sender, out in outboxes:
                for receiver, payload in out:
                    if receiver is not None:
                        fan = (channels.get((sender, receiver))
                               or open_channel(sender, receiver),)
                    else:
                        fan = fans.get(sender)
                        if fan is None:
                            fan = fans[sender] = [
                                open_channel(sender, dest)
                                for dest in adjacency.get(sender, ())]
                    for channel in fan:
                        packet = channel.make_packet(payload, send_round)
                        if packet is None:
                            dropped += 1
                            if drop_log is not None:
                                drop_log.append(_new_tuple(DropRecord, (
                                    computation, sender, channel.receiver,
                                    send_round)))
                            continue
                        dest, delivery = channel.receiver, packet[3]
                        buckets[delivery][dest].append(packet)
                        sent += 1
                        if send_log is not None:
                            send_log.append(_new_tuple(SendRecord, (
                                computation, delivery, sender, dest,
                                send_round)))
        finally:  # an unknown edge raises mid-buffer; count what was staged
            self.total_sent += sent
            self.total_dropped += dropped
        return packet

    def enqueue(self, sender: int, receiver: int, payload, send_round: int) -> Optional[Packet]:
        """Stage one message; its packet, or None if it was lost. Kept
        because perfbench's tracer and its tests name it; the engine calls
        `send` once per round."""
        return self.send(((sender, ((receiver, payload),)),), send_round)

    def collect_deliverable(self, round_: int) -> dict:
        """Packets whose delivery round has arrived, as {receiver: [Packet]}.

        Receivers come in the order their first packet for this round was
        staged. Within a receiver, packets are ordered by (sender id,
        channel staging order): lists fill in staging order and the sort
        is stable. On a fixed law every packet due in a round was staged
        by one `send` call, whose senders ascend, so its lists arrive
        sorted; the sort stays for drawing laws, whose packets due in one
        round were staged in several rounds, and for callers that stage
        senders out of order. Must be called once per round, in round
        order.
        """
        by_dest = self._buckets.pop(round_, None)
        if not by_dest:
            return {}
        for packets in by_dest.values():
            if len(packets) > 1:  # a single packet is in order already
                packets.sort(key=_by_source)
        self.total_delivered += sum(map(len, by_dest.values()))
        deliver_log = self._deliver_log
        if deliver_log is not None:
            computation = self._computation
            deliver_log.extend([
                _new_tuple(DeliverRecord, (computation, p[0], p[1], dest, round_))
                for dest, packets in by_dest.items() for p in packets])
        return by_dest
