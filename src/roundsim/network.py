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
it late draws the same values. A packet's delivery round is fixed when
it is staged: send round + sampled delay, clamped so delivery order
matches staging order on FIFO channels.

The engine stages each sender's whole out-buffer with one `Network.send`
call. An entry is a unicast, `(receiver, payload)`, or a broadcast,
`(None, payload)`, which goes to each of the sender's neighbours in
neighbour order. On a fixed law an entry builds one `Packet` and files
that same packet under each of its receivers. On a drawing law each
receiver gets its own packet from its channel, with its own loss trial
and delay. Packets are filed under their delivery round and receiver, so
delivery is one lookup per round and idle edges cost nothing; a packet
does not name its receiver, since the bucket key does. A broadcast reads
the sender's neighbour tuple from the adjacency it was built with.

Membership is held as `{neighbour id: the same id}` maps, which the engine
hands to each node's `NodeContext`, so the fabric and the node share them.
On a complete topology (every node's row lists every other id in
ascending order) all nodes share one map of every id, so membership costs
n entries, not n^2; a send to oneself, which that map would admit, is
refused by comparing ids. Any other adjacency has one map per node.

The per-message trace (`net.send`, `net.drop`, `net.deliver`) goes straight
into the run log: the fabric takes each enabled tag's record list from the
`RunLogger` once, and appends `SendRecord`, `DropRecord` and `DeliverRecord`
tuples to it. Each is stamped with the computation of the `StreamFactory`
the network is built with and the round the call is given (`send_round`
or `round_`); the fabric never reads the logger's position. No dict and
no `LogRecord` is built per message; `runlog.serialize` renders the
tuples through their templates.
"""

from collections import defaultdict
from dataclasses import dataclass
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


@dataclass(frozen=True)
class DelayDistribution:
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


def sample_delay(dist: DelayDistribution, rng) -> int:
    """Draw one delay; integer, always >= 1. rng is a `Stream` or a numpy
    `Generator`: both draw the same delay from the same stream."""
    if dist.kind == DETERMINISTIC:
        return dist.value
    if dist.kind == UNIFORM:
        return int(rng.integers(dist.min, dist.max + 1))
    return 1 + int(rng.poisson(dist.mean - 1.0))


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


class Channel:
    """Unicast link from one sender to one receiver.

    A channel whose law draws holds its stream as a `Stream` in rng; rng
    is None when the law never draws (deterministic delay, no loss).
    """

    __slots__ = ("sender", "receiver", "delay", "loss_probability", "fifo",
                 "last_delivery_round", "rng", "_enlam")

    def __init__(self, sender: int, receiver: int, delay: DelayDistribution,
                 loss_probability: float, streams: StreamFactory, fifo: bool = True):
        self.sender = sender
        self.receiver = receiver
        self.delay = delay
        self.loss_probability = loss_probability
        self.fifo = fifo
        self.last_delivery_round = 0
        self.rng = (Stream(streams.channel(sender, receiver))
                    if _draws(delay, loss_probability) else None)
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
        from .topology import lists_all_others  # deferred: see roundsim.topology

        self._adjacency = adjacency
        # node -> {neighbour id: the same id}, shared with the node's
        # context. On a complete topology every node has the one map of
        # all ids, self._everyone, which holds the node's own id too.
        ids = tuple(sorted(adjacency))
        if lists_all_others(ids, list(map(adjacency.get, ids))):
            self._everyone = {u: u for u in ids}
            self.neighbor_ids = dict.fromkeys(ids, self._everyone)
        else:
            self._everyone = None
            self.neighbor_ids = {u: {v: v for v in vs}
                                 for u, vs in adjacency.items()}
        self._fixed = not _draws(delay, loss_probability)
        self._value = delay.value
        self._open = partial(Channel, delay=delay, loss_probability=loss_probability,
                             streams=streams, fifo=fifo)
        self._buckets = defaultdict(dict)  # delivery round -> {receiver -> [Packet]}
        # Fabric tags are resolved once here, never per message: each is
        # that tag's record list, or None when the tag is off.
        self._send_log, self._drop_log, self._deliver_log = (
            None if logger is None else logger.records_for(kind.TAG)
            for kind in (SendRecord, DropRecord, DeliverRecord))
        # The computation every trace record is stamped with; a network
        # without a logger may have no streams.
        self._computation = None if logger is None else streams.computation
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
            if receiver not in neighbors or (receiver == sender
                                             and neighbors is self._everyone):
                raise _no_channel(sender, receiver)
            channel = self.channels[(sender, receiver)] = self._open(sender, receiver)
        return channel

    def send(self, sender: int, out, send_round: int) -> Optional[Packet]:
        """Stage one sender's out-buffer in order; returns the last packet
        built, or None if that message was lost or nothing was built.

        An entry is `(receiver, payload)` for one message, or
        `(None, payload)` for a broadcast: one message to each of the
        sender's neighbours, in neighbour order. On a fixed law an entry
        builds one packet, delivered `value` rounds later, and files it
        under each of its receivers; a broadcast from a sender without
        neighbours builds none. On a drawing law each message is built by
        its channel's `Channel.make_packet`; a broadcast walks the
        sender's channels, all opened on its first broadcast. An unknown
        edge raises mid-buffer, and the messages staged before it stay
        counted. The topology's shape was resolved when the network was
        built: a send looks up only the sender's map.
        """
        buckets, send_log = self._buckets, self._send_log
        computation = self._computation
        packet = None
        sent = dropped = 0
        try:
            if self._fixed:
                neighbors = self.neighbor_ids.get(sender, ())
                value = self._value
                delivery = send_round + value
                by_dest = buckets[delivery]
                for receiver, payload in out:
                    if receiver is not None:
                        if receiver not in neighbors or (
                                receiver == sender
                                and neighbors is self._everyone):
                            raise _no_channel(sender, receiver)
                        dests = (receiver,)
                    else:
                        dests = self._adjacency.get(sender, ())
                        if not dests:
                            continue
                    packet = _new_tuple(Packet, (sender, send_round, value,
                                                 delivery, payload))
                    for dest in dests:
                        packets = by_dest.get(dest)
                        if packets is None:
                            by_dest[dest] = [packet]
                        else:
                            packets.append(packet)
                        if send_log is not None:
                            send_log.append(_new_tuple(SendRecord, (
                                computation, delivery, sender, dest, send_round)))
                    sent += len(dests)
                return packet

            channels, drop_log, fans = self.channels, self._drop_log, self._fans
            for receiver, payload in out:
                if receiver is not None:
                    fan = (channels.get((sender, receiver))
                           or self.channel(sender, receiver),)
                else:
                    fan = fans.get(sender)
                    if fan is None:
                        fan = fans[sender] = [
                            self.channel(sender, dest)
                            for dest in self._adjacency.get(sender, ())]
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
                    by_dest = buckets[delivery]
                    packets = by_dest.get(dest)
                    if packets is None:
                        by_dest[dest] = [packet]
                    else:
                        packets.append(packet)
                    sent += 1
                    if send_log is not None:
                        send_log.append(_new_tuple(SendRecord, (
                            computation, delivery, sender, dest, send_round)))
        finally:  # an unknown edge raises mid-buffer; count what was staged
            self.total_sent += sent
            self.total_dropped += dropped
        return packet

    def enqueue(self, sender: int, receiver: int, payload, send_round: int) -> Optional[Packet]:
        """Stage one message; its packet, or None if it was lost. Kept
        because perfbench's tracer and its tests name it; the engine calls
        `send`."""
        return self.send(sender, ((receiver, payload),), send_round)

    def collect_deliverable(self, round_: int) -> dict:
        """Packets whose delivery round has arrived, as {receiver: [Packet]}.

        Receivers come in the order their first packet for this round was
        staged. Within a receiver, packets are ordered by (sender id,
        channel staging order): lists fill in staging order and the sort
        is stable. A fixed law needs the sort too, since senders may be
        staged in any order. Must be called once per round, in round order.
        """
        by_dest = self._buckets.pop(round_, None)
        if not by_dest:
            return {}
        deliver_log, computation = self._deliver_log, self._computation
        for dest, packets in by_dest.items():
            count = len(packets)
            self.total_delivered += count
            if count > 1:  # a single packet is in order already
                packets.sort(key=_by_source)
            if deliver_log is not None:
                deliver_log.extend([_new_tuple(DeliverRecord, (
                    computation, p[0], p[1], dest, round_)) for p in packets])
        return by_dest
