"""Network fabric: topology, channels, packets, delay and loss.

Channels are unicast and FIFO by default, and opened on their first send.
A channel whose law draws (loss, or a random delay) builds its stream as
it opens; the stream is keyed by (sender, receiver), so opening it late
draws the same values. A packet's delivery round is fixed when it is
staged: send round + sampled delay, clamped so delivery order matches
staging order on FIFO channels. A channel that never draws (deterministic
delay, no loss) delivers exactly `value` rounds later with no clamp: its
delay is constant and send rounds never go down, so it is FIFO as it is.
The engine stages each sender's whole out-buffer with one `Network.send`
call. Packets are filed under their delivery round and receiver, so
delivery is one lookup per round and idle channels cost nothing.

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
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import ConfigError
from .rng import StreamFactory
from .runlog import (NET_DELIVER, NET_DROP, NET_SEND, DeliverRecord,
                     DropRecord, RunLogger, SendRecord)

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
    """Draw one delay; integer, always >= 1."""
    if dist.kind == DETERMINISTIC:
        return dist.value
    if dist.kind == UNIFORM:
        return int(rng.integers(dist.min, dist.max + 1))
    return 1 + int(rng.poisson(dist.mean - 1.0))


class Packet(NamedTuple):
    """Envelope around an algorithm message while in transit.

    The fabric builds packets with ``tuple.__new__``, so making one runs
    no Python frame; fields read by name or by index.
    """

    source: int
    destination: int
    send_round: int
    delay: int
    delivery_round: int
    payload: object


_new_tuple = tuple.__new__
_by_source = itemgetter(0)


class Channel:
    """Unicast link from one sender to one receiver; rng is None when
    its law never draws (deterministic delay, no loss)."""

    __slots__ = ("sender", "receiver", "delay", "loss_probability", "fifo",
                 "last_delivery_round", "rng")

    def __init__(self, sender: int, receiver: int, delay: DelayDistribution,
                 loss_probability: float, streams: StreamFactory, fifo: bool = True):
        self.sender = sender
        self.receiver = receiver
        self.delay = delay
        self.loss_probability = loss_probability
        self.fifo = fifo
        self.last_delivery_round = 0
        draws = loss_probability > 0.0 or delay.kind != DETERMINISTIC
        self.rng = streams.channel(sender, receiver) if draws else None

    def make_packet(self, payload, send_round: int) -> Optional[Packet]:
        """Loss trial, then delay sample; None when the message is lost.

        The loss trial comes first so a lost message never consumes a
        delay sample.
        """
        if self.loss_probability > 0.0 and self.rng.random() < self.loss_probability:
            return None
        delay = sample_delay(self.delay, self.rng)
        delivery = send_round + delay
        if self.fifo and delivery < self.last_delivery_round:
            delivery = self.last_delivery_round
        self.last_delivery_round = delivery
        return _new_tuple(Packet, (self.sender, self.receiver, send_round,
                                   delay, delivery, payload))


class Network:
    """The channels one computation has sent on plus the in-flight schedule."""

    def __init__(self, adjacency: dict, delay: DelayDistribution,
                 loss_probability: float, streams: StreamFactory,
                 fifo: bool = True, logger: Optional[RunLogger] = None):
        self.channels = {}  # (sender, receiver) -> Channel, opened on first send
        self._adjacency = adjacency
        self._delay = delay
        self._open = partial(Channel, delay=delay, loss_probability=loss_probability,
                             streams=streams, fifo=fifo)
        self._buckets = defaultdict(dict)  # delivery round -> {receiver -> [Packet]}
        # Fabric tags are resolved once here, never per message: each is
        # that tag's record list, or None when the tag is off.
        self._send_log, self._drop_log, self._deliver_log = (
            None if logger is None else logger.records_for(tag)
            for tag in (NET_SEND, NET_DROP, NET_DELIVER))
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
        channel = self.channels.get((sender, receiver))
        if channel is None:
            if receiver not in self._adjacency.get(sender, ()):
                raise ConfigError("topology", f"no channel {sender}->{receiver}")
            channel = self.channels[(sender, receiver)] = self._open(sender, receiver)
        return channel

    def send(self, sender: int, out, send_round: int) -> Optional[Packet]:
        """Stage one sender's out-buffer, a sequence of (receiver, payload),
        in order; returns the last message's packet, or None if it was lost.

        A channel that never draws delivers exactly `value` rounds later;
        every other channel goes through `Channel.make_packet`.
        """
        channels, buckets = self.channels, self._buckets
        send_log, drop_log = self._send_log, self._drop_log
        computation = self._computation
        value = self._delay.value
        packet = None
        sent = dropped = 0
        try:
            for receiver, payload in out:
                channel = (channels.get((sender, receiver))
                           or self.channel(sender, receiver))
                if channel.rng is None:
                    delivery = send_round + value
                    packet = _new_tuple(Packet, (sender, receiver, send_round,
                                                 value, delivery, payload))
                else:
                    packet = channel.make_packet(payload, send_round)
                    if packet is None:
                        dropped += 1
                        if drop_log is not None:
                            drop_log.append(_new_tuple(DropRecord, (
                                computation, sender, receiver, send_round)))
                        continue
                    delivery = packet[4]
                by_dest = buckets[delivery]
                packets = by_dest.get(receiver)
                if packets is None:
                    by_dest[receiver] = [packet]
                else:
                    packets.append(packet)
                sent += 1
                if send_log is not None:
                    send_log.append(_new_tuple(SendRecord, (
                        computation, delivery, sender, receiver, send_round)))
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
        """Packets whose delivery round has arrived, grouped by destination.

        Destinations come in the order their first packet for this round
        was staged. Within a destination, packets are ordered by (sender
        id, channel staging order): lists fill in staging order and the
        sort is stable. Must be called once per round, in round order.
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
                    computation, p[0], p[2], dest, round_)) for p in packets])
        return by_dest
