"""Network fabric: topology, channels, packets, delay and loss.

Channels are unicast and FIFO by default, and opened on their first send.
A channel whose law draws (loss, or a random delay) builds its stream as
it opens; the stream is keyed by (sender, receiver), so opening it late
draws the same values. A packet's delivery round is fixed at enqueue time
(send round + sampled delay, clamped so delivery order matches enqueue
order on FIFO channels), and the packet is filed under that round and its
receiver. Delivery is one lookup per round, so idle channels cost nothing.
"""

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Optional

from .errors import ConfigError
from .rng import StreamFactory
from .runlog import NET_DELIVER, NET_DROP, NET_SEND, RunLogger

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


@dataclass(slots=True)
class Packet:
    """Envelope around an algorithm message while in transit."""

    source: int
    destination: int
    send_round: int
    delay: int
    delivery_round: int
    payload: object


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
        return Packet(self.sender, self.receiver, send_round, delay, delivery,
                      payload)


class Network:
    """The channels one computation has sent on plus the in-flight schedule."""

    def __init__(self, adjacency: dict, delay: DelayDistribution,
                 loss_probability: float, streams: StreamFactory,
                 fifo: bool = True, logger: Optional[RunLogger] = None):
        self.channels = {}  # (sender, receiver) -> Channel, opened on first send
        self._adjacency = adjacency
        self._open = partial(Channel, delay=delay, loss_probability=loss_probability,
                             streams=streams, fifo=fifo)
        self._buckets = defaultdict(dict)  # delivery round -> {receiver -> [Packet]}
        self._logger = logger
        self.in_flight = 0
        self.total_sent = 0
        self.total_delivered = 0
        self.total_dropped = 0

    def channel(self, sender: int, receiver: int) -> Channel:
        channel = self.channels.get((sender, receiver))
        if channel is None:
            if receiver not in self._adjacency.get(sender, ()):
                raise ConfigError("topology", f"no channel {sender}->{receiver}")
            channel = self.channels[(sender, receiver)] = self._open(sender, receiver)
        return channel

    def enqueue(self, sender: int, receiver: int, payload, send_round: int) -> Optional[Packet]:
        channel = self.channel(sender, receiver)
        packet = channel.make_packet(payload, send_round)
        log = self._logger
        if packet is None:
            self.total_dropped += 1
            if log is not None and log.enabled(NET_DROP):
                log.append(NET_DROP, {"from": sender, "to": receiver})
            return None
        self._buckets[packet.delivery_round].setdefault(receiver, []).append(packet)
        self.in_flight += 1
        self.total_sent += 1
        if log is not None and log.enabled(NET_SEND):
            log.append(NET_SEND, {"from": sender, "to": receiver,
                                  "deliveryRound": packet.delivery_round})
        return packet

    def collect_deliverable(self, round_: int) -> dict:
        """Packets whose delivery round has arrived, grouped by destination.

        Destinations come in the order their first packet for this round
        was enqueued. Within a destination, packets are ordered by (sender
        id, channel enqueue order): lists fill in enqueue order and the
        sort is stable. Must be called once per round, in round order.
        """
        by_dest = self._buckets.pop(round_, None)
        if not by_dest:
            return {}
        log = self._logger
        deliver_enabled = log is not None and log.enabled(NET_DELIVER)
        for dest, packets in by_dest.items():
            self.in_flight -= len(packets)
            self.total_delivered += len(packets)
            packets.sort(key=attrgetter("source"))
            if deliver_enabled:
                for p in packets:
                    log.append(NET_DELIVER, {"from": p.source, "to": dest,
                                             "sentRound": p.send_round})
        return by_dest
