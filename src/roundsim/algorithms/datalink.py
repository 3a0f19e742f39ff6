"""Reliable data link over a two-node topology: alternating-bit protocol
on FIFO channels, and SDL-style multi-send on reordering channels.

The lower node id is the sender, the higher the receiver. Payloads are
consecutive integers with an unbounded supply. Only data transmissions
count toward utility; acknowledgements are free.
"""

import math

from ..config import as_int
from ..errors import ConfigError, MetricError
from ..node import AlgorithmNode
from .base import Algorithm, register

ABP = "abp"
SDL = "sdl"

TAG_SENT = "sent"
TAG_DELIVERED = "delivered"
TAG_UTILITY = "utility"


class AbpSender(AlgorithmNode):
    def __init__(self, peer, timeout_limit):
        self.peer = peer
        self.timeout_limit = timeout_limit
        self.bit = 0
        self.data = 0
        self.timer = 0
        self.sent = 0
        self.started = False

    def perform_computation(self, ctx):
        acked = False
        for packet in ctx.in_stream:
            if packet.payload[1] == self.bit:
                acked = True
        if not self.started:
            self.started = True
        elif acked:
            self.bit ^= 1
            self.data += 1
        elif self.timer < self.timeout_limit:
            self.timer += 1
            return
        self.timer = 0
        self.sent += 1
        ctx.log(TAG_SENT, {"payload": self.data})
        ctx.unicast(self.peer, ("d", self.bit, self.data))


class AbpReceiver(AlgorithmNode):
    wake_rounds = ()  # acts only on arrivals

    def __init__(self, peer):
        self.peer = peer
        self.expected = 0
        self.delivered = 0

    def perform_computation(self, ctx):
        for packet in ctx.in_stream:
            _, bit, data = packet.payload
            if bit == self.expected:
                self.delivered += 1
                self.expected ^= 1
                ctx.log(TAG_DELIVERED, {"payload": data})
            ctx.unicast(self.peer, ("a", bit))


class SdlSender(AlgorithmNode):
    def __init__(self, peer, timeout_limit, copies):
        self.peer = peer
        self.timeout_limit = timeout_limit
        self.copies = copies
        self.seq = 0
        self.timer = 0
        self.sent = 0
        self.started = False

    def perform_computation(self, ctx):
        best_ack = -1
        for packet in ctx.in_stream:
            seq = packet.payload[1]
            if seq > best_ack:
                best_ack = seq
        if not self.started:
            self.started = True
        elif best_ack >= self.seq:
            self.seq = best_ack + 1
        elif self.timer < self.timeout_limit:
            self.timer += 1
            return
        self.timer = 0
        self.sent += self.copies
        ctx.log(TAG_SENT, {"payload": self.seq, "copies": self.copies})
        message = ("d", self.seq, self.seq)
        for _ in range(self.copies):
            ctx.unicast(self.peer, message)


class SdlReceiver(AlgorithmNode):
    wake_rounds = ()  # acts only on arrivals

    def __init__(self, peer):
        self.peer = peer
        self.expected = 0
        self.delivered = 0

    def perform_computation(self, ctx):
        for packet in ctx.in_stream:
            _, seq, data = packet.payload
            if seq == self.expected:
                self.delivered += 1
                self.expected = seq + 1
                ctx.log(TAG_DELIVERED, {"payload": data})
            ctx.unicast(self.peer, ("a", seq))


@register
class DatalinkFamily(Algorithm):
    variants = (ABP, SDL)
    param_defaults = {"channelCapacity": 1, "timeoutLimit": None}

    @classmethod
    def validate(cls, config):
        super().validate(config)
        ids = config.node_ids
        if len(ids) != 2 or any(set(config.adjacency[u]) != {v}
                                for u, v in (ids, reversed(ids))):
            raise ConfigError("topology",
                              "data link protocols need exactly two "
                              "mutually connected nodes")
        params = config.algorithm_params
        if "timeoutLimit" in params:
            as_int(params["timeoutLimit"], "algorithmParams.timeoutLimit", minimum=1)
        as_int(params.get("channelCapacity"), "algorithmParams.channelCapacity",
               minimum=1)

    def __init__(self, config, streams):
        super().__init__(config, streams)
        self.fifo_channels = self.params["variant"] == ABP
        limit = self.params.get("timeoutLimit")
        if limit is None:
            # Twice the expected round trip, so loss-free runs never
            # retransmit spuriously.
            limit = max(1, math.ceil(4 * config.delay.expected()))
        self.timeout_limit = limit
        self.sender_id, self.receiver_id = config.node_ids

    def create_node(self, node_id):
        peer_is_receiver = node_id == self.sender_id
        if self.params["variant"] == ABP:
            if peer_is_receiver:
                return AbpSender(self.receiver_id, self.timeout_limit)
            return AbpReceiver(self.sender_id)
        if peer_is_receiver:
            copies = 2 * self.params["channelCapacity"] + 3
            return SdlSender(self.receiver_id, self.timeout_limit, copies)
        return SdlReceiver(self.sender_id)

    def finalize(self, nodes, logger):
        sender = nodes[self.sender_id]
        receiver = nodes[self.receiver_id]
        logger.append(TAG_UTILITY, {"sent": sender.sent,
                                    "delivered": receiver.delivered})


def utility(doc):
    """Delivered unique payloads over transmitted data messages, pooled."""
    counters = doc.payloads(TAG_UTILITY)
    sent = sum(c["sent"] for c in counters)
    delivered = sum(c["delivered"] for c in counters)
    if sent == 0:
        raise MetricError("no data transmissions in the log")
    return delivered / sent, sent, None
