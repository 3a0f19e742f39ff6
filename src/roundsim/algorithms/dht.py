"""Distributed hash table lookups on a ring: Chord-style greedy ring
routing (no fingers) and Kademlia-style prefix-group shortcuts.

Nodes get ids 0..n-1 on a ring. The query workload (one record per
query: injection round, origin, target) is drawn up front from the
workload stream, so variants run the exact same queries under one seed.
Kademlia adds one shortcut link per prefix group on top of the ring,
chosen from the topology stream, and needs n to be a power of two so
the identifier space is fully populated. Group l of a node holds the ids
that share its first l bits and differ from it at bit l. A kademlia node
forwards a query to its shortcut in the target's group, one table read
at the highest bit where the two ids differ (Maymounkov and Mazieres,
IPTPS 2002).
"""

from typing import NamedTuple

from ..config import MAX_SCHEDULED_QUERIES, as_int, check_channel_count
from ..errors import ConfigError, MetricError
from ..rng import Stream, halves
from ..runlog import typed_record
from .base import Algorithm, AlgorithmNode, register

CHORD = "chord"
KADEMLIA = "kademlia"

TAG_RESOLVED = "queryResolved"
TAG_FORWARDED = "queryForwarded"


# The hot tags' typed records (see `roundsim.runlog.typed_record`): a node
# passes the payload values in field order, which is sorted by key.

@typed_record(TAG_FORWARDED)
class ForwardRecord(NamedTuple):
    """chord's `queryForwarded`: the node passed query `query` on to `to`."""

    computation: int
    node: int
    query: int
    to: int
    round: int


@typed_record(TAG_FORWARDED, constants={"fallback": False})
class KademliaForwardRecord(ForwardRecord):
    """kademlia's `queryForwarded`. Its payload also holds `"fallback":
    false`: kademlia always finds a shortcut, and the constant stays so the
    log bytes do not change."""

    __slots__ = ()


@typed_record(TAG_RESOLVED)
class ResolveRecord(NamedTuple):
    """`queryResolved`: query `query` reached `target`, this node, after
    `hops` forwards."""

    computation: int
    node: int
    hops: int
    query: int
    target: int
    round: int


def ring_next_hop(node_id: int, target: int, n: int) -> int:
    """Neighbor in the direction of the shorter ring distance; clockwise
    wins ties."""
    clockwise = (target - node_id) % n
    if clockwise <= (node_id - target) % n:
        return (node_id + 1) % n
    return (node_id - 1) % n


class DhtNode(AlgorithmNode):
    def __init__(self, node_id, n, variant, bits, shortcuts, schedule):
        self.id = node_id
        self.n = n
        self.variant = variant
        self.bits = bits
        self.shortcuts = shortcuts  # per prefix length, kademlia only
        self.schedule = schedule    # round -> [(qid, target)] this node injects
        # Idle unless a query arrives or one is injected.
        self.wake_rounds = schedule

    def perform_computation(self, ctx):
        for packet in ctx.in_stream:
            _, qid, target, hops = packet.payload
            self._handle(ctx, qid, target, hops)
        for qid, target in self.schedule.get(ctx.round, ()):
            self._handle(ctx, qid, target, 0)

    def _handle(self, ctx, qid, target, hops):
        if target == self.id:
            ctx.log_record(ResolveRecord, hops, qid, target)
            return
        if self.variant == CHORD:
            nxt = ring_next_hop(self.id, target, self.n)
            ctx.log_record(ForwardRecord, qid, nxt)
        else:
            nxt = self._kademlia_next_hop(target)
            # KademliaForwardRecord writes the constant "fallback":false.
            ctx.log_record(KademliaForwardRecord, qid, nxt)
        ctx.unicast(nxt, ("q", qid, target, hops + 1))

    def _kademlia_next_hop(self, target):
        # The target lies in group l, where l counts the bits it shares with
        # this node, and so does that group's shortcut: it shares more than
        # l bits with the target, while the shortcut of any other group
        # shares at most l.
        return self.shortcuts[self.bits - (self.id ^ target).bit_length()]


@register
class DhtFamily(Algorithm):
    variants = (CHORD, KADEMLIA)
    param_defaults = {"queriesPerRound": 1}

    @classmethod
    def validate(cls, config):
        super().validate(config)
        rate = as_int(config.algorithm_params.get("queriesPerRound"),
                      "algorithmParams.queriesPerRound", minimum=0)
        n = config.n_nodes
        if n < 2:
            raise ConfigError("topology", "a ring needs at least 2 nodes")
        if set(config.adjacency) != set(range(n)):
            raise ConfigError("topology", "node ids must be 0..n-1")
        for u in range(n):
            ring = {(u - 1) % n, (u + 1) % n}
            if not ring.issubset(config.adjacency[u]):
                raise ConfigError("topology",
                                  f"node {u} is missing a ring neighbor")
        queries = config.rounds_per_computation * rate
        if queries > MAX_SCHEDULED_QUERIES:
            raise ConfigError("algorithmParams.queriesPerRound",
                              f"roundsPerComputation x queriesPerRound is "
                              f"{queries}, above the limit of "
                              f"{MAX_SCHEDULED_QUERIES}")
        if config.algorithm_params["variant"] == KADEMLIA:
            if n & (n - 1):
                raise ConfigError("topology",
                                  f"kademlia needs a power-of-two node count, got {n}")
            bits = (n - 1).bit_length()
            check_channel_count(config.n_channels + n * bits,
                                f"a kademlia overlay of {n} nodes", "topology")

    def __init__(self, config, streams):
        super().__init__(config, streams)
        self.n = config.n_nodes
        self.bits = (self.n - 1).bit_length()
        self.schedules = self._draw_schedules()
        self.shortcuts = {}
        if self.params["variant"] == KADEMLIA:
            import numpy as np
            # Row u holds one peer per group l, the ids that share their
            # first l bits with u and differ from it at bit l: the 2**w ids
            # from ((u >> w) ^ 1) << w, w = bits - l - 1. Over such a range
            # Stream.integers never rejects: it takes the top w bits of one
            # 32-bit draw, and no draw for the last group's one id.
            shift = np.arange(self.bits - 1, -1, -1)
            lo = ((np.arange(self.n)[:, None] >> shift) ^ 1) << shift
            draws = halves(streams.topology(), self.n * (self.bits - 1))
            lo[:, :-1] += draws.reshape(self.n, self.bits - 1) >> (32 - shift[:-1])
            self.shortcuts = dict(enumerate(map(tuple, lo.tolist())))

    def _draw_schedules(self):
        """origin -> {round -> [(qid, target)]}, each list in qid order.

        Queries are drawn round by round, origin then target, so the
        workload does not depend on how it is split among origins.
        """
        rate = self.params["queriesPerRound"]
        if rate == 0:
            return {}
        draw = Stream(self.streams.workload()).integers
        schedules = {}
        for qid in range(self.config.rounds_per_computation * rate):
            origin, target = draw(self.n), draw(self.n)
            schedules.setdefault(origin, {}).setdefault(qid // rate, []).append(
                (qid, target))
        return schedules

    def adjacency(self):
        if not self.shortcuts:
            return self.config.adjacency
        merged = {}
        for u, neighbors in self.config.adjacency.items():
            merged[u] = tuple(sorted(set(neighbors) | set(self.shortcuts[u])))
        return merged

    def create_node(self, node_id):
        return DhtNode(node_id, self.n, self.params["variant"], self.bits,
                       self.shortcuts.get(node_id, ()),
                       self.schedules.get(node_id, {}))


def mean_hops(doc):
    """Pooled mean hop count over every resolved query in the run."""
    resolved = doc.payloads(TAG_RESOLVED)
    if not resolved:
        raise MetricError("no resolved queries in the log")
    return sum(r["hops"] for r in resolved) / len(resolved), len(resolved), None
