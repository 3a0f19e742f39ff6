"""Distributed hash table lookups on a ring: Chord-style greedy ring
routing (no fingers) and Kademlia-style prefix-group shortcuts.

Nodes get ids 0..n-1 on a ring. The query workload (one record per
query: injection round, origin, target) is drawn up front from the
workload stream, so variants run the exact same queries under one seed.
Kademlia adds one shortcut link per prefix group on top of the ring,
chosen from the topology stream, and needs n to be a power of two so
the identifier space is fully populated.
"""

import numpy as np

from ..config import MAX_SCHEDULED_QUERIES, as_int, check_channel_count
from ..errors import ConfigError, MetricError
from ..node import AlgorithmNode
from .base import Algorithm, register

CHORD = "chord"
KADEMLIA = "kademlia"

TAG_RESOLVED = "queryResolved"
TAG_FORWARDED = "queryForwarded"


def ring_next_hop(node_id: int, target: int, n: int) -> int:
    """Neighbor in the direction of the shorter ring distance; clockwise
    wins ties."""
    clockwise = (target - node_id) % n
    if clockwise <= (node_id - target) % n:
        return (node_id + 1) % n
    return (node_id - 1) % n


def common_prefix_len(a: int, b: int, bits: int) -> int:
    diff = a ^ b
    if diff == 0:
        return bits
    return bits - diff.bit_length()


def prefix_groups(node_id: int, bits: int):
    """For each prefix length l, the id range [lo, hi) of peers sharing
    the first l bits with node_id and differing at bit l."""
    groups = []
    for l in range(bits):
        width = bits - l - 1
        lo = ((node_id >> width) ^ 1) << width
        groups.append((lo, lo + (1 << width)))
    return groups


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
            ctx.log(TAG_RESOLVED, {"query": qid, "target": target, "hops": hops})
            return
        if self.variant == CHORD:
            nxt = ring_next_hop(self.id, target, self.n)
            ctx.log(TAG_FORWARDED, {"query": qid, "to": nxt})
        else:
            nxt = self._kademlia_next_hop(target)
            # "fallback" is always False; it stays so the log bytes do not change.
            ctx.log(TAG_FORWARDED, {"query": qid, "to": nxt, "fallback": False})
        ctx.unicast(nxt, ("q", qid, target, hops + 1))

    def _kademlia_next_hop(self, target):
        # The shortcut of group `own` shares at least own + 1 bits with the
        # target, so some peer always improves the prefix.
        own = common_prefix_len(self.id, target, self.bits)
        best, best_len = None, own
        for peer in self.shortcuts:
            length = common_prefix_len(peer, target, self.bits)
            if length > best_len or (length == best_len and best is not None
                                     and peer < best):
                best, best_len = peer, length
        return best


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
                raise ConfigError("topology.nodes",
                                  f"kademlia needs a power-of-two node count, got {n}")
            bits = n.bit_length() - 1
            check_channel_count(config.n_channels + n * bits,
                                f"a kademlia overlay of {n} nodes")

    def __init__(self, config, streams):
        super().__init__(config, streams)
        self.n = config.n_nodes
        self.bits = max(1, (self.n - 1).bit_length())
        self.schedules = self._draw_schedules()
        self.shortcuts = {}
        if self.params["variant"] == KADEMLIA:
            # Row u holds prefix_groups(u, bits); one draw over the whole
            # array takes the values of a node-by-node, group-by-group loop.
            shift = np.arange(self.bits - 1, -1, -1)
            lo = ((np.arange(self.n)[:, None] >> shift) ^ 1) << shift
            hi = lo + (1 << shift)
            picks = lo + streams.topology().integers(hi - lo)
            self.shortcuts = dict(enumerate(map(tuple, picks.tolist())))

    def _draw_schedules(self):
        """origin -> {round -> [(qid, target)]}, each list in qid order.

        Queries are drawn round by round, origin then target, so the
        workload does not depend on how it is split among origins.
        """
        rate = self.params["queriesPerRound"]
        if rate == 0:
            return {}
        rng = self.streams.workload()
        schedules = {}
        qid = 0
        for round_ in range(self.config.rounds_per_computation):
            for _ in range(rate):
                origin = int(rng.integers(self.n))
                target = int(rng.integers(self.n))
                schedules.setdefault(origin, {}).setdefault(round_, []).append(
                    (qid, target))
                qid += 1
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
