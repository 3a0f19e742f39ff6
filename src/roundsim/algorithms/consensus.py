"""Fixed-leader commitment protocols: three-phase PBFT and two-phase Raft.

The leader drives one instance at a time over synthetic values 0,1,2,...
and records a latency sample per committed instance (rounds from its
initial broadcast to the round the quorum closes at the leader). A new
instance starts the round after the previous one commits.
"""

from ..config import as_int
from ..errors import ConfigError, MetricError
from ..node import AlgorithmNode
from .base import Algorithm, register

PBFT = "pbft"
RAFT = "raft"

TAG_LATENCY = "latency"
TAG_COMMIT = "commit"
TAG_PROTOCOL_ERROR = "protocolError"


def pbft_thresholds(n: int):
    """Standard quorums for f = floor((n-1)/3): prepares needed from other
    nodes, and total commits (own vote included)."""
    f = (n - 1) // 3
    return 2 * f, 2 * f + 1


class PbftNode(AlgorithmNode):
    def __init__(self, node_id, n, leader_id):
        self.id = node_id
        self.n = n
        self.leader = leader_id
        self.is_leader = node_id == leader_id
        self.prepare_needed, self.commit_needed = pbft_thresholds(n)
        self.values = {}        # seq -> value from the pre-prepare
        self.prepares = {}      # seq -> prepares received from others
        self.commits = {}       # seq -> commit votes, own included
        self.commit_sent = set()
        self.open = set()       # seqs with a value and no commit yet
        # leader bookkeeping
        self.seq = 0
        self.start_round = None
        self.finished_at = -1   # round the last instance committed

    def perform_computation(self, ctx):
        round_ = ctx.round
        for packet in ctx.in_stream:
            kind, seq, value = packet.payload
            if kind == "pp":
                self._note_value(ctx, seq, value)
                ctx.broadcast(("p", seq, value))
            elif kind == "p":
                self._note_value(ctx, seq, value)
                self.prepares[seq] = self.prepares.get(seq, 0) + 1
            else:
                self._note_value(ctx, seq, value)
                self.commits[seq] = self.commits.get(seq, 0) + 1

        if self.is_leader and self.start_round is None and self.finished_at < round_:
            value = self.seq
            self.values[self.seq] = value
            self.open.add(self.seq)
            self.start_round = round_
            ctx.broadcast(("pp", self.seq, value))

        # Quorum checks never fire in the round an instance starts.
        for seq in sorted(self.open):
            if self.is_leader and (self.start_round is None or round_ <= self.start_round):
                continue
            value = self.values[seq]
            if (seq not in self.commit_sent
                    and self.prepares.get(seq, 0) >= self.prepare_needed):
                self.commit_sent.add(seq)
                self.commits[seq] = self.commits.get(seq, 0) + 1
                ctx.broadcast(("c", seq, value))
            if self.commits.get(seq, 0) >= self.commit_needed:
                self.open.discard(seq)
                ctx.log(TAG_COMMIT, {"seq": seq, "value": value})
                if self.is_leader:
                    ctx.log(TAG_LATENCY, {"seq": seq,
                                          "start": self.start_round,
                                          "end": round_})
                    self.start_round = None
                    self.finished_at = round_
                    self.seq += 1

    def _note_value(self, ctx, seq, value):
        if seq not in self.values:
            self.values[seq] = value
            self.open.add(seq)
            return
        stored = self.values[seq]
        if stored != value:
            ctx.log(TAG_PROTOCOL_ERROR,
                    {"seq": seq, "stored": stored, "got": value})


class RaftNode(AlgorithmNode):
    def __init__(self, node_id, n, leader_id):
        self.id = node_id
        self.majority = n // 2 + 1
        self.leader = leader_id
        self.is_leader = node_id == leader_id
        # A follower only answers requests, so it runs only when one arrives.
        self.wake_rounds = None if self.is_leader else ()
        self.seq = 0
        self.acks = 0
        self.start_round = None
        self.finished_at = -1

    def perform_computation(self, ctx):
        round_ = ctx.round
        for packet in ctx.in_stream:
            kind, seq = packet.payload[0], packet.payload[1]
            if kind == "rq":
                ctx.unicast(self.leader, ("ak", seq))
            elif seq == self.seq:
                self.acks += 1

        if not self.is_leader:
            return
        if self.start_round is None:
            if self.finished_at < round_:
                self.start_round = round_
                self.acks = 1  # own copy counts toward the majority
                ctx.broadcast(("rq", self.seq, self.seq))
        elif round_ > self.start_round and self.acks >= self.majority:
            ctx.log(TAG_COMMIT, {"seq": self.seq, "value": self.seq})
            ctx.log(TAG_LATENCY, {"seq": self.seq,
                                  "start": self.start_round,
                                  "end": round_})
            self.start_round = None
            self.finished_at = round_
            self.seq += 1


@register
class ConsensusFamily(Algorithm):
    variants = (PBFT, RAFT)
    param_defaults = {"leaderId": 0}

    @classmethod
    def validate(cls, config):
        super().validate(config)
        leader = as_int(config.algorithm_params.get("leaderId"),
                        "algorithmParams.leaderId")
        if leader not in config.adjacency:
            raise ConfigError("algorithmParams.leaderId",
                              f"{leader!r} is not a declared node")
        for nid, neighbors in config.adjacency.items():
            if nid != leader and leader not in neighbors:
                raise ConfigError("topology",
                                  f"node {nid} has no channel to leader {leader}")

    def create_node(self, node_id):
        n = self.config.n_nodes
        leader = self.params["leaderId"]
        if self.params["variant"] == PBFT:
            return PbftNode(node_id, n, leader)
        return RaftNode(node_id, n, leader)


def mean_latency(doc):
    """Pooled mean commitment latency over every sample in the run."""
    samples = doc.payloads(TAG_LATENCY)
    if not samples:
        raise MetricError("no latency samples in the log")
    total = sum(s["end"] - s["start"] for s in samples)
    return total / len(samples), len(samples), None
