"""Fixed-leader commitment protocols: three-phase PBFT and two-phase Raft.

The leader drives one instance at a time over synthetic values 0,1,2,...
and records a latency sample per committed instance (rounds from its
initial broadcast to the round the quorum closes at the leader). A new
instance starts the round after the previous one commits.
"""

from ..config import as_int
from ..errors import ConfigError, MetricError
from ..network import CompleteAdjacency
from ..node import AlgorithmNode
from .base import Algorithm, register

PBFT = "pbft"
RAFT = "raft"

TAG_LATENCY = "latency"
TAG_COMMIT = "commit"
TAG_PROTOCOL_ERROR = "protocolError"

_MISSING = object()  # no value stored yet for a seq


def pbft_thresholds(n: int):
    """Standard quorums for f = floor((n-1)/3): prepares needed from other
    nodes, and total commits (own vote included)."""
    f = (n - 1) // 3
    return 2 * f, 2 * f + 1


class PbftNode(AlgorithmNode):
    def __init__(self, node_id, n, leader_id):
        self.is_leader = node_id == leader_id
        # A follower acts only on arrivals: only arrivals change its counts,
        # its quorum checks are monotone in them and guarded by commit_sent
        # and open, so a round with no arrivals draws, logs and sends nothing.
        self.wake_rounds = None if self.is_leader else ()
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
        values, prepares, commits = self.values, self.prepares, self.commits
        for packet in ctx.in_stream:
            kind, seq, value = packet[4]
            # Almost every message repeats the stored value; only a new
            # seq or a conflicting value goes to _note_value.
            if values.get(seq, _MISSING) != value:
                self._note_value(ctx, seq, value)
            if kind == "pp":
                ctx.broadcast(("p", seq, value))
            elif kind == "p":
                prepares[seq] = prepares.get(seq, 0) + 1
            else:
                commits[seq] = commits.get(seq, 0) + 1

        if self.is_leader and self.start_round is None and self.finished_at < round_:
            value = self.seq
            values[self.seq] = value
            self.open.add(self.seq)
            self.start_round = round_
            ctx.broadcast(("pp", self.seq, value))

        if not self.open:
            return
        # Quorum checks never fire in the round an instance starts.
        for seq in sorted(self.open):
            if self.is_leader and (self.start_round is None or round_ <= self.start_round):
                continue
            value = values[seq]
            if (seq not in self.commit_sent
                    and prepares.get(seq, 0) >= self.prepare_needed):
                self.commit_sent.add(seq)
                commits[seq] = commits.get(seq, 0) + 1
                ctx.broadcast(("c", seq, value))
            if commits.get(seq, 0) >= self.commit_needed:
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
        """Store the value of a new seq and open it, or log a value that
        conflicts with the stored one. The caller has ruled out a repeat."""
        stored = self.values.get(seq, _MISSING)
        if stored is _MISSING:
            self.values[seq] = value
            self.open.add(seq)
        else:
            ctx.log(TAG_PROTOCOL_ERROR,
                    {"seq": seq, "stored": stored, "got": value})


class RaftNode(AlgorithmNode):
    def __init__(self, node_id, n, leader_id):
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
        if type(config.adjacency) is CompleteAdjacency:
            return  # every row but the leader's holds the leader
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
