"""Simplified proof-of-work peers: Bitcoin single-parent chains and
Ethereum multi-parent block DAGs.

Mining and transaction submission are per-peer Bernoulli trials each
round. Both draws are consumed every round whether or not they fire, so
runs with identical seeds stay aligned across variants.
"""

from ..config import as_probability
from ..errors import MetricError
from ..node import AlgorithmNode
from .base import Algorithm, register

BITCOIN = "bitcoin"
ETHEREUM = "ethereum"

GENESIS_ID = -1

TAG_TRANSACTION = "transaction"
TAG_BLOCK = "block"
TAG_CONFIRMED = "confirmed"


class Block:
    """One mined block; shared by reference once broadcast, never mutated.

    length is the block's chain length: the number of its ancestors,
    itself included and genesis excluded. Genesis has length 0.
    """

    __slots__ = ("id", "miner", "round", "parents", "tx", "length")

    def __init__(self, block_id, miner, round_, parents, tx, length):
        self.id = block_id
        self.miner = miner
        self.round = round_
        self.parents = parents
        self.tx = tx
        self.length = length

    def __repr__(self):
        return f"Block({self.id}, parents={list(self.parents)})"


def make_genesis() -> Block:
    return Block(GENESIS_ID, -1, -1, (), None, 0)


class BlockchainPeer(AlgorithmNode):
    def __init__(self, node_id: int, n_nodes: int, variant: str,
                 tx_probability: float, mine_probability: float):
        self.id = node_id
        self.n = n_nodes
        self.variant = variant
        self.tx_probability = tx_probability
        self.mine_probability = mine_probability
        self.known = {GENESIS_ID: make_genesis()}  # block id -> Block
        self.childless = {GENESIS_ID}  # block ids with no known child
        self.best_len = 0        # max chain length over known blocks
        self.best_tip = GENESIS_ID
        self.pending = {}        # tx id -> None, FIFO via insertion order
        self.seen_tx = set()     # submitted or mined transaction ids
        self.waiting = {}        # missing parent id -> [blocks waiting on it]

    def perform_computation(self, ctx):
        for packet in ctx.in_stream:
            payload = packet.payload
            if payload[0] == "tx":
                self._accept_tx(payload[1])
            else:
                self._accept_block(payload[1])

        # Both draws happen unconditionally to keep streams aligned.
        rng = ctx.rng
        submit = rng.random() < self.tx_probability
        mine = rng.random() < self.mine_probability

        if submit:
            tx = ctx.round * self.n + self.id
            self.pending[tx] = None
            self.seen_tx.add(tx)
            ctx.log(TAG_TRANSACTION, {"tx": tx})
            ctx.broadcast(("tx", tx))

        if mine and self.pending:
            tx = next(iter(self.pending))
            del self.pending[tx]
            block = self._mine(tx, ctx.round)
            self._adopt(block)
            ctx.log(TAG_BLOCK, {"id": block.id, "miner": self.id,
                                "round": block.round,
                                "parents": sorted(block.parents),
                                "tx": block.tx})
            ctx.broadcast(("block", block))

    def _mine(self, tx, round_) -> Block:
        if self.variant == BITCOIN:
            parents = (self.best_tip,)
            length = self.best_len + 1
        else:
            # Every known block is an ancestor of a childless one, so a
            # block over all childless tips descends from every known block.
            parents = tuple(sorted(self.childless))
            length = len(self.known)
        block_id = round_ * self.n + self.id
        return Block(block_id, self.id, round_, parents, tx, length)

    def _accept_tx(self, tx):
        if tx not in self.seen_tx:
            self.seen_tx.add(tx)
            self.pending[tx] = None

    def _accept_block(self, block):
        """Adopt block, and every waiting block it completes, once all its
        parents are known; until then it waits under its first unknown one."""
        known = self.known
        ready = [block]
        while ready:
            block = ready.pop()
            if block.id in known:
                continue
            missing = next((p for p in block.parents if p not in known), None)
            if missing is not None:
                self.waiting.setdefault(missing, []).append(block)
                continue
            self._adopt(block)
            ready.extend(self.waiting.pop(block.id, ()))

    def _adopt(self, block):
        self.known[block.id] = block
        self.childless.difference_update(block.parents)
        self.childless.add(block.id)
        self.seen_tx.add(block.tx)
        self.pending.pop(block.tx, None)
        length = block.length
        if length > self.best_len or (length == self.best_len
                                      and block.id < self.best_tip):
            self.best_len = length
            self.best_tip = block.id

    @property
    def confirmed_length(self) -> int:
        return self.best_len


def confirmed_blocks(peers) -> int:
    """Minimum over peers of each peer's longest chain length."""
    return min(peer.confirmed_length for peer in peers)


@register
class BlockchainFamily(Algorithm):
    variants = (BITCOIN, ETHEREUM)
    param_defaults = {"transactionProbability": 0.05, "mineProbability": 0.025}

    @classmethod
    def validate(cls, config):
        super().validate(config)
        for key in cls.param_defaults:
            as_probability(config.algorithm_params.get(key),
                           f"algorithmParams.{key}")

    def create_node(self, node_id):
        return BlockchainPeer(node_id, self.config.n_nodes,
                              self.params["variant"],
                              self.params["transactionProbability"],
                              self.params["mineProbability"])

    def end_of_round(self, round_, nodes, logger):
        count = confirmed_blocks(nodes.values())
        logger.append(TAG_CONFIRMED, {"round": round_, "count": count})


def _per_computation_counts(doc):
    """Confirmed-count series per computation, from TAG_CONFIRMED records."""
    series = {}
    for rec in doc.records(TAG_CONFIRMED):
        series.setdefault(rec.computation, []).append(
            (rec.payload["round"], rec.payload["count"]))
    for counts in series.values():
        counts.sort()
    return series


def throughput_series(doc, window: int = 5):
    """Scalar mean blocks/round plus the trailing moving-average series.

    The series holds one point per full window, averaged across the
    run's computations at matching rounds.
    """
    if window < 1:
        raise MetricError(f"window must be >= 1, got {window}")
    per_comp = _per_computation_counts(doc)
    if not per_comp:
        raise MetricError("no confirmed-count records in the log")
    sums = {}
    totals = []
    n_rounds = None
    for counts in per_comp.values():
        increments = []
        prev = 0
        for _, count in counts:
            increments.append(count - prev)
            prev = count
        totals.append(prev / len(increments))
        if n_rounds is None:
            n_rounds = len(increments)
        for r in range(window - 1, len(increments)):
            win = increments[r - window + 1:r + 1]
            sums[r] = sums.get(r, 0.0) + sum(win) / window
    comps = len(per_comp)
    series = [(r, sums[r] / comps) for r in sorted(sums)]
    scalar = sum(totals) / comps
    return scalar, comps * (n_rounds or 0), series
