"""Simplified proof-of-work peers: Bitcoin single-parent chains and
Ethereum multi-parent block DAGs.

Mining and transaction submission are per-peer Bernoulli trials each
round. A peer's i-th round reads words 2i and 2i+1 of its node stream,
whether or not the trials fire, so runs with identical seeds stay aligned
across variants. It reads them TRIAL_BLOCK rounds at a time, straight
from the stream's Philox, and keeps one trial byte per round: the
same words and the same doubles two `Stream.random()` calls take, and
the same comparisons, made elementwise by numpy.
"""

from operator import attrgetter

from ..config import as_probability
from ..errors import MetricError
from .base import Algorithm, AlgorithmNode, register

BITCOIN = "bitcoin"
ETHEREUM = "ethereum"

GENESIS_ID = -1

TAG_TRANSACTION = "transaction"
TAG_BLOCK = "block"
TAG_CONFIRMED = "confirmed"

# Rounds of trials a peer reads at once: 2 * TRIAL_BLOCK raw words, kept
# as TRIAL_BLOCK bytes, so a peer holds the same block however long the
# computation is.
TRIAL_BLOCK = 512
# The bits of a round's trial byte.
SUBMIT = 1
MINE = 2
_best_len = attrgetter("best_len")


def draw_trials(bit_generator, rounds: int, tx_probability: float,
                mine_probability: float) -> bytes:
    """The next `rounds` rounds' trials, one byte per round.

    Round i reads raw words 2i and 2i+1 and takes each as the double
    (w >> 11) * 2**-53, as `Stream.random` does; SUBMIT is set when the
    first is below tx_probability, MINE when the second is below
    mine_probability. The doubles are exact and the comparisons IEEE, so
    the bytes do not depend on numpy's distribution code.
    """
    import numpy as np

    from ..rng import TO_DOUBLE

    # An explicit uint64 operand, so the shift stays uint64 under every
    # numpy's type promotion rules.
    doubles = (bit_generator.random_raw(2 * rounds) >> np.uint64(11)) * TO_DOUBLE
    trials = (doubles[0::2] < tx_probability).astype(np.uint8)
    trials |= (doubles[1::2] < mine_probability).astype(np.uint8) << np.uint8(1)
    return trials.tobytes()


class Block:
    """One mined block; shared by reference once broadcast, never mutated.

    length is the block's chain length: the number of its ancestors,
    itself included and genesis excluded. Genesis has length 0. A block
    holds only what a peer reads: the `block` record takes its miner and
    round from the mining peer and its context.
    """

    __slots__ = ("id", "parents", "tx", "length")

    def __init__(self, block_id, parents, tx, length):
        self.id = block_id
        self.parents = parents
        self.tx = tx
        self.length = length

    def __repr__(self):
        return f"Block({self.id}, parents={list(self.parents)})"


def make_genesis() -> Block:
    return Block(GENESIS_ID, (), None, 0)


class BlockchainPeer(AlgorithmNode):
    """One peer. `bits` is its node stream, a Philox bit generator, which
    it reads through `draw_trials`; the peer never builds `ctx.rng`."""

    def __init__(self, node_id: int, n_nodes: int, variant: str,
                 tx_probability: float, mine_probability: float, bits=None):
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
        self.bits = bits
        self._trials = b""       # this block's trial bytes
        self._next = 0           # index of the next round's byte in it

    def perform_computation(self, ctx):
        seen_tx, pending = self.seen_tx, self.pending
        for packet in ctx.in_stream:
            kind, item = packet[4]
            if kind == "tx":
                if item not in seen_tx:
                    seen_tx.add(item)
                    pending[item] = None
            else:
                self._accept_block(item)

        # Every call takes the next round's trials, whether or not they
        # fire, to keep streams aligned.
        trials, index = self._trials, self._next
        if index == len(trials):
            trials = self._trials = draw_trials(
                self.bits, TRIAL_BLOCK, self.tx_probability,
                self.mine_probability)
            index = 0
        self._next = index + 1
        trial = trials[index]
        if trial:
            self._act(ctx, trial)

    def _act(self, ctx, trial):
        """Submit a transaction and mine a block as the trial byte says."""
        if trial & SUBMIT:
            tx = ctx.round * self.n + self.id
            self.pending[tx] = None
            self.seen_tx.add(tx)
            ctx.log(TAG_TRANSACTION, {"tx": tx})
            ctx.broadcast(("tx", tx))

        if trial & MINE and self.pending:
            tx = next(iter(self.pending))
            del self.pending[tx]
            block = self._mine(tx, ctx.round)
            self._adopt(block)
            ctx.log(TAG_BLOCK, {"id": block.id, "miner": self.id,
                                "round": ctx.round,
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
        return Block(block_id, parents, tx, length)

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
                              self.params["mineProbability"],
                              self.streams.node(node_id))

    def end_of_round(self, round_, nodes, logger):
        # The confirmed count: the shortest of the peers' longest chains.
        count = min(map(_best_len, nodes.values()))
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
