import random
from types import SimpleNamespace

import pytest

from roundsim.config import parse_obj
from roundsim.engine import run
from roundsim.errors import MetricError
from roundsim.network import Packet
from roundsim.node import NodeContext
from roundsim.rng import Stream, StreamFactory
from roundsim.algorithms.blockchain import (
    GENESIS_ID, TAG_CONFIRMED, TRIAL_BLOCK, Block, BlockchainFamily,
    BlockchainPeer, throughput_series)
from roundsim.runlog import LogDocument, LogRecord, RunLogger, serialize


def chain_config(**overrides):
    obj = {"algorithm": "bitcoin", "topology": {"kind": "complete", "nodes": 20},
           "roundsPerComputation": 100, "computationsPerRun": 2, "seed": 77}
    obj.update(overrides)
    return parse_obj(obj)


def make_peer(variant="bitcoin", node_id=0, n=4):
    return BlockchainPeer(node_id, n, variant, 0.05, 0.025)


def ancestors(known, parents):
    """Reference: the ids reached from parents through parent links,
    genesis excluded."""
    seen = set()
    stack = list(parents)
    while stack:
        pid = stack.pop()
        if pid != GENESIS_ID and pid not in seen:
            seen.add(pid)
            stack.extend(known[pid].parents)
    return seen


def block(peer, block_id, parents, tx=0):
    return Block(block_id, 0, block_id // peer.n, tuple(parents), tx,
                 len(ancestors(peer.known, parents)) + 1)


# unit-level ------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["bitcoin", "ethereum"])
def test_new_peer_knows_genesis(variant):
    peer = BlockchainPeer(3, 4, variant, 0.05, 0.025)
    assert list(peer.known) == [GENESIS_ID]
    genesis = peer.known[GENESIS_ID]
    assert (genesis.parents, genesis.length) == ((), 0)
    assert peer.childless == {GENESIS_ID}
    assert (peer.best_len, peer.best_tip) == (0, GENESIS_ID)
    mined = peer._mine(tx=7, round_=2)
    assert (mined.parents, mined.length) == ((GENESIS_ID,), 1)

def test_no_mining_no_confirmations():
    doc = run(chain_config(algorithmParams={"mineProbability": 0.0},
                           computationsPerRun=1))
    assert doc.records("block") == []
    counts = [r.payload["count"] for r in doc.records("confirmed")]
    assert set(counts) == {0}


def test_transaction_rate_matches_probability():
    doc = run(chain_config(roundsPerComputation=400, computationsPerRun=3,
                           algorithmParams={"mineProbability": 0.0}))
    txs = len(doc.records("transaction"))
    per_round = txs / (400 * 3)
    assert abs(per_round - 20 * 0.05) < 0.15


def test_transaction_ids_are_globally_unique():
    doc = run(chain_config(computationsPerRun=1))
    per_comp = [r.payload["tx"] for r in doc.records("transaction")]
    assert len(per_comp) == len(set(per_comp))


def test_bitcoin_extends_single_best_tip():
    peer = make_peer("bitcoin")
    b1 = block(peer, 4, [GENESIS_ID])
    peer._adopt(b1)
    b2 = block(peer, 8, [4])
    peer._adopt(b2)
    mined = peer._mine(tx=99, round_=3)
    assert mined.parents == (8,)
    assert mined.length == 3


def test_ethereum_merges_all_childless_tips():
    peer = make_peer("ethereum")
    b1 = block(peer, 4, [GENESIS_ID])
    b2 = block(peer, 5, [GENESIS_ID])
    peer._adopt(b1)
    peer._adopt(b2)
    mined = peer._mine(tx=99, round_=3)
    assert mined.parents == (4, 5)
    assert mined.length == 3


def test_orphans_adopt_once_parents_arrive():
    peer = make_peer("bitcoin")
    builder = make_peer("bitcoin", node_id=1)
    b1 = block(builder, 4, [GENESIS_ID])
    builder._adopt(b1)
    b2 = block(builder, 8, [4])
    builder._adopt(b2)
    b3 = block(builder, 12, [8])

    peer._accept_block(b3)  # grandchild first
    peer._accept_block(b2)
    assert peer.best_len == 0
    assert peer.waiting == {8: [b3], 4: [b2]}
    peer._accept_block(b1)  # unlocks both waiting descendants
    assert peer.waiting == {}
    assert peer.best_len == 3 and peer.best_tip == 12


@pytest.mark.parametrize("first,second", [(4, 5), (5, 4)])
def test_block_with_two_missing_parents_waits_for_both(first, second):
    builder = make_peer("ethereum", node_id=1)
    parents = {4: block(builder, 4, [GENESIS_ID]),
               5: block(builder, 5, [GENESIS_ID])}
    for parent in parents.values():
        builder._adopt(parent)
    merge = block(builder, 9, [4, 5])
    peer = make_peer("ethereum")
    peer._accept_block(merge)
    assert peer.waiting == {4: [merge]}
    peer._accept_block(parents[first])
    assert 9 not in peer.known
    assert peer.waiting == {second: [merge]}
    peer._accept_block(parents[second])
    assert peer.waiting == {}
    assert peer.best_tip == 9 and peer.best_len == 3
    assert peer.childless == {9}


class FixpointPeer(BlockchainPeer):
    """Reference: stash every block with an unknown parent in one list and
    rescan the whole list to a fixpoint after each adoption."""

    def __init__(self, *args):
        super().__init__(*args)
        self.orphans = []

    def _accept_block(self, block):
        if block.id in self.known:
            return
        if any(pid not in self.known for pid in block.parents):
            self.orphans.append(block)
            return
        self._adopt(block)
        progressed = True
        while progressed and self.orphans:
            progressed = False
            still = []
            for orphan in self.orphans:
                if orphan.id in self.known:
                    continue
                if all(pid in self.known for pid in orphan.parents):
                    self._adopt(orphan)
                    progressed = True
                else:
                    still.append(orphan)
            self.orphans = still


def peer_state(peer):
    return (set(peer.known), peer.childless, peer.best_len, peer.best_tip,
            list(peer.pending), peer.seen_tx)


@pytest.mark.parametrize("trial", range(40))
def test_parent_index_ends_where_the_fixpoint_loop_does(trial):
    rnd = random.Random(trial)
    builder = make_peer("ethereum", node_id=1)
    blocks = []
    for i in range(rnd.randint(1, 30)):
        ids = [GENESIS_ID] + [b.id for b in blocks]
        parents = sorted(rnd.sample(ids, rnd.randint(1, min(3, len(ids)))))
        b = block(builder, 10 * i + rnd.randint(0, 9), parents, tx=i)
        builder._adopt(b)
        blocks.append(b)
    arrivals = blocks + rnd.sample(blocks, len(blocks) // 3)  # duplicates
    rnd.shuffle(arrivals)

    indexed = make_peer("ethereum")
    chain = make_peer("bitcoin")
    reference = FixpointPeer(0, 4, "ethereum", 0.05, 0.025)
    for peer in (indexed, reference):
        for tx in range(40, -1, -1):  # pending in an order unlike tx ids
            peer.pending[tx] = None
            peer.seen_tx.add(tx)
    for b in arrivals:
        indexed._accept_block(b)
        reference._accept_block(b)
        chain._accept_block(b)
        assert peer_state(indexed) == peer_state(reference)
        waiting = {w.id for ws in indexed.waiting.values() for w in ws}
        assert waiting == {o.id for o in reference.orphans}
        for peer in (indexed, chain):
            mined = peer._mine(tx=99, round_=1000)
            assert mined.length == len(ancestors(peer.known, mined.parents)) + 1
    assert indexed.waiting == {} and set(indexed.known) == set(builder.known)


def confirmed_record(peers, round_):
    """The confirmed record the family's end_of_round writes for peers."""
    config = chain_config()
    family = BlockchainFamily(config, StreamFactory(config.seed, 0))
    logger = RunLogger([TAG_CONFIRMED], 0)
    logger.round = round_
    family.end_of_round(round_, dict(enumerate(peers)), logger)
    [rec] = logger.document.records(TAG_CONFIRMED)
    return rec.round, rec.node, rec.payload


def test_confirmed_blocks_is_minimum_over_peers():
    peers = [make_peer(node_id=i) for i in range(3)]
    assert confirmed_record(peers, 0) == (0, None, {"round": 0, "count": 0})
    chain = make_peer(node_id=9)
    b1 = block(chain, 4, [GENESIS_ID])
    chain._adopt(b1)
    b2 = block(chain, 8, [4])
    for peer in peers:
        peer._accept_block(b1)
    peers[0]._accept_block(b2)
    peers[1]._accept_block(b2)
    assert [p.best_len for p in peers] == [2, 2, 1]
    assert confirmed_record(peers, 3) == (3, None, {"round": 3, "count": 1})


def test_fork_counts_longest_branch_only_for_bitcoin():
    peer = make_peer("bitcoin")
    b1 = block(peer, 4, [GENESIS_ID])
    peer._adopt(b1)
    fork = block(peer, 5, [GENESIS_ID])
    peer._adopt(fork)
    b2 = block(peer, 8, [4])
    peer._adopt(b2)
    assert peer.best_len == 2  # fork block not on the best chain


def receive(peer, round_, *payloads):
    """Run one round of peer with payloads arriving from peer 0; its
    trials never fire."""
    ctx = NodeContext(peer.id, range(peer.n), streams=None, logger=None)
    ctx.round = round_
    ctx.in_stream = [Packet(0, round_ - 1, 1, round_, payload)
                     for payload in payloads]
    peer.perform_computation(ctx)


def idle_peer(variant="bitcoin"):
    return BlockchainPeer(1, 4, variant, 0.0, 0.0,
                          StreamFactory(5, 0).node(1).bit_generator)


def test_transaction_received_twice_is_queued_once():
    peer = idle_peer()
    receive(peer, 1, ("tx", 7), ("tx", 8))
    assert list(peer.pending) == [7, 8]
    peer._adopt(block(peer, 4, [GENESIS_ID], tx=7))
    assert list(peer.pending) == [8]
    receive(peer, 2, ("tx", 7), ("tx", 8))
    assert list(peer.pending) == [8]


@pytest.mark.parametrize("variant", ["bitcoin", "ethereum"])
def test_transaction_in_an_adopted_block_is_not_queued(variant):
    peer = idle_peer(variant)
    receive(peer, 1, ("block", block(peer, 4, [GENESIS_ID], tx=9)))
    receive(peer, 2, ("tx", 9), ("tx", 3))
    assert list(peer.pending) == [3]
    assert {3, 9} <= peer.seen_tx


def test_equal_length_tie_prefers_lower_block_id():
    peer = make_peer("bitcoin")
    hi = block(peer, 7, [GENESIS_ID])
    lo = block(peer, 4, [GENESIS_ID])
    peer._adopt(hi)
    assert peer.best_tip == 7
    peer._adopt(lo)
    assert peer.best_tip == 4
    assert peer.best_len == 1


# trial draws -----------------------------------------------------------------

K = TRIAL_BLOCK


class ScalarPeer(BlockchainPeer):
    """Reference: draws each round's trials with two `ctx.rng.random()`
    calls, the transaction trial first, and acts on them as the peer
    does."""

    def perform_computation(self, ctx):
        for packet in ctx.in_stream:
            kind, item = packet.payload
            if kind == "tx":
                if item not in self.seen_tx:
                    self.seen_tx.add(item)
                    self.pending[item] = None
            else:
                self._accept_block(item)
        rng = ctx.rng
        trial = ((rng.random() < self.tx_probability)
                 | (rng.random() < self.mine_probability) << 1)
        if trial:
            self._act(ctx, trial)


class TrialPeer(BlockchainPeer):
    """Records the (round, trial byte) of every round whose trials fire."""

    def __init__(self, *args):
        super().__init__(*args)
        self.fired = []

    def _act(self, ctx, trial):
        self.fired.append((ctx.round, trial))


@pytest.mark.parametrize("rounds", [K - 1, K, K + 1, 3 * K + 5])
def test_block_read_trials_match_two_scalar_draws(rounds):
    probabilities = (0.0, 0.025, 0.5, 1.0)
    for seed in range(100):
        node = seed % 7
        scalar = Stream(StreamFactory(seed, 0).node(node))
        doubles = [scalar.random() for _ in range(2 * rounds)]
        for tx_p, mine_p in zip(probabilities, reversed(probabilities)):
            want = [(r, trial) for r in range(rounds)
                    for trial in [(doubles[2 * r] < tx_p)
                                  | (doubles[2 * r + 1] < mine_p) << 1]
                    if trial]
            peer = TrialPeer(node, 7, "bitcoin", tx_p, mine_p,
                             StreamFactory(seed, 0).node(node).bit_generator)
            ctx = SimpleNamespace(in_stream=())
            for round_ in range(rounds):
                ctx.round = round_
                peer.perform_computation(ctx)
            assert peer.fired == want, (seed, tx_p, mine_p)


def test_peer_block_does_not_grow_with_rounds(monkeypatch):
    def no_rng(self):
        raise AssertionError("a peer built ctx.rng")

    monkeypatch.setattr(NodeContext, "rng", property(no_rng))
    held = {}

    def keep_peers(self, nodes, logger):
        held[self.config.rounds_per_computation] = list(nodes.values())

    monkeypatch.setattr(BlockchainFamily, "finalize", keep_peers)
    for rounds in (10, K + 3, 4 * K):
        run(chain_config(topology={"kind": "complete", "nodes": 3},
                         roundsPerComputation=rounds, computationsPerRun=1))
    assert sorted(held) == [10, K + 3, 4 * K]
    for peers in held.values():
        assert [len(peer._trials) for peer in peers] == [K] * 3


def scalar_reference_end_of_round(self, round_, nodes, logger):
    count = min(peer.best_len for peer in nodes.values())
    logger.append(TAG_CONFIRMED, {"round": round_, "count": count})


@pytest.mark.parametrize("algorithm", ["bitcoin", "ethereum"])
def test_run_matches_scalar_draw_reference(monkeypatch, algorithm):
    config = chain_config(algorithm=algorithm,
                          topology={"kind": "complete", "nodes": 7},
                          delay={"kind": "uniform", "min": 1, "max": 4},
                          lossProbability=0.3, computationsPerRun=3,
                          roundsPerComputation=K + 3)
    blocks = serialize(run(config))
    with monkeypatch.context() as patch:
        patch.setattr(BlockchainFamily, "create_node", lambda self, nid: ScalarPeer(
            nid, self.config.n_nodes, self.params["variant"],
            self.params["transactionProbability"],
            self.params["mineProbability"]))
        patch.setattr(BlockchainFamily, "end_of_round",
                      scalar_reference_end_of_round)
        scalar = serialize(run(config))
    assert blocks == scalar
    assert '"block"' in blocks


# run-level -------------------------------------------------------------------

def test_confirmed_counts_never_decrease():
    doc = run(chain_config(algorithm="ethereum",
                           delay={"kind": "uniform", "min": 1, "max": 4},
                           lossProbability=0.05))
    last = {}
    for rec in doc.records("confirmed"):
        assert rec.payload["count"] >= last.get(rec.computation, 0)
        last[rec.computation] = rec.payload["count"]


def test_every_block_spends_a_submitted_transaction():
    doc = run(chain_config(computationsPerRun=1))
    submitted = {r.payload["tx"] for r in doc.records("transaction")}
    spent = [r.payload["tx"] for r in doc.records("block")]
    assert spent and set(spent) <= submitted


def test_ethereum_confirms_at_least_bitcoin_paired():
    base = chain_config(delay={"kind": "deterministic", "value": 5},
                        roundsPerComputation=150, computationsPerRun=3)
    btc, _, _ = throughput_series(run(base))
    eth, _, _ = throughput_series(run(base.with_(
        algorithm="ethereum",
        algorithm_params=dict(base.algorithm_params, variant="ethereum"))))
    assert eth >= btc


# metric ----------------------------------------------------------------------

def confirmed_doc(counts_by_comp):
    doc = LogDocument()
    for comp, counts in counts_by_comp.items():
        for round_, count in enumerate(counts):
            doc.append("confirmed", LogRecord(comp, round_, None,
                                              {"round": round_, "count": count}))
    return doc


def test_throughput_scalar_is_blocks_per_round():
    doc = confirmed_doc({0: [1, 2, 3, 4, 5]})
    scalar, samples, series = throughput_series(doc, window=5)
    assert scalar == 1.0
    assert samples == 5
    assert series == [(4, 1.0)]


def test_throughput_burst_spread_over_window():
    doc = confirmed_doc({0: [0, 0, 5, 5, 5]})
    scalar, _, series = throughput_series(doc, window=5)
    assert scalar == 1.0
    assert series == [(4, 1.0)]


def test_throughput_series_one_point_per_full_window():
    doc = confirmed_doc({0: list(range(1, 101))})
    _, samples, series = throughput_series(doc, window=5)
    assert samples == 100
    assert len(series) == 96
    assert series[0] == (4, 1.0)
    assert series[-1][0] == 99


def test_throughput_averages_computations():
    doc = confirmed_doc({0: [2, 4], 1: [0, 0]})
    scalar, samples, _ = throughput_series(doc, window=2)
    assert scalar == 1.0  # (2.0 + 0.0) / 2
    assert samples == 4


def test_throughput_rejects_bad_window_and_empty_log():
    with pytest.raises(MetricError):
        throughput_series(confirmed_doc({0: [1]}), window=0)
    with pytest.raises(MetricError):
        throughput_series(LogDocument())
