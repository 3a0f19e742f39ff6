import gc
from pathlib import Path

import pytest

from roundsim.config import load_file, parse_obj
from roundsim.engine import GEN0_THRESHOLD, Engine, run
from roundsim.runlog import serialize
from roundsim.algorithms.base import Algorithm, AlgorithmNode, get_algorithm, register

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@register
class _TickFamily(Algorithm):
    """Every node logs a tick per round and broadcasts its id.

    Node state ("total" across rounds) makes computation resets visible;
    the finalize record makes abort handling visible.
    """

    variants = ("tick",)
    param_defaults = {"failAt": None}

    def create_node(self, node_id):
        return _TickNode(self.params.get("failAt"))

    def finalize(self, nodes, logger):
        logger.append("done", {"totals": [n.total for _, n in sorted(nodes.items())]})


class _TickNode(AlgorithmNode):
    def __init__(self, fail_at):
        self.total = 0
        self.fail_at = fail_at  # [node id, round] whose compute raises

    def perform_computation(self, ctx):
        received = len(ctx.in_stream)
        self.total += 1
        ctx.log("tick", {"count": self.total, "received": received})
        if self.fail_at is not None and [ctx.id, ctx.round] == self.fail_at:
            raise RuntimeError("synthetic fault")
        ctx.broadcast(ctx.id)


def tick_config(**overrides):
    obj = {"algorithm": "tick", "topology": {"kind": "complete", "nodes": 4},
           "roundsPerComputation": 3, "computationsPerRun": 2, "seed": 5}
    obj.update(overrides)
    return parse_obj(obj)


def test_every_node_computes_every_round():
    doc = run(tick_config())
    ticks = doc.records("tick")
    assert len(ticks) == 4 * 3 * 2
    stamps = {(r.computation, r.round, r.node) for r in ticks}
    assert len(stamps) == len(ticks)


def test_state_resets_between_computations():
    doc = run(tick_config())
    for rec in doc.records("tick"):
        assert rec.payload["count"] == rec.round + 1
    assert [r.payload for r in doc.records("done")] == [
        {"totals": [3, 3, 3, 3]}, {"totals": [3, 3, 3, 3]}]


def test_broadcast_arrives_next_round():
    doc = run(tick_config(computationsPerRun=1))
    for rec in doc.records("tick"):
        expected = 0 if rec.round == 0 else 3  # 3 neighbors, delay 1
        assert rec.payload["received"] == expected


def test_in_flight_packets_do_not_cross_computations():
    # delay longer than the computation: nothing may ever arrive
    doc = run(tick_config(delay={"kind": "deterministic", "value": 5},
                          computationsPerRun=3))
    assert all(r.payload["received"] == 0 for r in doc.records("tick"))


def test_worker_count_does_not_change_the_log():
    base = tick_config(topology={"kind": "complete", "nodes": 7},
                       delay={"kind": "poisson", "mean": 2.0},
                       lossProbability=0.1, roundsPerComputation=10)
    solo = serialize(run(base))
    pooled = serialize(run(base.with_(worker_count=4)))
    assert solo == pooled


def test_node_fault_aborts_the_computation():
    doc = run(tick_config(algorithmParams={"failAt": [2, 1]},
                          computationsPerRun=2))
    errors = doc.records("error")
    assert len(errors) == 2  # same fault in both computations
    err = errors[0]
    assert err.payload == {"node": 2, "type": "RuntimeError",
                           "message": "synthetic fault"}
    assert (err.computation, err.round) == (0, 1)
    # no ticks after the failing round, finalize skipped, run not torn down
    assert all(r.round <= 1 for r in doc.records("tick"))
    assert doc.records("done") == []
    assert {r.computation for r in doc.records("tick")} == {0, 1}


def test_fault_in_one_worker_mode_matches_the_other():
    config = tick_config(algorithmParams={"failAt": [1, 2]},
                         roundsPerComputation=5)
    assert serialize(run(config)) == serialize(run(config.with_(worker_count=4)))


def test_engine_stats_count_messages():
    engine = Engine(tick_config(computationsPerRun=1))
    engine.run()
    # 4 nodes broadcast to 3 neighbors for rounds 0..2
    assert engine.stats["sent"] == 4 * 3 * 3
    assert engine.stats["dropped"] == 0
    # round-2 sends are still in flight when the computation ends
    assert engine.stats["delivered"] == 4 * 3 * 2


def test_meta_echoes_config_without_worker_count():
    config = tick_config(workerCount=4)
    doc = run(config)
    assert "workerCount" not in doc.meta
    assert doc.meta["algorithm"] == "tick"
    assert doc.meta["seed"] == 5
    assert doc.meta["roundsPerComputation"] == 3


def test_run_restores_the_gc_thresholds(monkeypatch):
    caller = gc.get_threshold()
    during = []
    original_end_of_round = _TickFamily.end_of_round

    def recording_end_of_round(self, round_, nodes, logger):
        during.append(gc.get_threshold())
        original_end_of_round(self, round_, nodes, logger)

    def failing_end_of_round(self, round_, nodes, logger):
        during.append(gc.get_threshold())
        raise RuntimeError("end of round failed")

    try:
        for thresholds in ((500, 7, 9), (0, 7, 9)):  # 0: collection off
            during.clear()
            gc.set_threshold(*thresholds)
            monkeypatch.setattr(_TickFamily, "end_of_round", recording_end_of_round)
            run(tick_config())
            assert gc.get_threshold() == thresholds
            monkeypatch.setattr(_TickFamily, "end_of_round", failing_end_of_round)
            with pytest.raises(RuntimeError, match="end of round failed"):
                run(tick_config())
            assert gc.get_threshold() == thresholds
            gen0 = GEN0_THRESHOLD if thresholds[0] else 0
            assert set(during) == {(gen0, 7, 9)} and len(during) == 3 * 2 + 1
    finally:
        gc.set_threshold(*caller)


# Wake-on-work. Every node of the "wake" family records each call it gets
# in CALLS, and logs only in a round it receives or sends in, or one of its
# wake rounds: a round it is skipped in is a round it would do nothing.
CALLS = []


@register
class _WakeFamily(Algorithm):
    """Per-node behavior from algorithmParams:

    - wake: {"id": [rounds]} opts a node in; unlisted nodes are always awake;
    - send: [[round, source, destination], ...] one unicast each;
    - keep: ids that read at most one packet per call;
    - failAt: [id, round] raises there.
    """

    variants = ("wake",)
    param_defaults = dict.fromkeys(("wake", "send", "keep", "failAt"))

    def create_node(self, node_id):
        params = self.params
        wake = params.get("wake", {}).get(str(node_id))
        sends = {}
        for round_, source, dest in params.get("send", ()):
            if source == node_id:
                sends.setdefault(round_, []).append(dest)
        fail_at = params.get("failAt")
        return _WakeNode(None if wake is None else tuple(wake), sends,
                         node_id in params.get("keep", ()),
                         fail_at[1] if fail_at and fail_at[0] == node_id else None)

    def finalize(self, nodes, logger):
        logger.append("done", {})


class _WakeNode(AlgorithmNode):
    def __init__(self, wake_rounds, sends, keep, fail_round):
        if wake_rounds is not None:
            self.wake_rounds = wake_rounds
        self.scheduled = wake_rounds or ()  # kept when forced always awake
        self.sends = sends
        self.keep = keep
        self.fail_round = fail_round

    def perform_computation(self, ctx):
        CALLS.append((ctx.round, ctx.id))
        got = []
        for packet in ctx.in_stream:
            got.append(packet.payload)
            if self.keep:  # reads only the first packet
                break
        sends = self.sends.get(ctx.round, ())
        if got or sends or ctx.round in self.scheduled:
            ctx.log("acted", {"got": got})
        if ctx.round == self.fail_round:
            raise RuntimeError("synthetic fault")
        for dest in sends:
            ctx.unicast(dest, [ctx.round, ctx.id])


def wake_config(**params):
    return parse_obj({"algorithm": "wake",
                      "topology": {"kind": "complete", "nodes": 6},
                      "roundsPerComputation": 8, "seed": 2,
                      "algorithmParams": params})


def calls_of(config):
    """(engine, log, the rounds each node was called in) for one run."""
    CALLS.clear()
    engine = Engine(config)
    doc = engine.run()
    rounds = {}
    for round_, nid in CALLS:
        rounds.setdefault(nid, []).append(round_)
    return engine, doc, rounds


def always_awake(monkeypatch, family):
    """Make every node `family` creates run every round."""
    create_node = family.create_node

    def create_awake_node(self, node_id):
        node = create_node(self, node_id)
        node.wake_rounds = None
        return node

    monkeypatch.setattr(family, "create_node", create_awake_node)


def test_opted_in_node_runs_on_wake_and_arrival_rounds():
    # Node 0 is always awake and sends to 2 in rounds 1 and 4 (delay 1).
    config = wake_config(wake={"2": [0, 6], "3": [], "5": [3, 20]},
                         send=[[1, 0, 2], [4, 0, 2], [3, 5, 2]])
    engine, doc, rounds = calls_of(config)
    assert rounds[0] == list(range(8))
    assert rounds[2] == [0, 2, 4, 5, 6]
    assert 3 not in rounds
    assert rounds[5] == [3]  # a wake round past the end is never reached
    assert engine.stats["computed"] == len(CALLS) == 3 * 8 + 5 + 1
    got = [(r.round, r.payload["got"]) for r in doc.records("acted") if r.node == 2]
    assert got == [(0, []), (2, [[1, 0]]), (4, [[3, 5]]), (5, [[4, 0]]), (6, [])]


def test_awake_nodes_run_in_ascending_id_order():
    # Always awake: 1 and 4. Opted in: 0, 2, 3, 5, each woken by its own
    # rounds or by a send from another node.
    config = wake_config(wake={"0": [2], "2": [1, 3], "3": [], "5": [0, 3]},
                         send=[[0, 5, 3], [0, 4, 0], [1, 2, 5], [3, 1, 3]])
    calls_of(config)
    by_round = {}
    for round_, nid in CALLS:
        by_round.setdefault(round_, []).append(nid)
    assert by_round == {0: [1, 4, 5], 1: [0, 1, 2, 3, 4], 2: [0, 1, 4, 5],
                        3: [1, 2, 4, 5], 4: [1, 3, 4], 5: [1, 4], 6: [1, 4],
                        7: [1, 4]}


def test_node_that_leaves_packets_is_not_called_next_round():
    # Node 2 reads one packet per call; three arrive for it in round 1.
    config = wake_config(wake={"2": []}, keep=[2],
                         send=[[0, 0, 2], [0, 1, 2], [0, 3, 2]])
    _, doc, rounds = calls_of(config)
    assert rounds[2] == [1]
    got = [(r.round, r.payload["got"]) for r in doc.records("acted") if r.node == 2]
    assert got == [(1, [[0, 0]])]


def test_fault_in_an_opted_in_node_aborts_as_when_always_awake(monkeypatch):
    params = dict(wake={"2": [3], "4": []}, failAt=[2, 3], send=[[2, 0, 4]])
    _, doc, rounds = calls_of(wake_config(**params))
    assert rounds[2] == [3] and rounds[4] == [3]  # 4 still runs after the fault
    assert max(max(r) for r in rounds.values()) == 3
    [err] = doc.records("error")
    assert (err.round, err.payload) == (3, {"node": 2, "type": "RuntimeError",
                                            "message": "synthetic fault"})
    assert doc.records("done") == []
    always_awake(monkeypatch, _WakeFamily)
    assert serialize(run(wake_config(**params))) == serialize(doc)


def test_skipping_idle_nodes_keeps_the_log_bytes(monkeypatch):
    params = dict(wake={"0": [2], "2": [1, 3], "3": [], "5": [0, 3]},
                  send=[[0, 5, 3], [0, 4, 0], [1, 2, 5], [3, 1, 3]], keep=[3])
    woken = serialize(run(wake_config(**params)))
    always_awake(monkeypatch, _WakeFamily)
    assert serialize(run(wake_config(**params))) == woken


def test_computed_counts_each_awake_node_once_per_round():
    chord = load_file(CONFIGS / "chord.json")
    engine = Engine(chord)
    engine.run()
    total = chord.n_nodes * chord.rounds_per_computation * chord.computations_per_run
    assert 0 < engine.stats["computed"] < total
    bitcoin = load_file(CONFIGS / "bitcoin.json")
    engine = Engine(bitcoin)
    engine.run()
    assert engine.stats["computed"] == (bitcoin.n_nodes * bitcoin.rounds_per_computation
                                        * bitcoin.computations_per_run)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_bundled_config_bytes_match_with_every_node_awake(monkeypatch, path):
    config = load_file(path)
    shipped = serialize(run(config))
    always_awake(monkeypatch, get_algorithm(config.algorithm))
    assert serialize(run(config)) == shipped
