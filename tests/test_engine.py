import gc

import pytest

from roundsim.config import parse_obj
from roundsim.engine import GEN0_THRESHOLD, Engine, run
from roundsim.runlog import serialize
from roundsim.algorithms.base import Algorithm, AlgorithmNode, register


@register
class _TickFamily(Algorithm):
    """Every node logs a tick per round and broadcasts its id.

    Node state ("total" across rounds) makes computation resets visible;
    the finalize record makes abort handling visible.
    """

    variants = ("tick",)

    def create_node(self, node_id):
        return _TickNode()

    def finalize(self, nodes, logger):
        logger.append("done", {"totals": [n.total for _, n in sorted(nodes.items())]})


class _TickNode(AlgorithmNode):
    def initialize(self, ctx, params):
        self.total = 0
        self.fail_at = params.get("failAt")  # (computation-parity trick below)

    def perform_computation(self, ctx):
        received = 0
        while not ctx.in_stream_empty():
            ctx.pop_in_stream()
            received += 1
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
