from types import SimpleNamespace

import pytest

from roundsim.config import MAX_CHANNELS, parse_obj
from roundsim.engine import run
from roundsim.errors import ConfigError, MetricError
from roundsim.network import NodeContext
from roundsim.rng import StreamFactory
from roundsim.runlog import LogDocument, LogRecord, RunLogger
from roundsim.algorithms.base import get_algorithm
from roundsim.algorithms.datalink import (AbpReceiver, AbpSender, SdlSender,
                                          utility)


def link_config(variant, **overrides):
    obj = {"algorithm": variant,
           "topology": {"adjacency": {"0": [1], "1": [0]}},
           "roundsPerComputation": 100, "seed": 21}
    obj.update(overrides)
    return parse_obj(obj)


def run_utility(variant, **overrides):
    doc = run(link_config(variant, **overrides))
    return utility(doc)[0], doc


def test_abp_lossless_utility_is_one():
    value, doc = run_utility("abp")
    assert value == 1.0
    # delay-1 round trip: a fresh payload leaves every other round
    assert doc.payloads("utility") == [{"sent": 50, "delivered": 50}]


def test_sdl_lossless_utility_is_one_fifth():
    # 5 copies per payload at channelCapacity 1; only the first copy of
    # each sequence number is deliverable
    value, doc = run_utility("sdl")
    assert value == 0.2
    assert doc.payloads("utility") == [{"sent": 250, "delivered": 50}]


def test_lossless_utility_ratio_is_the_copy_count():
    abp, _ = run_utility("abp")
    sdl, _ = run_utility("sdl")
    assert abp / sdl == 5.0


def test_channel_capacity_sets_copy_count():
    value, doc = run_utility("sdl", algorithmParams={"channelCapacity": 2})
    assert doc.payloads("sent")[0]["copies"] == 7
    assert value == pytest.approx(1 / 7)


def test_channel_capacity_is_held_to_the_channel_bound():
    # 2 * 2097150 + 3 copies fit MAX_CHANNELS (2^22); one more does not.
    # Only parsed: a run would stage millions of messages.
    assert 2 * 2097150 + 3 <= MAX_CHANNELS < 2 * 2097151 + 3
    for variant in ("abp", "sdl"):
        config = link_config(variant, algorithmParams={"channelCapacity": 2097150})
        assert config.algorithm_params["channelCapacity"] == 2097150
        with pytest.raises(ConfigError) as refused:
            link_config(variant, algorithmParams={"channelCapacity": 2097151})
        assert str(refused.value) == ("algorithmParams.channelCapacity: "
                                      "must be <= 2097150, got 2097151")


def test_total_loss_delivers_nothing():
    for variant in ("abp", "sdl"):
        doc = run(link_config(variant, lossProbability=1.0))
        counters = doc.payloads("utility")[0]
        assert counters["delivered"] == 0
        assert counters["sent"] > 0
        assert utility(doc)[0] == 0.0


def test_sender_is_the_lower_node_id():
    doc = run(link_config("abp", roundsPerComputation=10))
    assert {r.node for r in doc.records("sent")} == {0}
    assert {r.node for r in doc.records("delivered")} == {1}


def test_fifo_flag_per_variant():
    streams = StreamFactory(1, 0)
    abp = get_algorithm("abp")(link_config("abp"), streams)
    sdl = get_algorithm("sdl")(link_config("sdl"), streams)
    assert abp.fifo_channels is True
    assert sdl.fifo_channels is False


def test_timeout_default_scales_with_delay():
    streams = StreamFactory(1, 0)
    config = link_config("abp", delay={"kind": "uniform", "min": 1, "max": 4})
    family = get_algorithm("abp")(config, streams)
    assert family.timeout_limit == 10  # ceil(4 * 2.5)
    explicit = link_config("abp", algorithmParams={"timeoutLimit": 3})
    assert get_algorithm("abp")(explicit, streams).timeout_limit == 3


# scripted single-node traces -------------------------------------------------

def make_ctx(node_id, peer):
    return NodeContext(node_id, (peer,), streams=None, logger=RunLogger())


def packet(payload):
    return SimpleNamespace(payload=payload)


def step(node, ctx, round_, inbox=()):
    ctx.round = round_
    ctx.in_stream = [packet(p) for p in inbox]
    node.perform_computation(ctx)
    ctx.in_stream = ()
    out, ctx.out_buffer = ctx.out_buffer, []
    return [payload for _, payload in out]


def test_abp_sender_retransmits_after_timeout():
    sender = AbpSender(peer=1, timeout_limit=1)
    ctx = make_ctx(0, 1)
    assert step(sender, ctx, 0) == [("d", 0, 0)]   # first transmission
    assert step(sender, ctx, 1) == []              # waiting on the ack
    assert step(sender, ctx, 2) == [("d", 0, 0)]   # timeout: same payload again
    assert step(sender, ctx, 3, inbox=[("a", 0)]) == [("d", 1, 1)]
    assert sender.sent == 3 and sender.data == 1


def test_abp_sender_ignores_stale_acks():
    sender = AbpSender(peer=1, timeout_limit=5)
    ctx = make_ctx(0, 1)
    step(sender, ctx, 0)
    assert step(sender, ctx, 1, inbox=[("a", 1)]) == []  # wrong bit: no progress
    assert sender.data == 0


def test_abp_receiver_deduplicates_but_always_acks():
    receiver = AbpReceiver(peer=0)
    ctx = make_ctx(1, 0)
    out = step(receiver, ctx, 1, inbox=[("d", 0, 0), ("d", 0, 0)])
    assert out == [("a", 0), ("a", 0)]
    assert receiver.delivered == 1
    out = step(receiver, ctx, 2, inbox=[("d", 1, 1)])
    assert out == [("a", 1)]
    assert receiver.delivered == 2


def test_sdl_sender_advances_past_the_best_ack():
    sender = SdlSender(peer=1, timeout_limit=9, copies=5)
    ctx = make_ctx(0, 1)
    first = step(sender, ctx, 0)
    assert first == [("d", 0, 0)] * 5
    # acks can arrive out of order on the reordering channel
    nxt = step(sender, ctx, 1, inbox=[("a", 0), ("a", 0)])
    assert nxt == [("d", 1, 1)] * 5
    assert sender.sent == 10


# end-to-end ordering ---------------------------------------------------------

@pytest.mark.parametrize("variant,delay", [
    ("abp", {"kind": "deterministic", "value": 1}),
    ("abp", {"kind": "poisson", "mean": 2.0}),
    ("sdl", {"kind": "uniform", "min": 1, "max": 3}),
])
def test_delivery_in_order_without_duplicates_under_loss(variant, delay):
    doc = run(link_config(variant, delay=delay, lossProbability=0.25,
                          roundsPerComputation=300, computationsPerRun=3))
    by_comp = {}
    for rec in doc.records("delivered"):
        by_comp.setdefault(rec.computation, []).append(rec.payload["payload"])
    assert by_comp
    for delivered in by_comp.values():
        assert delivered == list(range(len(delivered)))


def test_delivered_never_exceeds_sent():
    for variant in ("abp", "sdl"):
        doc = run(link_config(variant, lossProbability=0.4,
                              delay={"kind": "uniform", "min": 1, "max": 2},
                              roundsPerComputation=200))
        counters = doc.payloads("utility")[0]
        assert counters["delivered"] <= counters["sent"]


# metric ----------------------------------------------------------------------

def utility_doc(pairs):
    doc = LogDocument()
    for comp, (sent, delivered) in enumerate(pairs):
        doc.append("utility", LogRecord(comp, 0, None,
                                        {"sent": sent, "delivered": delivered}))
    return doc


def test_utility_pools_counters():
    value, samples, series = utility(utility_doc([(100, 50)]))
    assert value == 0.5
    assert samples == 100
    assert series is None
    pooled, _, _ = utility(utility_doc([(100, 100), (300, 0)]))
    assert pooled == 0.25  # not the 0.5 a mean-of-ratios would give


def test_utility_requires_transmissions():
    with pytest.raises(MetricError):
        utility(utility_doc([]))
    with pytest.raises(MetricError):
        utility(utility_doc([(0, 0)]))
