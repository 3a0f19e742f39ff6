import json
from pathlib import Path

import pytest

from roundsim._version import __version__
from roundsim.algorithms.base import Algorithm, AlgorithmNode, register
from roundsim.config import load_file, parse_obj
from roundsim.engine import run
from roundsim.node import NodeContext
from roundsim.runlog import (ERROR_TAG, NET_DELIVER, NET_DROP, NET_SEND,
                             NET_TAGS, DeliverRecord, DropRecord, LogDocument,
                             LogRecord, RunLogger, SendRecord, serialize)

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def reference_serialize(doc):
    """The plain serializer: every record as a dict, sorted by stamp, and
    the whole document through one json.dumps."""
    def key(rec):
        return (rec.computation, rec.round, -1 if rec.node is None else rec.node)

    obj = {
        "meta": dict(doc.meta, version=__version__),
        "data": {tag: [{"computation": r.computation, "round": r.round,
                        "node": r.node, "payload": r.payload}
                       for r in sorted(doc.data[tag], key=key)]
                 for tag in sorted(doc.data)},
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def test_default_filter_takes_algorithm_tags_only():
    logger = RunLogger()
    assert logger.enabled("latency")
    assert logger.enabled("confirmed")
    assert not logger.enabled(NET_SEND)
    assert not logger.enabled(NET_DELIVER)
    assert not logger.enabled(NET_DROP)


def test_explicit_filter_is_exact():
    logger = RunLogger(("latency", NET_DROP))
    assert logger.enabled("latency")
    assert logger.enabled(NET_DROP)
    assert not logger.enabled("commit")
    assert not logger.enabled(NET_SEND)


def test_error_tag_cannot_be_filtered():
    for logger in (RunLogger(), RunLogger(()), RunLogger(("latency",))):
        assert logger.enabled(ERROR_TAG)


def test_disabled_appends_are_dropped():
    logger = RunLogger(("keep",))
    logger.append("keep", 1)
    logger.append("drop", 2)
    assert logger.document.payloads("keep") == [1]
    assert logger.document.records("drop") == []


def test_only_appended_enabled_tags_reach_the_document():
    for tags in (None, (), ("keep",)):
        logger = RunLogger(tags)
        for _ in range(2):
            logger.append(NET_SEND, {"from": 0})
            logger.append("drop" if tags is not None else NET_DROP, 2)
        assert list(logger.document.data) == []
        logger.append(ERROR_TAG, {"node": 1})
        logger.append("keep", 3)
        expected = [ERROR_TAG] if tags == () else [ERROR_TAG, "keep"]
        assert list(logger.document.data) == expected
        assert logger.document.payloads(ERROR_TAG) == [{"node": 1}]


def test_records_stamped_with_engine_position():
    logger = RunLogger()
    logger.set_position(2, 17)
    logger.append("t", "x", node=4)
    rec = logger.document.records("t")[0]
    assert (rec.computation, rec.round, rec.node) == (2, 17, 4)


def test_canonical_order():
    doc = LogDocument()
    doc.append("t", LogRecord(1, 0, 0, "late-comp"))
    doc.append("t", LogRecord(0, 5, 2, "r5n2"))
    doc.append("t", LogRecord(0, 5, None, "engine"))
    doc.append("t", LogRecord(0, 5, 2, "r5n2-b"))
    doc.append("t", LogRecord(0, 3, 9, "r3"))
    doc.canonicalize()
    assert doc.payloads("t") == ["r3", "engine", "r5n2", "r5n2-b", "late-comp"]


def test_node_records_keep_emission_order_after_engine_records():
    logger = RunLogger()
    logger.set_position(0, 1)
    high, low = (NodeContext(nid, (), None, logger) for nid in (3, 1))
    high.log("a", "first")
    logger.append("a", "engine")
    low.log("a", "lower-node")
    high.log("a", "second")
    doc = logger.document
    doc.canonicalize()
    assert doc.payloads("a") == ["engine", "lower-node", "first", "second"]
    assert [rec.node for rec in doc.records("a")] == [None, 1, 3, 3]


def test_serialize_is_canonical_and_stable():
    def build():
        doc = LogDocument(meta={"seed": 1, "algorithm": "x"})
        doc.append("b", LogRecord(0, 1, 0, {"k": 1, "a": 2}))
        doc.append("a", LogRecord(0, 0, 1, [1, 2]))
        return doc

    text = serialize(build())
    assert text == serialize(build())
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert list(obj["data"]) == ["a", "b"]
    assert "version" in obj["meta"]
    # compact separators, no spaces
    assert ": " not in text and ", " not in text


def test_serialize_empty_document():
    obj = json.loads(serialize(LogDocument(meta={"seed": 0})))
    assert obj["data"] == {}
    assert obj["meta"]["seed"] == 0


def test_record_json_is_stamp_and_payload():
    rec = LogRecord(0, 1, None, "p")
    assert rec.to_json_obj() == {"computation": 0, "round": 1, "node": None,
                                 "payload": "p"}
    assert LogRecord.__slots__ == ("computation", "round", "node", "payload")


def test_records_and_documents_compare_and_print_by_value():
    rec = LogRecord(0, 1, None, {"k": [1]})
    assert rec == LogRecord(0, 1, None, {"k": [1]})
    for other in (LogRecord(1, 1, None, {"k": [1]}), LogRecord(0, 2, None, {"k": [1]}),
                  LogRecord(0, 1, 3, {"k": [1]}), LogRecord(0, 1, None, {"k": [2]}),
                  (0, 1, None, {"k": [1]})):
        assert rec != other
    assert repr(rec) == "LogRecord(computation=0, round=1, node=None, payload={'k': [1]})"
    first, second = LogDocument(), LogDocument()
    first.append("t", rec)
    assert second.data == {} and second.meta == {}  # no shared defaults
    assert first == LogDocument(data={"t": [LogRecord(0, 1, None, {"k": [1]})]})
    assert first != second and first != {"t": [rec]}
    assert repr(LogDocument(meta={"seed": 1})) == "LogDocument(meta={'seed': 1}, data={})"
    for value in (rec, first):
        with pytest.raises(TypeError):
            hash(value)


def test_serialize_leaves_the_document_as_it_is():
    doc = LogDocument(meta={"seed": 1})
    doc.append("t", LogRecord(0, 5, 2, "r5n2"))
    doc.append("t", LogRecord(0, 5, None, "engine"))
    doc.append("t", LogRecord(0, 5, 2, "r5n2-b"))
    doc.append("t", LogRecord(0, 3, 9, "r3"))
    doc.append("a", LogRecord(1, 0, 0, "late"))
    doc.append("a", LogRecord(0, 0, 0, "early"))
    before = {tag: list(records) for tag, records in doc.data.items()}
    obj = json.loads(serialize(doc))
    assert [r["payload"] for r in obj["data"]["t"]] == [
        "r3", "engine", "r5n2", "r5n2-b"]
    assert [r["payload"] for r in obj["data"]["a"]] == ["early", "late"]
    assert doc.data == before


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_bundled_configs_with_fabric_tags_match_the_reference(path):
    config = load_file(path)
    config = config.with_(rounds_per_computation=min(
        config.rounds_per_computation, 40))
    algorithm_tags = (config.log_tags if config.log_tags is not None
                      else run(config).tags())
    doc = run(config.with_(log_tags=tuple(algorithm_tags) + tuple(NET_TAGS)))
    assert doc.records(NET_SEND) and doc.records(NET_DELIVER)
    assert serialize(doc) == reference_serialize(doc)


def test_out_of_order_document_matches_the_reference_and_is_kept():
    doc = LogDocument(meta={"seed": 1})
    doc.data[NET_SEND] = [
        tuple.__new__(SendRecord, (0, 4, 1, 2, 3)),
        LogRecord(0, 1, 5, {"from": 1.5, "note": "x"}),
        tuple.__new__(SendRecord, (0, 2, 2, 1, 1)),
        tuple.__new__(SendRecord, (0, 3, 0, 1, 1)),
    ]
    doc.data[NET_DELIVER] = [tuple.__new__(DeliverRecord, (1, 0, 0, 1, 2)),
                             tuple.__new__(DeliverRecord, (0, 2, 3, 1, 5))]
    doc.data[NET_DROP] = [tuple.__new__(DropRecord, (0, 1, 0, 3)),
                          tuple.__new__(DropRecord, (0, 0, 1, 3))]
    doc.data["t"] = [LogRecord(0, 5, 2, "b"), LogRecord(0, 5, None, "a")]
    before = {tag: list(records) for tag, records in doc.data.items()}
    assert serialize(doc) == reference_serialize(doc)
    assert doc.data == before
    assert [rec["payload"] for rec in json.loads(serialize(doc))["data"][NET_SEND]] == [
        {"from": 2, "to": 1, "deliveryRound": 2},
        {"from": 0, "to": 1, "deliveryRound": 3},
        {"from": 1.5, "note": "x"},
        {"from": 1, "to": 2, "deliveryRound": 4}]


def test_empty_document_matches_the_reference():
    for doc in (LogDocument(), LogDocument(meta={"seed": 0, "a": [1]})):
        assert serialize(doc) == reference_serialize(doc)
    doc = LogDocument(data={"empty": []})
    assert serialize(doc) == reference_serialize(doc)


def test_canonicalize_drops_tags_with_no_record():
    logger = RunLogger([NET_SEND, "kept"])
    assert logger.records_for(NET_SEND) == []
    assert logger.records_for(NET_DROP) is None
    logger.append("kept", 1)
    doc = logger.document
    assert doc.tags() == ["kept", NET_SEND]
    doc.canonicalize()
    assert doc.tags() == ["kept"]


# Node 1 logs under net.send, with a payload no fabric record could have,
# in every round in which the fabric also logs its own sends.
@register
class _FabricTagLoggerFamily(Algorithm):
    variants = ("fabric-tag-logger",)

    def create_node(self, node_id):
        return _FabricTagLogger()


class _FabricTagLogger(AlgorithmNode):
    def perform_computation(self, ctx):
        if ctx.id == 1:
            ctx.log(NET_SEND, {"from": 1.5, "note": "x"})
        ctx.broadcast(ctx.round)


def test_node_logged_fabric_tag_renders_like_the_reference():
    doc = run(parse_obj({
        "algorithm": "fabric-tag-logger",
        "topology": {"kind": "complete", "nodes": 3},
        "delay": {"kind": "uniform", "min": 1, "max": 3},
        "lossProbability": 0.2, "roundsPerComputation": 6,
        "computationsPerRun": 2, "seed": 7, "logTags": sorted(NET_TAGS)}))
    text = serialize(doc)
    assert text == reference_serialize(doc)
    sends = json.loads(text)["data"][NET_SEND]
    node_sends = [rec for rec in sends if rec["node"] is not None]
    assert len(node_sends) == 2 * 6
    assert all(rec["node"] == 1 and rec["payload"] == {"from": 1.5, "note": "x"}
               for rec in node_sends)
    assert len(sends) > len(node_sends)
