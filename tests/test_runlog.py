import json

from roundsim.node import NodeContext
from roundsim.runlog import (ERROR_TAG, NET_DELIVER, NET_DROP, NET_SEND,
                             LogDocument, LogRecord, RunLogger, serialize)


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
