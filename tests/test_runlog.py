import json
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from roundsim._version import __version__
from roundsim.algorithms.base import (Algorithm, AlgorithmNode, get_algorithm,
                                      register)
from roundsim.algorithms.dht import (TAG_FORWARDED, ForwardRecord,
                                     KademliaForwardRecord, ResolveRecord)
from roundsim.cli import _doc_to_csv
from roundsim.config import load_file, parse_obj
from roundsim.engine import run
from roundsim.node import NodeContext
from roundsim.rng import StreamFactory
from roundsim.topology import meta_parts
from roundsim.runlog import (ERROR_TAG, NET_DELIVER, NET_DROP, NET_SEND,
                             NET_TAGS, DeliverRecord, DropRecord, LogDocument,
                             LogRecord, RunLogger, SendRecord, canonical_json,
                             serialize, typed_record)

from logcheck import assert_same_log

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def reference_serialize(doc):
    """The plain serializer: every record as a dict, sorted by stamp, and
    the whole document through one json.dumps. The complete shorthand in
    `meta` is written as its rows, expanded here from range(n)."""
    def key(rec):
        return (rec.computation, rec.round, -1 if rec.node is None else rec.node)

    meta = dict(doc.meta, version=__version__)
    topology = meta.get("topology")
    if (isinstance(topology, dict) and topology.keys() == {"kind", "nodes"}
            and topology["kind"] == "complete"
            and type(topology["nodes"]) is int and topology["nodes"] >= 1):
        meta["topology"] = {"adjacency": complete_meta_adjacency(
            topology["nodes"])}
    obj = {
        "meta": meta,
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
    logger = RunLogger(None, 2)
    logger.round = 17
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
    logger = RunLogger(None, 0)
    logger.round = 1
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
    assert_same_log(text, serialize(build()))
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
    assert LogRecord._fields == ("computation", "round", "node", "payload")
    assert LogRecord.KEY(rec) == (0, 1, -1)
    assert LogRecord.KEY(rec._replace(node=4)) == (0, 1, 4)


def test_records_and_documents_compare_and_print_by_value():
    rec = LogRecord(0, 1, None, {"k": [1]})
    assert rec == LogRecord(0, 1, None, {"k": [1]}) == (0, 1, None, {"k": [1]})
    for other in (LogRecord(1, 1, None, {"k": [1]}), LogRecord(0, 2, None, {"k": [1]}),
                  LogRecord(0, 1, 3, {"k": [1]}), LogRecord(0, 1, None, {"k": [2]}),
                  (0, 1, None)):
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
    # Records are immutable: `_replace` makes an edited copy and leaves the
    # record, and so the document, as it was.
    with pytest.raises(AttributeError):
        rec.payload = {"k": [2]}
    edited = rec._replace(payload={"k": [2]})
    assert edited == LogRecord(0, 1, None, {"k": [2]}) and type(edited) is LogRecord
    sent = SendRecord(0, 4, 1, 2, 3)
    assert sent._replace(round=5) == SendRecord(0, 4, 1, 2, 5)
    assert rec.payload == {"k": [1]} and sent.round == 3
    assert first == LogDocument(data={"t": [LogRecord(0, 1, None, {"k": [1]})]})


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
    assert_same_log(serialize(doc), reference_serialize(doc))


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
    assert_same_log(serialize(doc), reference_serialize(doc))
    assert doc.data == before
    assert [rec["payload"] for rec in json.loads(serialize(doc))["data"][NET_SEND]] == [
        {"from": 2, "to": 1, "deliveryRound": 2},
        {"from": 0, "to": 1, "deliveryRound": 3},
        {"from": 1.5, "note": "x"},
        {"from": 1, "to": 2, "deliveryRound": 4}]


def test_empty_document_matches_the_reference():
    for doc in (LogDocument(), LogDocument(meta={"seed": 0, "a": [1]})):
        assert_same_log(serialize(doc), reference_serialize(doc))
    doc = LogDocument(data={"empty": []})
    assert_same_log(serialize(doc), reference_serialize(doc))


def complete_meta_adjacency(n):
    return {str(u): [v for v in range(n) if v != u] for u in range(n)}


def kademlia_merged_adjacency():
    config = parse_obj({"algorithm": "kademlia", "roundsPerComputation": 5,
                        "topology": {"kind": "ring", "nodes": 16}})
    family = get_algorithm("kademlia")(config, StreamFactory(config.seed, 0))
    merged = family.adjacency()
    assert merged != config.adjacency  # the shortcuts added channels
    return {str(u): list(vs) for u, vs in merged.items()}


def permuted_row(n, node):
    adjacency = complete_meta_adjacency(n)
    adjacency[str(node)].reverse()
    return adjacency


META_ADJACENCIES = {
    "complete-1": complete_meta_adjacency(1),
    "complete-2": complete_meta_adjacency(2),
    "complete-11": complete_meta_adjacency(11),
    "complete-23": complete_meta_adjacency(23),
    "explicit-complete": parse_obj({
        "algorithm": "raft", "roundsPerComputation": 1,
        "topology": {"adjacency": complete_meta_adjacency(13)}}
    ).to_json_obj()["topology"]["adjacency"],
    "permuted-row": permuted_row(12, 10),
    "self-loop": {"0": [0, 1], "1": [0, 2], "2": [0, 1]},
    "kademlia-merged": kademlia_merged_adjacency(),
    "bool": {"0": [True], "1": [0]},
    "bool-first": {"0": [1, 2], "1": [False, 2], "2": [0, 1]},
    "float-first": {"0": [1, 2], "1": [0, 2], "2": [0.0, 1]},
    "float": {"0": [1, 2, 3], "1": [0, 2, 3], "2": [0, 1, 3.0], "3": [0, 1, 2]},
    "tuple-rows": {"0": (1,), "1": (0,)},
    "padded-key": {"00": [1], "1": [0]},
    "negative": {"-1": [0], "0": [-1]},
    "missing-node": {"0": [1], "1": [2], "3": [0]},
    "empty": {},
}


@pytest.mark.parametrize("meta", [
    {"algorithm": "raft", "seed": 1},
    {},
    {"a": [1], "zeta": {"b": 2}},
], ids=["engine-like", "topology-only", "keys-around"])
@pytest.mark.parametrize("name", list(META_ADJACENCIES))
def test_meta_adjacency_is_written_as_canonical_json(meta, name):
    doc = LogDocument(meta=dict(
        meta, topology={"adjacency": META_ADJACENCIES[name]}))
    assert serialize(doc) == ('{"data":{},"meta":' + canonical_json(
        dict(doc.meta, version=__version__)) + "}")


def test_only_the_complete_shorthand_is_cut_from_the_joined_ids():
    arounds = [{}, {"algorithm": "raft", "seed": 1}, {"a": [1], "zeta": {"b": 2}}]
    for around in arounds:
        for n in (1, 2, 11, 23):
            parts = meta_parts(dict(
                around, topology={"kind": "complete", "nodes": n}))
            assert len(parts) > 1
            assert "".join(parts) == canonical_json(dict(
                around, topology={"adjacency": complete_meta_adjacency(n)}))
        # Anything but the exact shorthand is written as it is.
        for topology in ({"kind": "complete", "nodes": True},
                         {"kind": "complete", "nodes": 0},
                         {"kind": "complete", "nodes": 2.0},
                         {"kind": "complete", "nodes": 3, "x": 1},
                         {"kind": "ring", "nodes": 3},
                         {"adjacency": complete_meta_adjacency(3)}):
            meta = dict(around, topology=topology)
            assert meta_parts(meta) == [canonical_json(meta)]


def test_meta_topology_with_other_keys_is_written_as_canonical_json():
    topology = {"adjacency": complete_meta_adjacency(3), "kind": "complete"}
    doc = LogDocument(meta={"topology": topology})
    assert serialize(doc) == ('{"data":{},"meta":' + canonical_json(
        dict(doc.meta, version=__version__)) + "}")


def test_explicit_complete_run_writes_the_generated_runs_bytes():
    def config(topology):
        return parse_obj({"algorithm": "raft", "roundsPerComputation": 6,
                          "topology": topology, "logTags": ["commit"]})

    generated = run(config({"kind": "complete", "nodes": 12}))
    explicit = run(config({"adjacency": complete_meta_adjacency(12)}))
    assert_same_log(serialize(explicit), serialize(generated),
                    reference_serialize(generated))


def test_log_mismatch_reports_lengths_and_first_offset():
    text = serialize(run(load_file(CONFIGS[0])))
    assert_same_log(text, text[:], text + "")
    changed = text[:1000] + "#" + text[1001:]
    for other, at in ((changed, 1000), (text[:-1], len(text) - 1)):
        with pytest.raises(AssertionError) as failure:
            assert_same_log(text, text, other)
        message = str(failure.value)
        assert message.startswith(f"logs 0 and 2 differ: lengths {len(text)} "
                                  f"and {len(other)}, first difference at "
                                  f"offset {at}\n")
        assert len(message) < 400


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
    assert_same_log(text, reference_serialize(doc))
    sends = json.loads(text)["data"][NET_SEND]
    node_sends = [rec for rec in sends if rec["node"] is not None]
    assert len(node_sends) == 2 * 6
    assert all(rec["node"] == 1 and rec["payload"] == {"from": 1.5, "note": "x"}
               for rec in node_sends)
    assert len(sends) > len(node_sends)
    # The same mixed tag out of order: reversed, and led by a LogRecord of
    # a later computation and a SendRecord of an earlier round.
    doc.data[NET_SEND] = [LogRecord(1, 5, 1, {"from": 1.5, "note": "x"}),
                          SendRecord(0, 2, 0, 1, 1), *reversed(doc.data[NET_SEND])]
    assert_same_log(serialize(doc), reference_serialize(doc))


# typed records -----------------------------------------------------------------

# A type that renames its fields' keys (so its field names are not in key
# order) and holds constants between them; `%` must print as itself.
@typed_record("test.renamed", names={"late": "a%d", "early": "z"},
              constants={"b": None, "m": "50%"})
class _RenamedRecord(NamedTuple):
    computation: int
    late: int
    early: int
    round: int


# Every typed record type, with the payload dict its tag was logged with
# before the type existed, built from the record's fields.
OLD_PAYLOADS = {
    SendRecord: lambda r: {"from": r.source, "to": r.destination,
                           "deliveryRound": r.delivery_round},
    DeliverRecord: lambda r: {"from": r.source, "to": r.destination,
                              "sentRound": r.sent_round},
    DropRecord: lambda r: {"from": r.source, "to": r.destination},
    ForwardRecord: lambda r: {"query": r.query, "to": r.to},
    KademliaForwardRecord: lambda r: {"query": r.query, "to": r.to,
                                      "fallback": False},
    ResolveRecord: lambda r: {"query": r.query, "target": r.target,
                              "hops": r.hops},
    _RenamedRecord: lambda r: {"a%d": r.late, "b": None, "m": "50%",
                               "z": r.early},
}

# One record of every record type, each with a stamp and payload of its own.
CONTRACT_RECORDS = [LogRecord(2, 1, None, {"b": [1.5, None, True], "a": "x"})] + [
    kind(*range(3, 3 + len(kind._fields)))
    for kind in (SendRecord, DeliverRecord, DropRecord, ForwardRecord,
                 KademliaForwardRecord, ResolveRecord)]


@pytest.mark.parametrize("rec", CONTRACT_RECORDS,
                         ids=[type(rec).__name__ for rec in CONTRACT_RECORDS])
def test_record_json_obj_is_the_text_serialize_writes(rec):
    text = serialize(LogDocument(data={"t": [rec]}))
    assert text == ('{"data":{"t":[' + canonical_json(rec.to_json_obj()) + ']},'
                    '"meta":' + canonical_json({"version": __version__}) + "}")


# Ints across 0, negatives and past both ends of int64.
INTS = st.one_of(st.integers(-2**70, 2**70),
                 st.sampled_from([0, -1, 2**63 - 1, 2**63, 2**64 + 1, -2**63 - 1]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(list(OLD_PAYLOADS)), st.data())
def test_typed_record_template_is_its_canonical_json(kind, data):
    size = len(kind._fields)
    rec = kind(*data.draw(st.lists(INTS, min_size=size, max_size=size)))
    old = OLD_PAYLOADS[kind](rec)
    assert rec.TEMPLATE % rec == canonical_json({
        "computation": rec.computation, "node": rec.node, "payload": old,
        "round": rec.round})
    assert canonical_json(rec.to_json_obj()) == rec.TEMPLATE % rec
    assert rec.payload == old
    assert rec.payload is not rec.payload
    stamp = (rec.computation, rec.round)
    assert kind.KEY(rec) == (stamp if rec.node is None else stamp + (rec.node,))


@pytest.mark.parametrize("fields, names, constants", [
    (("computation", "node", "round", "hops"), None, None),
    (("node", "computation", "hops", "round"), None, None),
    (("computation", "hops", "node", "round"), None, None),
    (("computation", "node", "hops"), None, None),
    (("node", "hops", "round"), None, None),
    (("computation", "node", "query", "hops", "target", "round"), None, None),
    (("computation", "node", "query", "to", "round"), None, {"to": 0}),
    (("computation", "node", "query", "to", "round"), {"query": "fallback"},
     {"fallback": False}),
], ids=["round-not-last", "computation-not-first", "node-not-second",
        "no-round", "no-computation",
        "payload-not-in-key-order", "constant-is-a-field",
        "constant-is-a-renamed-field"])
def test_typed_record_refuses_a_misdeclared_type(fields, names, constants):
    kind = NamedTuple("Misdeclared", [(field, int) for field in fields])
    with pytest.raises(TypeError):
        typed_record("t", names, constants)(kind)


def as_log_records(doc):
    """A copy of `doc` with every record a `LogRecord`, in the same order."""
    return LogDocument(dict(doc.meta), {
        tag: [LogRecord(r.computation, r.round, r.node, r.payload) for r in records]
        for tag, records in doc.data.items()})


def test_typed_records_are_logged_with_the_loggers_stamp():
    logger = RunLogger(None, 2)
    logger.round = 17
    ctx = NodeContext(4, (), None, logger)
    ctx.log_record(ForwardRecord, 9, 5)
    ctx.log_record(ResolveRecord, 3, 8, 4)
    doc = logger.document
    assert doc.records(TAG_FORWARDED) == [ForwardRecord(2, 4, 9, 5, 17)]
    assert doc.payloads("queryResolved") == [{"query": 8, "target": 4, "hops": 3}]
    off = RunLogger(("queryResolved",))
    NodeContext(4, (), None, off).log_record(ForwardRecord, 9, 5)
    assert off.document.records(TAG_FORWARDED) == []


# Node 2 logs one typed record in round 1, with the values its call names.
_LOG_CALLS = {"right": (ForwardRecord, (9, 5)), "short": (ForwardRecord, (9,)),
              "over": (ForwardRecord, (9, 5, 6)),
              "fabric": (SendRecord, (3, 0, 1))}


@register
class _RecordCallFamily(Algorithm):
    variants = ("record-call",)
    param_defaults = {"call": "right"}

    def create_node(self, node_id):
        return _RecordCaller(*_LOG_CALLS[self.params["call"]])


class _RecordCaller(AlgorithmNode):
    def __init__(self, kind, values):
        self.kind = kind
        self.values = values

    def perform_computation(self, ctx):
        if (ctx.id, ctx.round) == (2, 1):
            ctx.log_record(self.kind, *self.values)


def record_call_run(call):
    kind = _LOG_CALLS[call][0]
    return kind, run(parse_obj({
        "algorithm": "record-call", "algorithmParams": {"call": call},
        "topology": {"kind": "ring", "nodes": 4}, "roundsPerComputation": 3,
        "seed": 1, "logTags": [kind.TAG]}))


@pytest.mark.parametrize("call, message", [
    ("short", "node 2 cannot log ForwardRecord: it takes 2 values, not 1"),
    ("over", "node 2 cannot log ForwardRecord: it takes 2 values, not 3"),
    ("fabric", "node 2 cannot log SendRecord: it has no node field"),
])
def test_a_typed_record_with_the_wrong_values_is_a_node_fault(call, message):
    kind, doc = record_call_run(call)
    assert doc.records(ERROR_TAG) == [LogRecord(0, 1, 2, {
        "node": 2, "type": "SimulationError", "message": message})]
    assert doc.records(kind.TAG) == []
    assert_same_log(serialize(doc), reference_serialize(doc))


def test_a_typed_record_with_the_right_values_is_logged():
    _, doc = record_call_run("right")
    assert doc.records(ERROR_TAG) == []
    assert doc.records(TAG_FORWARDED) == [ForwardRecord(0, 2, 9, 5, 1)]
    assert_same_log(serialize(doc), reference_serialize(doc))


# Every node logs a typed forward each round; node 1 also logs a dict under
# the same tag, and the family an engine record after each round.
@register
class _MixedForwardFamily(Algorithm):
    variants = ("mixed-forward-logger",)

    def create_node(self, node_id):
        return _MixedForwarder()

    def end_of_round(self, round_, nodes, logger):
        logger.append(TAG_FORWARDED, {"engine": round_})


class _MixedForwarder(AlgorithmNode):
    def perform_computation(self, ctx):
        if ctx.id == 1:
            ctx.log(TAG_FORWARDED, {"query": 1.5, "note": "x"})
        ctx.log_record(ForwardRecord, ctx.round, ctx.neighbors[0])


def test_mixed_tag_serializes_like_an_all_log_record_copy():
    doc = run(parse_obj({
        "algorithm": "mixed-forward-logger",
        "topology": {"kind": "ring", "nodes": 4}, "roundsPerComputation": 5,
        "computationsPerRun": 2, "seed": 3}))
    records = doc.records(TAG_FORWARDED)
    assert {type(r) for r in records} == {ForwardRecord, LogRecord}
    assert [(r.computation, r.round, r.node) for r in records[:4]] == [
        (0, 0, None), (0, 0, 0), (0, 0, 1), (0, 0, 1)]
    text = serialize(doc)
    assert_same_log(text, serialize(as_log_records(doc)), reference_serialize(doc))
    # out of order, the mixed tag is sorted record by record
    for tag in doc.data:
        doc.data[tag].reverse()
    assert_same_log(serialize(doc), serialize(as_log_records(doc)), reference_serialize(doc))


# Between them the three configs log every bundled typed record type.
@pytest.mark.parametrize("name, kinds", [
    ("chord.json", {ForwardRecord, ResolveRecord}),
    ("chord-lossy.json", {ForwardRecord, ResolveRecord, SendRecord,
                          DeliverRecord, DropRecord}),
    ("kademlia.json", {KademliaForwardRecord, ResolveRecord}),
], ids=["chord.json", "chord-lossy.json", "kademlia.json"])
def test_chord_csv_and_log_match_an_all_log_record_copy(name, kinds):
    doc = run(load_file(CONFIGS[0].parent / name))
    assert {type(r) for records in doc.data.values() for r in records} == kinds
    copy = as_log_records(doc)
    assert _doc_to_csv(doc) == _doc_to_csv(copy)
    assert_same_log(serialize(doc), serialize(copy))

