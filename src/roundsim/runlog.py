"""Tagged run log with canonical JSON serialization.

Every record carries the engine-maintained (computation, round, node) stamp;
callers only choose a tag and a JSON-compatible payload. A logger serves
one computation: its index is fixed when the logger is built, and the
engine moves only its round. Canonical order is (computation, round,
node) per tag, with engine-level records (node = None) sorting before
node records of the same round; the sort is stable, so records with
equal stamps keep their emission order. Serializing the same document
twice yields identical bytes.

Records come in two kinds, both `NamedTuple`s with one contract: a stamp
sort `KEY`, a `payload` and `to_json_obj()`, the record's JSON object. A
`LogRecord` (`computation`, `round`, `node`, `payload`) holds any JSON
payload. A typed record is a `NamedTuple` of ints for one high-volume tag,
declared by its fields and the `typed_record` decorator: `computation`,
an optional `node`, the payload's values in the sorted order of their
JSON keys, then `round`. The decorator derives the contract and the
type's `TAG` and `TEMPLATE` (its canonical JSON with one `%d` per field,
so `TEMPLATE % record` is the record's text); its `payload` is a dict
built afresh on each read.

Only int fields may be typed: `%d` writes `True` and `1.0` as `1`, where
`json.dumps` writes `true` and `1.0`. The fabric's `SendRecord`,
`DeliverRecord` and `DropRecord` (node always None) are built only by
`Network`. A protocol declares its own types and logs one with
`NodeContext.log_record`, which checks how many payload values it got
and hands them to `RunLogger.append_record`; the logger adds the stamp,
so a node never writes its own.

`serialize` writes the document in one pass by one of two rules per tag.
A tag of one typed kind is rendered through that type's template with
C-level `map` calls only; every other tag (`LogRecord`s, mixed kinds, or
none) is one `canonical_json` of its records' `to_json_obj()` list. A
template is the canonical JSON of its record, so the rules agree. The
rule is chosen by record type, never by tag, so a node that logs a dict
under a typed record's tag is written like any other record.

The `meta` header is one `canonical_json` call too, except for the
complete shorthand `{"kind": "complete", "nodes": n}`, which
`roundsim.topology` writes as the adjacency it stands for, from one
joined text of the ids.
"""

import json
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Optional

from ._version import __version__

# Per-message fabric trace tags. They are high-volume, so they are only
# emitted when explicitly listed in the config's logTags.
NET_SEND = "net.send"
NET_DELIVER = "net.deliver"
NET_DROP = "net.drop"
NET_TAGS = frozenset({NET_SEND, NET_DELIVER, NET_DROP})

# Node faults are recorded no matter what filter is configured.
ERROR_TAG = "error"


def _sort_key(rec):
    node = -1 if rec.node is None else rec.node
    return (rec.computation, rec.round, node)


class LogRecord(NamedTuple):
    """A node's or the engine's record: the stamp and any JSON payload."""

    computation: int
    round: int
    node: Optional[int]
    payload: Any

    KEY = staticmethod(_sort_key)

    def to_json_obj(self) -> dict:
        return {"computation": self.computation, "round": self.round,
                "node": self.node, "payload": self.payload}


# The encoder of every canonical JSON text: sorted keys, no spaces, finite numbers.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  allow_nan=False).encode


def typed_record(tag: str, names: Optional[dict] = None,
                 constants: Optional[dict] = None):
    """Class decorator that makes a `NamedTuple` of ints a typed record
    logged under `tag`.

    The fields are `computation`, an optional `node`, the payload's values
    in the sorted order of their JSON keys, then `round`. `names` maps a
    field to its JSON key where the two differ; `constants` are payload
    entries every record of the type holds. The decorator sets `TAG`,
    `TEMPLATE`, `VALUES` (how many payload values a node logs; None, and
    `node = None`, without a node field) and the record contract
    `LogRecord` keeps too (`KEY`, the `payload` property, `to_json_obj`);
    it raises `TypeError` for fields out of that order or a constant whose
    key is also a field's."""
    names = names or {}
    constants = dict(constants or {})

    def declare(cls):
        fields = cls._fields
        lo = 2 if fields[1:2] == ("node",) else 1
        keys = tuple(names.get(field, field) for field in fields[lo:-1])
        if (fields[:1] != ("computation",) or fields[-1:] != ("round",)
                or {"computation", "node", "round"} & set(fields[lo:-1])):
            raise TypeError(f"{cls.__name__}: fields must be computation, "
                            f"an optional node, the payload's, then round")
        if list(keys) != sorted(set(keys)):
            raise TypeError(f"{cls.__name__}: payload fields {keys} are not "
                            f"in the sorted order of their keys")
        if set(keys) & set(constants):
            raise TypeError(f"{cls.__name__}: a constant's key is also a "
                            f"field's key")
        entries = sorted([(key, "%d") for key in keys] + [
            (key, canonical_json(value).replace("%", "%%"))
            for key, value in constants.items()])
        body = ",".join(canonical_json(key).replace("%", "%%") + ":" + text
                        for key, text in entries)
        cls.TAG = tag
        cls.TEMPLATE = ('{"computation":%d,"node":' + ("%d" if lo == 2 else "null")
                        + ',"payload":{' + body + '},"round":%d}')
        cls.KEY = itemgetter(0, -1, 1) if lo == 2 else itemgetter(0, -1)
        cls.VALUES = len(keys) if lo == 2 else None
        if lo == 1:
            cls.node = None

        def payload(self) -> dict:
            """The payload dict, built afresh on each read."""
            return dict(zip(keys, self[lo:-1]), **constants)

        def to_json_obj(self) -> dict:
            return {"computation": self.computation, "node": self.node,
                    "payload": self.payload, "round": self.round}

        cls.payload = property(payload)
        cls.to_json_obj = to_json_obj
        return cls

    return declare


# The fabric's records; their node is None.

@typed_record(NET_SEND, names={"delivery_round": "deliveryRound",
                               "source": "from", "destination": "to"})
class SendRecord(NamedTuple):
    """`net.send`: a message staged on a channel."""

    computation: int
    delivery_round: int
    source: int
    destination: int
    round: int


@typed_record(NET_DELIVER, names={"source": "from", "sent_round": "sentRound",
                                  "destination": "to"})
class DeliverRecord(NamedTuple):
    """`net.deliver`: a packet handed to its receiver."""

    computation: int
    source: int
    sent_round: int
    destination: int
    round: int


@typed_record(NET_DROP, names={"source": "from", "destination": "to"})
class DropRecord(NamedTuple):
    """`net.drop`: a message lost on its channel."""

    computation: int
    source: int
    destination: int
    round: int


_new_tuple = tuple.__new__


def _order_key(kinds: set):
    """Canonical sort key for a list whose record types are `kinds`: the
    type's own `KEY` when they are all of one kind."""
    return next(iter(kinds)).KEY if len(kinds) == 1 else _sort_key


class LogDocument:
    """Append-only record set grouped by tag, plus a run metadata header."""

    def __init__(self, meta: Optional[dict] = None, data: Optional[dict] = None):
        self.meta = {} if meta is None else meta
        self.data = {} if data is None else data  # tag -> list of records

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.meta, self.data) == (other.meta, other.data)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(meta={self.meta!r}, "
                f"data={self.data!r})")

    def append(self, tag: str, record: LogRecord) -> None:
        self.data.setdefault(tag, []).append(record)

    def tags(self):
        return sorted(self.data)

    def records(self, tag: str) -> list:
        return self.data.get(tag, [])

    def payloads(self, tag: str) -> list:
        return [rec.payload for rec in self.records(tag)]

    def canonicalize(self) -> None:
        """Sort every tag into canonical order and drop tags with no record
        (the fabric is handed its tags' lists before it has sent anything)."""
        for tag, records in list(self.data.items()):
            if records:
                records.sort(key=_order_key(set(map(type, records))))
            else:
                del self.data[tag]


def serialize(doc: LogDocument) -> str:
    """Canonical JSON text: sorted keys, records in canonical order. The
    document itself is left as it is: each tag is written from a sorted
    copy."""
    parts = ['{"data":{']
    for i, tag in enumerate(doc.tags()):
        # The tag is encoded as json encodes a dict key: '"tag":'.
        parts.append(("," if i else "") + canonical_json({tag: 0})[1:-2])
        kinds = set(map(type, doc.data[tag]))
        records = sorted(doc.data[tag], key=_order_key(kinds))
        kind = kinds.pop() if len(kinds) == 1 else None
        template = getattr(kind, "TEMPLATE", None)
        if template is None:
            parts.append(canonical_json([rec.to_json_obj() for rec in records]))
        else:
            parts += ("[", ",".join(map(template.__mod__, records)), "]")
    from .topology import meta_parts  # deferred: see roundsim.topology

    parts += ('},"meta":', *meta_parts(dict(doc.meta, version=__version__)), "}")
    return "".join(parts)


class RunLogger:
    """Collects the records of one computation, stamping them with its
    index and the engine's current `round`.

    Nodes append through NodeContext.log and NodeContext.log_record as
    they compute. The engine runs them one at a time, so emission order
    within (round, node) is the order the node logged in.
    """

    def __init__(self, enabled_tags: Optional[Iterable[str]] = None,
                 computation: int = 0):
        # None means "all algorithm tags"; fabric trace tags stay opt-in.
        self.enabled_tags = None if enabled_tags is None else frozenset(enabled_tags)
        self.document = LogDocument()
        # tag -> that tag's record list in the document, or None when the
        # tag is disabled; filled in when a tag is first appended to or
        # handed to the fabric.
        self._records = {}
        self.computation = computation
        self.round = 0

    def enabled(self, tag: str) -> bool:
        if tag == ERROR_TAG:
            return True
        if self.enabled_tags is None:
            return tag not in NET_TAGS
        return tag in self.enabled_tags

    def records_for(self, tag: str) -> Optional[list]:
        """The tag's record list in the document, or None when the tag is
        disabled; resolved once per tag. The fabric appends its records
        to these lists itself."""
        if tag not in self._records:
            self._records[tag] = (self.document.data.setdefault(tag, [])
                                  if self.enabled(tag) else None)
        return self._records[tag]

    def append(self, tag: str, payload, node: Optional[int] = None) -> None:
        try:
            records = self._records[tag]
        except KeyError:
            records = self.records_for(tag)
        if records is not None:
            records.append(_new_tuple(
                LogRecord, (self.computation, self.round, node, payload)))

    def append_record(self, kind, node: int, values: tuple) -> None:
        """Append a typed record of `kind` under `kind.TAG`: `values` are
        its payload fields in template order, stamped here with this
        logger's (computation, round) and `node`."""
        tag = kind.TAG
        try:
            records = self._records[tag]
        except KeyError:
            records = self.records_for(tag)
        if records is not None:
            records.append(_new_tuple(
                kind, (self.computation, node, *values, self.round)))
