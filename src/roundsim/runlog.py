"""Tagged run log with canonical JSON serialization.

Every record carries the engine-maintained (computation, round, node) stamp;
callers only choose a tag and a JSON-compatible payload. Canonical order is
(computation, round, node) per tag, with engine-level records (node = None)
sorting before node records of the same round; the sort is stable, so records
with equal stamps keep their emission order. Serializing the same document
twice yields identical bytes.
"""

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ._version import __version__

# Per-message fabric trace tags. They are high-volume, so they are only
# emitted when explicitly listed in the config's logTags.
NET_SEND = "net.send"
NET_DELIVER = "net.deliver"
NET_DROP = "net.drop"
NET_TAGS = frozenset({NET_SEND, NET_DELIVER, NET_DROP})

# Node faults are recorded no matter what filter is configured.
ERROR_TAG = "error"


@dataclass(slots=True)
class LogRecord:
    computation: int
    round: int
    node: Optional[int]
    payload: Any

    def to_json_obj(self) -> dict:
        return {
            "computation": self.computation,
            "round": self.round,
            "node": self.node,
            "payload": self.payload,
        }


def _sort_key(rec: LogRecord):
    node = -1 if rec.node is None else rec.node
    return (rec.computation, rec.round, node)


@dataclass
class LogDocument:
    """Append-only record set grouped by tag, plus a run metadata header."""

    meta: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)  # tag -> list[LogRecord]

    def append(self, tag: str, record: LogRecord) -> None:
        self.data.setdefault(tag, []).append(record)

    def tags(self):
        return sorted(self.data)

    def records(self, tag: str) -> list:
        return self.data.get(tag, [])

    def payloads(self, tag: str) -> list:
        return [rec.payload for rec in self.records(tag)]

    def canonicalize(self) -> None:
        for records in self.data.values():
            records.sort(key=_sort_key)


def serialize(doc: LogDocument) -> str:
    """Canonical JSON text: sorted keys, records in canonical order. The
    document itself is left as it is."""
    obj = {
        "meta": dict(doc.meta, version=__version__),
        "data": {tag: [r.to_json_obj()
                       for r in sorted(doc.data[tag], key=_sort_key)]
                 for tag in doc.tags()},
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


class RunLogger:
    """Collects records during a run, stamping them with engine state.

    Nodes append through NodeContext.log as they compute. The engine runs
    them one at a time, so emission order within (computation, round,
    node) is the order the node logged in.
    """

    def __init__(self, enabled_tags: Optional[Iterable[str]] = None):
        # None means "all algorithm tags"; fabric trace tags stay opt-in.
        self.enabled_tags = None if enabled_tags is None else frozenset(enabled_tags)
        self.document = LogDocument()
        # tag -> that tag's record list in the document, or None when the
        # tag is disabled; filled in on a tag's first append.
        self._records = {}
        self.computation = 0
        self.round = 0

    def enabled(self, tag: str) -> bool:
        if tag == ERROR_TAG:
            return True
        if self.enabled_tags is None:
            return tag not in NET_TAGS
        return tag in self.enabled_tags

    def set_position(self, computation: int, round_: int) -> None:
        self.computation = computation
        self.round = round_

    def append(self, tag: str, payload, node: Optional[int] = None) -> None:
        try:
            records = self._records[tag]
        except KeyError:
            records = self._records[tag] = (
                self.document.data.setdefault(tag, []) if self.enabled(tag) else None)
        if records is not None:
            records.append(LogRecord(self.computation, self.round, node, payload))
