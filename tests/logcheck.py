"""Equality of whole serialized logs, reported briefly.

pytest's assertion rewriting explains a failed `==` between two strings
with a difflib diff, which on logs of hundreds of kB runs for minutes.
`assert_same_log` makes the same check and, on a mismatch, reports both
lengths, the first differing offset and the record of the first text it
falls in, with a short window of each text around it.

A serialized log is `{"data":{<tag>:[<record>,...],...},"meta":{...}}`.
`layout` finds each tag's array and `meta` in the text, `locate` names
the tag and record an offset falls in, and `tag_digests` hashes each
part, so a changed log can be narrowed to the tags that changed. Run as
a script, it compares a log file with a golden case's tag digests:

    python tests/logcheck.py bench/dht-500.json LOG
"""

import hashlib
import json
import sys
from pathlib import Path

# Characters shown on each side of the first difference.
WINDOW = 40

TAG_DIGESTS = Path(__file__).resolve().parent / "golden_tag_digests.json"

_decode = json.JSONDecoder().raw_decode
_HEAD, _META = '{"data":{', '},"meta":'


def first_difference(a, b) -> int:
    """The length of the longest common prefix of a and b."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def layout(text):
    """`({tag: (start, end)}, (start, end))`: the span of each tag's array
    in text order, then the span of `meta`. Raises ValueError when text
    is not a serialized log."""
    if not text.startswith(_HEAD):
        raise ValueError("not a serialized log")
    spans, at = {}, len(_HEAD)
    while not text.startswith("}", at):
        if spans:
            at += 1  # the comma before the next tag
        tag, at = _decode(text, at)
        _, end = _decode(text, at + 1)  # after the colon
        spans[tag], at = (at + 1, end), end
    if not text.startswith(_META, at):
        raise ValueError(f"no meta at offset {at}")
    _, end = _decode(text, at + len(_META))
    return spans, (at + len(_META), end)


def records(text, span):
    """`(start, end, record)` for each record of the array at span."""
    start, end = span
    at = start + 1
    while at < end - 1:
        record, stop = _decode(text, at)
        yield at, stop, record
        at = stop + 1  # past the comma or the closing bracket


def locate(text, offset) -> str:
    """Where offset falls in a serialized log: the tag and the record,
    with its computation, round and node, or `meta`."""
    try:
        spans, meta = layout(text)
    except ValueError as error:
        return f"no log ({error})"
    if meta[0] <= offset < meta[1]:
        return "meta"
    for tag, span in spans.items():
        if span[0] <= offset < span[1]:
            for index, (_, stop, record) in enumerate(records(text, span)):
                if offset < stop:
                    return (f"tag {tag!r}, record {index} (computation "
                            f"{record['computation']}, round "
                            f"{record['round']}, node {record['node']})")
            return f"tag {tag!r}, after its last record"
    return "no part of the log"


def tag_digests(text) -> dict:
    """`{"data": {tag: {"records": count, "sha256": digest}}, "meta":
    digest}` for a serialized log: each digest is of a part's text as
    the log renders it."""
    spans, meta = layout(text)
    return {"data": {tag: {"records": sum(1 for _ in records(text, span)),
                           "sha256": sha256(text[slice(*span)])}
                     for tag, span in spans.items()},
            "meta": sha256(text[slice(*meta)])}


def tag_differences(got, want) -> list:
    """One line per part of `want` (a `tag_digests` value) that `got`
    does not match, with the record counts of each side."""
    def count(part):
        return "absent" if part is None else f"{part['records']} records"

    lines = []
    for tag in sorted(set(got["data"]) | set(want["data"])):
        have, expect = got["data"].get(tag), want["data"].get(tag)
        if have != expect:
            lines.append(f"tag {tag!r} differs: {count(have)}, golden "
                         f"{count(expect)}")
    if got["meta"] != want["meta"]:
        lines.append("meta differs")
    return lines


def assert_same_log(first, *others):
    """Fail unless every text in others equals first."""
    for index, other in enumerate(others, 1):
        if other != first:
            at = first_difference(first, other)
            window = slice(max(0, at - WINDOW), at + WINDOW)
            raise AssertionError(
                f"logs 0 and {index} differ: lengths {len(first)} and "
                f"{len(other)}, first difference at offset {at}\n"
                f"  in {locate(first, at)}\n"
                f"  0: {first[window]!r}\n  {index}: {other[window]!r}")


def sha256(text: str) -> str:
    """The hex SHA-256 of text's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv) -> int:
    """Print each part of a log file that differs from a golden case's
    tag digests; exit 1 if any does."""
    if len(argv) != 2:
        sys.exit("usage: python tests/logcheck.py CASE LOG")
    case, path = argv
    want = json.loads(TAG_DIGESTS.read_text(encoding="utf-8"))[case]
    lines = tag_differences(tag_digests(Path(path).read_text(encoding="utf-8")),
                            want)
    print("\n".join(lines) if lines else f"{path}: every tag matches {case}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
