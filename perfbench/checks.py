"""Output checks for benchmark cells.

A cell passes when its log holds what the protocol guarantees at every
seed and, at the default seed, when ``serialize(doc)`` hashes to the
digest checked in under ``digests.json``. Run this file as a script to
rewrite those digests; do that only in a change that alters log bytes on
purpose, and say why in that change.

    python3 perfbench/checks.py
"""

import hashlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# Expected commit latency per delay round, for the fixed-leader protocols.
LATENCY_FACTOR = {"pbft": 3, "raft": 2}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_cell(obj: dict, doc, reduced) -> list:
    """Problems found in one cell's log and metric value; empty when sound.

    ``obj`` is the cell's config object, ``doc`` the LogDocument that
    Engine.run returned and ``reduced`` the reducer's (value, count, series).
    """
    problems = []
    for tag in ("error", "protocolError"):
        if doc.records(tag):
            problems.append(f"{len(doc.records(tag))} {tag!r} records, first "
                            f"{doc.records(tag)[0].payload!r}")
    value, count = reduced[0], reduced[1]
    if not math.isfinite(value) or count < 1:
        problems.append(f"reduced metric {value!r} over {count} samples")

    algorithm = obj["algorithm"]
    if algorithm in LATENCY_FACTOR:
        expected = LATENCY_FACTOR[algorithm] * obj["delay"]["value"]
        wrong = [s for s in doc.payloads("latency")
                 if s["end"] - s["start"] != expected]
        if wrong:
            problems.append(f"{len(wrong)} latencies differ from {expected}, "
                            f"first {wrong[0]!r}")
    elif algorithm in ("bitcoin", "ethereum"):
        series = {}
        for rec in doc.records("confirmed"):
            series.setdefault(rec.computation, []).append(
                (rec.payload["round"], rec.payload["count"]))
        if len(series) != obj["computationsPerRun"]:
            problems.append(f"confirmed counts for {len(series)} computations")
        for computation, points in series.items():
            counts = [c for _, c in sorted(points)]
            if len(counts) != obj["roundsPerComputation"]:
                problems.append(f"computation {computation}: {len(counts)} "
                                "confirmed records")
            if any(b < a for a, b in zip(counts, counts[1:])):
                problems.append(f"computation {computation}: confirmed count "
                                "decreases")
    elif algorithm in ("chord", "kademlia"):
        problems.extend(_check_lookups(algorithm, obj["topology"]["nodes"], doc))
    return problems


def _check_lookups(algorithm: str, n: int, doc) -> list:
    """Every resolved lookup ends at its target after one forward per hop.
    Chord walks the shorter ring arc from the origin, which is the node
    that logged the query's first forward; kademlia fixes at least one
    more prefix bit per hop, so it needs at most log2 n hops."""
    forwards = {}
    for rec in doc.records("queryForwarded"):
        forwards.setdefault(rec.payload["query"], []).append(rec)
    bits = (n - 1).bit_length()
    bad = []
    for rec in doc.records("queryResolved"):
        lookup = rec.payload
        path = forwards.get(lookup["query"], [])
        hops = lookup["hops"]
        if rec.node != lookup["target"] or len(path) != hops:
            bad.append(lookup)
        elif algorithm == "chord":
            origin = path[0].node if path else lookup["target"]
            arc = (lookup["target"] - origin) % n
            if hops != min(arc, n - arc):
                bad.append(lookup)
        elif hops > bits:
            bad.append(lookup)
    if bad:
        return [f"{len(bad)} lookups with a wrong hop count or end, "
                f"first {bad[0]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from roundsim import config, engine, runlog
    seed = workloads.DEFAULT_SEED
    result = {"seed": seed, "workloads": {
        name: [digest(runlog.serialize(engine.Engine(config.parse_obj(obj)).run()))
               for obj in workloads.cells(name, seed)]
        for name in sorted(workloads.WORKLOADS)}}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS.name} for seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
