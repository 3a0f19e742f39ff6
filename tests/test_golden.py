"""Golden log digests: the SHA-256 of the canonical log of every bundled
config (`configs/bench/*.json` under `bench/<file>`), plus a node-fault
run with every fabric trace tag, a run whose `net.send` mixes record
kinds in some computations only, and of the JSON metric table of every
bundled sweep.

Any change that alters log bytes fails here. A failing run case names
the tags whose rendered array differs, and their record counts, from
the per-tag digests in `golden_tag_digests.json` (see `logcheck`). A
deliberate change regenerates both files and says why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from roundsim.algorithms.base import Algorithm, AlgorithmNode, register
from roundsim.config import load_file, parse_obj
from roundsim.engine import run
from roundsim.runlog import NET_TAGS, serialize
from roundsim.sweep import load_sweep_file, run_sweep

from logcheck import TAG_DIGESTS, sha256, tag_differences, tag_digests
from test_engine import tick_config

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
FAULT_CASE = "tick-fault"
MIXED_CASE = "netnote-mixed"


@register
class _NetNoteFamily(Algorithm):
    """Every node broadcasts its id each round. In even computations the
    odd nodes also log a dict under `net.send`, so that tag holds the
    fabric's `SendRecord`s and `LogRecord`s in computations 0 and 2 and
    `SendRecord`s alone in computation 1. Node 2 faults in round 2 of
    computation 1, which leaves that computation without a `done` record.
    The family reads its computation from its stream factory."""

    variants = ("netnote",)

    def create_node(self, node_id):
        computation = self.streams.computation
        return _NetNoteNode(notes=computation % 2 == 0,
                            fail_round=2 if computation == 1 else None)

    def finalize(self, nodes, logger):
        logger.append("done", {"received": [
            node.received for _, node in sorted(nodes.items())]})


class _NetNoteNode(AlgorithmNode):
    def __init__(self, notes, fail_round):
        self.notes = notes
        self.fail_round = fail_round
        self.received = 0

    def perform_computation(self, ctx):
        self.received += len(ctx.in_stream)
        if self.notes and ctx.id % 2 and ctx.rng.random() < 0.7:
            ctx.log("net.send", {"note": ctx.round, "received": self.received})
        if ctx.id == 2 and ctx.round == self.fail_round:
            raise RuntimeError("synthetic fault")
        ctx.broadcast(ctx.id)


def _mixed_config():
    return parse_obj({"algorithm": "netnote", "seed": 11,
                      "topology": {"kind": "complete", "nodes": 5},
                      "delay": {"kind": "poisson", "mean": 1.5},
                      "lossProbability": 0.2, "roundsPerComputation": 6,
                      "computationsPerRun": 3,
                      "logTags": ["done"] + sorted(NET_TAGS)})


def _fault_config():
    # Node 1 faults in round 2 of every computation, so the abort path,
    # the error record and the skipped finalize all reach the log.
    return tick_config(topology={"kind": "complete", "nodes": 5},
                       delay={"kind": "poisson", "mean": 2.0},
                       lossProbability=0.1, roundsPerComputation=5,
                       algorithmParams={"failAt": [1, 2]},
                       logTags=["tick", "done"] + sorted(NET_TAGS))


def cases():
    """Case name -> RunConfig, in a fixed order."""
    out = {path.name: load_file(path)
           for path in sorted((ROOT / "configs").glob("*.json"))}
    out.update((f"bench/{path.name}", load_file(path))
               for path in sorted((ROOT / "configs" / "bench").glob("*.json")))
    out[FAULT_CASE] = _fault_config()
    out[MIXED_CASE] = _mixed_config()
    return out


def sweep_cases():
    """Case name ("sweeps/<file>") -> sweep file path, in a fixed order."""
    return {f"sweeps/{path.name}": path
            for path in sorted((ROOT / "configs" / "sweeps").glob("*.json"))}


def sweep_digest(path) -> str:
    return sha256(run_sweep(load_sweep_file(path)).to_json())


def golden():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def golden_tags():
    return json.loads(TAG_DIGESTS.read_text(encoding="utf-8"))


def test_golden_cases_cover_every_bundled_config():
    assert len(cases()) == 13
    assert len(sweep_cases()) == 4
    assert set(cases()) | set(sweep_cases()) == set(golden())
    assert set(cases()) == set(golden_tags())


def _record_ids(doc):
    return {tag: list(map(id, records)) for tag, records in doc.data.items()}


@pytest.mark.parametrize("name", sorted(cases()))
def test_log_bytes_match_golden_digest(name):
    doc = run(cases()[name])
    text = serialize(doc)
    tags = tag_digests(text)
    assert sha256(text) == golden()[name] and tags == golden_tags()[name], (
        f"{name}: " + "; ".join(tag_differences(tags, golden_tags()[name])
                                or ["every part matches; their order differs"]))
    # The engine hands back its document in canonical order already: a
    # stable sort moves no record, not even one that ties with another.
    ids = _record_ids(doc)
    doc.canonicalize()
    assert _record_ids(doc) == ids


@pytest.mark.parametrize("name", sorted(sweep_cases()))
def test_sweep_table_matches_golden_digest(name):
    assert sweep_digest(sweep_cases()[name]) == golden()[name]


def write():
    texts = {name: serialize(run(config)) for name, config in cases().items()}
    digests = {name: sha256(text) for name, text in texts.items()}
    digests.update((name, sweep_digest(path))
                   for name, path in sweep_cases().items())
    tags = {name: tag_digests(text) for name, text in texts.items()}
    for path, value in ((DIGESTS, digests), (TAG_DIGESTS, tags)):
        path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {len(value)} cases to {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write()
