"""Golden log digests: the SHA-256 of the canonical log of every bundled
config, plus a node-fault run with every fabric trace tag, a run whose
`net.send` mixes record kinds in some computations only, and of the JSON
metric table of every bundled sweep.

Any change that alters log bytes fails here. A deliberate change
regenerates the digests and says why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from roundsim.algorithms.base import Algorithm, AlgorithmNode, register
from roundsim.config import load_file, parse_obj
from roundsim.engine import run
from roundsim.runlog import NET_TAGS, serialize
from roundsim.sweep import load_sweep_file, run_sweep

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
    out[FAULT_CASE] = _fault_config()
    out[MIXED_CASE] = _mixed_config()
    return out


def sweep_cases():
    """Case name ("sweeps/<file>") -> sweep file path, in a fixed order."""
    return {f"sweeps/{path.name}": path
            for path in sorted((ROOT / "configs" / "sweeps").glob("*.json"))}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(config) -> str:
    return _sha256(serialize(run(config)))


def sweep_digest(path) -> str:
    return _sha256(run_sweep(load_sweep_file(path)).to_json())


def golden():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_golden_cases_cover_every_bundled_config():
    assert len(cases()) == 12
    assert len(sweep_cases()) == 4
    assert set(cases()) | set(sweep_cases()) == set(golden())


def _record_ids(doc):
    return {tag: list(map(id, records)) for tag, records in doc.data.items()}


@pytest.mark.parametrize("name", sorted(cases()))
def test_log_bytes_match_golden_digest(name):
    doc = run(cases()[name])
    assert _sha256(serialize(doc)) == golden()[name]
    # The engine hands back its document in canonical order already: a
    # stable sort moves no record, not even one that ties with another.
    ids = _record_ids(doc)
    doc.canonicalize()
    assert _record_ids(doc) == ids


@pytest.mark.parametrize("name", sorted(sweep_cases()))
def test_sweep_table_matches_golden_digest(name):
    assert sweep_digest(sweep_cases()[name]) == golden()[name]


def write():
    digests = {name: digest(config) for name, config in cases().items()}
    digests.update((name, sweep_digest(path))
                   for name, path in sweep_cases().items())
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write()
