"""Golden log digests: the SHA-256 of the canonical log of every bundled
config, plus a node-fault run with every fabric trace tag, and of the
JSON metric table of every bundled sweep.

Any change that alters log bytes fails here. A deliberate change
regenerates the digests and says why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from roundsim.config import load_file
from roundsim.engine import run
from roundsim.runlog import NET_TAGS, serialize
from roundsim.sweep import load_sweep_file, run_sweep

from test_engine import tick_config

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
FAULT_CASE = "tick-fault"


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
    assert len(cases()) == 11
    assert len(sweep_cases()) == 4
    assert set(cases()) | set(sweep_cases()) == set(golden())


@pytest.mark.parametrize("name", sorted(cases()))
def test_log_bytes_match_golden_digest(name):
    assert digest(cases()[name]) == golden()[name]


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
