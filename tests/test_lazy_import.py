"""A run loads only its own protocol family, and the package's lazy
exports and registry still behave as eager ones did.

Other test modules import every family, so the `sys.modules` checks run
in a fresh interpreter with this checkout's `src` on its path.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from roundsim import cli, sweep
from roundsim.algorithms.base import BUNDLED, get_algorithm
from roundsim.algorithms.blockchain import BlockchainFamily
from roundsim.algorithms.consensus import ConsensusFamily
from roundsim.algorithms.datalink import DatalinkFamily
from roundsim.algorithms.dht import DhtFamily
from roundsim.config import load
from roundsim.errors import UnknownAlgorithmError

ROOT = Path(__file__).resolve().parent.parent

FAMILIES = ("blockchain", "consensus", "datalink", "dht")

# Prints the roundsim modules loaded so far, without the package prefix.
LOADED = """
import sys
def loaded():
    return sorted(name[len("roundsim."):] for name in sys.modules
                  if name.startswith("roundsim."))
"""


def run_fresh(script, *args):
    """Run `script` in a fresh interpreter from the repository root and
    return the JSON value of its last line of output."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", LOADED + script, *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def families(modules):
    return {name.split(".")[1] for name in modules
            if name.startswith("algorithms.") and name != "algorithms.base"}


def test_a_raft_run_and_its_refusals_load_no_sweep_and_no_other_family(tmp_path):
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"algorithm": "paxos", "roundsPerComputation": 5, '
                       '"topology": {"kind": "complete", "nodes": 3}}')
    steps = run_fresh("""
import json, os
import roundsim
steps = [[None, loaded()]]
from roundsim import cli
cli.build_parser()
steps.append([None, loaded()])
for argv in json.loads(sys.argv[1]):
    steps.append([cli.main(argv), loaded()])
print(json.dumps(steps))
""", json.dumps([["run", "configs/raft.json", "--out", os.devnull],
                 ["run", str(unknown)],
                 ["run", "configs/chord.json", "--out", os.devnull]]))
    statuses = [status for status, _ in steps]
    assert statuses == [None, None, 0, 2, 0]
    assert steps[0][1] == ["_version"]
    for _, modules in steps[:4]:
        assert "sweep" not in modules
        assert families(modules) <= {"consensus"}
    assert families(steps[2][1]) == {"consensus"}
    assert set(steps[4][1]) - set(steps[3][1]) == {"algorithms.dht"}


def test_set_up_imports_no_dataclasses_or_inspect():
    # No step loads numpy, which imports inspect itself.
    added = run_fresh("""
import glob, json, os
before = set(sys.modules)
from roundsim import cli, config, sweep
for path in sorted(glob.glob("configs/*.json") + glob.glob("configs/bench/*.json")):
    config.load_file(path)
for path in sorted(glob.glob("configs/sweeps/*.json")):
    sweep.load_sweep_file(path)
cli.build_parser()
statuses = [cli.main(["run", path, "--out", os.devnull])
            for path in ("configs/pbft.json", "configs/raft.json")]
print(json.dumps([statuses, sorted({"dataclasses", "inspect"}
                                   & (set(sys.modules) - before))]))
""")
    assert added == [[0, 0], []]


def test_a_consensus_sweep_loads_only_consensus():
    modules = run_fresh("""
import json, os
from roundsim import cli
status = cli.main(["sweep", "configs/sweeps/consensus-latency.json",
                   "--out", os.devnull])
print(json.dumps([status, loaded()]))
""")
    assert modules[0] == 0
    assert "sweep" in modules[1]
    assert families(modules[1]) == {"consensus"}


def test_every_export_resolves_in_a_fresh_interpreter():
    names = run_fresh("""
import json
import roundsim
print(json.dumps({name: getattr(roundsim, name) is not None
                  for name in roundsim.__all__}))
""")
    assert names and all(names.values())
    star = run_fresh("""
import json
from roundsim import *
import roundsim
print(json.dumps([name for name in roundsim.__all__ if name not in globals()]))
""")
    assert star == []


def test_a_family_module_is_an_attribute_of_the_package():
    found = run_fresh("""
import json
import roundsim.algorithms
print(json.dumps([roundsim.algorithms.dht.DhtFamily.__name__, loaded()]))
""")
    assert found[0] == "DhtFamily"
    assert families(found[1]) == {"dht"}


def test_a_bundled_id_claimed_from_another_module_is_refused_before_its_family_loads():
    result = run_fresh("""
import json
from roundsim.algorithms import base
from roundsim.algorithms.base import Algorithm, get_algorithm, register
class Impostor(Algorithm):
    variants = ("impostor", "pbft")
try:
    register(Impostor)
    refusal = None
except ValueError as exc:
    refusal = str(exc)
before = loaded()
print(json.dumps([refusal, before, get_algorithm("pbft").__name__,
                  "impostor" in base._REGISTRY]))
""")
    refusal, before, family, partly_registered = result
    assert refusal == "algorithm id 'pbft' is bundled in roundsim.algorithms.consensus"
    assert families(before) == set()
    assert family == "ConsensusFamily"
    assert not partly_registered


def test_an_unknown_id_is_refused_with_exit_2(tmp_path, capsys):
    with pytest.raises(KeyError):
        get_algorithm("paxos")
    text = ('{"algorithm": "paxos", "roundsPerComputation": 5, '
            '"topology": {"kind": "complete", "nodes": 3}}')
    with pytest.raises(UnknownAlgorithmError):
        load(text)
    path = tmp_path / "in.json"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sim: ") and err.count("\n") == 1


def test_the_table_names_exactly_the_ids_the_families_register():
    registered = {name: cls.__module__.rsplit(".", 1)[1]
                  for cls in (BlockchainFamily, ConsensusFamily,
                              DatalinkFamily, DhtFamily)
                  for name in cls.variants}
    assert registered == BUNDLED
    assert set(BUNDLED.values()) == set(FAMILIES)
    for name, module in BUNDLED.items():
        assert get_algorithm(name).__module__ == f"roundsim.algorithms.{module}"


def test_each_metric_names_a_reducer_of_its_family_module():
    for metric, (module, _) in sweep.METRICS.items():
        assert module in FAMILIES
        assert callable(getattr(import_module(f"roundsim.algorithms.{module}"),
                                metric))
