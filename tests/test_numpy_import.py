"""numpy is loaded only by a run that builds a stream.

Other test modules import numpy, so each check runs in a fresh
interpreter with this checkout's `src` on its path.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"

# Runs `cli.main` on each (config, out) pair, in order, and prints one
# JSON object: each call's exit status and whether numpy was loaded
# after it, as {"imported": ..., "calls": [[status, numpy_loaded], ...]}.
SCRIPT = """
import json, sys
import roundsim
from roundsim import cli
result = {"imported": "numpy" in sys.modules, "calls": []}
for config, out in json.loads(sys.argv[1]):
    try:
        status = cli.main(["run", config, "--out", out])
    except SystemExit as exc:
        status = exc.code
    result["calls"].append([status, "numpy" in sys.modules])
print(json.dumps(result))
"""


def run_fresh(calls):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(calls)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fixed_law_runs_and_bad_configs_never_import_numpy(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"algorithm": "raft", "topology": {"kind": "ring"}}')
    result = run_fresh([
        ["configs/pbft.json", str(tmp_path / "pbft.json")],
        ["configs/raft.json", str(tmp_path / "raft.json")],
        [str(bad), str(tmp_path / "bad-out.json")],
    ])
    assert result == {"imported": False,
                      "calls": [[0, False], [0, False], [2, False]]}


def test_a_drawing_run_imports_numpy_and_keeps_its_log(tmp_path):
    out = tmp_path / "bitcoin-lossy.json"
    result = run_fresh([["configs/bitcoin-lossy.json", str(out)]])
    assert result == {"imported": False, "calls": [[0, True]]}
    want = json.loads(DIGESTS.read_text())["bitcoin-lossy.json"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
