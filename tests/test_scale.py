"""Resource bounds of a wide run, measured in a child process.

raft on a complete graph of 2 000 nodes (3 998 000 channels, just under
`MAX_CHANNELS`) for 2 rounds writes a 17.8 MB log, almost all of it the
adjacency in `meta`. The child parses the config, runs it and serializes
the log, then reports the log's sha256 and its own peak RSS. The digest
pins the bytes. The bound holds only while the complete topology is held
as a shape (`network.CompleteAdjacency`, whose rows share one id tuple
and whose nodes share one membership map): expanded per node, the same
run peaks near 300 MB. Held as a shape, it peaks near 95 MB.

A drawing-law network keys all of its channels as it opens the first
one, which on a wide topology must cost its 16-byte keys and one chunk
of temporaries, and no Python object per channel.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from roundsim.network import CompleteAdjacency, DelayDistribution, Network
from roundsim.rng import StreamFactory

LOG_SHA256 = "bda4a3d7a73615fbf1b06819d980891197402f3ecdda26d65c87c88420b976d7"
MAX_RSS_MB = 200

CHILD = """
import hashlib, json, resource
from roundsim import config, engine, runlog
cfg = config.parse_obj({"algorithm": "raft", "roundsPerComputation": 2,
                        "topology": {"kind": "complete", "nodes": 2000}})
text = runlog.serialize(engine.run(cfg))
print(json.dumps({"sha256": hashlib.sha256(text.encode()).hexdigest(),
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is counted in KiB on Linux only")
def test_raft_on_a_complete_graph_of_2000_nodes_keeps_its_bytes_in_bounded_memory():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, timeout=300,
                           capture_output=True, text=True, check=True)
    report = json.loads(child.stdout)
    assert report["sha256"] == LOG_SHA256
    assert report["maxrss_kib"] / 1024 <= MAX_RSS_MB


# One chunk of keying's temporaries (seedmix._KEY_CHUNK channels at about 110
# bytes each) with room to spare.
KEYING_TEMPORARIES = 8 << 20


def test_a_wide_drawing_law_network_holds_16_bytes_of_key_per_channel():
    n = 1024
    channels = n * (n - 1)  # 1 047 552
    adjacency = CompleteAdjacency(n)
    law = DelayDistribution.poisson(2.5)
    # Load what the first keying loads, so that the measure sees only keys.
    Network(CompleteAdjacency(3), law, 0.1, StreamFactory(1, 0)).channel(0, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        base = tracemalloc.get_traced_memory()[0]
        net = Network(adjacency, law, 0.1, StreamFactory(1, 0))
        net.channel(5, 9)
        held, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert held - base <= 16 * channels + (1 << 20)
    assert peak - base <= 16 * channels + KEYING_TEMPORARIES
    blocks = sum(diff.count_diff for diff in after.compare_to(before, "filename"))
    assert blocks < 10_000, "a Python object per channel"
