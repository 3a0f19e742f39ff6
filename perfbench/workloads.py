"""Benchmark workloads: lists of roundsim config objects made from a seed.

This module imports nothing from roundsim, so the set-up probe can build
the cells before it starts its clock on ``import roundsim``. The same
(workload, seed) pair always gives the same cells; the seed picks each
cell's run seed and, where the protocol allows it, the leader.
"""

import random

DEFAULT_SEED = 1

ALL_NET_TAGS = ["net.deliver", "net.drop", "net.send"]


def _consensus_fanout(rnd):
    cells = []
    for algorithm in ("pbft", "raft"):
        for delay in (1, 4):
            cells.append({
                "algorithm": algorithm,
                "topology": {"kind": "complete", "nodes": 20},
                "delay": {"kind": "deterministic", "value": delay},
                "lossProbability": 0,
                "roundsPerComputation": 1000,
                "computationsPerRun": 1,
                "seed": rnd.getrandbits(32),
                "workerCount": 1,
                "algorithmParams": {"leaderId": rnd.randrange(20)},
                "logTags": ["commit", "latency", "protocolError"],
            })
    # One wide cell: 160 k channels and a large adjacency header.
    cells.append({
        "algorithm": "raft",
        "topology": {"kind": "complete", "nodes": 400},
        "delay": {"kind": "deterministic", "value": 1},
        "lossProbability": 0,
        "roundsPerComputation": 20,
        "computationsPerRun": 1,
        "seed": rnd.getrandbits(32),
        "workerCount": 1,
        "algorithmParams": {"leaderId": rnd.randrange(400)},
        "logTags": ["commit", "latency", "protocolError"],
    })
    return cells


def _chain_lossy(rnd):
    # Lost blocks leave orphans whose cost varies between computations, so
    # a pass holds ten of them to stay steady across seeds. The pool's
    # thread hand-offs are the noisiest cost on a shared host, so one cell
    # runs on two workers and the rest on one.
    def cell(algorithm, workers, computations):
        return {
            "algorithm": algorithm,
            "topology": {"kind": "complete", "nodes": 20},
            "delay": {"kind": "poisson", "mean": 2.5},
            "lossProbability": 0.1,
            "roundsPerComputation": 1000,
            "computationsPerRun": computations,
            "seed": rnd.getrandbits(32),
            "workerCount": workers,
        }
    return [cell("bitcoin", 2, 2)] + [
        cell(algorithm, 1, 2) for _ in range(2)
        for algorithm in ("bitcoin", "ethereum")]


def _dht_trace(rnd):
    return [{
        "algorithm": algorithm,
        "topology": {"kind": "ring", "nodes": 4096},
        "delay": {"kind": "deterministic", "value": 1},
        "lossProbability": 0,
        "roundsPerComputation": 100,
        "computationsPerRun": 1,
        "seed": rnd.getrandbits(32),
        "workerCount": 1,
        "algorithmParams": {"queriesPerRound": 8},
        "logTags": ["queryForwarded", "queryResolved"] + ALL_NET_TAGS,
    } for algorithm in ("chord", "kademlia")]


# name -> (cell generator, one-line reason the workload exists)
WORKLOADS = {
    "consensus-fanout": (
        _consensus_fanout,
        "pbft and raft on complete n=20 plus raft n=400: message-bound "
        "deterministic lossless fabric, pbft's per-round scan, wide topology "
        "expansion"),
    "chain-lossy": (
        _chain_lossy,
        "bitcoin and ethereum, poisson delay, 10% loss, one cell on 2 "
        "workers: random fabric path, lazy channel streams, the intra-round "
        "pool, orphan and lineage work"),
    "dht-trace": (
        _dht_trace,
        "chord and kademlia on a 4096-node ring with every tag: large log, "
        "mostly idle nodes, many node streams, runlog merge and serialize"),
}


def cells(workload: str, seed: int) -> list:
    """The workload's config objects for this seed, in run order."""
    generate = WORKLOADS[workload][0]
    return generate(random.Random(f"{workload}:{seed}"))
