"""roundsim benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload consensus-fanout --seed 1 \
        --seconds 30 --trace 0

A workload is a list of cells (config objects, see workloads.py) made
from --seed. One pass takes every cell from its config object to its
outputs: ``config.parse_obj``, ``Engine(config).run()``,
``runlog.serialize`` and the family's metric reducer. A run makes the
workload's fixed number of passes (PASSES), or as many as fit into
--seconds if that is fewer. Every cell's output is checked (checks.py)
outside the timed region. The whole run is pinned to one CPU, so the
intra-round pool's workers share it with the main thread.

--trace 0 prints the end-to-end metrics. On a 2-vCPU Xeon virtual
machine sharing its host, the same code ran up to 1.8x slower for
milliseconds to tens of seconds at a time, and whole 30-second runs
differed by 25 % or more. So every timed window is converted by the
host-speed meter (meter.py) to the seconds it would have taken at a
fixed reference speed. ``wall_s`` is the sum over cells of each cell's
median converted pass time, and ``node_rounds_per_s`` and
``records_per_s`` use the same medians. Set-up time is the median
converted time over fresh interpreters (setup_probe.py), one after each
pass and then more until --seconds have gone by, since only a new
process pays for ``import roundsim``. The unconverted pass times and the
run's contention are printed beside the metrics.

--trace 1 alternates plain and traced passes and prints the per-layer
metrics, each the median over the traced passes (tracer.py), plus the
traced/plain ratio of the fastest pass times; its times are host seconds,
not converted. ``engine.self_s`` is the run span's self time less
pool-thread work and less the wrappers' own cost outside the windows
they time, calibrated on a no-op before and after each traced pass
(Tracer.calibrate). It is an estimate: on the shared 2-vCPU
host it moved by a few tenths of a second between passes on dht-trace.
The untraced Engine.run time is printed beside it as a ceiling. The run
also checks that tracing changed no log byte, and writes the
last traced pass's spans and per-boundary totals to standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted``
counts cells run and ``failed`` the cells that raised or failed a check.
Exit code 2 means the benchmark could not start (for example, no
``src/roundsim`` beside this directory) and no result was printed.
"""

import argparse
import copy
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import meter  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "node_rounds_per_s": "1/s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.parse_s": "s",
    "rng.streams": "count",
    "rng.stream_s": "s",
    "network.build_s": "s",
    "network.enqueue_s": "s",
    "network.attempted": "count",
    "network.dropped": "count",
    "network.deliver_s": "s",
    "network.delivered": "count",
    "network.delivered_ratio": "ratio",
    "network.inflight_peak": "count",
    "network.msgs_per_s": "1/s",
    "algorithms.consensus.compute_s": "s",
    "algorithms.blockchain.compute_s": "s",
    "algorithms.blockchain.hook_s": "s",
    "algorithms.dht.compute_s": "s",
    "algorithms.dht.init_s": "s",
    "algorithms.busy_ratio": "ratio",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.node_rounds": "count",
    "engine.round_growth": "ratio",
    "runlog.append_s": "s",
    "runlog.records": "count",
    "runlog.canonicalize_s": "s",
    "runlog.serialize_s": "s",
    "runlog.bytes": "count",
    "sweep.reduce_s": "s",
    "trace.overhead": "ratio",
    "trace.absent": "count",
}

# Per-layer metric -> tracer boundaries it is read from. The metric is
# reported absent when none of them exists on the checked-out commit.
LAYER_SOURCES = {
    "rng.streams": ("rng.make_stream",),
    "rng.stream_s": ("rng.make_stream",),
    "network.build_s": ("network.build",),
    "network.enqueue_s": ("network.enqueue",),
    "network.attempted": ("network.build",),
    "network.dropped": ("network.build",),
    "network.deliver_s": ("network.deliver",),
    "network.delivered": ("network.build",),
    "network.delivered_ratio": ("network.build",),
    "network.inflight_peak": ("network.deliver",),
    "network.msgs_per_s": ("network.build",),
    "algorithms.consensus.compute_s": ("algorithms.consensus.compute",),
    "algorithms.blockchain.compute_s": ("algorithms.blockchain.compute",),
    "algorithms.blockchain.hook_s": ("algorithms.blockchain.hook",),
    "algorithms.dht.compute_s": ("algorithms.dht.compute",),
    "algorithms.dht.init_s": ("algorithms.dht.init",),
    "algorithms.busy_ratio": ("algorithms.consensus.compute",
                              "algorithms.blockchain.compute",
                              "algorithms.dht.compute"),
    "engine.round_growth": ("network.deliver",),
    "runlog.append_s": ("runlog.append", "runlog.merge"),
    "runlog.canonicalize_s": ("runlog.canonicalize",),
}

# Passes per run. On the seed commit, on the 2-vCPU host described
# above, these took 20-25 s of a 30 s run at the median pass time,
# set-up probes included.
PASSES = {"consensus-fanout": 13, "chain-lossy": 5, "dht-trace": 6}

# Fewest set-up probes per run.
SETUP_PROBES = 7


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_roundsim():
    """Import roundsim from this checkout's src/ and nowhere else."""
    if not (SRC / "roundsim" / "__init__.py").is_file():
        raise SetupError(f"no roundsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import roundsim
    from roundsim import config, engine, runlog
    from roundsim.algorithms import blockchain, consensus, dht
    if Path(roundsim.__file__).resolve().parent != SRC / "roundsim":
        raise SetupError(f"imported roundsim from {roundsim.__file__}, "
                         f"not from {SRC}")
    reducers = {}
    for name in ("pbft", "raft"):
        reducers[name] = consensus.mean_latency
    for name in ("bitcoin", "ethereum"):
        reducers[name] = lambda doc: blockchain.throughput_series(doc, 5)
    for name in ("chord", "kademlia"):
        reducers[name] = dht.mean_hops
    return config, engine, runlog, reducers


def setup_probe(workload: str, seed: int) -> tuple:
    """(start, end) of set-up in one fresh interpreter, on this process's
    ``time.perf_counter`` clock (the system-wide monotonic clock)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError("set-up probe failed:\n" + proc.stderr.strip())
    start, end = proc.stdout.strip().splitlines()[-1].split()
    return float(start), float(end)


class Harness:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.cells = workloads.cells(workload, seed)
        self.config, self.engine, self.runlog, self.reducers = load_roundsim()
        golden = checks.load_digests()
        self.golden = (golden["workloads"].get(workload)
                       if golden["seed"] == seed else None)
        self.digests = None  # per cell, from the first pass
        self.attempted = 0
        self.failed = 0
        self.node_rounds = sum(
            obj["topology"]["nodes"] * obj["roundsPerComputation"]
            * obj["computationsPerRun"] for obj in self.cells)

    def run_pass(self, tracer=None) -> dict:
        """Every cell once. The wall window covers parse, run, serialize
        and reduce; counting, hashing and checks happen outside it."""
        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        # (start, end) per cell, on the perf_counter clock; None where the
        # cell raised.
        walls, runs = [], []
        records = size = 0
        networks = []
        digests = []
        for index, obj in enumerate(self.cells):
            obj = copy.deepcopy(obj)
            self.attempted += 1
            walls.append(None)
            runs.append(None)
            try:
                start = time.perf_counter()
                with span("cell"):
                    with span("parse"):
                        cfg = self.config.parse_obj(obj)
                    with span("run"):
                        run_start = time.perf_counter()
                        doc = self.engine.Engine(cfg).run()
                        cell_run = (run_start, time.perf_counter())
                    with span("serialize"):
                        text = self.runlog.serialize(doc)
                    with span("reduce"):
                        reduced = self.reducers[obj["algorithm"]](doc)
                walls[-1] = (start, time.perf_counter())
                runs[-1] = cell_run
                if tracer is not None:
                    networks.extend(tracer.take_networks())
                records += sum(len(doc.records(tag)) for tag in doc.tags())
                size += len(text.encode("utf-8"))
                problems = checks.check_cell(obj, doc, reduced)
                cell_digest = checks.digest(text)
            except Exception as exc:  # a cell that raises counts as failed
                problems = [f"raised {type(exc).__name__}: {exc}"]
                cell_digest = None
            digests.append(cell_digest)
            if self.golden is not None and cell_digest != self.golden[index]:
                problems.append("log digest differs from digests.json")
            if self.digests is not None and cell_digest != self.digests[index]:
                problems.append("log digest differs from the first, untraced pass")
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"FAIL {self.workload} cell {index} "
                          f"({obj['algorithm']}): {problem}", file=sys.stderr)
        if self.digests is None:
            self.digests = digests
        return {"walls": walls, "runs": runs, "records": records,
                "bytes": size, "networks": networks}

    def traced_pass(self):
        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
        try:
            result = self.run_pass(tracer)
        finally:
            tracer.uninstall()
        tracer.calibrate()
        return result, tracer


def layer_metrics(result: dict, tracer, node_rounds: int) -> tuple:
    """Per-layer values of one traced pass, and the metric names absent."""
    main, workers = tracer.aggregates()

    def totals(name):
        count = sum(v[0] for (n, _), v in main.items() if n == name)
        total = sum(v[1] for (n, _), v in main.items() if n == name)
        worker = workers.get(name, (0, 0.0))
        return count + worker[0], total + worker[1]

    def spans(name):
        chosen = [s for s in tracer.spans if s["name"] == name]
        return (sum(s["end"] - s["start"] for s in chosen),
                sum(s["self"] for s in chosen))

    nets = result["networks"]
    counters_ok = all(n["sent"] is not None and n["dropped"] is not None
                      and n["delivered"] is not None for n in nets)
    sent = sum(n["sent"] or 0 for n in nets)
    dropped = sum(n["dropped"] or 0 for n in nets)
    delivered = sum(n["delivered"] or 0 for n in nets)
    attempted = sent + dropped
    first = last = 0.0
    for n in nets:
        gaps = [b - a for a, b in zip(n["stamps"], n["stamps"][1:])]
        if len(gaps) >= 10:
            tenth = len(gaps) // 10
            first += sum(gaps[:tenth])
            last += sum(gaps[-tenth:])

    run_total, run_self = spans("run")
    worker_total = sum(v[1] for v in workers.values())
    compute_calls, busy_calls = tracer.compute_calls()
    # Wrapper bookkeeping outside the timed windows of the run span's
    # direct children, and of every pool-thread call, lands in the run
    # span's self time; take out its calibrated cost.
    overhead = tracer.overhead
    wrapper_cost = sum(
        count * overhead["compute" if name.endswith(".compute") else "timed"]
        for (name, parent), (count, _, _) in main.items() if parent == "run")
    wrapper_cost += sum(v[0] for v in workers.values()) * overhead["compute"]
    values = {
        "config.parse_s": spans("parse")[0],
        "rng.streams": totals("rng.make_stream")[0],
        "rng.stream_s": totals("rng.make_stream")[1],
        "network.build_s": totals("network.build")[1],
        "network.enqueue_s": totals("network.enqueue")[1],
        "network.attempted": attempted,
        "network.dropped": dropped,
        "network.deliver_s": totals("network.deliver")[1],
        "network.delivered": delivered,
        "network.delivered_ratio": delivered / attempted if attempted else 0.0,
        "network.inflight_peak": max((n["inflight_peak"] for n in nets), default=0),
        "network.msgs_per_s": attempted / run_total if run_total else 0.0,
        "algorithms.consensus.compute_s": totals("algorithms.consensus.compute")[1],
        "algorithms.blockchain.compute_s": totals("algorithms.blockchain.compute")[1],
        "algorithms.blockchain.hook_s": totals("algorithms.blockchain.hook")[1],
        "algorithms.dht.compute_s": totals("algorithms.dht.compute")[1],
        "algorithms.dht.init_s": totals("algorithms.dht.init")[1],
        "algorithms.busy_ratio": (busy_calls / compute_calls
                                  if compute_calls else 0.0),
        "engine.run_s": run_total,
        "engine.self_s": run_self - worker_total - wrapper_cost,
        "engine.node_rounds": node_rounds,
        "engine.round_growth": last / first if first else 0.0,
        "runlog.append_s": (totals("runlog.append")[1]
                            + totals("runlog.merge")[1]),
        "runlog.records": result["records"],
        "runlog.canonicalize_s": totals("runlog.canonicalize")[1],
        "runlog.serialize_s": spans("serialize")[1],
        "runlog.bytes": result["bytes"],
        "sweep.reduce_s": spans("reduce")[0],
        "trace.absent": len(tracer.absent),
    }
    absent = sorted(metric for metric, sources in LAYER_SOURCES.items()
                    if not any(s in tracer.installed for s in sources))
    if not counters_ok:
        absent += [m for m in ("network.attempted", "network.dropped",
                               "network.delivered", "network.delivered_ratio",
                               "network.msgs_per_s") if m not in absent]
    for metric in absent:
        values[metric] = 0
    return values, sorted(absent)


def durations(passes, key, seconds=lambda start, end: end - start):
    """Per cell, its times over the passes in which it did not raise."""
    return [[seconds(*w) for w in windows if w is not None]
            for windows in zip(*(p[key] for p in passes))]


def best(passes, key):
    """Sum over cells of each cell's fastest host time among the passes."""
    return sum(min(times, default=0.0) for times in durations(passes, key))


def median_sum(passes, key, seconds):
    """Sum over cells of each cell's median converted time."""
    return sum(statistics.median(times) if times else 0.0
               for times in durations(passes, key, seconds))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness = Harness(args.workload, args.seed)
        if args.trace:
            meter.pin_to_one_cpu()
            host = nullcontext()
        else:
            setup_probe(args.workload, args.seed)  # warms the bytecode cache
            host = meter.Meter()
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    plain, traced, setup = [], [], []
    layer_runs, absent = [], []
    deadline = time.perf_counter() + args.seconds
    with host:
        while len(plain) < PASSES[args.workload]:
            plain.append(harness.run_pass())
            if args.trace:
                result, tracer = harness.traced_pass()
                traced.append(result)
                values, absent = layer_metrics(result, tracer, harness.node_rounds)
                layer_runs.append(values)
                last_tracer = tracer
            else:
                # Probes between passes sample set-up across the whole run.
                setup.append(setup_probe(args.workload, args.seed))
            if time.perf_counter() >= deadline:
                break
        while not args.trace and (len(setup) < SETUP_PROBES
                                  or time.perf_counter() < deadline):
            setup.append(setup_probe(args.workload, args.seed))

    sums = [sum(end - start for start, end in filter(None, p["walls"]))
            for p in plain]
    print(f"workload {args.workload} seed {args.seed}: {len(harness.cells)} "
          f"cells, {len(plain)} plain and {len(traced)} traced passes; pass "
          f"host seconds median {statistics.median(sums):.4f}, quartiles "
          "%.4f .. %.4f" % quartiles(sums))
    if args.trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in PER_LAYER if name != "trace.overhead"}
        plain_wall = best(plain, "walls")
        metrics["trace.overhead"] = (best(traced, "walls") / plain_wall
                                     if plain_wall else 0.0)
        units = PER_LAYER
        # The engine's own loop is part of Engine.run, so an estimate of
        # its self time above the untraced Engine.run time is wrong.
        print(f"untraced Engine.run {best(plain, 'runs'):.6g} s "
              "(sum of each cell's fastest pass)")
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
        print("\n".join(["spans and boundaries of the last traced pass:"]
                        + last_tracer.report()), file=sys.stderr)
    else:
        # Zero times only arise when every pass of every cell raised.
        wall = median_sum(plain, "walls", host.seconds)
        run_s = median_sum(plain, "runs", host.seconds)
        setup_s = [host.seconds(start, end) for start, end in setup]
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_s),
            "node_rounds_per_s": harness.node_rounds / run_s if run_s else 0.0,
            "records_per_s": plain[0]["records"] / wall if wall else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print("host probe time over the reference: fastest %.3f, median %.3f"
              % host.slowdown() + f" ({len(host.samples)} probes on CPU {host.cpu})")
        print("setup_s quartiles %.4f .. %.4f" % quartiles(setup_s)
              + f" over {len(setup_s)} probes")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"cells_failed {harness.failed / harness.attempted:.6g} "
          f"({harness.failed} of {harness.attempted})")
    print(json.dumps({
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
