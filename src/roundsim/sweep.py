"""Parameter sweeps over run configs, metric reduction to plot-ready
tables, and the thread-count benchmark.

Each sweep point gets its own seed derived from (base seed, point index);
all variants at a point share it, so cross-variant comparisons are paired
down to the workload.
"""

import copy
import csv
import io
import time
from dataclasses import dataclass, field
from typing import Optional

from . import config as config_mod
from .config import as_int, reject_unknown_keys, require
from .algorithms.blockchain import BlockchainFamily, throughput_series
from .algorithms.consensus import ConsensusFamily, mean_latency
from .algorithms.dht import DhtFamily, mean_hops
from .algorithms.datalink import DatalinkFamily, utility
from .engine import Engine
from .errors import ConfigError, SimulationError
from .rng import SWEEP, derive_seed
from .runlog import canonical_json, serialize

# metric name -> (reducer over a LogDocument, called with the metricParams as
#                 keywords; algorithm ids it applies to; metricParams keys it
#                 accepts, each an integer >= 1)
METRICS = {
    "throughput_series": (throughput_series, BlockchainFamily.variants,
                          ("window",)),
    "mean_latency": (mean_latency, ConsensusFamily.variants, ()),
    "utility": (utility, DatalinkFamily.variants, ()),
    "mean_hops": (mean_hops, DhtFamily.variants, ()),
}

_SWEEP_KEYS = {"base", "axis", "points", "variants", "metric", "metricParams"}


@dataclass(frozen=True)
class Sweep:
    base: dict              # raw config document, before axis substitution
    axis: str
    points: tuple
    variants: tuple
    metric: str
    metric_params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Row:
    axis_value: object
    variant: str
    value: float
    sample_count: int
    series: Optional[tuple] = None  # (round, value) pairs, throughput only

    def to_json_obj(self) -> dict:
        obj = {"axisValue": self.axis_value, "variant": self.variant,
               "metricValue": self.value, "sampleCount": self.sample_count}
        if self.series is not None:
            obj["series"] = [[r, v] for r, v in self.series]
        return obj


@dataclass(frozen=True)
class MetricTable:
    header: dict
    rows: tuple

    def to_json_obj(self) -> dict:
        return {"header": self.header,
                "rows": [row.to_json_obj() for row in self.rows]}

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)  # csv defaults to RFC-4180 CRLF endings
        writer.writerow(["axisValue", "variant", "metricValue", "sampleCount"])
        for row in self.rows:
            writer.writerow([_num(row.axis_value), row.variant,
                             _num(row.value), row.sample_count])
        return out.getvalue()


def _num(value):
    if isinstance(value, float):
        return "%.6g" % value
    return value


def parse_sweep(obj: dict) -> Sweep:
    if not isinstance(obj, dict):
        raise ConfigError("", "sweep root must be an object")
    reject_unknown_keys(obj, "", _SWEEP_KEYS)
    base = require(obj, "base")
    if not isinstance(base, dict):
        raise ConfigError("base", "expected a configuration object")
    axis = require(obj, "axis")
    if not isinstance(axis, str) or not axis:
        raise ConfigError("axis", "expected a parameter path")
    points = require(obj, "points")
    if not isinstance(points, list):
        raise ConfigError("points", "expected a list")
    variants = (obj["variants"] if "variants" in obj
                else [require(base, "base.algorithm")])
    if (not isinstance(variants, list) or not variants
            or any(not isinstance(v, str) for v in variants)):
        raise ConfigError("variants", "expected a non-empty list of names")
    for i, v in enumerate(variants):
        if v in variants[:i]:
            raise ConfigError("variants", f"{v!r} is listed more than once")
    metric = require(obj, "metric")
    if metric not in METRICS:
        raise ConfigError("metric",
                          f"expected one of {sorted(METRICS)}, got {metric!r}")
    _, allowed, param_keys = METRICS[metric]
    for v in variants:
        if v not in allowed:
            raise ConfigError("variants",
                              f"metric {metric!r} does not apply to {v!r}")
    params = obj.get("metricParams", {})
    if not isinstance(params, dict):
        raise ConfigError("metricParams", "expected an object")
    reject_unknown_keys(params, "metricParams.", param_keys)
    for key, value in params.items():
        as_int(value, f"metricParams.{key}", minimum=1)
    return Sweep(base, axis, tuple(points), tuple(variants), metric, params)


def load_sweep(text: str) -> Sweep:
    return parse_sweep(config_mod.decode(text))


def load_sweep_file(path) -> Sweep:
    return load_sweep(config_mod.read_text(path))


def _set_axis(doc: dict, axis: str, value) -> None:
    parts = axis.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ConfigError(axis, "axis path does not resolve in the base config")
        node = node[part]
    node[parts[-1]] = value


def point_config(sweep: Sweep, index: int, variant: str):
    """The RunConfig of one (point, variant) cell, built by parse_obj from
    the base with the axis set to the point, the algorithm and its variant
    set to variant, and the seed derived from the base's checked seed and
    the point index. An invalid cell raises ConfigError."""
    doc = copy.deepcopy(sweep.base)
    _set_axis(doc, sweep.axis, sweep.points[index])
    doc["algorithm"] = variant
    if isinstance(doc.get("algorithmParams"), dict):
        doc["algorithmParams"]["variant"] = variant
    doc["seed"] = derive_seed(config_mod.seed_of(doc), SWEEP, index)
    return config_mod.parse_obj(doc)


def run_sweep(sweep: Sweep) -> MetricTable:
    reducer = METRICS[sweep.metric][0]
    cells = [(index, variant) for index in range(len(sweep.points))
             for variant in sweep.variants]
    # Every cell is checked before the first run. The checked configs are
    # not kept, so memory does not grow with the number of cells.
    for index, variant in cells:
        point_config(sweep, index, variant)
    rows = []
    for index, variant in cells:
        doc = Engine(point_config(sweep, index, variant)).run()
        value, count, series = reducer(doc, **sweep.metric_params)
        rows.append(Row(sweep.points[index], variant, value, count,
                        None if series is None else tuple(series)))
    header = {"axis": sweep.axis, "metric": sweep.metric,
              "metricParams": sweep.metric_params,
              "variants": list(sweep.variants),
              "points": list(sweep.points)}
    return MetricTable(header, tuple(rows))


def benchmark_threads(config, thread_counts) -> list:
    """Wall-clock per worker count; logs must agree byte for byte.

    Execution is serial, so the counts only show that workerCount does
    not change the output or the cost of a run.
    """
    # Every count is checked before the first run.
    configs = [config.with_(worker_count=workers) for workers in thread_counts]
    results = []
    reference = None
    for counted in configs:
        workers = counted.worker_count
        engine = Engine(counted)
        started = time.perf_counter()
        doc = engine.run()
        elapsed = time.perf_counter() - started
        blob = serialize(doc)
        if reference is None:
            reference = blob
        elif blob != reference:
            raise SimulationError(
                f"log output with {workers} workers differs from "
                f"{thread_counts[0]} workers")
        results.append({"threads": workers,
                        "wallClockSeconds": elapsed,
                        "messages": engine.stats["sent"] + engine.stats["dropped"]})
    return results
