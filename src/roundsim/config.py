"""Experiment configuration: JSON schema, validation, topology expansion.

Loading is a pure function of the document text. Generator shorthands
("complete", "ring") expand to explicit adjacency lists, so a loaded
RunConfig always carries the full topology and re-serializes canonically.
The rows of a generated topology share one tuple of int ids: a complete
row is two slices of it, so the n^2 entries are references to n ints.
"""

import json
import math
import re
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Optional

from .errors import ConfigError, UnknownAlgorithmError
from .network import DETERMINISTIC, POISSON, UNIFORM, DelayDistribution

DEFAULT_SEED = 0xC0FFEE

# Largest accepted poisson delay mean, in rounds. It is far beyond any run
# length, and well below the largest rate `rng.Stream.poisson` takes (the
# limit numpy's sampler has, which it copies).
MAX_POISSON_MEAN = 1e9

# Largest accepted uniform delay bound, in rounds: `rng.Stream.integers`
# draws the delay from [min, max + 1) and, like numpy, takes only int64
# ends, so max + 1 must not exceed 2^63.
MAX_UNIFORM_DELAY = 2 ** 63 - 1

# Largest accepted number of directed channels in one computation. Runs
# above it are refused before the topology is expanded; the largest
# benchmark cell (raft on complete n=400) uses 159 600.
MAX_CHANNELS = 1 << 22

# Largest accepted number of DHT queries drawn up front for one
# computation (roundsPerComputation x queriesPerRound).
MAX_SCHEDULED_QUERIES = 1 << 24

# Deepest accepted nesting of arrays and objects in a config or sweep
# file. The bundled files nest at most 5 deep; far deeper documents
# exhaust the recursion of `json` and of `copy.deepcopy`.
MAX_NESTING = 64

_TOP_LEVEL_KEYS = {
    "algorithm", "topology", "delay", "lossProbability",
    "roundsPerComputation", "computationsPerRun", "seed", "workerCount",
    "algorithmParams", "logTags",
}

# Keys a nested object accepts, by the kind of object it is.
_TOPOLOGY_KEYS = {"adjacency": {"adjacency", "kind"},
                  "complete": {"kind", "nodes"}, "ring": {"kind", "nodes"}}
_DELAY_KEYS = {DETERMINISTIC: {"kind", "value"}, UNIFORM: {"kind", "min", "max"},
               POISSON: {"kind", "mean"}}


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    adjacency: dict            # node id -> ordered tuple of neighbor ids
    delay: DelayDistribution
    loss_probability: float
    rounds_per_computation: int
    computations_per_run: int
    seed: int
    worker_count: int = 1
    algorithm_params: dict = field(default_factory=dict)
    log_tags: Optional[tuple] = None   # None enables all algorithm tags

    @property
    def node_ids(self) -> tuple:
        return tuple(sorted(self.adjacency))

    @property
    def n_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def n_channels(self) -> int:
        return sum(len(v) for v in self.adjacency.values())

    def with_(self, **kwargs) -> "RunConfig":
        """A copy with some fields replaced, made by parse_obj from the
        copy's JSON form, so it is checked and normalized as a loaded
        config is; an invalid field raises ConfigError."""
        return parse_obj(replace(self, **kwargs).to_json_obj())

    def to_json_obj(self, include_workers: bool = True) -> dict:
        # The log header omits workerCount: it does not change execution,
        # and logs must be byte-identical across worker counts.
        obj = {
            "algorithm": self.algorithm,
            "topology": {"adjacency": {str(u): list(vs) for u, vs in
                                       sorted(self.adjacency.items())}},
            "delay": self.delay.to_json(),
            "lossProbability": self.loss_probability,
            "roundsPerComputation": self.rounds_per_computation,
            "computationsPerRun": self.computations_per_run,
            "seed": self.seed,
            "algorithmParams": self.algorithm_params,
        }
        if include_workers:
            obj["workerCount"] = self.worker_count
        if self.log_tags is not None:
            obj["logTags"] = sorted(self.log_tags)
        return obj


def require(obj: dict, path: str):
    """obj's value at the last key of the dotted path; a missing key is
    refused at the whole path."""
    key = path.rpartition(".")[2]
    if key not in obj:
        raise ConfigError(path, "missing required key")
    return obj[key]


def as_int(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {value}")
    return value


def as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def as_probability(value, path: str) -> float:
    p = as_number(value, path)
    if not 0.0 <= p <= 1.0:
        raise ConfigError(path, f"must be within [0, 1], got {p}")
    return p


def reject_unknown_keys(obj: dict, prefix: str, allowed) -> None:
    """Refuse a key of obj outside allowed, at prefix + the first such key."""
    unknown = obj.keys() - allowed
    if unknown:
        raise ConfigError(prefix + min(unknown), "unknown key")


def check_channel_count(count: int, what: str) -> None:
    """Refuse a run whose computations would hold more than MAX_CHANNELS
    channels; what names the topology in the message."""
    if count > MAX_CHANNELS:
        raise ConfigError("topology.nodes",
                          f"{what} has {count} channels, above the limit "
                          f"of {MAX_CHANNELS}")


def _parse_topology(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("topology", "expected an object")
    if "adjacency" in obj:
        reject_unknown_keys(obj, "topology.", _TOPOLOGY_KEYS["adjacency"])
        if obj.get("kind") not in (None, "adjacency"):
            raise ConfigError("topology.kind",
                              "must be 'adjacency' when adjacency is given")
        raw = obj["adjacency"]
        if not isinstance(raw, dict) or not raw:
            raise ConfigError("topology.adjacency", "expected a non-empty object")
        from .topology import checked_rows  # deferred: see roundsim.topology

        adjacency = checked_rows(raw)
        if adjacency is not None:
            return adjacency
        # Entry by entry, to name the first fault as the loop finds it.
        adjacency = {}
        for key, neighbors in raw.items():
            try:
                node = int(key)
            except (TypeError, ValueError):
                raise ConfigError("topology.adjacency",
                                  f"node id {key!r} is not an integer") from None
            if node < 0:
                raise ConfigError("topology.adjacency", f"negative node id {node}")
            if not isinstance(neighbors, list):
                raise ConfigError(f"topology.adjacency.{node}", "expected a list")
            seen = set()
            out = []
            for v in neighbors:
                v = as_int(v, f"topology.adjacency.{node}")
                if v in seen:
                    raise ConfigError(f"topology.adjacency.{node}",
                                      f"duplicate neighbor {v}")
                seen.add(v)
                out.append(v)
            adjacency[node] = tuple(out)
        declared = set(adjacency)
        for node, neighbors in adjacency.items():
            for v in neighbors:
                if v not in declared:
                    raise ConfigError(f"topology.adjacency.{node}",
                                      f"neighbor {v} is not a declared node")
        return adjacency
    kind = obj.get("kind")
    if kind not in ("complete", "ring"):
        raise ConfigError("topology.kind",
                          f"expected 'complete', 'ring' or an adjacency object, got {kind!r}")
    reject_unknown_keys(obj, "topology.", _TOPOLOGY_KEYS[kind])
    n = as_int(require(obj, "topology.nodes"), "topology.nodes", minimum=1)
    check_channel_count(n * (n - 1) if kind == "complete" else 2 * n,
                        f"a {kind} topology of {n} nodes")
    ids = tuple(range(n))
    if kind == "complete":
        return {u: ids[:u] + ids[u + 1:] for u in ids}
    if n < 2:
        raise ConfigError("topology.nodes", "a ring needs at least 2 nodes")
    # Row u is (u - 1, u + 1) mod n, ascending but for the first and last
    # rows, which wrap around (and for n = 2 name one neighbour twice).
    rows = dict(zip(ids, zip(ids[-1:] + ids[:-1], ids[1:] + ids[:1])))
    for u in {0, n - 1}:
        rows[u] = tuple(sorted(set(rows[u])))
    return rows


def _parse_delay(obj) -> DelayDistribution:
    if not isinstance(obj, dict):
        raise ConfigError("delay", "expected an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _DELAY_KEYS:
        raise ConfigError("delay.kind",
                          f"expected 'deterministic', 'uniform' or 'poisson', got {kind!r}")
    reject_unknown_keys(obj, "delay.", _DELAY_KEYS[kind])
    if kind == DETERMINISTIC:
        return DelayDistribution.deterministic(
            as_int(require(obj, "delay.value"), "delay.value", minimum=1))
    if kind == UNIFORM:
        lo = as_int(require(obj, "delay.min"), "delay.min", minimum=1)
        hi = as_int(require(obj, "delay.max"), "delay.max", minimum=1,
                    maximum=MAX_UNIFORM_DELAY)
        if hi < lo:
            raise ConfigError("delay.max", f"max {hi} is below min {lo}")
        return DelayDistribution.uniform(lo, hi)
    mean = as_number(require(obj, "delay.mean"), "delay.mean")
    if not math.isfinite(mean):
        raise ConfigError("delay.mean", f"must be finite, got {mean}")
    if mean <= 0:
        raise ConfigError("delay.mean", f"must be > 0, got {mean}")
    if mean > MAX_POISSON_MEAN:
        raise ConfigError("delay.mean",
                          f"must be <= {MAX_POISSON_MEAN:g}, got {mean:g}")
    if mean <= 1.0:
        # The one-round floor leaves no mass to distribute.
        return DelayDistribution.deterministic(1)
    return DelayDistribution.poisson(mean)


def seed_of(obj: dict) -> int:
    """The checked seed of a decoded configuration object."""
    return as_int(obj.get("seed", DEFAULT_SEED), "seed",
                  minimum=0, maximum=2 ** 64 - 1)


def algorithm_of(obj: dict, path: str = "algorithm") -> str:
    """The checked algorithm id of a decoded object, at the dotted path."""
    algorithm = require(obj, path)
    if not isinstance(algorithm, str):
        raise ConfigError(path, f"expected a string, got {algorithm!r}")
    return algorithm


def _family(algorithm: str):
    """The registered family serving an algorithm id."""
    from .algorithms import get_algorithm  # deferred: algorithms import node API

    try:
        return get_algorithm(algorithm)
    except KeyError:
        raise UnknownAlgorithmError(algorithm) from None


def parse_obj(obj: dict) -> RunConfig:
    """Validate a decoded configuration object into a RunConfig."""
    if not isinstance(obj, dict):
        raise ConfigError("", "configuration root must be an object")
    reject_unknown_keys(obj, "", _TOP_LEVEL_KEYS)

    algorithm = algorithm_of(obj)
    adjacency = _parse_topology(require(obj, "topology"))
    delay = _parse_delay(obj.get("delay", {"kind": DETERMINISTIC, "value": 1}))

    loss = as_probability(obj.get("lossProbability", 0.0), "lossProbability")

    rounds = as_int(require(obj, "roundsPerComputation"),
                    "roundsPerComputation", minimum=1)
    computations = as_int(obj.get("computationsPerRun", 1),
                          "computationsPerRun", minimum=1)
    seed = seed_of(obj)
    workers = as_int(obj.get("workerCount", 1), "workerCount", minimum=1)

    params = obj.get("algorithmParams", {})
    if not isinstance(params, dict):
        raise ConfigError("algorithmParams", "expected an object")

    log_tags = None
    if "logTags" in obj:
        raw_tags = obj["logTags"]
        if (not isinstance(raw_tags, list)
                or any(not isinstance(t, str) for t in raw_tags)):
            raise ConfigError("logTags", "expected a list of strings")
        log_tags = tuple(sorted(set(raw_tags)))

    family = _family(algorithm)
    config = RunConfig(
        algorithm=algorithm,
        adjacency=adjacency,
        delay=delay,
        loss_probability=loss,
        rounds_per_computation=rounds,
        computations_per_run=computations,
        seed=seed,
        worker_count=workers,
        algorithm_params=dict(family.default_params(algorithm), **params),
        log_tags=log_tags,
    )
    family.validate(config)
    return config


# The runs of a JSON text that hold no array or object bracket: strings,
# whose brackets are text, and everything between them.
_NOT_BRACKETS = re.compile(r'(?:"[^"\\]*(?:\\.[^"\\]*)*"|[^"\[\]{}]+)+')


def decode(text: str):
    """The JSON value in text; malformed JSON, or JSON whose arrays and
    objects nest deeper than MAX_NESTING, is a ConfigError."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"malformed JSON: {exc}") from None
    except RecursionError:
        depth = math.inf
    else:
        # Counted over the brackets outside strings, so no check recurses.
        depth = max(accumulate(1 if bracket in "[{" else -1
                               for bracket in _NOT_BRACKETS.sub("", text)),
                    default=0)
    if depth > MAX_NESTING:
        raise ConfigError("", f"JSON nested deeper than {MAX_NESTING} levels")
    return value


def load(text: str) -> RunConfig:
    return parse_obj(decode(text))


def read_text(path) -> str:
    """A config file's text; a file that cannot be read or is not UTF-8 is
    a ConfigError naming the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(str(path), exc.strerror or str(exc)) from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text: invalid byte at "
                                     f"offset {exc.start}") from None


def load_file(path) -> RunConfig:
    return load(read_text(path))
