"""Round-driven simulator for distributed algorithms.

Runs synchronized receive-compute-send rounds over FIFO channels with
configurable delay and loss, ships eight reference protocols (bitcoin,
ethereum, pbft, raft, abp, sdl, chord, kademlia), and a sweep harness
that reduces tagged run logs to plot-ready tables.

Importing the package loads nothing else: each name of `__all__` is
imported from its module on first use, so a config check loads no
engine, a run loads no sweep harness and only its own protocol family.
"""

from importlib import import_module

from ._version import __version__

# Each exported name -> the module that defines it.
_EXPORTS = {
    "RunConfig": "config", "load": "config", "load_file": "config",
    "Engine": "engine", "run": "engine",
    "ConfigError": "errors", "MetricError": "errors",
    "RoundsimError": "errors", "SimulationError": "errors",
    "UnknownAlgorithmError": "errors",
    "DelayDistribution": "config",
    "LogDocument": "runlog", "serialize": "runlog",
    "MetricTable": "sweep", "Sweep": "sweep", "benchmark_threads": "sweep",
    "load_sweep": "sweep", "load_sweep_file": "sweep", "run_sweep": "sweep",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
