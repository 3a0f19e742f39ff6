"""Algorithm family base class and the name registry.

A family class covers one or more registered algorithm ids (its variants).
The engine builds a fresh family instance per computation, so instance
state never leaks between computations; per-computation randomness comes
from the StreamFactory handed to __init__.
"""

from typing import Dict, Type

from ..config import reject_unknown_keys
from ..errors import ConfigError
from ..node import AlgorithmNode


class Algorithm:
    # Registered ids served by this family, e.g. ("bitcoin", "ethereum").
    variants: tuple = ()
    # Datalink protocols opt out to exercise reordering channels.
    fifo_channels: bool = True

    # The algorithmParams keys the family reads besides "variant", each
    # with its default; a None default marks an optional key that is left
    # out of the log header unless the config sets it.
    param_defaults: dict = {}

    @classmethod
    def default_params(cls, algorithm_id: str) -> dict:
        params = {k: v for k, v in cls.param_defaults.items() if v is not None}
        params["variant"] = algorithm_id
        return params

    @classmethod
    def validate(cls, config) -> None:
        """Reject configurations the family cannot run. Raises ConfigError.

        Families extend it with the checks of their own parameters."""
        params = config.algorithm_params
        reject_unknown_keys(params, "algorithmParams.",
                            cls.param_defaults.keys() | {"variant"})
        variant = params.get("variant")
        if variant != config.algorithm:
            raise ConfigError("algorithmParams.variant",
                              f"must match algorithm {config.algorithm!r}, got {variant!r}")

    def __init__(self, config, streams):
        self.config = config
        self.params = config.algorithm_params
        self.streams = streams

    def adjacency(self) -> dict:
        """Channel map for this computation (families may augment it)."""
        return self.config.adjacency

    def create_node(self, node_id: int) -> AlgorithmNode:
        raise NotImplementedError

    def end_of_round(self, round_: int, nodes, logger) -> None:
        pass

    def finalize(self, nodes, logger) -> None:
        pass


_REGISTRY: Dict[str, Type[Algorithm]] = {}


def register(cls: Type[Algorithm]) -> Type[Algorithm]:
    for name in cls.variants:
        if name in _REGISTRY:
            raise ValueError(f"algorithm id {name!r} registered twice")
        _REGISTRY[name] = cls
    return cls


def get_algorithm(name: str) -> Type[Algorithm]:
    return _REGISTRY[name]
