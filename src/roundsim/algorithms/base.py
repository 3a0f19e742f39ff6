"""A protocol's whole contract: the family base class, the node base
class and the name registry.

A family class covers one or more registered algorithm ids (its variants).
The engine builds a fresh family instance per computation, so instance
state never leaks between computations; per-computation randomness comes
from the StreamFactory handed to __init__.

A bundled id's family module is imported on the first lookup of the id
(see BUNDLED), so a run loads only its own family. A third-party family
registers when its module is imported, which must happen before its id
is looked up.

A protocol node is an AlgorithmNode, complete when its family's
`create_node` returns it. Its compute hook gets a
`roundsim.network.NodeContext` as its only handle on the run.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Dict, Type

from ..config import reject_unknown_keys
from ..errors import ConfigError

if TYPE_CHECKING:  # the fabric is loaded by the engine, not by a protocol
    from ..network import NodeContext


class AlgorithmNode:
    """Behavior hooks a protocol implements for one node.

    The family's `create_node` builds the node with all the state it
    needs, parameters included; the engine adds nothing after that.
    perform_computation runs at most once per node per round, during the
    compute phase, with exclusive access to the context. When it runs is
    set by `wake_rounds`:

    - None (the default): every round.
    - A container of round numbers (a class or instance attribute, fixed
      before round 0): in those rounds, and in every round something
      arrives for the node.

    Opt in only if a round the node is not awake in is a round its hook
    would draw nothing, log nothing and send nothing. The in-stream holds
    only this round's arrivals, so a node that defers work keeps its own
    backlog and leaves `wake_rounds` at None.
    """

    wake_rounds = None

    def perform_computation(self, ctx: "NodeContext") -> None:
        raise NotImplementedError


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

# Each bundled algorithm id -> the module of roundsim.algorithms whose
# family registers it.
BUNDLED = {
    "bitcoin": "blockchain", "ethereum": "blockchain",
    "pbft": "consensus", "raft": "consensus",
    "abp": "datalink", "sdl": "datalink",
    "chord": "dht", "kademlia": "dht",
}


def register(cls: Type[Algorithm]) -> Type[Algorithm]:
    """Register a family under each of its variants. An id registered
    before, or a bundled id claimed from outside its module, raises
    ValueError."""
    for name in cls.variants:
        if name in _REGISTRY:
            raise ValueError(f"algorithm id {name!r} registered twice")
        home = (f"{__package__}.{BUNDLED[name]}" if name in BUNDLED
                else cls.__module__)
        if cls.__module__ != home:
            raise ValueError(f"algorithm id {name!r} is bundled in {home}")
    for name in cls.variants:
        _REGISTRY[name] = cls
    return cls


def get_algorithm(name: str) -> Type[Algorithm]:
    """The family registered under an id, importing a bundled id's module
    on first use. An id that is not registered raises KeyError."""
    if name not in _REGISTRY and name in BUNDLED:
        import_module(f".{BUNDLED[name]}", __package__)
    return _REGISTRY[name]
