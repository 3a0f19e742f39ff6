"""Node-facing simulation API.

A protocol node is an AlgorithmNode, complete when its family's
`create_node` returns it. A NodeContext is the only handle the node's
hook gets: identity, neighbors, the in-stream (this round's arrivals,
read with `for packet in ctx.in_stream:` and valid only during the call),
staged sends, the current round, a private random stream and a log
handle. Each context is owned exclusively by its node's compute hook;
payloads placed on the wire are shared by reference and must be treated
as immutable. Records logged through a context go straight into the run
log, stamped with the engine's current position.
"""

from .errors import SimulationError


class NodeContext:
    __slots__ = ("id", "neighbors", "in_stream", "out_buffer", "round",
                 "_neighbor_ids", "_logger", "_rng", "_streams")

    def __init__(self, node_id: int, neighbors: tuple, streams, logger):
        self.id = node_id
        self.neighbors = tuple(neighbors)
        self._neighbor_ids = {nid: nid for nid in neighbors}
        self.in_stream = ()
        self.out_buffer = []
        self.round = 0
        self._logger = logger
        self._rng = None  # created on first access
        self._streams = streams

    @property
    def rng(self):
        """This node's private stream; keyed by node id, so building it
        late draws the same values."""
        if self._rng is None:
            self._rng = self._streams.node(self.id)
        return self._rng

    def broadcast(self, payload) -> None:
        """Stage one copy of payload per neighbor; each copy gets its own
        loss trial and delay sample at send time."""
        out = self.out_buffer
        for dest in self.neighbors:
            out.append((dest, payload))

    def unicast(self, dest: int, payload) -> None:
        """Stage payload for one neighbor. The neighbor's own int id is
        staged, so a destination that only equals it (a numpy integer,
        say) reaches the fabric and its trace as that int."""
        nid = self._neighbor_ids.get(dest)
        if nid is None:
            raise SimulationError(
                f"node {self.id} has no channel to {dest}; neighbors are "
                f"{sorted(self._neighbor_ids)}")
        self.out_buffer.append((nid, payload))

    def log(self, tag: str, payload) -> None:
        """Append a record for this node at the current (computation, round)."""
        self._logger.append(tag, payload, node=self.id)


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

    def perform_computation(self, ctx: NodeContext) -> None:
        raise NotImplementedError
