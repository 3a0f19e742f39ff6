"""Node-facing simulation API.

A protocol node is an AlgorithmNode, complete when its family's
`create_node` returns it. A NodeContext is the only handle the node's
hook gets: identity, neighbors, the in-stream (this round's arrivals,
read with `for packet in ctx.in_stream:` and valid only during the call),
staged sends (the out-buffer holds `(receiver, payload)` for a unicast
and one `(None, payload)` for a broadcast), the current round, a
private random stream and a log handle. Each context is owned
exclusively by its node's compute hook; payloads placed on the wire are
shared by reference and must be treated as immutable. Records logged
through a context, as a tag and a payload or as a typed record, go
straight into the run log, stamped with the engine's current position.
"""

from .errors import SimulationError
from .rng import Stream


class NodeContext:
    __slots__ = ("id", "neighbors", "in_stream", "out_buffer", "round",
                 "_neighbor_ids", "_logger", "_rng", "_streams")

    def __init__(self, node_id: int, neighbors: tuple, streams, logger,
                 neighbor_ids=None):
        self.id = node_id
        self.neighbors = tuple(neighbors)
        # {neighbour id: the same id}; the engine passes the fabric's map
        # for this node, so the two share it. The map may hold the node's
        # own id without a self-loop (a complete topology's nodes share
        # one map of all ids), so unicast follows the fabric's edge rule.
        if neighbor_ids is None:
            neighbor_ids = {nid: nid for nid in self.neighbors}
        self._neighbor_ids = neighbor_ids
        self.in_stream = ()
        self.out_buffer = []
        self.round = 0
        self._logger = logger
        self._rng = None  # created on first access
        self._streams = streams

    @property
    def rng(self) -> Stream:
        """This node's private stream; keyed by node id, so building it
        late draws the same values. It offers scalar `random()`,
        `integers(low, high=None)` and `poisson(lam)`."""
        if self._rng is None:
            self._rng = Stream(self._streams.node(self.id))
        return self._rng

    def broadcast(self, payload) -> None:
        """Stage payload for every neighbor as one `(None, payload)`
        entry; a node with no neighbors stages nothing. The engine hands
        the out-buffer to the round's one `Network.send` call, which
        delivers the entry to each neighbor, in the order of `neighbors`:
        on a fixed law as one packet that every neighbor receives, on a
        drawing law as one message per neighbor with its own loss trial
        and delay sample."""
        if self.neighbors:
            self.out_buffer.append((None, payload))

    def unicast(self, dest: int, payload) -> None:
        """Stage payload for one neighbor. The neighbor's own int id is
        staged, so a destination that only equals it (a numpy integer,
        say) reaches the fabric and its trace as that int. A node reaches
        itself only through a self-loop, its own id in `neighbors`; the
        tuple is scanned only for a unicast to oneself."""
        nid = self._neighbor_ids.get(dest)
        if nid is None or (nid == self.id and nid not in self.neighbors):
            raise SimulationError(
                f"node {self.id} has no channel to {dest}; neighbors are "
                f"{sorted(self.neighbors)}")
        self.out_buffer.append((nid, payload))

    def log(self, tag: str, payload) -> None:
        """Append a record for this node at the current (computation, round)."""
        self._logger.append(tag, payload, node=self.id)

    def log_record(self, kind, *values) -> None:
        """Append a typed record of `kind` (see `roundsim.runlog`) under
        `kind.TAG`: `values` are its `kind.VALUES` payload fields in its
        template's order, or it is a fault; the logger adds the stamp."""
        if len(values) != kind.VALUES:
            raise SimulationError(f"node {self.id} cannot log {kind.__name__}: " + (
                "it has no node field" if kind.VALUES is None
                else f"it takes {kind.VALUES} values, not {len(values)}"))
        self._logger.append_record(kind, self.id, values)


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
