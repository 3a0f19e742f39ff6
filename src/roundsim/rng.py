"""Deterministic random streams.

Every consumer of randomness (a node, a channel, the query workload, ...)
gets its own counter-based Philox stream keyed by the run seed plus a
structural key. Results therefore do not depend on the order in which
streams are built or consumed, so a stream can be built on first use.
"""

import numpy as np

# Domain separators so that e.g. node 3 and channel (0,3) never share a stream.
NODE = 1
CHANNEL = 2
WORKLOAD = 3
TOPOLOGY = 4
SWEEP = 5

_MASK64 = (1 << 64) - 1


def make_stream(seed: int, computation: int, domain: int, *key: int) -> np.random.Generator:
    """Create the generator for one (computation, entity) pair."""
    entropy = (seed & _MASK64, computation, domain) + tuple(k & _MASK64 for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, domain: int, *key: int) -> int:
    """Fold a structural key into a base seed, yielding a new 64-bit seed."""
    entropy = (seed & _MASK64, domain) + tuple(k & _MASK64 for k in key)
    state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)
    return int(state[0])


class StreamFactory:
    """Stream source for one computation of a run."""

    def __init__(self, seed: int, computation: int):
        self.seed = seed
        self.computation = computation

    def node(self, node_id: int) -> np.random.Generator:
        return make_stream(self.seed, self.computation, NODE, node_id)

    def channel(self, sender: int, receiver: int) -> np.random.Generator:
        return make_stream(self.seed, self.computation, CHANNEL, sender, receiver)

    def workload(self) -> np.random.Generator:
        return make_stream(self.seed, self.computation, WORKLOAD)

    def topology(self) -> np.random.Generator:
        return make_stream(self.seed, self.computation, TOPOLOGY)
