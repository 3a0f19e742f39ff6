"""Round-driven execution core.

Each round is three strict phases: receive (drain arrivals into node
inboxes), compute (every node acts exactly once, in ascending id order),
send (stage outboxes onto channels in ascending sender order, one
`Network.send` call per sender with a non-empty out-buffer). A channel
that never draws delivers exactly its delay `value` rounds later, with no
FIFO clamp. Execution is serial: workerCount is accepted and validated
but does not change how a run executes, so the log is the same for any
value of it.

While the computations run, the collector's generation-0 threshold is
raised: a run allocates many long-lived objects (records, packets, node
state) and few cycles, so scanning the young generation every few hundred
allocations costs more than it frees. The caller's thresholds are put back
however `run` exits.
"""

import gc

from .algorithms import get_algorithm
from .network import Network
from .node import NodeContext
from .rng import StreamFactory
from .runlog import ERROR_TAG, LogDocument, RunLogger

GEN0_THRESHOLD = 100_000


class Engine:
    def __init__(self, config):
        self.config = config
        self.family = get_algorithm(config.algorithm)
        self.stats = {"sent": 0, "delivered": 0, "dropped": 0}

    def run(self) -> LogDocument:
        config = self.config
        logger = RunLogger(config.log_tags)
        thresholds = gc.get_threshold()
        if 0 < thresholds[0] < GEN0_THRESHOLD:  # 0 means collection is off
            gc.set_threshold(GEN0_THRESHOLD, *thresholds[1:])
        try:
            for computation in range(config.computations_per_run):
                self._run_computation(computation, logger)
        finally:
            gc.set_threshold(*thresholds)
        doc = logger.document
        doc.meta = config.to_json_obj(include_workers=False)
        doc.canonicalize()
        return doc

    def _run_computation(self, computation: int, logger) -> None:
        config = self.config
        streams = StreamFactory(config.seed, computation)
        algo = self.family(config, streams)
        adjacency = algo.adjacency()
        network = Network(adjacency, config.delay, config.loss_probability,
                          streams, fifo=algo.fifo_channels, logger=logger)
        nodes, members = {}, []
        for nid in sorted(adjacency):
            ctx = NodeContext(nid, adjacency[nid], streams, logger)
            node = nodes[nid] = algo.create_node(nid)
            members.append((nid, node, ctx))

        logger.set_position(computation, 0)
        for _, node, ctx in members:
            node.initialize(ctx, config.algorithm_params)

        for round_ in range(config.rounds_per_computation):
            logger.set_position(computation, round_)

            # Receive and compute: everything due this round lands in a
            # node's inbox right before it acts.
            arrivals = network.collect_deliverable(round_)
            fault = None
            for nid, node, ctx in members:
                ctx.round = round_
                packets = arrivals.get(nid)
                if packets:
                    ctx.in_stream.extend(packets)
                try:
                    node.perform_computation(ctx)
                except Exception as exc:  # node faults abort the computation
                    if fault is None:
                        fault = (nid, exc)
            if fault is not None:
                nid, exc = fault
                logger.append(ERROR_TAG, {
                    "node": nid,
                    "type": type(exc).__name__,
                    "message": str(exc),
                }, node=nid)
                break

            # Send: each out-buffer enters the fabric in one call, in
            # ascending sender order.
            for nid, _, ctx in members:
                out = ctx.out_buffer
                if out:
                    network.send(nid, out, round_)
                    out.clear()

            algo.end_of_round(round_, nodes, logger)
        else:
            algo.finalize(nodes, logger)

        self.stats["sent"] += network.total_sent
        self.stats["delivered"] += network.total_delivered
        self.stats["dropped"] += network.total_dropped


def run(config) -> LogDocument:
    return Engine(config).run()
