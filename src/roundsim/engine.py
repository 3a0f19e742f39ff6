"""Round-driven execution core.

Each round is three strict phases: receive (collect the round's
arrivals), compute (every awake node acts once, in ascending id order,
with its arrivals as its in-stream), send (stage the awake nodes'
outboxes into the fabric in ascending sender order, one `Network.send`
call per sender with a non-empty out-buffer; a broadcast is one
`(None, payload)` entry, which the fabric expands in neighbour order).
Execution is serial: workerCount is accepted and validated but does not
change how a run executes, so the log is the same for any value of it.

The computation is the unit of output: each runs in a `RunLogger` fixed
to its index and hands back that logger's lists in canonical order, and
`run` joins them per tag in computation order. Computation is the first
sort key and the sort is stable, so the join is the run's canonical order.

Wake contract: a node whose `wake_rounds` is None is awake every round. A
node that sets it to a container of round numbers is awake in those
rounds and in any round something arrives for it. A node opts in only if,
when it is not awake, its compute hook would draw nothing, log nothing
and send nothing; skipping it then leaves the log as it was. When no node
opts in, every node is awake every round.

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
        # The counts of the last run; "computed" counts perform_computation
        # calls, one per awake node per round.
        self.stats = {"sent": 0, "delivered": 0, "dropped": 0, "computed": 0}

    def run(self) -> LogDocument:
        config = self.config
        self.stats = dict.fromkeys(self.stats, 0)
        data = {}
        thresholds = gc.get_threshold()
        if 0 < thresholds[0] < GEN0_THRESHOLD:  # 0 means collection is off
            gc.set_threshold(GEN0_THRESHOLD, *thresholds[1:])
        try:
            for computation in range(config.computations_per_run):
                for tag, records in self._run_computation(computation).items():
                    joined = data.setdefault(tag, records)
                    if joined is not records:
                        joined += records
        finally:
            gc.set_threshold(*thresholds)
        return LogDocument(config.to_json_obj(include_workers=False), data)

    def _run_computation(self, computation: int) -> dict:
        """Tag -> the computation's records in canonical order, if any."""
        config = self.config
        logger = RunLogger(config.log_tags, computation)
        streams = StreamFactory(config.seed, computation)
        algo = self.family(config, streams)
        adjacency = algo.adjacency()
        network = Network(adjacency, config.delay, config.loss_probability,
                          streams, fifo=algo.fifo_channels, logger=logger)
        nodes, members = {}, []
        for nid in sorted(adjacency):
            ctx = NodeContext(nid, adjacency[nid], streams, logger,
                              network.neighbor_ids[nid])
            node = nodes[nid] = algo.create_node(nid)
            members.append((nid, node, ctx))

        schedule = _wake_schedule(members)
        if schedule is not None:
            always, due = schedule
            by_id = {member[0]: member for member in members}

        for round_ in range(config.rounds_per_computation):
            logger.round = round_

            # Receive and compute: a node's in-stream is the list of
            # packets due to it this round, set right before it acts.
            arrivals = network.collect_deliverable(round_)
            if schedule is None:
                awake = members
            else:
                ids = set(always)
                ids.update(due.get(round_, ()), arrivals)
                awake = [by_id[nid] for nid in sorted(ids)]
            self.stats["computed"] += len(awake)
            fault = None
            for nid, node, ctx in awake:
                ctx.round = round_
                ctx.in_stream = arrivals.get(nid, ())
                try:
                    node.perform_computation(ctx)
                except Exception as exc:  # node faults abort the computation
                    if fault is None:
                        fault = (nid, exc)
            if fault is not None:
                nid, exc = fault
                logger.append(ERROR_TAG, {"node": nid, "type": type(exc).__name__,
                                          "message": str(exc)}, node=nid)
                break

            # Send: each out-buffer enters the fabric in one call, in
            # ascending sender order; a node that did not act sends nothing.
            # Dropping the in-stream here frees an idle node's last list.
            for nid, _, ctx in awake:
                ctx.in_stream = ()
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
        logger.document.canonicalize()
        return logger.document.data


def _wake_schedule(members):
    """(ids of the always-awake nodes, round -> ids of the opted-in nodes
    due that round), or None when no node opts in."""
    always, due = [], {}
    for nid, node, _ in members:
        rounds = node.wake_rounds
        if rounds is None:
            always.append(nid)
        else:
            for round_ in rounds:
                due.setdefault(round_, []).append(nid)
    if len(always) == len(members):
        return None
    return always, due


def run(config) -> LogDocument:
    return Engine(config).run()
