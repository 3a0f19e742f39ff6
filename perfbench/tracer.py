"""Spans and per-boundary aggregates for the traced benchmark run.

The tracer wraps roundsim's entry points from outside the package: it
replaces attributes on roundsim's modules and classes while installed and
puts the originals back on ``uninstall``. Nothing under ``src/`` knows it
exists, so an untraced run executes exactly the program's own code.

Two kinds of record are kept:

* coarse spans (cell, parse, run, serialize, reduce), opened by the
  harness itself and stored one by one with an id and a parent id;
* hot boundaries (enqueue, collect_deliverable, make_stream, ...), called
  up to millions of times per cell, folded into (count, total, self) per
  (boundary, parent) pair so memory stays bounded.

Self time is a frame's duration minus the time of the wrapped frames it
directly contains. Wrapped calls made on a worker thread (the engine's
intra-round pool) open their own stack and are timed with the thread's
CPU clock, so time spent waiting for the interpreter lock is not counted
as work; their totals are subtracted from the engine's self time when
the metrics are derived.

Each wrapper does some bookkeeping outside the window it times, and that
time lands in the caller's self time. ``calibrate`` measures it per call
on a no-op, so the harness can take it out of the engine's self time.

An entry point that does not exist on the checked-out commit is recorded
as absent and left unwrapped; it never raises.
"""

import importlib
import statistics
import threading
from time import perf_counter, thread_time

# Hot boundaries: (metric key, module, attribute path inside the module).
HOT_POINTS = (
    ("rng.make_stream", "roundsim.rng", "make_stream"),
    ("network.build", "roundsim.network", "Network.__init__"),
    ("network.enqueue", "roundsim.network", "Network.enqueue"),
    ("network.deliver", "roundsim.network", "Network.collect_deliverable"),
    ("runlog.append", "roundsim.runlog", "RunLogger.append"),
    ("runlog.merge", "roundsim.runlog", "RunLogger.merge_node_buffer"),
    ("runlog.canonicalize", "roundsim.runlog", "LogDocument.canonicalize"),
    ("algorithms.blockchain.hook", "roundsim.algorithms.blockchain",
     "BlockchainFamily.end_of_round"),
    ("algorithms.dht.init", "roundsim.algorithms.dht", "DhtFamily.__init__"),
)

# Modules whose node classes' perform_computation is wrapped, one
# family metric each.
COMPUTE_FAMILIES = ("consensus", "blockchain", "dht")

_MISSING = object()


def _resolve(module_name, path):
    """(owner, attribute name, original) or None when anything is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], _MISSING)
    if original is _MISSING:
        return None
    return owner, parts[-1], original


class Tracer:
    def __init__(self):
        self.spans = []      # coarse spans: dicts, in the order they closed
        self.installed = set()  # boundary names wrapped
        self.absent = []     # "module:attr" entry points not found
        self._patches = []   # (owner, attribute, what the owner held before)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._aggs = []      # (is main thread, thread-state state) per thread
        self._next_id = 1
        # id(network) -> [network, collect timestamps, in-flight peak seen]
        self._networks = {}
        # What one wrapper costs outside its timed window (see calibrate).
        self.overhead = {"timed": 0.0, "compute": 0.0}
        self._samples = {"timed": [], "compute": []}

    # -- per-thread state --------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            main = threading.get_ident() == self._main
            state = self._local.state = _ThreadState(main)
            with self._lock:
                self._aggs.append((main, state))
            return state

    def _close(self, state, name, frame, elapsed):
        """Pop ``frame``; credit its time to its parent; fold it into agg."""
        stack = state.stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        key = (name, None if parent is None else parent[0])
        entry = state.agg.get(key)
        if entry is None:
            state.agg[key] = [1, elapsed, elapsed - frame[1]]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[1]

    # -- coarse spans --------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    # -- hot boundaries ------------------------------------------------------

    def _timed(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            frame = [name, 0.0]
            state.stack.append(frame)
            clock = state.clock
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(state, name, frame, clock() - start)

        return wrapper

    def _compute(self, name, fn):
        """Like _timed, and counts calls entered with a non-empty inbox."""
        tracer = self

        def wrapper(node, ctx, *args, **kwargs):
            state = tracer._state()
            calls = state.calls
            calls[0] += 1
            if getattr(ctx, "in_stream", None):
                calls[1] += 1
            frame = [name, 0.0]
            state.stack.append(frame)
            clock = state.clock
            start = clock()
            try:
                return fn(node, ctx, *args, **kwargs)
            finally:
                tracer._close(state, name, frame, clock() - start)

        return wrapper

    def calibrate(self, calls=20000, repeats=5):
        """Measure, on the calling thread, the seconds each kind of wrapper
        adds to its caller's self time: ``repeats`` loops of ``calls``
        wrapped no-op calls, less the same loop calling the no-op
        directly. ``overhead`` is the median over every loop of every
        call so far, so calibrating before and after a pass covers both."""

        def noop(node, ctx):
            return None

        class Ctx:
            in_stream = (1,)

        ctx = Ctx()
        state = self._state()
        saved = state.agg, list(state.calls)
        wrappers = {"timed": self._timed("calibrate", noop),
                    "compute": self._compute("calibrate", noop)}
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(calls):
                noop(None, ctx)
            bare = perf_counter() - start
            for kind, wrapped in wrappers.items():
                state.agg = {}
                frame = ["calibrate-parent", 0.0]
                state.stack.append(frame)
                start = perf_counter()
                for _ in range(calls):
                    wrapped(None, ctx)
                parent_self = perf_counter() - start - frame[1]
                state.stack.pop()
                self._samples[kind].append(max(0.0, parent_self - bare) / calls)
        state.agg, state.calls[:] = saved
        self.overhead = {kind: statistics.median(values)
                         for kind, values in self._samples.items()}
        return self.overhead

    def _patch(self, owner, attribute, replacement):
        # Remember what the owner itself held, so an inherited attribute is
        # deleted again rather than pinned onto the subclass.
        self._patches.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def install(self):
        for name, module, path in HOT_POINTS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}:{path}")
                continue
            owner, attribute, original = found
            wrapped = self._timed(name, original)
            if name == "network.build":
                wrapped = self._capture_network(wrapped)
            elif name == "network.deliver":
                wrapped = self._stamp_round(wrapped)
            self._patch(owner, attribute, wrapped)
            self.installed.add(name)
        for family in COMPUTE_FAMILIES:
            module = f"roundsim.algorithms.{family}"
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            classes = [] if mod is None else [
                obj for obj in vars(mod).values()
                if isinstance(obj, type) and obj.__module__ == module
                and "perform_computation" in obj.__dict__]
            if not classes:
                self.absent.append(f"{module}:*.perform_computation")
            else:
                self.installed.add(f"algorithms.{family}.compute")
            for cls in classes:
                self._patch(cls, "perform_computation", self._compute(
                    f"algorithms.{family}.compute",
                    cls.__dict__["perform_computation"]))

    def uninstall(self):
        while self._patches:
            owner, attribute, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    def _capture_network(self, init):
        tracer = self

        def wrapper(network, *args, **kwargs):
            init(network, *args, **kwargs)
            tracer._networks[id(network)] = [network, [], 0]

        return wrapper

    def _stamp_round(self, collect):
        tracer = self

        def wrapper(network, *args, **kwargs):
            record = tracer._networks.get(id(network))
            if record is not None:
                record[1].append(perf_counter())
                record[2] = max(record[2], getattr(network, "in_flight", 0))
            return collect(network, *args, **kwargs)

        return wrapper

    # -- harvesting ----------------------------------------------------------

    def take_networks(self):
        """Fabric counters and round timestamps of every network built
        since the last call; releases the networks."""
        out = [{
            "sent": getattr(network, "total_sent", None),
            "delivered": getattr(network, "total_delivered", None),
            "dropped": getattr(network, "total_dropped", None),
            "inflight_peak": peak,
            "stamps": stamps,
        } for network, stamps, peak in self._networks.values()]
        self._networks = {}
        return out

    def report(self) -> list:
        """Text lines: every coarse span, then each boundary's count, total
        and self time per parent, slowest first."""
        lines = [f"span {s['id']} parent {s['parent']} {s['name']}: "
                 f"{s['end'] - s['start']:.6f} s, self {s['self']:.6f} s"
                 for s in self.spans]
        main, workers = self.aggregates()
        for (name, parent), (count, total, self_time) in sorted(
                main.items(), key=lambda item: -item[1][1]):
            lines.append(f"{name} under {parent}: {count} calls, "
                         f"{total:.6f} s, self {self_time:.6f} s")
        for name, (count, total) in sorted(workers.items()):
            lines.append(f"{name} on pool threads: {count} calls, {total:.6f} s")
        lines.append("wrapper cost outside the timed window, per call: "
                     + ", ".join(f"{kind} {cost * 1e6:.3f} us"
                                 for kind, cost in self.overhead.items()))
        return lines

    def aggregates(self):
        """{(name, parent): [count, total, self]} over the main thread, and
        {name: [count, total]} of top-level frames on worker threads."""
        main, workers = {}, {}
        with self._lock:
            states = list(self._aggs)
        for is_main, state in states:
            for key, (count, total, self_time) in list(state.agg.items()):
                if is_main:
                    entry = main.setdefault(key, [0, 0.0, 0.0])
                    entry[0] += count
                    entry[1] += total
                    entry[2] += self_time
                elif key[1] is None:
                    entry = workers.setdefault(key[0], [0, 0.0])
                    entry[0] += count
                    entry[1] += total
        return main, workers

    def compute_calls(self):
        """(perform_computation calls, those entered with a non-empty
        inbox) over every thread."""
        with self._lock:
            states = list(self._aggs)
        return (sum(state.calls[0] for _, state in states),
                sum(state.calls[1] for _, state in states))


class _ThreadState:
    """One thread's frame stack, aggregates and perform_computation
    counts (all calls, and those entered with a non-empty inbox)."""

    __slots__ = ("stack", "agg", "calls", "clock", "span_ids")

    def __init__(self, main):
        self.stack = []
        self.agg = {}
        self.calls = [0, 0]
        self.clock = perf_counter if main else thread_time
        self.span_ids = []


class _Span:
    __slots__ = ("tracer", "name", "frame", "start", "id", "parent", "state")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        state = tracer._state()
        self.state = state
        parents = state.span_ids
        self.id = tracer._next_id
        tracer._next_id += 1
        self.parent = parents[-1] if parents else None
        parents.append(self.id)
        self.frame = [self.name, 0.0]
        state.stack.append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        elapsed = end - self.start
        self.state.span_ids.pop()
        self.tracer._close(self.state, self.name, self.frame, elapsed)
        self.tracer.spans.append({
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": end, "self": elapsed - self.frame[1],
        })
        return False
