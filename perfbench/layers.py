"""Timing and tracing wrappers installed around the simulator's public functions.

Nothing in `src/` is edited: each function is replaced where its caller looks
it up (a module global such as `engine.heappush`, or a class attribute such as
`Topology.distance`) and put back by `Probe.uninstall`.

Every wrapper aggregates into one `Stat` per name: calls, inclusive seconds,
and self seconds (inclusive minus the time of wrapped callees). No per-call
record is kept, so memory stays bounded however hot a function is. Coarse
boundaries (grid, run_sweep, deploy, setup, loop) also record a span each when
spans are on, which is a few per run.

Untraced passes install only the coarse wrappers, which cost a few clock reads
per run, and sample the machine's speed on a timer (README.md, "Machine-speed
scaling"). The traced pass adds the fine wrappers and turns on `collect_trace`.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import inspect
import math
import random
import signal
import time
from collections import Counter
from dataclasses import dataclass, field

from dmrfsim import baselines, engine, protocol, sweeps, topology
from dmrfsim.engine import DELIVERED, EVENT_KINDS
from dmrfsim.protocol import Drop, DropReason, Forward, Jump

from workloads import PRESET_GRIDS

#: the output checks, which run inside the timed grids; taken out of every
#: reported time (speed samples are left out by the program clock instead)
OWN = "bench.own"

#: seconds `reference_kernel` takes on the machine the benchmark was defined on
#: (a shared 2-core x86-64 VM, Python 3.11.7); only the scale of the times hangs on it
REFERENCE_KERNEL_S = 0.0015

#: seconds between speed samples during untraced passes
SAMPLE_PERIOD_S = 0.25


class _Node:
    __slots__ = ("id", "x", "y", "load", "peers")

    def __init__(self, node_id: int, rng: random.Random) -> None:
        self.id = node_id
        self.x = rng.random() * 100.0
        self.y = rng.random() * 100.0
        self.load = 0.0
        self.peers = [rng.randrange(4096) for _ in range(4)]


_rng = random.Random(7)
_NODES = {i: _Node(i, _rng) for i in range(4096)}
del _rng


def reference_kernel() -> float:
    """Fixed pure-Python work shaped like the simulator's: lookups in a node
    table of about a megabyte, attribute reads and writes, float math, seeded
    random draws and heap traffic."""
    rng = random.Random(11)
    heap: list = []
    acc = 0.0
    for i in range(900):
        node = _NODES[rng.randrange(4096)]
        for p in node.peers:
            peer = _NODES[p]
            acc += math.hypot(node.x - peer.x, node.y - peer.y)
            peer.load += 1.0
        heapq.heappush(heap, (acc % 97.0, i, node.id))
        if len(heap) > 512:
            heapq.heappop(heap)
    return acc


def machine_speed() -> float:
    """Seconds the reference kernel takes right now, best of three, GC off.

    The host's speed drifts by tens of percent over seconds to minutes when
    other tenants load it. Sampling this kernel every `SAMPLE_PERIOD_S` lets
    the benchmark scale each set-up and each loop to the reference speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


@dataclass
class RunRecord:
    """What one simulated run left for the checks and the statistics."""

    ok: bool
    setup_s: float
    loop_s: float
    #: program-clock intervals of the set-up and the loop, for `Probe.scale`
    setup_span: tuple[float, float]
    loop_span: tuple[float, float]
    injected: int
    delivered: int
    control_packets: int
    transitions: int
    events: Counter | None


@dataclass
class Probe:
    """The wrappers' aggregates, spans and speed samples for one process."""

    traced: bool = False
    stats: dict[str, Stat] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    runs: list[RunRecord] = field(default_factory=list)
    #: (program time, machine_speed seconds), in time order
    speed: list[tuple[float, float]] = field(default_factory=list)
    #: seconds the speed samples took; the program clock leaves them out
    stolen: float = 0.0
    setup_seen: float = 0.0
    last_run_end: float = 0.0
    spans: list[tuple[str, float, float, int]] | None = None
    heap_peak: int = 0
    _stack: list[float] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)
    _saved_signal: object = None

    def reset(self) -> None:
        # zeroed in place: wrappers hold on to their Stat
        for st in self.stats.values():
            st.calls, st.s, st.self_s = 0, 0.0, 0.0
        self.counts.clear()
        self.runs.clear()
        self.setup_seen = 0.0
        self.heap_peak = 0
        if self.spans is not None:
            self.spans.clear()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def now(self) -> float:
        """The program clock: host seconds minus the time of speed samples."""
        return time.perf_counter() - self.stolen

    def sample_speed(self, *_signal) -> None:
        """Record a `machine_speed` sample; also the SIGALRM handler."""
        start = time.perf_counter()
        speed = machine_speed()
        self.speed.append((start - self.stolen, speed))
        self.stolen += time.perf_counter() - start

    def scale(self, start: float, end: float) -> float:
        """Factor taking host seconds spent in [start, end] to the reference
        machine speed: from the samples within a period of that interval, or
        the nearest one."""
        times = [t for t, _ in self.speed]
        lo = bisect.bisect_left(times, start - SAMPLE_PERIOD_S)
        hi = bisect.bisect_right(times, end + SAMPLE_PERIOD_S)
        near = [s for _, s in self.speed[lo:hi]]
        if not near:
            if not self.speed:
                return 1.0
            i = min(lo, len(self.speed) - 1)
            near = [self.speed[i][1]]
        return REFERENCE_KERNEL_S * len(near) / sum(near)

    # ------------------------------------------------------------------
    # span accounting

    def enter(self, name: str) -> float:
        self._stack.append(0.0)
        if self.spans is not None:
            parent = self._open[-1] if self._open else -1
            self._open.append(len(self.spans))
            self.spans.append((name, 0.0, 0.0, parent))
        return self.now()

    def leave(self, name: str, start: float) -> None:
        end = self.now()
        elapsed = end - start
        child = self._stack.pop()
        st = self.stat(name)
        st.calls += 1
        st.s += elapsed
        st.self_s += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed
        if self.spans is not None:
            index = self._open.pop()
            self.spans[index] = (name, start, end, self.spans[index][3])

    def wrap(self, name: str, fn, after=None, span: bool = True):
        """`fn` timed under `name`; `after(result, args)` runs once it returns.

        Hot functions pass `span=False`: they are only aggregated, through
        locals, so the wrapper stays cheap.
        """
        if span:
            def wrapper(*args, **kwargs):
                start = self.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.leave(name, start)
                if after is not None:
                    after(result, args)
                return result
        else:
            st, stack, clock = self.stat(name), self._stack, time.perf_counter

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    st.calls += 1
                    st.s += elapsed
                    st.self_s += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                if after is not None:
                    after(result, args)
                return result

        return wrapper

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        self._patch(sweeps, "deploy", self.wrap("topology.deploy", sweeps.deploy))
        self._patch(engine, "Simulation", self._simulation_class())
        if self.traced:
            self._install_fine()
        else:
            self._saved_signal = signal.signal(signal.SIGALRM, self.sample_speed)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def uninstall(self) -> None:
        if self._saved_signal is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved_signal)
            self._saved_signal = None
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _install_fine(self) -> None:
        wrap = self.wrap

        def hot(name, fn, after=None):
            return wrap(name, fn, after, span=False)

        T = topology.Topology
        self._patch(T, "neighbors", hot("topology.neighbors", T.neighbors))
        self._patch(T, "distance", hot("topology.distance", T.distance))
        fcs = hot("topology.build_fcs", topology.build_fcs)
        self._patch(engine, "build_fcs", fcs)
        self._patch(protocol, "build_fcs", fcs)
        self._patch(protocol, "shortest_delay_map",
                    wrap("topology.shortest_delay_map", protocol.shortest_delay_map))
        self._patch(engine, "carve_void", wrap("topology.carve_void", engine.carve_void))

        P = protocol.DmrfProtocol
        self._patch(P, "build_tables", wrap("protocol.build_tables", P.build_tables))
        self._patch(P, "select_next_hop",
                    hot("protocol.select_next_hop", P.select_next_hop, self._decision))
        for method in ("detect_faulty", "detect_congestion", "on_feedback",
                       "on_forward_result", "on_jump_result", "ensure_jump_entries"):
            self._patch(P, method, hot(f"protocol.{method}", getattr(P, method)))

        for name in ("greedy_min_delay", "greedy_max_rate", "bypass_next_hop"):
            self._patch(baselines, name,
                        hot("baselines.decide", getattr(baselines, name), self._baseline))

        self._patch(engine, "heappush", hot("engine.heappush", engine.heappush, self._pushed))
        self._patch(engine, "sample_delay", hot("engine.sample_delay", engine.sample_delay))
        self._patch(engine, "energy_cost", hot("engine.energy_cost", engine.energy_cost))

    def _decision(self, result, args) -> None:
        kind = ("forward" if isinstance(result, Forward)
                else "jump" if isinstance(result, Jump) else "drop")
        self.counts[f"protocol.decision.{kind}"] += 1

    def _baseline(self, result, args) -> None:
        if isinstance(result, Drop) and result.reason is DropReason.NO_ROUTE:
            self.counts["baselines.no_route"] += 1

    def _pushed(self, result, args) -> None:
        self.heap_peak = max(self.heap_peak, len(args[0]))

    def _simulation_class(self) -> type:
        probe = self
        base = engine.Simulation
        signature = inspect.signature(base.__init__)

        class MeasuredSimulation(base):
            """Times construction and `run()`, then checks the run's output."""

            def __init__(self, *args, **kwargs):
                call = signature.bind(self, *args, **kwargs)
                self._lifetime = call.arguments["scenario"].packet_lifetime_ms
                if probe.traced:
                    call.arguments["collect_trace"] = True
                start = probe.enter("engine.setup")
                try:
                    super().__init__(*call.args[1:], **call.kwargs)
                finally:
                    probe.leave("engine.setup", start)
                self._setup_span = (probe.last_run_end, probe.now())

            def run(self, *args, **kwargs):
                start = probe.enter("engine.loop")
                try:
                    result = super().run(*args, **kwargs)
                finally:
                    probe.leave("engine.loop", start)
                end = probe.now()
                check = probe.enter(OWN)
                record = check_run(result, self._lifetime)
                probe.leave(OWN, check)
                # set-up since the previous run: its deploy plus construction
                setup_total = probe.stat("topology.deploy").s + probe.stat("engine.setup").s
                record.setup_s = setup_total - probe.setup_seen
                probe.setup_seen = setup_total
                record.loop_s = end - start
                record.setup_span = self._setup_span
                record.loop_span = (start, end)
                probe.last_run_end = probe.now()
                probe.runs.append(record)
                return result

        return MeasuredSimulation


def check_run(result, lifetime: float) -> RunRecord:
    """Packet conservation, and no packet delivered after its deadline."""
    m = result.metrics
    conserved = m.injected == m.delivered + m.expired + m.dropped_no_route + m.buffer_drops
    late = any(
        o.outcome == DELIVERED and o.finished_at > o.created_at + lifetime
        for o in result.packets
    )
    events = None
    if result.trace is not None:
        events = Counter(e.kind for e in result.trace)
    return RunRecord(
        ok=conserved and not late,
        setup_s=0.0,
        loop_s=0.0,
        setup_span=(0.0, 0.0),
        loop_span=(0.0, 0.0),
        injected=m.injected,
        delivered=m.delivered,
        control_packets=m.control_packets,
        transitions=len(result.transitions),
        events=events,
    )


# ----------------------------------------------------------------------
# per-layer metrics from one traced pass

def _calls_and_s(probe: Probe, name: str) -> dict[str, tuple[int | float, str]]:
    st = probe.stats.get(name, Stat())
    return {f"{name}.calls": (st.calls, "count"), f"{name}.s": (st.s, "s")}


def layer_metrics(probe: Probe, grids: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers as {name: (value, unit)} for the pass over `grids`.

    Every workload reports the same names; a layer it does not exercise, such
    as the preset spans outside `presets`, reads 0.
    """
    def get(name: str) -> Stat:
        return probe.stats.get(name, Stat())

    out: dict[str, tuple[float, str]] = {}

    out["topology.deploy.s"] = (get("topology.deploy").s, "s")
    out.update(_calls_and_s(probe, "topology.neighbors"))
    out.update(_calls_and_s(probe, "topology.build_fcs"))
    out["topology.shortest_delay_map.s"] = (get("topology.shortest_delay_map").s, "s")
    out["topology.carve_void.s"] = (get("topology.carve_void").s, "s")
    out["topology.distance.calls"] = (get("topology.distance").calls, "count")

    out["protocol.build_tables.s"] = (get("protocol.build_tables").s, "s")
    for method in ("detect_faulty", "detect_congestion", "select_next_hop",
                   "on_feedback", "ensure_jump_entries"):
        out.update(_calls_and_s(probe, f"protocol.{method}"))
    out["protocol.on_forward_result.s"] = (get("protocol.on_forward_result").s, "s")
    out["protocol.on_jump_result.s"] = (get("protocol.on_jump_result").s, "s")
    for kind in ("forward", "jump", "drop"):
        key = f"protocol.decision.{kind}"
        out[key] = (probe.counts[key], "count")
    selects = get("protocol.select_next_hop").calls
    out["protocol.forward_ratio"] = (
        probe.counts["protocol.decision.forward"] / selects if selects else 0.0, "ratio")

    decide = get("baselines.decide")
    out.update(_calls_and_s(probe, "baselines.decide"))
    out["baselines.no_route_ratio"] = (
        probe.counts["baselines.no_route"] / decide.calls if decide.calls else 0.0, "ratio")

    out["engine.setup.self_s"] = (get("engine.setup").self_s, "s")
    out["engine.loop.self_s"] = (get("engine.loop").self_s, "s")
    out["engine.heap.pushes"] = (get("engine.heappush").calls, "count")
    out["engine.heap.peak"] = (probe.heap_peak, "count")
    out.update(_calls_and_s(probe, "engine.sample_delay"))
    out.update(_calls_and_s(probe, "engine.energy_cost"))
    events: Counter = Counter()
    for run in probe.runs:
        events.update(run.events or {})
    for kind in EVENT_KINDS:
        out[f"engine.events.{kind}"] = (events[kind], "count")

    out["sweeps.run_sweep.s"] = (get("sweeps.run_sweep").s, "s")
    out["sweeps.self_s"] = (get("sweeps.run_sweep").self_s + sum(
        get(f"sweeps.{g}").self_s for g in grids), "s")
    for g in PRESET_GRIDS:
        out[f"sweeps.{g}.s"] = (get(f"sweeps.{g}").s, "s")
    return out
