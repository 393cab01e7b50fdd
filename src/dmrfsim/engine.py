"""Deterministic discrete-event simulation core.

One heap, one RNG, seven event kinds. Data transmissions occupy a node's
single radio server; control traffic (probes, acknowledgments, feedback) is
modeled as instantaneous on the data plane but is fully charged for energy
and counted. All per-run randomness flows through a single seeded generator
and every iteration order is fixed, so equal seeds give equal runs bit for
bit.

The engine keeps the heap, the queues, the data plane, pricing, deadlines
and outcomes. A run's one protocol object decides every next hop; DMRF's
also runs its control plane (`protocol.py`) through hooks the engine calls
where that object has them.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .baselines import PROTOCOL_CLASSES
from .config import ScenarioConfig
from .model import (
    DEADLINE_CHECK,
    EVENT_KINDS,
    FAULT_ONSET,
    FEEDBACK_DELIVERY,
    PACKET_ARRIVAL,
    PACKET_INJECT,
    InvariantError,
    NodeId,
    Packet,
    Transition,
    make_packet,
    running_sum,
)
from .protocol import Drop, Forward, Jump
# build_fcs is unused here; the benchmark's layer probe patches it by this name
from .topology import Topology, build_fcs, carve_void  # noqa: F401

DELIVERED = "DELIVERED"
EXPIRED = "EXPIRED"
DROPPED_NO_ROUTE = "DROPPED_NO_ROUTE"
BUFFER_DROP = "BUFFER_DROP"


@dataclass(frozen=True)
class Event:
    """A dispatched event, as exposed in traces."""

    time: float
    seq: int
    kind: str
    node: NodeId | None = None
    packet: int | None = None


#: the Kinderman-Monahan acceptance constant, computed as `random` computes it
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)
#: the squeeze's relative margin: it holds for any `log` within 2**-21
_SQUEEZE = 1.0 - 2.0**-20


def sample_delay(mu: float, sigma: float, rng: random.Random) -> Iterator[float]:
    """The run's transmission delays, one per `next()`: normal draws around
    the packet serialization delay `mu`, the far-left tail resampled so a
    delay is never non-positive or absurdly small.

    The normal draw is `random.Random.normalvariate`'s Kinderman-Monahan loop
    written out: the same `rng.random()` calls and float operations, so the
    stream and every value match it bit for bit. A generator draws only when
    resumed, so data hops (`next`) and probe rounds (`islice`) share one
    stream and consume `rng` in event order.

    A squeeze accepts most attempts without the `log`: `r` is a multiple of
    2**-53, so `u2 = 1 - r` is exact and `-log(u2) >= r`, while
    `fl(r * _SQUEEZE) < r * (1 - 2**-21)`. So the squeeze accepts only what
    the `log` test accepts, for any `log` with relative error below 2**-21.
    """
    floor = mu / 10.0
    draw, log = rng.random, math.log
    magic, squeeze = _NV_MAGICCONST, _SQUEEZE
    while True:
        u1 = draw()
        r = draw()
        u2 = 1.0 - r
        z = magic * (u1 - 0.5) / u2
        zz = z * z / 4.0
        if zz <= r * squeeze or zz <= -log(u2):
            value = mu + z * sigma
            if value >= floor:
                yield value


def energy_cost(cfg: ScenarioConfig, distance: float, bits: float) -> float:
    """Joules to push `bits` over `distance` meters, by the first-order
    distance-squared amplifier model."""
    if distance > cfg.max_tx_distance:
        raise ValueError(
            f"distance {distance} exceeds maximum range {cfg.max_tx_distance}"
        )
    return bits * (cfg.energy_elec_j_per_bit + cfg.energy_amp_j_per_bit_m2 * distance**2)


def inject_faults(
    topo: Topology, fault_ratio: float, rng: random.Random, carved: list[NodeId]
) -> list[NodeId]:
    """Pick floor(ratio * R) victims uniformly among the R relay nodes not in
    `carved`, drawn from them in id order, and return their ids, sorted.

    Source and sink are never faulted. All onsets are at time zero and the
    victims fail silently: nothing in the network is told.
    """
    if not 0.0 <= fault_ratio <= 1.0:
        raise ValueError(f"fault_ratio must be in [0, 1], got {fault_ratio}")
    spared = {topo.source, topo.sink, *carved}
    ids = topo.ids()
    count = math.floor(fault_ratio * (len(ids) - len(spared.intersection(ids))))
    if count == 0:
        return []  # as sample(candidates, 0): nothing drawn
    candidates = [n for n in ids if n not in spared]
    return sorted(rng.sample(candidates, count))


@dataclass
class MetricsRecord:
    """End-of-run counters. Every injected packet lands in exactly one of
    the four outcome buckets."""

    injected: int = 0
    delivered: int = 0
    expired: int = 0
    dropped_no_route: int = 0
    buffer_drops: int = 0
    control_packets: int = 0
    mean_delay_ms: float = 0.0
    p95_delay_ms: float = 0.0
    energy_total_j: float = 0.0
    per_node_tx: dict[NodeId, int] = field(default_factory=dict)

    @property
    def terminal_total(self) -> int:
        return self.delivered + self.expired + self.dropped_no_route + self.buffer_drops


@dataclass
class RunResult:
    metrics: MetricsRecord
    packets: list[Packet]  # every injected packet, finished, in id order
    transitions: list[Transition]
    trace: list[Event] | None = None


class _NodeRuntime:
    __slots__ = (
        "id",
        "is_sink",
        "link_j",
        "tx",
        "queue",
        "buffer_used",
        "pending",
    )

    def __init__(self, node_id: NodeId, is_sink: bool, buffer_used: float) -> None:
        self.id = node_id
        self.is_sink = is_sink
        # receiver id -> joules per bit sent to it (see Simulation._price)
        self.link_j: dict[NodeId, float] = {}
        self.tx = 0  # data transmissions started
        # waiting packets, first in first out (see Simulation._release)
        self.queue: list[Packet] = []
        self.buffer_used = buffer_used
        # the packet on the air and the Forward or Jump that sent it
        self.pending: tuple[Packet, Forward | Jump] | None = None


class Simulation:
    """One seeded run of one protocol over one topology."""

    def __init__(
        self, topo: Topology, scenario: ScenarioConfig, collect_trace: bool = False
    ) -> None:
        self.topo = topo
        self.cfg = scenario
        self.rng = random.Random(scenario.seed)
        # the hop-delay distribution, and the one stream data hops and probes draw from
        self.mu = scenario.mean_hop_delay_ms
        self.sigma = scenario.sigma_factor * self.mu
        self._delays = sample_delay(self.mu, self.sigma, self.rng)
        self.trace: list[Event] | None = [] if collect_trace else None

        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self._buffer_capacity = float(scenario.buffer_bytes)
        self._packet_bytes = float(scenario.packet_bytes)
        self._packet_bits = scenario.packet_bits
        self._rate_mult = scenario.rate_multipliers  # keyed by rate band

        self.metrics = MetricsRecord()
        self.packets: list[Packet] = []  # every injected packet, in id order
        # injected packets not yet finished, by id; the node of hop_trace[-1]
        # holds each, in its pending send or in one of its queues
        self._open: dict[int, Packet] = {}

        # the record of each node a packet has reached, made on its first
        # packet (see `record`); the source's first is injected at time 0
        self.nodes: dict[NodeId, _NodeRuntime] = {}
        # a relay's standing background occupancy: competing traffic held by
        # other flows, which never drains during the run
        self._standing = scenario.buffer_fill * scenario.buffer_bytes
        self._source = self.record(topo.source)
        # the nodes not carved or faulted: the run's one record of liveness
        self._live: set[NodeId] = set(topo.ids())

        carved = (
            carve_void(topo, scenario.void_center, scenario.void_radius)
            if scenario.void_radius > 0 else []
        )
        dead = sorted(carved + inject_faults(topo, scenario.fault_ratio, self.rng, carved))
        if dead:
            self._schedule(0.0, FAULT_ONSET, dead)

        # the run's one protocol object. One with a control plane, DMRF's,
        # has hooks beside `decide`: it starts here, once the faults are
        # scheduled, hears each send's outcome and the faults, and handles
        # its own events (see `run`). A baseline has none of them
        protocol = self.protocol = PROTOCOL_CLASSES[scenario.protocol](topo, scenario)
        self._on_sent = getattr(protocol, "on_sent", None)
        self._on_faults = getattr(protocol, "on_faults", None)
        # every state transition of the run, in order: the protocol's own list
        self.transitions: list[Transition] = getattr(protocol, "transitions", [])
        if hasattr(protocol, "start"):
            protocol.start(self)

        # injection i takes seq _inject_seq + i, the seq it would take if all
        # were scheduled here, but each injection schedules the next: the heap
        # holds work in flight, not the whole injection plan
        self._inject_seq = self._seq
        self._schedule(0.0, PACKET_INJECT, 0)
        self._seq = self._inject_seq + scenario.packet_count

    # ------------------------------------------------------------------
    # plumbing

    def standing_level(self, nid: NodeId) -> float:
        """The bytes the node's buffer holds before any packet reaches it:
        the standing preload at a relay, nothing at the source or the sink."""
        topo = self.topo
        return 0.0 if nid == topo.source or nid == topo.sink else self._standing

    def record(self, nid: NodeId) -> _NodeRuntime:
        """The node's record, made at its standing level if no packet has
        reached the node yet."""
        node = self.nodes.get(nid)
        if node is None:
            node = self.nodes[nid] = _NodeRuntime(
                nid, nid == self.topo.sink, self.standing_level(nid))
        return node

    def _schedule(self, time: float, kind: int, a: object) -> None:
        heappush(self._heap, (time, self._seq, kind, a))
        self._seq += 1

    def _trace_event(self, time: float, seq: int, kind: int, a: object) -> None:
        """The trace's one writer, called before the handler: one line per
        event. A probe round or timeout, like a FAULT_ONSET, names no node."""
        node = packet = None
        if kind == PACKET_ARRIVAL:
            node = a
            packet = self.nodes[a].pending[0].id
        elif kind == PACKET_INJECT:
            node = self.topo.source
            packet = a
        elif kind == FEEDBACK_DELIVERY:
            node = a[2]
        elif kind == DEADLINE_CHECK:
            packet = a.id
        self.trace.append(
            Event(time=time, seq=seq, kind=EVENT_KINDS[kind], node=node, packet=packet)
        )

    def _finalize(self, packet: Packet, outcome: str, now: float) -> None:
        if self._open.pop(packet.id, None) is None:
            raise InvariantError(f"packet {packet.id} finished twice")
        if outcome == DELIVERED:
            self.metrics.delivered += 1
        elif outcome == EXPIRED:
            self.metrics.expired += 1
        elif outcome == DROPPED_NO_ROUTE:
            self.metrics.dropped_no_route += 1
        else:
            self.metrics.buffer_drops += 1
        packet.outcome = outcome
        packet.finished_at = now

    def _price(self, sender: _NodeRuntime, receiver: NodeId, bits: int) -> float:
        """Joules for one frame of `bits` from `sender` to `receiver`. A link
        is priced once per run, per bit, whatever frames it carries: `bits *
        energy_cost(cfg, d, 1)` is `energy_cost(cfg, d, bits)` to the bit.
        Probe frames skip the cache: the layout calls `_link_price` itself."""
        per_bit = sender.link_j.get(receiver)
        if per_bit is None:
            per_bit = sender.link_j[receiver] = self._link_price(sender.id, receiver, 1)
        return bits * per_bit

    def _link_price(self, sender: NodeId, receiver: NodeId, bits: int) -> float:
        """Joules for one frame of `bits` from `sender` to `receiver`, priced
        afresh: no cache is read or filled. DMRF's probe layout prices its
        links here, and `_price` each link it caches."""
        return bits * energy_cost(self.cfg, self.topo.distance(sender, receiver), 1)

    # ------------------------------------------------------------------
    # decisions and service

    def _try_start(self, node: _NodeRuntime, now: float, stall: float = 0.0) -> None:
        """Start the node's next transmission, dropping the head packets it
        cannot send: one at or past its deadline expires before any protocol
        sees it, and one its protocol finds no route for is dropped. Callers
        skip a node that is busy or has nothing queued, the common case under
        load, rather than pay for the call."""
        while node.pending is None and node.queue:
            packet = node.queue[0]
            if packet.deadline <= now:
                outcome = EXPIRED
            else:
                decision = self.protocol.decide(node.id, packet, now, self._live)
                kind = type(decision)
                if kind is not Drop:
                    multiplier = 1.0 if kind is Jump else self._rate_mult[decision.rate]
                    service = stall + next(self._delays) * multiplier
                    self.metrics.energy_total_j += self._price(node, decision.next, self._packet_bits)
                    node.tx += 1
                    node.pending = (packet, decision)
                    self._schedule(now + service, PACKET_ARRIVAL, node.id)
                    return
                outcome = DROPPED_NO_ROUTE
            self._release(node, packet)
            self._finalize(packet, outcome, now)
            stall = 0.0

    # ------------------------------------------------------------------
    # event handlers

    def _on_inject(self, index: int, now: float) -> None:
        following = index + 1
        if following < self.cfg.packet_count:
            at = following * self.cfg.injection_period_ms
            # not _schedule: the seq was reserved at set-up, not taken now
            seq = self._inject_seq + following
            heappush(self._heap, (at, seq, PACKET_INJECT, following))
        packet = make_packet(
            source=self.topo.source,
            now=now,
            lifetime=self.cfg.packet_lifetime_ms,
            packet_id=index,
        )
        self.metrics.injected += 1
        self.packets.append(packet)
        self._open[packet.id] = packet
        source = self._source
        source.queue.append(packet)
        self._schedule(packet.deadline, DEADLINE_CHECK, packet)
        if source.pending is None:
            self._try_start(source, now)

    def _release(self, node: _NodeRuntime, packet: Packet) -> None:
        """Take a waiting packet off the node's queue. One past its first hop
        was relayed here, in the step that took its buffer space: free it.

        A node holds the source's own packets or relayed ones, never both:
        only the source injects, and no packet returns to it, since every
        protocol sends strictly closer to the sink or, for BYPASS, never to
        a node on the packet's trace, which starts with the source."""
        node.queue.remove(packet)
        if len(packet.hop_trace) > 1:
            node.buffer_used -= self._packet_bytes

    def _on_arrival(self, sender_id: NodeId, now: float) -> None:
        """Resolve an in-flight transmission.

        A receiver that is dead, or whose buffer cannot take the packet,
        never acknowledges. A protocol with an `on_sent` hook keeps the
        packet in that case and retries; one without loses it outright.
        The packet reaches a live receiver either way, so its record is made
        here if this is its first; a dead one has none.
        """
        nodes = self.nodes
        sender = nodes[sender_id]
        packet, decision = sender.pending
        sender.pending = None
        target = decision.next

        alive = accepted = target in self._live
        if alive:
            try:
                receiver = nodes[target]
            except KeyError:
                receiver = self.record(target)
            if not receiver.is_sink:
                accepted = receiver.buffer_used + self._packet_bytes <= self._buffer_capacity
        else:
            receiver = None
        if self._on_sent is not None and not self._on_sent(
            sender, receiver, packet, decision, accepted, now
        ):
            return

        self._release(sender, packet)
        if not accepted:
            self._finalize(packet, BUFFER_DROP if alive else DROPPED_NO_ROUTE, now)
        elif receiver.is_sink:
            packet.hop_trace.append(receiver.id)
            self._finalize(packet, DELIVERED if now <= packet.deadline else EXPIRED, now)
        elif now > packet.deadline:
            # arrived past its deadline at a relay: dead on arrival
            self._finalize(packet, EXPIRED, now)
        else:
            receiver.buffer_used += self._packet_bytes
            packet.hop_trace.append(receiver.id)
            receiver.queue.append(packet)
            if receiver.pending is None:
                self._try_start(receiver, now)
        if sender.queue:
            self._try_start(sender, now)

    def _on_fault_onset(self, node_ids: list[NodeId], now: float) -> None:
        self._live.difference_update(node_ids)
        if self._on_faults is not None:
            self._on_faults(node_ids, now)

    def _on_deadline(self, packet: Packet, now: float) -> None:
        if packet.outcome is not None:
            return
        node = self.nodes[packet.hop_trace[-1]]
        if node.pending is not None and node.pending[0] is packet:
            return  # in flight: judged when the transmission resolves
        self._release(node, packet)
        self._finalize(packet, EXPIRED, now)

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        # indexed by event kind; a protocol with a control plane handles its own
        protocol = self.protocol
        handlers = (
            self._on_arrival,
            self._on_inject,
            getattr(protocol, "on_probe_round", None),
            getattr(protocol, "on_timeout_round", None),
            getattr(protocol, "on_feedback_delivery", None),
            self._on_fault_onset,
            self._on_deadline,
        )
        heap, trace, open_, metrics = self._heap, self.trace, self._open, self.metrics
        horizon, target = self.cfg.horizon_ms, self.cfg.packet_count
        now = 0.0
        while heap:
            if not open_ and metrics.injected == target:
                break
            time, seq, kind, a = heappop(heap)
            if time > horizon:
                break
            now = time
            if trace is not None:
                self._trace_event(time, seq, kind, a)
            handlers[kind](a, time)

        # horizon cut: anything still alive in the network expires
        for leftover in list(self._open.values()):
            self._finalize(leftover, EXPIRED, now)

        ordered = sorted(
            p.finished_at - p.created_at for p in self.packets if p.outcome == DELIVERED
        )
        if ordered:
            self.metrics.mean_delay_ms = running_sum(ordered) / len(ordered)
            rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
            self.metrics.p95_delay_ms = ordered[rank]
        # records are made in the order packets reach their nodes: sort by id
        self.metrics.per_node_tx = dict(sorted(
            (nid, n.tx) for nid, n in self.nodes.items() if n.tx))
        if self.metrics.terminal_total != self.metrics.injected:
            raise InvariantError(
                "packet conservation violated: "
                f"{self.metrics.terminal_total} terminal vs {self.metrics.injected} injected"
            )
        if not math.isfinite(self.metrics.energy_total_j):
            raise InvariantError(f"energy total is {self.metrics.energy_total_j!r} J, not finite")
        return RunResult(
            metrics=self.metrics,
            packets=self.packets,
            transitions=self.transitions,
            trace=self.trace,
        )


def run(
    topo: Topology, scenario: ScenarioConfig, collect_trace: bool = False
) -> RunResult:
    """Simulate one scenario to completion and return its results."""
    return Simulation(topo, scenario, collect_trace).run()
