"""Deterministic discrete-event simulation core.

One heap, one RNG, seven event kinds. Data transmissions occupy a node's
single radio server; control traffic (probes, acknowledgments, feedback) is
modeled as instantaneous on the data plane but is fully charged for energy
and counted. All per-run randomness flows through a single seeded generator
and every iteration order is fixed, so equal seeds give equal runs bit for
bit.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice
from types import SimpleNamespace

from . import baselines
from .config import CONTROL_FRAME_BITS, DMRF, ScenarioConfig
from .model import (
    CONG_STATES,
    FB_CONG,
    FB_RECOVER,
    STATE_NORMAL,
    FeedbackMessage,
    InvariantError,
    NodeId,
    Packet,
    make_packet,
    running_sum,
)
from .protocol import DmrfProtocol, Drop, Forward, Jump, RoutingTable, Transition
# build_fcs is unused here; the benchmark's layer probe patches it by this name
from .topology import Topology, build_fcs, carve_void  # noqa: F401

PACKET_ARRIVAL = 0
PACKET_INJECT = 1
PROBE = 2
PROBE_TIMEOUT = 3
FEEDBACK_DELIVERY = 4
FAULT_ONSET = 5
DEADLINE_CHECK = 6

EVENT_KINDS = (
    "PACKET_ARRIVAL",
    "PACKET_INJECT",
    "PROBE",
    "PROBE_TIMEOUT",
    "FEEDBACK_DELIVERY",
    "FAULT_ONSET",
    "DEADLINE_CHECK",
)

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


def preload_buffers(
    topo: Topology, fill_ratio: float, buffer_bytes: int
) -> dict[NodeId, float]:
    """Standing background occupancy for every relay buffer.

    The preload represents competing traffic held by other flows; it never
    drains during the run.
    """
    if not 0.0 <= fill_ratio <= 1.0:
        raise ValueError(f"fill_ratio must be in [0, 1], got {fill_ratio}")
    return {
        n: fill_ratio * buffer_bytes
        for n in topo.ids()
        if n not in (topo.source, topo.sink)
    }


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
        "table",
        "link_j",
        "tx",
        "queue",
        "buffer_used",
        "pending",
        "cong_notified",
        "upstream",
    )

    def __init__(self, node_id: NodeId, is_sink: bool) -> None:
        self.id = node_id
        self.is_sink = is_sink
        self.table: RoutingTable | None = None
        # receiver id -> joules per bit sent to it (see Simulation._price);
        # replaced, never mutated, while it is the shared empty one
        self.link_j: dict[NodeId, float] = _NO_PRICES
        self.tx = 0  # data transmissions started
        # waiting packets, first in first out (see Simulation._release)
        self.queue: list[Packet] = []
        self.buffer_used = 0.0
        # the packet on the air and the Forward or Jump that sent it
        self.pending: tuple[Packet, Forward | Jump] | None = None
        # the senders warned this congestion episode; replaced, never mutated
        self.cong_notified: frozenset[NodeId] = _NO_NOTICES
        # the node that last relayed a packet here: where feedback goes
        self.upstream: NodeId | None = None


#: the notice set every node shares until it first warns a sender
_NO_NOTICES: frozenset[NodeId] = frozenset()
#: the price cache every node shares until it first sends a data or feedback
#: frame; never written
_NO_PRICES: dict[NodeId, float] = {}
#: the state holder of a probed sink, which keeps no routing table
_SINK_REPORT = SimpleNamespace(state=STATE_NORMAL)


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
        self._feedback_delay_ms = scenario.feedback_delay_ms
        self._rate_mult = scenario.rate_multipliers  # keyed by rate band

        self.metrics = MetricsRecord()
        self.packets: list[Packet] = []  # every injected packet, in id order
        # injected packets not yet finished, by id; the node of hop_trace[-1]
        # holds each, in its pending send or in one of its queues
        self._open: dict[int, Packet] = {}

        # the run's one protocol object: DMRF's, or a baseline's (baselines.py)
        self.dmrf = self.baseline = None
        # every state transition of the run, in order: DMRF's own list
        self.transitions: list[Transition] = []
        if scenario.protocol == DMRF:
            self.dmrf = DmrfProtocol(topo, scenario)
            self.transitions = self.dmrf.transitions
        else:
            self.baseline = baselines.BASELINES[scenario.protocol](topo, scenario)

        self.nodes = {nid: _NodeRuntime(nid, nid == topo.sink) for nid in topo.ids()}
        # the nodes not carved or faulted: the run's one record of liveness
        self._live: set[NodeId] = set(self.nodes)

        # routing memory is built on the full deployment; the void carved and
        # the faults injected below are discovered at runtime, not here. Every
        # node with candidates probes them, in id order; the first round lays
        # out their links (see _lay_out_probes)
        self._probers: list[_NodeRuntime] = []
        if self.dmrf is not None:
            for nid, table in self.dmrf.build_tables().items():
                node = self.nodes[nid]
                node.table = table
                if table.members:
                    self._probers.append(node)

        if scenario.buffer_fill:
            preload = preload_buffers(topo, scenario.buffer_fill, scenario.buffer_bytes)
            for nid, used in preload.items():
                self.nodes[nid].buffer_used = used

        carved = (
            carve_void(topo, scenario.void_center, scenario.void_radius)
            if scenario.void_radius > 0 else []
        )
        dead = sorted(carved + inject_faults(topo, scenario.fault_ratio, self.rng, carved))
        if dead:
            self._schedule(0.0, FAULT_ONSET, dead)

        self._layout: tuple | None = None
        if self._probers:
            self._schedule(0.0, PROBE, None)

        # injection i takes seq _inject_seq + i, the seq it would take if all
        # were scheduled here, but each injection schedules the next: the heap
        # holds work in flight, not the whole injection plan
        self._inject_seq = self._seq
        self._schedule(0.0, PACKET_INJECT, 0)
        self._seq = self._inject_seq + scenario.packet_count

    # ------------------------------------------------------------------
    # plumbing

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
        Probe frames are priced by the layout, not here."""
        per_bit = sender.link_j.get(receiver)
        if per_bit is None:
            link_j = sender.link_j
            if link_j is _NO_PRICES:
                link_j = sender.link_j = {}
            per_bit = link_j[receiver] = energy_cost(
                self.cfg, self.topo.distance(sender.id, receiver), 1
            )
        return bits * per_bit

    def _send_control(
        self, msg: FeedbackMessage, sender: NodeId, receiver: NodeId, now: float
    ) -> None:
        """Send one control frame: delivered after the feedback delay and
        charged to the sender at once.

        The receiver is always a live relay: frames go only to nodes that
        sent or relayed data, every fault strikes in the one FAULT_ONSET at
        time 0, before any packet moves, and the sink sends no data."""
        at = now + self._feedback_delay_ms
        self._schedule(at, FEEDBACK_DELIVERY, (msg, sender, receiver))
        self.metrics.energy_total_j += self._price(
            self.nodes[sender], receiver, CONTROL_FRAME_BITS
        )

    def _send_feedbacks(
        self, node: _NodeRuntime, feedbacks: list[FeedbackMessage], now: float
    ) -> None:
        """Queue state-change/jump feedback to the node's upstream hop.

        Recovery is fanned out to every sender that was warned during the
        congestion episode, so nobody is left avoiding a healthy node.
        """
        upstream = node.upstream
        for fb in feedbacks:
            if fb.kind is FB_RECOVER:
                dests = node.cong_notified
                node.cong_notified = _NO_NOTICES
                for dest in sorted(dests if upstream is None else dests | {upstream}):
                    self._send_control(fb, node.id, dest, now)
            elif upstream is not None:
                self._send_control(fb, node.id, upstream, now)
                if fb.kind is FB_CONG:
                    node.cong_notified = node.cong_notified | {upstream}

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
                if self.dmrf is not None:
                    decision = self.dmrf.select_next_hop(node.table, packet, now, self.rng)
                else:
                    decision = self.baseline.decide(node.id, packet, self._live)
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
        source = self.nodes[self.topo.source]
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
        never acknowledges. The sender keeps the packet in that case and
        retries after the acknowledgment timeout; only the blind baselines
        lose it outright.
        """
        sender = self.nodes[sender_id]
        packet, decision = sender.pending
        sender.pending = None
        target = decision.next
        receiver = self.nodes[target]
        # a DMRF run gives every node but the sink a table, a baseline none;
        # the sender, a relay receiver and a faulted node are never the sink
        dmrf = self.dmrf

        alive = accepted = target in self._live
        if accepted and not receiver.is_sink:
            if dmrf is not None:
                fbs = dmrf.on_offer(receiver.table, receiver.buffer_used, now)
                if fbs:
                    self._send_feedbacks(receiver, fbs, now)
            accepted = receiver.buffer_used + self._packet_bytes <= self._buffer_capacity

        if dmrf is not None:
            if not accepted and alive:
                self._notify_congestion(receiver, sender_id, now)
            on_result = dmrf.on_jump_result if type(decision) is Jump else dmrf.on_forward_result
            fbs = on_result(sender.table, decision.entry, accepted, now)
            if fbs:
                self._send_feedbacks(sender, fbs, now)
            if not accepted:
                # the packet stays at the head of the queue; the retry's
                # service time absorbs the acknowledgment timeout
                self._try_start(sender, now, stall=self.cfg.ack_timeout_ms)
                return

        self._release(sender, packet)
        if not accepted:
            outcome = BUFFER_DROP if alive else DROPPED_NO_ROUTE
            self._finalize(packet, outcome, now)
        elif receiver.is_sink:
            packet.hop_trace.append(receiver.id)
            self._finalize(packet, DELIVERED if now <= packet.deadline else EXPIRED, now)
        else:
            receiver.upstream = sender_id
            if now > packet.deadline:
                # arrived past its deadline at a relay: dead on arrival
                self._finalize(packet, EXPIRED, now)
            else:
                receiver.buffer_used += self._packet_bytes
                packet.hop_trace.append(receiver.id)
                receiver.queue.append(packet)
                if dmrf is not None and receiver.table.state in CONG_STATES:
                    self._notify_congestion(receiver, sender_id, now)
                if receiver.pending is None:
                    self._try_start(receiver, now)
        if sender.queue:
            self._try_start(sender, now)

    def _notify_congestion(
        self, node: _NodeRuntime, sender_id: NodeId, now: float
    ) -> None:
        """Tell a data sender it is pushing into a congested buffer; at most
        once per sender per congestion episode. DMRF runs only."""
        if sender_id in node.cong_notified:
            return
        self._send_control(FeedbackMessage(FB_CONG), node.id, sender_id, now)
        node.cong_notified = node.cong_notified | {sender_id}

    def _lay_out_probes(self) -> tuple:
        """Lay out the probe links of every live prober end to end, in id
        order and then in the order of its table.members, as `(joules,
        tables, entries, peers, silent)`.

        The first round does this after the time-0 FAULT_ONSET, the only
        one, so which peers are silent is fixed for the whole run. A live
        link keeps its table, its entry and its peer's state holder at one
        position of `tables`, `entries` and `peers`: three flat lists, not a
        tuple per link. A silent one keeps only its (table, entry) pair, in
        `silent`. `joules` holds every link's control-frame joules in link
        order, priced here as `_price` would price them (the node's own
        price cache is left alone), and equal values share one float."""
        nodes, alive, cfg, distance = self.nodes, self._live, self.cfg, self.topo.distance
        joules, tables, entries, peers, silent = [], [], [], [], []
        # a grid has a handful of link lengths, so most links share a price
        prices: dict[float, float] = {}
        probers = self._probers = [node for node in self._probers if node.id in alive]
        for node in probers:
            table = node.table
            for entry in table.members:
                peer = nodes[entry.candidate]
                price = CONTROL_FRAME_BITS * energy_cost(cfg, distance(node.id, peer.id), 1)
                joules.append(prices.setdefault(price, price))
                if peer.id in alive:
                    tables.append(table)
                    entries.append(entry)
                    peers.append(peer.table if peer.table is not None else _SINK_REPORT)
                else:
                    silent.append((table, entry))
        return joules, tables, entries, peers, silent

    def _on_probe_round(self, _: None, now: float) -> None:
        """Every prober probes, in id order, at the place in the event order
        that the first prober's own PROBE event would hold.

        Each link costs one control frame. A live peer's reply is a delay
        from the run's one stream and the peer's own current state; silent
        peers draw nothing. The round keeps the replies in two flat lists,
        in live-link order, until its PROBE_TIMEOUT: a tuple per reply would
        be one more object for the cyclic garbage collector to track. The
        timeout is scheduled before the next round, so a timeout that lands
        on a probe instant runs before that round, whatever the ratio of
        timeout to period."""
        if self._layout is None:
            self._layout = self._lay_out_probes()
            if not self._probers:
                return
        joules, _tables, _entries, peers, _silent = self._layout
        metrics = self.metrics
        metrics.control_packets += len(joules)
        metrics.energy_total_j = running_sum(joules, metrics.energy_total_j)
        replies = list(islice(self._delays, len(peers))), [peer.state for peer in peers]
        self._schedule(now + self.cfg.probe_timeout_ms, PROBE_TIMEOUT, replies)
        self._schedule(now + self.cfg.probe_period_ms, PROBE, None)

    def _on_timeout_round(self, replies: tuple, now: float) -> None:
        """Time out one round's `(delays, states)` replies: one
        `detect_faulty` call accounts the replies of the live links and the
        silence of the silent ones, and drops from the layout each silent
        link whose entry it finds at `misses_to_faulty` misses. Then each
        prober, in id order, re-derives its state if its table was left
        dirty, checks its own buffer and sends its feedback. One never
        offered a packet checks its buffer at its first timeout only: its
        inputs, the standing preload and an arrival EWMA of 0.0, never
        change, and its table is clean once re-derived."""
        delays, states = replies
        _joules, tables, entries, _peers, silent = self._layout
        dmrf = self.dmrf
        dmrf.detect_faulty(tables, entries, delays, states, silent)
        reevaluate, detect_congestion = dmrf.reevaluate, dmrf.detect_congestion
        first_timeout = now == self.cfg.probe_timeout_ms  # every prober first probes at 0
        for node in self._probers:
            table = node.table
            fbs = reevaluate(table, now) if table.dirty else None
            if table.last_arrival is not None or first_timeout:
                checked = detect_congestion(table, node.buffer_used, now)
                fbs = fbs + checked if fbs else checked
            if fbs:
                self._send_feedbacks(node, fbs, now)

    def _on_feedback(
        self, payload: tuple[FeedbackMessage, NodeId, NodeId], now: float
    ) -> None:
        msg, sender_id, receiver_id = payload
        self.metrics.control_packets += 1
        receiver = self.nodes[receiver_id]
        fbs = self.dmrf.on_feedback(receiver.table, msg, sender_id, now, self.rng)
        if fbs:
            self._send_feedbacks(receiver, fbs, now)

    def _on_fault_onset(self, node_ids: list[NodeId], now: float) -> None:
        self._live.difference_update(node_ids)
        dmrf = self.dmrf
        if dmrf is not None:
            for nid in node_ids:
                dmrf.on_fault(self.nodes[nid].table, now)

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
        # indexed by event kind
        handlers = (
            self._on_arrival,
            self._on_inject,
            self._on_probe_round,
            self._on_timeout_round,
            self._on_feedback,
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
        self.metrics.per_node_tx = {nid: n.tx for nid, n in self.nodes.items() if n.tx}
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
