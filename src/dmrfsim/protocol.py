"""DMRF: its per-node decision logic and its control plane.

Covers the detection pipeline (faulty / congested / void), the slack-ratio
thresholds and rate bands, next-hop selection, jump-target sampling from
learned success ratios, and feedback-driven table adjustment. The control
plane runs on the engine's heap: probe rounds and their timeouts, feedback
frames and congestion notices, and the retry of a refused send. A feedback
frame is a jump failure or a state report, whose kind is the reported state
itself: the receiver caches it as it arrives. A frame is sent where it is
decided: a state report as the transition is made, a jump failure as it is
counted. Each frame carries the receiver's entry for its sender, the one it
updates, so no path looks an entry up by id.

Each node's state lives in a RoutingTable owned by exactly one simulation
run; the engine serializes all calls.
"""

from __future__ import annotations

import math
import random
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from types import SimpleNamespace

from .config import CONTROL_FRAME_BITS, ScenarioConfig
from .model import (
    CONG_SOURCES,
    CONG_STATES,
    FB_JUMP_FAIL,
    FEEDBACK_DELIVERY,
    PROBE,
    PROBE_TIMEOUT,
    RATE_HIGH,
    RATE_LOW,
    RATE_MEDIUM,
    STATE_CONG,
    STATE_FAULTY,
    STATE_JCONG,
    STATE_JFAULTY,
    STATE_NORMAL,
    STATE_VOID,
    CandidateEntry,
    FeedbackMessage,
    InvariantError,
    NodeId,
    NodeState,
    Packet,
    RateClass,
    Transition,
    legal_transition,
    remaining_time,
    running_sum,
)
from .topology import Topology, UNREACHABLE, build_fcs, shortest_delay_map

#: omega is clamped into (OMEGA_FLOOR, 1] so the band ordering never inverts
OMEGA_FLOOR = 1e-3

#: states in which a node stops hop-by-hop forwarding entirely
JUMP_STATES = (STATE_JFAULTY, STATE_VOID, STATE_JCONG)

#: the report a node sends on entering each state, one shared frame each: a
#: NORMAL report is a recovery, and the CONG one is also the congestion notice
FEEDBACK_ON_ENTRY = {
    STATE_JFAULTY: FeedbackMessage(STATE_FAULTY),
    STATE_VOID: FeedbackMessage(STATE_VOID),
    STATE_JCONG: FeedbackMessage(STATE_CONG),
    STATE_CONG: FeedbackMessage(STATE_CONG),
    STATE_NORMAL: FeedbackMessage(STATE_NORMAL),
}
#: a jump failure at the full hop limit; a re-forward builds its own
JUMP_FAIL = FeedbackMessage(FB_JUMP_FAIL)


class DropReason:
    """Why a decision drops its packet: a protocol sees only packets still
    inside their deadline, so the one reason is that no route is left."""

    NO_ROUTE = "NO_ROUTE"


DROP_NO_ROUTE = DropReason.NO_ROUTE


@dataclass(slots=True)
class Forward:
    next: NodeId
    rate: RateClass
    #: DMRF's chosen member, handed back with the send's outcome; a
    #: baseline's forward has none, and it takes no part in equality
    entry: CandidateEntry | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class Jump:
    next: NodeId
    #: the pool entry drawn, handed back with the jump's outcome
    entry: CandidateEntry


@dataclass(slots=True)
class Drop:
    reason: str


Decision = Forward | Jump | Drop


#: the state holder of a probed sink, which keeps no routing table
_SINK_REPORT = SimpleNamespace(state=STATE_NORMAL)


@dataclass(slots=True)
class JumpPool:
    """A node's long-range candidates: their ids in id order, as
    `Topology.jump_candidates` returns them, and, by position in `ids`, the
    entries that differ from a fresh one. Those are every member, the same
    object as in the table's members, and every jump target drawn. Any
    other candidate reads as `CandidateEntry(id, mu)` would: cached NORMAL,
    `suc` 1.0. So a pool costs a list slot per candidate and an entry per
    touched one."""

    ids: list[NodeId]
    held: dict[int, CandidateEntry]
    mu: float


@dataclass(slots=True)
class RoutingTable:
    """A node's routing memory: one entry per forwarding candidate and per
    jump target drawn, holding its cached state and learned statistics, and
    the node's own detection state.

    The members are sorted by candidate id, for `select_next_hop`'s
    tie-break and the probe order. Every member is in the jump pool, held
    there as the same object: a member is a neighbour strictly closer to
    the sink, and comm_radius <= max_tx_distance. No entry is looked up by
    id: a send's outcome comes back with its entry, and a control frame
    carries the receiver's entry for its sender."""

    owner: NodeId
    #: the forwarding candidate set, in id order
    members: list[CandidateEntry]
    needed_time: float
    state: NodeState = STATE_NORMAL
    own_congested: bool = False
    #: set when an input of reevaluate changes: a member's cached_state,
    #: own_congested or state; cleared by reevaluate
    dirty: bool = True
    #: the long-range candidates, built on first jump
    jump_pool: JumpPool | None = None
    #: the offered packets' arrival rate, per ms, and when the last came
    arrival_ewma: float = 0.0
    last_arrival: float | None = None
    #: the node that last relayed a packet here, where feedback goes, and
    #: its entry for this node, the one a frame to it updates
    upstream: tuple[NodeId, CandidateEntry] | None = None
    #: the senders warned this congestion episode, each to its entry for
    #: this node; None while none is, and replaced, never mutated
    cong_notified: dict[NodeId, CandidateEntry] | None = None


def _cache_state(table: RoutingTable, entry: CandidateEntry, state: NodeState) -> None:
    if entry.cached_state is not state:
        entry.cached_state = state
        table.dirty = True


def choose_jump_target(pool: JumpPool, rng: random.Random) -> CandidateEntry | None:
    """Sample a jump target's entry from the candidates cached NORMAL, each
    weighted by its share of their success ratios, summed left to right, or
    uniformly when they have no success mass: one draw, then their shares
    accumulated in id order up to the pick. With none viable there is no
    target, and nothing is drawn. A target drawn for the first time gets
    its entry here.

    A candidate not cached NORMAL takes part with a success ratio of 0.0.
    All ratios are at least 0.0, so adding it changes no sum, and its
    running sum is the one before it: never the first past the draw. So the
    sums and the pick are those of the viable candidates alone, to the bit.
    """
    ids, held = pool.ids, pool.held
    sucs = [1.0] * len(ids)
    viable = len(ids)
    for i, e in held.items():
        if e.cached_state is STATE_NORMAL:
            sucs[i] = e.suc
        else:
            sucs[i] = 0.0
            viable -= 1
    if not viable:
        return None
    r = rng.random()
    total = running_sum(sucs)
    if total <= 0.0:
        # no success mass, so every candidate is held (a fresh one has 1.0):
        # the viable ones share uniformly, each 1 / viable
        sucs = [1.0 if held[i].cached_state is STATE_NORMAL else 0.0 for i in range(len(ids))]
        total = viable
    acc = 0.0
    for i, suc in enumerate(sucs):
        acc += suc / total
        if r < acc:
            break
    else:
        # guard against float shortfall: the last viable candidate
        i = next(i for i in reversed(range(len(ids)))
                 if i not in held or held[i].cached_state is STATE_NORMAL)
    entry = held.get(i)
    if entry is None:
        entry = held[i] = CandidateEntry(ids[i], pool.mu)
    return entry


class DmrfProtocol:
    """DMRF's decision logic over RoutingTables, and its control plane.

    Bound to one (full) topology per run. Its detection and decision
    methods work on the table they are given, and report what they decide
    through `_report`: a state transition or a jump failure goes out as a
    control frame to the table's upstream hop, and a recovery also to every
    sender it warned. A table with no upstream hop and no warned sender
    sends nothing, so these methods run on a protocol that has joined no
    run too. Once `start` binds it to a `Simulation`, it also runs the
    control plane through that simulation's heap, delay stream, pricing and
    metrics: probe rounds and their timeouts, feedback frames and
    congestion notices, and the retry of a refused send. The engine keeps
    event timing, queues, buffers and the data plane. Every parameter is
    read from the run's `cfg`; `mu` is its mean hop delay. Only the
    protocol writes a table's decision state, and every state transition of
    the run's tables is appended to `transitions` as (time, node, old, new)
    when it happens.
    """

    def __init__(self, topo: Topology, cfg: ScenarioConfig) -> None:
        self.topo = topo
        self.cfg = cfg
        self.mu = cfg.mean_hop_delay_ms
        self.transitions: list[Transition] = []

    # ------------------------------------------------------------------
    # setup

    def build_tables(self) -> dict[NodeId, RoutingTable]:
        """Initialize every non-sink node's routing memory on the deployed
        topology. Later void carving and fault onsets are deliberately not
        reflected here: staleness is discovered at runtime."""
        topo = self.topo
        mu = self.mu
        sink = topo.sink
        needed = shortest_delay_map(topo, mu)
        tables: dict[NodeId, RoutingTable] = {}
        for node in topo.ids():
            if node == sink:
                continue
            fcs = build_fcs(topo, node)
            members = [CandidateEntry(c, mu) for c in fcs]
            table = tables[node] = RoutingTable(node, members, needed[node])
            if not members:
                # a node born without forward candidates is void from the start
                table.state = STATE_VOID
                self.transitions.append((0.0, node, STATE_NORMAL, STATE_VOID))
        return tables

    def ensure_jump_entries(self, table: RoutingTable) -> None:
        """Build the long-range candidate pool on first use.

        Built from the initialization-time topology, so it may contain nodes
        that have since failed or been carved out; those are weeded out by
        the success statistics, never by oracle knowledge. The pool holds
        each member's own entry, its statistics shared; a member missing
        from the candidates raises InvariantError.
        """
        if table.jump_pool is not None:
            return
        ids = self.topo.jump_candidates(table.owner)
        held = {}
        for member in table.members:
            c = member.candidate
            i = bisect_left(ids, c)
            if i == len(ids) or ids[i] != c:
                raise InvariantError(f"member {c} of node {table.owner} not in pool")
            held[i] = member
        table.jump_pool = JumpPool(ids, held, self.mu)

    # ------------------------------------------------------------------
    # detection pipeline

    def detect_faulty(
        self,
        tables: list[RoutingTable],
        entries: list[CandidateEntry],
        delays: list[float],
        states: list[NodeState],
        silent: list[tuple[RoutingTable, CandidateEntry]],
    ) -> None:
        """Account one probe round: each silent candidate counts a miss and
        is cached FAULTY at the configured count; each responder's count
        resets to 0 and its delay estimate is refreshed.

        The probed candidates that replied are `entries`, each beside its
        own table in `tables`; those that stayed silent are `silent`, each
        as a (table, entry) pair; any number of tables may appear. `delays`
        and `states` hold each reply, in `entries` order: the delay sample
        and the state the replier reported. A probe reply carries the
        replier's own state, so the cached state of a responder is whatever
        it reported rather than a guess. Lists of unequal length raise
        ValueError. A table whose cached states changed is left dirty, for
        the caller to `reevaluate`. A silent link whose entry reaches the
        count leaves `silent`, in place: a dead peer never answers, so its
        entry stays FAULTY and further misses change nothing a run shows.
        """
        for table, entry, delay, state in zip(tables, entries, delays, states, strict=True):
            entry.misses = 0
            if entry.cached_state is not state:  # the usual reply repeats it
                _cache_state(table, entry, state)
            entry.delay_est = 0.7 * entry.delay_est + 0.3 * delay
        silent[:] = [link for link in silent if self._distrust(*link)]

    def _trust(self, table: RoutingTable, entry: CandidateEntry) -> None:
        """An acknowledgment: no misses again, and a cached FAULTY heals."""
        entry.misses = 0
        if entry.cached_state is STATE_FAULTY:
            _cache_state(table, entry, STATE_NORMAL)

    def _distrust(self, table: RoutingTable, entry: CandidateEntry) -> bool:
        """A missed probe or a failed transmission: one more miss, and the
        candidate is cached FAULTY once its misses reach misses_to_faulty.
        Returns whether its misses are still short of that count."""
        entry.misses += 1
        if entry.misses < self.cfg.misses_to_faulty:
            return True
        _cache_state(table, entry, STATE_FAULTY)
        return False

    def on_offer(self, table: RoutingTable, buffer_used: float, now: float) -> None:
        """A packet offered to the node, whether or not it fits: fold it into
        the arrival-rate estimate, then check the buffer."""
        last = table.last_arrival
        if last is not None:
            gap = now - last
            if gap > 0:
                table.arrival_ewma = 0.5 * table.arrival_ewma + 0.5 / gap
        table.last_arrival = now
        self.detect_congestion(table, buffer_used, now)

    def detect_congestion(self, table: RoutingTable, buffer_used: float, now: float) -> None:
        """Predictive occupancy check with hysteresis on the way down. An
        arrival estimate idle for a probe period is halved first."""
        cfg = self.cfg
        last = table.last_arrival
        if last is not None and now - last >= cfg.probe_period_ms:
            table.arrival_ewma *= 0.5
        capacity = cfg.buffer_bytes
        occupancy = buffer_used / capacity
        predicted = occupancy + (
            table.arrival_ewma * cfg.cong_horizon_ms * cfg.packet_bytes
        ) / capacity
        if not table.own_congested and predicted >= cfg.theta_cong:
            table.own_congested = table.dirty = True
        elif table.own_congested and predicted < cfg.theta_cong - cfg.cong_hysteresis:
            table.own_congested = False
            table.dirty = True
        if table.dirty:
            self.reevaluate(table, now)

    def reevaluate(self, table: RoutingTable, now: float) -> None:
        """Derive the node's state from its own buffer flag and the cached
        candidate states, and `_report` each transition as it is made. Those
        are its only inputs, so while table.dirty is clear the state is
        current.
        """
        if not table.dirty:
            return
        table.dirty = False
        # one pass: does every member sit in VOID, in a dead state, in a
        # congested state? Stops at the first member that rules out all three
        void = dead = cong = True
        for e in table.members:
            state = e.cached_state
            if state is not STATE_VOID:
                void = False
            if state is not STATE_FAULTY and state is not STATE_JFAULTY:
                dead = False
            if state is not STATE_CONG and state is not STATE_JCONG:
                cong = False
            if not (void or dead or cong):
                break
        if void:  # also when the set is empty
            target = STATE_VOID
        elif dead:
            target = STATE_JFAULTY
        elif cong:
            target = STATE_JCONG
        elif table.own_congested:
            target = STATE_CONG
        else:
            target = STATE_NORMAL
        if target is table.state:
            return
        # entering CONG is only legal from NORMAL or JCONG; a node whose
        # candidates just healed while its own buffer is hot recovers first
        if target is STATE_CONG and table.state not in CONG_SOURCES:
            steps = [STATE_NORMAL, STATE_CONG]
        else:
            steps = [target]
        states = [e.cached_state for e in table.members]
        for nxt in steps:
            if not legal_transition(table.state, nxt, states):
                raise InvariantError(
                    f"illegal transition {table.state} -> {nxt} at node {table.owner}"
                )
            self.transitions.append((now, table.owner, table.state, nxt))
            table.state = nxt
            self._report(table, FEEDBACK_ON_ENTRY[nxt], now)

    # ------------------------------------------------------------------
    # forwarding decisions

    def select_next_hop(
        self,
        table: RoutingTable,
        packet: Packet,
        now: float,
        rng: random.Random,
    ) -> Decision:
        """Where the node sends `packet` now. A forward is committed here:
        the chosen member's use count rises, and the packet keeps the rate
        band it is sent at, for the continuity rule at its next hop. The
        engine asks only before the packet's deadline, so `remaining` is
        positive."""
        remaining = remaining_time(packet, now)
        if table.state in JUMP_STATES:
            return self._jump(table, rng)
        needed = table.needed_time
        if needed == UNREACHABLE:
            return self._jump(table, rng)
        # the slack ratio lambda: remaining lifetime over the estimated time
        # still needed; at or below theta_jump the packet jumps
        theta_jump = self.cfg.theta_jump
        lam = remaining / needed
        if lam <= theta_jump:
            return self._jump(table, rng)
        # one pass over the id-sorted members: the largest delay estimate,
        # and the forward target, the least-used NORMAL member whose estimate
        # fits the remaining time, then the slowest, then the lowest id: fast
        # links are held in reserve for packets that will actually need them
        max_fcs_delay = -math.inf
        best = None
        for e in table.members:
            delay = e.delay_est
            if delay > max_fcs_delay:
                max_fcs_delay = delay
            if e.cached_state is STATE_NORMAL and delay <= remaining:
                if (
                    best is None
                    or e.tx_count < best_tx
                    or (e.tx_count == best_tx and delay > best_delay)
                ):
                    best, best_tx, best_delay = e, e.tx_count, delay
        if best is None:
            return self._jump(table, rng)
        # the rate band: HIGH below theta_high, MEDIUM below theta_low, LOW
        # from there up; a packet never swings LOW<->HIGH in one hop, so such
        # a swing is pinned to MEDIUM
        previous = packet.rate_class
        theta_high = theta_jump + max_fcs_delay / needed
        if lam < theta_high:
            # theta_low is never below theta_high, so omega is not needed
            rate = RATE_MEDIUM if previous is RATE_LOW else RATE_HIGH
        else:
            # omega shrinks as the remaining lifetime nears the slowest
            # member's delay, widening the urgent bands; it is clamped into
            # (OMEGA_FLOOR, 1] so theta_low never falls below theta_high
            omega = (remaining - max_fcs_delay) / needed
            if omega >= 1.0:
                omega = 1.0
            elif not omega > OMEGA_FLOOR:
                omega = OMEGA_FLOOR
            if lam >= theta_high / omega + self.mu / needed:
                rate = RATE_MEDIUM if previous is RATE_HIGH else RATE_LOW
            else:
                rate = RATE_MEDIUM
        packet.rate_class = rate
        best.tx_count += 1
        return Forward(best.candidate, rate, best)

    def _jump(self, table: RoutingTable, rng: random.Random) -> Decision:
        self.ensure_jump_entries(table)
        drawn = choose_jump_target(table.jump_pool, rng)
        if drawn is None:
            return Drop(DROP_NO_ROUTE)
        return Jump(drawn.candidate, drawn)

    # ------------------------------------------------------------------
    # transmission outcomes and feedback

    def on_forward_result(
        self, table: RoutingTable, entry: CandidateEntry, success: bool, now: float
    ) -> None:
        """Data-transmission acknowledgment outcome for a hop-by-hop hop to
        the member `entry`, the one its Forward carried.

        A failure counts as a miss exactly like a missed probe; the candidate
        in active use is usually found FAULTY well before the prober is.
        """
        if success:
            self._trust(table, entry)
            return
        self._distrust(table, entry)
        self.reevaluate(table, now)

    def on_jump_result(
        self, table: RoutingTable, entry: CandidateEntry, success: bool, now: float
    ) -> None:
        """Update the jump statistics of the pool entry `entry`, the one its
        Jump carried, after an acknowledged (or timed-out) jump.

        The failed attempt is counted before the penalty ratio is taken, so
        successes never exceed attempts. A failure reports a JUMP_FAIL
        before the node's state is re-derived.
        """
        entry.attempts += 1
        if success:
            entry.successes += 1
            entry.suc = entry.successes / entry.attempts
            self._trust(table, entry)
            return
        entry.suc = max(0, entry.successes - 1) / entry.attempts
        self._distrust(table, entry)
        self._report(table, JUMP_FAIL, now)
        self.reevaluate(table, now)

    def on_feedback(
        self,
        table: RoutingTable,
        msg: FeedbackMessage,
        entry: CandidateEntry,
        now: float,
        rng: random.Random,
    ) -> None:
        """Apply a control message from downstream to `entry`, the table's
        entry for its sender, which the frame carries, and report what it
        causes: a JUMP_FAIL re-forwarded while its hop limit lasts, or any
        state change the update triggered.
        """
        if msg.kind is FB_JUMP_FAIL:
            # distrust the direction the bad news came from
            entry.suc *= rng.random()
            if msg.hop_limit > 1:
                self._report(table, FeedbackMessage(FB_JUMP_FAIL, msg.hop_limit - 1), now)
            return
        # every other kind is the state its sender reports, which is proof
        # of life; latest report wins
        _cache_state(table, entry, msg.kind)
        if table.dirty:
            self.reevaluate(table, now)

    # ------------------------------------------------------------------
    # the run: set-up, the engine's hooks and the control plane

    def start(self, sim) -> None:
        """Join the run `sim`, an `engine.Simulation`, at set-up, once its
        faults are scheduled.

        Every table is built on the full deployment: the void carved and the
        faults injected are discovered at runtime, not here. Every node with
        candidates probes them, in id order; the first round lays out their
        links."""
        # weak: the run holds its protocol, so a strong reference back would
        # keep a finished run alive until the cyclic collector found it
        self.sim = weakref.ref(sim)
        self.rng = sim.rng
        self._feedback_delay = self.cfg.feedback_delay_ms
        self.tables = self.build_tables()
        self._probers = [table for table in self.tables.values() if table.members]
        self._layout: tuple | None = None
        if self._probers:
            sim._schedule(0.0, PROBE, None)

    def decide(self, node: NodeId, packet: Packet, now: float, live: set[NodeId]) -> Decision:
        """The engine's decision call: `select_next_hop` on the node's table."""
        return self.select_next_hop(self.tables[node], packet, now, self.rng)

    def on_sent(self, sender, receiver, packet: Packet, decision: Forward | Jump,
                accepted: bool, now: float) -> bool:
        """Resolve a send's control plane; return whether the packet left.
        `sender` and `receiver` are the engine's records of the two nodes;
        a dead receiver has none and is passed as None.

        A live relay hears the offer, whether or not its buffer takes it. A
        full one warns the sender. One that takes the packet notes the
        sender as its upstream hop, with the sender's entry for it that the
        decision carried, and while congested warns it if the packet is in
        time to be queued. Then the sender learns the outcome:
        an acknowledgment sends no feedback, so a warning never waits on it.
        A refused packet stays at the head of the sender's queue and is
        sent again at once, its service time absorbing the acknowledgment
        timeout."""
        if receiver is not None and not receiver.is_sink:
            target = self.tables[receiver.id]
            self.on_offer(target, receiver.buffer_used, now)
            if not accepted:
                self._notify_congestion(target, sender.id, decision.entry, now)
            else:
                target.upstream = (sender.id, decision.entry)
                if target.state in CONG_STATES and now <= packet.deadline:
                    self._notify_congestion(target, sender.id, decision.entry, now)
        table = self.tables[sender.id]
        if type(decision) is Jump:
            self.on_jump_result(table, decision.entry, accepted, now)
        else:
            self.on_forward_result(table, decision.entry, accepted, now)
        if accepted:
            return True
        self.sim()._try_start(sender, now, stall=self.cfg.ack_timeout_ms)
        return False

    def on_faults(self, node_ids: list[NodeId], now: float) -> None:
        """The run's one FAULT_ONSET: each node in `node_ids` crashes, FAULTY
        for good. Its table is never re-derived again: a dead node probes
        nothing, is offered no data and receives no frame."""
        for nid in node_ids:
            table = self.tables[nid]
            self.transitions.append((now, nid, table.state, STATE_FAULTY))
            table.state = STATE_FAULTY

    def _send_control(self, msg: FeedbackMessage, entry: CandidateEntry, receiver: NodeId,
                      now: float) -> None:
        """Send one control frame to `receiver`, carrying `entry`, the
        receiver's entry for the sender `entry.candidate`: delivered after
        the feedback delay and charged to the sender at once.

        The receiver is always a live relay: frames go only to nodes that
        sent or relayed data, every fault strikes in the one FAULT_ONSET at
        time 0, before any packet moves, and the sink sends no data."""
        sim = self.sim()
        sim._schedule(now + self._feedback_delay, FEEDBACK_DELIVERY, (msg, entry, receiver))
        sim.metrics.energy_total_j += sim._price(
            sim.nodes[entry.candidate], receiver, CONTROL_FRAME_BITS)

    def _report(self, table: RoutingTable, fb: FeedbackMessage, now: float) -> None:
        """Send one state report or jump failure of the table's node to its
        upstream hop.

        A NORMAL report, a recovery, is fanned out to every sender that was
        warned during the congestion episode, so nobody is left avoiding a
        healthy node. A CONG report counts the upstream hop as warned, and
        goes to it warned or not: the once-per-episode rule is
        `_notify_congestion`'s alone. A table with no upstream hop and no
        warned sender sends nothing.
        """
        upstream = table.upstream
        if fb.kind is STATE_NORMAL:
            dests = table.cong_notified or {}
            table.cong_notified = None
            if upstream is not None:
                dests = {**dests, upstream[0]: upstream[1]}
            for dest, entry in sorted(dests.items()):
                self._send_control(fb, entry, dest, now)
        elif upstream is not None:
            dest, entry = upstream
            self._send_control(fb, entry, dest, now)
            if fb.kind is STATE_CONG:
                table.cong_notified = {**(table.cong_notified or {}), dest: entry}

    def _notify_congestion(self, table: RoutingTable, sender: NodeId, entry: CandidateEntry,
                           now: float) -> None:
        """Tell a data sender it is pushing into a congested buffer; at most
        once per sender per congestion episode. `entry` is the sender's
        entry for this node. The rule covers these notices only: a CONG
        state report goes to the upstream hop even if it was warned already
        (see `_report`)."""
        warned = table.cong_notified or {}
        if sender not in warned:
            self._send_control(FEEDBACK_ON_ENTRY[STATE_CONG], entry, sender, now)
            table.cong_notified = {**warned, sender: entry}

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
        order, priced as the engine's `_price` would price them (the node's
        own price cache is left alone), and equal values share one float."""
        sim = self.sim()
        alive, held, link_price = sim._live, self.tables, sim._link_price
        joules, tables, entries, peers, silent = [], [], [], [], []
        # a grid has a handful of link lengths, so most links share a price
        prices: dict[float, float] = {}
        probers = self._probers = [table for table in self._probers if table.owner in alive]
        for table in probers:
            owner = table.owner
            for entry in table.members:
                peer = entry.candidate
                price = link_price(owner, peer, CONTROL_FRAME_BITS)
                joules.append(prices.setdefault(price, price))
                if peer in alive:
                    tables.append(table)
                    entries.append(entry)
                    peers.append(held.get(peer, _SINK_REPORT))
                else:
                    silent.append((table, entry))
        return joules, tables, entries, peers, silent

    def on_probe_round(self, _: None, now: float) -> None:
        """PROBE: every prober probes, in id order, at the place in the
        event order that the first prober's own PROBE event would hold.

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
        sim, cfg = self.sim(), self.cfg
        metrics = sim.metrics
        metrics.control_packets += len(joules)
        metrics.energy_total_j = running_sum(joules, metrics.energy_total_j)
        replies = list(islice(sim._delays, len(peers))), [peer.state for peer in peers]
        sim._schedule(now + cfg.probe_timeout_ms, PROBE_TIMEOUT, replies)
        sim._schedule(now + cfg.probe_period_ms, PROBE, None)

    def on_timeout_round(self, replies: tuple, now: float) -> None:
        """PROBE_TIMEOUT: time out one round's `(delays, states)` replies.
        One `detect_faulty` call accounts the replies of the live links and
        the silence of the silent ones, and drops from the layout each
        silent link whose entry it finds at `misses_to_faulty` misses. Then
        each prober, in id order, re-derives its state if its table was left
        dirty, then checks its own buffer; each step reports the transitions
        it makes as it makes them. One never
        offered a packet checks its buffer at its first timeout only: its
        inputs, the standing preload and an arrival EWMA of 0.0, never
        change, and its table is clean once re-derived. A node no packet has
        reached has no engine record; its buffer holds the standing level."""
        delays, states = replies
        _joules, tables, entries, _peers, silent = self._layout
        self.detect_faulty(tables, entries, delays, states, silent)
        reevaluate, detect_congestion = self.reevaluate, self.detect_congestion
        sim = self.sim()
        nodes = sim.nodes
        first_timeout = now == self.cfg.probe_timeout_ms  # every prober first probes at 0
        for table in self._probers:
            if table.dirty:
                reevaluate(table, now)
            if table.last_arrival is not None or first_timeout:
                try:
                    used = nodes[table.owner].buffer_used
                except KeyError:  # an idle prober, still at its standing level
                    used = sim.standing_level(table.owner)
                detect_congestion(table, used, now)

    def on_feedback_delivery(self, payload: tuple[FeedbackMessage, CandidateEntry, NodeId],
                             now: float) -> None:
        """FEEDBACK_DELIVERY: a control frame reaches its receiver."""
        msg, entry, receiver = payload
        self.sim().metrics.control_packets += 1
        self.on_feedback(self.tables[receiver], msg, entry, now, self.rng)
