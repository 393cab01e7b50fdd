"""Property tests: engine invariants and exact symmetries over random valid
small scenarios.

Every protocol, faults, voids, standing buffer fill, and probe timeouts both
on and off the probe instants. Each run is checked for packet conservation,
no late delivery, buffer occupancy within [0, buffer_bytes] and equal to
the preload plus the queued relay packets between every pair of events,
every unfinished packet held by the last node on its trace, no decision
asked about a packet at or past its deadline, no packet returning to the
source, legal and chained state transitions, faults only at time 0, every
control frame delivered to a live node with a routing table, every jump
pool of a node within jump reach of the sink holding the sink's entry
cached NORMAL, every DMRF send's outcome going to the entry its Forward or
Jump carried, the one the sender's table finds by id (the slow twin of the
handoff), a trace of one line per event in (time, seq) order whose
injections take seqs rising with the packet id, and control packets equal
to probe rounds times probe links plus feedback frames. The same checks
run on drawn lines whose relays queue, so packets also expire in relay
queues, where the random scenarios expire them at the source only; and on
drawn lines broken by a gap, whose last node before the gap is born VOID,
so the prober behind it learns VOID and reports it upstream.

The probe layout prices its links itself, the way the engine's per-link
price cache prices any other frame. A slow twin whose layout prices probe
frames through that cache, as the layout once did, gives the same run, its
energy total equal to the bit. So does the slow twin of the topology memos:
each run on a topology whose cached tables earlier runs built equals the
same run on a fresh deploy. And so does the slow twin of records made on a
node's first packet: a run that builds every node's record at set-up.

A jump pool holds its candidate ids and only the entries that differ from a
fresh one. Its slow twin lists the pool entry by entry before each draw and
runs the draw as first written, normalize then accumulate, with a copy of
the run's generator: every jump picks the same target, and every lookup by
id finds what a scan of the listed pool finds, on the drawn scenarios, the
drawn lines and the drawn void lines.

Two rescalings by a power of two leave a run the same, because every float
operation then rescales exactly. Time: every `_ms` field times k and the
bandwidth over k scale every time by k and change nothing else. Space: every
length times k and the amplifier energy over k squared change nothing at
all. A hard-coded millisecond or metre constant, or a comparison that is not
scale-free, breaks one of them. Relabelling the node ids is not a symmetry:
ties between candidates break by the lowest id, so do not test it.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from dmrfsim.config import (
    CONTROL_FRAME_BITS, DMRF, PROTOCOLS, ScenarioConfig, from_dict, validate)
from dmrfsim.engine import (
    DELIVERED, EXPIRED, FAULT_ONSET, FEEDBACK_DELIVERY, Simulation, _NodeRuntime, energy_cost,
    run)
from dmrfsim.model import (
    FB_JUMP_FAIL, STATE_CONG, STATE_FAULTY, STATE_NORMAL, STATE_VOID, CandidateEntry,
    FeedbackMessage, NodeState, legal_transition)
from dmrfsim.protocol import DmrfProtocol, Jump
from dmrfsim.topology import DISTRIBUTIONS, Topology, deploy
from reference import pool_entries, reference_jump_target

#: the states a feedback frame may report, as its kind
REPORTED_STATES = (STATE_FAULTY, STATE_VOID, STATE_CONG, STATE_NORMAL)


class CheckedSimulation(Simulation):
    """A traced run that checks buffers and transitions before each event;
    `check` is called once more after the run. No decision is asked about a
    packet at or past its deadline: the engine expires it first. In a DMRF
    run each delivered feedback frame is checked once its receiver has
    applied it."""

    def __init__(self, topo, cfg) -> None:
        super().__init__(topo, cfg, collect_trace=True)
        # the standing background occupancy of every relay buffer
        self.preload = {n: cfg.buffer_fill * cfg.buffer_bytes for n in topo.ids()
                        if n not in (topo.source, topo.sink)}
        self.checked = 0
        self.expired_at_check = 0
        self.relayed_expired_at_check = 0
        self.sink_pools = 0  # jump pools found holding the sink, over all checks
        self.jump_outcomes = 0  # DMRF jump outcomes whose entry was checked
        self.reports: set[NodeState] = set()  # the states delivered frames reported
        self.last_state: dict[int, NodeState] = {}
        self.events = 0
        self.now = 0.0
        # a DMRF run's routing tables, by node; a baseline keeps none
        self.tables = getattr(self.protocol, "tables", {})
        self.protocol.decide = self._before_the_deadline(self.protocol.decide)
        if isinstance(self.protocol, DmrfProtocol):
            self.protocol.on_feedback_delivery = self._cached_as_reported(
                self.protocol.on_feedback_delivery)

    def _before_the_deadline(self, decide):
        def checked(holder, packet, *rest):
            assert self.now < packet.deadline, (packet.id, self.now)
            return decide(holder, packet, *rest)
        return checked

    def _cached_as_reported(self, deliver):
        def checked(payload, now):
            msg, sender, receiver = payload
            deliver(payload, now)
            # a frame is a jump failure or a state report whose kind is the
            # state reported, and the receiver caches it for the sender
            if msg.kind is not FB_JUMP_FAIL:
                assert any(msg.kind is state for state in REPORTED_STATES), payload
                assert self.tables[receiver].entry(sender).cached_state is msg.kind, payload
                self.reports.add(msg.kind)
        return checked

    def _trace_event(self, time, seq, kind, a) -> None:
        self.events += 1
        self.now = time
        self.check()
        self.check_buffers()
        for packet in self._open.values():
            # the last node on its trace holds it: sending it, or queued
            assert packet.outcome is None, packet.id
            holder = self.nodes[packet.hop_trace[-1]]
            if holder.pending is not None and holder.pending[0] is packet:
                continue
            assert packet in holder.queue, (packet.id, holder.id)
        # every fault strikes at time 0, before any packet moves, and a
        # control frame goes only to a node that sent or relayed data: so
        # to a live node with a routing table
        if kind == FAULT_ONSET:
            assert time == 0.0, time
        elif kind == FEEDBACK_DELIVERY:
            receiver = a[2]
            assert receiver in self._live and receiver in self.tables, a
        super()._trace_event(time, seq, kind, a)

    def _on_arrival(self, sender_id, now) -> None:
        # the slow twin of the handoff: the entry a DMRF decision carries to
        # its outcome is the one a lookup by id finds in the sender's table
        if isinstance(self.protocol, DmrfProtocol):
            decision = self.nodes[sender_id].pending[1]
            table = self.tables[sender_id]
            assert decision.entry is table.entry(decision.next), (sender_id, decision)
            self.jump_outcomes += type(decision) is Jump
        super()._on_arrival(sender_id, now)

    def _on_deadline(self, packet, now) -> None:
        holder = self.nodes[packet.hop_trace[-1]]
        queued = packet.outcome is None and not (
            holder.pending is not None and holder.pending[0] is packet)
        super()._on_deadline(packet, now)
        if queued:
            # a packet still waiting in a queue at its deadline expires then,
            # and a relayed one frees its buffer space
            assert packet.outcome == EXPIRED and packet.finished_at == now, packet.id
            self.check_buffers()
            self.expired_at_check += 1
            self.relayed_expired_at_check += len(packet.hop_trace) > 1

    def check_buffers(self) -> None:
        for node in self.nodes.values():
            # the standing preload plus every queued packet past its first
            # hop, one in flight included; the horizon cut leaves this be
            relayed = sum(len(p.hop_trace) > 1 for p in node.queue)
            queued = relayed * self.cfg.packet_bytes
            expected = self.preload.get(node.id, 0.0) + queued
            assert math.isclose(node.buffer_used, expected, abs_tol=1e-9), node.id

    def check(self) -> None:
        capacity = self.cfg.buffer_bytes
        for node in self.nodes.values():
            assert 0.0 <= node.buffer_used <= capacity, (node.id, node.buffer_used)
        # a node's candidate states do not change later in the event that
        # moved it, so the states seen now are the ones the move was made on
        for _t, nid, old, new in self.transitions[self.checked:]:
            assert old is self.last_state.get(nid, STATE_NORMAL)
            table = self.tables.get(nid)
            states = [e.cached_state for e in table.members] if table else []
            assert legal_transition(old, new, states), (nid, old, new, states)
            self.last_state[nid] = new
        self.checked = len(self.transitions)
        # a node off the sink's position but within jump reach of it always
        # has a jump target: its pool lists the sink's entry, cached NORMAL,
        # since the sink replies NORMAL, accepts every frame and sends no
        # feedback
        topo = self.topo
        to_sink = topo.sink_distances
        for nid, table in self.tables.items():
            pool = table.jump_pool
            if pool is not None and 0.0 < to_sink[nid] <= topo.max_tx_distance:
                [entry] = [e for e in pool_entries(pool) if e.candidate == topo.sink]
                assert entry.cached_state is STATE_NORMAL, nid
                self.sink_pools += 1


def _value(draw, low: float, high: float) -> float:
    return draw(st.floats(low, high, allow_nan=False, allow_infinity=False))


@st.composite
def scenarios(draw):
    count = draw(st.integers(2, 30))
    side = _value(draw, 1.0, 12.0)
    spacing = side / (math.ceil(math.sqrt(count)) - 1)
    if draw(st.booleans()):
        # a burst: packets come faster than a hop drains them and run out of
        # lifetime while they queue, so DEADLINE_CHECK events expire them
        packets = draw(st.integers(4, 15))
        lifetime, spacing_ms = _value(draw, 1.5, 6.0), _value(draw, 0.05, 0.6)
    else:
        packets = draw(st.integers(1, 15))
        lifetime, spacing_ms = _value(draw, 2.0, 150.0), _value(draw, 0.5, 10.0)
    period = draw(st.sampled_from([1.0, 2.0, 5.0, 10.0]))
    if draw(st.booleans()):
        timeout = period  # every timeout lands on the next probe instant
    else:
        timeout = draw(st.sampled_from([t for t in (0.5, 2.0, 3.0, 15.0, 20.0) if t != period]))
    raw = {
        "preset": "table2",
        "node_count": count,
        "region": [side, side],
        "distribution": draw(st.sampled_from(DISTRIBUTIONS)),
        # two nodes on a wide square are spaced farther than the jump reach
        "comm_radius": min(spacing * _value(draw, 0.9, 3.0),
                           ScenarioConfig.max_tx_distance),
        "packet_count": packets,
        "packet_lifetime_ms": lifetime,
        "injection_period_ms": spacing_ms,
        "buffer_bytes": draw(st.sampled_from([32, 64, 100, 200])),
        "fault_ratio": _value(draw, 0.0, 0.6),
        "buffer_fill": _value(draw, 0.0, 1.0),
        "void_radius": draw(st.one_of(st.just(0.0), st.floats(0.1, side / 2))),
        "void_center": [_value(draw, 0.0, side), _value(draw, 0.0, side)],
        "probe_period_ms": period,
        "probe_timeout_ms": timeout,
        "sigma_factor": _value(draw, 0.0, 1.0),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }
    return from_dict(raw)


def deployed(cfg):
    return deploy(cfg.node_count, cfg.region, cfg.distribution, rng_seed=cfg.seed,
                  comm_radius=cfg.comm_radius, max_tx_distance=cfg.max_tx_distance)


def test_the_drawn_scenarios_expire_queued_packets_at_their_deadline_checks():
    """The invariant test above reaches the DEADLINE_CHECK path that expires
    a packet still waiting in a queue: some drawn scenario takes it."""
    def expires_at_a_check(cfg):
        sim = CheckedSimulation(deployed(cfg), cfg)
        sim.run()
        return sim.expired_at_check > 0

    # raises NoSuchExample when no drawn scenario takes the path
    find(scenarios(), expires_at_a_check,
         settings=settings(max_examples=100, derandomize=True, database=None))


def test_the_drawn_scenarios_check_jump_pools_that_hold_the_sink():
    """The invariant test below checks the sink's entry in some jump pool
    built for a node within jump reach of the sink."""
    def checks_a_sink_pool(cfg):
        sim = CheckedSimulation(deployed(cfg), cfg)
        sim.run()
        return sim.sink_pools > 0

    # raises NoSuchExample when no drawn scenario builds such a pool
    find(scenarios(), checks_a_sink_pool,
         settings=settings(max_examples=100, derandomize=True, database=None))


def test_the_drawn_scenarios_check_the_entry_of_a_jump_outcome():
    """The invariant test below checks the handoff of a jump's outcome, not
    only of forwards: some drawn DMRF scenario resolves a jump."""
    def resolves_a_jump(cfg):
        sim = CheckedSimulation(deployed(cfg), dataclasses.replace(cfg, protocol=DMRF))
        sim.run()
        return sim.jump_outcomes > 0

    # raises NoSuchExample when no drawn scenario resolves a jump
    find(scenarios(), resolves_a_jump,
         settings=settings(max_examples=100, derandomize=True, database=None))


def test_the_drawn_scenarios_check_the_cached_state_of_a_delivered_report():
    """The invariant test below checks the receiver's cache after a state
    report, not only after jump failures: some drawn DMRF scenario delivers
    one."""
    def delivers_a_report(cfg):
        sim = CheckedSimulation(deployed(cfg), dataclasses.replace(cfg, protocol=DMRF))
        sim.run()
        return bool(sim.reports)

    # raises NoSuchExample when no drawn scenario delivers a state report
    find(scenarios(), delivers_a_report,
         settings=settings(max_examples=100, derandomize=True, database=None))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=scenarios())
def test_engine_invariants_hold_over_small_scenarios(cfg):
    topo = deployed(cfg)
    for protocol in PROTOCOLS:
        check_run(CheckedSimulation(topo, dataclasses.replace(cfg, protocol=protocol)), cfg)


def check_lookups(table, ids) -> None:
    """`RoutingTable.entry` against a scan of the pool listed entry by entry
    (`pool_entries`), or of the members while no pool is built: each id in
    `ids` the scan finds is found as the identical object when the table
    holds it, and otherwise reads as a fresh entry and raises KeyError, as
    does an id the scan does not find. A pool holds every member as the
    identical object."""
    pool = table.jump_pool
    if pool is None:
        scanned = table.members
    else:
        scanned = pool_entries(pool)
        held = {pool.ids[i]: e for i, e in pool.held.items()}
        assert all(held[m.candidate] is m for m in table.members), table.owner
    for c in ids:
        found = [e for e in scanned if e.candidate == c]
        if found and (pool is None or held.get(c) is found[0]):
            assert table.entry(c) is found[0], (table.owner, c)
            continue
        if found:
            assert found[0] == CandidateEntry(c, pool.mu), (table.owner, c)
        with pytest.raises(KeyError):
            table.entry(c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=scenarios())
def test_table_lookups_match_a_scan_of_the_pool_or_the_members(cfg):
    """The slow twin of `RoutingTable.entry` after a DMRF run, over every id
    and two that name no node. (Drawn scenarios build pools: see the
    sink-pool test above.)"""
    sim = Simulation(deployed(cfg), dataclasses.replace(cfg, protocol=DMRF))
    sim.run()
    ids = [-1, *sim.topo.ids(), cfg.node_count]
    for table in sim.protocol.tables.values():
        check_lookups(table, ids)


def check_run(sim: CheckedSimulation, cfg) -> None:
    result = sim.run()
    sim.check()

    m = result.metrics
    assert m.injected == cfg.packet_count
    # filled at injection, with no sort: every injected packet, in id order
    assert [p.id for p in result.packets] == list(range(m.injected))
    assert m.delivered + m.expired + m.dropped_no_route + m.buffer_drops == m.injected
    for outcome in result.packets:
        if outcome.outcome == DELIVERED:
            assert outcome.finished_at <= outcome.created_at + cfg.packet_lifetime_ms
        # no packet returns to the source, so a node never queues the
        # source's own packets beside relayed ones
        assert sim.topo.source not in outcome.hop_trace[1:], outcome.hop_trace

    # events run in (time, seq) order, and each injection takes the seq
    # reserved for it: they rise with the packet id
    keys = [(event.time, event.seq) for event in result.trace]
    assert keys == sorted(keys)
    injects = sorted((e.packet, e.seq) for e in result.trace if e.kind == "PACKET_INJECT")
    seqs = [seq for _packet, seq in injects]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))
    # one trace line per event, and the per-event checks ran once per event
    assert sim.events == len(result.trace)
    # a probe round sends one frame per probe link of a live prober, and
    # every other control frame is one FEEDBACK_DELIVERY
    probes = sum(e.kind == "PROBE" for e in result.trace)
    feedbacks = sum(e.kind == "FEEDBACK_DELIVERY" for e in result.trace)
    links = sum(len(table.members) for n, table in sim.tables.items() if n in sim._live)
    assert m.control_packets == probes * links + feedbacks


def line(count: int) -> Topology:
    """`count` nodes 1 m apart, source first and sink last, each hearing only
    its neighbours: every packet waits in the queue of every relay it
    passes."""
    return Topology(nodes=[(i, (float(i), 0.0)) for i in range(count)],
                    comm_radius=1.5, max_tx_distance=30.0,
                    source=0, sink=count - 1)


@st.composite
def relay_jams(draw):
    """A line and a config under which its relays queue: packets come about
    as fast as a hop drains them, hop delays are noisy, so relay queues grow
    and shrink as in a tandem queue, and lifetimes of 0.5 to 3 times the
    line's mean crossing time run out in them. Faults cut the line, and a
    DMRF relay stalls on a dead or full next hop until it counts its
    `misses_to_faulty`."""
    count = draw(st.integers(3, 10))
    mu = ScenarioConfig().mean_hop_delay_ms
    cfg = from_dict({
        "preset": "table2",
        "node_count": count,
        "region": [count - 1.0, 1.0],
        "packet_count": draw(st.integers(5, 20)),
        "injection_period_ms": _value(draw, 0.5, 1.5) * mu,
        "packet_lifetime_ms": _value(draw, 0.5, 3.0) * (count - 1) * mu,
        "sigma_factor": _value(draw, 0.2, 1.0),
        "buffer_bytes": draw(st.sampled_from([64, 100, 200])),
        "fault_ratio": draw(st.one_of(st.just(0.0), st.floats(0.1, 0.4))),
        "misses_to_faulty": draw(st.integers(1, 6)),
        "ack_timeout_ms": _value(draw, 0.5, 4.0),
        "seed": draw(st.integers(0, 2**31 - 1)),
    })
    return line(count), cfg


@settings(max_examples=100, deadline=None, derandomize=True)
@given(jam=relay_jams())
def test_engine_invariants_hold_on_lines_whose_relays_queue(jam):
    topo, cfg = jam
    for protocol in PROTOCOLS:
        check_run(CheckedSimulation(topo, dataclasses.replace(cfg, protocol=protocol)), cfg)


def test_the_drawn_lines_expire_packets_queued_at_relays_at_their_deadline_checks():
    """The line property reaches the DEADLINE_CHECK path that expires a
    relayed packet still waiting in a relay's queue, where its buffer space
    must be freed: some drawn line takes it."""
    def expires_at_a_relay(jam):
        topo, cfg = jam
        sim = CheckedSimulation(topo, cfg)
        sim.run()
        return sim.relayed_expired_at_check > 0

    # raises NoSuchExample when no drawn line takes the path
    find(relay_jams(), expires_at_a_relay,
         settings=settings(max_examples=100, derandomize=True, database=None))


def gapped_line(before: int, gap: float, after: int) -> Topology:
    """`before` nodes 1 m apart from the source, a gap of `gap` m, then
    `after` nodes 1 m apart ending at the sink. Every node hears only its
    neighbours on either side of the gap, so the node just before the gap has
    no forward candidate and is born VOID: a void next to the prober behind
    it, which learns so from its probe replies."""
    xs = [float(i) for i in range(before)]
    xs += [xs[-1] + gap + i for i in range(after)]
    return Topology(nodes=list(enumerate((x, 0.0) for x in xs)), comm_radius=1.5,
                    max_tx_distance=30.0, source=0, sink=len(xs) - 1)


@st.composite
def void_lines(draw):
    """A gapped line and a config under which packets reach the prober in
    front of the void: the jump radio crosses the gap, and faults, when
    drawn, may cut the line."""
    before, after = draw(st.integers(3, 7)), draw(st.integers(1, 5))
    gap = _value(draw, 1.6, 8.0)
    count = before + after
    mu = ScenarioConfig().mean_hop_delay_ms
    cfg = from_dict({
        "preset": "table2",
        "node_count": count,
        "region": [count + gap, 1.0],
        "packet_count": draw(st.integers(1, 15)),
        "injection_period_ms": _value(draw, 0.5, 10.0),
        "packet_lifetime_ms": _value(draw, 0.5, 4.0) * (count - 1) * mu,
        "probe_period_ms": draw(st.sampled_from([1.0, 2.0, 5.0, 10.0])),
        "sigma_factor": _value(draw, 0.0, 1.0),
        "fault_ratio": draw(st.one_of(st.just(0.0), st.floats(0.1, 0.4))),
        "seed": draw(st.integers(0, 2**31 - 1)),
    })
    return gapped_line(before, gap, after), cfg


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=void_lines())
def test_engine_invariants_hold_on_lines_with_a_void(case):
    topo, cfg = case
    for protocol in PROTOCOLS:
        check_run(CheckedSimulation(topo, dataclasses.replace(cfg, protocol=protocol)), cfg)


def test_the_drawn_void_lines_check_the_cached_state_of_a_void_report():
    """The gapped-line property checks the receiver's cache after a VOID
    report: some drawn line delivers one."""
    def delivers_a_void_report(case):
        topo, cfg = case
        sim = CheckedSimulation(topo, dataclasses.replace(cfg, protocol=DMRF))
        sim.run()
        return STATE_VOID in sim.reports

    # raises NoSuchExample when no drawn line delivers a VOID report
    find(void_lines(), delivers_a_void_report,
         settings=settings(max_examples=100, derandomize=True, database=None))


class TwinDrawSimulation(Simulation):
    """A DMRF run whose every jump draw is checked against its slow twin.

    Before the draw the pool is listed entry by entry, and the draw as first
    written (`reference_jump_target`) runs on that list with a copy of the
    run's generator. The run's own draw must pick the same target and leave
    the generator in the same state; then every pool id and a few others
    must look up as a scan of the listed pool finds them. `mixed` counts the
    draws over a pool holding an entry that is not cached NORMAL or whose
    `suc` is not 1.0."""

    def __init__(self, topo, cfg) -> None:
        super().__init__(topo, dataclasses.replace(cfg, protocol=DMRF))
        self.mixed = 0
        protocol = self.protocol
        jump = protocol._jump

        def twinned(table, rng):
            protocol.ensure_jump_entries(table)
            listed = pool_entries(table.jump_pool)
            twin_rng = random.Random()
            twin_rng.setstate(rng.getstate())
            expected = reference_jump_target(listed, twin_rng)
            decision = jump(table, rng)
            assert (decision.next if type(decision) is Jump else None) == expected, table.owner
            assert rng.getstate() == twin_rng.getstate(), table.owner
            check_lookups(table, [-1, *table.jump_pool.ids, table.owner])
            self.mixed += any(e.cached_state is not STATE_NORMAL or e.suc != 1.0
                              for e in table.jump_pool.held.values())
            return decision

        protocol._jump = twinned


#: every drawn case as (topology, config): the scenarios, the lines whose
#: relays queue and the lines with a void
DRAWN_CASES = st.one_of(scenarios().map(lambda cfg: (deployed(cfg), cfg)), relay_jams(),
                        void_lines())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=DRAWN_CASES)
def test_every_jump_draws_as_the_reference_draws_over_the_listed_pool(case):
    """The jump pools' slow twin, `TwinDrawSimulation`, over every drawn
    case."""
    topo, cfg = case
    TwinDrawSimulation(topo, cfg).run()


def test_the_drawn_cases_check_draws_over_pools_of_touched_entries():
    """The twin above checks draws whose pool holds an entry that reads
    unlike a fresh one, where a wrong reading of held or untouched entries
    would show: some drawn case makes one."""
    def draws_over_a_touched_pool(case):
        sim = TwinDrawSimulation(*case)
        sim.run()
        return sim.mixed > 0

    # raises NoSuchExample when no drawn case draws over such a pool
    find(DRAWN_CASES, draws_over_a_touched_pool,
         settings=settings(max_examples=100, derandomize=True, database=None))


def test_a_control_frame_to_a_relay_dead_mid_run_fails_the_receiver_check():
    """The receiver check bites on its own: once a relay has carried data,
    drop it from `_live` with no FAULT_ONSET and have its receiver warn it
    of congestion. The frame's delivery fails the check."""
    cfg = from_dict({"preset": "table2", "node_count": 25, "comm_radius": 7.5,
                     "packet_count": 5, "seed": 5})
    frames = []

    class Killing(CheckedSimulation):
        def _on_arrival(self, sender_id, now):
            receiver = self.nodes[sender_id].pending[1].next
            super()._on_arrival(sender_id, now)
            if not frames and sender_id != self.topo.source and receiver in self._live:
                frames.append((FeedbackMessage(kind=STATE_CONG), receiver, sender_id))
                self._live.discard(sender_id)
                self.protocol._notify_congestion(self.tables[receiver], sender_id, now)

    sim = Killing(deployed(cfg), cfg)
    with pytest.raises(AssertionError) as failure:
        sim.run()
    [(_msg, _receiver, victim)] = frames
    assert sim.nodes[victim].tx > 0
    assert str(failure.value).startswith(repr(frames[0]))


class CachePricedSimulation(Simulation):
    """The probe layout's slow twin: every probe frame is priced through
    `_price`, so each prober's price cache holds its probe links, as it did
    before the layout priced them itself."""

    def __init__(self, topo, cfg) -> None:
        super().__init__(topo, cfg)
        protocol = self.protocol
        lay_out = protocol._lay_out_probes

        def priced() -> tuple:
            _joules, *rest = lay_out()
            joules = [self._price(self.record(table.owner), entry.candidate, CONTROL_FRAME_BITS)
                      for table in protocol._probers for entry in table.members]
            return joules, *rest

        protocol._lay_out_probes = priced


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=scenarios())
def test_the_probe_layout_prices_each_link_as_the_price_cache_does(cfg):
    cfg = dataclasses.replace(cfg, protocol=DMRF)
    topo = deployed(cfg)
    sim = Simulation(topo, cfg)
    result = sim.run()
    if sim.protocol._layout is not None:
        joules = sim.protocol._layout[0]
        links = [(table.owner, entry.candidate)
                 for table in sim.protocol._probers for entry in table.members]
        assert len(joules) == len(links)
        for price, (prober, peer) in zip(joules, links):
            assert price == CONTROL_FRAME_BITS * energy_cost(cfg, topo.distance(prober, peer), 1)
        # equal prices are one float object
        assert len({id(price) for price in joules}) == len(set(joules))
    twin = CachePricedSimulation(topo, cfg).run()
    assert twin.metrics.energy_total_j == result.metrics.energy_total_j
    assert twin.metrics == result.metrics
    assert twin.packets == result.packets
    assert twin.transitions == result.transitions


class EagerRecordsSimulation(Simulation):
    """The slow twin of records made on a node's first packet: every node's
    record is built at set-up, in id order, and each relay's buffer preloaded
    to the standing fill, as every run once built them. So no arrival ever
    makes a record and every idle prober's first timeout reads its own."""

    def __init__(self, topo, cfg, collect_trace=False) -> None:
        super().__init__(topo, cfg, collect_trace)
        preload = cfg.buffer_fill * cfg.buffer_bytes
        self.nodes = {nid: _NodeRuntime(nid, nid == topo.sink,
                                        0.0 if nid in (topo.source, topo.sink) else preload)
                      for nid in topo.ids()}
        self._source = self.nodes[topo.source]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=scenarios())
def test_records_made_on_first_reach_match_records_made_at_set_up(cfg):
    """Every protocol gives the same run whether a node's record is made at
    set-up or on the first packet that reaches it: equal metrics, the energy
    total to the bit and per-node transmissions in id order, equal packets
    (outcomes, finish times, hop traces), transitions and trace. A node no
    packet reached has no record."""
    topo = deployed(cfg)
    for protocol in PROTOCOLS:
        base = dataclasses.replace(cfg, protocol=protocol)
        sim = Simulation(topo, base, collect_trace=True)
        lazy = sim.run()
        eager_sim = EagerRecordsSimulation(topo, base, collect_trace=True)
        eager = eager_sim.run()
        assert len(eager_sim.nodes) == len(topo.ids())
        reached = {topo.source}.union(*(p.hop_trace for p in lazy.packets))
        assert reached <= sim.nodes.keys() <= set(topo.ids())
        assert lazy.metrics.energy_total_j == eager.metrics.energy_total_j
        assert lazy.metrics == eager.metrics
        assert list(lazy.metrics.per_node_tx) == sorted(eager.metrics.per_node_tx)
        assert list(eager.metrics.per_node_tx) == sorted(eager.metrics.per_node_tx)
        assert [p.finished_at for p in lazy.packets] == [p.finished_at for p in eager.packets]
        assert lazy.packets == eager.packets
        assert lazy.transitions == eager.transitions
        assert lazy.trace == eager.trace


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=scenarios())
def test_runs_on_a_warm_topology_match_runs_on_a_fresh_one(cfg):
    """The topology memos' slow twin: every protocol runs in turn on one
    topology, whose cached tables the earlier runs built, and each run equals
    the same config on a freshly deployed topology."""
    warm = deployed(cfg)
    for protocol in PROTOCOLS:
        base = dataclasses.replace(cfg, protocol=protocol)
        shared = run(warm, base, collect_trace=True)
        fresh = run(deployed(base), base, collect_trace=True)
        assert {"sink_distances", "sink_hops", "_neighbor_lists", "_sorted_ids"} <= vars(
            warm).keys()
        # DMRF, the first protocol, derived every relay's forward set; a
        # void, when there is one, was scanned once
        assert warm._forward_sets.keys() == set(warm.ids()) - {warm.sink}
        assert len(warm._voids) == (cfg.void_radius > 0)
        assert shared.metrics.energy_total_j == fresh.metrics.energy_total_j
        assert shared.metrics == fresh.metrics
        assert shared.packets == fresh.packets
        assert shared.transitions == fresh.transitions
        assert shared.trace == fresh.trace


@pytest.mark.parametrize("seed", [1, 3, 7])
@pytest.mark.parametrize("protocol", [p for p in PROTOCOLS if p != DMRF])
def test_a_static_baseline_without_noise_takes_mu_per_hop(protocol, seed):
    """With `sigma_factor` 0 every draw is `mu`, and on the clean, uncongested
    table2 grid a static baseline neither queues nor retries: each delivered
    packet takes hops x `mu`, up to the rounding of the sums along its way."""
    cfg = from_dict({"preset": "table2", "sigma_factor": 0.0, "seed": seed,
                     "protocol": protocol})
    result = run(deployed(cfg), cfg)
    assert result.metrics.delivered == result.metrics.injected == cfg.packet_count
    mu = cfg.mean_hop_delay_ms
    for packet in result.packets:
        hops = len(packet.hop_trace) - 1
        delay = packet.finished_at - packet.created_at
        assert math.isclose(delay, hops * mu, rel_tol=1e-12), (packet.id, delay, hops)


#: powers of two, so that scaling by k rounds exactly as the unscaled value
SCALES = (2.0, 0.5)
MS_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.name.endswith("_ms")]


def time_scaled(cfg, k):
    return validate(dataclasses.replace(
        cfg, bandwidth_kbps=cfg.bandwidth_kbps / k,
        **{name: getattr(cfg, name) * k for name in MS_FIELDS}))


def space_scaled(cfg, k):
    (w, h), (cx, cy) = cfg.region, cfg.void_center
    return validate(dataclasses.replace(
        cfg, region=(w * k, h * k), comm_radius=cfg.comm_radius * k,
        max_tx_distance=cfg.max_tx_distance * k, void_center=(cx * k, cy * k),
        void_radius=cfg.void_radius * k,
        energy_amp_j_per_bit_m2=cfg.energy_amp_j_per_bit_m2 / (k * k)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=scenarios())
def test_scaling_time_scales_every_time_and_changes_nothing_else(cfg):
    topo = deployed(cfg)
    for protocol in PROTOCOLS:
        base = dataclasses.replace(cfg, protocol=protocol)
        plain = run(topo, base)
        for k in SCALES:
            scaled = run(topo, time_scaled(base, k))
            assert [(p.outcome, p.hop_trace) for p in scaled.packets] == [
                (p.outcome, p.hop_trace) for p in plain.packets]
            assert [(p.created_at, p.finished_at) for p in scaled.packets] == [
                (p.created_at * k, p.finished_at * k) for p in plain.packets]
            assert scaled.transitions == [
                (t * k, node, old, new) for t, node, old, new in plain.transitions]
            assert scaled.metrics == dataclasses.replace(
                plain.metrics, mean_delay_ms=plain.metrics.mean_delay_ms * k,
                p95_delay_ms=plain.metrics.p95_delay_ms * k)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=scenarios())
def test_scaling_space_changes_nothing(cfg):
    topo = deployed(cfg)
    for protocol in PROTOCOLS:
        base = dataclasses.replace(cfg, protocol=protocol)
        plain = run(topo, base)
        for k in SCALES:
            moved = space_scaled(base, k)
            scaled = run(deployed(moved), moved)
            assert scaled.packets == plain.packets
            assert scaled.transitions == plain.transitions
            assert scaled.metrics == plain.metrics
