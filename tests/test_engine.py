"""Unit tests for the event engine: hop delay and energy, fault/congestion staging,
packet accounting, and determinism."""

import ast
import collections
import dataclasses
import decimal
import fractions
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dmrfsim

from dmrfsim.config import (
    CONTROL_FRAME_BITS,
    DMRF,
    GREEDY_MIN_DELAY,
    PROTOCOLS,
    ScenarioConfig,
    validate,
)
from dmrfsim.engine import (
    BUFFER_DROP,
    DELIVERED,
    DROPPED_NO_ROUTE,
    EVENT_KINDS,
    EXPIRED,
    FEEDBACK_DELIVERY,
    PACKET_ARRIVAL,
    Simulation,
    _NV_MAGICCONST,
    _SQUEEZE,
    energy_cost,
    inject_faults,
    run,
    sample_delay,
)
from dmrfsim.model import (
    FB_JUMP_FAIL,
    PROBE_TIMEOUT,
    RATE_MEDIUM,
    STATE_CONG,
    STATE_FAULTY,
    STATE_JCONG,
    STATE_NORMAL,
    FeedbackMessage,
    InvariantError,
    make_packet,
)
from dmrfsim.protocol import Forward, Jump
from dmrfsim.topology import UNIFORM_GRID, Topology, carve_void, deploy


def line_topo(length, spacing=1.0, comm_radius=1.5, max_tx=30.0):
    nodes = [(i, (i * spacing, 0.0)) for i in range(length)]
    return Topology(
        nodes=nodes,
        comm_radius=comm_radius,
        max_tx_distance=max_tx,
        source=0,
        sink=length - 1,
    )


def small_cfg(**overrides):
    base = dict(
        node_count=3,
        region=(2.0, 1.0),
        comm_radius=1.5,
        packet_count=5,
        injection_period_ms=5.0,
    )
    base.update(overrides)
    return validate(ScenarioConfig(**base))


# ----------------------------------------------------------------------
# hop delay and energy


def test_simulation_scales_sigma_from_config():
    sim = Simulation(line_topo(3), small_cfg(seed=1))
    assert sim.mu == pytest.approx(1.28)
    assert sim.sigma == pytest.approx(0.15 * sim.mu)


def test_sample_delay_respects_floor_and_mean():
    rng = random.Random(7)
    samples = list(itertools.islice(sample_delay(1.28, 0.192, rng), 20000))
    assert min(samples) >= 1.28 / 10
    assert sum(samples) / len(samples) == pytest.approx(1.28, abs=0.01)


def test_sample_delay_is_seed_deterministic():
    a = list(itertools.islice(sample_delay(1.28, 0.192, random.Random(3)), 5))
    b = list(itertools.islice(sample_delay(1.28, 0.192, random.Random(3)), 5))
    assert a == b


def _normalvariate_delay(mu, sigma, rng, below_floor):
    """The delay as drawn through the stdlib: normalvariate, resampled
    while under the mu / 10 floor."""
    while True:
        value = rng.normalvariate(mu, sigma)
        if value >= mu / 10.0:
            return value
        below_floor.append(value)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("sigma_factor", [0.15, 1.0])
def test_sample_delay_matches_normalvariate_bit_for_bit(seed, sigma_factor):
    """A data hop takes one delay with `next()` and a probe round a chunk with
    `islice`. Either way the values are the stdlib's and the stream stops
    where the stdlib stops: it never draws ahead of what was taken."""
    mu = 1.28
    sigma = sigma_factor * mu
    ours, stdlib = random.Random(seed), random.Random(seed)
    delays = sample_delay(mu, sigma, ours)
    assert ours.getstate() == stdlib.getstate()
    below_floor = []
    for size in itertools.islice(itertools.cycle(range(8)), 2_500):
        assert next(delays) == _normalvariate_delay(mu, sigma, stdlib, below_floor)
        assert ours.getstate() == stdlib.getstate()
        chunk = list(itertools.islice(delays, size))
        assert chunk == [
            _normalvariate_delay(mu, sigma, stdlib, below_floor) for _ in range(size)
        ]
        assert ours.getstate() == stdlib.getstate()
    if sigma_factor == 1.0:
        # sigma = mu puts about a fifth of raw draws under the floor
        assert len(below_floor) > 1000


def test_probe_round_draws_match_normalvariate():
    """The probe round takes its samples from the run's one delay stream;
    they must be the stdlib's, floor resample included, drawn in prober id
    and FCS order over the links to live peers only. A silent peer draws
    nothing and counts one miss per accounted round. Checked on a
    clean layout, a faulted one, and a faulted one whose timeout falls on the
    next probe instant, so the timeout round runs just before that round."""
    base = dict(node_count=25, comm_radius=7.5, sigma_factor=1.0, horizon_ms=3.0, seed=5)
    layouts = {
        "clean": dict(packet_count=1),
        # a second packet due after the horizon keeps the run open until then
        "faulted": dict(packet_count=2, injection_period_ms=50.0, fault_ratio=0.3),
        "timeout-on-probe": dict(packet_count=2, injection_period_ms=50.0, fault_ratio=0.3,
                       probe_timeout_ms=2.0, probe_period_ms=2.0),
    }
    for name, overrides in layouts.items():
        cfg = validate(ScenarioConfig(**base, **overrides))
        topo = deploy(25, cfg.region, UNIFORM_GRID, rng_seed=1, comm_radius=7.5)
        sim = Simulation(topo, cfg)
        stdlib = random.Random()
        stdlib.setstate(sim.rng.getstate())
        # the round at t = 0 draws before anything else; the only timeout
        # before the 3 ms horizon falls at 2 ms, on a probe instant or not
        sim.run()
        dead = set(topo.ids()) - sim._live
        assert bool(dead) == (name != "clean"), name
        below_floor, silent = [], []
        for nid in topo.ids():
            table = sim.protocol.tables.get(nid)
            if nid in dead or table is None:
                continue
            for entry in table.members:
                if entry.candidate in dead:
                    silent.append((nid, entry))
                    continue
                sample = _normalvariate_delay(sim.mu, sim.sigma, stdlib, below_floor)
                assert entry.delay_est == 0.7 * sim.mu + 0.3 * sample, name
                assert entry.misses == 0, name
        assert below_floor, name
        # a failed data send is a miss too: count only probers that sent none
        idle = [entry for nid, entry in silent if nid not in sim.metrics.per_node_tx]
        assert bool(idle) == bool(silent) == (name != "clean"), name
        for entry in idle:
            assert entry.misses == 1, name


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_squeeze_accepts_only_what_the_log_test_accepts(seed):
    """Attempt by attempt, 4 x 60,000 of them, the squeeze never accepts what
    the log test rejects, and `sample_delay` yields exactly the attempts a
    log-only loop accepts. At mu = 100, sigma = 1 the floor never binds, so
    every accepted attempt is one value. The squeeze must also take most
    attempts, or the check would pass with a squeeze that never fires."""
    rng = random.Random(seed)
    accepted, squeezed = [], 0
    for _ in range(60_000):
        u1, r = rng.random(), rng.random()
        u2 = 1.0 - r
        z = _NV_MAGICCONST * (u1 - 0.5) / u2
        zz = z * z / 4.0
        by_log = zz <= -math.log(u2)
        by_squeeze = zz <= r * _SQUEEZE
        assert by_log or not by_squeeze, (seed, u1, r)
        squeezed += by_squeeze
        if by_log:
            accepted.append(100.0 + z)
    delays = sample_delay(100.0, 1.0, random.Random(seed))
    assert list(itertools.islice(delays, len(accepted))) == accepted
    # the squeeze takes about 62.2% of attempts, the log test about 73.1%
    assert 0.61 < squeezed / 60_000 < 0.63


def test_squeeze_bound_holds_for_this_platforms_log():
    """The squeeze is exact for any `log` within 2**-21 of the true value.
    Check that bound, and that `r * _SQUEEZE <= -log(1 - r)` with this
    platform's `math.log`, at the edges of `random()`'s range and on a
    seeded sample."""
    rng = random.Random(11)
    edges = [2.0**-53, 2.0**-40, 2.0**-21, 0.5, 1.0 - 2.0**-53]
    exact = decimal.Context(prec=40)
    margin = 1 - fractions.Fraction(1, 2**21)
    for i, r in enumerate(edges + [rng.random() for _ in range(20_000)]):
        u2 = 1.0 - r
        assert 1.0 - u2 == r  # the subtraction is exact
        assert r * _SQUEEZE <= -math.log(u2), r
        assert fractions.Fraction(r * _SQUEEZE) < r * margin, r
        if i < len(edges) or i % 40 == 0:
            true_log = exact.ln(decimal.Decimal(u2))
            error = abs(decimal.Decimal(math.log(u2)) - true_log)
            assert error <= abs(true_log) * decimal.Decimal(2) ** -21, r


def test_energy_cost_first_order_model():
    cfg = ScenarioConfig()
    # 256 bits over 10 m: 256 * (50e-9 + 100e-12 * 100) J
    assert energy_cost(cfg, 10.0, 256) == pytest.approx(1.536e-5)
    assert energy_cost(cfg, 0.0, 256) == pytest.approx(256 * 50e-9)


def test_energy_cost_rejects_out_of_range_links():
    with pytest.raises(ValueError):
        energy_cost(ScenarioConfig(), 31.0, 256)


def test_energy_cost_prices_a_link_of_exactly_the_jump_reach():
    # the reach is inclusive: a frame sent max_tx_distance is priced, and
    # the next float beyond it is out of range
    cfg = ScenarioConfig()
    reach = cfg.max_tx_distance
    assert energy_cost(cfg, reach, 256) == 256 * (
        cfg.energy_elec_j_per_bit + cfg.energy_amp_j_per_bit_m2 * reach**2)
    with pytest.raises(ValueError):
        energy_cost(cfg, math.nextafter(reach, math.inf), 256)


# ----------------------------------------------------------------------
# staging helpers


def test_inject_faults_count_and_endpoint_protection():
    topo = deploy(400, (20.0, 20.0), UNIFORM_GRID, rng_seed=1)
    ids = inject_faults(topo, 0.2, random.Random(5), [])
    # floor(0.2 * 398) relay victims
    assert len(ids) == 79
    assert topo.source not in ids and topo.sink not in ids
    assert ids == sorted(ids)


def test_inject_faults_draws_among_the_relays_left_uncarved():
    topo = deploy(25, (20.0, 20.0), UNIFORM_GRID, rng_seed=1, comm_radius=7.5)
    carved = carve_void(topo, (10.0, 10.0), 7.0)
    assert len(carved) == 5
    ids = inject_faults(topo, 0.2, random.Random(5), carved)
    # floor(0.2 * 18) victims, drawn from the 18 uncarved relays in id order
    pool = [n for n in topo.ids() if n not in (topo.source, topo.sink, *carved)]
    assert ids == sorted(random.Random(5).sample(pool, 3))


@pytest.mark.parametrize("ratio", [0.0, 0.05])
def test_inject_faults_with_no_victim_draws_nothing(ratio):
    topo = deploy(25, (20.0, 20.0), UNIFORM_GRID, rng_seed=1, comm_radius=7.5)
    carved = carve_void(topo, (10.0, 10.0), 7.0)
    assert math.floor(ratio * 18) == 0  # 18 uncarved relays: too few for a victim
    rng = random.Random(5)
    before = rng.getstate()
    assert inject_faults(topo, ratio, rng, carved) == []
    assert rng.getstate() == before


def test_inject_faults_draws_one_victim_as_sample_does():
    topo = deploy(25, (20.0, 20.0), UNIFORM_GRID, rng_seed=1, comm_radius=7.5)
    carved = carve_void(topo, (10.0, 10.0), 7.0)
    pool = [n for n in topo.ids() if n not in (topo.source, topo.sink, *carved)]
    rng, twin = random.Random(5), random.Random(5)
    # floor(0.06 * 18) = 1: the smallest count that draws
    assert inject_faults(topo, 0.06, rng, carved) == twin.sample(pool, 1)
    assert rng.getstate() == twin.getstate()


def test_inject_faults_is_seed_deterministic():
    topo = deploy(100, (10.0, 10.0), UNIFORM_GRID, rng_seed=1)
    assert inject_faults(topo, 0.3, random.Random(9), []) == inject_faults(
        topo, 0.3, random.Random(9), []
    )
    with pytest.raises(ValueError):
        inject_faults(topo, 1.2, random.Random(1), [])


def test_a_relay_record_starts_at_the_standing_preload():
    # the source and the sink hold no preload; a relay's record is made on
    # its first packet and starts at buffer_fill * buffer_bytes
    sim = Simulation(line_topo(4), small_cfg(node_count=4, region=(3.0, 1.0),
                                             buffer_fill=0.4, buffer_bytes=100))
    assert list(sim.nodes) == [0]
    assert [sim.record(nid).buffer_used for nid in (0, 1, 2, 3)] == [0.0, 40.0, 40.0, 0.0]
    assert [sim.standing_level(nid) for nid in (0, 1, 2, 3)] == [0.0, 40.0, 40.0, 0.0]
    assert sim.record(1) is sim.nodes[1]


# ----------------------------------------------------------------------
# end-to-end runs


def test_line_run_delivers_everything():
    topo = line_topo(3)
    result = run(topo, small_cfg(seed=1))
    m = result.metrics
    assert m.injected == 5
    assert m.delivered == 5
    assert m.terminal_total == m.injected
    assert m.mean_delay_ms > 0
    assert m.energy_total_j > 0
    for outcome in result.packets:
        assert outcome.outcome == DELIVERED
        assert outcome.hop_trace[0] == topo.source
        assert outcome.hop_trace[-1] == topo.sink


def test_runs_are_seed_reproducible():
    topo = line_topo(5)
    cfg = small_cfg(node_count=5, region=(4.0, 1.0))
    a = run(topo, dataclasses.replace(cfg, seed=11))
    b = run(topo, dataclasses.replace(cfg, seed=11))
    c = run(topo, dataclasses.replace(cfg, seed=12))
    assert a.metrics == b.metrics
    assert a.packets == b.packets
    assert a.metrics != c.metrics


def test_unreachable_sink_without_jump_range_drops_no_route():
    # 40 m gap: no neighbors, and the sink is beyond the 30 m jump range
    topo = line_topo(2, spacing=40.0)
    cfg = small_cfg(node_count=2, region=(40.0, 1.0), packet_count=3, seed=1)
    result = run(topo, cfg)
    assert result.metrics.dropped_no_route == 3
    assert result.metrics.terminal_total == 3


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_relay_on_the_sink_position_runs_to_the_end(protocol):
    """Relay 1 sits where the sink does: no node is strictly closer to the
    sink than it, so it has no forward candidate and an empty jump pool.
    DMRF drops the packet it relays for want of a route; no protocol
    fails the run."""
    topo = Topology(
        nodes=[(0, (0.0, 0.0)), (1, (1.0, 0.0)), (2, (1.0, 0.0))],
        comm_radius=1.5, max_tx_distance=30.0, source=0, sink=2,
    )
    result = run(topo, small_cfg(protocol=protocol, region=(1.0, 1.0), seed=1))
    m = result.metrics
    assert m.injected == m.terminal_total == 5
    if protocol == DMRF:
        relayed = [p for p in result.packets if p.hop_trace[-1] == 1]
        assert relayed and all(p.outcome == DROPPED_NO_ROUTE for p in relayed)
        assert m.dropped_no_route == len(relayed)


def test_tight_lifetime_expires_packets():
    topo = line_topo(3)
    cfg = small_cfg(packet_count=3, packet_lifetime_ms=1.0, seed=2)
    result = run(topo, cfg)
    m = result.metrics
    assert m.delivered == 0
    assert m.expired == 3
    assert m.terminal_total == m.injected


def line_sim(protocol):
    """A run on the 4-node line 0 - 1 - 2 - 3, nothing moved yet."""
    return Simulation(line_topo(4), small_cfg(node_count=4, region=(3.0, 1.0), protocol=protocol))


def held_at(sim, node_id, *lifetimes):
    """Packets made at time 0, one per lifetime, queued at `node_id` in that
    order; at a relay each took its buffer space, as a relay arrival does."""
    node = sim.record(node_id)
    packets = []
    for lifetime in lifetimes:
        packet = make_packet(sim.topo.source, now=0.0, lifetime=lifetime, packet_id=len(sim.packets))
        if node_id != sim.topo.source:
            packet.hop_trace.append(node_id)
            node.buffer_used += sim.cfg.packet_bytes
        sim.metrics.injected += 1
        sim.packets.append(packet)
        sim._open[packet.id] = packet
        node.queue.append(packet)
        packets.append(packet)
    return packets


def sent(sim, sender_id, target):
    """The Forward that put a packet on the air from `sender_id` to
    `target`, as `_try_start` keeps it pending: in a DMRF run it carries the
    sender's member entry for `target`, in a baseline's none."""
    table = getattr(sim.protocol, "tables", {}).get(sender_id)
    return Forward(target, RATE_MEDIUM, None if table is None else table.entry(target))


@pytest.mark.parametrize("late", [0.0, 3.0], ids=["at", "past"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_head_packet_at_or_past_its_deadline_expires_at_dequeue(protocol, late):
    # whatever the protocol, the head expires at dequeue and frees its buffer
    # space, and the packet behind it starts with no stall carried over
    sim = line_sim(protocol)
    relay = sim.record(1)
    preload = relay.buffer_used
    expired, fresh = held_at(sim, 1, 10.0, 100.0)
    now = expired.deadline + late
    sim._try_start(relay, now, stall=1000.0)
    assert (expired.outcome, expired.finished_at) == (EXPIRED, now)
    assert sim.metrics.expired == 1
    assert relay.queue == [fresh] and relay.pending[0] is fresh and relay.tx == 1
    assert relay.buffer_used == preload + sim.cfg.packet_bytes
    [arrival] = [t for t, _seq, kind, _a in sim._heap if kind == PACKET_ARRIVAL]
    assert arrival < now + 1000.0


def test_a_packet_behind_a_busy_head_expires_at_its_deadline_check():
    sim = line_sim(GREEDY_MIN_DELAY)
    relay = sim.record(1)
    preload = relay.buffer_used
    head, behind = held_at(sim, 1, 100.0, 10.0)
    sim._try_start(relay, 0.0, stall=50.0)  # the head is on the air past 50 ms
    sim._on_deadline(behind, behind.deadline)
    assert (behind.outcome, behind.finished_at) == (EXPIRED, behind.deadline)
    assert relay.queue == [head] and relay.pending[0] is head and head.outcome is None
    assert relay.buffer_used == preload + sim.cfg.packet_bytes


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_relay_arrival_past_the_deadline_expires(protocol):
    # relay 1 is busy: a late packet it took would wait in its queue
    sim = line_sim(protocol)
    source, relay = sim.nodes[0], sim.record(1)
    preload = relay.buffer_used
    [head] = held_at(sim, 1, 100.0)
    sim._try_start(relay, 0.0, stall=50.0)
    [late] = held_at(sim, 0, 10.0)
    source.pending = (late, sent(sim, 0, 1))
    sim._on_arrival(0, late.deadline + 1.0)
    assert (late.outcome, late.finished_at) == (EXPIRED, late.deadline + 1.0)
    assert late.hop_trace == [0] and source.queue == []
    assert relay.queue == [head] and relay.buffer_used == preload + sim.cfg.packet_bytes


# the three boundaries below are inclusive: each flipped comparison fails one


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_sink_arrival_at_the_deadline_is_delivered(protocol):
    sim = line_sim(protocol)
    relay = sim.record(2)
    [packet] = held_at(sim, 2, 10.0)
    relay.pending = (packet, sent(sim, 2, 3))
    sim._on_arrival(2, packet.deadline)
    assert (packet.outcome, packet.finished_at) == (DELIVERED, packet.deadline)
    assert packet.hop_trace == [0, 2, 3] and sim.metrics.delivered == 1


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_relay_arrival_at_the_deadline_is_taken_in(protocol):
    # relay 1 is busy, so the packet it takes waits in its queue
    sim = line_sim(protocol)
    source, relay = sim.nodes[0], sim.record(1)
    preload = relay.buffer_used
    [head] = held_at(sim, 1, 100.0)
    sim._try_start(relay, 0.0, stall=50.0)
    [packet] = held_at(sim, 0, 10.0)
    source.pending = (packet, sent(sim, 0, 1))
    sim._on_arrival(0, packet.deadline)
    assert packet.outcome is None and packet.hop_trace == [0, 1]
    assert relay.queue == [head, packet]
    assert relay.buffer_used == preload + 2 * sim.cfg.packet_bytes


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_relay_buffer_filled_to_capacity_accepts_the_packet(protocol):
    sim = line_sim(protocol)
    source, relay = sim.nodes[0], sim.record(1)
    relay.buffer_used = float(sim.cfg.buffer_bytes - sim.cfg.packet_bytes)
    [packet] = held_at(sim, 0, 100.0)
    source.pending = (packet, sent(sim, 0, 1))
    sim._on_arrival(0, 1.0)
    assert packet.outcome is None and packet.hop_trace == [0, 1]
    assert relay.buffer_used == sim.cfg.buffer_bytes and sim.metrics.buffer_drops == 0


def test_horizon_cut_expires_in_flight_packets():
    topo = line_topo(3)
    cfg = small_cfg(packet_count=3, horizon_ms=0.5, seed=3)
    result = run(topo, cfg)
    m = result.metrics
    # only the first injection fires before the horizon
    assert m.injected == 1
    assert m.expired == 1
    assert m.terminal_total == m.injected


def test_horizon_cut_expires_queued_and_in_flight_packets_once():
    # a hop takes about 1.28 ms: at the 0.5 ms horizon packet 0 is still on
    # its first hop and packets 1 and 2 wait in the source's queue
    topo = line_topo(3)
    cfg = small_cfg(packet_count=3, injection_period_ms=0.1, horizon_ms=0.5, seed=3)
    result = run(topo, cfg, collect_trace=True)
    kinds = [e.kind for e in result.trace]
    assert kinds.count("PACKET_INJECT") == 3
    assert "PACKET_ARRIVAL" not in kinds
    assert [(o.id, o.outcome) for o in result.packets] == [
        (0, EXPIRED), (1, EXPIRED), (2, EXPIRED)
    ]
    assert {o.finished_at for o in result.packets} == {result.trace[-1].time}
    m = result.metrics
    tally = collections.Counter(o.outcome for o in result.packets)
    assert (m.delivered, m.expired, m.dropped_no_route, m.buffer_drops) == (
        tally[DELIVERED], tally[EXPIRED], tally[DROPPED_NO_ROUTE], tally[BUFFER_DROP]
    )
    assert m.terminal_total == m.injected == 3
    assert m.mean_delay_ms == 0.0


def test_injections_are_scheduled_one_at_a_time():
    # a million packets, but the horizon falls after the eleventh injection
    # instant (0, 5, ..., 50 ms): only those are ever scheduled
    sim = Simulation(line_topo(3), small_cfg(packet_count=1_000_000, horizon_ms=50.0, seed=2))
    assert len(sim._heap) <= 3
    result = sim.run()
    assert result.metrics.injected == 11
    assert result.metrics.terminal_total == 11


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_an_unvalidated_zero_packet_run_pops_no_event(protocol):
    # validate() refuses a count of 0; built around it, the run ends at its
    # first end test, before the injection scheduled at set-up pops
    cfg = dataclasses.replace(small_cfg(protocol=protocol, seed=1), packet_count=0)
    result = run(line_topo(3), cfg, collect_trace=True)
    assert result.trace == [] and result.packets == []
    assert result.metrics.injected == result.metrics.terminal_total == 0


def test_finishing_a_packet_twice_raises():
    sim = Simulation(line_topo(3), small_cfg(seed=1))
    sim._on_inject(0, 0.0)
    packet = sim.nodes[0].pending[0]
    sim._finalize(packet, EXPIRED, 0.0)
    with pytest.raises(InvariantError, match="packet 0 finished twice"):
        sim._finalize(packet, EXPIRED, 0.0)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_lost_packet_count_raises_an_invariant_error(protocol):
    # a real raise, not an assert: python -O keeps it (see the CI workflow)
    class Uncounted(Simulation):
        """Finishes packet 0 without counting its outcome."""

        def _finalize(self, packet, outcome, now):
            if packet.id == 0:
                del self._open[packet.id]
                packet.outcome, packet.finished_at = outcome, now
            else:
                super()._finalize(packet, outcome, now)

    sim = Uncounted(line_topo(3), small_cfg(packet_count=5, protocol=protocol, seed=1))
    with pytest.raises(InvariantError, match="conservation violated: 4 terminal vs 5 injected"):
        sim.run()


def test_full_relay_buffer_drops_blind_sender_packets():
    topo = line_topo(3)
    cfg = small_cfg(
        protocol=GREEDY_MIN_DELAY,
        buffer_fill=1.0,
        buffer_bytes=32,
        packet_count=4,
        seed=4,
    )
    result = run(topo, cfg)
    m = result.metrics
    assert m.buffer_drops == 4
    assert m.delivered == 0


def test_full_relay_buffer_is_routed_around_by_retry():
    # same scenario: the acknowledging protocol keeps the packet, learns the
    # relay is congested, and jumps past it
    topo = line_topo(3)
    cfg = small_cfg(buffer_fill=1.0, buffer_bytes=32, packet_count=4, seed=4)
    result = run(topo, cfg)
    m = result.metrics
    assert m.buffer_drops == 0
    assert m.delivered == 4


def test_dead_relay_is_routed_around():
    # 0 - 1 - 2 - 3 line with a parallel detour above
    positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0),
                 (1.0, 1.0), (2.0, 1.0)]
    topo = Topology(
        nodes=[(i, p) for i, p in enumerate(positions)],
        comm_radius=1.5,
        max_tx_distance=30.0,
        source=0,
        sink=3,
    )
    cfg = small_cfg(node_count=6, region=(3.0, 1.0), fault_ratio=0.0, seed=5)
    baseline = run(topo, cfg)
    assert baseline.metrics.delivered == 5

    # kill the straight-line relays via a thin void over (1.5, 0)
    cfg_void = small_cfg(
        node_count=6,
        region=(3.0, 1.0),
        void_center=(1.5, 0.0),
        void_radius=0.75,
        seed=5,
    )
    result = run(topo, cfg_void)
    assert result.metrics.delivered == 5
    for outcome in result.packets:
        assert 1 not in outcome.hop_trace[1:] or outcome.hop_trace[-1] == topo.sink
    # the kill shows up in the transition record
    assert any(new is STATE_FAULTY for _, _, _, new in result.transitions)


def test_trace_collection_orders_events():
    topo = line_topo(3)
    result = run(topo, small_cfg(seed=6), collect_trace=True)
    assert result.trace, "expected a non-empty event trace"
    times = [e.time for e in result.trace]
    assert times == sorted(times)
    assert all(e.kind in EVENT_KINDS for e in result.trace)
    kinds = {e.kind for e in result.trace}
    assert {"PACKET_INJECT", "PACKET_ARRIVAL", "PROBE"} <= kinds


def test_a_round_with_no_prober_alive_is_traced_once_and_stops_probing():
    """Both probers, relays 1 and 2, are faulted at time 0: the first round
    is traced, finds no prober alive and schedules nothing more, not even
    its timeout. The source, with no neighbour in range, jumps straight to
    the sink."""
    topo = Topology(
        nodes=[(0, (0.0, 0.0)), (1, (10.0, 0.0)), (2, (11.0, 0.0)), (3, (12.0, 0.0))],
        comm_radius=1.5, max_tx_distance=30.0, source=0, sink=3)
    cfg = small_cfg(node_count=4, region=(12.0, 1.0), packet_count=3, fault_ratio=1.0)
    result = run(topo, cfg, collect_trace=True)
    probes = [(e.time, e.kind, e.node) for e in result.trace if e.kind.startswith("PROBE")]
    assert probes == [(0.0, "PROBE", None)]
    assert result.metrics.control_packets == 0
    assert result.metrics.delivered == 3
    assert all(p.hop_trace == [0, 3] for p in result.packets)


@pytest.mark.parametrize("k", [1, 2])
def test_a_timeout_on_a_probe_instant_runs_before_that_round(k):
    """Where a timeout of k probe periods shares its instant with a probe
    round, the timeout runs before the round: one line each, timeout first."""
    cfg = validate(ScenarioConfig(
        node_count=25, comm_radius=7.5, fault_ratio=0.3, packet_count=2,
        injection_period_ms=50.0, probe_timeout_ms=2.0 * k, probe_period_ms=2.0,
        horizon_ms=9.0, seed=5))
    topo = deploy(25, cfg.region, UNIFORM_GRID, rng_seed=1, comm_radius=7.5)
    result = run(topo, cfg, collect_trace=True)
    rounds = collections.defaultdict(list)
    for e in result.trace:
        if e.kind in ("PROBE", "PROBE_TIMEOUT"):
            rounds[e.time].append(e.kind)
    shared = [kinds for kinds in rounds.values() if len(set(kinds)) == 2]
    assert len(shared) == 5 - k  # rounds at 0, 2, 4, 6 and 8 ms
    for kinds in shared:
        assert kinds == ["PROBE_TIMEOUT", "PROBE"]


@pytest.mark.parametrize("timeout", [8.0, 10.0], ids=["own-event", "merged"])
def test_a_prober_never_offered_a_packet_checks_congestion_once(timeout):
    """A timeout checks a prober's buffer only if the prober has been offered
    a packet, or if it is the prober's first timeout: without arrivals the
    check's inputs never change."""
    sim = Simulation(line_topo(6), small_cfg(
        node_count=6, region=(5.0, 1.0), seed=1, packet_count=10,
        probe_timeout_ms=timeout, probe_period_ms=10.0), collect_trace=True)
    checks = collections.Counter()
    first_offer = {}
    in_timeout = False
    congestion = sim.protocol.detect_congestion
    timeout_round = sim.protocol.on_timeout_round

    def counting_round(payload, now):
        nonlocal in_timeout
        in_timeout = True
        try:
            timeout_round(payload, now)
        finally:
            in_timeout = False

    def counting_congestion(table, used, now):
        if in_timeout:
            checks[table.owner] += 1
        else:
            first_offer.setdefault(table.owner, now)
        return congestion(table, used, now)

    sim.protocol.on_timeout_round = counting_round
    sim.protocol.detect_congestion = counting_congestion
    result = sim.run()
    # one PROBE_TIMEOUT line per round timed out, each timing out every prober
    timeouts = sum(e.kind == "PROBE_TIMEOUT" for e in result.trace)
    probers = [table.owner for table in sim.protocol._probers]
    assert result.metrics.delivered == 10
    assert probers == [0, 1, 2, 3, 4]
    assert timeouts >= 4
    # the source is never offered a packet; every relay gets its first
    # before its first timeout
    assert set(first_offer) == {1, 2, 3, 4}
    assert max(first_offer.values()) < timeout
    assert checks == {0: 1, **{n: timeouts for n in (1, 2, 3, 4)}}


def test_a_silent_link_retires_once_its_trust_reaches_zero():
    """A dead peer never answers, so after `misses_to_faulty` rounds its
    links have counted that many misses and are cached FAULTY, where
    distrust changes nothing: the layout drops them then, and they stay
    so. Until then an idle prober's silent links stay in the layout."""
    for misses in (1, 2, 3, 5):
        cfg = validate(ScenarioConfig(
            node_count=25, comm_radius=7.5, fault_ratio=0.3, packet_count=2,
            injection_period_ms=70.0, seed=5, misses_to_faulty=misses))
        topo = deploy(25, cfg.region, UNIFORM_GRID, rng_seed=1, comm_radius=7.5)
        sim = Simulation(topo, cfg)
        protocol = sim.protocol
        timeout_round = protocol.on_timeout_round
        silent, left = [], []

        def counting_round(replies, now):
            if not left:
                silent.extend(protocol._layout[4])
            timeout_round(replies, now)
            left.append(len(protocol._layout[4]))

        protocol.on_timeout_round = counting_round
        sim.run()
        assert silent and len(left) > misses, misses
        assert not any(left[misses - 1:]), misses
        if misses > 1:
            # a prober that sent no data misses its dead peers only in rounds
            idle = sum(table.owner not in sim.metrics.per_node_tx for table, _ in silent)
            assert left[misses - 2] >= idle > 0, misses
        for _table, entry in silent:
            assert entry.misses >= misses and entry.cached_state is STATE_FAULTY, misses


def test_a_baseline_run_keeps_records_of_exactly_the_nodes_its_packets_reached():
    """A node's record is made when a packet first reaches it. With no
    standing fill a GREEDY run's relays refuse only with full queues, so the
    nodes reached are those on the packets' hop traces: the faulted nodes
    its sends were lost to and every node off the route have no record."""
    cfg = validate(ScenarioConfig(protocol=GREEDY_MIN_DELAY, fault_ratio=0.3))
    topo = deploy(cfg.node_count, cfg.region, cfg.distribution, cfg.seed,
                  cfg.comm_radius, cfg.max_tx_distance)
    sim = Simulation(topo, cfg)
    result = sim.run()
    assert result.metrics.dropped_no_route > 0  # sends to faulted relays
    reached = set().union(*(p.hop_trace for p in result.packets))
    assert set(sim.nodes) == reached
    assert reached <= sim._live and len(reached) < len(topo.ids()) // 4
    assert list(result.metrics.per_node_tx) == sorted(result.metrics.per_node_tx)


def test_an_idle_prober_checks_the_standing_preload_and_gets_no_record():
    """At 60% standing fill, a DMRF prober no packet is ever offered checks
    its buffer once, at its first probe timeout, at the standing preload,
    and the check makes no record for it."""
    cfg = validate(ScenarioConfig(buffer_fill=0.6, packet_count=5))
    topo = deploy(cfg.node_count, cfg.region, cfg.distribution, cfg.seed,
                  cfg.comm_radius, cfg.max_tx_distance)
    sim = Simulation(topo, cfg)
    protocol = sim.protocol
    checks = collections.defaultdict(list)
    detect = protocol.detect_congestion

    def recording(table, buffer_used, now):
        checks[table.owner].append((buffer_used, now))
        return detect(table, buffer_used, now)

    protocol.detect_congestion = recording
    sim.run()
    idle = [t.owner for t in protocol._probers if t.last_arrival is None]
    assert topo.source in idle and len(idle) > len(topo.ids()) // 2
    for owner in idle:
        if owner == topo.source:
            assert checks[owner] == [(0.0, cfg.probe_timeout_ms)]
            continue
        assert checks[owner] == [(0.6 * cfg.buffer_bytes, cfg.probe_timeout_ms)], owner
        assert owner not in sim.nodes and sim.standing_level(owner) == 0.6 * cfg.buffer_bytes


def test_a_node_that_carries_nothing_holds_no_container_block():
    """A node no packet has reached has no record at all: building a
    900-node baseline run allocates at most 64 B per node once the
    topology's memos are warm (42 B on Python 3.11, nearly all of it the
    node's slot in the liveness set). A record per node, as every node had
    one at set-up, cost about 330 B."""
    cfg = validate(ScenarioConfig(node_count=900, protocol=GREEDY_MIN_DELAY))
    topo = deploy(cfg.node_count, cfg.region, cfg.distribution, cfg.seed,
                  cfg.comm_radius, cfg.max_tx_distance)
    Simulation(topo, cfg)  # fills the topology's memos
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = Simulation(topo, cfg)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert allocated / len(topo.ids()) <= 64


# ----------------------------------------------------------------------
# control frames: feedback, congestion notices and JUMP_FAIL re-forwards


def control_sim():
    """A DMRF run on the 0 - 1 - ... - 5 line, set up but not started, with
    the record of every node made, as a packet reaching each would make it:
    a control frame's sender has always been reached by data."""
    sim = Simulation(line_topo(6), small_cfg(node_count=6, region=(5.0, 1.0), seed=1))
    for nid in sim.topo.ids():
        sim.record(nid)
    return sim


def frames_since(sim, seq):
    """(sender, receiver, kind) of each control frame scheduled at or after
    sequence number `seq`, in the order they were scheduled."""
    frames = [e for e in sim._heap if e[1] >= seq and e[2] == FEEDBACK_DELIVERY]
    frames.sort(key=lambda e: e[1])
    return [(a[1], a[2], a[0].kind) for _, _, _, a in frames]


def feedback_upstream(sim, table, receiver):
    table.upstream = receiver
    sim.protocol._report(table, FeedbackMessage(kind=STATE_CONG), 0.0)


def congestion_notice(sim, table, receiver):
    sim.protocol._notify_congestion(table, receiver, 0.0)


def jump_fail_reforward(sim, table, receiver):
    table.upstream = receiver
    fb = FeedbackMessage(kind=FB_JUMP_FAIL)
    sim.protocol.on_feedback_delivery((fb, table.owner + 1, table.owner), 0.0)


CONTROL_SENDERS = [feedback_upstream, congestion_notice, jump_fail_reforward]


@pytest.mark.parametrize("send", CONTROL_SENDERS, ids=lambda f: f.__name__)
def test_a_live_receiver_gets_one_charged_frame(send):
    sim = control_sim()
    table = sim.protocol.tables[2]
    seq, energy = sim._seq, sim.metrics.energy_total_j
    send(sim, table, 1)
    assert [(s, r) for s, r, _ in frames_since(sim, seq)] == [(2, 1)]
    joules = energy_cost(sim.cfg, sim.topo.distance(2, 1), CONTROL_FRAME_BITS)
    assert sim.metrics.energy_total_j == energy + joules
    # only a CONG frame that went out marks its receiver as warned
    assert table.cong_notified == (set() if send is jump_fail_reforward else {1})


def test_congestion_notice_goes_once_per_sender_per_episode():
    sim = control_sim()
    table = sim.protocol.tables[2]
    seq = sim._seq
    for _ in range(3):
        sim.protocol._notify_congestion(table, 1, 0.0)
    sim.protocol._notify_congestion(table, 0, 0.0)
    assert frames_since(sim, seq) == [
        (2, 1, STATE_CONG),
        (2, 0, STATE_CONG),
    ]
    assert table.cong_notified == {0, 1}


def test_recovery_reaches_every_warned_sender_and_the_upstream():
    sim = control_sim()
    table = sim.protocol.tables[2]
    table.cong_notified = frozenset({4, 1, 0})
    table.upstream = 1
    seq = sim._seq
    sim.protocol._report(table, FeedbackMessage(kind=STATE_NORMAL), 0.0)
    assert frames_since(sim, seq) == [(2, r, STATE_NORMAL) for r in (0, 1, 4)]
    assert table.cong_notified == set()


def test_a_failed_jump_reports_its_failure_before_the_state_it_causes():
    """A jump to a dead receiver is node 2's last allowed miss of its one
    member: the JUMP_FAIL goes upstream first, then the FAULTY report of
    the JFAULTY state that the miss leaves."""
    sim = control_sim()
    proto = sim.protocol
    table = proto.tables[2]
    table.upstream = 1
    proto.ensure_jump_entries(table)
    entry = table.entry(3)
    entry.misses = sim.cfg.misses_to_faulty - 1
    seq = sim._seq
    packet = make_packet(0, now=0.0, lifetime=100.0)
    assert not proto.on_sent(sim.nodes[2], None, packet, Jump(3, entry), False, 1.0)
    assert frames_since(sim, seq) == [(2, 1, FB_JUMP_FAIL), (2, 1, STATE_FAULTY)]


def test_a_probe_timeout_reports_the_re_derived_state_before_the_buffer_check():
    """Node 2 sits in JCONG, its one member cached JCONG, and has warned its
    upstream hop. At the first timeout the member's reply heals it, so the
    re-derived state is NORMAL, a recovery; then the full buffer turns the
    node CONG. One combined derivation would go JCONG -> CONG and send the
    CONG report alone."""
    sim = control_sim()
    proto = sim.protocol
    table = proto.tables[2]
    table.upstream, table.cong_notified = 1, frozenset({1})
    table.entry(3).cached_state = table.state = STATE_JCONG
    table.dirty = False
    sim.nodes[2].buffer_used = sim.cfg.buffer_bytes
    proto.on_probe_round(None, 0.0)
    [replies] = [e[3] for e in sim._heap if e[2] == PROBE_TIMEOUT]
    seq = sim._seq
    proto.on_timeout_round(replies, sim.cfg.probe_timeout_ms)
    assert frames_since(sim, seq) == [(2, 1, STATE_NORMAL), (2, 1, STATE_CONG)]
    assert table.state is STATE_CONG and table.cong_notified == {1}


# ----------------------------------------------------------------------
# invariants are real checks, not asserts: they hold under python -O

_SRC = str(Path(dmrfsim.__file__).resolve().parent.parent)

_ILLEGAL_TRANSITION = """
from dmrfsim.config import ScenarioConfig
from dmrfsim.model import STATE_FAULTY, InvariantError
from dmrfsim.protocol import DmrfProtocol
from dmrfsim.topology import Topology

assert False, "asserts are still on"
topo = Topology(nodes=[(0, (0.0, 0.0)), (1, (1.0, 0.0)), (2, (2.0, 0.0))],
                comm_radius=1.5, max_tx_distance=30.0,
                source=0, sink=2)
proto = DmrfProtocol(topo, ScenarioConfig())
table = proto.build_tables()[0]
table.state = STATE_FAULTY  # crashed nodes never recover
try:
    table.dirty = True
    proto.reevaluate(table, now=1.0)
except InvariantError as exc:
    print(exc)
"""

_LOST_PACKET = """
import sys
from dmrfsim import engine
from dmrfsim.cli import main

finalize = engine.Simulation._finalize

def lossy(self, packet, outcome, now):
    finalize(self, packet, outcome, now)
    if packet.id == 0:
        self.metrics.delivered -= 1  # the packet vanishes from the books

engine.Simulation._finalize = lossy
sys.exit(main(["run", "--config", sys.argv[1]]))
"""


def run_optimized(script, *args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC if not path else _SRC + os.pathsep + path)
    return subprocess.run(
        [sys.executable, "-O", "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_illegal_transition_raises_under_optimization():
    proc = run_optimized(_ILLEGAL_TRANSITION)
    assert proc.returncode == 0, proc.stderr
    assert "illegal transition FAULTY -> NORMAL" in proc.stdout


def test_conservation_violation_exits_two_under_optimization(tmp_path):
    config = tmp_path / "line.json"
    config.write_text(json.dumps(
        {"node_count": 3, "region": [2.0, 1.0], "packet_count": 5}
    ))
    proc = run_optimized(_LOST_PACKET, str(config))
    assert proc.returncode == 2, proc.stderr
    assert "packet conservation violated: 4 terminal vs 5 injected" in proc.stderr


# ----------------------------------------------------------------------
# structure: the engine reaches DMRF only through the run's protocol object

#: the names of DMRF's control plane, which stays in protocol.py
_CONTROL_PLANE = re.compile(
    r"RoutingTable|FeedbackMessage|FB_\w*|STATE_\w*|CONG_STATES|CONTROL_FRAME_BITS")


def _identifiers(tree):
    """Every identifier an AST names: variables, attributes, imports,
    definitions, parameters and keyword arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg


def test_the_engine_names_no_protocol_and_none_of_dmrfs_control_plane():
    """engine.py takes from protocol.py only the decision types, and names
    neither DMRF nor its tables, feedback, states or control frames: it runs
    a protocol through the object `baselines.PROTOCOL_CLASSES` builds."""
    tree = ast.parse(Path(dmrfsim.__file__).with_name("engine.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("protocol", "dmrfsim.protocol"):
                assert {a.name for a in node.names} <= {"Drop", "Forward", "Jump"}, ast.dump(node)
            elif node.module in (None, "dmrfsim"):
                assert "protocol" not in {a.name for a in node.names}, ast.dump(node)
        elif isinstance(node, ast.Import):
            assert "dmrfsim.protocol" not in {a.name for a in node.names}, ast.dump(node)
    named = set(_identifiers(tree))
    assert not {name for name in named if "dmrf" in name.lower()}
    assert not {name for name in named if _CONTROL_PLANE.fullmatch(name)}
