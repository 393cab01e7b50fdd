"""Unit tests for the per-node decision logic.

The numeric examples here were computed by hand from the defining formulas
and are frozen: a change in any of them is a behavior change, not a
refactoring artifact.
"""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmrfsim.config import ScenarioConfig
from dmrfsim.model import (
    FB_JUMP_FAIL,
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
    make_packet,
)
from dmrfsim.protocol import (
    OMEGA_FLOOR,
    DmrfProtocol,
    Forward,
    Jump,
    JumpPool,
    RoutingTable,
    choose_jump_target,
    jump_probabilities,
)
from dmrfsim.topology import Topology, UNREACHABLE
from reference import (
    KNOWN_BAD,
    NoRouteError,
    Thresholds,
    classify_rate,
    compute_lambda,
    compute_thresholds,
    pin_rate_continuity,
    pool_entries,
    record_reports,
    reference_jump_target,
    reference_shares,
)

STATES = (STATE_NORMAL, STATE_FAULTY, STATE_JFAULTY, STATE_CONG, STATE_JCONG, STATE_VOID)
MU = 1.28


class FixedRng:
    """random.Random stand-in returning scripted values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def log_of(proto, owner):
    """(time, old, new) of every transition the protocol recorded for owner."""
    return [(t, old, new) for t, node, old, new in proto.transitions if node == owner]


def grid_protocol(positions, comm_radius=1.5, max_tx=30.0, sink=None, **kwargs):
    nodes = [(i, pos) for i, pos in enumerate(positions)]
    topo = Topology(
        nodes=nodes,
        comm_radius=comm_radius,
        max_tx_distance=max_tx,
        source=0,
        sink=len(positions) - 1 if sink is None else sink,
    )
    return DmrfProtocol(topo, ScenarioConfig(**kwargs)), topo


# ----------------------------------------------------------------------
# slack ratio and thresholds


def test_lambda_is_remaining_over_needed():
    assert compute_lambda(12.0, 10.0) == pytest.approx(1.2)
    assert compute_lambda(5.0, 10.0) == pytest.approx(0.5)


def test_lambda_clamps_expired_packets_to_zero():
    assert compute_lambda(0.0, 10.0) == 0.0
    assert compute_lambda(-3.0, 10.0) == 0.0


def test_lambda_rejects_non_positive_needed_time():
    with pytest.raises(ValueError):
        compute_lambda(5.0, 0.0)
    with pytest.raises(ValueError):
        compute_lambda(5.0, -1.0)


def test_threshold_worked_example():
    # theta_jump 0.2, needed 10, both delay bounds 2, mu 1.28, remaining 12:
    #   omega      = min(1, (12 - 2) / 10)    = 1.0
    #   theta_high = 0.2 + 2 / 10             = 0.4
    #   theta_low  = 0.4 / 1.0 + 1.28 / 10    = 0.528
    th = compute_thresholds(0.2, 10.0, 2.0, 2.0, 1.28, 12.0)
    assert th.omega == pytest.approx(1.0)
    assert th.theta_high == pytest.approx(0.4)
    assert th.theta_low == pytest.approx(0.528)
    assert th.theta_jump == 0.2


def test_omega_shrinks_when_lifetime_gets_tight():
    # remaining barely above the next-hop delay: omega = 1/10, which pushes
    # theta_low up by a factor of ten
    th = compute_thresholds(0.2, 10.0, 2.0, 2.0, 1.28, 3.0)
    assert th.omega == pytest.approx(0.1)
    assert th.theta_low == pytest.approx(0.4 / 0.1 + 0.128)


def test_omega_clamps_into_unit_interval():
    high = compute_thresholds(0.2, 10.0, 2.0, 2.0, 1.28, 500.0)
    assert high.omega == 1.0
    low = compute_thresholds(0.2, 10.0, 2.0, 2.0, 1.28, 1.0)
    assert low.omega == pytest.approx(1e-3)
    assert low.theta_low > low.theta_high > low.theta_jump


def test_thresholds_unreachable_sink_raises():
    with pytest.raises(NoRouteError):
        compute_thresholds(0.2, UNREACHABLE, 2.0, 2.0, 1.28, 12.0)


def test_thresholds_at_the_sink_raise():
    # the sink itself needs no time, and the slack ratio divides by it
    with pytest.raises(ValueError, match="needed_time must be positive"):
        compute_thresholds(0.2, 0.0, 2.0, 2.0, 1.28, 12.0)


def test_rate_bands():
    th = Thresholds(theta_low=0.528, theta_high=0.4, theta_jump=0.2, omega=1.0)
    assert classify_rate(0.6, th) is RATE_LOW
    assert classify_rate(0.528, th) is RATE_LOW  # boundary belongs up
    assert classify_rate(0.45, th) is RATE_MEDIUM
    assert classify_rate(0.4, th) is RATE_MEDIUM
    assert classify_rate(0.25, th) is RATE_HIGH


def test_rate_continuity_pins_low_high_swings_to_medium():
    assert pin_rate_continuity(RATE_LOW, RATE_HIGH) is RATE_MEDIUM
    assert pin_rate_continuity(RATE_HIGH, RATE_LOW) is RATE_MEDIUM
    assert pin_rate_continuity(RATE_LOW, RATE_MEDIUM) is RATE_MEDIUM
    assert pin_rate_continuity(RATE_MEDIUM, RATE_HIGH) is RATE_HIGH
    assert pin_rate_continuity(RATE_LOW, RATE_LOW) is RATE_LOW


# ----------------------------------------------------------------------
# jump probabilities


def test_jump_probabilities_normalize_success_ratios():
    a = CandidateEntry(candidate=1, suc=0.75)
    b = CandidateEntry(candidate=2, suc=0.5)
    p_a, p_b = jump_probabilities([a, b])
    assert p_a == pytest.approx(0.6)
    assert p_b == pytest.approx(0.4)


def test_jump_probabilities_uniform_when_all_zero():
    entries = [CandidateEntry(candidate=i, suc=0.0) for i in range(4)]
    assert all(p == pytest.approx(0.25) for p in jump_probabilities(entries))


@pytest.mark.parametrize("sucs", [[0.75, 0.5], [0.0, 0.0, 0.0], [1.0]])
def test_jump_probabilities_returns_a_list_that_reads_twice(sucs):
    """The shares are a list, not a lazy iterator: acceptance criterion 8
    sums them and then checks each one, and a second pass over an exhausted
    iterator would check nothing."""
    entries = [CandidateEntry(candidate=i, suc=s) for i, s in enumerate(sucs)]
    shares = jump_probabilities(entries)
    assert type(shares) is list and len(shares) == len(entries)
    # criterion 8's two passes: the sum, then each share
    assert sum(shares) == pytest.approx(1.0)
    assert all(0.0 <= p <= 1.0 for p in shares)


def held_pool(*entries):
    """A jump pool whose every candidate is held: `entries`, in id order."""
    return JumpPool([e.candidate for e in entries], dict(enumerate(entries)), MU)


def test_choose_jump_target_samples_cumulatively():
    a = CandidateEntry(candidate=1, suc=0.75)
    b = CandidateEntry(candidate=2, suc=0.5)
    # p = (0.6, 0.4): draws below 0.6 pick 1, above pick 2
    assert choose_jump_target(held_pool(a, b), FixedRng([0.59])) is a
    assert choose_jump_target(held_pool(a, b), FixedRng([0.61])) is b


def test_choose_jump_target_excludes_known_bad_and_renormalizes():
    a = CandidateEntry(candidate=1, suc=0.75, cached_state=STATE_CONG)
    b = CandidateEntry(candidate=2, suc=0.5)
    # only b is viable, so any draw picks it
    assert choose_jump_target(held_pool(a, b), FixedRng([0.99])) is b


def test_choose_jump_target_without_a_viable_member_is_none():
    """No member cached NORMAL, or no member at all: no target, and the
    generator is not drawn from."""
    a = CandidateEntry(candidate=1, cached_state=STATE_FAULTY)
    b = CandidateEntry(candidate=2, cached_state=STATE_VOID)
    for pool in (held_pool(a, b), held_pool(a), held_pool()):
        assert choose_jump_target(pool, FixedRng([])) is None


def test_choose_jump_target_past_a_float_shortfall_takes_the_last_viable():
    # ten equal shares of 0.1 accumulate to 1 - 2**-53, not 1: the largest
    # draw random() returns is then past every running sum
    pool = JumpPool(list(range(11)), {10: CandidateEntry(candidate=10, cached_state=STATE_FAULTY)},
                    MU)
    entries = pool_entries(pool)
    assert list(itertools.accumulate(jump_probabilities(entries[:10])))[-1] == 1 - 2.0**-53
    drawn = choose_jump_target(pool, FixedRng([1 - 2.0**-53]))
    # the untouched candidate 9 gets its entry at the draw, held from then on
    # (at position 9: here each id is its position)
    assert drawn == entries[9] == CandidateEntry(9, MU)
    assert pool.held[9] is drawn and sorted(pool.held) == [9, 10]
    assert choose_jump_target(pool, FixedRng([1 - 2.0**-53])) is drawn


def test_an_untouched_candidate_reads_as_a_fresh_entry():
    """Only the members are held when a pool is built; every other candidate
    lists as `CandidateEntry(id, mu)`, cached NORMAL with `suc` 1.0, and
    has no entry for `RoutingTable.entry` to find until it is drawn."""
    proto, table = two_candidate_table()
    proto.ensure_jump_entries(table)
    assert table.jump_pool.ids == [1, 2, 3]
    assert pool_entries(table.jump_pool)[2] == CandidateEntry(3, MU)
    with pytest.raises(KeyError):
        table.entry(3)
    # three equal shares: 0.99 picks the last
    assert choose_jump_target(table.jump_pool, FixedRng([0.99])) is table.entry(3)


class PinnedRandom(random.Random):
    """A seeded generator whose draws advance its state as usual; with
    `value` set, each draw returns it instead, to land on a share's edge."""

    value = None

    def random(self):
        draw = super().random()
        return draw if self.value is None else self.value


#: success ratios: zero, the subnormals, and the rest of [0, 1]
SUCS = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-310, 2.0**-1022]),
    st.floats(0.0, 1.0),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    pool=st.one_of(
        st.lists(st.one_of(st.none(), st.tuples(SUCS, st.sampled_from(STATES))), max_size=60),
        st.tuples(SUCS, st.sampled_from(STATES)).map(lambda entry: [entry]),
    ),
    all_zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    pin=st.sampled_from(["draw", "zero", "edge", "below-edge"]),
    edge=st.integers(0, 59),
)
# the empty pool: no shares and no target
@example(pool=[], all_zero=False, seed=0, pin="draw", edge=0)
# a pool of untouched candidates only
@example(pool=[None] * 7, all_zero=False, seed=0, pin="draw", edge=0)
def test_choose_jump_target_matches_normalize_then_accumulate(
    pool, all_zero, seed, pin, edge
):
    """The pick and the generator state after it equal the reference draw
    over the pool listed entry by entry, on pools of held entries in mixed
    cached states, zero, subnormal and all-zero success mass, untouched
    candidates (None), single entries and none; the shares equal
    jump_probabilities. A pick with no held entry gets a fresh one."""

    def subject():
        # odd ids, so that an id is no position in the pool
        ids = [2 * i + 1 for i in range(len(pool))]
        held = {
            i: CandidateEntry(candidate=c, delay_est=MU, suc=0.0 if all_zero else slot[0],
                              cached_state=slot[1])
            for i, (c, slot) in enumerate(zip(ids, pool)) if slot is not None
        }
        return JumpPool(ids, held, MU)

    # the running sums of the reference's shares are where the two rules
    # could part, so some draws are pinned onto them or one ulp below
    viable = [e for e in pool_entries(subject()) if e.cached_state not in KNOWN_BAD]
    shares = reference_shares(viable)
    assert jump_probabilities(viable) == shares
    edges = list(itertools.accumulate(shares))
    value = {
        "draw": None,
        "zero": 0.0,
        "edge": edges[edge % len(edges)] if edges else None,
        "below-edge": math.nextafter(edges[edge % len(edges)], 0.0) if edges else None,
    }[pin]
    if value is not None and value >= 1.0:
        value = None  # random() never returns 1.0

    expected_rng, actual_rng = PinnedRandom(seed), PinnedRandom(seed)
    expected_rng.value = actual_rng.value = value
    expected = reference_jump_target(pool_entries(subject()), expected_rng)
    actual_pool = subject()
    before = dict(actual_pool.held)
    actual = choose_jump_target(actual_pool, actual_rng)
    assert (None if actual is None else actual.candidate) == expected
    assert actual_rng.getstate() == expected_rng.getstate()
    if actual is None:
        assert actual_pool.held == before
        return
    # the pick is the pool's own entry, for the jump's result to update:
    # the one held, or one made fresh at the draw and held from then on
    i = actual_pool.ids.index(actual.candidate)
    assert actual_pool.held[i] is actual
    assert actual is before[i] if i in before else actual == CandidateEntry(actual.candidate, MU)
    assert actual_pool.held.keys() - before.keys() <= {i}


# ----------------------------------------------------------------------
# table construction


def test_build_tables_initializes_fcs_entries():
    proto, topo = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    tables = proto.build_tables()
    assert set(tables) == {0, 1}  # the sink keeps no table
    t0 = tables[0]
    assert [e.candidate for e in t0.members] == [1]
    assert t0.entry(1).delay_est == MU
    assert t0.needed_time == pytest.approx(2 * MU)
    assert t0.state is STATE_NORMAL


def test_build_tables_marks_born_void_nodes():
    # node 1's only neighbor is behind it
    proto, _ = grid_protocol(
        [(-1.0, 0.0), (0.0, 0.0), (5.0, 0.0)], comm_radius=1.2, sink=2
    )
    tables = proto.build_tables()
    assert tables[1].state is STATE_VOID
    assert log_of(proto, 1) == [(0.0, STATE_NORMAL, STATE_VOID)]


def test_jump_entries_take_strictly_closer_nodes_in_tx_range():
    positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (40.0, 0.0)]
    proto, _ = grid_protocol(positions, comm_radius=1.5, max_tx=30.0, sink=3)
    table = proto.build_tables()[0]
    proto.ensure_jump_entries(table)
    # 4 is out of the jump question twice over: beyond max_tx and farther
    # from the sink than the owner
    pool = table.jump_pool
    assert [e.candidate for e in pool_entries(pool)] == [1, 2, 3]
    # the one member, 1, is held as itself; 2 and 3 hold no entry yet
    assert all(table.entry(pool.ids[i]) is e for i, e in pool.held.items())
    assert [pool.ids[i] for i in pool.held] == [e.candidate for e in table.members] == [1]
    for c in (2, 3):
        with pytest.raises(KeyError):
            table.entry(c)
    # materialization is idempotent
    proto.ensure_jump_entries(table)
    assert table.jump_pool is pool


@pytest.mark.parametrize("dropped", [1, 2])
def test_a_jump_pool_that_leaves_out_a_member_raises(monkeypatch, dropped):
    positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    proto, topo = grid_protocol(positions, comm_radius=2.5, max_tx=30.0, sink=3)
    table = proto.build_tables()[0]
    assert [e.candidate for e in table.members] == [1, 2]
    pool = [c for c in (1, 2, 3) if c != dropped]
    monkeypatch.setattr(topo, "jump_candidates", lambda node: pool)
    with pytest.raises(InvariantError, match=f"member {dropped} of node 0"):
        proto.ensure_jump_entries(table)
    assert table.jump_pool is None


# ----------------------------------------------------------------------
# detection pipeline


def probe_all(proto, table, replies, now=0.0, states=None):
    # a replier reports its own state, NORMAL unless `states` says otherwise
    live = [e for e in table.members if e.candidate in replies]
    silent = [(table, e) for e in table.members if e.candidate not in replies]
    delays = [e.delay_est for e in live]
    reported = [(states or {}).get(e.candidate, STATE_NORMAL) for e in live]
    proto.detect_faulty([table] * len(live), live, delays, reported, silent)
    proto.reevaluate(table, now)


def test_three_missed_probes_mark_faulty():
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    table = proto.build_tables()[0]
    entry = table.entry(1)
    probe_all(proto, table, replies=set())
    probe_all(proto, table, replies=set())
    assert entry.cached_state is STATE_NORMAL
    probe_all(proto, table, replies=set())
    assert entry.cached_state is STATE_FAULTY


def test_reply_resets_confidence_and_heals_faulty_cache():
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    table = proto.build_tables()[0]
    entry = table.entry(1)
    for _ in range(3):
        probe_all(proto, table, replies=set())
    assert entry.cached_state is STATE_FAULTY
    probe_all(proto, table, replies={1})
    assert entry.cached_state is STATE_NORMAL
    assert entry.misses == 0


def test_misses_count_up_to_faulty_at_the_default_three():
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    table = proto.build_tables()[0]
    entry = table.entry(1)
    assert (entry.misses, entry.cached_state) == (0, STATE_NORMAL)
    seen = []
    for _ in range(3):
        probe_all(proto, table, replies=set())
        seen.append((entry.misses, entry.cached_state))
    assert seen == [(1, STATE_NORMAL), (2, STATE_NORMAL), (3, STATE_FAULTY)]
    probe_all(proto, table, replies={1})
    assert (entry.misses, entry.cached_state) == (0, STATE_NORMAL)


def test_misses_past_the_limit_stay_faulty_until_an_acknowledgment():
    proto, table = two_candidate_table(misses_to_faulty=4)
    entry = table.entry(1)
    for i in range(10):
        proto.on_forward_result(table, entry, False, now=float(i))
    assert (entry.misses, entry.cached_state) == (10, STATE_FAULTY)
    proto.on_forward_result(table, entry, True, now=10.0)
    assert (entry.misses, entry.cached_state) == (0, STATE_NORMAL)


def _misses_until_faulty(proto, table, miss):
    entry = table.entry(1)
    for count in range(1, 101):
        miss(proto, table, float(count))
        assert entry.misses == count
        if entry.cached_state is STATE_FAULTY:
            return count
    raise AssertionError("never cached FAULTY")


#: each way of missing a candidate, and each way it answers
MISSES = {
    "probe": lambda proto, table, now: probe_all(proto, table, set(), now),
    "forward": lambda proto, table, now: proto.on_forward_result(
        table, table.entry(1), False, now),
    "jump": lambda proto, table, now: proto.on_jump_result(table, table.entry(1), False, now),
}
ANSWERS = {
    "probe reply": lambda proto, table, now: probe_all(proto, table, {1, 2}, now),
    "forward ack": lambda proto, table, now: proto.on_forward_result(
        table, table.entry(1), True, now),
    "jump ack": lambda proto, table, now: proto.on_jump_result(table, table.entry(1), True, now),
}


@pytest.mark.parametrize("misses", [1, 2, 3, 4, 6])
def test_misses_to_faulty_comes_from_config(misses):
    # every way of missing a candidate turns it FAULTY at exactly the
    # configured miss, and every way of answering resets the count and heals
    for name, miss in MISSES.items():
        for answer_name, answer in ANSWERS.items():
            proto, table = two_candidate_table(misses_to_faulty=misses)
            entry = table.entry(1)
            assert _misses_until_faulty(proto, table, miss) == misses, name
            answer(proto, table, 200.0)
            assert (entry.misses, entry.cached_state) == (0, STATE_NORMAL), answer_name
            # the count starts again from 0
            assert _misses_until_faulty(proto, table, miss) == misses, name


def test_probe_reply_state_report_overrides_cache():
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    table = proto.build_tables()[0]
    probe_all(proto, table, replies={1}, states={1: STATE_CONG})
    assert table.entry(1).cached_state is STATE_CONG
    probe_all(proto, table, replies={1}, states={1: STATE_NORMAL})
    assert table.entry(1).cached_state is STATE_NORMAL


def test_probe_delay_samples_blend_into_estimate():
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    table = proto.build_tables()[0]
    proto.detect_faulty([table], [table.entry(1)], [2.0], [STATE_NORMAL], [])
    assert table.entry(1).delay_est == pytest.approx(0.7 * MU + 0.3 * 2.0)


@pytest.mark.parametrize(
    "records",
    [(1, [], []), (1, [2.0], []), (1, [2.0, 2.0], [STATE_NORMAL, STATE_NORMAL]),
     (1, [2.0], [STATE_NORMAL, STATE_NORMAL]), (1, [], [STATE_NORMAL]),
     (0, [2.0], [STATE_NORMAL]), (2, [2.0], [STATE_NORMAL])],
)
def test_probe_records_must_match_the_candidate_set(records):
    # one table, one delay and one state per live link, in link order, and no more
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    table = proto.build_tables()[0]
    assert len(table.members) == 1
    tables, delays, states = records
    with pytest.raises(ValueError):
        proto.detect_faulty([table] * tables, table.members, delays, states, [])


def test_congestion_predictor_and_hysteresis():
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    table = proto.build_tables()[0]
    reports = record_reports(proto)
    # occupancy 0.5 + 0.1/ms * 5 ms * 32 B / 100 B = 0.5 + 0.16 = 0.66 < 0.8
    table.arrival_ewma = 0.1
    proto.detect_congestion(table, 50.0, now=1.0)
    assert table.state is STATE_NORMAL and reports == []
    # occupancy 0.72 + 0.16 = 0.88 >= 0.8: congested
    proto.detect_congestion(table, 72.0, now=2.0)
    assert table.state is STATE_CONG
    assert [f.kind for f in reports] == [STATE_CONG]
    # back under theta but inside the hysteresis band: still congested
    table.arrival_ewma = 0.0
    proto.detect_congestion(table, 72.0, now=3.0)
    assert table.state is STATE_CONG
    # predicted 0.66 < 0.8 - 0.1: recovered
    proto.detect_congestion(table, 66.0, now=4.0)
    assert table.state is STATE_NORMAL
    assert [f.kind for f in reports] == [STATE_CONG, STATE_NORMAL]


def test_congestion_recovers_only_strictly_below_the_hysteresis_band():
    # theta_cong - cong_hysteresis is 0.5 exactly: a prediction of 0.5 (a
    # 50 B fill of 100 B, no arrivals) stays congested, 49 B recovers
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
                             theta_cong=0.75, cong_hysteresis=0.25, buffer_bytes=100)
    table = proto.build_tables()[0]
    reports = record_reports(proto)
    proto.detect_congestion(table, 80.0, now=1.0)
    assert table.state is STATE_CONG
    proto.detect_congestion(table, 50.0, now=2.0)
    assert table.state is STATE_CONG and table.own_congested
    assert [f.kind for f in reports] == [STATE_CONG]
    proto.detect_congestion(table, 49.0, now=3.0)
    assert table.state is STATE_NORMAL and not table.own_congested
    assert [f.kind for f in reports] == [STATE_CONG, STATE_NORMAL]


def test_an_offer_folds_into_the_arrival_estimate():
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    table = proto.build_tables()[0]
    # the first offer only starts the clock
    proto.on_offer(table, 0.0, now=1.0)
    assert (table.arrival_ewma, table.last_arrival) == (0.0, 1.0)
    # a 4 ms gap: 0.5 * 0.0 + 0.5 / 4
    proto.on_offer(table, 0.0, now=5.0)
    assert (table.arrival_ewma, table.last_arrival) == (0.125, 5.0)
    # an offer at the same instant leaves the rate be
    proto.on_offer(table, 0.0, now=5.0)
    assert table.arrival_ewma == 0.125


def test_an_idle_arrival_estimate_halves_at_each_check():
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    table = proto.build_tables()[0]
    table.arrival_ewma, table.last_arrival = 0.5, 0.0
    # inside a probe period (10 ms) of the last offer: kept
    proto.detect_congestion(table, 0.0, now=9.0)
    assert table.arrival_ewma == 0.5
    # idle for a period or more: halved at every check
    proto.detect_congestion(table, 0.0, now=10.0)
    proto.detect_congestion(table, 0.0, now=20.0)
    assert table.arrival_ewma == 0.125
    # a node never offered a packet has no estimate to decay
    fresh = proto.build_tables()[0]
    proto.detect_congestion(fresh, 0.0, now=50.0)
    assert (fresh.arrival_ewma, fresh.last_arrival) == (0.0, None)


def test_offers_at_heavy_traffic_spacing_congest_an_empty_relay_on_rate_alone():
    # the heavy-traffic workload injects a packet every 1.5 ms. With the
    # buffer empty the occupancy term is 0, so only the arrival rate can
    # push the prediction to theta_cong (0.8): 0.5 / ms * 5 ms * 32 B / 100 B
    # is 0.8 exactly at the third offer
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    relay = proto.build_tables()[1]
    reports = record_reports(proto)
    kinds = []
    for k in range(3):
        proto.on_offer(relay, 0.0, now=1.5 * k)
        kinds.append([f.kind for f in reports])
    assert kinds == [[], [], [STATE_CONG]]
    assert relay.arrival_ewma == 0.5
    assert relay.state is STATE_CONG and relay.own_congested
    assert log_of(proto, 1) == [(3.0, STATE_NORMAL, STATE_CONG)]
    # the estimate climbs toward 2/3 per ms (a prediction of about 1.07), so
    # the relay stays congested while the offers keep coming
    for k in range(3, 40):
        proto.on_offer(relay, 0.0, now=1.5 * k)
    assert relay.state is STATE_CONG and len(reports) == 1
    assert relay.arrival_ewma > 0.66


#: the state each entered state reports, as its feedback frame's kind
ENTRY_FEEDBACK = {
    STATE_VOID: STATE_VOID,
    STATE_JFAULTY: STATE_FAULTY,
    STATE_JCONG: STATE_CONG,
    STATE_CONG: STATE_CONG,
    STATE_NORMAL: STATE_NORMAL,
}


def reference_reevaluate(states, own_congested, start):
    """The derivation rule written out: (end state, feedback kinds,
    (old, new) transitions) for a table with these member states."""
    if all(s is STATE_VOID for s in states):  # an empty set too
        target = STATE_VOID
    elif all(s in (STATE_FAULTY, STATE_JFAULTY) for s in states):
        target = STATE_JFAULTY
    elif all(s in (STATE_CONG, STATE_JCONG) for s in states):
        target = STATE_JCONG
    elif own_congested:
        target = STATE_CONG
    else:
        target = STATE_NORMAL
    if target is start:
        return start, [], []
    if target is STATE_CONG and start not in (STATE_NORMAL, STATE_JCONG):
        path = [STATE_NORMAL, STATE_CONG]
    else:
        path = [target]
    return target, [ENTRY_FEEDBACK[s] for s in path], list(zip([start] + path[:-1], path))


MEMBER_STATE_LISTS = [
    states for size in range(4) for states in itertools.product(STATES, repeat=size)
]


@pytest.mark.parametrize("own_congested", [False, True])
@pytest.mark.parametrize(
    "start", [s for s in STATES if s is not STATE_FAULTY], ids=lambda s: f"NodeState.{s}"
)
def test_reevaluate_matches_the_rule_on_every_small_candidate_set(start, own_congested):
    assert len(MEMBER_STATE_LISTS) == 1 + 6 + 36 + 216
    proto, _ = grid_protocol([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    reports = record_reports(proto)
    for states in MEMBER_STATE_LISTS:
        members = [
            CandidateEntry(i + 1, MU, cached_state=state) for i, state in enumerate(states)
        ]
        table = RoutingTable(
            owner=0,
            members=members,
            needed_time=10.0,
            state=start,
            own_congested=own_congested,
        )
        logged, reported = len(proto.transitions), len(reports)
        proto.reevaluate(table, now=7.0)
        expected_state, expected_kinds, expected_steps = reference_reevaluate(
            states, own_congested, start
        )
        case = (states, own_congested, start)
        assert table.state is expected_state, case
        assert [f.kind for f in reports[reported:]] == expected_kinds, case
        assert proto.transitions[logged:] == [
            (7.0, 0, old, new) for old, new in expected_steps
        ], case
        assert not table.dirty


def two_candidate_table(**kwargs):
    positions = [(0.0, 0.0), (1.0, 0.3), (1.0, -0.3), (2.0, 0.0)]
    proto, topo = grid_protocol(positions, comm_radius=1.5, sink=3, **kwargs)
    return proto, proto.build_tables()[0]


def test_state_derivation_cascades():
    proto, table = two_candidate_table()
    reports = record_reports(proto)
    table.entry(1).cached_state = STATE_FAULTY
    table.entry(2).cached_state = STATE_JFAULTY
    table.dirty = True
    proto.reevaluate(table, now=1.0)
    assert table.state is STATE_JFAULTY
    assert [f.kind for f in reports] == [STATE_FAULTY]

    # one candidate heals: back to NORMAL
    table.entry(1).cached_state = STATE_NORMAL
    table.dirty = True
    proto.reevaluate(table, now=2.0)
    assert table.state is STATE_NORMAL
    assert [f.kind for f in reports] == [STATE_FAULTY, STATE_NORMAL]

    table.entry(1).cached_state = STATE_CONG
    table.entry(2).cached_state = STATE_JCONG
    table.dirty = True
    proto.reevaluate(table, now=3.0)
    assert table.state is STATE_JCONG

    table.entry(1).cached_state = STATE_VOID
    table.entry(2).cached_state = STATE_VOID
    table.dirty = True
    proto.reevaluate(table, now=4.0)
    assert table.state is STATE_VOID


def test_void_outranks_other_derivations():
    proto, table = two_candidate_table()
    table.entry(1).cached_state = STATE_VOID
    table.entry(2).cached_state = STATE_VOID
    table.own_congested = True
    table.dirty = True
    proto.reevaluate(table, now=1.0)
    assert table.state is STATE_VOID


def test_own_congestion_yields_to_whole_set_conditions():
    proto, table = two_candidate_table()
    table.own_congested = True
    table.dirty = True
    proto.reevaluate(table, now=1.0)
    assert table.state is STATE_CONG
    table.entry(1).cached_state = STATE_FAULTY
    table.entry(2).cached_state = STATE_FAULTY
    table.dirty = True
    proto.reevaluate(table, now=2.0)
    assert table.state is STATE_JFAULTY


def test_illegal_direct_cong_entry_decomposes_through_normal():
    proto, table = two_candidate_table()
    # drive to JFAULTY
    table.entry(1).cached_state = STATE_FAULTY
    table.entry(2).cached_state = STATE_FAULTY
    table.dirty = True
    proto.reevaluate(table, now=1.0)
    assert table.state is STATE_JFAULTY
    # candidates heal while the node's own buffer is hot: the path to CONG
    # passes through NORMAL, emitting RECOVER then CONG
    table.entry(1).cached_state = STATE_NORMAL
    table.entry(2).cached_state = STATE_NORMAL
    table.own_congested = True
    table.dirty = True
    reports = record_reports(proto)
    proto.reevaluate(table, now=2.0)
    assert table.state is STATE_CONG
    assert [f.kind for f in reports] == [STATE_NORMAL, STATE_CONG]
    assert log_of(proto, table.owner)[-2:] == [
        (2.0, STATE_JFAULTY, STATE_NORMAL),
        (2.0, STATE_NORMAL, STATE_CONG),
    ]


def test_a_refused_transition_raises_an_invariant_error(monkeypatch):
    # a real raise, not an assert: python -O keeps it (see the CI workflow)
    proto, table = two_candidate_table()
    monkeypatch.setattr("dmrfsim.protocol.legal_transition", lambda old, new, states: False)
    table.own_congested = table.dirty = True
    with pytest.raises(InvariantError, match="illegal transition NORMAL -> CONG at node 0"):
        proto.reevaluate(table, now=1.0)
    assert table.state is STATE_NORMAL and proto.transitions == []


# ----------------------------------------------------------------------
# next-hop selection


def test_select_forwards_least_used_then_slowest():
    proto, table = two_candidate_table()
    packet = make_packet(0, now=0.0, lifetime=100.0)
    d1 = proto.select_next_hop(table, packet, now=0.0, rng=random.Random(1))
    assert isinstance(d1, Forward)
    first = d1.next
    d2 = proto.select_next_hop(table, packet, now=0.0, rng=random.Random(1))
    assert isinstance(d2, Forward)
    # rotation: the other candidate is now the least used
    assert d2.next != first


def test_select_skips_candidates_cached_bad():
    proto, table = two_candidate_table()
    packet = make_packet(0, now=0.0, lifetime=100.0)
    table.entry(1).cached_state = STATE_CONG
    for _ in range(4):
        d = proto.select_next_hop(table, packet, now=0.0, rng=random.Random(1))
        assert isinstance(d, Forward)
        assert d.next == 2
    assert [table.entry(c).tx_count for c in (1, 2)] == [0, 4]


@st.composite
def member_tables(draw):
    """Node 0 with up to six forward candidates, each with a random use
    count, delay estimate and cached state, a theta_jump at, around or well
    above OMEGA_FLOOR, and a packet's remaining time. The remaining time is
    free, or it puts omega, (remaining - largest delay) / needed time,
    exactly at OMEGA_FLOOR or at 1, or one ulp below or above either, or
    above 1 with one hop to go; the needed time is set so that the
    arithmetic is exact."""
    count = draw(st.integers(1, 6))
    ys = [-0.6 + 1.2 * i / max(1, count - 1) for i in range(count)]
    positions = [(0.0, 0.0)] + [(1.0, y) for y in ys] + [(2.0, 0.0)]
    omega = draw(st.sampled_from(["free", "floor", "one", "above-one"]))
    # omega sets the band only at or above theta_jump
    small = [OMEGA_FLOOR / 2, OMEGA_FLOOR, 2 * OMEGA_FLOOR]
    theta_jump = draw(st.sampled_from(small if omega == "floor" else small + [0.2, 0.5]))
    proto, _ = grid_protocol(positions, comm_radius=1.6, sink=count + 1, theta_jump=theta_jump)
    table = proto.build_tables()[0]
    assert len(table.members) == count
    states = st.sampled_from([STATE_NORMAL, STATE_NORMAL, STATE_NORMAL, STATE_CONG, STATE_FAULTY, STATE_VOID])
    for e in table.members:
        e.tx_count = draw(st.integers(0, 2))
        e.delay_est = draw(st.sampled_from([0.5, 1.0, 1.28, 2.0, 4.0]))
        e.cached_state = draw(states)
    previous = draw(st.sampled_from((RATE_LOW, RATE_MEDIUM, RATE_HIGH)))
    worst = max(e.delay_est for e in table.members)
    step = draw(st.sampled_from([-1, 0, 1]))
    if omega == "free":
        return proto, table, draw(st.floats(0.1, 200.0)), previous
    if omega == "floor":
        # 2**-10 over 1000 * 2**-10 is OMEGA_FLOOR, and worst + 2**-10 is exact
        table.needed_time = 1000 * 2.0**-10
        lifetime = worst + 2.0**-10
    elif omega == "one":
        lifetime = worst + 1.0
        table.needed_time = lifetime - worst
    else:
        # one hop to go: the clamp at 1 then decides between LOW and MEDIUM
        table.needed_time = MU
        lifetime = worst + draw(st.sampled_from([1.1, 1.25, 1.5, 3.0, 50.0])) * MU
    if step:
        lifetime = math.nextafter(lifetime, math.copysign(math.inf, step))
    return proto, table, lifetime, previous


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=member_tables())
def test_select_forward_target_and_rate_match_the_defining_keys(case):
    proto, table, lifetime, previous = case
    packet = make_packet(0, now=0.0, lifetime=lifetime)
    packet.rate_class = previous
    members = table.members
    uses = [e.tx_count for e in members]
    d = proto.select_next_hop(table, packet, now=0.0, rng=random.Random(1))
    eligible = [
        e for e in members if e.cached_state is STATE_NORMAL and e.delay_est <= lifetime
    ]
    lam = compute_lambda(lifetime, table.needed_time)
    worst = max(e.delay_est for e in members)
    th = compute_thresholds(
        proto.cfg.theta_jump, table.needed_time, worst, worst, MU, lifetime
    )
    if not eligible or lam <= th.theta_jump:
        assert isinstance(d, Jump)
        assert [e.tx_count for e in members] == uses
        assert packet.rate_class is previous
        return
    used = {e.candidate: u for e, u in zip(members, uses)}
    best = min(eligible, key=lambda e: (used[e.candidate], -e.delay_est, e.candidate))
    assert d == Forward(
        next=best.candidate, rate=pin_rate_continuity(previous, classify_rate(lam, th))
    )
    # the forward is committed: one more use of its target, and its rate band
    assert [e.tx_count - u for e, u in zip(members, uses)] == [
        int(e is best) for e in members
    ]
    assert packet.rate_class is d.rate


def test_select_jumps_when_all_candidates_are_bad():
    proto, table = two_candidate_table()
    packet = make_packet(0, now=0.0, lifetime=100.0)
    table.entry(1).cached_state = STATE_CONG
    table.entry(2).cached_state = STATE_FAULTY
    d = proto.select_next_hop(table, packet, now=0.0, rng=random.Random(1))
    assert isinstance(d, Jump)


def test_select_jumps_in_propagated_states():
    proto, table = two_candidate_table()
    packet = make_packet(0, now=0.0, lifetime=100.0)
    for state in (STATE_JFAULTY, STATE_JCONG, STATE_VOID):
        table.state = state
        d = proto.select_next_hop(table, packet, now=0.0, rng=random.Random(1))
        assert isinstance(d, Jump)


def test_select_jumps_on_exhausted_slack():
    proto, table = two_candidate_table()
    # lifetime so short that lambda <= theta_jump: needed 2*mu = 2.56,
    # remaining 0.5 -> lambda 0.195 < 0.2
    packet = make_packet(0, now=0.0, lifetime=0.5)
    d = proto.select_next_hop(table, packet, now=0.0, rng=random.Random(1))
    assert isinstance(d, Jump)


def test_low_slack_packets_get_high_rate():
    proto, table = two_candidate_table()
    packet = make_packet(0, now=0.0, lifetime=100.0)
    d = proto.select_next_hop(table, packet, now=0.0, rng=random.Random(1))
    assert d.rate is RATE_LOW  # lambda = 100 / 2.56 >> theta_low
    tight = make_packet(0, now=0.0, lifetime=1.5)
    # lambda = 1.5 / 2.56 = 0.59, theta_high = 0.2 + 1.28 / 2.56 = 0.7:
    # the HIGH band, and the 1.28 ms hop still fits the remaining 1.5 ms
    d = proto.select_next_hop(table, tight, now=0.0, rng=random.Random(1))
    assert isinstance(d, Forward)
    # LOW -> HIGH in one hop is pinned to MEDIUM
    assert d.rate is RATE_MEDIUM
    tight.rate_class = RATE_MEDIUM
    d = proto.select_next_hop(table, tight, now=0.0, rng=random.Random(1))
    assert d.rate is RATE_HIGH


# ----------------------------------------------------------------------
# transmission outcomes


def test_forward_failures_erode_confidence():
    proto, table = two_candidate_table()
    reports = record_reports(proto)
    entry = table.entry(1)
    proto.on_forward_result(table, entry, False, now=1.0)
    proto.on_forward_result(table, entry, False, now=2.0)
    assert entry.cached_state is STATE_NORMAL and reports == []
    proto.on_forward_result(table, entry, False, now=3.0)
    assert entry.cached_state is STATE_FAULTY
    proto.on_forward_result(table, entry, True, now=4.0)
    assert entry.cached_state is STATE_NORMAL
    assert entry.misses == 0


def test_jump_success_ratio_arithmetic():
    proto, table = two_candidate_table()
    reports = record_reports(proto)
    proto.ensure_jump_entries(table)
    entry = table.entry(1)
    for i in range(3):
        proto.on_jump_result(table, entry, True, now=float(i))
    assert (entry.successes, entry.attempts) == (3, 3)
    assert entry.suc == pytest.approx(1.0)
    assert reports == []
    # 3 successes, then a failure: suc = (3 - 1) / 4 = 0.5
    proto.on_jump_result(table, entry, False, now=4.0)
    assert (entry.successes, entry.attempts) == (3, 4)
    assert entry.suc == pytest.approx(0.5)
    assert [f.kind for f in reports] == [FB_JUMP_FAIL]


@pytest.mark.parametrize("acked", [True, False])
def test_a_forward_result_updates_the_member_its_forward_carried(acked):
    # the pool is built, so the member sits in it as well: the result lands
    # on the one object, whichever list finds it
    proto, table = two_candidate_table()
    proto.ensure_jump_entries(table)
    packet = make_packet(0, now=0.0, lifetime=100.0)
    d = proto.select_next_hop(table, packet, now=0.0, rng=random.Random(1))
    assert isinstance(d, Forward)
    entry = d.entry
    assert entry is table.entry(d.next)
    entries = pool_entries(table.jump_pool)
    assert any(e is entry for e in table.members) and any(e is entry for e in entries)
    entry.misses = 1
    proto.on_forward_result(table, entry, acked, now=1.0)
    assert entry.misses == (0 if acked else 2)
    assert [e.misses for e in pool_entries(table.jump_pool) if e is not entry] == [0, 0]


@pytest.mark.parametrize("acked", [True, False])
def test_a_jump_result_updates_the_pool_entry_that_was_drawn(acked):
    # a packet out of slack jumps; a draw of 0.99 over three equal shares
    # picks the pool's last entry, the sink, which is no member
    proto, table = two_candidate_table()
    packet = make_packet(0, now=0.0, lifetime=0.5)
    d = proto.select_next_hop(table, packet, now=0.0, rng=FixedRng([0.99]))
    assert isinstance(d, Jump) and d.next == 3
    assert d.entry is pool_entries(table.jump_pool)[-1] and d.entry is table.entry(3)
    proto.on_jump_result(table, d.entry, acked, now=1.0)
    assert (d.entry.attempts, d.entry.successes) == (1, int(acked))
    assert [e.attempts for e in pool_entries(table.jump_pool)] == [0, 0, 1]


def test_first_jump_failure_zeroes_the_candidate():
    proto, table = two_candidate_table()
    proto.ensure_jump_entries(table)
    proto.on_jump_result(table, table.entry(1), False, now=0.0)
    assert table.entry(1).suc == 0.0
    # and the pool's probability mass moves away from it
    entries = pool_entries(table.jump_pool)
    shares = dict(zip([e.candidate for e in entries], jump_probabilities(entries)))
    assert shares[1] == 0.0
    assert sum(p for c, p in shares.items() if c != 1) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# feedback handling


def test_feedback_caches_subject_state_by_kind():
    proto, table = two_candidate_table()
    reports = record_reports(proto)
    # a report's kind is the state it reports, cached as it arrives
    for kind in (STATE_FAULTY, STATE_CONG, STATE_VOID, STATE_NORMAL):
        msg = FeedbackMessage(kind=kind)
        proto.on_feedback(table, msg, from_node=1, now=1.0, rng=random.Random(1))
        assert FB_JUMP_FAIL not in [f.kind for f in reports]
        assert table.entry(1).cached_state is kind


def test_feedback_drives_derived_state():
    proto, table = two_candidate_table()
    reports = record_reports(proto)
    for sender in (1, 2):
        msg = FeedbackMessage(kind=STATE_CONG)
        proto.on_feedback(table, msg, from_node=sender, now=1.0, rng=random.Random(1))
        # the first report leaves one member uncongested: no state change
        assert len(reports) == sender - 1
    assert table.state is STATE_JCONG
    assert [f.kind for f in reports] == [STATE_CONG]


def test_jump_fail_feedback_scales_suc_and_reforwards():
    proto, table = two_candidate_table()
    reports = record_reports(proto)
    proto.ensure_jump_entries(table)
    entry = table.entry(1)
    entry.suc = 0.8
    msg = FeedbackMessage(kind=FB_JUMP_FAIL, hop_limit=3)
    proto.on_feedback(table, msg, from_node=1, now=1.0, rng=FixedRng([0.25]))
    assert entry.suc == pytest.approx(0.8 * 0.25)
    assert [(f.kind, f.hop_limit) for f in reports] == [(FB_JUMP_FAIL, 2)]


def test_jump_fail_feedback_stops_at_hop_limit():
    proto, table = two_candidate_table()
    reports = record_reports(proto)
    msg = FeedbackMessage(kind=FB_JUMP_FAIL, hop_limit=1)
    proto.on_feedback(table, msg, from_node=1, now=1.0, rng=FixedRng([0.25]))
    assert reports == []
