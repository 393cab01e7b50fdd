"""Unit tests for the greedy reference strategies, and a slow twin of each
run's decision object: its ranking memo against ranking afresh per call.
There is one ranking, the most progress toward the sink, then the lowest id;
GREEDY_MAX_RATE is GREEDY_MIN_DELAY's second name."""

import collections

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dmrfsim import baselines
from dmrfsim.baselines import (
    PROTOCOL_CLASSES,
    bypass_next_hop,
    greedy_max_rate,
    greedy_min_delay,
    rank_candidates,
)
from dmrfsim.config import BYPASS, DMRF, ScenarioConfig
from dmrfsim.model import RATE_MEDIUM, make_packet
from dmrfsim.protocol import DROP_NO_ROUTE, Drop, Forward
from dmrfsim.topology import Topology, build_fcs


def topo_of(positions, comm_radius=1.5, sink=None):
    nodes = [(i, pos) for i, pos in enumerate(positions)]
    return Topology(
        nodes=nodes,
        comm_radius=comm_radius,
        max_tx_distance=30.0,
        source=0,
        sink=len(positions) - 1 if sink is None else sink,
    )


def fresh_packet():
    return make_packet(0, now=0.0, lifetime=100.0)


def test_min_delay_ties_break_on_progress_then_id():
    # 2 is closer to the sink than 1; 3 and 4 make equal progress
    topo = topo_of(
        [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (1.0, 0.5), (1.0, -0.5), (2.0, 0.0)], sink=5
    )
    d = greedy_min_delay(rank_candidates(topo, 0, [1, 2]))
    assert d == Forward(next=2, rate=RATE_MEDIUM)
    assert rank_candidates(topo, 0, [4, 3]) == [3, 4]


def test_greedy_drops_with_no_candidate():
    topo = topo_of([(0.0, 0.0), (1.0, 0.0)])
    ranked = rank_candidates(topo, 0, [])
    assert greedy_min_delay(ranked) == Drop(DROP_NO_ROUTE)
    # GREEDY_MAX_RATE's decision function is GREEDY_MIN_DELAY's
    assert greedy_max_rate is greedy_min_delay


def test_bypass_uses_greedy_while_candidates_live():
    # 2 makes more progress than 1
    topo = topo_of([(0.0, 0.0), (1.0, 0.5), (1.2, 0.0), (2.2, 0.0)], sink=3)
    ranked = rank_candidates(topo, 0, [1, 2])
    d = bypass_next_hop(topo, 0, ranked, fresh_packet(), {0, 1, 2, 3})
    assert d.next == 2
    # candidate 2 dies: greedy shifts to 1
    d = bypass_next_hop(topo, 0, ranked, fresh_packet(), {0, 1, 3})
    assert d.next == 1


def test_bypass_sidesteps_around_a_dead_frontier():
    # all progress candidates dead; 3 sits beside 0, perpendicular to the
    # sink bearing, and is the only live way out
    topo = topo_of(
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0)], comm_radius=1.2, sink=2
    )
    live = {0, 2, 3}
    ranked = rank_candidates(topo, 0, [1])
    d = bypass_next_hop(topo, 0, ranked, fresh_packet(), live)
    assert isinstance(d, Forward)
    assert d.next == 3


def test_bypass_refuses_nodes_already_on_the_trace():
    topo = topo_of(
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0)], comm_radius=1.2, sink=2
    )
    live = {0, 2, 3}
    packet = fresh_packet()
    packet.hop_trace.append(3)  # already visited the sidestep
    ranked = rank_candidates(topo, 0, [1])
    d = bypass_next_hop(topo, 0, ranked, packet, live)
    assert isinstance(d, Drop) and d.reason is DROP_NO_ROUTE


def test_bypass_prefers_smallest_clockwise_deviation():
    # both 3 (above) and 4 (below) are live sidesteps; the clockwise sweep
    # from the sink bearing reaches the one below first
    topo = topo_of(
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
        comm_radius=1.2,
        sink=2,
    )
    live = {0, 2, 3, 4}
    ranked = rank_candidates(topo, 0, [1])
    d = bypass_next_hop(topo, 0, ranked, fresh_packet(), live)
    assert d.next == 4


@pytest.mark.parametrize("near, far", [(2, 3), (3, 2)])
def test_bypass_sidesteps_to_the_lowest_id_among_equal_deviations(near, far):
    # the one forward candidate, 1, is dead; 2 and 3 lie on one bearing from
    # 0, straight up, so they deviate equally, and neither is on the trace
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), near: (0.0, 1.0), far: (0.0, 2.0), 4: (3.0, 0.0)}
    topo = topo_of([positions[i] for i in range(5)], comm_radius=2.2, sink=4)
    assert build_fcs(topo, 0) == [1] and topo.neighbors(0) == [1, 2, 3]
    d = bypass_next_hop(topo, 0, [1], fresh_packet(), {0, 2, 3, 4})
    assert d == Forward(next=2, rate=RATE_MEDIUM)


# ----------------------------------------------------------------------
# ranking once against choosing per call with the original keys


def _progress(topo, node, candidate):
    return topo.distance(node, topo.sink) - topo.distance(candidate, topo.sink)


@st.composite
def candidate_sets(draw):
    count = draw(st.integers(3, 10))
    # a coarse lattice of coordinates, so equal progress occurs
    coord = st.integers(-4, 4).map(lambda v: v * 0.5)
    positions = [(draw(coord), draw(coord)) for _ in range(count)]
    # node 0 decides, the last node is the sink, any others are candidates
    candidates = draw(st.lists(st.integers(1, count - 2), unique=True))
    live = set(draw(st.lists(st.integers(0, count - 1), unique=True)))
    return topo_of(positions, comm_radius=10.0), candidates, live


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=candidate_sets())
def test_ranked_choice_equals_the_per_call_keys(case):
    topo, candidates, live = case
    packet = fresh_packet()

    def key(c):
        return (-_progress(topo, 0, c), c)

    d = greedy_min_delay(rank_candidates(topo, 0, candidates))
    b = bypass_next_hop(topo, 0, rank_candidates(topo, 0, candidates), packet, live)
    if not candidates:
        assert d == Drop(DROP_NO_ROUTE)
    else:
        assert d.next == min(candidates, key=key)
    alive = [c for c in candidates if c in live]
    if alive:
        assert b == Forward(next=min(alive, key=key), rate=RATE_MEDIUM)
    else:
        # nothing live makes progress: the sidestep decides, as before
        assert b == bypass_next_hop(topo, 0, [], packet, live)


# ----------------------------------------------------------------------
# a run's decision object against ranking afresh at every decision


@st.composite
def baseline_runs(draw):
    count = draw(st.integers(3, 9))
    coord = st.integers(-4, 4).map(lambda v: v * 0.5)
    positions = [(draw(coord), draw(coord)) for _ in range(count)]
    topo = topo_of(positions, comm_radius=draw(st.sampled_from([1.0, 1.5, 3.0])))
    node = st.integers(0, count - 1)
    # each decision: the deciding relay (never the sink, the last node), the
    # run's live set and the packet's hop trace
    asks = draw(st.lists(
        st.tuples(st.integers(0, count - 2), st.sets(node), st.lists(node, max_size=4)),
        min_size=1, max_size=12))
    names = sorted(name for name in PROTOCOL_CLASSES if name != DMRF)
    return draw(st.sampled_from(names)), topo, asks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=baseline_runs())
def test_a_runs_decisions_equal_ranking_afresh_and_rank_each_node_once(case):
    name, topo, asks = case
    cfg = ScenarioConfig(protocol=name)
    ranks = collections.Counter()

    def counted(topo, node, *rest):
        ranks[node] += 1
        return rank_candidates(topo, node, *rest)

    baselines.rank_candidates = counted
    try:
        baseline = PROTOCOL_CLASSES[name](topo, cfg)
        for node, live, trace in asks:
            packet = fresh_packet()
            packet.hop_trace[:] = trace
            fresh = rank_candidates(topo, node, build_fcs(topo, node))
            if name == BYPASS:
                expected = bypass_next_hop(topo, node, fresh, packet, live)
            else:
                expected = greedy_min_delay(fresh)
            assert baseline.decide(node, packet, 0.0, live) == expected, (node, live, trace)
    finally:
        baselines.rank_candidates = rank_candidates
    assert set(ranks) == {node for node, _live, _trace in asks}
    assert set(ranks.values()) == {1}
