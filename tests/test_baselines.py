"""Unit tests for the greedy reference strategies, and a slow twin of each
run's decision object: its ranking memo against ranking afresh per call."""

import collections

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
from dmrfsim.config import BYPASS, DMRF, GREEDY_MAX_RATE, ScenarioConfig
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


def test_min_delay_picks_fastest_candidate():
    topo = topo_of([(0.0, 0.0), (1.0, 0.5), (1.0, -0.5), (2.0, 0.0)], sink=3)
    ranked = rank_candidates(topo, 0, [(1, 2.0), (2, 1.0)])
    d = greedy_min_delay(ranked)
    assert d == Forward(next=2, rate=RATE_MEDIUM)


def test_min_delay_ties_break_on_progress_then_id():
    # 1 and 2 tie on delay; 2 is closer to the sink
    topo = topo_of([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (2.0, 0.0)], sink=3)
    ranked = rank_candidates(topo, 0, [(1, 1.0), (2, 1.0)])
    d = greedy_min_delay(ranked)
    assert d.next == 2


def test_greedy_drops_with_no_candidate():
    topo = topo_of([(0.0, 0.0), (1.0, 0.0)])
    for by_rate in (False, True):
        ranked = rank_candidates(topo, 0, [], by_rate=by_rate)
        assert greedy_min_delay(ranked) == greedy_max_rate(ranked) == Drop(DROP_NO_ROUTE)


def test_max_rate_divides_progress_by_delay():
    topo = topo_of([(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (2.0, 0.0)], sink=3)
    # 1 advances 1.0 m in 2 ms (0.5 m/ms); 2 advances 0.5 m in 0.5 ms (1 m/ms)
    ranked = rank_candidates(topo, 0, [(1, 2.0), (2, 0.5)], by_rate=True)
    d = greedy_max_rate(ranked)
    assert d.next == 2


def test_bypass_uses_greedy_while_candidates_live():
    topo = topo_of([(0.0, 0.0), (1.0, 0.5), (1.0, -0.5), (2.0, 0.0)], sink=3)
    live = {0, 1, 2, 3}
    ranked = rank_candidates(topo, 0, [(1, 2.0), (2, 1.0)])
    d = bypass_next_hop(topo, 0, ranked, fresh_packet(), live)
    assert d.next == 2
    # candidate 2 dies: greedy shifts to 1
    ranked = rank_candidates(topo, 0, [(1, 2.0), (2, 1.0)])
    d = bypass_next_hop(topo, 0, ranked, fresh_packet(), {0, 1, 3})
    assert d.next == 1


def test_bypass_sidesteps_around_a_dead_frontier():
    # all progress candidates dead; 3 sits beside 0, perpendicular to the
    # sink bearing, and is the only live way out
    topo = topo_of(
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0)], comm_radius=1.2, sink=2
    )
    live = {0, 2, 3}
    ranked = rank_candidates(topo, 0, [(1, 1.0)])
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
    ranked = rank_candidates(topo, 0, [(1, 1.0)])
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
    ranked = rank_candidates(topo, 0, [(1, 1.0)])
    d = bypass_next_hop(topo, 0, ranked, fresh_packet(), live)
    assert d.next == 4


# ----------------------------------------------------------------------
# ranking once against choosing per call with the original keys


def _progress(topo, node, candidate):
    return topo.distance(node, topo.sink) - topo.distance(candidate, topo.sink)


@st.composite
def candidate_sets(draw):
    count = draw(st.integers(3, 10))
    # a coarse lattice of coordinates, so equal delays and equal progress occur
    coord = st.integers(-4, 4).map(lambda v: v * 0.5)
    positions = [(draw(coord), draw(coord)) for _ in range(count)]
    # node 0 decides, the last node is the sink, any others are candidates
    chosen = draw(st.lists(st.integers(1, count - 2), unique=True))
    delay = st.sampled_from([0.5, 1.0, 1.28, 2.0, 3.0])
    candidates = [(c, draw(delay)) for c in chosen]
    live = set(draw(st.lists(st.integers(0, count - 1), unique=True)))
    return topo_of(positions, comm_radius=10.0), candidates, live


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=candidate_sets())
def test_ranked_choice_equals_the_per_call_keys(case):
    topo, candidates, live = case
    packet = fresh_packet()

    def min_delay_key(c):
        return (c[1], -_progress(topo, 0, c[0]), c[0])

    def max_rate_key(c):
        return (_progress(topo, 0, c[0]) / c[1], -c[0])

    d = greedy_min_delay(rank_candidates(topo, 0, candidates))
    r = greedy_max_rate(rank_candidates(topo, 0, candidates, by_rate=True))
    b = bypass_next_hop(topo, 0, rank_candidates(topo, 0, candidates), packet, live)
    if not candidates:
        assert d == r == Drop(DROP_NO_ROUTE)
    else:
        assert d.next == min(candidates, key=min_delay_key)[0]
        assert r.next == max(candidates, key=max_rate_key)[0]
    alive = [c for c in candidates if c[0] in live]
    if alive:
        assert b == Forward(next=min(alive, key=min_delay_key)[0], rate=RATE_MEDIUM)
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
            candidates = [(c, cfg.mean_hop_delay_ms) for c in build_fcs(topo, node)]
            fresh = rank_candidates(topo, node, candidates, by_rate=name == GREEDY_MAX_RATE)
            if name == BYPASS:
                expected = bypass_next_hop(topo, node, fresh, packet, live)
            else:
                expected = greedy_min_delay(fresh)
            assert baseline.decide(node, packet, 0.0, live) == expected, (node, live, trace)
    finally:
        baselines.rank_candidates = rank_candidates
    assert set(ranks) == {node for node, _live, _trace in asks}
    assert set(ranks.values()) == {1}
