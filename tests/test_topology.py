"""Unit tests for deployments, candidate sets, voids, and hop-count delays."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmrfsim.config import BYPASS, DMRF, ScenarioConfig, validate
from dmrfsim.engine import Simulation, run
from dmrfsim.topology import (
    _CELL_SLACK,
    RANDOM,
    UNIFORM_GRID,
    UNREACHABLE,
    Topology,
    build_fcs,
    carve_void,
    deploy,
    shortest_delay_map,
)


def line_topology(positions, comm_radius=1.5, max_tx=30.0, source=None, sink=None):
    nodes = [(i, pos) for i, pos in enumerate(positions)]
    return Topology(
        nodes=nodes,
        comm_radius=comm_radius,
        max_tx_distance=max_tx,
        source=0 if source is None else source,
        sink=len(positions) - 1 if sink is None else sink,
    )


def test_grid_deploy_spacing_and_endpoints():
    topo = deploy(400, (20.0, 20.0), UNIFORM_GRID, rng_seed=1)
    assert len(topo.nodes) == 400
    assert topo.source == 0
    assert topo.sink == 399
    assert topo.position(0) == (0.0, 0.0)
    x, y = topo.position(399)
    assert x == pytest.approx(20.0) and y == pytest.approx(20.0)
    # 20x20 lattice: spacing 20/19 on both axes
    assert topo.position(1)[0] == pytest.approx(20.0 / 19.0)


def test_grid_deploy_is_eight_connected_at_default_radius():
    topo = deploy(400, (20.0, 20.0), UNIFORM_GRID, rng_seed=1)
    # an interior node sees its 8 lattice neighbors and nothing else
    inner = 21  # row 1, col 1
    assert len(topo.neighbors(inner)) == 8


def test_random_deploy_is_seed_deterministic():
    a = deploy(30, (10.0, 10.0), RANDOM, rng_seed=42)
    b = deploy(30, (10.0, 10.0), RANDOM, rng_seed=42)
    c = deploy(30, (10.0, 10.0), RANDOM, rng_seed=43)
    assert a.nodes == b.nodes
    assert a.nodes != c.nodes
    assert a.source != a.sink


def test_deploy_rejects_bad_arguments():
    with pytest.raises(ValueError):
        deploy(1, (10.0, 10.0), UNIFORM_GRID, rng_seed=1)
    with pytest.raises(ValueError):
        deploy(10, (10.0, 10.0), "hexagonal", rng_seed=1)


def test_comm_radius_may_not_exceed_max_tx():
    with pytest.raises(ValueError):
        Topology(
            nodes=[(0, (0.0, 0.0)), (1, (1.0, 0.0))],
            comm_radius=5.0,
            max_tx_distance=2.0,
            source=0,
            sink=1,
        )


def test_fcs_members_are_strictly_closer_neighbors():
    # 0 -- 1 -- 2(sink), unit spacing
    topo = line_topology([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert build_fcs(topo, 1) == [2]
    # the sink-adjacent node never lists the node behind it
    assert build_fcs(topo, 0) == [1]


def test_fcs_empty_for_local_minimum():
    # node 1's only neighbor sits behind it, so nothing makes progress
    topo = line_topology(
        [(-1.0, 0.0), (0.0, 0.0), (5.0, 0.0)], comm_radius=1.2, sink=2
    )
    assert build_fcs(topo, 1) == []


def test_fcs_unknown_node_raises():
    topo = line_topology([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        build_fcs(topo, 99)


def test_carve_void_removes_strict_interior_only():
    topo = line_topology([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    # node 1 is at distance 0 < 1 (carved); nodes 0 and 2 sit exactly on the
    # rim (distance == radius) and stay
    assert carve_void(topo, (1.0, 0.0), 1.0) == [1]
    assert topo.ids() == [0, 1, 2, 3]


def test_carve_void_never_removes_endpoints():
    topo = line_topology([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert carve_void(topo, (0.0, 0.0), 50.0) == [1]
    assert carve_void(topo, (0.0, 0.0), 0.0) == []


def test_carve_void_refuses_a_negative_radius():
    topo = line_topology([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(ValueError, match="void radius must be non-negative"):
        carve_void(topo, (1.0, 0.0), -1.0)


def test_shortest_delay_is_hops_times_mu():
    topo = line_topology([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    delays = shortest_delay_map(topo, 1.28)
    assert delays[0] == pytest.approx(3 * 1.28)
    assert delays[2] == pytest.approx(1.28)
    assert delays[3] == 0.0


def test_shortest_delay_unreachable_is_infinite():
    topo = line_topology([(0.0, 0.0), (10.0, 0.0)])
    delays = shortest_delay_map(topo, 1.28)
    assert delays[0] == UNREACHABLE
    assert math.isinf(delays[0])


# ----------------------------------------------------------------------
# the cell index behind neighbors() against a brute-force scan


def brute_within(topo, node, radius):
    return [o for o in topo.ids() if o != node and topo.distance(node, o) <= radius]


def brute_jump(topo, node):
    """The jump pool by a full scan: every node within max_tx_distance that
    is strictly closer to the sink."""
    d = topo.distance(node, topo.sink)
    return [
        o
        for o in brute_within(topo, node, topo.max_tx_distance)
        if topo.distance(o, topo.sink) < d
    ]


def assert_index_matches_scan(topo):
    for node in topo.ids():
        assert topo.neighbors(node) == brute_within(topo, node, topo.comm_radius)
        assert topo.jump_candidates(node) == brute_jump(topo, node)


_oracle = settings(max_examples=40, deadline=None, derandomize=True)


@_oracle
@given(
    count=st.integers(2, 120),
    width=st.floats(0.5, 40.0),
    height=st.floats(0.5, 40.0),
    comm_radius=st.floats(0.05, 6.0),
    reach=st.floats(1.0, 8.0),
    seed=st.integers(0, 2**32),
)
def test_index_matches_scan_on_random_deployments(
    count, width, height, comm_radius, reach, seed
):
    topo = deploy(count, (width, height), RANDOM, seed, comm_radius, comm_radius * reach)
    assert_index_matches_scan(topo)


@_oracle
@given(
    count=st.integers(2, 120),
    width=st.floats(0.5, 40.0),
    height=st.floats(0.5, 40.0),
    cells_per_radius=st.sampled_from([1, 2, 3]),
    reach=st.integers(1, 6),
)
def test_index_matches_scan_on_grids_spaced_at_the_radius(
    count, width, height, cells_per_radius, reach
):
    # comm_radius is a whole number of lattice spacings, so every node sits
    # on a cell edge and many pairs lie at exactly the radius
    spacing = width / (math.ceil(math.sqrt(count)) - 1)  # as deploy() lays it out
    comm_radius = spacing * cells_per_radius
    topo = deploy(count, (width, height), UNIFORM_GRID, 1, comm_radius, comm_radius * reach)
    assert_index_matches_scan(topo)


def one_ulp_layout(radius, max_tx):
    """Nodes on and one ulp either side of the cell edges k * radius for k in
    -3..3: negative cell indices, and distances that round onto the radius."""
    coords = []
    for k in range(-3, 4):
        edge = k * radius
        coords += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    nodes = [
        (i, (x, y)) for i, (x, y) in enumerate((x, y) for x in coords for y in coords[::4])
    ]
    return Topology(
        nodes=nodes,
        comm_radius=radius,
        max_tx_distance=max_tx,
        source=0,
        sink=len(nodes) - 1,
    )


@pytest.mark.parametrize("radius", [0.1, 0.3, 1.0 / 3.0, 1.5, 20.0 / 19.0, 7.5])
def test_index_matches_scan_one_ulp_around_cell_edges(radius):
    assert_index_matches_scan(one_ulp_layout(radius, 2 * radius))


@pytest.mark.parametrize(
    "topo",
    [
        deploy(400, (20.0, 20.0), UNIFORM_GRID, 1),  # table2: 30 m reach, 20 m grid
        one_ulp_layout(1.0 / 3.0, 20.0),
        one_ulp_layout(7.5, 100.0),
        deploy(25, (4.0, 4.0), UNIFORM_GRID, 1, 0.01, 30.0),  # box >> occupied cells
    ],
    ids=["table2", "one-ulp-third", "one-ulp-7.5", "tiny-radius"],
)
def test_within_matches_scan_when_the_query_box_outgrows_the_deployment(topo):
    # every node's jump reach overhangs the deployment on both sides of both
    # axes, so a pool can hold every node closer to the sink
    assert_index_matches_scan(topo)


@st.composite
def bulk_layouts(draw):
    """A comm_radius and positions of one of four kinds: uniform draws, a
    lattice spaced at the radius, a few positions repeated, or coordinates one
    ulp either side of the cell edges k * side, padded or not."""
    radius = draw(st.floats(0.05, 6.0))
    kind = draw(st.sampled_from(["random", "lattice", "duplicates", "edges"]))
    if kind == "edges":
        coords = []
        for side in (radius, radius * (1.0 + _CELL_SLACK)):
            for k in range(-3, 4):
                edge = k * side
                coords += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
        coord = st.sampled_from(coords)
    elif kind == "lattice":
        coord = st.integers(-4, 4).map(lambda k: k * radius)
    else:
        coord = st.floats(-4 * radius, 4 * radius)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=60))
    if kind == "duplicates":
        positions += draw(st.lists(st.sampled_from(positions), min_size=1, max_size=20))
    return radius, positions


@settings(max_examples=200, deadline=None, derandomize=True)
@given(layout=bulk_layouts())
def test_bulk_neighbour_lists_match_scan(layout):
    radius, positions = layout
    topo = line_topology(positions, comm_radius=radius, max_tx=2 * radius)
    for node in topo.ids():
        assert topo.neighbors(node) == brute_within(topo, node, radius)


def nudged(value, ulps):
    """`value` moved `ulps` ulps up, or down when `ulps` is negative."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def farthest_corner(topo, node):
    """The distance from `node` to the farthest corner of the box the node
    positions span."""
    xs = [topo.position(n)[0] for n in topo.ids()]
    ys = [topo.position(n)[1] for n in topo.ids()]
    x, y = topo.position(node)
    return math.hypot(max(x - min(xs), max(xs) - x), max(y - min(ys), max(ys) - y))


@st.composite
def corner_layouts(draw):
    """A deploy() lattice or uniform draw, or a Topology built directly from
    drawn positions, negative ones among them, whose region does not hold
    them."""
    kind = draw(st.sampled_from(["grid", "random", "direct"]))
    count = draw(st.integers(2, 49))
    width, height = draw(st.floats(0.5, 40.0)), draw(st.floats(0.5, 40.0))
    if kind != "direct":
        mode = UNIFORM_GRID if kind == "grid" else RANDOM
        return deploy(count, (width, height), mode, draw(st.integers(0, 2**32)), 0.5, 30.0)
    coord = st.floats(-width, width)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=count))
    return line_topology(positions, comm_radius=0.5, max_tx=30.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    topo=corner_layouts(),
    radius=st.sampled_from(["at", "ulps", "shrunk", "grown", "margin", "margin-ulps"]),
    ulps=st.sampled_from([-3, -2, -1, 1, 2, 3]),
)
def test_jump_candidates_equal_the_scan_at_the_farthest_corner(topo, radius, ulps):
    """Every node's jump_candidates() with max_tx_distance on the farthest
    corner of the node box, where the pool takes in every node closer to
    the sink, a few ulps off it and a share of 2**-20 either side, equals a
    brute-force distance() scan."""
    for node in topo.ids():
        far = farthest_corner(topo, node)
        r = {
            "at": far,
            "ulps": nudged(far, ulps),
            "shrunk": far * (1.0 - _CELL_SLACK),
            "grown": far * (1.0 + _CELL_SLACK),
            "margin": far / (1.0 - _CELL_SLACK),
            "margin-ulps": nudged(far / (1.0 - _CELL_SLACK), ulps),
        }[radius]
        # comm_radius may not exceed the reach
        reach = dataclasses.replace(topo, comm_radius=min(topo.comm_radius, r), max_tx_distance=r)
        assert reach.jump_candidates(node) == brute_jump(reach, node)


@st.composite
def collinear_layouts(draw):
    """The sink, node 0, and nodes on one line through it at whole multiples
    of the reach from it, each coordinate a few ulps off. On the line the
    triangle inequality holds with equality, so a node one reach nearer the
    sink than another sits on the bound of that node's sink-distance slice,
    on one side or the other as the distances round."""
    reach = draw(st.floats(0.05, 40.0))
    angle = draw(st.floats(0.0, 2 * math.pi))
    sx, sy = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
    ulps = st.integers(-3, 3)
    positions = [(sx, sy)]
    for k in draw(st.lists(st.integers(-2, 8), min_size=2, max_size=24)):
        x, y = sx + k * reach * math.cos(angle), sy + k * reach * math.sin(angle)
        positions.append((nudged(x, draw(ulps)), nudged(y, draw(ulps))))
    return Topology(
        nodes=list(enumerate(positions)),
        comm_radius=reach,
        max_tx_distance=reach,
        source=1,
        sink=0,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(topo=collinear_layouts())
def test_jump_candidates_equal_the_scan_on_a_line_through_the_sink(topo):
    for node in topo.ids():
        assert topo.jump_candidates(node) == brute_jump(topo, node)


def test_a_dmrf_set_up_builds_every_list_in_one_sweep_and_keeps_no_cell_index(monkeypatch):
    topo = deploy(400, (20.0, 20.0), UNIFORM_GRID, 1)
    sweeps, orders = [], []
    lists, order = Topology.__dict__["_neighbor_lists"], Topology.__dict__["_sink_order"]
    build_lists, build_order = lists.func, order.func

    def recorded_lists(self):
        sweeps.append(build_lists(self))
        return sweeps[-1]

    def recorded_order(self):
        orders.append(build_order(self))
        return orders[-1]

    monkeypatch.setattr(lists, "func", recorded_lists)
    monkeypatch.setattr(order, "func", recorded_order)
    sim = Simulation(topo, validate(ScenarioConfig(seed=1)))
    assert len(sweeps) == 1 and len(sweeps[0]) == 400
    assert vars(topo)["_neighbor_lists"] is sweeps[0]
    assert orders == []
    # what the set-up kept beside the fields: no cell index, no sink order
    fields = {f.name for f in dataclasses.fields(topo)}
    assert set(vars(topo)) - fields == {
        "_pos", "_forward_sets", "_voids", "_sorted_ids",
        "sink_distances", "sink_hops", "_neighbor_lists",
    }
    # the first jump pool builds the sink order; a second pool reuses it
    first, second = list(sim.protocol.tables.values())[:2]
    sim.protocol.ensure_jump_entries(first)
    assert len(orders) == 1 and vars(topo)["_sink_order"] is orders[0]
    sim.protocol.ensure_jump_entries(second)
    assert len(orders) == 1 and second.jump_pool.ids
    assert len(sweeps) == 1


def test_runs_leave_the_shared_neighbour_lists_intact():
    cfg = validate(ScenarioConfig(
        node_count=36, region=(5.0, 5.0), comm_radius=1.2, void_center=(2.5, 2.5),
        void_radius=2.0, fault_ratio=0.2, packet_count=20, seed=3))
    topo = deploy(36, (5.0, 5.0), UNIFORM_GRID, 3, 1.2)
    for protocol in (DMRF, BYPASS):
        run(topo, dataclasses.replace(cfg, protocol=protocol))
    lists = vars(topo)["_neighbor_lists"]  # the runs built it
    assert len(lists) == 36
    for node, nbrs in lists.items():
        assert nbrs == brute_within(topo, node, topo.comm_radius)


# ----------------------------------------------------------------------
# the sink-distance table


def assert_sink_table_exact(topo):
    table = topo.sink_distances
    assert sorted(table) == topo.ids()
    for node in topo.ids():
        assert table[node] == topo.distance(node, topo.sink)


@pytest.mark.parametrize("mode", [UNIFORM_GRID, RANDOM])
def test_sink_distances_equal_distance_bit_for_bit(mode):
    topo = deploy(150, (11.0, 7.0), mode, rng_seed=5)
    assert_sink_table_exact(topo)
    moved = dataclasses.replace(topo, source=topo.sink, sink=topo.source)
    assert moved.sink != topo.sink
    assert "sink_distances" not in vars(moved)  # a replaced topology starts bare
    assert_sink_table_exact(moved)
    assert moved.sink_distances[topo.sink] > 0.0


# ----------------------------------------------------------------------
# the forward-set, id and carved-void memos against fresh derivations


def brute_fcs(topo, node):
    d_self = topo.distance(node, topo.sink)
    return [nb for nb in topo.neighbors(node) if topo.distance(nb, topo.sink) < d_self]


def brute_carve(topo, center, radius):
    cx, cy = center
    return sorted(
        i for i, (x, y) in topo.nodes
        if i not in (topo.source, topo.sink) and math.hypot(x - cx, y - cy) < radius
    )


@_oracle
@given(
    count=st.integers(2, 120),
    width=st.floats(0.5, 40.0),
    height=st.floats(0.5, 40.0),
    comm_radius=st.floats(0.05, 6.0),
    mode=st.sampled_from([UNIFORM_GRID, RANDOM]),
    seed=st.integers(0, 2**32),
)
def test_forward_sets_equal_the_neighbours_filtered_by_sink_distance(
    count, width, height, comm_radius, mode, seed
):
    topo = deploy(count, (width, height), mode, seed, comm_radius, 30.0 + comm_radius)
    ids = topo.ids()
    for node in ids + ids[::-1]:  # derived, then read back from the memo
        assert build_fcs(topo, node) == brute_fcs(topo, node)
    assert sorted(vars(topo)["_forward_sets"]) == ids
    # a topology with its ends swapped starts bare and derives its own sets
    moved = dataclasses.replace(topo, source=topo.sink, sink=topo.source)
    for node in ids:
        assert build_fcs(moved, node) == brute_fcs(moved, node)


VOIDS = [((10.0, 10.0), 7.0), ((10.0, 10.0), 3.0), ((10, 10), 7), ((0.0, 0.0), 5.0),
         ((20.0, 20.0), 50.0), ((4.5, 15.25), 0.0), ((13.0, 6.0), 4.0)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from([UNIFORM_GRID, RANDOM]),
    calls=st.lists(st.sampled_from(VOIDS), min_size=1, max_size=12),
)
def test_carved_voids_equal_a_fresh_scan_whatever_the_call_order(mode, calls):
    topo = deploy(150, (20.0, 20.0), mode, 5, 2.0)
    for center, radius in calls:
        assert carve_void(topo, center, radius) == brute_carve(topo, center, radius)
    assert len(vars(topo)["_voids"]) == len({(*c, r) for c, r in calls})


def test_a_mutated_return_value_changes_no_later_call_or_run():
    cfg = validate(ScenarioConfig(
        node_count=36, region=(5.0, 5.0), comm_radius=1.2, void_center=(2.5, 2.5),
        void_radius=2.0, fault_ratio=0.2, packet_count=20, seed=3))

    def deployed():
        return deploy(36, (5.0, 5.0), UNIFORM_GRID, 3, 1.2)

    topo, fresh = deployed(), deployed()
    run(topo, cfg)  # fills every memo
    returned = [topo.ids(), carve_void(topo, cfg.void_center, cfg.void_radius)]
    returned += [build_fcs(topo, node) for node in topo.ids()]
    for values in returned:
        values.reverse()
        values.append(-1)
    assert topo.ids() == fresh.ids()
    assert carve_void(topo, cfg.void_center, cfg.void_radius) == brute_carve(
        fresh, cfg.void_center, cfg.void_radius)
    for node in fresh.ids():
        assert build_fcs(topo, node) == brute_fcs(fresh, node)
    for protocol in (DMRF, BYPASS):
        base = dataclasses.replace(cfg, protocol=protocol)
        shared, alone = run(topo, base), run(deployed(), base)
        assert shared.metrics == alone.metrics
        assert shared.packets == alone.packets
        assert shared.transitions == alone.transitions
