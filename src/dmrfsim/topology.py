"""Node deployments, forwarding candidate sets, hop-count delay
estimates and void carving.

All operations are pure functions over immutable-by-convention Topology
values: carve_void returns the ids it carves, which a run treats as dead
from time zero. A Topology memoizes what it derives (sorted ids, sink
distances, sink-distance order, neighbour lists, sink hop counts, forward
sets, carved voids) on first use, so one can serve many runs; its positions,
radii and sink never change.

The first neighbors() call builds every node's list in one sweep over a grid
of cells a hair wider than comm_radius, testing each pair in a cell and its
forward-adjacent cells once; the grid is dropped once the lists are built.
jump_candidates() tests only the slice of the nodes, in sink-distance order,
that the triangle inequality leaves in reach.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .model import NodeId

UNIFORM_GRID = "UNIFORM_GRID"
RANDOM = "RANDOM"

DISTRIBUTIONS = (UNIFORM_GRID, RANDOM)

Position = tuple[float, float]

#: sentinel for "no path to the sink"
UNREACHABLE = math.inf

#: the cell side is comm_radius * (1 + _CELL_SLACK), so that a pair whose
#: distance rounds onto the radius lies at most one cell apart; and
#: jump_candidates() widens its sink-distance slice by this share of
#: d + reach, so that a node whose distances round across a bound is tested
_CELL_SLACK = 2.0**-20


@dataclass
class Topology:
    """A deployed network: node positions plus radio geometry.

    neighbor(i, j) holds iff dist(i, j) <= comm_radius. max_tx_distance
    bounds the long-range (jump) reach, never the neighbor relation.
    """

    nodes: list[tuple[NodeId, Position]]
    comm_radius: float
    max_tx_distance: float
    source: NodeId
    sink: NodeId

    def __post_init__(self) -> None:
        if self.comm_radius > self.max_tx_distance:
            raise ValueError("comm_radius must not exceed max_tx_distance")
        self._pos = dict(self.nodes)
        # filled one entry at a time: by build_fcs, per node, and by
        # carve_void, per centre and radius
        self._forward_sets: dict[NodeId, tuple[NodeId, ...]] = {}
        self._voids: dict[tuple[float, float, float], tuple[NodeId, ...]] = {}

    @cached_property
    def _sorted_ids(self) -> tuple[NodeId, ...]:
        return tuple(sorted(self._pos))

    def ids(self) -> list[NodeId]:
        return list(self._sorted_ids)

    def position(self, node: NodeId) -> Position:
        return self._pos[node]

    def distance(self, a: NodeId, b: NodeId) -> float:
        (ax, ay), (bx, by) = self._pos[a], self._pos[b]
        return math.hypot(ax - bx, ay - by)

    @cached_property
    def sink_distances(self) -> dict[NodeId, float]:
        """Every node's distance() to the sink."""
        sx, sy = self._pos[self.sink]
        return {n: math.hypot(x - sx, y - sy) for n, (x, y) in self._pos.items()}

    @cached_property
    def sink_hops(self) -> dict[NodeId, int]:
        """BFS hop counts to the sink over the neighbor graph, for every node
        connected to it."""
        hops = {self.sink: 0}
        frontier = [self.sink]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in self.neighbors(node):
                    if nb not in hops:
                        hops[nb] = hops[node] + 1
                        nxt.append(nb)
            frontier = nxt
        return hops

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """All nodes within comm_radius, sorted by id. The first call builds
        every node's list at once.

        The list is shared by every caller and every run on this topology:
        read it, never mutate it."""
        return self._neighbor_lists[node]

    @cached_property
    def _neighbor_lists(self) -> dict[NodeId, list[NodeId]]:
        """Every node's neighbours: each pair in one cell or in a cell and one
        of its 4 forward-adjacent cells is tested once, and a hit goes on both
        lists. The padded cell side puts every pair in range at most one cell
        apart, and hypot() is exact under swapping the ends."""
        radius = self.comm_radius
        side = radius * (1.0 + _CELL_SLACK)
        cells: dict[tuple[int, int], list] = {}
        for node, (x, y) in self._pos.items():
            cell = (math.floor(x / side), math.floor(y / side))
            cells.setdefault(cell, []).append((node, x, y))
        hypot = math.hypot
        nbrs: dict[NodeId, list[NodeId]] = {node: [] for node in self._pos}
        for (cx, cy), members in cells.items():
            # the cell's members, then those of its forward-adjacent cells: a
            # member is tested against everything after it
            ahead = members.copy()
            for key in ((cx + 1, cy), (cx - 1, cy + 1), (cx, cy + 1), (cx + 1, cy + 1)):
                ahead += cells.get(key, ())
            for a, ax, ay in members:
                del ahead[0]
                near = nbrs[a]
                for b, bx, by in ahead:
                    if hypot(ax - bx, ay - by) <= radius:
                        near.append(b)
                        nbrs[b].append(a)
        # sorted copies, allocated one after another at their final size,
        # replace the lists that grew side by side and would fragment the heap
        for node, near in nbrs.items():
            nbrs[node] = sorted(near)
        return nbrs

    @cached_property
    def _sink_order(self) -> list[NodeId]:
        """The node ids sorted by (sink distance, id)."""
        return sorted(self._sorted_ids, key=self.sink_distances.__getitem__)

    def jump_candidates(self, node: NodeId) -> list[NodeId]:
        """The nodes strictly closer to the sink whose distance() from `node`
        is at most max_tx_distance, sorted by id: the jump pool. By the
        triangle inequality their sink distances lie in [d - reach, d), so
        only that slice of _sink_order is tested; its low end moves down by
        a _CELL_SLACK share of d + reach, which dwarfs hypot()'s rounding."""
        order, to_sink, pos = self._sink_order, self.sink_distances, self._pos
        d, reach = to_sink[node], self.max_tx_distance
        key = to_sink.__getitem__
        lo = bisect_left(order, d - reach - (d + reach) * _CELL_SLACK, key=key)
        hi = bisect_left(order, d, lo, key=key)
        x, y = pos[node]
        hypot = math.hypot
        out = []
        for other in order[lo:hi]:
            ox, oy = pos[other]
            if hypot(x - ox, y - oy) <= reach:
                out.append(other)
        out.sort()
        return out


def deploy(
    count: int,
    region: tuple[float, float],
    mode: str,
    rng_seed: int,
    comm_radius: float = 1.5,
    max_tx_distance: float = 30.0,
) -> Topology:
    """Place `count` nodes in the region.

    UNIFORM_GRID fills the densest ceil(sqrt(count))-per-side lattice
    spanning the region, row-major from the origin; RANDOM draws i.i.d.
    uniform positions from the seeded generator. Source and sink default to
    the nodes nearest (0, 0) and (width, height).
    """
    if count < 2:
        raise ValueError(f"need at least 2 nodes, got {count}")
    if mode not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {mode!r}")
    width, height = region
    nodes: list[tuple[NodeId, Position]] = []
    if mode == UNIFORM_GRID:
        side = math.ceil(math.sqrt(count))
        sx = width / (side - 1)
        sy = height / (side - 1)
        for i in range(count):
            row, col = divmod(i, side)
            nodes.append((i, (col * sx, row * sy)))
    else:
        rng = random.Random(rng_seed)
        for i in range(count):
            nodes.append((i, (rng.uniform(0, width), rng.uniform(0, height))))

    def nearest(target: Position, exclude: NodeId = -1) -> NodeId:
        tx, ty = target
        return min(
            (n for n in nodes if n[0] != exclude),
            key=lambda n: (math.hypot(n[1][0] - tx, n[1][1] - ty), n[0]),
        )[0]

    source = nearest((0.0, 0.0))
    sink = nearest((width, height), exclude=source)  # random draws can clump
    return Topology(
        nodes=nodes,
        comm_radius=comm_radius,
        max_tx_distance=max_tx_distance,
        source=source,
        sink=sink,
    )


def build_fcs(topo: Topology, node: NodeId) -> list[NodeId]:
    """The forwarding candidate set: the ids of the neighbors strictly closer
    to the sink, sorted.

    An empty list is a valid return and is exactly the void indication the
    detection pipeline consumes. The set is derived once per topology and
    node; each call returns a list of its own.
    """
    fcs = topo._forward_sets.get(node)
    if fcs is None:
        to_sink = topo.sink_distances
        try:
            d_self = to_sink[node]
        except KeyError:
            raise ValueError(f"unknown node {node}") from None
        near = topo._neighbor_lists[node]
        fcs = topo._forward_sets[node] = tuple([nb for nb in near if to_sink[nb] < d_self])
    return list(fcs)


def carve_void(topo: Topology, center: Position, radius: float) -> list[NodeId]:
    """The ids of every node strictly inside the disc, sorted; source and
    sink are never carved. The scan runs once per topology, centre and
    radius; each call returns a list of its own."""
    if radius < 0:
        raise ValueError("void radius must be non-negative")
    cx, cy = center
    carved = topo._voids.get((cx, cy, radius))
    if carved is None:
        carved = topo._voids[cx, cy, radius] = tuple(sorted(
            i
            for i, (x, y) in topo.nodes
            if i not in (topo.source, topo.sink) and math.hypot(x - cx, y - cy) < radius
        ))
    return list(carved)


def shortest_delay_map(topo: Topology, mean_hop_delay: float) -> dict[NodeId, float]:
    """Estimated transmission time to the sink for every node: minimum hop
    count times the mean per-hop delay, UNREACHABLE where disconnected."""
    hops = topo.sink_hops
    return {
        node: hops[node] * mean_hop_delay if node in hops else UNREACHABLE
        for node in topo.ids()
    }
