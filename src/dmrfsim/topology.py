"""Node deployments, forwarding candidate sets, hop-count delay
estimates and void carving.

All operations are pure functions over immutable-by-convention Topology
values: carve_void returns the ids it carves, which a run treats as dead
from time zero. A Topology memoizes what it derives (sorted ids, cell index,
position box, sink distances, neighbour lists, sink hop counts, forward sets,
carved voids) on first use, so one can serve many runs; its positions, radii
and sink never change.

One grid of cells a hair wider than comm_radius indexes the nodes. The first
neighbors() call builds every node's list in one sweep over it, testing each
pair in a cell and its forward-adjacent cells once; within() serves the
longer jump-pool queries from the same grid, or returns every other node
untested when the reach covers the nodes' whole box.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .model import NodeId

UNIFORM_GRID = "UNIFORM_GRID"
RANDOM = "RANDOM"

DISTRIBUTIONS = (UNIFORM_GRID, RANDOM)

Position = tuple[float, float]

#: sentinel for "no path to the sink"
UNREACHABLE = math.inf

#: the cell side is comm_radius * (1 + _CELL_SLACK), so that a pair whose
#: distance rounds onto the radius lies at most one cell apart; within() boxes
#: grow by this many cells per side, so that a node whose distance rounds onto
#: the radius at a cell edge is scanned (both exact below 1e8 cells); and
#: within() skips the scan when the farthest corner of the nodes' box lies
#: inside the radius shrunk by this share
_CELL_SLACK = 2.0**-20


@dataclass
class Topology:
    """A deployed network: node positions plus radio geometry.

    neighbor(i, j) holds iff dist(i, j) <= comm_radius. max_tx_distance
    bounds the long-range (jump) reach, never the neighbor relation.
    """

    nodes: list[tuple[NodeId, Position]]
    region: tuple[float, float]
    comm_radius: float
    max_tx_distance: float
    source: NodeId
    sink: NodeId

    def __post_init__(self) -> None:
        if self.comm_radius > self.max_tx_distance:
            raise ValueError("comm_radius must not exceed max_tx_distance")
        self._pos = dict(self.nodes)
        self._side = self.comm_radius * (1.0 + _CELL_SLACK)
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
        cells, _span = self._grid
        radius = self.comm_radius
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
    def _grid(self) -> tuple[dict[tuple[int, int], list], tuple[int, int, int, int]]:
        """The cell index, cell -> [(id, x, y)], and the (low x, high x,
        low y, high y) cell span the nodes occupy."""
        side = self._side
        cells: dict[tuple[int, int], list] = {}
        for other, (ox, oy) in self._pos.items():
            key = (math.floor(ox / side), math.floor(oy / side))
            cells.setdefault(key, []).append((other, ox, oy))
        xs, ys = [cx for cx, _ in cells], [cy for _, cy in cells]
        return cells, (min(xs), max(xs), min(ys), max(ys))

    @cached_property
    def _bounds(self) -> tuple[float, float, float, float]:
        """The (low x, high x, low y, high y) box of the node positions."""
        xs, ys = [x for x, _ in self._pos.values()], [y for _, y in self._pos.values()]
        return min(xs), max(xs), min(ys), max(ys)

    def within(self, node: NodeId, radius: float) -> list[NodeId]:
        """All other nodes whose distance() from `node` is at most `radius`,
        sorted by id. When the farthest corner of the nodes' box lies inside
        `radius` by the _CELL_SLACK margin, which dwarfs hypot()'s rounding,
        that is every other node, with no distance test. Otherwise only the
        grid cells where the query box overlaps the occupied span are
        scanned, or the occupied cells if they are fewer."""
        x, y = self._pos[node]
        lo, hi, bottom, top = self._bounds
        far = math.hypot(max(x - lo, hi - x), max(y - bottom, top - y))
        if far <= radius * (1.0 - _CELL_SLACK):
            ids = self._sorted_ids
            out = list(ids)
            del out[bisect_left(ids, node)]
            return out
        cells, (lo_x, hi_x, lo_y, hi_y) = self._grid
        side = self._side
        reach = radius / side + _CELL_SLACK
        x0, x1 = max(lo_x, math.floor(x / side - reach)), min(hi_x, math.floor(x / side + reach))
        y0, y1 = max(lo_y, math.floor(y / side - reach)), min(hi_y, math.floor(y / side + reach))
        if (x1 - x0 + 1) * (y1 - y0 + 1) > len(cells):
            keys = cells
        else:
            keys = product(range(x0, x1 + 1), range(y0, y1 + 1))
        out = []
        for key in keys:
            for other, ox, oy in cells.get(key, ()):
                if other != node and math.hypot(x - ox, y - oy) <= radius:
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
        region=region,
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
