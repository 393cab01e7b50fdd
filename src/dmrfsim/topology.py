"""Node deployments, forwarding candidate sets, delay oracles, void
carving, and node-disjoint source-to-sink paths.

All operations are pure functions over immutable-by-convention Topology
values: carve_void returns a new Topology rather than mutating.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .model import NodeId

UNIFORM_GRID = "UNIFORM_GRID"
RANDOM = "RANDOM"

DISTRIBUTIONS = (UNIFORM_GRID, RANDOM)

Position = tuple[float, float]

#: sentinel for "no path to the sink"
UNREACHABLE = math.inf

#: query boxes grow by this many cells per side, so that a node whose distance
#: rounds onto the radius at a cell edge is scanned (exact below 1e8 cells)
_CELL_SLACK = 1e-6


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
    _pos: dict[NodeId, Position] = field(init=False, repr=False)
    # comm_radius grid cell -> [(id, x, y)], built by the first radius query,
    # and the (low x, high x, low y, high y) cell span the nodes occupy
    _cells: dict[tuple[int, int], list] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _span: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)
    _to_sink: dict[NodeId, float] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.comm_radius > self.max_tx_distance:
            raise ValueError("comm_radius must not exceed max_tx_distance")
        self._pos = dict(self.nodes)

    def ids(self) -> list[NodeId]:
        return sorted(self._pos)

    def has_node(self, node: NodeId) -> bool:
        return node in self._pos

    def position(self, node: NodeId) -> Position:
        return self._pos[node]

    def distance(self, a: NodeId, b: NodeId) -> float:
        (ax, ay), (bx, by) = self._pos[a], self._pos[b]
        return math.hypot(ax - bx, ay - by)

    def sink_distances(self) -> dict[NodeId, float]:
        """Every node's distance() to the sink, computed on first use; a
        topology's positions and sink never change."""
        if self._to_sink is None:
            sx, sy = self._pos[self.sink]
            self._to_sink = {n: math.hypot(x - sx, y - sy) for n, (x, y) in self._pos.items()}
        return self._to_sink

    def neighbors(self, node: NodeId) -> list[NodeId]:
        """All nodes within comm_radius, sorted by id."""
        return self.within(node, self.comm_radius)

    def within(self, node: NodeId, radius: float) -> list[NodeId]:
        """All other nodes whose distance() from `node` is at most `radius`,
        sorted by id; only the grid cells where the query box overlaps the
        occupied span are scanned."""
        side = self.comm_radius
        if self._cells is None:
            self._cells = {}
            for other, (ox, oy) in self._pos.items():
                key = (math.floor(ox / side), math.floor(oy / side))
                self._cells.setdefault(key, []).append((other, ox, oy))
            xs, ys = [cx for cx, _ in self._cells], [cy for _, cy in self._cells]
            self._span = (min(xs), max(xs), min(ys), max(ys))
        x, y = self._pos[node]
        reach = radius / side + _CELL_SLACK
        lo_x, hi_x, lo_y, hi_y = self._span
        x0, x1 = max(lo_x, math.floor(x / side - reach)), min(hi_x, math.floor(x / side + reach))
        y0, y1 = max(lo_y, math.floor(y / side - reach)), min(hi_y, math.floor(y / side + reach))
        out = []
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                for other, ox, oy in self._cells.get((cx, cy), ()):
                    if other != node and math.hypot(x - ox, y - oy) <= radius:
                        out.append(other)
        out.sort()
        return out

    def with_endpoints(self, source: NodeId, sink: NodeId) -> Topology:
        return Topology(
            nodes=list(self.nodes),
            region=self.region,
            comm_radius=self.comm_radius,
            max_tx_distance=self.max_tx_distance,
            source=source,
            sink=sink,
        )


@dataclass
class PathSet:
    """Node-disjoint source->sink paths with per-path delay estimates."""

    paths: list[list[NodeId]]
    delays: list[float]


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
    detection pipeline consumes.
    """
    if not topo.has_node(node):
        raise ValueError(f"unknown node {node}")
    to_sink = topo.sink_distances()
    d_self = to_sink[node]
    return [nb for nb in topo.neighbors(node) if to_sink[nb] < d_self]


def carve_void(topo: Topology, center: Position, radius: float) -> Topology:
    """Remove every node strictly inside the disc; source and sink are
    never removed. Candidate structures must be rebuilt by the caller."""
    if radius < 0:
        raise ValueError("void radius must be non-negative")
    cx, cy = center
    kept = [
        (i, (x, y))
        for i, (x, y) in topo.nodes
        if i in (topo.source, topo.sink) or math.hypot(x - cx, y - cy) >= radius
    ]
    return Topology(
        nodes=kept,
        region=topo.region,
        comm_radius=topo.comm_radius,
        max_tx_distance=topo.max_tx_distance,
        source=topo.source,
        sink=topo.sink,
    )


def _hops_from_sink(topo: Topology) -> dict[NodeId, int]:
    """BFS hop counts to the sink over the neighbor graph."""
    hops = {topo.sink: 0}
    frontier = [topo.sink]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in topo.neighbors(node):
                if nb not in hops:
                    hops[nb] = hops[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return hops


def shortest_delay_map(topo: Topology, mean_hop_delay: float) -> dict[NodeId, float]:
    """Estimated transmission time to the sink for every node at once."""
    hops = _hops_from_sink(topo)
    return {
        node: hops[node] * mean_hop_delay if node in hops else UNREACHABLE
        for node in topo.ids()
    }


def shortest_delay(topo: Topology, from_node: NodeId, mean_hop_delay: float) -> float:
    """Estimated transmission time from a node to the sink: minimum hop
    count times the mean per-hop delay; UNREACHABLE if disconnected."""
    if not topo.has_node(from_node):
        raise ValueError(f"unknown node {from_node}")
    return shortest_delay_map(topo, mean_hop_delay)[from_node]


def disjoint_paths(topo: Topology, m: int, mean_hop_delay: float = 1.28) -> PathSet:
    """Up to m node-disjoint source->sink paths.

    Found by successive shortest augmenting paths in the node-split
    residual network, so the number of returned paths always equals
    min(m, max-flow) under unit interior-node capacities.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    source, sink = topo.source, topo.sink
    if source == sink:
        return PathSet(paths=[[source]], delays=[0.0])

    # split each node v into (v, IN) -> (v, OUT); interior split edges get
    # capacity 1, which is what makes the paths node-disjoint
    IN, OUT = 0, 1
    big = len(topo.nodes)
    cap: dict[tuple, dict[tuple, int]] = {}

    def ensure(u: tuple) -> dict[tuple, int]:
        return cap.setdefault(u, {})

    def add_edge(u: tuple, v: tuple, c: int) -> None:
        ensure(u)[v] = c
        ensure(v).setdefault(u, 0)

    for node in topo.ids():
        add_edge((node, IN), (node, OUT), 1 if node not in (source, sink) else big)
    for node in topo.ids():
        for nb in topo.neighbors(node):
            add_edge((node, OUT), (nb, IN), 1)

    s, t = (source, OUT), (sink, IN)
    flow_total = 0
    while flow_total < m:
        parent: dict[tuple, tuple] = {s: s}
        frontier = [s]
        while frontier and t not in parent:
            nxt = []
            for u in frontier:
                for v in sorted(cap[u]):
                    if v not in parent and cap[u][v] > 0:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        if t not in parent:
            break
        v = t
        while v != s:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow_total += 1

    # per-edge flow = original capacity minus residual, on forward edges only
    flow: dict[tuple, dict[tuple, int]] = {}
    for node in topo.ids():
        split_cap = 1 if node not in (source, sink) else big
        sent = split_cap - cap[(node, IN)][(node, OUT)]
        if sent > 0:
            flow.setdefault((node, IN), {})[(node, OUT)] = sent
        for nb in topo.neighbors(node):
            sent = 1 - cap[(node, OUT)][(nb, IN)]
            if sent > 0:
                flow.setdefault((node, OUT), {})[(nb, IN)] = sent

    paths: list[list[NodeId]] = []
    for _ in range(flow_total):
        path = [source]
        u = s
        while u != t:
            v = min(v for v, f in flow.get(u, {}).items() if f > 0)
            flow[u][v] -= 1
            u = v
            if u[1] == IN:
                path.append(u[0])
        paths.append(path)

    delays = [(len(p) - 1) * mean_hop_delay for p in paths]
    return PathSet(paths=paths, delays=delays)
