"""Reference forwarding strategies the protocol is measured against.

All three are geographic greedy variants: no probing, no feedback, no learned
statistics. They act on the initialization-time candidate sets and pay for
their staleness in lost packets, which is the point of the comparison. A run
of a baseline builds one object here, a `Greedy` or a `Bypass`, the engine's
only view of the baseline: its `decide` picks each next hop, and it has no
other hook. `PROTOCOL_CLASSES` maps every protocol's name, DMRF's too, to the
class of its runs' object; it is the engine's one way to a protocol. A baseline
object's one piece of state is a ranking memo: a node's candidates never
change during a run, so each node ranks them at its first decision and keeps
the order. There is one ranking, the most progress toward the sink, then the
lowest id. GREEDY_MAX_RATE is a second name for GREEDY_MIN_DELAY: with every
link at one mean delay, progress per delay orders exactly as progress does.
The name is kept only while the benchmark's pinned workloads run it. When no
live candidate is left, the void-bypass variant sidesteps to the live neighbor
whose bearing deviates least clockwise from the sink's, never back onto the
packet's trace; it does not walk the void's perimeter.
"""

from __future__ import annotations

import math

from .config import BYPASS, DMRF, GREEDY_MAX_RATE, GREEDY_MIN_DELAY, ScenarioConfig
from .model import RATE_MEDIUM, NodeId, Packet
from .protocol import DROP_NO_ROUTE, Decision, DmrfProtocol, Drop, Forward
from .topology import Topology, build_fcs


def rank_candidates(topo: Topology, node: NodeId, candidates: list[NodeId]) -> list[NodeId]:
    """The candidate ids, best first: ascending (-progress, id), the most
    geographic progress toward the sink, then the lowest id. A node's
    candidates never change during a run, so each node ranks them once.
    """
    to_sink = topo.sink_distances
    d_node = to_sink[node]
    return sorted(candidates, key=lambda c: (-(d_node - to_sink[c]), c))


def greedy_min_delay(ranked: list[NodeId]) -> Decision:
    """Forward to the first of the node's ranked candidates
    (`rank_candidates`). GREEDY_MAX_RATE's `greedy_max_rate` is this
    function under its second name."""
    if not ranked:
        return Drop(DROP_NO_ROUTE)
    return Forward(ranked[0], RATE_MEDIUM)


greedy_max_rate = greedy_min_delay


def bypass_next_hop(
    topo: Topology,
    node: NodeId,
    ranked: list[NodeId],
    packet: Packet,
    live: set[NodeId],
) -> Decision:
    """Greedy forwarding with a sidestep around voids.

    Unlike the blind greedy variants this one knows which of its neighbors
    are alive (getting round a void requires local void awareness): it takes
    the first live candidate in the ranking. When no live candidate makes
    progress, it sidesteps to the live neighbor whose bearing deviates least
    clockwise from the sink bearing, refusing nodes already on the packet's
    trace to avoid orbiting the void forever.
    """
    for candidate in ranked:
        if candidate in live:
            return Forward(candidate, RATE_MEDIUM)
    x, y = topo.position(node)
    sx, sy = topo.position(topo.sink)
    alpha = math.atan2(sy - y, sx - x)
    visited = set(packet.hop_trace)
    best_id = None
    best_dev = math.inf
    for nb in topo.neighbors(node):
        if nb not in live or nb in visited:
            continue
        nx, ny = topo.position(nb)
        beta = math.atan2(ny - y, nx - x)
        deviation = (alpha - beta) % (2.0 * math.pi)
        # the neighbours come once each in ascending id order, so the strict
        # < keeps the lowest id among equal deviations
        if deviation < best_dev:
            best_dev = deviation
            best_id = nb
    if best_id is None:
        return Drop(DROP_NO_ROUTE)
    return Forward(best_id, RATE_MEDIUM)


class _Ranking(dict):
    """Node id -> its forwarding candidates on the full deployment, best
    first (`rank_candidates`). A node is ranked at its first lookup; a hit
    is a plain dict lookup."""

    def __init__(self, topo: Topology) -> None:
        super().__init__()
        self.topo = topo

    def __missing__(self, node: NodeId) -> list[NodeId]:
        ranked = self[node] = rank_candidates(self.topo, node, build_fcs(self.topo, node))
        return ranked


class Greedy:
    """GREEDY_MIN_DELAY, and GREEDY_MAX_RATE, its second name: the first
    ranked candidate, dead or alive. Like `Bypass`, it calls its decision
    function by its module-level name, so a wrapper set on the module sees
    every decision."""

    def __init__(self, topo: Topology, cfg: ScenarioConfig) -> None:
        self.ranked = _Ranking(topo)

    def decide(self, node: NodeId, packet: Packet, now: float, live: set[NodeId]) -> Decision:
        return greedy_min_delay(self.ranked[node])


class Bypass:
    """BYPASS: the first live ranked candidate, else the sidestep of
    `bypass_next_hop`."""

    def __init__(self, topo: Topology, cfg: ScenarioConfig) -> None:
        self.topo = topo
        self.ranked = _Ranking(topo)

    def decide(self, node: NodeId, packet: Packet, now: float, live: set[NodeId]) -> Decision:
        return bypass_next_hop(self.topo, node, self.ranked[node], packet, live)


#: a protocol's name -> the class of its runs' protocol object
PROTOCOL_CLASSES = {DMRF: DmrfProtocol, GREEDY_MIN_DELAY: Greedy, GREEDY_MAX_RATE: Greedy,
                    BYPASS: Bypass}
