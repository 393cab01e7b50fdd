"""Reference forwarding strategies the protocol is measured against.

All three are geographic greedy variants: no probing, no feedback, no learned
statistics. They act on the initialization-time candidate sets and pay for
their staleness in lost packets, which is the point of the comparison. A run
of a baseline builds one object here, a `Greedy` or a `Bypass`, the engine's
only view of the baseline: its `decide` picks each next hop. The object's one
piece of state is a ranking memo: a node's candidates and their delays never
change during a run, so each node ranks them at its first decision and keeps
the order. When no live candidate is left, the void-bypass variant sidesteps
to the live neighbor whose bearing deviates least clockwise from the sink's,
never back onto the packet's trace; it does not walk the void's perimeter.
"""

from __future__ import annotations

import math

from .config import BYPASS, GREEDY_MAX_RATE, GREEDY_MIN_DELAY, ScenarioConfig
from .model import RATE_MEDIUM, NodeId, Packet
from .protocol import DROP_NO_ROUTE, Decision, Drop, Forward
from .topology import Topology, build_fcs


def rank_candidates(
    topo: Topology,
    node: NodeId,
    candidates: list[tuple[NodeId, float]],
    by_rate: bool = False,
) -> list[NodeId]:
    """Candidate ids, best first. candidates is a list of (id, delay_estimate).

    The default order is ascending (delay, -progress, id): the smallest delay
    estimate, then the most geographic progress toward the sink, then the
    lowest id. With by_rate it is descending (progress / delay, -id): the most
    progress per unit of delay, then the lowest id. A node's candidates and
    their delays never change during a run, so each node ranks them once.
    """
    to_sink = topo.sink_distances
    d_node = to_sink[node]
    scored = [(c, delay, d_node - to_sink[c]) for c, delay in candidates]
    if by_rate:
        scored.sort(key=lambda s: (s[2] / s[1], -s[0]), reverse=True)
    else:
        scored.sort(key=lambda s: (s[1], -s[2], s[0]))
    return [c for c, _delay, _progress in scored]


def greedy_min_delay(ranked: list[NodeId]) -> Decision:
    """Forward to the first of the node's ranked candidates.

    This is both greedy variants: GREEDY_MIN_DELAY ranks by delay,
    GREEDY_MAX_RATE by progress per unit of delay (`rank_candidates`).
    """
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
    the first live candidate in the delay ranking. When no live candidate makes
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
        if deviation < best_dev or (deviation == best_dev and nb < best_id):
            best_dev = deviation
            best_id = nb
    if best_id is None:
        return Drop(DROP_NO_ROUTE)
    return Forward(best_id, RATE_MEDIUM)


class _Ranking(dict):
    """Node id -> its forwarding candidates on the full deployment, best
    first, every link at the mean hop delay (`rank_candidates`), by progress
    per delay in a GREEDY_MAX_RATE run. A node is ranked at its first lookup;
    a hit is a plain dict lookup."""

    def __init__(self, topo: Topology, cfg: ScenarioConfig) -> None:
        super().__init__()
        self.topo = topo
        self.delay = cfg.mean_hop_delay_ms
        self.by_rate = cfg.protocol == GREEDY_MAX_RATE

    def __missing__(self, node: NodeId) -> list[NodeId]:
        candidates = [(c, self.delay) for c in build_fcs(self.topo, node)]
        ranked = self[node] = rank_candidates(self.topo, node, candidates, self.by_rate)
        return ranked


class Greedy:
    """GREEDY_MIN_DELAY and GREEDY_MAX_RATE: the first ranked candidate,
    dead or alive. Like `Bypass`, it calls its decision function by its
    module-level name, so a wrapper set on the module sees every decision."""

    def __init__(self, topo: Topology, cfg: ScenarioConfig) -> None:
        self.ranked = _Ranking(topo, cfg)

    def decide(self, node: NodeId, packet: Packet, live: set[NodeId]) -> Decision:
        return greedy_min_delay(self.ranked[node])


class Bypass:
    """BYPASS: the first live candidate in the delay ranking, else the
    sidestep of `bypass_next_hop`."""

    def __init__(self, topo: Topology, cfg: ScenarioConfig) -> None:
        self.topo = topo
        self.ranked = _Ranking(topo, cfg)

    def decide(self, node: NodeId, packet: Packet, live: set[NodeId]) -> Decision:
        return bypass_next_hop(self.topo, node, self.ranked[node], packet, live)


#: a baseline's name -> the class of its runs' decision object
BASELINES = {GREEDY_MIN_DELAY: Greedy, GREEDY_MAX_RATE: Greedy, BYPASS: Bypass}
