"""Measure the memory a run holds per node, per probe link and per jump
pool candidate.

For N = 900, 3,600 and 10,000 nodes at the table2 density (a square of side
`20 * sqrt(N / 400)` m, the preset's 400 nodes on 20 m), runs DMRF and
GREEDY_MIN_DELAY once each in two shapes, one packet and a 5 ms horizon,
then 20 packets and no horizon but the default, and prints the
`tracemalloc` peak over deploy, `Simulation` construction and `run()`,
divided by N. For DMRF it also prints the live probe links, those of the
probe layout whose peer is alive, and the peak divided by them: the bytes a
run holds per link, node records and neighbour lists included. And it
prints the candidates its jump pools list, the entries those pools hold
(members and drawn targets; any other candidate holds none), and the peak
divided by the candidates. A baseline probes nothing and builds no pool,
and prints `-` there.

A small warm-up run first settles the allocations made once per process, so
the order of the rows changes nothing. The output is the same from run to
run on one Python minor version, which is printed first. It takes about 15 s.

    python tools/bytes_per_node.py
"""

from __future__ import annotations

import gc
import math
import platform
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dmrfsim.config import DMRF, GREEDY_MIN_DELAY, from_dict  # noqa: E402
from dmrfsim.engine import Simulation  # noqa: E402
from dmrfsim.topology import deploy  # noqa: E402

NODE_COUNTS = (900, 3_600, 10_000)
PROTOCOLS = (DMRF, GREEDY_MIN_DELAY)
#: (title, config keys) of each run shape
SHAPES = (
    ("1 packet, 5 ms horizon", {"packet_count": 1, "horizon_ms": 5}),
    ("20 packets, no horizon", {"packet_count": 20}),
)


def config(node_count: int, protocol: str, shape: dict):
    side = 20.0 * math.sqrt(node_count / 400)
    return from_dict({"preset": "table2", "node_count": node_count, "region": [side, side],
                      "protocol": protocol, **shape})


def measure(node_count: int, protocol: str, shape: dict) -> tuple[int, int, int, int]:
    """The `tracemalloc` peak of deploy, construction and run, in bytes, the
    run's live probe links, and its jump pools' candidates and held
    entries."""
    cfg = config(node_count, protocol, shape)
    gc.collect()
    tracemalloc.start()
    try:
        topo = deploy(cfg.node_count, tuple(cfg.region), cfg.distribution, cfg.seed,
                      cfg.comm_radius, cfg.max_tx_distance)
        sim = Simulation(topo, cfg)
        sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # DMRF's probe layout is (joules, tables, entries, peers, silent); a
    # baseline's protocol object has none
    layout = getattr(sim.protocol, "_layout", None)
    links = len(layout[2]) if layout is not None else 0
    pools = [t.jump_pool for t in getattr(sim.protocol, "tables", {}).values()
             if t.jump_pool is not None]
    candidates = sum(len(pool.ids) for pool in pools)
    held = sum(len(pool.held) for pool in pools)
    return peak, links, candidates, held


def main() -> None:
    print(f"Python {platform.python_version()} ({platform.python_implementation()})")
    measure(25, DMRF, SHAPES[0][1])
    for title, shape in SHAPES:
        print(f"\n{title}")
        print(f"{'N':>7}  {'protocol':<18}{'B per node':>11}{'probe links':>13}"
              f"{'B per link':>11}{'pool cands':>12}{'pool entries':>14}{'B per cand':>12}")
        for node_count in NODE_COUNTS:
            for protocol in PROTOCOLS:
                peak, links, candidates, held = measure(node_count, protocol, shape)
                per_link = f"{peak / links:,.0f}" if links else "-"
                per_candidate = f"{peak / candidates:,.0f}" if candidates else "-"
                pooled = (f"{candidates:>12,}{held:>14,}" if protocol == DMRF
                          else f"{'-':>12}{'-':>14}")
                print(f"{node_count:>7,}  {protocol:<18}{peak / node_count:>11,.0f}"
                      f"{links:>13,}{per_link:>11}{pooled}{per_candidate:>12}")


if __name__ == "__main__":
    main()
