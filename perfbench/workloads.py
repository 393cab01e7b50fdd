"""The benchmark's workloads, each a fixed list of sweep grids built from a seed.

A pass of a workload runs every grid of its list through `run_sweep` with
`workers=1` and renders each grid's CSV. The seed is the only input: it
becomes the base scenario's `seed`, from which `point_seed` derives every run's
seed, so the program sees nothing but generated configs.

Why these three (README.md has the layer-to-metric map):

- presets: the users' actual job, the published grids on the table2 defaults.
  It covers all four protocols, faults, standing congestion and voids, and the
  sweeps layer. Most of DMRF's loop time goes to the probe plane; setup is
  under a tenth of the pass. fig8 is left out: its points are fig7's DMRF and
  BYPASS points with the same seeds, so it repeats work and covers no code
  that fig7 does not, and leaving it out keeps a presets run near 30 s.
- large-n: the scaling point. N = 3600 at the presets' density, where the
  O(N^2) neighbour scans make setup about 40% of the pass. The 300 ms lifetime
  lets DMRF cross the 60 m diagonal; at 100 ms it delivers almost nothing.
- heavy-traffic: the data plane. fig9's smallest geometry with a central void
  and 2000 packets at 1.5 ms spacing: arrivals and feedback outweigh probes,
  the baselines spend all their loop time deciding, and setup is near zero.
  Three matched seeds per protocol make the pass long enough to be steady.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from dmrfsim.config import (
    BYPASS, DMRF, GREEDY_MAX_RATE, GREEDY_MIN_DELAY, ScenarioConfig, from_dict)
from dmrfsim.sweeps import SweepSpec, make_preset

Grid = tuple[str, Callable[[], SweepSpec]]

PRESET_GRIDS = ("fig5", "fig6", "fig7", "fig9")
PRESET_REPETITIONS = 1
HEAVY_TRAFFIC_SEEDS = 3


def _table2(seed: int, **fields) -> ScenarioConfig:
    return from_dict({"preset": "table2", "seed": seed, **fields})


def presets(seed: int) -> list[Grid]:
    base = _table2(seed)
    return [
        (name, lambda name=name: dataclasses.replace(
            make_preset(name, base), repetitions=PRESET_REPETITIONS))
        for name in PRESET_GRIDS
    ]


def large_n(seed: int) -> list[Grid]:
    base = _table2(seed, node_count=3600, region=[60.0, 60.0],
                   packet_lifetime_ms=300.0)
    return [("large-n", lambda: SweepSpec(
        parameter="node_count", values=[3600], base=base,
        protocols=[DMRF, GREEDY_MIN_DELAY], repetitions=1))]


def heavy_traffic(seed: int) -> list[Grid]:
    base = _table2(seed, node_count=100, region=[10.0, 10.0], comm_radius=1.6,
                   void_center=[5.0, 5.0], packet_count=2000,
                   injection_period_ms=1.5)
    return [("heavy-traffic", lambda: SweepSpec(
        parameter="void_radius", values=[2.5], base=base,
        protocols=[DMRF, GREEDY_MIN_DELAY, GREEDY_MAX_RATE, BYPASS],
        repetitions=HEAVY_TRAFFIC_SEEDS))]


WORKLOADS: dict[str, Callable[[int], list[Grid]]] = {
    "presets": presets,
    "large-n": large_n,
    "heavy-traffic": heavy_traffic,
}
