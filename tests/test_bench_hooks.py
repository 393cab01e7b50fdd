"""The benchmark's tracing wrappers still find every function they patch.

`perfbench/layers.py` replaces simulator functions where their callers look
them up. A renamed function, a moved module global or a changed signature
would make a wrapper fail to install or count nothing; this test runs the
traced wrappers around a tiny sweep of all four protocols so that shows up
in seconds.
"""

import sys
from pathlib import Path

import pytest

from dmrfsim import engine
from dmrfsim.config import PROTOCOLS, ScenarioConfig, validate
from dmrfsim.sweeps import SweepSpec, run_sweep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def traced_probe():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(PERFBENCH))
    base = validate(ScenarioConfig(
        node_count=36, region=(5.0, 5.0), comm_radius=1.2, void_center=(2.5, 2.5),
        packet_count=20, injection_period_ms=1.5, fault_ratio=0.2, seed=3))
    spec = SweepSpec(parameter="void_radius", values=[1.5], base=base,
                     protocols=list(PROTOCOLS), repetitions=1)
    original = engine.Simulation
    probe = layers.Probe(traced=True, spans=[])
    probe.install()
    try:
        rows = run_sweep(spec, workers=1)
    finally:
        probe.uninstall()
    assert engine.Simulation is original
    return probe, rows


def test_every_traced_run_is_checked_and_ok(traced_probe):
    probe, rows = traced_probe
    assert len(probe.runs) == len(rows) == len(PROTOCOLS)
    assert all(run.ok for run in probe.runs)
    # the traced pass turned event collection on through the constructor
    assert all(run.events for run in probe.runs)


@pytest.mark.parametrize("name", [
    "topology.deploy",
    "topology.neighbors",
    "topology.distance",
    "topology.build_fcs",
    "topology.shortest_delay_map",
    "topology.carve_void",
    "protocol.build_tables",
    "protocol.select_next_hop",
    "protocol.detect_faulty",
    "protocol.detect_congestion",
    "protocol.on_feedback",
    "protocol.on_forward_result",
    "protocol.on_jump_result",
    "protocol.ensure_jump_entries",
    "baselines.decide",
    "engine.setup",
    "engine.loop",
    "engine.heappush",
    "engine.sample_delay",
    "engine.energy_cost",
])
def test_wrapper_counted_calls(traced_probe, name):
    probe, _rows = traced_probe
    assert probe.stats[name].calls > 0
