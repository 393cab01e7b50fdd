"""The measuring scripts under `tools/` still run against the simulator.

They reach past its public interface (the probe layout of a DMRF run's
protocol object, for one), so a rename there would otherwise break them
unnoticed until someone ran them by hand.
"""

import importlib.util
from pathlib import Path

from dmrfsim.config import DMRF

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bytes_per_node_counts_the_probe_links_of_a_dmrf_run():
    tool = load("bytes_per_node")
    peak, links = tool.measure(25, DMRF, tool.SHAPES[0][1])
    assert peak > 0
    assert links > 0
