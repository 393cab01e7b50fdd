"""The measuring scripts under `tools/` still run against the simulator.

They reach past its public interface (the probe layout of a DMRF run's
protocol object, for one), so a rename there would otherwise break them
unnoticed until someone ran them by hand.
"""

import importlib.util
import sys
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
    peak, links, *_ = tool.measure(25, DMRF, tool.SHAPES[0][1])
    assert peak > 0
    assert links > 0
    # packets short of slack jump, so pools are built: each lists every
    # candidate and holds an entry for only some
    *_, candidates, held = tool.measure(25, DMRF, {"packet_count": 5, "packet_lifetime_ms": 2.0})
    assert 0 < held < candidates


def test_op_count_repeats_its_counts_and_a_warm_setup_costs_less_than_a_cold_one():
    tool = load("op_count")
    fields = {"protocol": DMRF, "node_count": 25, "comm_radius": 7.5, "packet_count": 2}
    # the tool sets and clears the tracers; a line tracer over the suite resumes after
    tracer, profiler = sys.gettrace(), sys.getprofile()
    try:
        counts = tool.count(fields)
        again = tool.count(fields)
    finally:
        sys.settrace(tracer)
        sys.setprofile(profiler)
    assert again == counts
    cold, warm, run_ops, c_calls, randoms, pushes = counts
    assert 0 < warm < cold
    assert run_ops > 0 and c_calls > 0 and randoms > 0 and pushes > 0


def test_line_cover_exempts_only_the_body_of_a_main_guard():
    tool = load("line_cover")
    text = (
        "import sys\n"                      # 1
        "def main():\n"                     # 2
        "    return 0\n"                    # 3
        "if __name__ == '__main__':\n"      # 4: run on import, kept
        "    code = main()\n"               # 5
        "    sys.exit(code)\n"              # 6
        "else:\n"                           # 7
        "    imported = True\n"             # 8: the else branch is kept
        "if __name__ == 'other':\n"         # 9: not a main guard
        "    main()\n"                      # 10
    )
    assert tool.executable_lines(text) == {1, 2, 3, 4, 8, 9, 10}
