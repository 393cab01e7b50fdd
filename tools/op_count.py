"""Count the work of a few fixed small runs, deterministically.

For each scenario, prints the Python opcodes executed (`sys.settrace` with
`f_trace_opcodes`), the calls into C functions (`sys.setprofile` `c_call`
events), the `random()` calls among them, the events dispatched and the heap
pushes. Counting starts at the construction of the `Simulation` and ends with
its `run()`; the topology is deployed before. The opcodes are split in three
columns, so a change to either phase shows as a count of its own: the cold
construction on the fresh topology, which fills its memos; the warm one, a
second `Simulation` of the same config on that topology once the first has
run, which is what each sweep point after the first on a geometry pays; and
the first one's `run()`. The C calls, `random()` calls and heap pushes are
those of the cold construction and its run. Two columns come from passes of
their own on a fresh topology, without the tracers: the events are the lines
of a traced run's trace, one per event, and the last column is the
`tracemalloc` peak over the same span, in KiB. The scenarios are every protocol
on the benchmark's heavy-traffic geometry at 600 packets, and DMRF on the
table2 defaults: clean, with 30% faults, and with fig7's radius-7 void, where
the relays beside the void jump, so a change to the jump path shows.

Equal code gives equal counts on one Python minor version, which is printed
first. Opcodes differ in cost and C calls are unweighted, so the counts rank
changes to the code; they do not replace wall time. Counting makes a run
about 30 times slower.

    python tools/op_count.py
"""

from __future__ import annotations

import heapq
import platform
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dmrfsim.config import DMRF, PROTOCOLS, from_dict  # noqa: E402
from dmrfsim.engine import Simulation  # noqa: E402
from dmrfsim.topology import deploy  # noqa: E402

#: perfbench's heavy-traffic geometry, seed 1, cut to 600 packets
HEAVY = {"node_count": 100, "region": [10.0, 10.0], "comm_radius": 1.6,
         "void_center": [5.0, 5.0], "void_radius": 2.5, "packet_count": 600,
         "injection_period_ms": 1.5}

SCENARIOS = [
    *(("heavy-traffic-600", {**HEAVY, "protocol": p}) for p in PROTOCOLS),
    ("table2", {"protocol": DMRF}),
    ("table2-fault0.3", {"protocol": DMRF, "fault_ratio": 0.3}),
    ("table2-void7", {"protocol": DMRF, "void_radius": 7.0}),
]

COLUMNS = ("cold setup", "warm setup", "run ops", "C calls", "random()", "events",
           "heap pushes", "peak KiB")


def scenario(fields: dict) -> tuple:
    """The table2 config plus `fields`, and a topology deployed for it."""
    cfg = from_dict({"preset": "table2", **fields})
    return cfg, deploy(cfg.node_count, tuple(cfg.region), cfg.distribution, cfg.seed,
                       cfg.comm_radius, cfg.max_tx_distance)


def count(fields: dict) -> tuple[int, ...]:
    """The opcodes of the cold construction, of the warm one and of the cold
    run's `run()`, then the C calls, `random()` calls and heap pushes of the
    cold construction and run, for `scenario(fields)`."""
    cfg, topo = scenario(fields)
    heappush = heapq.heappush
    opcodes = c_calls = randoms = pushes = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    def on_profile(frame, event, arg):
        nonlocal c_calls, randoms, pushes
        if event == "c_call":
            c_calls += 1
            if arg is heappush:
                pushes += 1
            elif getattr(arg, "__qualname__", None) == "Random.random":
                randoms += 1

    sys.setprofile(on_profile)
    sys.settrace(on_call)
    try:
        sim = Simulation(topo, cfg)
        setup = opcodes
        sim.run()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    run, opcodes = opcodes - setup, 0
    sys.settrace(on_call)
    try:
        Simulation(topo, cfg)
    finally:
        sys.settrace(None)
    return setup, opcodes, run, c_calls, randoms, pushes


def events(fields: dict) -> int:
    """The events dispatched in one traced run of `scenario(fields)`."""
    cfg, topo = scenario(fields)
    return len(Simulation(topo, cfg, collect_trace=True).run().trace)


def peak_kib(fields: dict) -> int:
    """The `tracemalloc` peak of one untraced run of `scenario(fields)`."""
    cfg, topo = scenario(fields)
    tracemalloc.start()
    try:
        Simulation(topo, cfg).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak // 1024


def main() -> None:
    print(f"Python {platform.python_version()} ({platform.python_implementation()})")
    print(f"{'scenario':<19}{'protocol':<18}" + "".join(f"{c:>13}" for c in COLUMNS))
    for name, fields in SCENARIOS:
        *ops, pushes = count(fields)
        counts = (*ops, events(fields), pushes, peak_kib(fields))
        print(f"{name:<19}{fields['protocol']:<18}" + "".join(f"{n:>13,}" for n in counts))


if __name__ == "__main__":
    main()
