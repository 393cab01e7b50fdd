"""Rewrite the pinned rows in `expected/` from the simulator as it is now.

    python3 perfbench/pin.py

Run only in a change that means to alter the simulator's output, and say so
in that change: the benchmark fails every run whose row differs from these.
Runs at the benchmark's default seed, untraced, one pass per workload.
"""

from __future__ import annotations

import sys

import run


def write_expected(workload: str, rows: run.Pass) -> str:
    path = run.EXPECTED / f"{workload}.csv"
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join([rows.header, *rows.rows]) + "\n")
    return str(path)


def main() -> int:
    run.load_program()
    from layers import Probe
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        probe = Probe()
        probe.install()
        try:
            rows = run.run_pass(workload, run.DEFAULT_SEED, probe)
        finally:
            probe.uninstall()
        if not all(rows.ok):
            print(f"{workload}: {rows.ok.count(False)} runs fail their checks; "
                  "nothing pinned", file=sys.stderr)
            status = 1
            continue
        print(f"{workload}: {len(rows.rows)} rows -> {write_expected(workload, rows)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
