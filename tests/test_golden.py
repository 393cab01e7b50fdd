"""Golden-CSV regression test: the byte-exact result rows of a small scenario
matrix, pinned in tests/golden/matrix.csv.

The matrix is every protocol on a 25-node grid (clean, 20% faults, a void of
radius 7, 60% standing buffer fill) and on 200 random nodes, plus DMRF probe
timings whose timeouts land on probe instants: timeout equal to the period,
twice the period, and three times it.

Regenerate the fixture only in a change that means to alter simulated output,
and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

from dmrfsim.config import PROTOCOLS, DMRF, ScenarioConfig, validate
from dmrfsim.sweeps import _result_row, execute_scenario, rows_to_csv_text

FIXTURE = Path(__file__).resolve().parent / "golden" / "matrix.csv"

#: 25 nodes 5 m apart over the default 20 m region; 7.5 m reaches diagonals
GRID25 = ScenarioConfig(node_count=25, comm_radius=7.5)
#: fig9's density: 200 random nodes over 200 m^2
RANDOM200 = ScenarioConfig(
    node_count=200,
    region=(14.142135623730951, 14.142135623730951),
    distribution="RANDOM",
    comm_radius=1.6,
)
TABLE2 = ScenarioConfig()

CASES: list[tuple[str, ScenarioConfig, tuple[str, ...]]] = [
    ("grid25-clean", GRID25, PROTOCOLS),
    ("grid25-fault0.2", dataclasses.replace(GRID25, fault_ratio=0.2), PROTOCOLS),
    ("grid25-void7", dataclasses.replace(GRID25, void_radius=7.0), PROTOCOLS),
    (
        "grid25-fill0.6",
        dataclasses.replace(GRID25, buffer_fill=0.6, injection_period_ms=1.5),
        PROTOCOLS,
    ),
    ("random200", RANDOM200, PROTOCOLS),
    # each node's timeout falls on the next probe instant, where it must run
    # just before that node's probe
    (
        "table2-fault0.3-timeout10-period10",
        dataclasses.replace(
            TABLE2, fault_ratio=0.3, probe_timeout_ms=10.0, probe_period_ms=10.0
        ),
        (DMRF,),
    ),
    # timeouts outlive the period and coincide with a later round
    (
        "table2-fault0.3-timeout15-period5",
        dataclasses.replace(
            TABLE2, fault_ratio=0.3, probe_timeout_ms=15.0, probe_period_ms=5.0
        ),
        (DMRF,),
    ),
    (
        "grid25-fault0.2-timeout20-period10",
        dataclasses.replace(
            GRID25, fault_ratio=0.2, probe_timeout_ms=20.0, probe_period_ms=10.0
        ),
        (DMRF,),
    ),
]


def matrix_csv() -> str:
    rows = []
    for name, base, protocols in CASES:
        for protocol in protocols:
            cfg = validate(dataclasses.replace(base, protocol=protocol))
            result = execute_scenario(cfg, cfg.seed)
            rows.append(_result_row(name, "", protocol, 0, cfg.seed, result))
    return rows_to_csv_text(rows)


def test_golden_matrix_is_byte_identical():
    expected = FIXTURE.read_text(encoding="utf-8")
    actual = matrix_csv()
    for want, got in zip(expected.splitlines(), actual.splitlines()):
        assert got == want
    assert actual == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(matrix_csv(), encoding="utf-8")
    print(f"wrote {FIXTURE}")
