"""Golden regression tests: the byte-exact result rows of a small scenario
matrix, pinned in tests/golden/matrix.csv, and digests of what those rows
cannot show, pinned in tests/golden/digests.txt.

The matrix is every protocol on a 25-node grid (clean, 20% faults, a void of
radius 7, that void with 20% faults drawn among the relays it leaves, 60%
standing buffer fill) and on 200 random nodes, plus DMRF probe
timings whose timeouts land on probe instants: timeout equal to the period,
twice the period, and three times it, and DMRF on table2 with a standing
buffer fill equal to theta_cong. Last come every protocol on table2 with
packet lifetimes of 1.25 and 2 times the shortest path's time, where DMRF
leaves the LOW rate band.

The digests cover every state transition of a run, in order, and every
packet's outcome, times and hop trace: all four protocols on the congested
heavy-traffic geometry, DMRF and BYPASS around a void, and DMRF where nodes
are born VOID, where candidate sets fail, and where every relay is congested.
Trace digests pin the order of every dispatched event, with its seq: all four
protocols on the heavy-traffic geometry, and DMRF there with the horizon
cutting the run while packets are still being injected.

Regenerate the fixtures only in a change that means to alter simulated output,
and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest

from dmrfsim.config import (
    BYPASS, DMRF, GREEDY_MAX_RATE, GREEDY_MIN_DELAY, PROTOCOLS, ScenarioConfig, validate)
from dmrfsim.sweeps import _result_row, execute_scenario, rows_to_csv_text

FIXTURE = Path(__file__).resolve().parent / "golden" / "matrix.csv"
DIGESTS = FIXTURE.parent / "digests.txt"

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
#: table2's shortest path to the sink: 19 hops of mu = 1.28 ms, 24.32 ms
TABLE2_SHORTEST_MS = 19 * TABLE2.mean_hop_delay_ms

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
    # every timeout falls on the next probe instant and runs before that round
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
    # the standing fill equals theta_cong: every relay turns CONG at its
    # first probe timeout and refuses every packet offered to it
    ("table2-fill0.8", dataclasses.replace(TABLE2, buffer_fill=0.8), (DMRF,)),
    # faults drawn among the 18 relays the void leaves: 3 of them, not the
    # 4 a pool of all 23 relays would give
    (
        "grid25-void7-fault0.2",
        dataclasses.replace(GRID25, void_radius=7.0, fault_ratio=0.2),
        PROTOCOLS,
    ),
    # lifetimes of 1.25x and 2x the shortest path: DMRF forwards in the
    # MEDIUM and HIGH bands and jumps once the slack ratio falls to theta_jump
    (
        "table2-lifetime1.25x",
        dataclasses.replace(TABLE2, packet_lifetime_ms=1.25 * TABLE2_SHORTEST_MS),
        PROTOCOLS,
    ),
    (
        "table2-lifetime2x",
        dataclasses.replace(TABLE2, packet_lifetime_ms=2 * TABLE2_SHORTEST_MS),
        PROTOCOLS,
    ),
]


#: the perfbench heavy-traffic geometry (N = 100 around a central void, a
#: packet every 1.5 ms) at 200 packets: DMRF congests and recovers here
HEAVY = ScenarioConfig(
    node_count=100,
    region=(10.0, 10.0),
    comm_radius=1.6,
    void_center=(5.0, 5.0),
    void_radius=2.5,
    packet_count=200,
    injection_period_ms=1.5,
)

_MATRIX = {name: base for name, base, _protocols in CASES}
DIGEST_CASES: list[tuple[str, ScenarioConfig, tuple[str, ...]]] = [
    ("heavy200", HEAVY, PROTOCOLS),
    ("grid25-void7", _MATRIX["grid25-void7"], (DMRF, BYPASS)),
    # nodes born VOID, and jumps
    ("random200", _MATRIX["random200"], (DMRF,)),
    # JFAULTY entered under 30% faults
    (
        "table2-fault0.3-timeout10-period10",
        _MATRIX["table2-fault0.3-timeout10-period10"],
        (DMRF,),
    ),
    # every relay CONG from its first timeout on
    ("table2-fill0.8", _MATRIX["table2-fill0.8"], (DMRF,)),
    # JFAULTY entered and left, with timeouts two periods long
    (
        "table2-fault0.3-timeout20-period10",
        dataclasses.replace(
            TABLE2, fault_ratio=0.3, probe_timeout_ms=20.0, probe_period_ms=10.0
        ),
        (DMRF,),
    ),
]


#: runs whose whole event trace is pinned, seqs included
TRACE_CASES: list[tuple[str, ScenarioConfig, tuple[str, ...]]] = [
    ("heavy200", HEAVY, PROTOCOLS),
    ("heavy200-horizon100", dataclasses.replace(HEAVY, horizon_ms=100.0), (DMRF,)),
]


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _digest_line(name: str, base: ScenarioConfig, protocol: str) -> str:
    cfg = validate(dataclasses.replace(base, protocol=protocol))
    result = execute_scenario(cfg)
    transitions = [
        f"{t!r} {node} {old} {new}"
        for t, node, old, new in result.transitions
    ]
    packets = [
        f"{p.id} {p.outcome} {p.created_at!r} {p.finished_at!r} "
        + ",".join(map(str, p.hop_trace))
        for p in result.packets
    ]
    return (f"{name} {protocol} transitions {len(transitions)} {_sha(transitions)}"
            f" packets {len(packets)} {_sha(packets)}")


def _trace_line(name: str, base: ScenarioConfig, protocol: str) -> str:
    cfg = validate(dataclasses.replace(base, protocol=protocol))
    trace = [
        f"{e.time!r} {e.seq} {e.kind} {e.node} {e.packet}"
        for e in execute_scenario(cfg, collect_trace=True).trace
    ]
    return f"{name} {protocol} trace {len(trace)} {_sha(trace)}"


def digests_text() -> str:
    """One line per run: transition count and digest, packet count and
    digest; then one line per traced run: event count and digest. Floats
    enter by repr, so equal digests mean equal bits."""
    out = [_digest_line(name, base, protocol)
           for name, base, protocols in DIGEST_CASES for protocol in protocols]
    out += [_trace_line(name, base, protocol)
            for name, base, protocols in TRACE_CASES for protocol in protocols]
    return "\n".join(out) + "\n"


def _matrix_row(name: str, base: ScenarioConfig, protocol: str) -> dict:
    cfg = validate(dataclasses.replace(base, protocol=protocol))
    return _result_row(name, "", 0, cfg, execute_scenario(cfg))


def matrix_csv() -> str:
    return rows_to_csv_text([_matrix_row(name, base, protocol)
                             for name, base, protocols in CASES for protocol in protocols])


def test_golden_matrix_is_byte_identical():
    expected = FIXTURE.read_text(encoding="utf-8")
    actual = matrix_csv()
    for want, got in zip(expected.splitlines(), actual.splitlines()):
        assert got == want
    assert actual == expected


def test_transitions_and_packet_outcomes_are_identical():
    expected = DIGESTS.read_text(encoding="utf-8")
    actual = digests_text()
    for want, got in zip(expected.splitlines(), actual.splitlines()):
        assert got == want
    assert actual == expected


def _blanked(line: str, sep: str, at: int) -> str:
    """`line` with its field `at` emptied."""
    fields = line.split(sep)
    fields[at] = ""
    return sep.join(fields)


def test_greedy_max_rate_is_a_second_name_for_greedy_min_delay():
    """GREEDY_MAX_RATE runs GREEDY_MIN_DELAY's ranking: its matrix rows and
    digest lines, pinned and computed afresh, equal GREEDY_MIN_DELAY's pinned
    ones in every field but the protocol's name."""
    rows = FIXTURE.read_text(encoding="utf-8").splitlines()[1:]
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()

    def pinned(protocol):
        return ([_blanked(r, ",", 2) for r in rows if r.split(",")[2] == protocol],
                [_blanked(d, " ", 1) for d in lines if d.split(" ")[1] == protocol])

    fresh_rows = rows_to_csv_text([
        _matrix_row(name, base, GREEDY_MAX_RATE)
        for name, base, protocols in CASES if GREEDY_MAX_RATE in protocols
    ]).splitlines()[1:]
    fresh_lines = [_digest_line(name, base, GREEDY_MAX_RATE)
                   for name, base, protocols in DIGEST_CASES if GREEDY_MAX_RATE in protocols]
    fresh_lines += [_trace_line(name, base, GREEDY_MAX_RATE)
                    for name, base, protocols in TRACE_CASES if GREEDY_MAX_RATE in protocols]
    fresh = ([_blanked(r, ",", 2) for r in fresh_rows],
             [_blanked(d, " ", 1) for d in fresh_lines])
    min_delay = pinned(GREEDY_MIN_DELAY)
    assert min_delay[0] and min_delay[1]
    assert pinned(GREEDY_MAX_RATE) == min_delay
    assert fresh == min_delay


#: timeout equal to the period: every timeout shares its instant with a round
TIMEOUT_ON_PROBE = "table2-fault0.3-timeout10-period10"


@pytest.mark.parametrize("base, protocol", [
    pytest.param(base, protocol, id=f"{name}-{protocol}")
    for name, base, protocols in (
        TRACE_CASES + [(TIMEOUT_ON_PROBE, _MATRIX[TIMEOUT_ON_PROBE], (DMRF,))]
    )
    for protocol in protocols
])
def test_a_traced_run_gives_the_results_of_an_untraced_one(base, protocol):
    cfg = validate(dataclasses.replace(base, protocol=protocol))
    plain, traced = execute_scenario(cfg), execute_scenario(cfg, collect_trace=True)
    assert traced.trace and plain.trace is None
    assert traced.metrics == plain.metrics
    assert traced.transitions == plain.transitions
    assert traced.packets == plain.packets


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(matrix_csv(), encoding="utf-8")
    DIGESTS.write_text(digests_text(), encoding="utf-8")
    print(f"wrote {FIXTURE} and {DIGESTS}")
