"""Acceptance suite: the claims the simulator is expected to reproduce.

Every test prints one "criterion N PASS/FAIL" line and asserts the same
condition, so `pytest -v` shows one verdict per criterion. Runs performed
anywhere in this module are tallied, and the deadline-safety criterion
(zero late deliveries over at least ten thousand packets) audits the whole
tally; it is defined last so the tally is complete when it runs.
"""

import dataclasses
import math
import random
import time

import pytest

from dmrfsim.config import (
    BYPASS,
    DMRF,
    GREEDY_MAX_RATE,
    GREEDY_MIN_DELAY,
    ScenarioConfig,
    validate,
)
from dmrfsim.engine import DELIVERED, run
from dmrfsim.model import RATE_HIGH, RATE_LOW, RATE_MEDIUM, CandidateEntry
from dmrfsim.protocol import DmrfProtocol, jump_probabilities
from dmrfsim.sweeps import (
    _linear_r2,
    _result_row,
    execute_scenario,
    point_seed,
    rows_to_csv_text,
)
from dmrfsim.topology import (
    RANDOM,
    UNIFORM_GRID,
    Topology,
    deploy,
    shortest_delay_map,
)
from reference import classify_rate, compute_thresholds, pool_entries

TALLY = {"runs": 0, "injected": 0, "late_deliveries": 0, "conservation_ok": True}


def record(result, lifetime_ms):
    """Fold one run into the module-wide packet audit."""
    m = result.metrics
    TALLY["runs"] += 1
    TALLY["injected"] += m.injected
    if m.terminal_total != m.injected:
        TALLY["conservation_ok"] = False
    for p in result.packets:
        if p.outcome == DELIVERED and p.finished_at > p.created_at + lifetime_ms:
            TALLY["late_deliveries"] += 1
    return result


def run_scenario(cfg):
    return record(execute_scenario(cfg), cfg.packet_lifetime_ms)


def verdict(number, ok, detail):
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}")


def table2(**overrides):
    return validate(ScenarioConfig(**overrides))


def small_grid(**overrides):
    base = dict(node_count=25, region=(5.0, 5.0), comm_radius=1.8)
    base.update(overrides)
    return validate(ScenarioConfig(**base))


# ----------------------------------------------------------------------


def test_criterion_02_fault_free_delivery():
    topo = deploy(400, (20.0, 20.0), UNIFORM_GRID, rng_seed=2)
    lifetime = 3 * shortest_delay_map(topo, 1.28)[topo.source]
    delivered = {}
    slowest = 0.0
    for proto in (DMRF, GREEDY_MIN_DELAY, GREEDY_MAX_RATE):
        cfg = table2(protocol=proto, packet_lifetime_ms=lifetime, seed=2)
        start = time.perf_counter()
        result = record(run(topo, cfg), lifetime)
        slowest = max(slowest, time.perf_counter() - start)
        delivered[proto] = result.metrics.delivered
    ok = all(v == 100 for v in delivered.values()) and slowest < 5.0
    verdict(
        2,
        ok,
        f"fault-free deliveries {delivered} at deadline 3x estimate "
        f"({lifetime:.2f} ms), slowest run {slowest:.2f} s (< 5 s)",
    )
    assert delivered == {DMRF: 100, GREEDY_MIN_DELAY: 100, GREEDY_MAX_RATE: 100}
    assert slowest < 5.0


def test_criterion_03_void_radius_seven_delivery():
    start = time.perf_counter()
    means = {}
    for proto in (DMRF, GREEDY_MIN_DELAY, GREEDY_MAX_RATE):
        ratios = []
        for rep in range(10):
            seed = point_seed(7, 0, rep)
            cfg = table2(protocol=proto, void_radius=7.0, seed=seed)
            m = run_scenario(cfg).metrics
            ratios.append(m.delivered / m.injected)
        means[proto] = sum(ratios) / len(ratios)
    elapsed = time.perf_counter() - start
    ok = (
        means[DMRF] >= 0.90
        and means[GREEDY_MIN_DELAY] <= 0.05
        and means[GREEDY_MAX_RATE] <= 0.05
        and elapsed < 60.0
    )
    verdict(
        3,
        ok,
        f"void radius 7 mean delivery DMRF {means[DMRF]:.3f} (>= 0.90), "
        f"greedy {means[GREEDY_MIN_DELAY]:.3f}/{means[GREEDY_MAX_RATE]:.3f} "
        f"(<= 0.05), {elapsed:.1f} s",
    )
    assert means[DMRF] >= 0.90
    assert means[GREEDY_MIN_DELAY] <= 0.05
    assert means[GREEDY_MAX_RATE] <= 0.05
    assert elapsed < 60.0


def test_criterion_04_direct_jump_over_a_wide_void():
    # mid-edge endpoints 20 m apart (inside the 30 m long-range reach) with
    # an 8 m void that removes all nine interior nodes
    topo = deploy(25, (20.0, 20.0), UNIFORM_GRID, rng_seed=4,
                  comm_radius=5.5, max_tx_distance=30.0)
    topo = dataclasses.replace(topo, source=10, sink=14)
    cfg = validate(ScenarioConfig(
        node_count=25, region=(20.0, 20.0), comm_radius=5.5,
        void_center=(10.0, 10.0), void_radius=8.0, seed=4,
    ))
    result = record(run(topo, cfg), cfg.packet_lifetime_ms)
    delivered = [p for p in result.packets if p.outcome == DELIVERED]
    direct = [p for p in delivered if p.hop_trace == [10, 14]]
    ok = len(direct) > 0 and all(len(p.hop_trace) == 2 for p in direct)
    verdict(
        4,
        ok,
        f"{len(delivered)}/100 delivered across the void, {len(direct)} by a "
        f"single source->sink jump",
    )
    assert direct, "expected at least one direct source->sink delivery"
    assert all(len(p.hop_trace) == 2 for p in direct)


def test_criterion_05_delay_stability_under_voids():
    start = time.perf_counter()
    mean_delay = {}
    for proto in (DMRF, BYPASS):
        for vi, radius in enumerate((0.0, 7.0)):
            delays = []
            for rep in range(3):
                seed = point_seed(20240817, vi, rep)
                cfg = table2(protocol=proto, void_radius=radius, seed=seed)
                delays.append(run_scenario(cfg).metrics.mean_delay_ms)
            mean_delay[proto, radius] = sum(delays) / len(delays)
    elapsed = time.perf_counter() - start
    dmrf_change = (
        mean_delay[DMRF, 7.0] - mean_delay[DMRF, 0.0]
    ) / mean_delay[DMRF, 0.0]
    bypass_change = (
        mean_delay[BYPASS, 7.0] - mean_delay[BYPASS, 0.0]
    ) / mean_delay[BYPASS, 0.0]
    ok = abs(dmrf_change) < 0.25 and bypass_change > 0.50 and elapsed < 60.0
    verdict(
        5,
        ok,
        f"void 0 -> 7 delay change DMRF {dmrf_change:+.1%} (|x| < 25%), "
        f"bypass {bypass_change:+.1%} (> +50%), {elapsed:.1f} s",
    )
    assert abs(dmrf_change) < 0.25
    assert bypass_change > 0.50
    assert elapsed < 60.0


def test_criterion_06_control_message_linearity():
    start = time.perf_counter()
    sides = {100: 10.0, 200: 200.0 ** 0.5, 400: 20.0}
    control = {}
    for vi, n in enumerate((100, 200, 400)):
        totals = []
        for rep in range(3):
            seed = point_seed(6, vi, rep)
            cfg = validate(ScenarioConfig(
                node_count=n, region=(sides[n], sides[n]),
                comm_radius=1.6, seed=seed,
            ))
            totals.append(run_scenario(cfg).metrics.control_packets)
        control[n] = sum(totals) / len(totals)
    elapsed = time.perf_counter() - start
    r2 = _linear_r2([100.0, 200.0, 400.0], [control[100], control[200], control[400]])
    ratio = control[400] / control[100]
    ok = r2 >= 0.9 and ratio <= 5.0 and elapsed < 30.0
    verdict(
        6,
        ok,
        f"control packets {control[100]:.0f}/{control[200]:.0f}/{control[400]:.0f} "
        f"for N=100/200/400: R^2 {r2:.4f} (>= 0.9), 4x-size ratio {ratio:.2f} "
        f"(<= 5), {elapsed:.1f} s",
    )
    assert r2 >= 0.9
    assert ratio <= 5.0
    assert elapsed < 30.0


def test_criterion_07_jump_probability_convergence():
    # two jump candidates only: the sink is parked beyond the long-range
    # reach so the pool is exactly {good, bad}
    positions = [(0.0, 0.0), (1.0, 0.3), (1.0, -0.3), (2.5, 0.0)]
    topo = Topology(
        nodes=[(i, p) for i, p in enumerate(positions)],
        comm_radius=1.1,
        max_tx_distance=1.2,
        source=0,
        sink=3,
    )
    proto = DmrfProtocol(topo, ScenarioConfig())
    table = proto.build_tables()[0]
    proto.ensure_jump_entries(table)
    good, bad = 1, 2
    assert [e.candidate for e in pool_entries(table.jump_pool)] == [good, bad]

    log = []
    for i in range(20):
        target = good if i % 2 == 0 else bad
        success = target == good
        proto.on_jump_result(table, table.entry(target), success, now=float(i))
        log.append((target, success))

    # independent replay of the success-counter arithmetic from the log
    attempts = {good: 0, bad: 0}
    successes = {good: 0, bad: 0}
    suc = {good: 1.0, bad: 1.0}
    for target, success in log:
        attempts[target] += 1
        if success:
            successes[target] += 1
            suc[target] = successes[target] / attempts[target]
        else:
            suc[target] = max(0, successes[target] - 1) / attempts[target]
    total = suc[good] + suc[bad]
    expected_p = {c: (suc[c] / total if total > 0 else 0.5) for c in (good, bad)}

    suc_err = max(abs(table.entry(c).suc - suc[c]) for c in (good, bad))
    p = dict(zip((good, bad), jump_probabilities(pool_entries(table.jump_pool))))
    p_err = max(abs(p[c] - expected_p[c]) for c in (good, bad))
    mass_on_bad = p[bad]
    ok = mass_on_bad < 0.05 and suc_err <= 1e-12 and p_err <= 1e-12
    verdict(
        7,
        ok,
        f"after 20 attempts the failing candidate holds {mass_on_bad:.3g} "
        f"probability (< 0.05); replay mismatch {max(suc_err, p_err):.2e} "
        f"(<= 1e-12)",
    )
    assert mass_on_bad < 0.05
    assert suc_err <= 1e-12
    assert p_err <= 1e-12


def test_criterion_08_probability_normalization():
    start = time.perf_counter()
    rng = random.Random(8)
    worst = 0.0
    for i in range(10_000):
        n = rng.randint(1, 6)
        entries = []
        for c in range(n):
            if i % 100 == 0:
                s = 0.0
            else:
                t = rng.randint(0, 20)
                s = rng.randint(0, t) / t if t else 0.0
            entries.append(CandidateEntry(candidate=c, suc=s))
        shares = jump_probabilities(entries)
        total = sum(shares)
        worst = max(worst, abs(total - 1.0))
        assert all(0.0 <= p <= 1.0 for p in shares)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    verdict(
        8,
        ok,
        f"10^4 random success vectors: worst |sum - 1| = {worst:.2e} "
        f"(<= 1e-9), every entry in [0, 1], {elapsed:.2f} s",
    )
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_09_threshold_ordering_and_band_partition():
    # the band rules written out in tests/reference.py, which
    # test_protocol's forward/rate property holds select_next_hop to
    start = time.perf_counter()
    rng = random.Random(9)
    for _ in range(10_000):
        theta_jump = rng.uniform(0.01, 0.8)
        needed = rng.uniform(0.5, 200.0)
        max_fcs = rng.uniform(0.01, 10.0)
        next_hop = rng.uniform(0.01, 10.0)
        mu = rng.uniform(0.01, 5.0)
        remaining = rng.uniform(0.0, 400.0)
        th = compute_thresholds(theta_jump, needed, max_fcs, next_hop, mu,
                                remaining)
        assert th.theta_low > th.theta_high > th.theta_jump
        probes = (
            rng.uniform(1e-9, 1.5 * th.theta_low),
            th.theta_jump,
            th.theta_high,
            th.theta_low,
        )
        for lam in probes:
            in_jump = lam <= th.theta_jump
            in_high = th.theta_jump < lam < th.theta_high
            in_medium = th.theta_high <= lam < th.theta_low
            in_low = lam >= th.theta_low
            assert in_jump + in_high + in_medium + in_low == 1
            if not in_jump:
                expected = (
                    RATE_LOW if in_low
                    else RATE_MEDIUM if in_medium
                    else RATE_HIGH
                )
                assert classify_rate(lam, th) is expected
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    verdict(
        9,
        ok,
        f"10^4 random parameter tuples: theta_low > theta_high > theta_jump "
        f"and every lambda fell in exactly one band, {elapsed:.2f} s",
    )
    assert elapsed < 1.0


def _enumerated_min_hops(topo, start):
    """Exhaustive simple-path search, pruned only by the best length so far."""
    sink = topo.sink
    best = math.inf

    def walk(node, depth, seen):
        nonlocal best
        if depth >= best:
            return
        if node == sink:
            best = depth
            return
        for nb in topo.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                walk(nb, depth + 1, seen)
                seen.remove(nb)

    walk(start, 0, {start})
    return best


def test_criterion_10_oracle_equivalence_on_small_topologies():
    start = time.perf_counter()
    rng = random.Random(10)
    cases = 0
    while cases < 100:
        n = rng.randint(4, 12)
        topo = deploy(
            n, (4.0, 4.0), RANDOM,
            rng_seed=rng.randint(0, 2**31),
            comm_radius=rng.uniform(1.3, 2.4),
        )
        delays = shortest_delay_map(topo, 1.0)
        if any(math.isinf(d) for d in delays.values()):
            continue  # only connected deployments count
        cases += 1
        for node in topo.ids():
            assert delays[node] == _enumerated_min_hops(topo, node)
    elapsed = time.perf_counter() - start
    ok = cases >= 100 and elapsed < 30.0
    verdict(
        10,
        ok,
        f"{cases} connected topologies (<= 12 nodes): hop counts match "
        f"exhaustive enumeration, {elapsed:.1f} s",
    )
    assert cases >= 100
    assert elapsed < 30.0


def test_criterion_11_congestion_ordering():
    start = time.perf_counter()
    fills = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    means = {}
    for proto in (DMRF, GREEDY_MIN_DELAY):
        for vi, fill in enumerate(fills):
            total = 0
            for rep in range(10):
                seed = point_seed(11, vi, rep)
                cfg = small_grid(
                    protocol=proto, buffer_fill=fill,
                    injection_period_ms=1.5, seed=seed,
                )
                total += run_scenario(cfg).metrics.delivered
            means[proto, fill] = total / 10
    elapsed = time.perf_counter() - start
    dominated = all(
        means[DMRF, f] >= means[GREEDY_MIN_DELAY, f] for f in fills
    )
    strict_high = all(
        means[DMRF, f] > means[GREEDY_MIN_DELAY, f] for f in fills if f >= 0.6
    )
    table = ", ".join(
        f"{f}: {means[DMRF, f]:.1f} vs {means[GREEDY_MIN_DELAY, f]:.1f}"
        for f in fills
    )
    ok = dominated and strict_high and elapsed < 60.0
    verdict(
        11,
        ok,
        f"mean delivered (DMRF vs greedy) {table}; dominated everywhere, "
        f"strictly above from fill 0.6, {elapsed:.1f} s",
    )
    assert dominated, table
    assert strict_high, table
    assert elapsed < 60.0


def test_criterion_12_determinism_and_conservation():
    def csv_text(cfg):
        result = run_scenario(cfg)
        assert result.metrics.terminal_total == result.metrics.injected
        return rows_to_csv_text([_result_row("check", 0, 0, cfg, result)])

    fault_cfg = table2(fault_ratio=0.2, seed=12)
    cong_cfg = small_grid(buffer_fill=0.5, injection_period_ms=1.5, seed=12)
    pairs = [
        csv_text(fault_cfg) == csv_text(fault_cfg),
        csv_text(cong_cfg) == csv_text(cong_cfg),
    ]
    ok = all(pairs)
    verdict(
        12,
        ok,
        "equal seeds reproduced byte-identical CSV for a fault scenario and "
        "a congestion scenario; all runs conserved packets",
    )
    assert all(pairs)


def test_criterion_01_deadline_safety():
    # defined last: audits every packet simulated by the criteria above
    ok = (
        TALLY["injected"] >= 10_000
        and TALLY["late_deliveries"] == 0
        and TALLY["conservation_ok"]
    )
    verdict(
        1,
        ok,
        f"{TALLY['injected']} packets across {TALLY['runs']} runs: "
        f"{TALLY['late_deliveries']} delivered past their deadline (exact "
        f"zero required), conservation held in every run",
    )
    assert TALLY["injected"] >= 10_000, "acceptance suite must cover >= 10^4 packets"
    assert TALLY["late_deliveries"] == 0
    assert TALLY["conservation_ok"]
