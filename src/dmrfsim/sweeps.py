"""Experiment sweeps: run grids of scenarios and emit deterministic CSV.

A sweep varies one scenario field over a value list, crossed with a protocol
list and a repetition count. Every (value, repetition) point derives its own
seed by hashing (base seed, value index, repetition index); the protocol is
deliberately left out of the hash so competing protocols face identical
topologies, fault draws, and traffic. Service times are not matched: DMRF's
probe draws consume the run's one random stream and the baselines' runs do
not (ROADMAP item 5).

CSV output is byte-stable: fixed column order, '\n' line endings, floats
rendered by repr.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
from dataclasses import dataclass, field
from functools import partial
from statistics import mean, stdev

from .config import (
    BYPASS,
    DMRF,
    GREEDY_MAX_RATE,
    GREEDY_MIN_DELAY,
    ConfigError,
    ScenarioConfig,
    validate,
)
from .engine import RunResult, run
from .model import running_sum
from .topology import RANDOM, Topology, deploy

CSV_COLUMNS = (
    "parameter",
    "value",
    "protocol",
    "repetition",
    "seed",
    "injected",
    "delivered",
    "expired",
    "dropped_no_route",
    "buffer_drops",
    "control_packets",
    "mean_delay_ms",
    "p95_delay_ms",
    "energy_total_j",
    "tx_total",
    "tx_max",
)

PRESET_NAMES = ("fig5", "fig6", "fig7", "fig8", "fig9")

_MASK = (1 << 64) - 1


@dataclass
class SweepSpec:
    """One experiment grid: parameter values x protocols x repetitions."""

    parameter: str
    values: list
    base: ScenarioConfig
    protocols: list[str]
    repetitions: int = 10
    # per-value-index extra field overrides, for axes that co-vary
    overrides: dict[int, dict] = field(default_factory=dict)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def point_seed(base_seed: int, value_index: int, rep_index: int) -> int:
    """Stable per-point seed; independent of the protocol under test."""
    h = _splitmix64(base_seed & _MASK)
    h = _splitmix64(h ^ (value_index & _MASK))
    h = _splitmix64(h ^ (rep_index & _MASK))
    return h


def _deploy_args(cfg: ScenarioConfig, seed: int | None) -> tuple:
    """deploy()'s arguments for the scenario, with `seed` as its seed."""
    return (cfg.node_count, tuple(cfg.region), cfg.distribution, seed,
            cfg.comm_radius, cfg.max_tx_distance)


def execute_scenario(cfg: ScenarioConfig, collect_trace: bool = False) -> RunResult:
    """Deploy the scenario's topology and run it once, both seeded by
    `cfg.seed`."""
    return run(deploy(*_deploy_args(cfg, cfg.seed)), cfg, collect_trace=collect_trace)


def _result_row(
    parameter: str, value, repetition: int, cfg: ScenarioConfig, result: RunResult
) -> dict:
    m = result.metrics
    tx_values = list(m.per_node_tx.values())
    return {
        "parameter": parameter,
        "value": value,
        "protocol": cfg.protocol,
        "repetition": repetition,
        "seed": cfg.seed,
        "injected": m.injected,
        "delivered": m.delivered,
        "expired": m.expired,
        "dropped_no_route": m.dropped_no_route,
        "buffer_drops": m.buffer_drops,
        "control_packets": m.control_packets,
        "mean_delay_ms": m.mean_delay_ms,
        "p95_delay_ms": m.p95_delay_ms,
        "energy_total_j": m.energy_total_j,
        "tx_total": sum(tx_values),
        "tx_max": max(tx_values, default=0),
    }


def _execute_point(task: tuple, latest: dict[tuple, Topology]) -> dict:
    """Run one point on its topology, taken from `latest`, a cache keyed by
    deploy()'s arguments, or deployed into it.

    Points run value by value, each protocol through every repetition, and
    a seed belongs to one value and repetition, so the cache holds the
    topologies of one value at most: a miss at repetition 0 starts another
    value or geometry and empties it first."""
    parameter, value, repetition, cfg = task
    # UNIFORM_GRID does not read the seed, so every seed shares one grid
    key = _deploy_args(cfg, cfg.seed if cfg.distribution == RANDOM else None)
    topo = latest.get(key)
    if topo is None:
        if repetition == 0:
            latest.clear()
        topo = latest[key] = deploy(*_deploy_args(cfg, cfg.seed))
    return _result_row(parameter, value, repetition, cfg, run(topo, cfg))


def _point_tasks(spec: SweepSpec) -> list[tuple]:
    tasks = []
    for vi, value in enumerate(spec.values):
        fields = {spec.parameter: value}
        fields.update(spec.overrides.get(vi, {}))
        for protocol in spec.protocols:
            for rep in range(spec.repetitions):
                seed = point_seed(spec.base.seed, vi, rep)
                cfg = dataclasses.replace(
                    spec.base, protocol=protocol, seed=seed, **fields
                )
                validate(cfg)
                tasks.append((spec.parameter, value, rep, cfg))
    return tasks


def worker_count(requested: int | None, task_count: int) -> int:
    """Pool size for a sweep: the request, else DMRFSIM_WORKERS, else 1,
    clamped to the number of tasks and of CPUs. A count below 1 is refused,
    and so is a request that is not an `int` (a `bool` included)."""
    if requested is None:
        source, raw = "DMRFSIM_WORKERS", os.environ.get("DMRFSIM_WORKERS", "1")
        try:
            count = int(raw)
        except ValueError:
            raise ConfigError(f"{source}: expected an integer, got {raw!r}") from None
    else:
        source, raw = "workers", requested
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ConfigError(f"{source}: expected an integer, got {raw!r}")
        count = raw
    if count < 1:
        raise ConfigError(f"{source}: expected at least 1 worker, got {raw!r}")
    return max(1, min(count, task_count, os.cpu_count() or 1))


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[dict]:
    """Run the whole grid, in order (value, protocol, repetition).

    Any failing run aborts the sweep. Worker count comes from
    worker_count(); results are identical however many run, because every
    point is independently seeded. Adjacent points on one geometry share
    its Topology; none outlives the sweep.
    """
    tasks = _point_tasks(spec)
    workers = worker_count(workers, len(tasks))
    # tasks run value-major, so a geometry's points are adjacent
    execute = partial(_execute_point, latest={})
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            # each chunk of tasks a worker receives unpickles its own empty cache
            return pool.map(execute, tasks)
    return [execute(t) for t in tasks]


def write_csv(rows: list[dict], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def rows_to_csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


#: the columns that count every injected packet once, by its outcome
_OUTCOME_COLUMNS = ("delivered", "expired", "dropped_no_route", "buffer_drops")

#: the numeric CSV columns and the type each is read back as
_NUMBER_COLUMNS = {
    **dict.fromkeys(("repetition", "seed", "injected", *_OUTCOME_COLUMNS,
                     "control_packets", "tx_total", "tx_max"), int),
    **dict.fromkeys(("mean_delay_ms", "p95_delay_ms", "energy_total_j"), float),
}


def read_csv(fh) -> list[dict]:
    """Inverse of write_csv, restoring numeric types.

    A missing column, a count that is not an integer or is negative, a
    number that is not finite, a row that injected nothing, or one whose
    outcome counts do not add up to `injected` raises ConfigError naming
    the line and the column.
    """
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        return []
    for key in CSV_COLUMNS:
        if key not in reader.fieldnames:
            raise ConfigError(f"line 1, column {key}: missing from the header")
    rows = []
    for raw in reader:
        row = dict(raw)
        for key, parse in _NUMBER_COLUMNS.items():
            where = f"line {reader.line_num}, column {key}"
            text = row[key]
            if text is None:
                raise ConfigError(f"{where}: missing")
            try:
                row[key] = parse(text)
            except ValueError:
                expected = "an integer" if parse is int else "a number"
                raise ConfigError(f"{where}: expected {expected}, got {text!r}") from None
            if not math.isfinite(row[key]):
                raise ConfigError(f"{where}: expected a finite number, got {text!r}")
            if parse is int and key != "seed" and row[key] < 0:
                raise ConfigError(f"{where}: expected a count, got {text!r}")
        where = f"line {reader.line_num}, column injected"
        if row["injected"] < 1:
            raise ConfigError(f"{where}: expected at least 1, got {row['injected']}")
        finished = sum(row[key] for key in _OUTCOME_COLUMNS)
        if finished != row["injected"]:
            raise ConfigError(
                f"{where}: got {row['injected']}, but {' + '.join(_OUTCOME_COLUMNS)}"
                f" is {finished}"
            )
        try:
            row["value"] = int(row["value"])
        except ValueError:
            try:
                row["value"] = float(row["value"])
            except ValueError:
                pass
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# presets

def make_preset(name: str, base: ScenarioConfig) -> SweepSpec:
    """The predefined experiment grids.

    fig5: delivery vs fault ratio, three protocols.
    fig6: delivery vs standing buffer fill under fast injection.
    fig7: delivery vs void radius, all four protocols.
    fig8: delay vs void radius, jumping vs perimeter bypass: fig7's DMRF
    and BYPASS points, since point seeds do not depend on the protocol.
    fig9: control overhead vs network size at fixed density.
    """
    if name == "fig5":
        return SweepSpec(
            parameter="fault_ratio",
            values=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
            base=base,
            protocols=[DMRF, GREEDY_MIN_DELAY, GREEDY_MAX_RATE],
        )
    if name == "fig6":
        return SweepSpec(
            parameter="buffer_fill",
            values=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            base=dataclasses.replace(base, injection_period_ms=1.5),
            protocols=[DMRF, GREEDY_MIN_DELAY],
        )
    if name == "fig7":
        return SweepSpec(
            parameter="void_radius",
            values=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            base=base,
            protocols=[DMRF, GREEDY_MIN_DELAY, GREEDY_MAX_RATE, BYPASS],
        )
    if name == "fig8":
        return dataclasses.replace(make_preset("fig7", base), protocols=[DMRF, BYPASS])
    if name == "fig9":
        side = {100: 10.0, 200: 14.142135623730951, 400: 20.0}
        return SweepSpec(
            parameter="node_count",
            values=[100, 200, 400],
            base=dataclasses.replace(base, comm_radius=1.6),
            protocols=[DMRF, GREEDY_MIN_DELAY],
            overrides={
                i: {"region": (side[n], side[n])}
                for i, n in enumerate([100, 200, 400])
            },
        )
    raise ConfigError(f"preset: expected one of {list(PRESET_NAMES)}, got {name!r}")


# ----------------------------------------------------------------------
# summaries

def _fmt(x: float) -> str:
    return format(x, ".6g")


def _linear_r2(xs: list[float], ys: list[float]) -> float:
    mx, my = mean(xs), mean(ys)
    sxx = running_sum((x - mx) ** 2 for x in xs)
    sxy = running_sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        return 0.0
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = running_sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = running_sum((y - my) ** 2 for y in ys)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def summarize(rows: list[dict]) -> str:
    """Aggregate sweep rows into mean +/- std per point plus pass/fail flags
    for the claims each experiment family is meant to check."""
    groups: dict[tuple, list[dict]] = {}  # in the order of each point's first row
    for row in rows:
        groups.setdefault((row["parameter"], row["value"], row["protocol"]), []).append(row)

    lines = [
        "parameter value protocol n delivery_ratio mean_delay_ms control_packets energy_j"
    ]
    stats: dict[tuple, dict] = {}
    for key, members in groups.items():
        ratios = [r["delivered"] / r["injected"] for r in members]
        delays = [r["mean_delay_ms"] for r in members if r["delivered"] > 0]
        controls = [float(r["control_packets"]) for r in members]
        energies = [r["energy_total_j"] for r in members]
        entry = {
            "n": len(members),
            "ratio_mean": mean(ratios),
            "ratio_std": stdev(ratios) if len(ratios) > 1 else 0.0,
            # a point that delivered nothing has no delay to average
            "delay_mean": mean(delays) if delays else None,
            "control_mean": mean(controls),
            "energy_mean": mean(energies),
        }
        stats[key] = entry
        parameter, value, protocol = key
        lines.append(
            f"{parameter} {value} {protocol} {entry['n']} "
            f"{_fmt(entry['ratio_mean'])}+/-{_fmt(entry['ratio_std'])} "
            f"{'n/a' if entry['delay_mean'] is None else _fmt(entry['delay_mean'])} "
            f"{_fmt(entry['control_mean'])} "
            f"{_fmt(entry['energy_mean'])}"
        )

    lines.extend(_flag_lines(stats))
    return "\n".join(lines) + "\n"


def _flag_lines(stats: dict[tuple, dict]) -> list[str]:
    lines: list[str] = []
    parameters = {key[0] for key in stats}

    def flag(ok: bool | None, text: str) -> None:
        lines.append(f"{'n/a' if ok is None else 'PASS' if ok else 'FAIL'}: {text}")

    if "void_radius" in parameters:
        key = ("void_radius", 7.0, DMRF)
        if key in stats:
            r = stats[key]["ratio_mean"]
            flag(r >= 0.90, f"DMRF delivery at void radius 7 is {_fmt(r)} (>= 0.90)")
        for proto in (GREEDY_MIN_DELAY, GREEDY_MAX_RATE):
            key = ("void_radius", 7.0, proto)
            if key in stats:
                r = stats[key]["ratio_mean"]
                flag(r <= 0.05, f"{proto} delivery at void radius 7 is {_fmt(r)} (<= 0.05)")

    for parameter, comparator in (
        ("fault_ratio", (GREEDY_MIN_DELAY, GREEDY_MAX_RATE)),
        ("buffer_fill", (GREEDY_MIN_DELAY,)),
    ):
        if parameter not in parameters:
            continue
        values = sorted({key[1] for key in stats if key[0] == parameter})
        for proto in comparator:
            pairs = [
                (v, stats[(parameter, v, DMRF)]["ratio_mean"],
                 stats[(parameter, v, proto)]["ratio_mean"])
                for v in values
                if (parameter, v, DMRF) in stats and (parameter, v, proto) in stats
            ]
            if not pairs:
                continue
            # a point where neither side delivers compares nothing: n/a
            text = f"DMRF delivery >= {proto} at every {parameter}"
            idle = ", ".join(str(v) for v, d, g in pairs if not (d or g))
            pairs = [p for p in pairs if p[1] or p[2]]
            if not pairs:
                flag(None, f"{text} (neither delivers at {idle})")
                continue
            worst = min(pairs, key=lambda p: p[1] - p[2])
            detail = f"tightest at {worst[0]}: {_fmt(worst[1])} vs {_fmt(worst[2])}"
            if idle:
                detail += f"; n/a at {idle}"
            flag(all(d >= g for _, d, g in pairs), f"{text} ({detail})")

    if "node_count" in parameters:
        points = sorted(
            (key[1], stats[key]["control_mean"])
            for key in stats
            if key[0] == "node_count" and key[2] == DMRF
        )
        if len(points) >= 2:
            xs = [float(p[0]) for p in points]
            ys = [p[1] for p in points]
            r2 = _linear_r2(xs, ys)
            ratio = ys[-1] / ys[0] if ys[0] > 0 else float("inf")
            span = xs[-1] / xs[0]
            flag(r2 >= 0.9, f"control overhead grows linearly in node count (R^2 = {_fmt(r2)})")
            flag(
                ratio <= 1.25 * span,
                f"control overhead ratio over a {_fmt(span)}x size span is {_fmt(ratio)}",
            )
    return lines
