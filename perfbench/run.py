"""The dmrfsim benchmark: host time, set-up cost and memory per workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the simulator is imported from its `src/`.
One invocation measures one workload in this process: an untimed warm-up pass,
then timed passes until `--seconds` have gone by (at least one). With
`--trace 1` one traced pass follows and the per-layer metrics are printed
instead of the end-to-end ones. `--workload all` runs every workload in a
fresh process of its own, one after another.

Every run's output is checked: packet conservation, no delivery after the
deadline, every pass byte-identical to the warm-up pass (and the traced pass
too), and at the default seed every CSV row byte-identical to the rows pinned
in `expected/`. A run failing any check is counted in `failed`.

The end-to-end times are host seconds scaled to a reference machine speed
from timer-driven speed samples; the raw medians are printed beside them.
The report lines come first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. README.md explains
the scaling, the workloads and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected"
RESULTS = BENCH / "results"
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 900


def load_program() -> None:
    """Import dmrfsim from this checkout's `src/`, and from nowhere else."""
    package = ROOT / "src" / "dmrfsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: simulator sources not found at {package}")
    sys.path.insert(0, str(package.parent))
    import dmrfsim

    if Path(dmrfsim.__file__).resolve().parent != package:
        raise SystemExit(f"run.py: imported dmrfsim from {dmrfsim.__file__}, not {package}")


@dataclass
class Pass:
    """One pass over a workload's grids: CSV rows and check results per run."""

    header: str | None = None
    rows: list[str | None] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    runs: list = field(default_factory=list)
    # wall_s, setup_s and loop_s are host seconds scaled to the reference
    # machine speed; raw_wall_s and raw_loop_s are unscaled
    wall_s: float = 0.0
    setup_s: float = 0.0
    loop_s: float = 0.0
    raw_wall_s: float = 0.0
    raw_loop_s: float = 0.0
    speed_factor: float = 1.0

    def compare(self, reference: Pass) -> None:
        """Fail every run whose row differs from the reference's row."""
        if self.header != reference.header:
            self.ok = [False] * len(self.ok)
        for i, (row, ref) in enumerate(zip_longest(self.rows, reference.rows)):
            if i < len(self.ok) and row != ref:
                self.ok[i] = False


def run_pass(workload: str, seed: int, probe) -> Pass:
    from dmrfsim import sweeps
    from layers import OWN
    from workloads import WORKLOADS

    probe.reset()
    probe.sample_speed()
    pass_start = probe.last_run_end = probe.now()
    result = Pass()
    grids = WORKLOADS[workload](seed)
    for name, build in grids:
        spec = None
        first = len(probe.runs)
        span = f"sweeps.{name}"
        start = probe.enter(span)
        try:
            spec = build()
            inner = probe.enter("sweeps.run_sweep")
            try:
                rows = sweeps.run_sweep(spec, workers=1)
            finally:
                probe.leave("sweeps.run_sweep", inner)
            text = sweeps.rows_to_csv_text(rows)
        except Exception:
            # a failing run aborts its grid: every run of the grid counts as failed
            traceback.print_exc()
            count = len(spec.values) * len(spec.protocols) * spec.repetitions if spec else 1
            del probe.runs[first:]
            result.rows += [None] * count
            result.ok += [False] * count
            continue
        finally:
            probe.leave(span, start)
        header, *lines = text.split("\n")[:-1]
        if len(probe.runs) - first != len(lines):
            raise RuntimeError(f"{name}: {len(lines)} rows but "
                               f"{len(probe.runs) - first} measured runs")
        if result.header not in (None, header):
            header = None  # grids disagree on the schema: fails the comparison
        result.header = header
        result.rows += lines
        result.ok += [run.ok for run in probe.runs[first:]]
    pass_end = probe.now()
    probe.sample_speed()
    result.runs = runs = list(probe.runs)
    stat = probe.stat
    result.raw_wall_s = sum(stat(f"sweeps.{name}").s for name, _ in grids) - stat(OWN).s
    result.raw_loop_s = sum(r.loop_s for r in runs)
    between_runs = result.raw_wall_s - sum(r.setup_s + r.loop_s for r in runs)
    result.speed_factor = probe.scale(pass_start, pass_end)
    result.setup_s = sum(probe.scale(*r.setup_span) * r.setup_s for r in runs)
    result.loop_s = sum(probe.scale(*r.loop_span) * r.loop_s for r in runs)
    result.wall_s = result.setup_s + result.loop_s + result.speed_factor * between_runs
    return result


def load_expected(workload: str) -> Pass:
    header, *rows = (EXPECTED / f"{workload}.csv").read_text().split("\n")[:-1]
    return Pass(header=header, rows=rows)


# ----------------------------------------------------------------------
# reporting

def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it, n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def git_commit() -> str:
    """The checkout's commit, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def sim_stats(p: Pass) -> dict[str, tuple[float, str]]:
    """Simulated statistics of a pass; they repeat exactly for a seed."""
    injected = sum(r.injected for r in p.runs)
    delivered = sum(r.delivered for r in p.runs)
    out = {
        "sim.delivered_ratio": (delivered / injected if injected else 0.0, "ratio"),
        "sim.control_packets": (sum(r.control_packets for r in p.runs), "count"),
        "sim.transitions": (sum(r.transitions for r in p.runs), "count"),
    }
    if all(r.events is not None for r in p.runs):
        out["sim.events"] = (sum(sum(r.events.values()) for r in p.runs), "count")
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool) -> int:
    from layers import Probe, layer_metrics
    from workloads import WORKLOADS

    reference = load_expected(workload) if seed == DEFAULT_SEED else None
    probe = Probe()
    probe.install()
    try:
        warm = run_pass(workload, seed, probe)
        reference = reference or warm
        warm.compare(reference)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(workload, seed, probe))
            passes[-1].compare(reference)
    finally:
        probe.uninstall()
    rss = peak_rss_mb()
    checked = [warm, *passes]
    samples = {k: [getattr(p, k) for p in passes]
               for k in ("wall_s", "setup_s", "loop_s", "raw_wall_s", "raw_loop_s",
                         "speed_factor")}
    summaries = {k: summary(v) for k, v in samples.items()}
    metrics: dict[str, tuple[float, str]] = {
        "wall_s": (summaries["wall_s"]["median"], "s"),
        "setup_s": (summaries["setup_s"]["median"], "s"),
        "loop_s": (summaries["loop_s"]["median"], "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    spans = None
    if traced:
        probe = Probe(traced=True, spans=[])
        probe.install()
        try:
            traced_pass = run_pass(workload, seed, probe)
        finally:
            probe.uninstall()
        traced_pass.compare(reference)
        checked.append(traced_pass)
        spans = probe.spans
        grids = [name for name, _ in WORKLOADS[workload](seed)]
        metrics = layer_metrics(probe, grids)
        metrics.update(sim_stats(traced_pass))
        # per-layer times are raw host seconds, so these use the raw medians
        metrics["engine.events_per_s"] = (
            metrics["sim.events"][0] / summaries["raw_loop_s"]["median"], "1/s")
        metrics["trace.overhead_s"] = (
            traced_pass.raw_wall_s - summaries["raw_wall_s"]["median"], "s")
    else:
        metrics.update(sim_stats(warm))

    attempted = sum(len(p.ok) for p in checked)
    failed = sum(not ok for p in checked for ok in p.ok)
    info = provenance()
    print(f"# dmrfsim benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(traced)} workers=1")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# warm-up pass (untimed): {warm.raw_wall_s:.4f} s raw, {len(warm.ok)} runs")
    print_report(summaries, rss, failed, attempted)
    for name, (value, unit) in metrics.items():
        if traced or name.startswith("sim."):
            print(f"{name:<36} {value:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if not k.startswith("sim.") or traced},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds, traced=traced,
                  provenance=info, samples=samples, spans=spans)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(traced)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def print_report(summaries: dict, rss: float, failed: int, attempted: int) -> None:
    units = {"wall_s": "s", "setup_s": "s", "loop_s": "s", "raw_wall_s": "s",
             "raw_loop_s": "s", "speed_factor": "ratio"}
    for name, s in summaries.items():
        high = " ".join(f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"{name:<12} median={s['median']:.6g} {units[name]} "
              f"{high or 'p_hi=n/a'} n={s['n']} (untraced)")
    print(f"{'peak_rss_mb':<12} value={rss:.6g} MB n=1")
    print(f"{'fail_ratio':<12} value={failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} runs attempted)")


def main(argv: list[str] | None = None) -> int:
    load_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False)
        status = status or child.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
