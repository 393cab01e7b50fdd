"""Command-line front end.

Subcommands:
  run        simulate one scenario, emit a one-row CSV
  sweep      run a preset experiment grid, emit the full CSV
  summarize  aggregate a sweep CSV into per-point stats and pass/fail flags
  trace      simulate one scenario with event tracing, emit JSON lines

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Iterable

from .config import ConfigError, ScenarioConfig, load, validate
from .sweeps import (
    PRESET_NAMES,
    execute_scenario,
    make_preset,
    read_csv,
    rows_to_csv_text,
    run_sweep,
    summarize,
    write_csv,
    _result_row,
)


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's default 2
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dmrfsim",
        description="Deterministic simulator for DMRF real-time fault-tolerant routing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--config", required=True, help="JSON scenario file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_sweep = sub.add_parser("sweep", help="run a preset experiment grid")
    p_sweep.add_argument("--config", default=None, help="JSON base scenario file")
    p_sweep.add_argument("--preset", required=True, choices=list(PRESET_NAMES))
    p_sweep.add_argument("--out", required=True, help="CSV output path")

    p_sum = sub.add_parser("summarize", help="aggregate a sweep CSV")
    p_sum.add_argument("--in", dest="infile", required=True, help="sweep CSV path")

    p_trace = sub.add_parser("trace", help="simulate with full event tracing")
    p_trace.add_argument("--config", required=True, help="JSON scenario file")
    p_trace.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_trace.add_argument("--out", required=True, help="JSON-lines output path")
    return parser


def _load_config(path: str | None, seed: int | None) -> ScenarioConfig:
    cfg = load(path) if path is not None else ScenarioConfig()
    if seed is not None:
        cfg = validate(dataclasses.replace(cfg, seed=seed))
    return cfg


def _check_out(path: str) -> None:
    """An `--out` that cannot be written is a configuration error, found
    before any simulation runs and without creating the file."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise ConfigError(f"cannot write {path}: {directory} is not a writable directory")


def _write_out(path: str, chunks: Iterable[str], newline: str | None) -> None:
    """Write the text chunks to `path`; an OSError is a configuration error."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.seed)
    rows = [_result_row("", "", 0, cfg, execute_scenario(cfg))]
    if args.out is None:
        write_csv(rows, sys.stdout)
    else:
        _write_out(args.out, [rows_to_csv_text(rows)], newline="")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _load_config(args.config, None)
    spec = make_preset(args.preset, base)
    rows = run_sweep(spec)
    _write_out(args.out, [rows_to_csv_text(rows)], newline="")
    print(f"{len(rows)} runs -> {args.out}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8", newline="") as fh:
            rows = read_csv(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.infile}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{args.infile} holds no result rows")
    sys.stdout.write(summarize(rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.seed)
    result = execute_scenario(cfg, collect_trace=True)
    lines = (
        json.dumps(
            {
                "t": event.time,
                "seq": event.seq,
                "kind": event.kind,
                "node": event.node,
                "packet": event.packet,
            }
        )
        + "\n"
        for event in result.trace
    )
    _write_out(args.out, lines, newline=None)
    print(f"{len(result.trace)} events -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    commands = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "summarize": _cmd_summarize,
        "trace": _cmd_trace,
    }
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"dmrfsim: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - a failed run must not look like success
        print(f"dmrfsim: runtime failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
