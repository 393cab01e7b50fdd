"""End-to-end tests for the command-line interface and its exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dmrfsim
from dmrfsim import cli
from dmrfsim.cli import main
from dmrfsim.engine import EVENT_KINDS
from dmrfsim.sweeps import read_csv


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps(
            {
                "node_count": 25,
                "region": [5, 5],
                "comm_radius": 1.8,
                "packet_count": 10,
                "seed": 3,
            }
        )
    )
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return read_csv(fh)


def test_run_writes_one_result_row(tiny_config, tmp_path):
    out = tmp_path / "run.csv"
    assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["protocol"] == "DMRF"
    assert row["seed"] == 3
    assert row["injected"] == 10
    assert row["delivered"] == 10


def test_run_prints_to_stdout_by_default(tiny_config, capsys):
    assert main(["run", "--config", tiny_config]) == 0
    out = capsys.readouterr().out
    assert out.startswith("parameter,value,protocol")
    assert len(out.strip().splitlines()) == 2


def test_run_seed_override(tiny_config, tmp_path):
    out = tmp_path / "run.csv"
    assert main(["run", "--config", tiny_config, "--seed", "99",
                 "--out", str(out)]) == 0
    assert read_rows(out)[0]["seed"] == 99


def test_run_is_byte_reproducible(tiny_config, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", tiny_config, "--out", str(a)])
    main(["run", "--config", tiny_config, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_then_summarize(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", tiny_config, "--preset", "fig6",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    # 6 fills x 2 protocols x 10 repetitions
    assert len(rows) == 120
    assert {r["protocol"] for r in rows} == {"DMRF", "GREEDY_MIN_DELAY"}
    capsys.readouterr()

    assert main(["summarize", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("parameter value protocol")
    assert "buffer_fill" in text
    assert "DMRF delivery >= GREEDY_MIN_DELAY at every buffer_fill" in text


def test_trace_emits_json_lines(tiny_config, tmp_path):
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "--config", tiny_config, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines
    events = [json.loads(line) for line in lines]
    assert all(e["kind"] in EVENT_KINDS for e in events)
    times = [e["t"] for e in events]
    assert times == sorted(times)
    assert any(e["kind"] == "PACKET_ARRIVAL" for e in events)


def test_usage_errors_exit_one(tmp_path):
    assert main([]) == 1
    assert main(["run"]) == 1  # --config is required
    assert main(["sweep", "--preset", "fig1", "--out", "x.csv"]) == 1


def test_config_errors_exit_one(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["run", "--config", str(missing)]) == 1
    assert "error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_field": 1}))
    assert main(["run", "--config", str(bad)]) == 1
    assert "unknown key" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text(
        "parameter,value,protocol,repetition,seed,injected,delivered,expired,"
        "dropped_no_route,buffer_drops,control_packets,mean_delay_ms,"
        "p95_delay_ms,energy_total_j,tx_total,tx_max\n"
    )
    assert main(["summarize", "--in", str(empty)]) == 1


def test_a_percentage_trust_key_exits_one_naming_misses_to_faulty(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"confidence_step": 25}))
    assert main(["run", "--config", str(old)]) == 1
    assert "misses_to_faulty" in capsys.readouterr().err


def test_summarize_of_an_empty_file_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["summarize", "--in", str(empty)]) == 1
    assert "holds no result rows" in capsys.readouterr().err


_HEADER = ("parameter,value,protocol,repetition,seed,injected,delivered,expired,"
           "dropped_no_route,buffer_drops,control_packets,mean_delay_ms,"
           "p95_delay_ms,energy_total_j,tx_total,tx_max")
_ROW = "fault_ratio,0.1,DMRF,0,7,10,9,1,0,0,500,12.5,20.0,0.01,40,8"


def _without_injected(line):
    fields = line.split(",")
    del fields[5]
    return ",".join(fields)


def _csv(header=_HEADER, row=_ROW):
    return f"{header}\n{row}\n".encode()


@pytest.mark.parametrize(
    "content, named",
    [
        (_csv(_without_injected(_HEADER), _without_injected(_ROW)), "injected"),
        (_csv(row=_ROW.replace(",10,9,", ",abc,9,")), "injected"),
        (_csv(row=_ROW.replace(",10,9,", ",0,0,")), "injected"),
        (_csv(row=_ROW.replace(",12.5,", ",nan,")), "mean_delay_ms"),
        (_csv().replace(b"DMRF", b"\xff\xfe"), "utf-8"),
        (_csv(row=_ROW.rsplit(",", 3)[0]), "tx_total"),
        (_csv(row=_ROW.replace(",10,9,1,", ",10,-7,1,")), "column delivered"),
        (_csv(row=_ROW.replace(",10,9,1,", ",5,500,1,")), "column injected"),
    ],
    ids=["missing-column", "non-integer", "nothing-injected", "nan", "not-utf8", "short-row",
         "negative-count", "not-conserved"],
)
def test_malformed_sweep_csv_exits_one(tmp_path, capsys, content, named):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert main(["summarize", "--in", str(path)]) == 1
    assert named in capsys.readouterr().err


def test_wrongly_typed_threshold_exits_one(tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text('{"preset": "table2", "packet_count": 3, "theta_jump": "0.2"}')
    assert main(["run", "--config", str(path)]) == 1
    assert "theta_jump" in capsys.readouterr().err


def run_in_subprocess(*args):
    """`dmrfsim *args` in a fresh interpreter, killed after 60 s."""
    src = str(Path(dmrfsim.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from dmrfsim.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )


def test_tiny_comm_radius_runs_in_bounded_time(tmp_path):
    # the span of the source's 30 m jump query holds about 40,000 x 40,000 cells
    path = tmp_path / "tiny_radius.json"
    path.write_text(json.dumps(
        {"node_count": 25, "region": [4.0, 4.0], "packet_count": 5, "comm_radius": 0.0001}
    ))
    proc = run_in_subprocess("run", "--config", str(path))
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2


def test_a_region_whose_grid_spacing_underflows_runs(tmp_path):
    # every node lands on the sink's position, so no node has a route
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(
        {"node_count": 9, "region": [5e-324, 5e-324], "packet_count": 3}
    ))
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    [row] = read_rows(out)
    assert row["injected"] == row["dropped_no_route"] == 3


def test_a_probe_period_below_the_clock_resolution_exits_one(tmp_path):
    # every probe round would reschedule itself at the same instant for ever
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(
        {"node_count": 25, "region": [4.0, 4.0], "packet_count": 5, "probe_period_ms": 1e-20}
    ))
    proc = run_in_subprocess("run", "--config", str(path))
    assert proc.returncode == 1, proc.stderr
    assert "probe_period_ms" in proc.stderr
    assert proc.stdout == ""


def test_a_comm_radius_too_small_for_the_region_exits_one(tmp_path, capsys):
    # 4 m over 5e-324 m overflows a float: the neighbour grid cannot be built
    path = tmp_path / "tiny-radius.json"
    path.write_text(json.dumps(
        {"node_count": 25, "region": [4.0, 4.0], "packet_count": 3, "comm_radius": 5e-324}
    ))
    assert main(["run", "--config", str(path)]) == 1
    assert "comm_radius" in capsys.readouterr().err


def test_infinite_injection_period_exits_one(tmp_path, capsys):
    # JSON's Infinity literal: packet 0 would be injected at 0 * inf = NaN ms
    path = tmp_path / "inf.json"
    path.write_text('{"preset": "table2", "packet_count": 3, "injection_period_ms": Infinity}')
    assert main(["run", "--config", str(path)]) == 1
    assert "injection_period_ms" in capsys.readouterr().err


def test_an_int_too_large_for_a_float_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"node_count": 25, "region": [4, 4], "packet_count": 3, '
                    f'"horizon_ms": {10**400}}}')
    assert main(["run", "--config", str(path)]) == 1
    assert "horizon_ms" in capsys.readouterr().err


def test_a_config_json_cannot_parse_exits_one(tmp_path, capsys):
    # Python's JSON reader refuses an int of over 4,300 digits, and any
    # file that is not UTF-8
    for name, content in (("long.json", b'{"seed": 1' + b"0" * 5000 + b"}"),
                          ("latin1.json", '{"protocol": "é"}'.encode("latin-1"))):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["run", "--config", str(path)]) == 1
        assert name in capsys.readouterr().err


def test_energy_constants_that_overflow_a_frame_exit_one(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"region": [4, 4], "node_count": 25, "packet_count": 3,
                                "energy_amp_j_per_bit_m2": 1e308}))
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "energy_amp_j_per_bit_m2" in capsys.readouterr().err
    assert not out.exists()


def test_an_overflowing_energy_total_exits_two(tmp_path, capsys):
    # each frame costs a finite amount, but a handful of them sum to inf
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"region": [4, 4], "node_count": 25, "packet_count": 3,
                                "energy_elec_j_per_bit": 6.9e305}))
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "energy total is inf" in capsys.readouterr().err
    assert not out.exists()


def test_non_integer_worker_count_exits_one(tiny_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DMRFSIM_WORKERS", "2.5")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", tiny_config, "--preset", "fig6",
                 "--out", str(out)]) == 1
    assert "DMRFSIM_WORKERS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_worker_count_below_one_exits_one(tiny_config, tmp_path, monkeypatch, capsys, count):
    monkeypatch.setenv("DMRFSIM_WORKERS", count)
    monkeypatch.setattr("dmrfsim.sweeps.run", _must_not_simulate)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", tiny_config, "--preset", "fig6",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "DMRFSIM_WORKERS" in err and "at least 1" in err
    assert not out.exists()


def _must_not_simulate(*args, **kwargs):
    raise AssertionError("simulated although the command must fail first")


@pytest.mark.parametrize("command", ["run", "sweep", "trace"])
def test_unwritable_out_exits_one_before_simulating(command, tiny_config, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.setattr(cli, "execute_scenario", _must_not_simulate)
    monkeypatch.setattr(cli, "run_sweep", _must_not_simulate)
    preset = ["--preset", "fig6"] if command == "sweep" else []
    missing = tmp_path / "missing" / "out.txt"
    assert main([command, "--config", tiny_config, *preset, "--out", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not missing.exists()
    # an existing directory is no file to write either
    assert main([command, "--config", tiny_config, *preset, "--out", str(tmp_path)]) == 1
    assert f"cannot write {tmp_path}" in capsys.readouterr().err
    assert tmp_path.is_dir()


def test_a_node_count_past_the_bound_exits_one_before_simulating(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.setattr(cli, "execute_scenario", _must_not_simulate)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"node_count": 10**20, "packet_count": 3}))
    assert main(["run", "--config", str(path)]) == 1
    assert "node_count" in capsys.readouterr().err


def test_failed_write_of_out_exits_one(tiny_config, tmp_path, monkeypatch, capsys):
    # the up-front check passes; the write itself fails
    def failing_open(*args, **kwargs):
        raise OSError("disk full")

    out = tmp_path / "out.csv"
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main(["run", "--config", tiny_config, "--out", str(out)]) == 1
    assert f"cannot write {out}: disk full" in capsys.readouterr().err


def test_runtime_failures_exit_two(tiny_config, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("the engine broke")

    monkeypatch.setattr(cli, "execute_scenario", broken)
    code = main(["run", "--config", tiny_config])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


def test_a_runtime_failure_with_no_text_is_named_by_its_type(tiny_config, monkeypatch,
                                                             capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "execute_scenario", exhausted)
    assert main(["run", "--config", tiny_config]) == 2
    assert capsys.readouterr().err == "dmrfsim: runtime failure: MemoryError\n"
