"""Unit tests for the sweep harness: seeding, CSV stability, presets, and
summaries."""

import gc
import io
import re
import weakref

import pytest

from dmrfsim import sweeps
from dmrfsim.config import (
    BYPASS,
    DMRF,
    GREEDY_MAX_RATE,
    GREEDY_MIN_DELAY,
    PROTOCOLS,
    ConfigError,
    ScenarioConfig,
    validate,
)
from dmrfsim.sweeps import (
    CSV_COLUMNS,
    SweepSpec,
    _linear_r2,
    _point_tasks,
    _result_row,
    execute_scenario,
    make_preset,
    point_seed,
    read_csv,
    rows_to_csv_text,
    run_sweep,
    worker_count,
    summarize,
    write_csv,
)


def tiny_base(**overrides):
    base = dict(
        node_count=25,
        region=(5.0, 5.0),
        comm_radius=1.8,
        packet_count=10,
        seed=3,
    )
    base.update(overrides)
    return validate(ScenarioConfig(**base))


def tiny_spec(repetitions=2):
    return SweepSpec(
        parameter="fault_ratio",
        values=[0.0, 0.2],
        base=tiny_base(),
        protocols=[DMRF, GREEDY_MIN_DELAY],
        repetitions=repetitions,
    )


# ----------------------------------------------------------------------
# seeding


def test_point_seed_is_stable_and_sensitive():
    assert point_seed(3, 0, 0) == point_seed(3, 0, 0)
    seeds = {
        point_seed(3, 0, 0),
        point_seed(3, 0, 1),
        point_seed(3, 1, 0),
        point_seed(4, 0, 0),
    }
    assert len(seeds) == 4


def test_matched_pairs_share_seeds_across_protocols():
    tasks = _point_tasks(tiny_spec())
    by_protocol = {}
    for parameter, value, rep, cfg in tasks:
        by_protocol.setdefault(cfg.protocol, []).append((value, rep, cfg.seed))
    assert by_protocol[DMRF] == by_protocol[GREEDY_MIN_DELAY]


def test_point_tasks_order_and_overrides():
    spec = SweepSpec(
        parameter="node_count",
        values=[9, 16],
        base=tiny_base(),
        protocols=[DMRF],
        repetitions=1,
        overrides={1: {"region": (8.0, 8.0)}},
    )
    tasks = _point_tasks(spec)
    assert [(t[1], t[2]) for t in tasks] == [(9, 0), (16, 0)]
    assert tasks[0][3].region == (5.0, 5.0)
    assert tasks[1][3].region == (8.0, 8.0)
    assert tasks[1][3].node_count == 16


# ----------------------------------------------------------------------
# running and CSV


def test_run_sweep_row_grid():
    rows = run_sweep(tiny_spec())
    assert len(rows) == 2 * 2 * 2
    assert all(tuple(row) == CSV_COLUMNS for row in rows)
    # value-major, then protocol, then repetition
    assert [(r["value"], r["protocol"], r["repetition"]) for r in rows[:4]] == [
        (0.0, DMRF, 0),
        (0.0, DMRF, 1),
        (0.0, GREEDY_MIN_DELAY, 0),
        (0.0, GREEDY_MIN_DELAY, 1),
    ]
    for row in rows:
        assert (
            row["delivered"] + row["expired"] + row["dropped_no_route"]
            + row["buffer_drops"] == row["injected"]
        )


def test_run_sweep_parallel_matches_sequential():
    spec = tiny_spec(repetitions=1)
    assert run_sweep(spec, workers=1) == run_sweep(spec, workers=2)


# ----------------------------------------------------------------------
# one shared topology per geometry


def grid_spec():
    """All four protocols on a grid with faults and a void: every run shares
    one topology, since UNIFORM_GRID does not read the seed."""
    return SweepSpec(
        parameter="void_radius",
        values=[0.0, 2.0],
        base=tiny_base(fault_ratio=0.2, void_center=(2.5, 2.5)),
        protocols=list(PROTOCOLS),
        repetitions=1,
    )


def random_spec():
    """Random deployments, one per repetition seed; the region is a list, as
    validate() allows, which the geometry key must still hash."""
    return SweepSpec(
        parameter="fault_ratio",
        values=[0.0, 0.2],
        base=tiny_base(distribution="RANDOM", comm_radius=2.0, region=[5.0, 5.0]),
        protocols=[DMRF, BYPASS],
        repetitions=2,
    )


@pytest.mark.parametrize("make_spec", [grid_spec, random_spec], ids=["grid", "random"])
@pytest.mark.parametrize("workers", [1, 2])
def test_shared_topologies_give_the_rows_of_fresh_deploys(make_spec, workers):
    spec = make_spec()
    fresh = [
        _result_row(parameter, value, rep, cfg, execute_scenario(cfg))
        for parameter, value, rep, cfg in _point_tasks(spec)
    ]
    assert run_sweep(spec, workers=workers) == fresh


def test_no_topology_outlives_its_sweep(monkeypatch):
    deployed = []

    def recording_deploy(*args, **kwargs):
        topo = deploy(*args, **kwargs)
        deployed.append(weakref.ref(topo))
        return topo

    deploy = sweeps.deploy
    monkeypatch.setattr(sweeps, "deploy", recording_deploy)
    rows = run_sweep(grid_spec(), workers=1)
    assert len(rows) == 8
    assert len(deployed) == 1  # every run shared the one grid
    gc.collect()
    assert deployed[0]() is None


def test_a_random_sweep_deploys_once_per_seed(monkeypatch):
    """Every protocol at a value and repetition runs on the same topology,
    and the cache never holds more than one value's repetitions."""
    deployed, held = [], []

    def recording_deploy(*args, **kwargs):
        gc.collect()
        held.append(sum(ref() is not None for ref in deployed))
        topo = deploy(*args, **kwargs)
        deployed.append(weakref.ref(topo))
        return topo

    deploy = sweeps.deploy
    monkeypatch.setattr(sweeps, "deploy", recording_deploy)
    spec = random_spec()
    rows = run_sweep(spec, workers=1)
    assert len(rows) == 8
    assert len(deployed) == len({row["seed"] for row in rows}) == 4
    assert max(held) < spec.repetitions


def test_worker_count_is_clamped_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert worker_count(64, 100) == 4
    assert worker_count(8, 3) == 3
    assert worker_count(2, 100) == 2
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert worker_count(8, 100) == 1


def test_worker_count_reads_the_environment(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.delenv("DMRFSIM_WORKERS", raising=False)
    assert worker_count(None, 100) == 1
    monkeypatch.setenv("DMRFSIM_WORKERS", "1000")
    assert worker_count(None, 100) == 4
    monkeypatch.setenv("DMRFSIM_WORKERS", "two")
    with pytest.raises(ConfigError, match="DMRFSIM_WORKERS"):
        worker_count(None, 100)


@pytest.mark.parametrize("count", [0, -3])
def test_worker_count_below_one_is_refused(monkeypatch, count):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    with pytest.raises(ConfigError, match="^workers: expected at least 1"):
        worker_count(count, 100)
    monkeypatch.setenv("DMRFSIM_WORKERS", str(count))
    with pytest.raises(ConfigError, match="^DMRFSIM_WORKERS: expected at least 1"):
        worker_count(None, 100)


def test_a_bad_workers_argument_is_blamed_on_the_argument(monkeypatch):
    # the argument wins, so the environment is not what was read
    monkeypatch.setenv("DMRFSIM_WORKERS", "2")
    with pytest.raises(ConfigError, match="^workers: expected an integer, got '3x'$"):
        worker_count("3x", 5)
    with pytest.raises(ConfigError, match="^workers: expected at least 1 worker, got 0$"):
        worker_count(0, 5)


@pytest.mark.parametrize("requested", [2.5, True, "3"])
def test_a_workers_argument_that_is_not_an_int_is_refused(monkeypatch, requested):
    # int() would truncate 2.5 to 2 and read True as 1 and "3" as 3; the
    # environment variable is text, so only it is parsed
    monkeypatch.setenv("DMRFSIM_WORKERS", "2")
    message = re.escape(f"workers: expected an integer, got {requested!r}")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        worker_count(requested, 5)


def test_a_bad_environment_count_is_blamed_on_the_variable(monkeypatch):
    monkeypatch.setenv("DMRFSIM_WORKERS", "3x")
    with pytest.raises(ConfigError, match="^DMRFSIM_WORKERS: expected an integer, got '3x'$"):
        worker_count(None, 5)
    monkeypatch.setenv("DMRFSIM_WORKERS", "0")
    with pytest.raises(ConfigError, match="^DMRFSIM_WORKERS: expected at least 1 worker, got '0'$"):
        worker_count(None, 5)


def test_csv_round_trip_restores_types():
    rows = run_sweep(tiny_spec(repetitions=1))
    text = rows_to_csv_text(rows)
    assert "\r" not in text
    parsed = read_csv(io.StringIO(text))
    assert parsed == rows


def test_csv_text_is_byte_stable_across_reruns():
    assert rows_to_csv_text(run_sweep(tiny_spec())) == rows_to_csv_text(
        run_sweep(tiny_spec())
    )


def test_read_csv_of_an_empty_file_is_no_rows():
    assert read_csv(io.StringIO("")) == []


def test_write_csv_header_matches_columns():
    buf = io.StringIO()
    write_csv([], buf)
    assert buf.getvalue() == ",".join(CSV_COLUMNS) + "\n"


# ----------------------------------------------------------------------
# presets


def test_presets_cover_the_experiment_grids():
    base = tiny_base()
    fig5 = make_preset("fig5", base)
    assert fig5.parameter == "fault_ratio"
    assert fig5.protocols == [DMRF, GREEDY_MIN_DELAY, GREEDY_MAX_RATE]
    fig6 = make_preset("fig6", base)
    assert fig6.parameter == "buffer_fill"
    assert fig6.base.injection_period_ms == 1.5
    fig7 = make_preset("fig7", base)
    assert fig7.protocols == [DMRF, GREEDY_MIN_DELAY, GREEDY_MAX_RATE, BYPASS]
    fig8 = make_preset("fig8", base)
    assert fig8.protocols == [DMRF, BYPASS]
    assert (fig8.parameter, fig8.values, fig8.base) == (fig7.parameter, fig7.values, fig7.base)
    fig9 = make_preset("fig9", base)
    assert fig9.values == [100, 200, 400]
    assert fig9.base.comm_radius == 1.6
    assert fig9.overrides[0]["region"] == (10.0, 10.0)
    assert fig9.overrides[2]["region"] == (20.0, 20.0)
    with pytest.raises(ConfigError):
        make_preset("fig1", base)


# ----------------------------------------------------------------------
# summaries


def result_row(parameter, value, protocol, delivered, injected=100, delay=10.0,
               control=1000, energy=0.5):
    return {
        "parameter": parameter,
        "value": value,
        "protocol": protocol,
        "repetition": 0,
        "seed": 1,
        "injected": injected,
        "delivered": delivered,
        "expired": injected - delivered,
        "dropped_no_route": 0,
        "buffer_drops": 0,
        "control_packets": control,
        "mean_delay_ms": delay,
        "p95_delay_ms": delay,
        "energy_total_j": energy,
        "tx_total": 100,
        "tx_max": 10,
    }


def test_summarize_aggregates_and_flags_ordering():
    rows = [
        result_row("fault_ratio", 0.0, DMRF, 100),
        result_row("fault_ratio", 0.0, DMRF, 90),
        result_row("fault_ratio", 0.0, GREEDY_MIN_DELAY, 80),
        result_row("fault_ratio", 0.2, DMRF, 85),
        result_row("fault_ratio", 0.2, GREEDY_MIN_DELAY, 40),
    ]
    text = summarize(rows)
    assert text.splitlines()[0].startswith("parameter value protocol")
    assert "fault_ratio 0.0 DMRF 2 0.95+/-" in text
    assert "PASS: DMRF delivery >= GREEDY_MIN_DELAY at every fault_ratio" in text


def test_summarize_prints_na_delay_for_a_point_that_delivered_nothing():
    rows = [
        result_row("void_radius", 5.0, BYPASS, 0, delay=0.0),
        result_row("void_radius", 5.0, BYPASS, 0, delay=0.0),
        result_row("void_radius", 5.0, DMRF, 90, delay=12.5),
        result_row("void_radius", 5.0, DMRF, 0, delay=0.0),
    ]
    lines = summarize(rows).splitlines()
    assert lines[1] == "void_radius 5.0 BYPASS 2 0+/-0 n/a 1000 0.5"
    # runs that delivered nothing are left out of the mean, not averaged as 0
    assert lines[2] == "void_radius 5.0 DMRF 2 0.45+/-0.636396 12.5 1000 0.5"


def test_summarize_flags_failures():
    rows = [
        result_row("fault_ratio", 0.0, DMRF, 70),
        result_row("fault_ratio", 0.0, GREEDY_MIN_DELAY, 90),
    ]
    text = summarize(rows)
    assert "FAIL: DMRF delivery >= GREEDY_MIN_DELAY" in text


def test_summarize_void_and_scaling_flags():
    rows = [
        result_row("void_radius", 7.0, DMRF, 95),
        result_row("void_radius", 7.0, GREEDY_MIN_DELAY, 2),
        result_row("node_count", 100, DMRF, 100, control=1000),
        result_row("node_count", 200, DMRF, 100, control=2100),
        result_row("node_count", 400, DMRF, 100, control=3900),
    ]
    text = summarize(rows)
    assert "PASS: DMRF delivery at void radius 7 is 0.95" in text
    assert "PASS: GREEDY_MIN_DELAY delivery at void radius 7 is 0.02" in text
    assert "PASS: control overhead grows linearly in node count" in text
    assert "PASS: control overhead ratio over a 4x size span is 3.9" in text


def test_linear_r2_of_a_constant_x_or_y():
    # no spread in x fits no line; no spread in y is fitted exactly
    assert _linear_r2([100.0, 100.0, 100.0], [1.0, 2.0, 4.0]) == 0.0
    assert _linear_r2([100.0, 200.0, 400.0], [5.0, 5.0, 5.0]) == 1.0


def test_linear_r2_adds_left_to_right_on_every_python():
    # exact summation (math.fsum, or the built-in sum from Python 3.12 on)
    # gives 0.3915212639947926 here
    ys = [262518.3354820275, 500480.73622102157, 454996.15414085076]
    assert _linear_r2([100.0, 200.0, 400.0], ys) == 0.39152126399479215


def test_summarize_leaves_points_where_neither_side_delivers_out_of_the_flag():
    rows = [
        result_row("buffer_fill", 0.0, DMRF, 100),
        result_row("buffer_fill", 0.0, GREEDY_MIN_DELAY, 90),
        result_row("buffer_fill", 0.8, DMRF, 0, delay=0.0),
        result_row("buffer_fill", 0.8, GREEDY_MIN_DELAY, 0, delay=0.0),
        result_row("buffer_fill", 1.0, DMRF, 0, delay=0.0),
        result_row("buffer_fill", 1.0, GREEDY_MIN_DELAY, 0, delay=0.0),
    ]
    # a 0-vs-0 point would otherwise pass, and be the tightest at a margin of 0
    assert summarize(rows).splitlines()[-1] == (
        "PASS: DMRF delivery >= GREEDY_MIN_DELAY at every buffer_fill "
        "(tightest at 0.0: 1 vs 0.9; n/a at 0.8, 1.0)"
    )
    assert summarize(rows[2:]).splitlines()[-1] == (
        "n/a: DMRF delivery >= GREEDY_MIN_DELAY at every buffer_fill "
        "(neither delivers at 0.8, 1.0)"
    )
