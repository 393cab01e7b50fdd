"""Unit tests for the scenario schema, validation, and JSON loading."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from dmrfsim.config import (
    MAX_NODE_COUNT,
    ConfigError,
    ScenarioConfig,
    from_dict,
    load,
    validate,
)


def test_defaults_validate_and_match_reference_deployment():
    cfg = validate(ScenarioConfig())
    assert cfg.node_count == 400
    assert cfg.region == (20.0, 20.0)
    assert cfg.bandwidth_kbps == 200.0
    assert cfg.buffer_bytes == 100
    assert cfg.packet_bytes == 32
    assert cfg.max_tx_distance == 30.0


def test_derived_timing_properties():
    cfg = ScenarioConfig()
    assert cfg.packet_bits == 256
    # 256 bits at 200 bits/ms
    assert cfg.mean_hop_delay_ms == pytest.approx(1.28)
    # 64-bit control frames
    assert cfg.feedback_delay_ms == pytest.approx(0.32)


@pytest.mark.parametrize(
    "field,value",
    [
        ("node_count", 0),
        ("node_count", 2.5),
        ("packet_count", -1),
        ("comm_radius", 0.0),
        ("bandwidth_kbps", -5.0),
        ("fault_ratio", 1.5),
        ("buffer_fill", -0.1),
        ("void_radius", -1.0),
        ("theta_jump", 0.0),
        ("theta_jump", 1.0),
        ("theta_jump", "0.2"),
        ("theta_jump", None),
        ("theta_jump", [0.5]),
        ("theta_cong", 1.5),
        ("theta_cong", "0.5"),
        ("theta_cong", True),
        ("misses_to_faulty", 0),
        ("misses_to_faulty", -1),
        ("misses_to_faulty", True),
        ("misses_to_faulty", 2.5),
        ("seed", "one"),
        # one data frame sent the 30 m max_tx_distance would cost inf joules
        ("energy_amp_j_per_bit_m2", 1e308),
        ("energy_elec_j_per_bit", 1e307),
        # lost to rounding at the run's last instant: the clock would stall
        ("probe_period_ms", 1e-20),
    ],
)
def test_validation_rejects_bad_values_naming_the_key(field, value):
    cfg = ScenarioConfig(**{field: value})
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert field in str(err.value)


def test_the_probe_period_must_advance_the_clock_at_the_last_instant():
    cfg = ScenarioConfig(packet_count=3, horizon_ms=1e6)
    t_end = (3 - 1) * cfg.injection_period_ms + cfg.packet_lifetime_ms
    validate(dataclasses.replace(cfg, probe_period_ms=math.ulp(t_end)))
    with pytest.raises(ConfigError, match="probe_period_ms"):
        validate(dataclasses.replace(cfg, probe_period_ms=math.ulp(t_end) / 4))
    # the horizon, when earlier, is the last instant
    validate(dataclasses.replace(cfg, horizon_ms=1.0, probe_period_ms=math.ulp(1.0)))


def test_a_packet_whose_bit_count_overflows_a_float_is_named():
    # it fits its buffer, and free radios would hide it from the energy check
    cfg = ScenarioConfig(packet_bytes=10**400, buffer_bytes=10**400,
                         energy_elec_j_per_bit=0.0, energy_amp_j_per_bit_m2=0.0)
    with pytest.raises(ConfigError, match="packet_bytes"):
        validate(cfg)


def test_node_count_is_bounded_so_a_deploy_cannot_exhaust_memory():
    # validation only: a topology this large is never deployed here
    assert MAX_NODE_COUNT == 100_000
    validate(ScenarioConfig(node_count=MAX_NODE_COUNT))
    for count in (MAX_NODE_COUNT + 1, 10**20):
        with pytest.raises(ConfigError, match=f"node_count: .*{MAX_NODE_COUNT}"):
            validate(ScenarioConfig(node_count=count))
    with pytest.raises(ConfigError, match="node_count"):
        from_dict({"node_count": 10**20, "packet_count": 3})


#: configs whose comm_radius is so small beside the region that a position
#: over it overflows a float: the neighbour grid could not number its cells
TINY_RADIUS = [
    {"node_count": 25, "region": [4.0, 4.0], "packet_count": 3, "comm_radius": 5e-324},
    {"node_count": 25, "region": [1e308, 1e308], "packet_count": 3, "comm_radius": 1e-10,
     "max_tx_distance": 1e-10},
]


@pytest.mark.parametrize("raw", TINY_RADIUS, ids=["subnormal", "huge-region"])
def test_a_comm_radius_too_small_for_the_region_is_named(raw):
    with pytest.raises(ConfigError, match="^comm_radius: too small for the region"):
        from_dict(raw)


def test_a_comm_radius_far_below_the_region_is_accepted_while_the_ratio_is_finite():
    validate(ScenarioConfig(region=(4.0, 4.0), comm_radius=1e-300))
    validate(ScenarioConfig(region=(1e308, 1e308), comm_radius=1.0))


#: an int that JSON reads exactly but no float can hold
HUGE = 10**400


@pytest.mark.parametrize(
    "field,value",
    [
        ("horizon_ms", HUGE),
        ("packet_lifetime_ms", HUGE),
        ("bandwidth_kbps", HUGE),
        ("cong_horizon_ms", HUGE),
        ("probe_period_ms", HUGE),
        ("probe_timeout_ms", HUGE),
        ("ack_timeout_ms", HUGE),
        ("injection_period_ms", HUGE),
        ("buffer_bytes", HUGE),
        ("sigma_factor", HUGE),
        ("void_radius", HUGE),
        ("region", (HUGE, 20.0)),
        ("void_center", (10.0, HUGE)),
    ],
    ids=lambda v: None if isinstance(v, str) else "HUGE",
)
def test_an_int_too_large_for_a_float_is_named(field, value):
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(**{field: value}))
    assert str(err.value).startswith(f"{field}:")


def test_a_packet_count_too_large_for_a_float_is_cut_by_a_finite_horizon():
    # the run's last instant is then the horizon, and the period must pass it
    validate(ScenarioConfig(packet_count=HUGE))
    with pytest.raises(ConfigError, match="probe_period_ms"):
        validate(ScenarioConfig(packet_count=HUGE, probe_period_ms=1e-20))


INF = float("inf")


@pytest.mark.parametrize(
    "field,value",
    [
        ("injection_period_ms", INF),
        ("comm_radius", INF),
        ("bandwidth_kbps", INF),
        ("probe_period_ms", INF),
        ("probe_timeout_ms", INF),
        ("ack_timeout_ms", INF),
        ("cong_horizon_ms", INF),
        ("void_radius", INF),
        ("sigma_factor", INF),
        ("energy_amp_j_per_bit_m2", INF),
        ("void_radius", float("nan")),
        ("horizon_ms", float("nan")),
        ("region", (INF, 20.0)),
        ("void_center", (10.0, float("nan"))),
        ("rate_multipliers", {"low": INF, "medium": 1.0, "high": 0.7}),
    ],
)
def test_validation_rejects_non_finite_values_naming_the_key(field, value):
    with pytest.raises(ConfigError) as err:
        validate(ScenarioConfig(**{field: value}))
    assert str(err.value).startswith(f"{field}:")


def test_horizon_or_lifetime_may_be_infinite_but_not_both():
    validate(ScenarioConfig(horizon_ms=INF))
    validate(ScenarioConfig(packet_lifetime_ms=INF))
    with pytest.raises(ConfigError, match="horizon_ms"):
        validate(ScenarioConfig(horizon_ms=INF, packet_lifetime_ms=INF))


def test_validation_cross_field_rules():
    with pytest.raises(ConfigError, match="comm_radius"):
        validate(ScenarioConfig(comm_radius=50.0, max_tx_distance=30.0))
    with pytest.raises(ConfigError, match="packet_bytes"):
        validate(ScenarioConfig(packet_bytes=200, buffer_bytes=100))
    with pytest.raises(ConfigError, match="cong_hysteresis"):
        validate(ScenarioConfig(theta_cong=0.5, cong_hysteresis=0.6))
    with pytest.raises(ConfigError, match="rate_multipliers"):
        validate(ScenarioConfig(rate_multipliers={"low": 0.5, "medium": 1.0,
                                                  "high": 0.7}))
    with pytest.raises(ConfigError, match="rate_multipliers"):
        validate(ScenarioConfig(rate_multipliers={"low": 1.2, "fast": 1.0,
                                                  "high": 0.7}))


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key: packet_sizes"):
        from_dict({"packet_sizes": 32})


def test_from_dict_names_the_first_unknown_key_of_mixed_types():
    # a dict built in Python may mix key types; they are ordered as text
    with pytest.raises(ConfigError, match=r"^unknown key: 1$"):
        from_dict({1: 2, "x": 3})
    with pytest.raises(ConfigError, match=r"^unknown key: \(3,\)$"):
        from_dict({"y": 1, (3,): 4, 2: 5})


@pytest.mark.parametrize("key", ["m_paths", "k_paths", "repetitions"])
def test_from_dict_rejects_removed_keys(key):
    # these keys changed no run and are gone from the schema
    with pytest.raises(ConfigError, match=f"unknown key: {key}"):
        from_dict({key: 1})


@pytest.mark.parametrize(
    "raw", [{"confidence_step": 25}, {"confidence_threshold": 50},
            {"misses_to_faulty": 3, "confidence_step": 25}],
    ids=["step", "threshold", "step-beside-misses"])
def test_from_dict_refuses_the_percentage_trust_keys_naming_their_replacement(raw):
    # trust is a count of misses now: the old pair is refused, not ignored
    key = next(k for k in raw if k != "misses_to_faulty")
    message = rf"^unknown key: {key} \(replaced by misses_to_faulty\)$"
    with pytest.raises(ConfigError, match=message):
        from_dict(raw)


def test_readme_config_table_names_exactly_the_schema_fields():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Scenario configuration", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert documented == {f.name for f in dataclasses.fields(ScenarioConfig)}


def test_from_dict_rejects_non_object_root():
    with pytest.raises(ConfigError, match="config root"):
        from_dict([1, 2, 3])


def test_from_dict_accepts_preset_and_list_pairs():
    cfg = from_dict({"preset": "table2", "region": [10.0, 10.0],
                     "void_center": [5, 5], "node_count": 100})
    assert cfg.region == (10.0, 10.0)
    assert cfg.void_center == (5, 5)
    assert cfg.node_count == 100
    with pytest.raises(ConfigError, match="preset"):
        from_dict({"preset": "table9"})


def test_load_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"node_count": 25, "region": [5, 5],
                                "comm_radius": 1.8, "seed": 7}))
    cfg = load(str(path))
    assert cfg.node_count == 25
    assert cfg.seed == 7


def test_load_reports_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load(str(bad))
