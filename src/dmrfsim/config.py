"""Scenario configuration: the single schema every run is described by.

Defaults reproduce the reference deployment: a 400-node uniform grid on a
20 m x 20 m region, 200 Kb/s radios, 100-byte buffers, 32-byte packets with
100 ms lifetimes. A JSON config file maps keys to the field names below;
the optional key "preset": "table2" is accepted and simply selects these
defaults explicitly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Callable

from .topology import DISTRIBUTIONS, UNIFORM_GRID

DMRF = "DMRF"
GREEDY_MIN_DELAY = "GREEDY_MIN_DELAY"
GREEDY_MAX_RATE = "GREEDY_MAX_RATE"
BYPASS = "BYPASS"
PROTOCOLS = (DMRF, GREEDY_MIN_DELAY, GREEDY_MAX_RATE, BYPASS)

PRESETS = ("table2",)

#: control frames (probes, feedback) are this long on the wire
CONTROL_FRAME_BITS = 64

#: the most nodes a run may deploy. At the table2 density (seed 1, Python 3.11,
#: N = 10,000) tracemalloc peaks at 1.7 KB per node over a deploy and a
#: one-packet, 5 ms DMRF run (`tools/bytes_per_node.py`), about 167 MB at the
#: bound, where a run of that shape peaks at about 208 MiB maxrss; and at
#: 1.8 KB per node over a deploy and a 20-packet DMRF run with no horizon,
#: about 0.18 GB, where such a run peaks at about 212 MiB
MAX_NODE_COUNT = 100_000


class ConfigError(ValueError):
    """A scenario file or override failed validation."""


@dataclass
class ScenarioConfig:
    """Everything a single run needs besides the topology object itself."""

    node_count: int = 400
    region: tuple[float, float] = (20.0, 20.0)
    distribution: str = UNIFORM_GRID
    comm_radius: float = 1.5
    max_tx_distance: float = 30.0
    bandwidth_kbps: float = 200.0  # 1 Kb/s == 1 bit/ms
    buffer_bytes: int = 100
    packet_bytes: int = 32
    packet_count: int = 100
    packet_lifetime_ms: float = 100.0
    injection_period_ms: float = 5.0
    protocol: str = DMRF
    fault_ratio: float = 0.0
    buffer_fill: float = 0.0
    void_center: tuple[float, float] = (10.0, 10.0)
    void_radius: float = 0.0
    theta_jump: float = 0.2
    theta_cong: float = 0.8
    cong_horizon_ms: float = 5.0
    cong_hysteresis: float = 0.1
    misses_to_faulty: int = 3
    probe_period_ms: float = 10.0
    probe_timeout_ms: float = 2.0
    ack_timeout_ms: float = 2.0
    rate_multipliers: dict[str, float] = field(
        default_factory=lambda: {"low": 1.2, "medium": 1.0, "high": 0.7}
    )
    energy_elec_j_per_bit: float = 50e-9
    energy_amp_j_per_bit_m2: float = 100e-12
    sigma_factor: float = 0.15
    horizon_ms: float = 10_000.0
    seed: int = 1

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8

    @property
    def mean_hop_delay_ms(self) -> float:
        return self.packet_bits / self.bandwidth_kbps

    @property
    def feedback_delay_ms(self) -> float:
        return CONTROL_FRAME_BITS / self.bandwidth_kbps


_FIELD_NAMES = {f.name for f in dataclasses.fields(ScenarioConfig)}

_POSITIVE_INT = (
    "node_count",
    "buffer_bytes",
    "packet_bytes",
    "packet_count",
    "misses_to_faulty",
)
_POSITIVE_FLOAT = (
    "comm_radius",
    "max_tx_distance",
    "bandwidth_kbps",
    "packet_lifetime_ms",
    "injection_period_ms",
    "cong_horizon_ms",
    "probe_period_ms",
    "probe_timeout_ms",
    "ack_timeout_ms",
    "horizon_ms",
)
_NON_NEGATIVE_FLOAT = (
    "void_radius",
    "cong_hysteresis",
    "sigma_factor",
    "energy_elec_j_per_bit",
    "energy_amp_j_per_bit_m2",
)
_UNIT_INTERVAL = ("fault_ratio", "buffer_fill")
#: the only float fields that may be infinite, and never both at once: without
#: a horizon a run ends when its last packet has expired, and packets that
#: never expire are cut at the horizon
_MAY_BE_INFINITE = ("horizon_ms", "packet_lifetime_ms")


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v: object) -> bool:
    # converts to a finite float: an int may be too large for one
    return _is_number(v) and _finite_result(lambda: float(v))


def _finite_result(compute: Callable[[], float]) -> bool:
    try:
        return math.isfinite(compute())
    except OverflowError:  # a float power, or an int too large for a float
        return False


def _check(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Validate every field; error messages name the offending key."""
    for key in _POSITIVE_INT:
        v = getattr(cfg, key)
        _check(_is_int(v) and v > 0, key, f"expected a positive integer, got {v!r}")
    for key in _POSITIVE_FLOAT:
        v = getattr(cfg, key)
        if key in _MAY_BE_INFINITE:
            _check((_is_finite(v) or v == math.inf) and v > 0, key,
                   f"expected a finite positive number or Infinity, got {v!r}")
        else:
            _check(_is_finite(v) and v > 0, key,
                   f"expected a finite positive number, got {v!r}")
    _check(math.isfinite(cfg.horizon_ms) or math.isfinite(cfg.packet_lifetime_ms),
           "horizon_ms", "horizon_ms and packet_lifetime_ms cannot both be infinite")
    # a probe round reschedules itself a period on; a period lost to rounding
    # at the run's last possible instant would stop the clock there for ever
    try:
        t_last = (cfg.packet_count - 1) * cfg.injection_period_ms + cfg.packet_lifetime_ms
    except OverflowError:  # a packet_count too large for a float
        t_last = math.inf
    t_end = float(min(cfg.horizon_ms, t_last))
    _check(not math.isfinite(t_end) or t_end + cfg.probe_period_ms > t_end,
           "probe_period_ms", f"too small to advance the clock past {t_end!r} ms, "
           "the run's last possible instant")
    for key in _NON_NEGATIVE_FLOAT:
        v = getattr(cfg, key)
        _check(_is_finite(v) and v >= 0, key,
               f"expected a finite non-negative number, got {v!r}")
    # one data frame sent max_tx_distance, costed as engine.energy_cost does,
    # must cost finite joules, or a run's energy total cannot be written
    bits, elec, amp = cfg.packet_bits, cfg.energy_elec_j_per_bit, cfg.energy_amp_j_per_bit_m2
    _check(_finite_result(lambda: float(bits)), "packet_bytes",
           "too large: its bit count is not a finite number")
    _check(_is_finite(cfg.buffer_bytes), "buffer_bytes", "too large to be a finite number")
    cost = (f"a {bits}-bit data frame sent max_tx_distance ({cfg.max_tx_distance!r} m) "
            "would cost a non-finite number of joules")
    _check(_finite_result(lambda: bits * elec), "energy_elec_j_per_bit", cost)
    _check(_finite_result(lambda: bits * (elec + amp * cfg.max_tx_distance**2)),
           "energy_amp_j_per_bit_m2", cost)
    for key in _UNIT_INTERVAL:
        v = getattr(cfg, key)
        _check(_is_number(v) and 0.0 <= v <= 1.0, key,
               f"expected a value in [0, 1], got {v!r}")
    _check(2 <= cfg.node_count <= MAX_NODE_COUNT, "node_count", "expected a source, a "
           f"sink and at most {MAX_NODE_COUNT} nodes in all, got {cfg.node_count}")
    for key in ("region", "void_center"):
        v = getattr(cfg, key)
        _check(
            isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_finite, v)),
            key, f"expected a pair of finite numbers, got {v!r}")
    _check(cfg.region[0] > 0 and cfg.region[1] > 0, "region",
           "both extents must be positive")
    # the neighbour grid numbers its cells by position over comm_radius
    _check(_finite_result(lambda: max(cfg.region) / cfg.comm_radius), "comm_radius",
           f"too small for the region: {max(cfg.region)!r} m over {cfg.comm_radius!r} m "
           "is not a finite number of cells")
    _check(cfg.distribution in DISTRIBUTIONS, "distribution",
           f"expected one of {sorted(DISTRIBUTIONS)}, got {cfg.distribution!r}")
    _check(cfg.protocol in PROTOCOLS, "protocol",
           f"expected one of {list(PROTOCOLS)}, got {cfg.protocol!r}")
    _check(cfg.comm_radius <= cfg.max_tx_distance, "comm_radius",
           "must not exceed max_tx_distance")
    _check(cfg.packet_bytes <= cfg.buffer_bytes, "packet_bytes",
           "a single packet must fit in a relay buffer")
    _check(_is_number(cfg.theta_jump) and 0.0 < cfg.theta_jump < 1.0, "theta_jump",
           f"expected a value in (0, 1), got {cfg.theta_jump!r}")
    _check(_is_number(cfg.theta_cong) and 0.0 < cfg.theta_cong <= 1.0, "theta_cong",
           f"expected a value in (0, 1], got {cfg.theta_cong!r}")
    _check(cfg.cong_hysteresis < cfg.theta_cong, "cong_hysteresis",
           "must stay below theta_cong")
    rm = cfg.rate_multipliers
    _check(isinstance(rm, dict) and set(rm) == {"low", "medium", "high"},
           "rate_multipliers", "expected exactly the keys low, medium, high")
    _check(all(_is_finite(v) and v > 0 for v in rm.values()),
           "rate_multipliers", "multipliers must be finite positive numbers")
    _check(rm["low"] >= rm["medium"] >= rm["high"], "rate_multipliers",
           "expected low >= medium >= high (lower urgency sends slower)")
    _check(_is_int(cfg.seed), "seed", f"expected an integer, got {cfg.seed!r}")
    return cfg


def from_dict(raw: dict) -> ScenarioConfig:
    """Build a validated config from parsed JSON, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root: expected an object, got {type(raw).__name__}")
    raw = dict(raw)
    preset = raw.pop("preset", None)
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"preset: expected one of {list(PRESETS)}, got {preset!r}")
    unknown = sorted(set(raw) - _FIELD_NAMES, key=str)
    if unknown:
        key = str(unknown[0])
        # the keys of the percentage trust scale, which one count of misses replaced
        hint = " (replaced by misses_to_faulty)" if key.startswith("confidence") else ""
        raise ConfigError(f"unknown key: {key}{hint}")
    for key in ("region", "void_center"):
        if key in raw and isinstance(raw[key], list):
            raw[key] = tuple(raw[key])
    cfg = ScenarioConfig(**raw)
    return validate(cfg)


def load(path: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax or encoding, or an int of too many digits
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return from_dict(raw)
