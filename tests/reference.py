"""The slack-ratio rules written out one step per function.

`DmrfProtocol.select_next_hop` computes the slack ratio, the thresholds, the
rate band and the continuity pin inline, with no record and no helper call.
These are the same rules as separate functions: the tests compare the
protocol's decisions against them, and their worked examples pin each rule on
its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from dmrfsim.model import RATE_HIGH, RATE_LOW, RATE_MEDIUM, RateClass
from dmrfsim.protocol import OMEGA_FLOOR
from dmrfsim.topology import UNREACHABLE


class NoRouteError(Exception):
    """Raised when thresholds are requested for an unreachable sink."""


@dataclass(slots=True)
class Thresholds:
    theta_low: float
    theta_high: float
    theta_jump: float
    omega: float


def compute_lambda(remaining: float, needed: float) -> float:
    """Slack ratio: remaining lifetime over estimated time still needed.

    Expired packets clamp to 0, which lands in the jump/drop band.
    """
    if needed <= 0:
        raise ValueError(f"estimated needed time must be positive, got {needed}")
    if remaining <= 0:
        return 0.0
    return remaining / needed


def compute_thresholds(
    theta_jump: float,
    needed_time: float,
    max_fcs_delay: float,
    max_next_hop_delay: float,
    mu: float,
    remaining: float,
) -> Thresholds:
    """Band boundaries for the slack ratio.

    omega shrinks as the packet's remaining lifetime approaches the next-hop
    delay, widening the urgent bands; it is clamped into (OMEGA_FLOOR, 1] so
    theta_low > theta_high always holds.
    """
    if needed_time == UNREACHABLE:
        raise NoRouteError("sink unreachable, thresholds undefined")
    if needed_time <= 0:
        raise ValueError("needed_time must be positive")
    omega = (remaining - max_next_hop_delay) / needed_time
    if omega >= 1.0:
        omega = 1.0
    elif not omega > OMEGA_FLOOR:
        omega = OMEGA_FLOOR
    theta_high = theta_jump + max_fcs_delay / needed_time
    theta_low = theta_high / omega + mu / needed_time
    return Thresholds(theta_low, theta_high, theta_jump, omega)


def classify_rate(lam: float, thresholds: Thresholds) -> RateClass:
    """Rate band for a slack ratio already known to exceed theta_jump."""
    if lam >= thresholds.theta_low:
        return RATE_LOW
    if lam >= thresholds.theta_high:
        return RATE_MEDIUM
    return RATE_HIGH


def pin_rate_continuity(previous: RateClass, computed: RateClass) -> RateClass:
    """A packet never swings LOW<->HIGH in a single hop."""
    if (previous is RATE_LOW and computed is RATE_HIGH) or (
        previous is RATE_HIGH and computed is RATE_LOW
    ):
        return RATE_MEDIUM
    return computed
