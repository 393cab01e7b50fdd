"""The slack-ratio rules and the jump draw written out one step per function.

`DmrfProtocol.select_next_hop` computes the slack ratio, the thresholds, the
rate band and the continuity pin inline, with no record and no helper call.
These are the same rules as separate functions: the tests compare the
protocol's decisions against them, and their worked examples pin each rule on
its own.

A jump pool holds its candidate ids and only the entries that differ from a
fresh one. `pool_entries` lists the pool as one entry per candidate, and
`reference_jump_target` draws from such a list as the draw was first
written: normalize, then accumulate. `held_entry` finds the entry a table
holds for a node by a scan, where DMRF hands entries along and never looks
one up.

DMRF sends each state report and jump failure where it decides it.
`record_reports` keeps them in a list instead, so a test reads what a
protocol that joined no run would have sent.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from dmrfsim.model import (
    RATE_HIGH, RATE_LOW, RATE_MEDIUM, STATE_CONG, STATE_FAULTY, STATE_JCONG, STATE_JFAULTY,
    STATE_VOID, CandidateEntry, NodeId, RateClass)
from dmrfsim.protocol import OMEGA_FLOOR, JumpPool, RoutingTable
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


def pool_entries(pool: JumpPool) -> list[CandidateEntry]:
    """A jump pool as one entry per candidate, in id order: the pool's held
    entry, the same object, or else a fresh `CandidateEntry(id, mu)`, the
    entry an untouched candidate reads as."""
    held = pool.held
    return [held[i] if i in held else CandidateEntry(c, pool.mu) for i, c in enumerate(pool.ids)]


def held_entry(table: RoutingTable, node: NodeId) -> CandidateEntry | None:
    """The entry `table` holds for candidate `node`, by a scan of its
    members, then of its jump pool's held entries as `pool_entries` lists
    them; None when it holds none. An untouched pool candidate, which reads
    as a fresh entry, is held by none."""
    for e in table.members:
        if e.candidate == node:
            return e
    pool = table.jump_pool
    if pool is not None:
        for i, e in enumerate(pool_entries(pool)):
            if e.candidate == node:
                return e if i in pool.held else None
    return None


KNOWN_BAD = (STATE_FAULTY, STATE_JFAULTY, STATE_CONG, STATE_JCONG, STATE_VOID)


def reference_shares(entries: list[CandidateEntry]) -> list[float]:
    """Each entry's share of the success ratios, summed left to right from
    0.0; uniform when that total is not positive, and none for no entry."""
    if not entries:
        return []
    total = functools.reduce(operator.add, (e.suc for e in entries), 0.0)
    if total <= 0.0:
        return [1.0 / len(entries)] * len(entries)
    return [e.suc / total for e in entries]


def reference_jump_target(entries: list[CandidateEntry], rng):
    """The draw written out as normalize, then accumulate: known-bad
    candidates excluded, the shares of the rest, one draw, and the id of the
    first entry whose running sum exceeds it; no target when none is left."""
    viable = [e for e in entries if e.cached_state not in KNOWN_BAD]
    if not viable:
        return None
    r = rng.random()
    for acc, e in zip(itertools.accumulate(reference_shares(viable)), viable):
        if r < acc:
            return e.candidate
    return viable[-1].candidate


def record_reports(proto) -> list:
    """Make `proto` append each frame it reports to the list returned, in
    report order, in place of sending it."""
    reports = []
    proto._report = lambda table, fb, now: reports.append(fb)
    return reports
