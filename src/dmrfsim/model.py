"""Shared domain vocabulary: node/packet/state types, the kinds of event a
run schedules, legal state transitions, and packet lifetime arithmetic.

All types are plain values; mutation happens only inside the single-threaded
engine loop.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce

NodeId = int


class InvariantError(RuntimeError):
    """A simulation broke one of its own invariants; the run is invalid."""


#: a node's detection state: one of the STATE_* strings
NodeState = str
#: a forwarding rate band: one of the RATE_* strings, the rate_multipliers keys
RateClass = str
#: the kind of a feedback frame: the state its sender reports (FAULTY, VOID,
#: CONG or NORMAL), or FB_JUMP_FAIL
FeedbackKind = str

# compared by identity: code passes these objects, never equal strings it builds
STATE_NORMAL = "NORMAL"
STATE_FAULTY = "FAULTY"
STATE_JFAULTY = "JFAULTY"
STATE_CONG = "CONG"
STATE_JCONG = "JCONG"
STATE_VOID = "VOID"

RATE_LOW = "low"
RATE_MEDIUM = "medium"
RATE_HIGH = "high"

FB_JUMP_FAIL = "JUMP_FAIL"

#: a recorded state transition: (time, node, old state, new state)
Transition = tuple[float, NodeId, NodeState, NodeState]

#: the name of each kind of event a run's heap holds; PROBE, PROBE_TIMEOUT
#: and FEEDBACK_DELIVERY are DMRF's own
EVENT_KINDS = (
    "PACKET_ARRIVAL", "PACKET_INJECT", "PROBE", "PROBE_TIMEOUT",
    "FEEDBACK_DELIVERY", "FAULT_ONSET", "DEADLINE_CHECK",
)
# each kind is the index of its name
(PACKET_ARRIVAL, PACKET_INJECT, PROBE, PROBE_TIMEOUT,
 FEEDBACK_DELIVERY, FAULT_ONSET, DEADLINE_CHECK) = range(len(EVENT_KINDS))


@dataclass(slots=True)
class Packet:
    """The unit of delivery, and its record once it finishes.

    Times are absolute simulation milliseconds; deadline is absolute, not a
    remaining budget. `outcome` and `finished_at` stay None until the engine
    finishes the packet.
    """

    id: int
    created_at: float
    deadline: float
    #: the band DMRF last forwarded it at, for the rate-continuity rule
    rate_class: RateClass = RATE_LOW
    hop_trace: list[NodeId] = field(default_factory=list)
    outcome: str | None = None
    finished_at: float | None = None


@dataclass(slots=True)
class CandidateEntry:
    """Per-candidate routing statistics kept by the owning node."""

    candidate: NodeId
    delay_est: float = 0.0
    attempts: int = 0
    successes: int = 0
    suc: float = 1.0  # optimistic prior: fresh candidates get probability mass
    cached_state: NodeState = STATE_NORMAL
    tx_count: int = 0
    #: missed probes and failed transmissions since the candidate last
    #: replied or acknowledged; at cfg.misses_to_faulty it is cached FAULTY
    misses: int = 0


@dataclass(slots=True)
class FeedbackMessage:
    """Typed upstream control message, counted as a control packet. Its kind
    is FB_JUMP_FAIL or the state the node that sends it reports."""

    kind: FeedbackKind
    hop_limit: int = 64


def make_packet(
    source: NodeId,
    now: float,
    lifetime: float,
    packet_id: int = 0,
) -> Packet:
    """Create a packet with an absolute deadline of now + lifetime."""
    if lifetime <= 0:
        raise ValueError(f"packet lifetime must be positive, got {lifetime}")
    return Packet(
        id=packet_id,
        created_at=now,
        deadline=now + lifetime,
        hop_trace=[source],
    )


def running_sum(values: Iterable[float], start: float = 0.0) -> float:
    """Plain left-to-right float sum, `start` first. The built-in `sum`
    compensates rounding from Python 3.12 on, which would tie results to the
    interpreter."""
    return reduce(operator.add, values, start)


def remaining_time(packet: Packet, now: float) -> float:
    """Remaining lifetime L; negative means the packet has expired."""
    return packet.deadline - now


DEAD_STATES = (STATE_FAULTY, STATE_JFAULTY)
CONG_STATES = (STATE_CONG, STATE_JCONG)
#: the only states a node may enter CONG from
CONG_SOURCES = (STATE_NORMAL, STATE_JCONG)


def legal_transition(
    from_state: NodeState,
    to_state: NodeState,
    fcs_states: list[NodeState],
) -> bool:
    """Whether a node may move from one state to another given the cached
    states of its forwarding candidates.

    Propagated states (JFAULTY / JCONG / VOID) are reachable only when the
    whole candidate set justifies them, and are left only when it no longer
    does. FAULTY models a crashed node: reachable from anywhere, terminal.
    """
    if to_state is from_state:
        return True
    if to_state is STATE_FAULTY:
        return True
    if from_state is STATE_FAULTY:
        return False
    if to_state is STATE_JFAULTY:
        return bool(fcs_states) and all(s in DEAD_STATES for s in fcs_states)
    if to_state is STATE_JCONG:
        return bool(fcs_states) and all(s in CONG_STATES for s in fcs_states)
    if to_state is STATE_VOID:
        return not fcs_states or all(s is STATE_VOID for s in fcs_states)
    if to_state is STATE_CONG:
        return from_state in CONG_SOURCES
    if to_state is STATE_NORMAL:
        if from_state is STATE_CONG:
            return True
        if from_state is STATE_JCONG:
            return not all(s in CONG_STATES for s in fcs_states)
        if from_state is STATE_JFAULTY:
            return not all(s in DEAD_STATES for s in fcs_states)
        if from_state is STATE_VOID:
            return bool(fcs_states) and not all(
                s is STATE_VOID for s in fcs_states
            )
    return False
