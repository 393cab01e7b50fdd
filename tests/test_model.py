"""Unit tests for the shared domain types and the transition matrix."""

import pytest

from dmrfsim.model import (
    CandidateEntry,
    FeedbackKind,
    FeedbackMessage,
    NodeState,
    RateClass,
    legal_transition,
    make_packet,
    remaining_time,
    running_sum,
)
from dmrfsim.protocol import Drop, DropReason, Forward, Jump, RoutingTable, Thresholds

N = NodeState


def test_make_packet_sets_absolute_deadline_and_trace():
    p = make_packet(source=3, now=10.0, lifetime=100.0, packet_id=7)
    assert p.id == 7
    assert p.deadline == 110.0
    assert p.created_at == 10.0
    assert p.hop_trace == [3]
    assert p.rate_class is RateClass.LOW


@pytest.mark.parametrize("lifetime", [0.0, -1.0, -100.0])
def test_make_packet_rejects_non_positive_lifetime(lifetime):
    with pytest.raises(ValueError):
        make_packet(source=0, now=0.0, lifetime=lifetime)


def test_remaining_time_counts_down_and_goes_negative():
    p = make_packet(source=0, now=5.0, lifetime=20.0)
    assert remaining_time(p, 5.0) == 20.0
    assert remaining_time(p, 20.0) == 5.0
    assert remaining_time(p, 30.0) == -5.0


def test_running_sum_adds_left_to_right_from_start():
    # 1e16 + 1.0 rounds back to 1e16. A compensated sum (math.fsum, or the
    # built-in sum from Python 3.12 on) gives 1.0 here
    assert running_sum([1.0, -1e16], 1e16) == 0.0
    assert running_sum([], 2.5) == 2.5
    assert running_sum([]) == 0.0


@pytest.mark.parametrize(
    "record, typo",
    [
        (make_packet(source=0, now=0.0, lifetime=1.0), "dedline"),
        (make_packet(source=0, now=0.0, lifetime=1.0), "source"),
        (make_packet(source=0, now=0.0, lifetime=1.0), "size_bits"),
        (CandidateEntry(candidate=1), "confidance"),
        (CandidateEntry(candidate=1), "jump_p"),
        (FeedbackMessage(kind=FeedbackKind.FAULT), "hop_limt"),
        (FeedbackMessage(kind=FeedbackKind.FAULT), "origin"),
        (FeedbackMessage(kind=FeedbackKind.FAULT), "subject"),
        (Forward(next=1, rate=RateClass.LOW), "rat"),
        (Jump(next=1), "nxt"),
        (Drop(reason=DropReason.EXPIRED), "reasn"),
        (Thresholds(theta_low=2.0, theta_high=1.0, theta_jump=0.1, omega=1.0), "omgea"),
        (
            RoutingTable(owner=0, members=[], entries={}, needed_time=1.0, sink_in_range=False),
            "stat",
        ),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_misspelled_field_of_a_per_hop_record_raises(record, typo):
    # the records are slotted: a typo cannot quietly create new state
    with pytest.raises(AttributeError):
        setattr(record, typo, 0)


def test_same_state_is_always_legal():
    for state in N:
        assert legal_transition(state, state, [])
        assert legal_transition(state, state, [N.CONG])


def test_faulty_is_reachable_from_anywhere_and_terminal():
    for state in N:
        assert legal_transition(state, N.FAULTY, [])
    for target in N:
        if target is not N.FAULTY:
            assert not legal_transition(N.FAULTY, target, [N.NORMAL])


def test_jfaulty_requires_all_candidates_dead():
    assert legal_transition(N.NORMAL, N.JFAULTY, [N.FAULTY, N.JFAULTY])
    assert not legal_transition(N.NORMAL, N.JFAULTY, [N.FAULTY, N.NORMAL])
    # an empty candidate set is a void, not a fault cluster
    assert not legal_transition(N.NORMAL, N.JFAULTY, [])


def test_jcong_requires_all_candidates_congested():
    assert legal_transition(N.NORMAL, N.JCONG, [N.CONG, N.JCONG])
    assert not legal_transition(N.NORMAL, N.JCONG, [N.CONG, N.NORMAL])
    assert not legal_transition(N.NORMAL, N.JCONG, [])


def test_void_on_empty_or_all_void_candidates():
    assert legal_transition(N.NORMAL, N.VOID, [])
    assert legal_transition(N.NORMAL, N.VOID, [N.VOID, N.VOID])
    assert not legal_transition(N.NORMAL, N.VOID, [N.VOID, N.NORMAL])


def test_cong_entered_only_from_normal_or_jcong():
    assert legal_transition(N.NORMAL, N.CONG, [N.NORMAL])
    assert legal_transition(N.JCONG, N.CONG, [N.NORMAL])
    assert not legal_transition(N.JFAULTY, N.CONG, [N.NORMAL])
    assert not legal_transition(N.VOID, N.CONG, [N.NORMAL])


def test_recovery_requires_the_cause_to_clear():
    assert legal_transition(N.CONG, N.NORMAL, [N.CONG, N.CONG])
    assert legal_transition(N.JCONG, N.NORMAL, [N.CONG, N.NORMAL])
    assert not legal_transition(N.JCONG, N.NORMAL, [N.CONG, N.JCONG])
    assert legal_transition(N.JFAULTY, N.NORMAL, [N.FAULTY, N.NORMAL])
    assert not legal_transition(N.JFAULTY, N.NORMAL, [N.FAULTY, N.JFAULTY])
    assert legal_transition(N.VOID, N.NORMAL, [N.NORMAL])
    assert not legal_transition(N.VOID, N.NORMAL, [])
    assert not legal_transition(N.VOID, N.NORMAL, [N.VOID])
