"""Unit tests for the shared domain types and the transition matrix."""

import pytest

from dmrfsim import model, protocol
from dmrfsim.config import ScenarioConfig
from dmrfsim.model import (
    RATE_HIGH,
    RATE_LOW,
    RATE_MEDIUM,
    STATE_CONG,
    STATE_FAULTY,
    STATE_JCONG,
    STATE_JFAULTY,
    STATE_NORMAL,
    STATE_VOID,
    CandidateEntry,
    FeedbackMessage,
    legal_transition,
    make_packet,
    remaining_time,
    running_sum,
)
from dmrfsim.protocol import DROP_NO_ROUTE, Drop, Forward, Jump, RoutingTable

STATES = (STATE_NORMAL, STATE_FAULTY, STATE_JFAULTY, STATE_CONG, STATE_JCONG, STATE_VOID)


@pytest.mark.parametrize("module, prefix", [
    (model, "STATE_"), (model, "RATE_"),
])
def test_the_constants_of_each_set_are_distinct_objects(module, prefix):
    # states and bands are compared with `is`, and so are feedback kinds,
    # which are the reported states or FB_JUMP_FAIL, the one FB_ constant
    values = [v for k, v in vars(module).items() if k.startswith(prefix)]
    assert len(values) >= 2
    assert len({id(v) for v in values}) == len(values)


def test_the_rate_bands_are_the_rate_multipliers_keys():
    # a forward's service time is looked up by its band
    assert set(ScenarioConfig().rate_multipliers) == {RATE_LOW, RATE_MEDIUM, RATE_HIGH}


def test_drop_reason_holds_the_drop_constants():
    assert protocol.DropReason.NO_ROUTE is protocol.DROP_NO_ROUTE


def test_make_packet_sets_absolute_deadline_and_trace():
    p = make_packet(source=3, now=10.0, lifetime=100.0, packet_id=7)
    assert p.id == 7
    assert p.deadline == 110.0
    assert p.created_at == 10.0
    assert p.hop_trace == [3]
    assert p.rate_class is RATE_LOW


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
        (FeedbackMessage(kind=STATE_FAULTY), "hop_limt"),
        (FeedbackMessage(kind=STATE_FAULTY), "origin"),
        (FeedbackMessage(kind=STATE_FAULTY), "subject"),
        (Forward(next=1, rate=RATE_LOW), "rat"),
        (Jump(next=1, entry=CandidateEntry(candidate=1)), "nxt"),
        (Drop(reason=DROP_NO_ROUTE), "reasn"),
        (
            RoutingTable(owner=0, members=[], needed_time=1.0),
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
    for state in STATES:
        assert legal_transition(state, state, [])
        assert legal_transition(state, state, [STATE_CONG])


def test_faulty_is_reachable_from_anywhere_and_terminal():
    for state in STATES:
        assert legal_transition(state, STATE_FAULTY, [])
    for target in STATES:
        if target is not STATE_FAULTY:
            assert not legal_transition(STATE_FAULTY, target, [STATE_NORMAL])


def test_jfaulty_requires_all_candidates_dead():
    assert legal_transition(STATE_NORMAL, STATE_JFAULTY, [STATE_FAULTY, STATE_JFAULTY])
    assert not legal_transition(STATE_NORMAL, STATE_JFAULTY, [STATE_FAULTY, STATE_NORMAL])
    # an empty candidate set is a void, not a fault cluster
    assert not legal_transition(STATE_NORMAL, STATE_JFAULTY, [])


def test_jcong_requires_all_candidates_congested():
    assert legal_transition(STATE_NORMAL, STATE_JCONG, [STATE_CONG, STATE_JCONG])
    assert not legal_transition(STATE_NORMAL, STATE_JCONG, [STATE_CONG, STATE_NORMAL])
    assert not legal_transition(STATE_NORMAL, STATE_JCONG, [])


def test_void_on_empty_or_all_void_candidates():
    assert legal_transition(STATE_NORMAL, STATE_VOID, [])
    assert legal_transition(STATE_NORMAL, STATE_VOID, [STATE_VOID, STATE_VOID])
    assert not legal_transition(STATE_NORMAL, STATE_VOID, [STATE_VOID, STATE_NORMAL])


def test_cong_entered_only_from_normal_or_jcong():
    assert legal_transition(STATE_NORMAL, STATE_CONG, [STATE_NORMAL])
    assert legal_transition(STATE_JCONG, STATE_CONG, [STATE_NORMAL])
    assert not legal_transition(STATE_JFAULTY, STATE_CONG, [STATE_NORMAL])
    assert not legal_transition(STATE_VOID, STATE_CONG, [STATE_NORMAL])


def test_recovery_requires_the_cause_to_clear():
    assert legal_transition(STATE_CONG, STATE_NORMAL, [STATE_CONG, STATE_CONG])
    assert legal_transition(STATE_JCONG, STATE_NORMAL, [STATE_CONG, STATE_NORMAL])
    assert not legal_transition(STATE_JCONG, STATE_NORMAL, [STATE_CONG, STATE_JCONG])
    assert legal_transition(STATE_JFAULTY, STATE_NORMAL, [STATE_FAULTY, STATE_NORMAL])
    assert not legal_transition(STATE_JFAULTY, STATE_NORMAL, [STATE_FAULTY, STATE_JFAULTY])
    assert legal_transition(STATE_VOID, STATE_NORMAL, [STATE_NORMAL])
    assert not legal_transition(STATE_VOID, STATE_NORMAL, [])
    assert not legal_transition(STATE_VOID, STATE_NORMAL, [STATE_VOID])
    # a state outside the six has no way back to NORMAL
    assert not legal_transition("BOGUS", STATE_NORMAL, [])
