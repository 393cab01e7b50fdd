"""Unit tests for the shared domain types and the transition matrix."""

import dis
import types
from pathlib import Path

import pytest

import dmrfsim
from dmrfsim import model, protocol
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

#: the enums whose members function bodies read from module constants
ENUM_CLASSES = {"NodeState", "FeedbackKind", "RateClass", "DropReason"}


def enum_member_loads(module_code: types.CodeType) -> list[tuple[str, int]]:
    """(function, line) of every attribute load through an enum class, as
    `LOAD_GLOBAL <enum>` then `LOAD_ATTR`, in the code objects nested in
    `module_code`: functions, methods, class bodies, comprehensions and
    lambdas, but not the module-level code itself."""
    sites = []

    def walk(code: types.CodeType) -> None:
        previous = None
        for ins in dis.get_instructions(code):
            if (
                ins.opname == "LOAD_ATTR"
                and previous is not None
                and previous.opname == "LOAD_GLOBAL"
                and previous.argval in ENUM_CLASSES
            ):
                line = next(
                    line
                    for start, end, line in code.co_lines()
                    if start <= ins.offset < end
                )
                sites.append((getattr(code, "co_qualname", code.co_name), line))
            previous = ins
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    for const in module_code.co_consts:
        if isinstance(const, types.CodeType):
            walk(const)
    return sites


def test_enum_member_scan_finds_every_kind_of_function():
    source = (
        "X = NodeState.VOID\n"  # module level: allowed
        "def f(s):\n"
        "    return s is RateClass.LOW\n"
        "class C:\n"
        "    def m(self, xs):\n"
        "        return [x for x in xs if x is DropReason.EXPIRED]\n"
        "g = lambda: FeedbackKind.CONG\n"
        "def h(NodeState):\n"  # a local of that name is not the class
        "    return NodeState.CONG\n"
    )
    sites = enum_member_loads(compile(source, "sample.py", "exec"))
    assert [line for _, line in sites] == [3, 6, 7]
    assert sites[0][0] == "f"


def test_no_function_loads_an_enum_member_through_its_class():
    # the DMRF state machine reads members per event, and on CPython 3.11 a
    # load through the class costs over twenty times a module constant's
    sites = []
    for path in sorted(Path(dmrfsim.__file__).parent.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        sites += [f"{path.name}:{line} in {name}" for name, line in enum_member_loads(code)]
    assert sites == [], "read enum members from module constants:\n" + "\n".join(sites)


@pytest.mark.parametrize(
    "module, enum, prefix",
    [
        (model, NodeState, "STATE_"),
        (model, FeedbackKind, "FB_"),
        (model, RateClass, "RATE_"),
        (protocol, DropReason, "DROP_"),
    ],
)
def test_every_enum_member_has_its_module_constant(module, enum, prefix):
    for member in enum:
        assert getattr(module, prefix + member.name) is member


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
