"""Deterministic event-driven simulator for DMRF, a real-time
fault-tolerant routing protocol for wireless sensor networks, plus the
greedy baselines it is evaluated against and a sweep harness that writes
reproducible CSV results."""

from .config import (
    BYPASS,
    DMRF,
    GREEDY_MAX_RATE,
    GREEDY_MIN_DELAY,
    PROTOCOLS,
    ConfigError,
    ScenarioConfig,
)
from .engine import (
    EVENT_KINDS,
    Event,
    MetricsRecord,
    RunResult,
    Simulation,
    energy_cost,
    inject_faults,
    preload_buffers,
    run,
    sample_delay,
)
from .model import (
    CandidateEntry,
    FeedbackKind,
    FeedbackMessage,
    InvariantError,
    NodeId,
    NodeState,
    Packet,
    RateClass,
    legal_transition,
    make_packet,
    remaining_time,
)
from .protocol import (
    Decision,
    DmrfProtocol,
    Drop,
    DropReason,
    Forward,
    Jump,
    NoRouteError,
    RoutingTable,
    Thresholds,
    choose_jump_target,
    compute_lambda,
    compute_thresholds,
    jump_probabilities,
)
from .sweeps import (
    SweepSpec,
    execute_scenario,
    make_preset,
    point_seed,
    run_sweep,
    summarize,
)
from .topology import (
    Topology,
    UNREACHABLE,
    build_fcs,
    carve_void,
    deploy,
    shortest_delay_map,
)

__version__ = "0.1.0"
