"""Deterministic event-driven simulator for DMRF, a real-time
fault-tolerant routing protocol for wireless sensor networks, plus the
greedy baselines it is evaluated against and a sweep harness that writes
reproducible CSV results."""

__version__ = "0.1.0"
