"""Measure what one delay value costs in `dmrfsim.engine.sample_delay`.

Draws values at the table2 `mu` and `sigma` on a fixed seed and prints the
host time per value and the `random()` and `math.log` calls per value. The
calls are counted in a separate pass, through a `random.Random` subclass and
a `math.log` wrapper that is removed again afterwards; the timed passes run
with neither, and the time is the best of five.

    python tools/sampler_cost.py
"""

from __future__ import annotations

import math
import random
import sys
import time
from collections import deque
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dmrfsim.config import ScenarioConfig  # noqa: E402
from dmrfsim.engine import sample_delay  # noqa: E402

VALUES = 200_000
SEED = 1


class CountingRandom(random.Random):
    """A `random.Random` that counts its `random()` calls."""

    calls = 0

    def random(self) -> float:
        self.calls += 1
        return super().random()


def consume(values, n: int) -> None:
    deque(islice(values, n), maxlen=0)


def seconds_per_value(mu: float, sigma: float, seed: int, n: int) -> float:
    best = math.inf
    for _ in range(5):
        values = sample_delay(mu, sigma, random.Random(seed))
        start = time.perf_counter()
        consume(values, n)
        best = min(best, time.perf_counter() - start)
    return best / n


def calls_per_value(mu: float, sigma: float, seed: int, n: int) -> tuple[float, float]:
    """`random()` calls and `math.log` calls per value."""
    rng = CountingRandom(seed)
    real_log, log_calls = math.log, 0

    def counted_log(x: float) -> float:
        nonlocal log_calls
        log_calls += 1
        return real_log(x)

    math.log = counted_log
    try:
        consume(sample_delay(mu, sigma, rng), n)
    finally:
        math.log = real_log
    return rng.calls / n, log_calls / n


def main() -> None:
    cfg = ScenarioConfig()
    mu = cfg.mean_hop_delay_ms
    sigma = cfg.sigma_factor * mu
    per_value = seconds_per_value(mu, sigma, SEED, VALUES)
    randoms, logs = calls_per_value(mu, sigma, SEED, VALUES)
    print(f"sample_delay, mu {mu!r} ms, sigma {sigma!r} ms, seed {SEED}, "
          f"{VALUES:,} values")
    print(f"ns per value          {per_value * 1e9:8.1f}")
    print(f"random() per value    {randoms:8.4f}")
    print(f"log per value         {logs:8.4f}")


if __name__ == "__main__":
    main()
