"""Retry policy: exponential backoff with full jitter.

Transient :class:`~repro.runtime.errors.EngineFaultError`\\ s are worth
retrying — the canonical example is an injected fault armed with a count,
standing in for a bug tripped by one run's cache state — but naive
fixed-delay retries from a pool of workers synchronize into retry storms.
The policy here is the standard *full jitter* scheme: attempt *k* (1-based)
sleeps ``uniform(0, min(max_delay, base_delay · multiplier^(k-1)))``, so
the expected delay grows exponentially while the actual delays decorrelate
across workers.

The policy object is immutable and holds no randomness of its own: callers
pass their ``random.Random`` (each service worker owns a seeded one), which
keeps tests deterministic and workers uncorrelated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..runtime.errors import EngineFaultError

__all__ = ["RetryPolicy", "is_transient"]


def is_transient(exc: BaseException) -> bool:
    """Is this failure worth retrying on the same backend?

    Engine faults are; resource-budget trips, deadline misses, and input
    errors are not (they would fail identically, only later).
    """
    return isinstance(exc, EngineFaultError)


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry a transient engine failure.

    ``max_attempts`` counts *total* tries, so ``max_attempts=3`` means one
    initial try plus at most two retries; ``max_attempts=1`` disables
    retrying entirely.
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    max_delay: float = 0.1
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier!r}")

    def ceiling(self, attempt: int) -> float:
        """The exponential cap for the sleep after 1-based ``attempt``."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt!r}")
        return min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))

    def delay(self, attempt: int, rng: random.Random) -> float:
        """A full-jitter sleep: uniform over ``[0, ceiling(attempt)]``."""
        return rng.uniform(0.0, self.ceiling(attempt))
