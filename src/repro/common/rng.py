"""Seeded randomness.

All stochastic behaviour in the simulator (network latency, mining times,
workload generation, adversary scheduling) flows through :class:`SeededRng`
instances forked from a single root seed, so any experiment is exactly
reproducible from its configuration.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from typing import Sequence, TypeVar

T = TypeVar("T")

#: Cumulative Zipf mass functions, memoised per ``(n, skew)``.  The weights
#: depend only on the catalogue size and skew — not on the stream — so every
#: draw over the same catalogue shares one prefix-sum table and resolves in
#: O(log n) instead of rebuilding an O(n) weight list per request.
_ZIPF_CUMULATIVE: dict[tuple[int, float], list[float]] = {}


def _zipf_cumulative(n: int, skew: float) -> list[float]:
    key = (n, skew)
    table = _ZIPF_CUMULATIVE.get(key)
    if table is None:
        table = []
        acc = 0.0
        for i in range(n):
            acc += 1.0 / (i + 1) ** skew
            table.append(acc)
        _ZIPF_CUMULATIVE[key] = table
    return table


class SeededRng:
    """A named, forkable random stream.

    Forking by *name* (instead of drawing child seeds sequentially) means
    adding a new consumer of randomness does not perturb the streams of
    existing consumers — experiments stay comparable across code changes.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        material = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        self._random = random.Random(int.from_bytes(material[:8], "big"))

    def fork(self, name: str) -> "SeededRng":
        """Derive an independent stream identified by ``name``."""
        return SeededRng(self.seed, f"{self.name}/{name}")

    # -- distribution helpers -------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        return self._random.sample(list(items), k)

    def zipf_index(self, n: int, skew: float = 1.1) -> int:
        """Draw an index in ``[0, n)`` with Zipf-like popularity skew.

        Implemented by inverse-CDF over the truncated Zipf mass function;
        avoids a numpy dependency in the core library.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        # The cumulative table reproduces the historical linear scan's
        # float arithmetic exactly (same left-to-right accumulation), so
        # the bisect draws the bit-identical index for every seed.
        cumulative = _zipf_cumulative(n, skew)
        target = self._random.random() * cumulative[-1]
        return min(bisect_left(cumulative, target), n - 1)
