"""Simulated classical database.

An ordered key-value store with configurable write/read service times.  It
acknowledges writes after a (latency-model) delay, which is what makes the
hybrid design attractive: database acknowledgement is orders of magnitude
faster than chain finality.

The store supports :meth:`tamper` — direct mutation of stored rows — which
no real access path would offer, but which models exactly the adversary
the paper worries about: someone with write access to the log database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.common.errors import ValidationError
from repro.common.rng import SeededRng
from repro.simnet.simulator import Simulator


@dataclass
class DatabaseConfig:
    """Service-time parameters for the simulated DB."""

    write_latency: float = 0.002
    read_latency: float = 0.001
    jitter: float = 0.2  # +/- fraction of the base latency

    def __post_init__(self) -> None:
        if self.write_latency < 0 or self.read_latency < 0:
            raise ValidationError("latencies must be non-negative")
        if not 0 <= self.jitter < 1:
            raise ValidationError("jitter must be in [0, 1)")


@dataclass
class _Row:
    key: str
    value: Any
    written_at: float
    sequence: int


class DatabaseStore:
    """Insertion-ordered KV store with simulated service times."""

    def __init__(self, sim: Simulator, rng: SeededRng,
                 config: Optional[DatabaseConfig] = None, name: str = "logdb") -> None:
        self.sim = sim
        self.rng = rng.fork(f"db/{name}")
        self.config = config or DatabaseConfig()
        self.name = name
        self._rows: dict[str, _Row] = {}
        self._sequence = 0
        self.writes = 0
        self.reads = 0
        self.tampered_keys: set[str] = set()

    def _service_time(self, base: float) -> float:
        if base == 0:
            return 0.0
        spread = base * self.config.jitter
        return max(0.0, self.rng.uniform(base - spread, base + spread))

    # -- asynchronous API (simulation-time latencies) ------------------------------

    def write(self, key: str, value: Any,
              on_ack: Optional[Callable[[str], None]] = None) -> None:
        """Store ``value``; ``on_ack(key)`` fires after the write latency."""
        delay = self._service_time(self.config.write_latency)

        def commit() -> None:
            self._sequence += 1
            self._rows[key] = _Row(key=key, value=value,
                                   written_at=self.sim.now, sequence=self._sequence)
            self.writes += 1
            if on_ack is not None:
                on_ack(key)

        self.sim.post(delay, commit)

    def read(self, key: str, on_result: Callable[[Optional[Any]], None]) -> None:
        """Fetch a value; ``on_result`` fires after the read latency."""
        delay = self._service_time(self.config.read_latency)

        def fetch() -> None:
            self.reads += 1
            row = self._rows.get(key)
            on_result(row.value if row else None)

        self.sim.post(delay, fetch)

    # -- synchronous inspection (no simulated latency; for auditors/tests) --------

    def get(self, key: str) -> Optional[Any]:
        row = self._rows.get(key)
        return row.value if row else None

    def keys_in_order(self) -> list[str]:
        return [row.key for row in sorted(self._rows.values(),
                                          key=lambda r: r.sequence)]

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    # -- the adversary's API ---------------------------------------------------------

    def tamper(self, key: str, new_value: Any) -> bool:
        """Silently rewrite a stored row (adversarial mutation)."""
        row = self._rows.get(key)
        if row is None:
            return False
        row.value = new_value
        self.tampered_keys.add(key)
        return True

    def delete(self, key: str) -> bool:
        """Silently drop a row (adversarial suppression)."""
        if key in self._rows:
            del self._rows[key]
            self.tampered_keys.add(key)
            return True
        return False
