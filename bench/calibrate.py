"""Machine-stability probe: a fixed amount of work, timed.

The loop (big-int modexp, SHA-256, dict and str operations — the mix the
program's hot paths are made of) takes about half a second on the
reference box and runs before every child.  The reading is *recorded*,
never used to normalise a metric: as a proxy it is noisier than the raw
numbers in a stable period.  It is there so that a reader, and
``bench.diff``, can tell machine drift from a program change.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

_MODULUS = (1 << 1279) - 1  # a Mersenne prime; only its size matters


def calibrate() -> float:
    """Wall seconds the fixed loop took."""
    begin = perf_counter()
    value = 0x1234567
    for _ in range(2600):
        value = pow(value + 3, 65537, _MODULUS)
    block = value.to_bytes(160, "big")
    for _ in range(330_000):
        block = hashlib.sha256(block).digest()
    table: dict = {}
    for index in range(330_000):
        key = f"k{index % 4096}:{index & 7}"
        table[key] = table.get(key, 0) + len(key)
    if not table or not block:
        raise RuntimeError("calibration loop was optimised away")
    return perf_counter() - begin
