"""Proof-of-work: targets, grinding, difficulty retargeting.

Difficulty is expressed in *bits*: a block hash (as a 256-bit integer) must
be strictly below ``2**(256 - bits)``.  Fractional bits arise naturally from
retargeting and simply shift the threshold.

Two production modes share these primitives:

- **real**: :func:`grind_nonce_parts` iterates nonces until the header
  hash meets the target — actual SHA-256 work, used to validate that the
  statistical model matches reality (experiment E3) — hashing a
  precomputed header prefix + nonce + suffix instead of re-rendering the
  header per attempt;
- **simulated**: block discovery times are drawn from the exponential
  distribution with rate ``hashrate / expected_hashes(bits)`` — the standard
  memoryless model of PoW — letting experiments sweep difficulties far
  beyond what Python could grind.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.crypto.hashing import sha256_hex

MAX_TARGET = 1 << 256


def target_for_bits(difficulty_bits: float) -> int:
    """Integer threshold a valid block hash must be below."""
    if difficulty_bits <= 0:
        return MAX_TARGET
    # 2^(256 - bits); computed via float exponent only for the fractional
    # part so large difficulties stay exact.
    whole = int(difficulty_bits)
    frac = difficulty_bits - whole
    target = MAX_TARGET >> whole
    if frac:
        target = int(target / (2.0**frac))
    return max(target, 1)


def meets_target(block_hash_hex: str, difficulty_bits: float) -> bool:
    """Does the hex hash satisfy the difficulty threshold?"""
    return int(block_hash_hex, 16) < target_for_bits(difficulty_bits)


def expected_hashes(difficulty_bits: float) -> float:
    """Mean number of hash evaluations to find a valid nonce."""
    return float(MAX_TARGET) / float(target_for_bits(difficulty_bits))


def grind_nonce_parts(
    prefix: bytes,
    suffix: bytes,
    difficulty_bits: float,
    max_attempts: Optional[int] = None,
    start_nonce: int = 0,
) -> Optional[tuple[int, str, int]]:
    """Search nonces until the header hash meets the target.

    ``prefix``/``suffix`` come from
    :meth:`repro.blockchain.block.BlockHeader.nonce_parts`: the canonical
    header bytes before and after the nonce are constant across attempts,
    so each attempt hashes ``prefix + str(nonce) + suffix`` instead of
    re-encoding the header.  Returns ``(nonce, hash_hex, attempts)`` or
    ``None`` if ``max_attempts`` was exhausted.
    """
    target = target_for_bits(difficulty_bits)
    nonce = start_nonce
    attempts = 0
    while max_attempts is None or attempts < max_attempts:
        digest = sha256_hex(prefix + str(nonce).encode("ascii") + suffix)
        attempts += 1
        if int(digest, 16) < target:
            return nonce, digest, attempts
        nonce += 1
    return None


def retarget(
    difficulty_bits: float,
    actual_interval: float,
    target_interval: float,
    *,
    max_step: float = 2.0,
    floor_bits: float = 1.0,
    ceil_bits: float = 64.0,
) -> float:
    """Adjust difficulty so block intervals drift toward the target.

    ``actual_interval`` is the mean observed interval across the retarget
    window.  The adjustment is clamped to a factor of ``max_step`` per
    retarget (as Bitcoin clamps to 4x) to avoid oscillation; difficulty in
    bits moves by ``log2`` of the clamped ratio.
    """
    if actual_interval <= 0:
        actual_interval = target_interval / max_step
    ratio = target_interval / actual_interval
    ratio = min(max(ratio, 1.0 / max_step), max_step)
    new_bits = difficulty_bits + math.log2(ratio)
    return min(max(new_bits, floor_bits), ceil_bits)


# -- consensus rules a header-only light client replays -------------------------
# One definition, over headers, for ``Blockchain`` and ``HeaderClient`` alike:
# two copies that drift would fork light clients from full nodes silently.


def expected_difficulty(parent, lookup: Callable[[str], Any], config) -> float:
    """Difficulty required of the block extending the header ``parent``.

    Retargets every ``config.retarget_window`` blocks using the mean block
    interval across the previous window on that branch; ``lookup`` maps a
    block hash to its header.
    """
    window = config.retarget_window
    next_height = parent.height + 1
    if window == 0 or next_height % window != 0 or next_height < window:
        return parent.difficulty_bits
    # Walk back `window` blocks on this branch to measure elapsed time.
    cursor = parent
    for _ in range(window - 1):
        cursor = lookup(cursor.prev_hash)
    elapsed = parent.timestamp - cursor.timestamp
    actual_interval = elapsed / max(1, window - 1)
    return retarget(parent.difficulty_bits, actual_interval, config.target_block_interval)


def block_work(difficulty_bits: float) -> float:
    """Work one block adds to its branch's cumulative total."""
    return 2.0**difficulty_bits


def wins_fork_choice(work: float, tip_hash: str, head_work: float, head_hash: str) -> bool:
    """Most total work wins; equal work goes to the lower tip hash."""
    return work > head_work or (work == head_work and tip_hash < head_hash)
