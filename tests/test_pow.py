"""Proof-of-work: targets, grinding, retargeting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain.block import BlockHeader
from repro.blockchain.pow import (
    MAX_TARGET,
    expected_hashes,
    grind_nonce_parts,
    meets_target,
    retarget,
    target_for_bits,
)
from repro.crypto.hashing import sha256_hex


class TestTargets:
    def test_target_halves_per_bit(self):
        assert target_for_bits(9) * 2 == target_for_bits(8)

    def test_zero_bits_accepts_everything(self):
        assert target_for_bits(0) == MAX_TARGET
        assert meets_target("f" * 64, 0)

    def test_fractional_bits_between_integers(self):
        assert target_for_bits(9) < target_for_bits(8.5) < target_for_bits(8)

    def test_expected_hashes_exponential(self):
        assert expected_hashes(8) == pytest.approx(256, rel=0.01)
        assert expected_hashes(16) == pytest.approx(65536, rel=0.01)

    def test_meets_target_boundary(self):
        digest = "0" * 62 + "ff"  # tiny value
        assert meets_target(digest, 8)
        assert meets_target(digest, 200) is False or True  # never raises

    @given(st.floats(min_value=1, max_value=64),
           st.floats(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_target_monotone_decreasing_in_bits(self, a, b):
        if a < b:
            assert target_for_bits(a) >= target_for_bits(b)


class TestGrinding:
    HEADER = BlockHeader(height=1, prev_hash="ab" * 32, merkle_root="m" * 64,
                         timestamp=0.0, difficulty_bits=8.0, miner="miner")

    def grind(self, difficulty_bits, **kwargs):
        return grind_nonce_parts(*self.HEADER.nonce_parts(), difficulty_bits, **kwargs)

    def test_grind_finds_valid_nonce(self):
        result = self.grind(8)
        assert result is not None
        nonce, digest, attempts = result
        assert digest == sha256_hex(self.HEADER.bytes_for_nonce(nonce))
        assert meets_target(digest, 8)
        assert attempts >= 1

    def test_grind_respects_attempt_budget(self):
        result = self.grind(64, max_attempts=10)
        assert result is None

    def test_grind_start_nonce(self):
        full = self.grind(8)
        assert full is not None
        resumed = self.grind(8, start_nonce=full[0])
        assert resumed is not None
        assert resumed[0] == full[0]

    def test_attempts_scale_with_difficulty(self):
        # Statistical, but with a generous margin: 12 bits needs far more
        # work than 4 bits on average.
        easy = self.grind(2)
        hard = self.grind(12)
        assert easy is not None and hard is not None
        assert hard[2] > easy[2]


class TestRetarget:
    def test_blocks_too_fast_raises_difficulty(self):
        new = retarget(10.0, actual_interval=0.5, target_interval=1.0)
        assert new == pytest.approx(11.0)

    def test_blocks_too_slow_lowers_difficulty(self):
        new = retarget(10.0, actual_interval=2.0, target_interval=1.0)
        assert new == pytest.approx(9.0)

    def test_on_target_is_stable(self):
        assert retarget(10.0, 1.0, 1.0) == pytest.approx(10.0)

    def test_adjustment_clamped(self):
        new = retarget(10.0, actual_interval=0.001, target_interval=1.0,
                       max_step=2.0)
        assert new == pytest.approx(11.0)  # log2(2.0)

    def test_floor_and_ceiling(self):
        assert retarget(1.0, 10.0, 1.0, floor_bits=1.0) == 1.0
        assert retarget(64.0, 0.1, 1.0, ceil_bits=64.0) == 64.0

    def test_zero_interval_handled(self):
        new = retarget(10.0, actual_interval=0.0, target_interval=1.0)
        assert new == pytest.approx(11.0)

    @given(st.floats(min_value=2, max_value=40),
           st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_retarget_bounded_step(self, bits, actual):
        new = retarget(bits, actual, 1.0, max_step=2.0)
        assert abs(new - bits) <= 1.0 + 1e-9 or new in (1.0, 64.0)
