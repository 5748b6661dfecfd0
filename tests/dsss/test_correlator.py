"""Unit tests for correlation primitives (and the per-position
correlation oracle :func:`tests.oracles.correlate_many`)."""

import numpy as np
import pytest

from repro.dsss.correlator import correlate, decide_bit
from repro.dsss.spread_code import SpreadCode
from repro.errors import SpreadCodeError
from tests.oracles import correlate_many


class TestCorrelate:
    def test_matches_definition(self, rng):
        code = SpreadCode.random(64, rng)
        window = rng.normal(size=64)
        expected = float(window @ code.chips) / 64
        assert correlate(window, code) == pytest.approx(expected)


class TestCorrelateMany:
    def test_one_per_code(self, rng):
        codes = [SpreadCode.random(32, rng, i) for i in range(5)]
        buffer = rng.normal(size=100)
        out = correlate_many(buffer, codes, position=10)
        assert out.shape == (5,)
        for i, code in enumerate(codes):
            assert out[i] == pytest.approx(
                correlate(buffer[10:42], code)
            )

    def test_empty_codes(self, rng):
        assert correlate_many(rng.normal(size=10), [], 0).size == 0

    def test_window_out_of_bounds(self, rng):
        codes = [SpreadCode.random(32, rng)]
        with pytest.raises(SpreadCodeError):
            correlate_many(np.zeros(40), codes, position=20)

    def test_negative_position(self, rng):
        codes = [SpreadCode.random(8, rng)]
        with pytest.raises(SpreadCodeError):
            correlate_many(np.zeros(16), codes, position=-1)

    def test_mixed_lengths_rejected(self, rng):
        codes = [SpreadCode.random(8, rng, 0), SpreadCode.random(16, rng, 1)]
        with pytest.raises(SpreadCodeError):
            correlate_many(np.zeros(32), codes, position=0)


class TestDecideBit:
    def test_one(self):
        assert decide_bit(0.2, tau=0.15) == 1

    def test_zero(self):
        assert decide_bit(-0.2, tau=0.15) == 0

    def test_erasure(self):
        assert decide_bit(0.1, tau=0.15) is None
        assert decide_bit(-0.1, tau=0.15) is None

    def test_boundary_inclusive(self):
        assert decide_bit(0.15, tau=0.15) == 1
        assert decide_bit(-0.15, tau=0.15) == 0

    def test_bad_tau(self):
        with pytest.raises(SpreadCodeError):
            decide_bit(0.5, tau=1.5)
