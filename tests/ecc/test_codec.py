"""Unit tests for the rate-mu expansion codec."""

import numpy as np
import pytest

from repro.dsss.frame import FrameCodec
from repro.ecc.codec import ExpansionCodec, erasure_tolerance
from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.errors import ConfigurationError, DecodeError


class TestErasureTolerance:
    def test_paper_value(self):
        assert erasure_tolerance(1.0) == pytest.approx(0.5)

    def test_monotone_in_mu(self):
        assert erasure_tolerance(2.0) > erasure_tolerance(1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            erasure_tolerance(0.0)


class TestRoundtrip:
    @pytest.mark.parametrize("n_bits", [1, 8, 21, 100, 672])
    def test_clean(self, rng, n_bits):
        codec = ExpansionCodec(1.0)
        bits = rng.integers(0, 2, size=n_bits).astype(np.int8)
        coded = codec.encode(bits)
        decoded = codec.decode([int(b) for b in coded], n_bits)
        assert np.array_equal(decoded, bits)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_expansion_close_to_target(self, mu):
        codec = ExpansionCodec(mu)
        n_bits = 800
        coded = codec.encoded_bits(n_bits)
        assert coded >= (1 + mu) * n_bits
        assert coded <= (1 + mu) * n_bits * 1.2  # bounded rounding

    def test_large_message_chunks(self, rng):
        """Messages beyond one RS codeword chunk correctly."""
        codec = ExpansionCodec(1.0)
        bits = rng.integers(0, 2, size=4000).astype(np.int8)
        coded = codec.encode(bits)
        decoded = codec.decode([int(b) for b in coded], 4000)
        assert np.array_equal(decoded, bits)


class TestBurstErasures:
    def test_tolerated_burst_decodes(self, rng):
        codec = ExpansionCodec(1.0)
        n_bits = 160
        bits = rng.integers(0, 2, size=n_bits).astype(np.int8)
        coded = [int(b) for b in codec.encode(bits)]
        burst = codec.tolerated_burst_bits(n_bits)
        assert burst > 0
        start = 13
        for i in range(start, start + burst):
            coded[i] = None
        decoded = codec.decode(coded, n_bits)
        assert np.array_equal(decoded, bits)

    def test_half_message_burst_fails_at_mu_one(self, rng):
        """Jamming more than mu/(1+mu) = half of the bits defeats it."""
        codec = ExpansionCodec(1.0)
        n_bits = 160
        bits = rng.integers(0, 2, size=n_bits).astype(np.int8)
        coded = [int(b) for b in codec.encode(bits)]
        n_jam = int(len(coded) * 0.6)
        for i in range(len(coded) - n_jam, len(coded)):
            coded[i] = None
        with pytest.raises(DecodeError):
            codec.decode(coded, n_bits)

    def test_bit_errors_also_corrected(self, rng):
        codec = ExpansionCodec(1.0)
        bits = rng.integers(0, 2, size=64).astype(np.int8)
        coded = [int(b) for b in codec.encode(bits)]
        # Flip one full symbol's worth of bits: one RS error.
        for i in range(8, 16):
            coded[i] ^= 1
        decoded = codec.decode(coded, 64)
        assert np.array_equal(decoded, bits)


class TestValidation:
    def test_wrong_coded_length(self):
        codec = ExpansionCodec(1.0)
        with pytest.raises(ConfigurationError):
            codec.decode([0] * 10, 21)

    def test_rejects_empty_message(self):
        with pytest.raises(ConfigurationError):
            ExpansionCodec(1.0).encode(np.zeros(0, dtype=np.int8))

    def test_rejects_bad_mu(self):
        with pytest.raises(ConfigurationError):
            ExpansionCodec(0.0)

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            ExpansionCodec(1.0).encode(np.array([0, 2], dtype=np.int8))

    @pytest.mark.parametrize("build", [
        lambda: ReedSolomonCodec(4, backend="naive"),
        lambda: ExpansionCodec(1.0, backend="naive"),
        lambda: FrameCodec(1.0, ecc_backend="naive"),
    ], ids=["reed_solomon", "expansion", "frame"])
    def test_rejects_backend_argument(self, build):
        # One Reed-Solomon codec; there is no arithmetic to choose.
        with pytest.raises(TypeError):
            build()

    def test_parity_symbols_positive(self):
        codec = ExpansionCodec(0.5)
        assert codec.parity_symbols(1) >= 1
        with pytest.raises(ConfigurationError):
            codec.parity_symbols(0)
