"""Equivalence properties: Reed-Solomon codec vs the per-word oracle.

:class:`~repro.ecc.reed_solomon.ReedSolomonCodec` must be
*bit-identical* to the per-word scalar oracle (:func:`tests.oracles.rs_encode`,
:func:`tests.oracles.rs_decode` and their batch loops): same codewords,
same decoded symbols for every errors+erasures pattern within
capability (including the exact boundary ``2e + f = n - k``), and the
same :class:`~repro.errors.EccDecodeError` outcome beyond it.  The
:class:`~repro.ecc.codec.ExpansionCodec` sweep (production vs the codec
inside :func:`tests.oracles.scalar_reed_solomon`) covers the chunking
boundaries (one symbol, exactly ``_max_data_symbols``, one past it, and
multiple chunks).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.codec import ExpansionCodec
from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.errors import EccDecodeError
from tests.oracles import (
    rs_decode,
    rs_decode_batch,
    rs_encode,
    rs_encode_batch,
    scalar_reed_solomon,
)

symbol = st.integers(min_value=0, max_value=255)


@st.composite
def backend_case(draw):
    """A message plus a corruption pattern, possibly over capability."""
    n_parity = draw(st.integers(min_value=2, max_value=16))
    k = draw(st.integers(min_value=1, max_value=100))
    message = draw(st.lists(symbol, min_size=k, max_size=k))
    n = k + n_parity
    e = draw(st.integers(min_value=0, max_value=n_parity // 2 + 1))
    f = draw(
        st.integers(min_value=0, max_value=min(n_parity + 1, n - e))
    )
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=e + f,
            max_size=e + f,
            unique=True,
        )
    )
    flips = draw(
        st.lists(
            st.integers(min_value=1, max_value=255),
            min_size=e + f,
            max_size=e + f,
        )
    )
    return n_parity, message, positions[:e], positions[e:], flips


class TestReedSolomonBackendEquivalence:
    @given(backend_case())
    @settings(max_examples=150, deadline=None)
    def test_decode_agrees_including_failures(self, case):
        n_parity, message, error_pos, erasure_pos, flips = case
        codec = ReedSolomonCodec(n_parity)
        codeword = rs_encode(codec, message)
        assert codec.encode(message) == codeword
        assert codec.encode_batch([message]) == [codeword]
        for position, flip in zip(error_pos + erasure_pos, flips):
            codeword[position] ^= flip
        try:
            want = rs_decode(codec, codeword, erasure_pos)
        except EccDecodeError:
            with pytest.raises(EccDecodeError):
                codec.decode(codeword, erasure_pos)
            with pytest.raises(EccDecodeError):
                codec.decode_batch([codeword], [erasure_pos])
        else:
            assert codec.decode(codeword, erasure_pos) == want
            assert codec.decode_batch([codeword], [erasure_pos]) == [want]

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decode_batch_agrees(self, n_parity, k, batch, seed):
        rng = np.random.default_rng(seed)
        codec = ReedSolomonCodec(n_parity)
        messages = rng.integers(
            0, 256, size=(batch, k), dtype=np.uint8
        ).tolist()
        words = rs_encode_batch(codec, messages)
        assert codec.encode_batch(messages) == words
        n = k + n_parity
        erasure_lists = []
        for word in words:
            f = int(rng.integers(0, n_parity + 1))
            hit = rng.choice(n, size=f, replace=False)
            for position in hit:
                word[int(position)] ^= int(rng.integers(1, 256))
            erasure_lists.append([int(p) for p in hit])
        want = rs_decode_batch(codec, words, erasure_lists)
        assert codec.decode_batch(words, erasure_lists) == want
        assert want == messages

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decode_batch_first_failure_matches_oracle(
        self, n_parity, k, batch, seed
    ):
        """Words past capability mixed into a batch: the codec returns
        what the oracle returns, or raises the same EccDecodeError
        (same message) for the same word."""
        rng = np.random.default_rng(seed)
        codec = ReedSolomonCodec(n_parity)
        messages = rng.integers(
            0, 256, size=(batch, k), dtype=np.uint8
        ).tolist()
        words = rs_encode_batch(codec, messages)
        n = k + n_parity
        erasure_lists = []
        for word in words:
            e = int(rng.integers(0, n_parity // 2 + 2))
            f = int(rng.integers(0, min(n_parity + 2, n - e) + 1))
            hit = rng.choice(n, size=e + f, replace=False)
            for position in hit:
                word[int(position)] ^= int(rng.integers(1, 256))
            erasure_lists.append([int(p) for p in hit[e:]])
        try:
            want = rs_decode_batch(codec, words, erasure_lists)
        except EccDecodeError as exc:
            with pytest.raises(EccDecodeError) as got:
                codec.decode_batch(words, erasure_lists)
            assert str(got.value) == str(exc)
        else:
            assert codec.decode_batch(words, erasure_lists) == want

    def test_exact_capability_boundary(self):
        # 2e + f == n - k exactly, the deepest fold depth.
        n_parity = 6
        message = list(range(20))
        codec = ReedSolomonCodec(n_parity)
        for e, f in ((0, 6), (1, 4), (2, 2), (3, 0)):
            word = rs_encode(codec, message)
            positions = list(range(e + f))
            for position in positions:
                word[position] ^= 0xA5
            erasures = positions[e:]
            assert (
                rs_decode(codec, list(word), erasures)
                == codec.decode(list(word), erasures)
                == codec.decode_batch([list(word)], [erasures])[0]
                == message
            )


class TestExpansionCodecBackendEquivalence:
    @pytest.mark.parametrize("mu", [0.5, 1.0])
    @pytest.mark.parametrize("case", ["clean", "erasures"])
    def test_chunk_boundaries(self, mu, case):
        codec = ExpansionCodec(mu)
        max_symbols = codec._max_data_symbols
        rng = np.random.default_rng(42)
        for bits in (1, 8, 8 * max_symbols, 8 * max_symbols + 1,
                     8 * (2 * max_symbols) + 13):
            plain = rng.integers(0, 2, size=bits, dtype=np.int8)
            with scalar_reed_solomon():
                coded_oracle = codec.encode(plain)
            assert np.array_equal(codec.encode(plain), coded_oracle)
            decisions = [int(b) for b in coded_oracle]
            if case == "erasures":
                # Erase one whole symbol's worth of leading bits; this
                # stays within every chunk's parity budget.
                for position in range(min(8, len(decisions))):
                    decisions[position] = None
            with scalar_reed_solomon():
                got_oracle = codec.decode(decisions, bits)
            assert np.array_equal(codec.decode(decisions, bits), got_oracle)
            assert np.array_equal(got_oracle, plain)
