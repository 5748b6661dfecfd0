"""Vectorized GF(2^8) kernels for the Reed-Solomon hot path.

The scalar tables of :mod:`repro.ecc.gf256` are rebuilt here as NumPy
``uint8``/``int64`` arrays so whole *batches* of field operations run as
table lookups: multiplying two arrays of symbols is two log lookups, one
integer add, and one antilog lookup, elementwise.  On top of the
elementwise kernels this module provides the three batched polynomial
primitives the codec needs:

- :func:`syndromes_batch` — evaluate every received word at every
  generator root at once (the classical per-root Horner loop collapses
  into one exponent outer product and an XOR reduction);
- :func:`poly_eval_batch` — vectorized Horner over a batch of
  (polynomial, point) rows, used for Chien-style evaluations and the
  Forney numerator/denominator;
- :func:`rs_encode_batch` — the systematic encoder as a batched LFSR:
  because the generator polynomial is monic, the remainder of
  ``message * x^n_parity`` divided by ``g(x)`` is computed with one
  feedback step per data symbol, vectorized across all words of the
  batch.

All kernels are bit-identical to their scalar counterparts in
:class:`repro.ecc.gf256.GF256`, against which they are property-tested.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ecc.gf256 import _EXP, _LOG

__all__ = [
    "EXP",
    "LOG",
    "gf_mul",
    "gf_mul_scalar",
    "gf_div",
    "gf_inv",
    "gf_pow_alpha",
    "poly_eval_batch",
    "syndromes_batch",
    "rs_encode_batch",
    "erasure_locators_batch",
]

# The duplicated antilog table (510 entries) lets a single lookup absorb
# the sum of two logs without a modulo.  The *zero-extended* pair
# EXPZ/LOGZ goes one step further: LOGZ[0] is a sentinel (511) large
# enough that any log-sum involving a zero operand indexes past the
# duplicated antilog region into a zero-filled tail — so products and
# quotients need no explicit zero masking at all, just one gather.
EXP = np.asarray(_EXP, dtype=np.uint8)
LOG = np.asarray(_LOG, dtype=np.int64)

_ORDER = 255  # multiplicative group order of GF(2^8)
_ZERO_LOG = 511  # sentinel: any sum/difference with it lands in the tail

# Nonzero log sums peak at 2 * 254 = 508 (products) / 509 (quotients),
# so the zero tail starts at 2 * _ORDER; the scalar _EXP table carries
# two wrap-around entries past that point which must NOT be copied.
EXPZ = np.zeros(2 * _ZERO_LOG + 1, dtype=np.uint8)
EXPZ[: 2 * _ORDER] = EXP[: 2 * _ORDER]
LOGZ = LOG.copy()
LOGZ[0] = _ZERO_LOG


def gf_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise GF(2^8) product of two broadcastable uint8 arrays."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return EXPZ[LOGZ[a] + LOGZ[b]]


def gf_mul_scalar(a: np.ndarray, scalar: int) -> np.ndarray:
    """Multiply every element of ``a`` by one field scalar."""
    a = np.asarray(a, dtype=np.uint8)
    return EXPZ[LOGZ[a] + int(LOGZ[scalar])]


def gf_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise quotient ``a / b``; the caller guarantees ``b`` has
    no zeros (Forney denominators are checked before dividing)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    # LOGZ[a] - LOG[b] + 255 is in [1, 509] for nonzero a and lands in
    # the zero tail (>= 512) when a == 0 — no modulo, no mask.
    return EXPZ[LOGZ[a] - LOG[b] + _ORDER]


def gf_inv(a: np.ndarray) -> np.ndarray:
    """Elementwise multiplicative inverse; the caller guarantees no
    zeros (erasure/error locators never place a root at 0)."""
    a = np.asarray(a, dtype=np.uint8)
    return EXP[_ORDER - LOG[a]]


def gf_pow_alpha(exponents: np.ndarray) -> np.ndarray:
    """``alpha ** e`` for an int64 array of (possibly negative) powers."""
    return EXP[np.mod(np.asarray(exponents, dtype=np.int64), _ORDER)]


def poly_eval_batch(polys: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Horner-evaluate row ``i`` of ``polys`` at ``points[i]``.

    ``polys`` is ``(B, D)`` uint8 with coefficient index 0 the highest
    degree (the convention of :class:`~repro.ecc.gf256.GF256`);
    ``points`` is ``(B,)`` uint8.  Returns ``(B,)`` uint8.
    """
    polys = np.asarray(polys, dtype=np.uint8)
    points = np.asarray(points, dtype=np.uint8)
    result = np.zeros(polys.shape[0], dtype=np.uint8)
    for j in range(polys.shape[1]):
        result = gf_mul(result, points) ^ polys[:, j]
    return result


@lru_cache(maxsize=64)
def _syndrome_exponents(length: int, n_parity: int) -> np.ndarray:
    """The ``(n_parity, length)`` table of ``alpha^(i * degree)``
    exponents, reduced mod 255 — word-length-invariant, so cached
    (callers must treat the returned array as read-only)."""
    degrees = np.arange(length - 1, -1, -1, dtype=np.int64)
    roots = np.arange(1, n_parity + 1, dtype=np.int64)
    return np.mod(roots[:, None] * degrees[None, :], _ORDER)


def syndromes_batch(words: np.ndarray, n_parity: int) -> np.ndarray:
    """Syndromes ``S_i = word(alpha^i)`` for a batch of received words.

    ``words`` is ``(B, L)`` uint8 with symbol index 0 transmitted first
    (highest degree).  Returns ``(B, n_parity)`` uint8 where column
    ``i - 1`` holds ``S_i``, identical to the scalar
    ``GF256.poly_eval(word, alpha^i)`` loop.

    Position ``j`` of an ``L``-symbol word carries degree ``L - 1 - j``,
    so ``S_i = XOR_j word[j] * alpha^(i * (L - 1 - j))`` — one exponent
    outer product, one antilog gather, one XOR reduction.
    """
    words = np.asarray(words, dtype=np.uint8)
    exponents = _syndrome_exponents(words.shape[1], n_parity)
    log_words = LOGZ[words]  # (B, L); zero symbols hit the zero tail
    terms = EXPZ[log_words[:, None, :] + exponents[None, :, :]]
    return np.bitwise_xor.reduce(terms, axis=2)


def rs_encode_batch(
    messages: np.ndarray, generator: np.ndarray
) -> np.ndarray:
    """Parity symbols for a batch of equal-length messages.

    ``messages`` is ``(B, k)`` uint8; ``generator`` is the monic RS
    generator polynomial (highest degree first, length
    ``n_parity + 1``).  Returns ``(B, n_parity)`` uint8 parity blocks
    identical to the remainder computed by ``GF256.poly_divmod``.

    One LFSR feedback step per data symbol: the leading remainder
    symbol XOR the incoming data symbol scales the generator tail into
    the shifted remainder.  No normalization is needed because the
    generator is monic.
    """
    messages = np.asarray(messages, dtype=np.uint8)
    generator = np.asarray(generator, dtype=np.uint8)
    n_parity = generator.size - 1
    batch, k = messages.shape
    log_tail = LOGZ[generator[1:]]  # g is monic: generator[0] == 1
    parity = np.zeros((batch, n_parity), dtype=np.uint8)
    for j in range(k):
        feedback = messages[:, j] ^ parity[:, 0]
        shifted = np.zeros_like(parity)
        shifted[:, :-1] = parity[:, 1:]
        scaled = EXPZ[LOGZ[feedback][:, None] + log_tail[None, :]]
        parity = shifted ^ scaled
    return parity


def erasure_locators_batch(erasure_roots: np.ndarray) -> np.ndarray:
    """Erasure locator polynomials for a batch of words.

    ``erasure_roots`` is ``(B, f_max)`` uint8 holding each word's
    ``X_j = alpha^(L - 1 - position)`` values left-aligned (rows with
    fewer erasures padded with zeros).  Returns ``(B, f_max + 1)``
    uint8 locator coefficients, highest degree first and right-aligned
    so column ``-1`` is the constant term 1 — a word with ``f``
    erasures occupies the last ``f + 1`` columns, matching the list
    ``GF256.poly_multiply`` builds factor by factor.

    Each factor is the binomial ``(X_j x + 1)``; padded roots multiply
    by the identity ``(0 x + 1)``, which leaves the polynomial
    unchanged, so ragged batches need no masking beyond the zero pad.
    """
    erasure_roots = np.asarray(erasure_roots, dtype=np.uint8)
    batch, f_max = erasure_roots.shape
    locators = np.zeros((batch, f_max + 1), dtype=np.uint8)
    locators[:, -1] = 1
    for j in range(f_max):
        root = erasure_roots[:, j]
        # Multiply by (root * x + 1): shift-left copy scaled by root.
        scaled = gf_mul(locators[:, 1:], root[:, None])
        locators[:, :-1] ^= scaled
    return locators
