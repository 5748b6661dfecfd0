"""Correlation primitives used by the synchronizer and receivers.

The paper defines the correlation between two NRZ sequences
``(u_1..u_N)`` and ``(v_1..v_N)`` as ``(1/N) * sum(u_i * v_i)`` and decodes
a bit when the magnitude exceeds a threshold ``tau`` (0.15 at N = 512,
following Popper et al.).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.dsss.spread_code import SpreadCode
from repro.errors import SpreadCodeError

__all__ = ["correlate", "code_matrix", "decide_bit"]


def correlate(window: np.ndarray, code: SpreadCode) -> float:
    """Normalized correlation of one N-chip window against one code."""
    return code.correlation(window)


def code_matrix(codes: Sequence[SpreadCode]) -> np.ndarray:
    """Stack several codes into one ``(m x N)`` float64 chip matrix.

    All codes must share the same chip length.  The correlation engine
    builds this once per synchronizer.
    """
    if not codes:
        raise SpreadCodeError("cannot stack an empty code set")
    n = codes[0].length
    if any(code.length != n for code in codes):
        raise SpreadCodeError("codes must all share one chip length")
    return np.stack([code.chips for code in codes]).astype(np.float64)


def decide_bit(correlation: float, tau: float) -> Optional[int]:
    """Threshold decision: 1 above ``tau``, 0 below ``-tau``, else erasure."""
    if not 0 < tau < 1:
        raise SpreadCodeError(f"tau must be in (0, 1), got {tau}")
    if correlation >= tau:
        return 1
    if correlation <= -tau:
        return 0
    return None
