"""Exhaustive desk-scale search for Gaussian analogues of the Moser identity.

The target equation asks for the sum of (a+bi)^k over the square
1 <= a, b <= m-1 to equal (m + mi)^k exactly, in Z[i] with no reduction.
The search is exact end to end; the only shortcut is a sound norm prefilter
(bit-length comparison) that can reject, never accept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import GaussianInt, _pow_exact, sigma_exact

SEARCH_GUARD = 500


@dataclass(frozen=True, slots=True)
class Solution:
    """A pair (k, m) satisfying the equation, with the common exact value."""

    k: int
    m: int
    value: GaussianInt


def _norm_bits_match(lhs_norm: int, k: int, m: int) -> bool:
    """Whether lhs_norm has the bit length of the norm (2 m^2)^k of (m + mi)^k."""
    return lhs_norm.bit_length() == ((2 * m * m) ** k).bit_length()


def norm_prefilter(k: int, m: int) -> bool:
    """Cheap necessary condition: the two sides' norms have equal bit length.

    False guarantees the equation fails at (k, m); True only means the
    magnitudes are close enough that the exact comparison must run.
    """
    if k < 1 or m < 2:
        raise ValueError("requires k >= 1 and m >= 2")
    return _norm_bits_match(sigma_exact(k, m - 1).norm(), k, m)


def _search_one_exponent(k: int, m_max: int) -> list[Solution]:
    """All solutions with this fixed k, growing the square incrementally:
    enlarging the side from t-1 to t adds the new row b = t and column a = t."""
    found = []
    sre = sim = 0
    for t in range(1, m_max - 1):
        for a in range(1, t + 1):
            re, im = _pow_exact(a, t, k)
            sre += re
            sim += im
        for b in range(1, t):
            re, im = _pow_exact(t, b, k)
            sre += re
            sim += im
        m = t + 1
        if not _norm_bits_match(sre * sre + sim * sim, k, m):
            continue
        re, im = _pow_exact(m, m, k)
        if sre == re and sim == im:
            found.append(Solution(k, m, GaussianInt(sre, sim)))
    return found


def search_solutions(k_max: int, m_max: int) -> list[Solution]:
    """All (k, m) with 1 <= k < k_max, 2 <= m < m_max solving the equation,
    ordered by (k, m).

    Each candidate passes the norm prefilter before its exact equality check.
    """
    if not 1 <= k_max <= SEARCH_GUARD or not 1 <= m_max <= SEARCH_GUARD:
        raise ValueError(f"k_max and m_max must be in [1, {SEARCH_GUARD}]")
    return [sol for k in range(1, k_max) for sol in _search_one_exponent(k, m_max)]
