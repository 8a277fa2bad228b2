"""Exhaustive desk-scale search for Gaussian analogues of the Moser identity.

The target equation asks for the sum sigma_exact(k, m-1) of (a+bi)^k over
the square 1 <= a, b <= m-1 to equal (m + mi)^k exactly, in Z[i] with no
reduction.  Equality in Z[i] implies equality modulo every modulus, so the
search sieves each pair (k, m) by residues first, as Moser did for the
classical equation, and computes the exact sum only for the pairs that pass
every filter.  In order, with (m + mi)^k reduced by the same modulus:

* mod m-1: sigma_exact(k, m-1) mod m-1 is the paper's closed form
  sigma_closed(k, m-1), and (m + mi)^k = (1 + i)^k there;
* mod m: the cells of [1, m]^2 outside [1, m-1]^2 reduce to
  i^k S_k(m) + S_k(m), so the sum is sigma_closed(k, m) - (1 + i^k) S_k(m),
  and (m + mi)^k = 0;
* mod each prime p in SIEVE_PRIMES: the sum over r, s mod p of
  c_r c_s (r + si)^k, where c_r counts the 1 <= a <= m-1 with a = r (mod p).
  These catch m - 1 = 2^j, where (1 + i)^k = 0 (mod m-1) once k >= 2j.

A filter can only reject a pair on which the equation provably fails; the
exact comparison decides every survivor.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .closed_form import sigma_closed
from .gaussian import GaussianInt, _pow_mod, sigma_exact
from .power_sums import s_mod_closed

SEARCH_GUARD = 500

# Small odd primes for the last filters.  Over k, m < 500 the primes up to
# 23 already leave only (2, 3); the rest cost nothing once a pair is rejected.
SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# 1 + i^k as (re, im), indexed by k mod 4.
_ONE_PLUS_I_POWERS = ((2, 0), (1, 1), (0, 0), (1, -1))


@dataclass(frozen=True, slots=True)
class Solution:
    """A pair (k, m) satisfying the equation, with the common exact value."""

    k: int
    m: int
    value: GaussianInt


def _sum_mod_m(k: int, m: int) -> tuple[int, int]:
    """sigma_exact(k, m-1) mod m, as sigma_k(m) less its last row and column."""
    r = sigma_closed(k, m)
    s = s_mod_closed(k, m)
    ure, uim = _ONE_PLUS_I_POWERS[k % 4]
    return (r.re - ure * s) % m, (r.im - uim * s) % m


def _sum_mod_prime(k: int, m: int, p: int) -> tuple[int, int]:
    """sigma_exact(k, m-1) mod the prime p, from the residue counts of 1..m-1."""
    q, t = divmod(m - 1, p)
    counts = [(r, c) for r in range(p) if (c := q + (1 <= r <= t))]
    re = im = 0
    for a, ca in counts:
        for b, cb in counts:
            pre, pim = _pow_mod(a, b, k, p)
            re += ca * cb * pre
            im += ca * cb * pim
    return re % p, im % p


def _sieve_residues(k: int, m: int) -> Iterator[tuple[int, tuple[int, int]]]:
    """(modulus, sigma_exact(k, m-1) reduced by it) for each filter in order,
    computed lazily so a rejected pair pays only for the filters it reached."""
    r = sigma_closed(k, m - 1)
    yield m - 1, (r.re, r.im)
    yield m, _sum_mod_m(k, m)
    for p in SIEVE_PRIMES:
        yield p, _sum_mod_prime(k, m, p)


def search_solutions(k_max: int, m_max: int) -> list[Solution]:
    """All (k, m) with 1 <= k < k_max, 2 <= m < m_max solving the equation,
    ordered by (k, m).

    Each pair must pass every residue filter before its exact equality check.
    """
    if not 1 <= k_max <= SEARCH_GUARD or not 1 <= m_max <= SEARCH_GUARD:
        raise ValueError(f"k_max and m_max must be in [1, {SEARCH_GUARD}]")
    found = []
    for k in range(1, k_max):
        for m in range(2, m_max):
            if not all(
                lhs == _pow_mod(m, m, k, n) for n, lhs in _sieve_residues(k, m)
            ):
                continue
            lhs = sigma_exact(k, m - 1)
            if lhs == GaussianInt(m, m) ** k:
                found.append(Solution(k, m, lhs))
    return found
