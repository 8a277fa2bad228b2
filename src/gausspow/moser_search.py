"""Exhaustive desk-scale search for Gaussian analogues of the Moser identity.

The target equation asks for the sum sigma_exact(k, m-1) of (a+bi)^k over
the square 1 <= a, b <= m-1 to equal (m + mi)^k exactly, in Z[i] with no
reduction.  Equality in Z[i] implies equality modulo every modulus, so the
search sieves each pair (k, m) by residues first, as Moser did for the
classical equation, and computes the exact sum only for the pairs that pass
every filter.  In order, with (m + mi)^k reduced by the same modulus:

(i) mod m-1: sigma_exact(k, m-1) mod m-1 is the paper's closed form
    sigma_closed(k, m-1), and (m + mi)^k = (1 + i)^k there;
(ii) mod each prime p in SIEVE_PRIMES: the sum over r, s mod p of
    c_r c_s (r + si)^k, where c_r counts the 1 <= a <= m-1 with a = r
    (mod p).  These catch m - 1 = 2^j, where (1 + i)^k = 0 (mod m-1) once
    k >= 2j.

The closed form depends on k only through its row class
(`closed_form.row_class`), so (i) reads sigma_k(m-1) off one
`sigma_closed_row` per class and compares it with the exact (1 + i)^k,
computed once per k.  The search factors nothing.

Lemma: a pair with m >= 3 that passes (i) has m - 1 a power of 2.  Write
n = m - 1 >= 2 and W(k, n) for the witness primes of `closed_form`.  For
k = 1 the left side is 0 and 1 + i is not.  For odd k > 1 and n = 2
(mod 4), (n/2)(1 + i) = (1 + i)^k forces (1 + i)^k = 0 mod the odd part of
n, so n = 2.  Otherwise, if W(k, n) is empty the left side is 0, and each
nonzero part of (1 + i)^k is +-2^t, so n | 2^t.  Else 8 | k and some p in
W(k, n): p || n, p = 3 (mod 4), p^2 - 1 | k.  Mod p the left side is
-(n/p)^2 and the right side is (-4)^(k/4) = 1, as p - 1 divides
(p^2 - 1)/4 and so k/4; but (n/p)^2 = -1 has no root mod p = 3 (mod 4).
The tests check the lemma against (i) over k, m < 500.

A filter can only reject a pair on which the equation provably fails; the
exact comparison decides every survivor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed_form import row_class, sigma_closed_row
from .gaussian import GaussianInt, GaussianResidue, _pow_exact, _pow_mod, sigma_exact

SEARCH_GUARD = 500

# Small odd primes for filter (ii).  Over k, m < 500 the primes up to
# 23 already leave only (2, 3); the rest cost nothing once a pair is rejected.
SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass(frozen=True, slots=True)
class Solution:
    """A pair (k, m) satisfying the equation, with the common exact value."""

    k: int
    m: int
    value: GaussianInt


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


def _first_filter(
    row: list[GaussianResidue], one_plus_i_k: tuple[int, int], m_max: int
) -> list[int]:
    """The m in [2, m_max) that pass filter (i), for a k whose class row
    (`sigma_closed_row`, at least m_max - 2 long) and exact (1 + i)^k are
    given: row[m-2] = sigma_k(m-1) must equal (1 + i)^k mod m-1."""
    re, im = one_plus_i_k
    return [
        m
        for m in range(2, m_max)
        if (r := row[m - 2]).re == re % (m - 1) and r.im == im % (m - 1)
    ]


def search_solutions(k_max: int, m_max: int) -> list[Solution]:
    """All (k, m) with 1 <= k < k_max, 2 <= m < m_max solving the equation,
    ordered by (k, m).

    Each pair must pass every residue filter before its exact equality check;
    the primes of filter (ii) are tried in turn, so a rejected pair pays only
    for those it reached.  Each row class's closed row is evaluated once, to
    m_max - 2, and (1 + i)^k once per k.
    """
    if not 1 <= k_max <= SEARCH_GUARD or not 1 <= m_max <= SEARCH_GUARD:
        raise ValueError(f"k_max and m_max must be in [1, {SEARCH_GUARD}]")
    found = []
    if m_max < 3:  # no m to try
        return found
    rows = {}
    for k in range(1, k_max):
        key = row_class(k)
        if key not in rows:
            rows[key] = sigma_closed_row(k, m_max - 2)
        row = rows[key]
        for m in _first_filter(row, _pow_exact(1, 1, k), m_max):
            if not all(
                _sum_mod_prime(k, m, p) == _pow_mod(m, m, k, p) for p in SIEVE_PRIMES
            ):
                continue
            lhs = sigma_exact(k, m - 1)
            if lhs == GaussianInt(m, m) ** k:
                found.append(Solution(k, m, lhs))
    return found
