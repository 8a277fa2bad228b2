"""Exhaustive desk-scale search for Gaussian analogues of the Moser identity.

The target equation asks for the sum sigma_exact(k, m-1) of (a+bi)^k over
the square 1 <= a, b <= m-1 to equal (m + mi)^k exactly, in Z[i] with no
reduction.  Equality in Z[i] implies equality modulo every modulus, so the
search sieves each pair (k, m) by residues first, as Moser did for the
classical equation, and computes the exact sum only for the pairs that pass
every filter.  In order, with (m + mi)^k reduced by the same modulus:

(i) mod m-1: sigma_exact(k, m-1) mod m-1 is the paper's closed form
    sigma_closed(k, m-1), and (m + mi)^k = (1 + i)^k there.  By the lemma
    below, the m that pass are m = 2, m = 3 for even k, and m = 2^j + 1
    (j >= 2) for k >= 2j, so the search lists them and evaluates nothing;
(ii) mod each prime p in SIEVE_PRIMES: the sum over r, s mod p of
    c_r c_s (r + si)^k, where c_r counts the 1 <= a <= m-1 with a = r
    (mod p), against (m + mi)^k, whose residue is itself an entry of the
    table.  For each k the candidates meet one prime at a time, and the
    table of (r + si)^k mod p is built once per (k, p) that some candidate
    reaches.  This catches m - 1 = 2^j, where (1 + i)^k = 0 (mod m-1).

Lemma: a pair with m >= 3 that passes (i) has m - 1 a power of 2.  Write
n = m - 1 >= 2 and W(k, n) for the witness primes of `closed_form`.  For
k = 1 the left side is 0 and 1 + i is not.  For odd k > 1 and n = 2
(mod 4), (n/2)(1 + i) = (1 + i)^k forces (1 + i)^k = 0 mod the odd part of
n, so n = 2.  Otherwise, if W(k, n) is empty the left side is 0, and each
nonzero part of (1 + i)^k is +-2^t, so n | 2^t.  Else 8 | k and some p in
W(k, n): p || n, p = 3 (mod 4), p^2 - 1 | k.  Mod p the left side is
-(n/p)^2 and the right side is (-4)^(k/4) = 1, as p - 1 divides
(p^2 - 1)/4 and so k/4; but (n/p)^2 = -1 has no root mod p = 3 (mod 4).
Conversely, at n = 2^j (j >= 2) there is no witness and no half-epsilon
case, so the left side is 0, and (1 + i)^k = 0 (mod 2^j) exactly when
k >= 2j.  At n = 2 the left side is 1 + i for odd k > 1 and 0 otherwise,
and (1 + i)^k = 0 (mod 2) once k >= 2, so m = 3 passes for even k only.
The tests check this set against the closed form over k, m < 500.

A filter can only reject a pair on which the equation provably fails; the
exact comparison decides every survivor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import GaussianInt, _pow_mod, sigma_exact

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


def _sum_mod_prime(
    powers: list[list[tuple[int, int]]], m: int, p: int
) -> tuple[int, int]:
    """sigma_exact(k, m-1) mod the prime p, from the residue counts of 1..m-1
    and powers[r][s] = (r + si)^k mod p."""
    q, t = divmod(m - 1, p)
    counts = [(r, c) for r in range(p) if (c := q + (1 <= r <= t))]
    re = im = 0
    for a, ca in counts:
        row = powers[a]
        for b, cb in counts:
            pre, pim = row[b]
            re += ca * cb * pre
            im += ca * cb * pim
    return re % p, im % p


def _first_filter(k: int, m_max: int) -> list[int]:
    """The m in [2, m_max) that pass filter (i) at k, ascending: the lemma's
    m = 2, m = 3 for even k, and m = 2^j + 1 for 2 <= j <= k/2."""
    ms = [2] if k % 2 else [2, 3]
    ms += [2**j + 1 for j in range(2, min(k // 2, m_max.bit_length()) + 1)]
    return [m for m in ms if m < m_max]


def search_solutions(k_max: int, m_max: int) -> list[Solution]:
    """All (k, m) with 1 <= k < k_max, 2 <= m < m_max solving the equation,
    ordered by (k, m).

    Each pair must pass every residue filter before its exact equality check.
    For each k the survivors of filter (i) meet the primes of filter (ii) in
    turn, so a rejected pair pays only for those it reached, and the table of
    k-th powers mod p is built once for all the pairs that reach p.
    """
    if not 1 <= k_max <= SEARCH_GUARD or not 1 <= m_max <= SEARCH_GUARD:
        raise ValueError(f"k_max and m_max must be in [1, {SEARCH_GUARD}]")
    found = []
    for k in range(1, k_max):
        ms = _first_filter(k, m_max)
        for p in SIEVE_PRIMES:
            if not ms:
                break
            powers = [[_pow_mod(r, s, k, p) for s in range(p)] for r in range(p)]
            ms = [m for m in ms if _sum_mod_prime(powers, m, p) == powers[m % p][m % p]]
        for m in ms:
            lhs = sigma_exact(k, m - 1)
            if lhs == GaussianInt(m, m) ** k:
                found.append(Solution(k, m, lhs))
    return found
