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
    table of (r + si)^k mod p is built by reindexing, with no
    exponentiation per entry.  The first time a search reaches p it sets up
    one of two maps.  For p = 3 (mod 4), Z[i]/p is the field F_{p^2}, whose
    units are the powers g^e of one generator, e mod p^2 - 1; a table of
    each unit's log e then gives (r + si)^k = g^(e k), and 0^k = 0.  For
    p = 1 (mod 4), with iota^2 = -1 (mod p), r + si -> (r + s iota,
    r - s iota) takes Z[i]/p to F_p x F_p, so one row of x^k mod p gives
    both coordinates.  This filter catches m - 1 = 2^j, where
    (1 + i)^k = 0 (mod m-1).  Its verdict at p depends on k only through
    kr = (k - 1) mod (p^2 - 1) + 1: for k >= 1 every z^k in Z[i]/p repeats
    with a period dividing p^2 - 1, since the units of F_{p^2} form a group
    of that order, F_p x F_p has exponent p - 1, and 0^k = 0.  It depends on
    m only through (m - 1) mod p^2, which fixes m mod p and every c_r mod p.
    So the search decides it once per class (p, kr, (m - 1) mod p^2), and
    builds each (p, kr) table once.

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

from collections.abc import Callable

from .gaussian import GaussianInt, Record, sigma_exact

SEARCH_GUARD = 500

# Small odd primes for filter (ii).  Below SEARCH_GUARD they leave only the
# solution (2, 3).  A verdict does not depend on the box, so a prime that
# rejects none of the guard box's pairs only costs its setup: 13 and every
# prime above 23 are left out.
SIEVE_PRIMES = (3, 5, 7, 11, 17, 19, 23)


class Solution(Record):
    """A pair (k, m) satisfying the equation, with the common exact value."""

    __slots__ = __match_args__ = ("k", "m", "value")

    def __init__(self, k: int, m: int, value: GaussianInt):
        self._set(k, m, value)


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


def _power_tables(p: int) -> Callable[[int], list[list[tuple[int, int]]]]:
    """The map from k >= 1 to the table of (r + si)^k mod the odd prime p,
    indexed [r][s], with its setup done once for every k."""
    if p % 4 == 3:
        # walk each candidate's powers until they return to 1; a generator's
        # walk lists every unit of F_{p^2}, elems[e] = g^e
        q = p * p - 1
        for a, b in ((a, b) for b in range(1, p) for a in range(p)):
            elems = [(1, 0)]
            re, im = a, b
            while (re, im) != (1, 0):
                elems.append((re, im))
                re, im = (re * a - im * b) % p, (re * b + im * a) % p
            if len(elems) == q:
                break
        log = [[0] * p for _ in range(p)]
        for e, (re, im) in enumerate(elems):
            log[re][im] = e

        def table(k: int) -> list[list[tuple[int, int]]]:
            rows = [[elems[d * k % q] for d in row] for row in log]
            rows[0][0] = (0, 0)
            return rows

        return table
    # a quadratic non-residue c has c^((p-1)/2) = -1, so iota = c^((p-1)/4)
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    iota = pow(c, (p - 1) // 4, p)
    half, half_iota = (p + 1) // 2, pow(2 * iota, -1, p)
    coords = [
        [((r + s * iota) % p, (r - s * iota) % p) for s in range(p)] for r in range(p)
    ]

    def table(k: int) -> list[list[tuple[int, int]]]:
        pw = [pow(x, k, p) for x in range(p)]
        return [
            [
                ((pw[x] + pw[y]) * half % p, (pw[x] - pw[y]) * half_iota % p)
                for x, y in row
            ]
            for row in coords
        ]

    return table


def _first_filter(k: int, m_max: int) -> list[int]:
    """The m in [2, m_max) that pass filter (i) at k, ascending: the lemma's
    m = 2, m = 3 for even k, and m = 2^j + 1 for 2 <= j <= k/2."""
    ms = [2] if k % 2 else [2, 3]
    ms += [2**j + 1 for j in range(2, min(k // 2, m_max.bit_length()) + 1)]
    return [m for m in ms if m < m_max]


def _passes(seen: dict, p: int, kr: int, m: int) -> bool:
    """Filter (ii) at p for one pair (k, m), with kr = (k - 1) % (p^2 - 1) + 1:
    whether sigma_exact(k, m-1) = (m + mi)^k (mod p).  seen holds, under the
    keys p, (p, kr) and (p, kr, (m - 1) % p^2), the prime's setup, its table
    of kr-th powers and the verdict of the class, each made once."""
    key = (p, kr, (m - 1) % (p * p))
    verdict = seen.get(key)
    if verdict is None:
        if (p, kr) not in seen:
            if p not in seen:
                seen[p] = _power_tables(p)
            seen[p, kr] = seen[p](kr)
        powers = seen[p, kr]
        verdict = seen[key] = _sum_mod_prime(powers, m, p) == powers[m % p][m % p]
    return verdict


def search_solutions(k_max: int, m_max: int) -> list[Solution]:
    """All (k, m) with 1 <= k < k_max, 2 <= m < m_max solving the equation,
    ordered by (k, m).

    Each pair must pass every residue filter before its exact equality check.
    For each k the survivors of filter (i) meet the primes of filter (ii) in
    turn, so a rejected pair pays only for those it reached, and each prime's
    verdict is decided once per residue class of (k, m - 1), from a table of
    powers built once per class of k and a setup per prime that serves every k.
    """
    if not 1 <= k_max <= SEARCH_GUARD or not 1 <= m_max <= SEARCH_GUARD:
        raise ValueError(f"k_max and m_max must be in [1, {SEARCH_GUARD}]")
    found = []
    seen = {}  # filter (ii)'s setups, tables and verdicts, local to the call
    for k in range(1, k_max):
        ms = _first_filter(k, m_max)
        for p in SIEVE_PRIMES:
            if not ms:
                break
            kr = (k - 1) % (p * p - 1) + 1
            ms = [m for m in ms if _passes(seen, p, kr, m)]
        for m in ms:
            lhs = sigma_exact(k, m - 1)
            if lhs == GaussianInt(m, m) ** k:
                found.append(Solution(k, m, lhs))
    return found
