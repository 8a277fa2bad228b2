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
    (mod p), against (m + mi)^k, the entry at (m mod p, m mod p).
    For each k the candidates meet one prime at a time, and each entry is
    read off the prime's setup, with no exponentiation per entry and no
    table of powers.  A search sets up each prime once, before its first k,
    with one of two maps.  For p = 3 (mod 4), Z[i]/p is the field F_{p^2},
    whose units are the powers g^e of one generator, e mod p^2 - 1, found by
    a primitive-root test and listed by one walk; a table of each unit's log
    e then gives (r + si)^k = g^(e k), and the entry at (0, 0) is skipped,
    as 0^k = 0.  For p = 1 (mod 4), with iota^2 = -1 (mod p), the ring
    isomorphism r + si -> (x, y) = (r + s iota, r - s iota) takes Z[i]/p to
    F_p x F_p, where sums and products are taken coordinate by coordinate;
    so (r + si)^k has the coordinates (x^k, y^k), one row of x^k mod p gives
    both, and the two sides are compared in these coordinates, as they are
    equal in Z[i]/p exactly when their coordinates are.
    This filter catches m - 1 = 2^j, where (1 + i)^k = 0 (mod m-1).
    Its verdict at p depends on k only through
    kr = (k - 1) mod (p^2 - 1) + 1: for k >= 1 every z^k in Z[i]/p repeats
    with a period dividing p^2 - 1, since the units of F_{p^2} form a group
    of that order, F_p x F_p has exponent p - 1, and 0^k = 0.  It depends on
    m only through (m - 1) mod p^2, which fixes m mod p and every c_r mod p.
    So the search decides it once per class (p, kr, (m - 1) mod p^2).

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

from .gaussian import GaussianInt, Record, _pow_mod, sigma_exact

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


def _prime_setup(p: int) -> tuple | list:
    """Filter (ii)'s setup at the odd prime p, made once for every k: for
    p = 3 (mod 4), (elems, log) with elems[e] = g^e for a generator g of
    F_{p^2}'s units and log[r][s] the e with g^e = r + si, so that
    (r + si)^k = elems[log[r][s] * k % (p^2 - 1)] off (0, 0); for p = 1
    (mod 4), coords with coords[r][s] = (x, y) = (r + s iota, r - s iota)
    mod p, the coordinates of r + si in F_p x F_p, so that (r + si)^k has
    the coordinates (x^k, y^k)."""
    if p % 4 == 3:
        # a + bi generates the q units of F_{p^2} when (a + bi)^(q/f) != 1
        # for every f | q with 1 < f < p: those f hold every prime factor of
        # q = (p - 1)(p + 1), and a composite f adds no condition
        q = p * p - 1
        cofactors = [q // f for f in range(2, p) if q % f == 0]
        a, b = next(
            (a, b)
            for b in range(1, p)
            for a in range(p)
            if all(_pow_mod(a, b, e, p) != (1, 0) for e in cofactors)
        )
        # one walk of its powers lists every unit, elems[e] = g^e, and its log
        elems, log = [(1, 0)], [[0] * p for _ in range(p)]
        re, im = a, b
        for e in range(1, q):
            elems.append((re, im))
            log[re][im] = e
            re, im = (re * a - im * b) % p, (re * b + im * a) % p
        return elems, log
    # a quadratic non-residue c has c^((p-1)/2) = -1, so iota = c^((p-1)/4)
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    iota = pow(c, (p - 1) // 4, p)
    return [
        [((r + s * iota) % p, (r - s * iota) % p) for s in range(p)] for r in range(p)
    ]


def _class_sides(setup: tuple | list, p: int, kr: int, m: int) -> tuple:
    """Both sides of filter (ii) at p, sigma_exact(k, m-1) and (m + mi)^k
    mod p with kr = (k - 1) % (p^2 - 1) + 1, as residue pairs in the
    prime's setup's coordinates: (re, im) in F_{p^2} for p = 3 (mod 4), and
    (x, y) in F_p x F_p for p = 1 (mod 4).  The left side is the sum of
    c_r c_s (r + si)^kr over the residue counts c_r of 1..m-1, each entry
    read off the setup."""
    q, t = divmod(m - 1, p)
    counts = [(r, c) for r in range(p) if (c := q + (1 <= r <= t))]
    d = m % p
    if p % 4 == 3:
        elems, log = setup
        order = p * p - 1
        re = im = 0
        for a, ca in counts:
            row = log[a]
            for b, cb in counts:
                if a or b:  # 0^k = 0
                    pre, pim = elems[row[b] * kr % order]
                    re += ca * cb * pre
                    im += ca * cb * pim
        rhs = elems[log[d][d] * kr % order] if d else (0, 0)
        return (re % p, im % p), rhs
    pw = [pow(x, kr, p) for x in range(p)]
    u = v = 0
    for a, ca in counts:
        row = setup[a]
        for b, cb in counts:
            x, y = row[b]
            u += ca * cb * pw[x]
            v += ca * cb * pw[y]
    x, y = setup[d][d]
    return (u % p, v % p), (pw[x], pw[y])


def _first_filter(k: int, m_max: int) -> list[int]:
    """The m in [2, m_max) that pass filter (i) at k, ascending: the lemma's
    m = 2, m = 3 for even k, and m = 2^j + 1 for 2 <= j <= k/2."""
    ms = [2] if k % 2 else [2, 3]
    ms += [2**j + 1 for j in range(2, min(k // 2, m_max.bit_length()) + 1)]
    return [m for m in ms if m < m_max]


def _passes(verdicts: dict, setup: tuple | list, p: int, kr: int, m: int) -> bool:
    """Filter (ii) at p for one pair (k, m), with kr = (k - 1) % (p^2 - 1) + 1
    and the prime's setup: whether sigma_exact(k, m-1) = (m + mi)^k (mod p).
    verdicts holds the verdict of each class (p, kr, (m - 1) % p^2), made
    once."""
    key = (p, kr, (m - 1) % (p * p))
    verdict = verdicts.get(key)
    if verdict is None:
        lhs, rhs = _class_sides(setup, p, kr, m)
        verdict = verdicts[key] = lhs == rhs
    return verdict


def search_solutions(k_max: int, m_max: int) -> list[Solution]:
    """All (k, m) with 1 <= k < k_max, 2 <= m < m_max solving the equation,
    ordered by (k, m).

    Each pair must pass every residue filter before its exact equality check.
    For each k the survivors of filter (i) meet the primes of filter (ii) in
    turn, so a rejected pair pays only for those it reached, and each prime's
    verdict is decided once per residue class of (k, m - 1), from a setup per
    prime made once for every k.
    """
    if not 1 <= k_max <= SEARCH_GUARD or not 1 <= m_max <= SEARCH_GUARD:
        raise ValueError(f"k_max and m_max must be in [1, {SEARCH_GUARD}]")
    found = []
    setups = [(p, _prime_setup(p)) for p in SIEVE_PRIMES]
    verdicts = {}  # filter (ii)'s class verdicts, local to the call
    for k in range(1, k_max):
        ms = _first_filter(k, m_max)
        for p, setup in setups:
            if not ms:
                break
            kr = (k - 1) % (p * p - 1) + 1
            ms = [m for m in ms if _passes(verdicts, setup, p, kr, m)]
        for m in ms:
            lhs = sigma_exact(k, m - 1)
            if lhs == GaussianInt(m, m) ** k:
                found.append(Solution(k, m, lhs))
    return found
