"""Exact asymptotic densities for the power-sum congruence sets.

All densities are exact rationals.  The heavy operation is the union density
of the witness progressions

    U_p = { n : p^3 - p | n, p^2 does not divide n },   p = 3 (mod 4),

an inclusion-exclusion over the subsets of a prime family.  The intersection
over a subset S is empty when S holds a pair q < p with q^2 | p^2 - 1, and
otherwise has density phi(S)/lcm(S), phi the product of q - 1 and lcm taken
over q^4 - q^2; `intersection_density` gives one such term.  `union_density`
does not enumerate the subsets: a dynamic program over the family, largest
prime first, keeps one integer numerator over the fixed denominator
lcm(all q^4 - q^2) per live part of lcm(S), the part later primes can still
change.  `sieve_complement_count` counts the same union by marking it.

`DiagonalBracket` holds the bracket for the diagonal density: its upper end
is one minus the union, and its lower end also subtracts the tail of the
witness primes beyond the family, rounded up term by term to a fixed
denominator, so every endpoint is exact or rounded outward.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .arith import (
    inert_primes_up_to,
    sieve_inert_primes,
    validate_prime_family,
)
from .closed_form import row_class
from .gaussian import Record

# Largest family `union_density` accepts: the first 40 inert primes take about
# 1 s on a 2-core x86 host (32k states at the widest step).
MAX_UNION_PRIMES = 40

# Upper bound for the tail sum of 1/p^3 over inert primes beyond the sieve
# limit; valid whenever the limit is at least 10^6 (the bound tightens as the
# limit grows, so larger limits stay covered).  Certificate, checked in
# tests/test_density.py: the sum over inert 10^6 < p <= Y = 10^7 of
# ceil(10^40 / p^3) / 10^40, plus 1/Y^3 + 1/(8 Y^2) for every n = 3 (mod 4)
# beyond Y (first term, then an integral), is 1.857e-14.
TAIL_REMAINDER = Fraction(2, 10**14)
TAIL_REMAINDER_MIN_LIMIT = 10**6

# Common denominator of `rounded_tail`.  The 2e7 sieve cap admits 635,435
# terms, so the rounding adds less than 1e-234, far below the 200 digits
# `decimal_render` can print.
TAIL_SCALE = 10**240


def zero_row_density(k: int) -> Fraction:
    """Density of moduli n with sigma_k(n) = 0 (mod n).

    3/4 for odd k > 1; otherwise the product of (p^2 - p + 1)/p^2 over
    primes p = 3 (mod 4) with p^2 - 1 | k (empty product = 1).
    """
    odd, row_primes = row_class(k)
    out = Fraction(1)
    for p in row_primes:
        out *= Fraction(p * p - p + 1, p * p)
    return Fraction(3, 4) if odd else out


def intersection_density(primes) -> Fraction:
    """Exact density of the intersection of U_q over the family.

    Zero as soon as one pair q < p has q^2 | p^2 - 1; otherwise the
    intersection is a union of prod(q-1) progressions of common difference
    lcm(q^4 - q^2).  A one-prime family gives U_p itself, 1/(p^2 (p+1)).
    """
    fam = validate_prime_family(primes)
    if not fam:
        raise ValueError("prime family must be non-empty")
    for i, q in enumerate(fam):
        for p in fam[i + 1 :]:
            if (p * p - 1) % (q * q) == 0:
                return Fraction(0)
    phi = 1
    common = 1
    for q in fam:
        phi *= q - 1
        common = lcm(common, q**4 - q**2)
    return Fraction(phi, common)


def _live_part(n: int, r: int) -> int:
    """Largest divisor of n built only from primes that divide r."""
    rest = n
    while (g := gcd(rest, r)) > 1:
        rest //= g
    return n // rest


def union_density(primes) -> Fraction:
    """Exact density of the union of U_p over the family.

    Inclusion-exclusion by a dynamic program over the family taken largest
    prime first.  A state is the live part of lcm(q^4 - q^2) over the primes
    chosen so far: the part built from primes that a prime still to come can
    touch (a prime s touches s and the factors of s^2 - 1).  A smaller prime
    never contributes a factor larger than itself, so the exponent of a factor
    is final once it is dead and the factor can leave the state.  Each state
    carries the signed sum of phi(S) * (total_lcm // lcm(S)) over its subsets
    S, where phi(S) is the product of q - 1.  A prime p is never added to a
    state that p^2 already divides: those are exactly the subsets holding a
    pair q < p with q^2 | p^2 - 1, whose intersection is empty.
    """
    fam = validate_prime_family(primes)
    if not fam:
        raise ValueError("prime family must be non-empty")
    if len(fam) > MAX_UNION_PRIMES:
        raise ValueError(f"at most {MAX_UNION_PRIMES} primes supported")
    order = fam[::-1]
    us = [p**4 - p**2 for p in order]
    total_lcm = lcm(*us)
    # lives[i]: the part of total_lcm that the primes after order[i] can touch
    lives = []
    later = 1
    for u in reversed(us):
        lives.append(_live_part(total_lcm, later))
        later *= u
    lives.reverse()

    # value of a state: sum of (-1)^|S| phi(S) total_lcm / lcm(S), with S
    # ranging over every compatible subset (the empty one included)
    states = {1: total_lcm}
    for p, u, live in zip(order, us, lives):
        nxt: dict[int, int] = {}
        for key, val in states.items():
            skip = gcd(key, live)
            nxt[skip] = nxt.get(skip, 0) + val
            if key % (p * p):
                g = gcd(key, u)
                add = gcd(key // g * u, live)
                nxt[add] = nxt.get(add, 0) - val * (p - 1) * g // u
        states = nxt
    return Fraction(total_lcm - states[1], total_lcm)


def _merge_sum(terms: list[Fraction]) -> Fraction:
    """Sum fractions by balanced pairwise merging.

    Each addition then joins two operands of similar size, and reducing it
    costs a gcd of their denominators; a left-to-right sum, or one reduction
    of the unreduced total, pays a gcd on numbers as large as the whole sum.
    """
    if not terms:
        return Fraction(0)
    while len(terms) > 1:
        nxt = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def _tail_primes(p_min: int, p_limit: int) -> list[int]:
    """Primes p = 3 (mod 4) with p_min < p <= p_limit."""
    if p_min >= p_limit:
        raise ValueError("requires p_min < p_limit")
    if p_limit > 2 * 10**7:
        raise ValueError("sieve limit capped at 2e7")
    return [p for p in inert_primes_up_to(p_limit) if p > p_min]


def tail_bound(p_min: int, p_limit: int) -> Fraction:
    """Exact sum of 1/(p^3 + p^2) over primes p = 3 (mod 4), p_min < p <= p_limit."""
    primes = _tail_primes(p_min, p_limit)
    return _merge_sum([Fraction(1, p * p * (p + 1)) for p in primes])


def rounded_tail(p_min: int, p_limit: int) -> Fraction:
    """Upper bound for `tail_bound`: each term rounded up to a multiple of
    1/TAIL_SCALE, so the excess is below (number of terms) / TAIL_SCALE.
    ceil(S/d) = (S-1)//d + 1 for S, d >= 1, the +1s summed as len(primes)."""
    primes = _tail_primes(p_min, p_limit)
    ceilings = sum((TAIL_SCALE - 1) // (p * p * (p + 1)) for p in primes) + len(primes)
    return Fraction(ceilings, TAIL_SCALE)


class DiagonalBracket(Record):
    """Exact bracket [lower, upper] for the density of n dividing sigma_n(n),
    with its ingredients: `union`, the exact union density over the primes
    used, and `tail`, the tail sum bound beyond the largest prime used."""

    __slots__ = __match_args__ = ("lower", "upper", "union", "tail", "primes_used")

    def __init__(
        self,
        lower: Fraction,
        upper: Fraction,
        union: Fraction,
        tail: Fraction,
        primes_used: tuple[int, ...],
    ):
        if not 0 <= lower <= upper <= 1:
            raise ValueError("bracket must satisfy 0 <= lower <= upper <= 1")
        self._set(lower, upper, union, tail, primes_used)


def diagonal_bracket(num_primes: int, p_limit: int) -> DiagonalBracket:
    """Bracket the density of the diagonal zero set from a finite prime family.

    lower = 1 - union - tail and upper = 1 - union, where union is the exact
    inclusion-exclusion density over the first `num_primes` inert primes and
    tail bounds the contribution of all larger witness primes: the sum to
    p_limit rounded up term by term (`rounded_tail`) plus the stored remainder
    beyond it.
    """
    if not 1 <= num_primes <= MAX_UNION_PRIMES:
        raise ValueError(f"num_primes must be in [1, {MAX_UNION_PRIMES}]")
    if p_limit < TAIL_REMAINDER_MIN_LIMIT:
        raise ValueError(
            f"p_limit below {TAIL_REMAINDER_MIN_LIMIT} invalidates the stored remainder"
        )
    fam = sieve_inert_primes(num_primes)
    ell = union_density(fam)
    tail = rounded_tail(fam[-1], p_limit) + TAIL_REMAINDER
    return DiagonalBracket(1 - ell - tail, 1 - ell, ell, tail, fam)


# Values of n that `sieve_complement_count` marks per pass: its bytearray over
# j = n / 24 holds SIEVE_CHUNK // 24 entries, 0.7 MB.
SIEVE_CHUNK = 1 << 24


def sieve_complement_count(limit: int, primes) -> int:
    """Count n <= limit lying in some U_p, by direct progression marking.

    Independent oracle for `union_density`: it marks the progressions and
    never runs the dynamic program.  For p = 3 (mod 4), 8 divides p^2 - 1
    (p is odd) and 3 divides p^3 - p = (p - 1) p (p + 1), so 24 | p^3 - p
    and every U_p lies on the lattice n = 24 j.  With u = (p^3 - p)/24,
    U_p is the set of j that are multiples t u of u with p not dividing t;
    each nonzero residue of t mod p is one stride of step p u.  One bytearray
    over j, `SIEVE_CHUNK // 24` entries at a time, takes those strides for
    every prime and is then counted.
    """
    if limit < 1 or limit > 10**9:
        raise ValueError("limit must be in [1, 1e9]")
    fam = validate_prime_family(primes)
    steps = [((p**3 - p) // 24, p) for p in fam]
    top = limit // 24
    span = max(1, SIEVE_CHUNK // 24)
    marked = bytearray(min(span, top + 1))
    ones = memoryview(b"\x01" * len(marked))
    count = 0
    for lo in range(0, top + 1, span):
        hi = min(lo + span, top + 1)
        width = hi - lo
        marked[:width] = bytes(width)
        for u, p in steps:
            # one multiple t u per residue of t mod p, from the first in the chunk
            first = -(-lo // u)
            for t in range(first, min(first + p, (hi - 1) // u + 1)):
                if t % p:
                    s = t * u - lo
                    marked[s:width:p * u] = ones[: len(range(s, width, p * u))]
        count += marked.count(1, 0, width)
    return count


def digit_count(x: int) -> int:
    """Number of decimal digits of |x| (0 counts as one digit)."""
    return len(str(abs(x)))
