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
lcm(all q^4 - q^2) per gcd of lcm(S) with the lcm of q^4 - q^2 over the primes
still to come, all that later primes read of lcm(S).
`sieve_complement_count` counts the same union by marking it.

`DiagonalBracket` holds the bracket for the diagonal density: its upper end
is one minus the union, and its lower end also subtracts the tail of the
witness primes beyond the family, rounded up term by term to a fixed
denominator, so every endpoint is exact or rounded outward.
"""

from __future__ import annotations

from bisect import bisect_right
from decimal import Context, Decimal, Inexact, InvalidOperation, Rounded, localcontext
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd, lcm, prod

from .arith import (
    inert_primes_up_to,
    sieve_inert_primes,
    validate_prime_family,
)
from .closed_form import row_class
from .gaussian import Record

# Largest family `union_density` accepts: the first 40 inert primes take about
# 0.2 s on a 2-core x86 host (21k states at the widest step).
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
# terms, so the rounding adds less than 1e-234, far below the MAX_DIGITS = 200
# digits `decimal_render` can print.  `rounded_tail` divides and sums in
# `decimal` at 245 digits: a quotient has at most 239 (the least divisor is
# 3^2 * 4 = 36) and 635,435 terms add at most 6, so every step is exact, and
# the traps raise on any rounding instead of passing it on.
TAIL_SCALE = 10**240
_TAIL_CONTEXT = Context(prec=245, traps=[Inexact, Rounded, InvalidOperation])


def zero_row_density(k: int) -> Fraction:
    """Density of moduli n with sigma_k(n) = 0 (mod n).

    3/4 for odd k > 1; otherwise the product of (p^2 - p + 1)/p^2 over
    primes p = 3 (mod 4) with p^2 - 1 | k (empty product = 1).
    """
    odd, row_primes = row_class(k)
    if odd:
        return Fraction(3, 4)
    return Fraction(prod(p * p - p + 1 for p in row_primes), prod(row_primes) ** 2)


def intersection_density(primes) -> Fraction:
    """Exact density of the intersection of U_q over the family.

    Zero as soon as one pair q < p has q^2 | p^2 - 1; otherwise the
    intersection is a union of prod(q-1) progressions of common difference
    lcm(q^4 - q^2).  A one-prime family gives U_p itself, 1/(p^2 (p+1)).
    """
    fam = validate_prime_family(primes)
    if not fam:
        raise ValueError("prime family must be non-empty")
    if any((p * p - 1) % (q * q) == 0 for q, p in combinations(fam, 2)):
        return Fraction(0)
    return Fraction(prod(q - 1 for q in fam), lcm(*(q**4 - q**2 for q in fam)))


def union_density(primes) -> Fraction:
    """Exact density of the union of U_p over the family.

    Inclusion-exclusion by a dynamic program over the family taken largest
    prime first.  Write u_q = q^4 - q^2 and L for the lcm of u over the primes
    still to come.  A state is gcd(lcm(S), L) for the subsets S chosen so far,
    and carries the signed sum of phi(S) * (total_lcm // lcm(S)) over them,
    where phi(S) is the product of q - 1.  The cut loses nothing:
    - adding p to S reads lcm(S) only through gcd(lcm(S), u_p), which scales
      the value, and through whether p^2 | lcm(S);
    - for u | L and L' | L, gcd(lcm(gcd(A, L), u), L') = gcd(lcm(A, u), L')
      (compare exponents prime by prime), so cutting before adding u_p and
      cutting to the next, smaller L afterwards gives the same key, and
      subsets that differ only in exponents no later step reads share one;
    - p^2 | u_p | L, so p^2 divides the key exactly when it divides lcm(S).
    A prime p is never added to a state that p^2 already divides: those are
    exactly the subsets holding a pair q < p with q^2 | p^2 - 1, whose
    intersection is empty.  After the last prime L = 1 and one state is left.
    """
    fam = validate_prime_family(primes)
    if not fam:
        raise ValueError("prime family must be non-empty")
    if len(fam) > MAX_UNION_PRIMES:
        raise ValueError(f"at most {MAX_UNION_PRIMES} primes supported")
    us = [p**4 - p**2 for p in fam]
    # lives[i]: the lcm of the u of the primes below fam[i], which the DP,
    # largest first, has still to take
    *lives, total_lcm = accumulate(us, lcm, initial=1)

    # value of a state: sum of (-1)^|S| phi(S) total_lcm / lcm(S), with S
    # ranging over every compatible subset (the empty one included)
    states = {1: total_lcm}
    for p, u, live in zip(reversed(fam), reversed(us), reversed(lives)):
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
    """Sum fractions by halving: each half is summed the same way, then the
    two are added.

    Each addition then joins two operands of similar size, and reducing it
    costs a gcd of their denominators; a left-to-right sum, or one reduction
    of the unreduced total, pays a gcd on numbers as large as the whole sum.
    """
    if len(terms) < 2:
        return sum(terms, Fraction(0))
    mid = len(terms) // 2
    return _merge_sum(terms[:mid]) + _merge_sum(terms[mid:])


def _tail_primes(p_min: int, p_limit: int) -> list[int]:
    """Primes p = 3 (mod 4) with p_min < p <= p_limit."""
    if p_min >= p_limit:
        raise ValueError("requires p_min < p_limit")
    if p_limit > 2 * 10**7:
        raise ValueError("sieve limit capped at 2e7")
    primes = inert_primes_up_to(p_limit)
    return primes[bisect_right(primes, p_min):]


def tail_bound(p_min: int, p_limit: int) -> Fraction:
    """Exact sum of 1/(p^3 + p^2) over primes p = 3 (mod 4), p_min < p <= p_limit."""
    primes = _tail_primes(p_min, p_limit)
    return _merge_sum([Fraction(1, p * p * (p + 1)) for p in primes])


def rounded_tail(p_min: int, p_limit: int) -> Fraction:
    """Upper bound for `tail_bound`: each term rounded up to a multiple of
    1/TAIL_SCALE, so the excess is below (number of terms) / TAIL_SCALE.
    ceil(S/d) = (S-1)//d + 1 for S, d >= 1, the +1s summed as len(primes).
    The floors are exact `decimal` integer divisions: the 240-digit dividend
    divided by a one-word divisor (below 10^19, p up to about 2.15e6) is one
    short pass in libmpdec, faster than `int`'s general long division."""
    primes = _tail_primes(p_min, p_limit)
    dividend = Decimal(TAIL_SCALE - 1)
    with localcontext(_TAIL_CONTEXT):
        # the sum too: in the caller's context it could round
        floors = sum(dividend // (p * p * (p + 1)) for p in primes)
    return Fraction(int(floors) + len(primes), TAIL_SCALE)


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
    tail = rounded_tail(fam[-1], p_limit) + TAIL_REMAINDER
    ell = union_density(fam)
    return DiagonalBracket(1 - ell - tail, 1 - ell, ell, tail, fam)


def sieve_complement_count(limit: int, primes) -> int:
    """Count n <= limit lying in some U_p, by direct progression marking.

    Independent oracle for `union_density`: it marks the progressions and
    never runs the dynamic program.  For p = 3 (mod 4), 8 divides p^2 - 1
    (p is odd) and 3 divides p^3 - p = (p - 1) p (p + 1), so 24 | p^3 - p
    and every U_p lies on the lattice n = 24 j.  With u_p = (p^3 - p)/24,
    U_p is the set of j that are multiples t u_p of u_p with p not dividing t.

    u_3 = 1, so U_3 is every j >= 1 prime to 3, counted in closed form, and
    the other primes need marking only on j = 3 i.  There U_p is
    i = t v_p with p not dividing t, where v_p = u_p / gcd(u_p, 3): when 3
    does not divide u_p, t runs over multiples of 3, and p divides 3 t' just
    when it divides t'.  A family without 3 marks all of j, with v_p = u_p.
    Each nonzero residue of t mod p is one stride of step p v_p, and only the
    strides that start inside the array are walked, so a prime costs one
    step per stride it marks.  One bytearray over i (over j without 3),
    limit/72 bytes (limit/24), takes every prime's strides and is then
    counted.
    """
    if limit < 1 or limit > 10**9:
        raise ValueError("limit must be in [1, 1e9]")
    fam = validate_prime_family(primes)
    top = limit // 24
    count, fold = 0, 1
    if fam and fam[0] == 3:
        count, fold, fam = top - top // 3, 3, fam[1:]
        top //= 3
    marked = bytearray(top + 1)
    for p in fam:
        u = (p**3 - p) // 24
        v = u // gcd(u, fold)
        for s in range(v, min(p * v, top + 1), v):
            marked[s::p * v] = b"\x01" * len(range(s, top + 1, p * v))
    return count + marked.count(1)


def digit_count(x: int) -> int:
    """Number of decimal digits of |x| (0 counts as one digit)."""
    return len(str(abs(x)))
