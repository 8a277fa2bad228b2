"""Shared integer/rational substrate: primes, factorization, CRT, exact decimals.

Everything here is exact.  Rationals are `fractions.Fraction` (always reduced,
positive denominator); floating point never enters any code path in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

MAX_FACTOR_INPUT = 2**63 - 1

# Largest count `sieve_inert_primes` accepts: the 10^5-th inert prime is
# 2,747,671, found by sieving to 6.6e6 in about 0.5 s on a 2-core x86 host.
MAX_INERT_COUNT = 10**5


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


def inert_primes_up_to(n: int) -> list[int]:
    """Primes p <= n with p = 3 (mod 4), ascending."""
    return [p for p in primes_up_to(n) if p % 4 == 3]


def sieve_inert_primes(count: int) -> tuple[int, ...]:
    """The `count` smallest primes congruent to 3 mod 4, ascending.

    The result is the canonical prime family driving the witness-set
    machinery; the first thirty members end at 263.
    """
    if not 1 <= count <= MAX_INERT_COUNT:
        raise ValueError(f"count must be in [1, {MAX_INERT_COUNT}]")
    # p_n < n (ln n + ln ln n) for n >= 6; inert primes are about half of all
    # primes, so sieve for ~2*count primes and grow if the estimate was short.
    bound = 100
    while True:
        found = inert_primes_up_to(bound)
        if len(found) >= count:
            return tuple(found[:count])
        bound *= 4


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality; adequate for n < 2^63 here only
    because every caller stays far below that."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Complete prime factorization of n as ascending (prime, exponent) pairs.

    n = 1 gives the empty list.  Deterministic trial division; inputs are
    restricted to [1, 2^63) since nothing in this package needs more.
    """
    if n < 1 or n > MAX_FACTOR_INPUT:
        raise ValueError(f"factorize requires 1 <= n < 2**63, got {n}")
    pairs = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                pairs.append((p, e))
        f += 6
    if n > 1:
        pairs.append((n, 1))
    return pairs


def crt(residues: list[tuple[int, int]]) -> int:
    """Solve a system of congruences (residue, modulus) with coprime moduli.

    A modulus that shares a factor with an earlier one leaves the product of
    the earlier moduli without an inverse, and `pow` raises ValueError.
    """
    r, m = 0, 1
    for ri, mi in residues:
        r += (ri - r) * pow(m, -1, mi) % mi * m
        m *= mi
    return r


def decimal_render(q: Fraction, digits: int, direction: str = "down") -> str:
    """Exact decimal expansion of q with directed rounding, no floating point.

    "down" truncates toward -infinity, "up" rounds toward +infinity, so for
    any q:  down-render <= q <= up-render, with gap at most 10^-digits.
    """
    if not 1 <= digits <= 200:
        raise ValueError("digits must be in [1, 200]")
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    scale = 10**digits
    quo, rem = divmod(q.numerator * scale, q.denominator)
    if direction == "up" and rem:
        quo += 1
    sign = "-" if quo < 0 else ""
    ipart, fpart = divmod(abs(quo), scale)
    return f"{sign}{ipart}.{fpart:0{digits}d}"


def validate_prime_family(primes) -> tuple[int, ...]:
    """Check a would-be family of distinct inert primes and return it as a tuple."""
    fam = tuple(primes)
    if list(fam) != sorted(set(fam)):
        raise ValueError("prime family must be strictly ascending and distinct")
    for p in fam:
        if p % 4 != 3 or not is_prime(p):
            raise ValueError(f"{p} is not a prime congruent to 3 mod 4")
    return fam
