"""Shared integer/rational substrate: primes, factorization, CRT, exact decimals.

Primality is deterministic Miller-Rabin, and factorization is trial division
followed by Brent's rho, so no n below 2^63 takes more than about 0.1 s.
Everything here is exact.  Rationals are `fractions.Fraction` (always reduced,
positive denominator); floating point never enters any code path in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

MAX_FACTOR_INPUT = 2**63 - 1

# `factorize` trial-divides by the primes below this, then hands a cofactor
# above TRIAL_LIMIT^2 to Brent's rho.  So every n below 10^6, which covers
# all `table` and `verify` cells, is factored by trial division alone.
TRIAL_LIMIT = 1000

# The first twelve primes: `is_prime` trial-divides by them and uses them as
# Miller-Rabin bases, which together are exact below the least composite that
# is a strong pseudoprime to all twelve, 318665857834031151167461 (Sorenson
# and Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_PRIME_INPUT = 318665857834031151167460

# Differences `_rho_divisor` multiplies together before taking one gcd.
RHO_BATCH = 64

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

    Iterates y -> y^2 + c from y = 2, batching RHO_BATCH differences into one
    gcd; a batch that overshoots to n is replayed one step at a time, and a
    c whose cycle closes mod n itself is replaced by c + 1.  No randomness:
    the same n always takes the same steps.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Complete prime factorization of n as ascending (prime, exponent) pairs.

    n = 1 gives the empty list; inputs are restricted to [1, 2^63).  Primes
    below TRIAL_LIMIT are divided out by 6k +- 1 trial division, which alone
    factors every n below TRIAL_LIMIT^2.  A cofactor left above that has
    only prime factors above TRIAL_LIMIT, so its split by `is_prime` and
    Brent's rho is sorted and appended to an already ascending list.
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
    while f * f <= n and f < TRIAL_LIMIT:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                pairs.append((p, e))
        f += 6
    if f * f > n:
        if n > 1:
            pairs.append((n, 1))
        return pairs
    exponents: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            exponents[m] = exponents.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            stack += (d, m // d)
    return pairs + sorted(exponents.items())


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
