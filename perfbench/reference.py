"""Independent reference answers for the benchmark's correctness gate.

Nothing here imports gausspow.  Factorization is Miller-Rabin plus
Pollard-Brent rho (the package uses trial division), the diagonal witness is
read off the factorization (the package walks candidate primes), and the row
density enumerates the divisors of k (the package walks odd p up to sqrt(k)).
Each answer is rendered the way the CLI prints it, so outputs compare as text.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # exact below 3.3e24


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Brent's variant)."""
    rng = random.Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 64
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def inert_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes congruent to 3 mod 4."""
    out, p = [], 3
    while len(out) < count:
        if is_prime(p):
            out.append(p)
        p += 4
    return tuple(out)


def sigma_output(k: int, n: int) -> str:
    """`gausspow sigma --k K --n N` output, from the closed formula of the paper."""
    if k > 1 and k % 2 == 1 and n % 4 == 2:
        re, im = n // 2, n // 2
    else:
        witnesses = [
            p
            for p, e in factor(n).items()
            if e == 1 and p % 4 == 3 and k % (p * p - 1) == 0
        ]
        re, im = -sum(n * n // (p * p) for p in witnesses) % n, 0
    record = {"k": k, "n": n, "re": re, "im": im, "method": "closed"}
    return f"{re}+{im}i (mod {n})\n{json.dumps(record)}\n"


def witness_output(n: int) -> str:
    """`gausspow witness --n N` output.

    p^3 - p | n with p^2 not dividing n means p || n and p^2 - 1 | n, because
    p is coprime to p^2 - 1.
    """
    found = [
        p
        for p, e in factor(n).items()
        if e == 1 and p % 4 == 3 and n % (p * p - 1) == 0
    ]
    return json.dumps({"n": n, "witness": min(found, default=None)}) + "\n"


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factor(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return divs


def row_density_output(k: int, digits: int = 19) -> str:
    """`gausspow density nk --k K` output: the exact density, then its truncation."""
    if k > 1 and k % 2 == 1:
        q = Fraction(3, 4)
    else:
        q = Fraction(1)
        for d in _divisors(k):
            p = isqrt(d + 1)
            if p * p == d + 1 and p % 4 == 3 and is_prime(p):
                q *= Fraction(p * p - p + 1, p * p)
    scaled = q.numerator * 10**digits // q.denominator
    whole, frac = divmod(scaled, 10**digits)
    return f"{q.numerator}/{q.denominator}\n= {whole}.{frac:0{digits}d} (truncated)\n"


def lookup_output(kind: str, k: int, n: int) -> str:
    """Expected stdout of one lookup query (see `workloads.lookup_argv`)."""
    if kind == "sigma":
        return sigma_output(k, n)
    if kind == "witness":
        return witness_output(n)
    return row_density_output(k)
