"""Classical power sums S_k(n) = 1^k + ... + n^k modulo n.

Two routes are kept deliberately separate: a literal summation oracle and a
closed evaluation assembled from per-prime-power congruences via CRT.  For an
odd prime power p^r the sum is -p^(r-1) mod p^r when p-1 | k and 0 otherwise;
for 2^r with r >= 2 it is 2^(r-1) for k even or k = 1, and 0 for odd k > 1;
scaling from p^r to n multiplies by n/p^r.  The whole point of the split is
that the two must agree everywhere, which the tests enforce.
"""

from __future__ import annotations

from .arith import crt, factorize


def s_mod_naive(k: int, n: int) -> int:
    """(1^k + ... + n^k) mod n by direct summation; also defined for k = 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    return sum(pow(i, k, n) for i in range(1, n + 1)) % n


def _s_mod_prime_power(k: int, p: int, e: int) -> int:
    """S_k(p^e) mod p^e, k >= 1."""
    pe = p**e
    if p == 2:
        if e == 1:
            return 1  # 1 + 2^k is odd
        if k == 1 or k % 2 == 0:
            return pe // 2
        return 0
    if k % (p - 1) == 0:
        return -(pe // p) % pe
    return 0


def s_mod_closed(k: int, n: int) -> int:
    """S_k(n) mod n without summation, via prime-power congruences and CRT."""
    if k < 1:
        raise ValueError("closed evaluation requires k >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0
    residues = []
    for p, e in factorize(n):
        pe = p**e
        c = _s_mod_prime_power(k, p, e)
        residues.append(((n // pe) * c % pe, pe))
    return crt(residues)

