"""Classical power sums S_k(n) = 1^k + ... + n^k modulo n.

Two routes are kept deliberately separate: a literal summation oracle and a
closed evaluation from the primes of n alone, von Staudt's sum

    S_k(n) = - sum_{p | n, p - 1 | k} n/p   (mod n),

where p = 2 is left out when 4 | n and k > 1 is odd.  The whole point of the
split is that the two must agree everywhere, which the tests enforce.
"""

from __future__ import annotations

from .arith import factorize


def s_mod_naive(k: int, n: int) -> int:
    """(1^k + ... + n^k) mod n by direct summation; also defined for k = 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    return sum(pow(i, k, n) for i in range(1, n + 1)) % n


def s_mod_closed(k: int, n: int) -> int:
    """S_k(n) mod n without summation, by von Staudt's sum over p | n."""
    if k < 1:
        raise ValueError("closed evaluation requires k >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    skip_two = n % 4 == 0 and k > 1 and k % 2 == 1
    total = sum(
        n // p
        for p, _ in factorize(n)
        if k % (p - 1) == 0 and not (p == 2 and skip_two)
    )
    return -total % n
