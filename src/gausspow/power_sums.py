"""Classical power sums S_k(n) = 1^k + ... + n^k modulo n.

Two routes are kept deliberately separate: the literal summation oracle
`s_mod_naive` and a closed evaluation from the primes of n alone, von
Staudt's sum

    S_k(n) = - sum_{p | n, p - 1 | k} n/p   (mod n),

where p = 2 is left out when 4 | n and k > 1 is odd.  `s_mod_closed` reads
one S_k(n) from it, and `s_mod_closed_row` the row S_0(n)..S_k_max(n) from
one factorization of n; the expansion route of `closed_form` takes its power
sums from that row.  The whole point of the split is that the two routes
must agree everywhere, which the tests enforce.
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
    total = sum(t for step, one, t in _von_staudt(n) if k % step == 0 or one and k == 1)
    return -total % n


def s_mod_closed_row(k_max: int, n: int) -> list[int]:
    """[S_m(n) mod n for m in 0..k_max] by von Staudt's sum, n factored once;
    S_0(n) = n is 0 mod n."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    row = [0] * (k_max + 1)
    for step, one, t in _von_staudt(n):
        for m in range(step, k_max + 1, step):
            row[m] -= t
        if one and k_max >= 1:
            row[1] -= t
    return [x % n for x in row]


def _von_staudt(n: int) -> list[tuple[int, bool, int]]:
    """Von Staudt's sum for n as one triple (step, one, n // p) per p | n:
    n/p enters S_m(n), m >= 1, at the multiples m of step, and at m = 1 too
    when `one` is set.  step is p - 1, except that for p = 2 with 4 | n it is
    2 and `one` is set: n/2 then enters only at m = 1 and the even m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        (2, True, n // 2) if p == 2 and n % 4 == 0 else (p - 1, False, n // p)
        for p, _ in factorize(n)
    ]
