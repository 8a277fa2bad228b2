"""Closed-form evaluation of the Gaussian power sum sigma_k(n) mod n.

Writing sigma_k(n) for the sum of (a+bi)^k over the square 1 <= a, b <= n,
the closed form is driven by the witness primes

    W(k, n) = { p prime : p || n (exactly divides), p^2 - 1 | k, p = 3 (mod 4) }

and reads

    sigma_k(n) =  (n/2)(1+i)                    if k > 1 odd and n = 2 (mod 4),
                  - sum_{p in W(k,n)} n^2/p^2   otherwise (purely real).

Two independent evaluation routes live here and are cross-tested: the
closed form above and a mid-level route through the binomial expansion of
(a+bi)^k against classical power sums.  `gaussian.sigma_brute` is the third,
ground-truth route.
"""

from __future__ import annotations

from math import comb, isqrt, lcm

from .arith import MAX_FACTOR_INPUT, factorize, is_prime
from .gaussian import GaussianResidue
from .power_sums import s_mod_naive

# Largest k `row_witness_primes` accepts: it tries the ~sqrt(k)/4 candidates
# p = 3 (mod 4) with p^2 <= k + 1, about 0.1 s at 10^12 on a 2-core x86 host.
MAX_ROW_K = 10**12

# Largest k and n `sigma_expansion` accepts: it sums k + 1 power sums of n
# terms each and takes k exact binomials; (1000, 1000) takes about 0.8 s on a
# 2-core x86 host.
MAX_EXPANSION_K = 1000
MAX_EXPANSION_N = 1000


def witness_primes(k: int, n: int) -> tuple[int, ...]:
    """Primes p with p || n, p^2 - 1 | k and p = 3 (mod 4), ascending."""
    if k < 1 or not 1 <= n <= MAX_FACTOR_INPUT:
        raise ValueError(f"requires k >= 1 and 1 <= n <= {MAX_FACTOR_INPUT}")
    if k % 8:  # 8 | p^2 - 1 for every odd p, so n need not be factored
        return ()
    return tuple(
        p
        for p, e in factorize(n)
        if e == 1 and p % 4 == 3 and k % (p * p - 1) == 0
    )


def row_witness_primes(k: int) -> tuple[int, ...]:
    """Primes p = 3 (mod 4) with p^2 - 1 | k, ascending: the primes that can
    witness in row k, for whichever n they exactly divide."""
    if not 1 <= k <= MAX_ROW_K:
        raise ValueError(f"k must be in [1, {MAX_ROW_K}]")
    if k % 8:  # 8 | p^2 - 1 for every odd p
        return ()
    return tuple(
        p
        for p in range(3, isqrt(k + 1) + 1, 4)
        if k % (p * p - 1) == 0 and is_prime(p)
    )


def is_half_epsilon_case(k: int, n: int) -> bool:
    """The only case where sigma_k(n) is not real mod n: odd k > 1, n = 2 (mod 4)."""
    return k > 1 and k % 2 == 1 and n % 4 == 2


def sigma_closed(k: int, n: int) -> GaussianResidue:
    """sigma_k(n) mod n by the closed formula."""
    witnesses = witness_primes(k, n)  # checks k and n first, whatever the case
    if is_half_epsilon_case(k, n):
        return GaussianResidue(n // 2, n // 2, n)
    total = sum(n * n // (p * p) for p in witnesses)
    return GaussianResidue(-total % n, 0, n)


def sigma_expansion(k: int, n: int) -> GaussianResidue:
    """sigma_k(n) mod n through the binomial expansion of (a+bi)^k.

    Expanding and splitting by parity of the i-exponent gives, with
    S_m(n) = 1^m + ... + n^m,

        Re = sum_{j} (-1)^j C(k, 2j)   S_{2j}(n)   S_{k-2j}(n)
        Im = sum_{j} (-1)^j C(k, 2j+1) S_{2j+1}(n) S_{k-2j-1}(n)

    evaluated mod n with exact integer binomials.  Slower than the closed
    form but independent of it; it sits between brute force and the formula
    in the oracle stack.
    """
    if not (1 <= k <= MAX_EXPANSION_K and 1 <= n <= MAX_EXPANSION_N):
        raise ValueError(
            f"expansion needs 1 <= k <= {MAX_EXPANSION_K}"
            f" and 1 <= n <= {MAX_EXPANSION_N}"
        )
    s = [s_mod_naive(m, n) for m in range(k + 1)]
    re = im = 0
    for j in range(k // 2 + 1):
        term = comb(k, 2 * j) % n * s[2 * j] % n * s[k - 2 * j] % n
        re += -term if j % 2 else term
    for j in range((k - 1) // 2 + 1):
        term = comb(k, 2 * j + 1) % n * s[2 * j + 1] % n * s[k - 2 * j - 1] % n
        im += -term if j % 2 else term
    return GaussianResidue(re % n, im % n, n)


def closed_period(n: int) -> int:
    """L such that sigma_k(n) = sigma_{k+L}(n) for k of fixed parity.

    The witness set depends on k only through the divisibilities p^2 - 1 | k,
    so the lcm of p^2 - 1 over inert primes dividing n is a period.
    """
    L = 1
    for p, _ in factorize(n):
        if p % 4 == 3:
            L = lcm(L, p * p - 1)
    return L
