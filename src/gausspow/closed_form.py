"""Closed-form evaluation of the Gaussian power sum sigma_k(n) mod n.

Writing sigma_k(n) for the sum of (a+bi)^k over the square 1 <= a, b <= n,
the closed form is driven by the witness primes

    W(k, n) = { p prime : p || n (exactly divides), p^2 - 1 | k, p = 3 (mod 4) }

and reads

    sigma_k(n) =  (n/2)(1+i)                    if k > 1 odd and n = 2 (mod 4),
                  - sum_{p in W(k,n)} n^2/p^2   otherwise (purely real).

So sigma_k(n) mod n depends on k only through its row class: whether k > 1
is odd, and the row witness primes R(k) (`row_witness_primes`), the primes
p = 3 (mod 4) with p^2 - 1 | k.  W(k, n) is then the p in R(k) with p | n and
p^2 not dividing n, so a whole row needs no factorization:
`sigma_closed_row` evaluates it from R(k) alone.  `row_class(k)` is that key,
and two callers evaluate each class row once: `cli.cmd_table`, which also
renders it once, and `moser_search.search_solutions`, whose first two
filters read sigma_k(m-1) and sigma_k(m) off the row.

Two independent evaluation routes live here and are cross-tested: the
closed form above and a mid-level route through the binomial expansion of
(a+bi)^k against classical power sums.  `gaussian.sigma_brute` is the third,
ground-truth route.  `sigma_expansion_rows` runs the expansion for every k up
to k_max at one n on the same power sums S_0(n)..S_k_max(n), summed once;
`cli.cmd_verify` checks its rows against `gaussian.sigma_brute_sweep`, which
gives the brute rows of every n up to n_max in one pass.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb, isqrt

from .arith import MAX_FACTOR_INPUT, factorize, is_prime
from .gaussian import GaussianResidue
from .power_sums import s_mod_naive

# Largest k `row_witness_primes` accepts: it tries the ~sqrt(k)/4 candidates
# p = 3 (mod 4) with p^2 <= k + 1, about 0.1 s at 10^12 on a 2-core x86 host.
MAX_ROW_K = 10**12

# Largest k and n `sigma_expansion` accepts (k_max and n for
# `sigma_expansion_rows`): one cell sums k + 1 power sums of n terms and takes k
# exact binomials.  On a 2-core x86 host (1000, 1000) takes about 0.8 s, and the
# rows to k_max = 1000 at n = 1000 about 8.5 s, mostly in the binomials.
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


def row_class(k: int) -> tuple[bool, tuple[int, ...]]:
    """The key that row k of sigma_k(n) mod n depends on: whether k > 1 is
    odd, and R(k) = `row_witness_primes(k)`."""
    return k > 1 and k % 2 == 1, row_witness_primes(k)


def is_half_epsilon_case(k: int, n: int) -> bool:
    """The only case where sigma_k(n) is not real mod n: odd k > 1, n = 2 (mod 4)."""
    return k > 1 and k % 2 == 1 and n % 4 == 2


def sigma_closed(k: int, n: int) -> GaussianResidue:
    """sigma_k(n) mod n by the closed formula."""
    # witness_primes checks k and n first, whatever the case
    return _closed_cell(k, n, witness_primes(k, n))


def sigma_closed_row(k: int, n_max: int) -> list[GaussianResidue]:
    """[sigma_closed(k, n) for n in 1..n_max], from R(k) with no factoring;
    k is held to [1, MAX_ROW_K] like `row_witness_primes`."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    row_primes = row_witness_primes(k)  # checks k
    return [
        _closed_cell(k, n, [p for p in row_primes if n % p == 0 and n % (p * p)])
        for n in range(1, n_max + 1)
    ]


def _closed_cell(k: int, n: int, witnesses: Iterable[int]) -> GaussianResidue:
    """The closed formula at (k, n), given W(k, n)."""
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
    return _expand(k, n, _power_sums(k, n))


def sigma_expansion_rows(n: int, k_max: int) -> list[GaussianResidue]:
    """[sigma_expansion(k, n) for k in 1..k_max], summing each S_m(n) once."""
    s = _power_sums(k_max, n)
    return [_expand(k, n, s) for k in range(1, k_max + 1)]


def _power_sums(k: int, n: int) -> list[int]:
    """[S_m(n) mod n for m in 0..k] by literal summation, within the caps."""
    if not (1 <= k <= MAX_EXPANSION_K and 1 <= n <= MAX_EXPANSION_N):
        raise ValueError(
            f"expansion needs 1 <= k <= {MAX_EXPANSION_K}"
            f" and 1 <= n <= {MAX_EXPANSION_N}"
        )
    return [s_mod_naive(m, n) for m in range(k + 1)]


def _expand(k: int, n: int, s: list[int]) -> GaussianResidue:
    """The two signed binomial sums of `sigma_expansion`, s[m] = S_m(n) mod n."""
    re = im = 0
    for j in range(k // 2 + 1):
        term = comb(k, 2 * j) % n * s[2 * j] % n * s[k - 2 * j] % n
        re += -term if j % 2 else term
    for j in range((k - 1) // 2 + 1):
        term = comb(k, 2 * j + 1) % n * s[2 * j + 1] % n * s[k - 2 * j - 1] % n
        im += -term if j % 2 else term
    return GaussianResidue(re % n, im % n, n)
