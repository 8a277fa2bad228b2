"""Closed-form evaluation of the Gaussian power sum sigma_k(n) mod n.

Writing sigma_k(n) for the sum of (a+bi)^k over the square 1 <= a, b <= n,
the closed form is driven by the witness primes

    W(k, n) = { p prime : p || n (exactly divides), p^2 - 1 | k, p = 3 (mod 4) }

and reads

    sigma_k(n) =  (n/2)(1+i)                    if k > 1 odd and n = 2 (mod 4),
                  - sum_{p in W(k,n)} n^2/p^2   otherwise (purely real).

So sigma_k(n) mod n depends on k only through its row class: whether k > 1
is odd, and the row witness primes R(k) (`row_witness_primes`), the primes
p = 3 (mod 4) with p^2 - 1 | k.  For such p, o = (p - 1)/2 is an odd divisor
of k, so R(k) is read off one factorization of k.  W(k, n) is then the p in
R(k) with p | n and p^2 not dividing n, so a whole row needs no factorization
of n: `sigma_closed_row` evaluates it from R(k) alone.  `row_class(k)` is
that key: `cli.cmd_table` evaluates and renders each class row once, and
`density.zero_row_density` reads its case from it.

Two independent evaluation routes live here and are cross-tested: the
closed form above and a mid-level route that follows the paper's own
derivation, the binomial expansion of (a+bi)^k against the classical power
sums S_m(n), read from von Staudt's sum (`power_sums.s_mod_closed_row`).
`gaussian.sigma_brute` is the third, ground-truth route, and
`power_sums.s_mod_naive` the literal oracle of the power sums.  The two
routes here share only `factorize`.  `_expand` writes the expansion of one
cell once, from one row of binomials C(k, 0..k) and S_0(n)..S_k(n) mod n.
Its terms come in mirror pairs, and von Staudt's sum leaves many S_m(n) at
0 (S_0(n) always, every odd m when n is odd), so it multiplies each pair
once and only where both power sums are nonzero: about a sixth of the terms
over the 48 x 48 box.  `sigma_expansion` builds the one row of binomials it
needs by C(k, j + 1) = C(k, j)(k - j)/(j + 1); `sigma_expansion_sweep` gives
the rows of every n up to n_max in one pass, building each Pascal row once.
`cli.cmd_verify` checks its rows against `gaussian.sigma_brute_sweep`, the
brute rows in one pass, and against one closed row per row class.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate, compress
from operator import add

from .arith import MAX_FACTOR_INPUT, factorize, is_prime
from .gaussian import GaussianResidue
from .power_sums import s_mod_closed_row

# Largest k `sigma_expansion` accepts (k_max for `sigma_expansion_sweep`); n
# may be anything `factorize` takes.  One cell builds k + 1 exact binomials,
# reads S_0(n)..S_k(n) from one factorization of n and expands: 0.3-0.5 ms
# at k = 1000, 0.3 ms of it the binomials and at most 0.15 ms the expansion,
# or about 18 ms at the n whose odd part Brent's rho splits,
# 8 * 1073741783 * 1073741789 (best of 30 on a 2-core x86 Xeon host with
# Python 3.11.7).  The sweep expands every cell of its box, up to about
# k_max^2 n_max / 4 products, so `cli.cmd_verify` bounds it far below this
# cap.
MAX_EXPANSION_K = 1000


def witness_primes(k: int, n: int) -> tuple[int, ...]:
    """Primes p with p || n, p^2 - 1 | k and p = 3 (mod 4), ascending."""
    if not 1 <= n <= MAX_FACTOR_INPUT:
        raise ValueError(f"n must be in [1, {MAX_FACTOR_INPUT}]")
    if k < 1:
        raise ValueError("k must be >= 1")
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
    if not 1 <= k <= MAX_FACTOR_INPUT:
        raise ValueError(f"k must be in [1, {MAX_FACTOR_INPUT}]")
    if k % 8:  # 8 | p^2 - 1 for every odd p, so k need not be factored
        return ()
    odd = [1]  # the odd divisors of k, from its prime factors after (2, e)
    for q, e in factorize(k)[1:]:
        odd = [o * q**i for o in odd for i in range(e + 1)]
    # p = 2o + 1 is 3 (mod 4), and p^2 - 1 = 4o(o + 1)
    candidates = sorted(2 * o + 1 for o in odd if k % (4 * o * (o + 1)) == 0)
    return tuple(p for p in candidates if is_prime(p))


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
    """[sigma_closed(k, n) for n in 1..n_max], from R(k) with no factoring
    of n; k is held to [1, MAX_FACTOR_INPUT] like `row_witness_primes`."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    row_primes = row_witness_primes(k)  # checks k
    return [_closed_cell(k, n, row_primes) for n in range(1, n_max + 1)]


def _closed_cell(k: int, n: int, primes: Iterable[int]) -> GaussianResidue:
    """The closed formula at (k, n), given R(k) or W(k, n): the witnesses
    are the p in `primes` with p || n."""
    if is_half_epsilon_case(k, n):
        return GaussianResidue(n // 2, n // 2, n)
    total = sum(n * n // (p * p) for p in primes if n % p == 0 and n % (p * p))
    return GaussianResidue(-total % n, 0, n)


def sigma_expansion(k: int, n: int) -> GaussianResidue:
    """sigma_k(n) mod n through the binomial expansion of (a+bi)^k.

    Expanding and splitting by parity of the i-exponent gives, with
    S_m(n) = 1^m + ... + n^m,

        Re = sum_{j} (-1)^j C(k, 2j)   S_{2j}(n)   S_{k-2j}(n)
        Im = sum_{j} (-1)^j C(k, 2j+1) S_{2j+1}(n) S_{k-2j-1}(n)

    evaluated mod n with exact integer binomials and S_m(n) mod n from von
    Staudt's sum.  Slower than the closed form but independent of it; it
    sits between brute force and the formula in the oracle stack.
    """
    _check_expansion(k, n)
    binomials = accumulate(range(k), lambda c, j: c * (k - j) // (j + 1), initial=1)
    return _expand(list(binomials), s_mod_closed_row(k, n), n)


def sigma_expansion_sweep(n_max: int, k_max: int) -> list[list[GaussianResidue]]:
    """[[sigma_expansion(k, n) for k in 1..k_max] for n in 1..n_max] in one
    pass: one row of power sums per n from `s_mod_closed_row`, and each row
    of Pascal's triangle built once from the one before and expanded at
    every n."""
    _check_expansion(k_max, n_max)
    sums = [s_mod_closed_row(k_max, n) for n in range(1, n_max + 1)]
    rows = [[] for _ in sums]
    pascal = [1]
    for _ in range(k_max):
        pascal = [1, *map(add, pascal, pascal[1:]), 1]
        for n, (s, row) in enumerate(zip(sums, rows), start=1):
            row.append(_expand(pascal, s, n))
    return rows


def _expand(binomials: list[int], s: list[int], n: int) -> GaussianResidue:
    """The expansion of cell (k, n) from binomials = C(k, 0..k) and s[m] =
    S_m(n) mod n for m <= k: t_j = C(k, j) S_j S_{k-j} goes to Re or Im, + or
    -, by j mod 4.  t_{k-j} = t_j, so each term is formed once, for j <= k/2
    with S_j and S_{k-j} both nonzero, and goes to the classes of j and of
    k - j, the middle term j = k/2 to its own once."""
    k = len(binomials) - 1
    acc = [0, 0, 0, 0]  # the sums of t_j over j = 0, 1, 2, 3 (mod 4)
    for j in compress(range(k // 2 + 1), s):
        y = s[k - j]
        if y:
            t = binomials[j] * s[j] * y
            acc[j & 3] += t
            if j + j != k:
                acc[(k - j) & 3] += t
    return GaussianResidue(acc[0] - acc[2], acc[1] - acc[3], n)


def _check_expansion(k: int, n: int) -> None:
    if not (1 <= k <= MAX_EXPANSION_K and 1 <= n <= MAX_FACTOR_INPUT):
        raise ValueError(
            f"expansion needs 1 <= k <= {MAX_EXPANSION_K}"
            f" and 1 <= n <= {MAX_FACTOR_INPUT}"
        )
