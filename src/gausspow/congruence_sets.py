"""Membership predicates for the zero sets of the Gaussian power-sum table.

Three sets of interest, all defined by sigma_k(n) = 0 (mod n):

  * the zero moduli of a fixed exponent row (n varies, k fixed),
  * the zero exponents of a fixed modulus column (k varies, n fixed),
  * the diagonal zeros (k = n), whose complement is witnessed by a single
    prime p = 3 (mod 4) with p^3 - p | n and p^2 not dividing n.

Each membership test below is decided from a *description* of the set
(progression unions, witness primes), never by evaluating sigma itself, so
they can be cross-checked against the evaluation routes.  The complement of
a column's zero set is `not divides_sigma`; the row complement keeps its own
progression-union test, `outside_row_zeros`.  The diagonal is the cell
predicate `witness_primes(n, n)`: p || n and p^2 - 1 | n together say
p^3 - p | n, since p and p^2 - 1 are coprime.  The same complement, as a
union of progressions U_p of multiples of p^3 - p, is counted independently
by `density.sieve_complement_count`.

The paper's corollaries of these descriptions (no multiple of 8 is a zero
exponent of a column n with 3 || n; a diagonal witness forces 24 | n) get no
predicate of their own: the tests assert them against the ones here.
"""

from __future__ import annotations

from .closed_form import (
    _exact_divisors, is_half_epsilon_case, row_witness_primes, witness_primes,
)


def divides_sigma(k: int, n: int) -> bool:
    """Whether n | sigma_k(n), decided set-theoretically.

    False exactly when a prime p | n has p = 3 (mod 4), p^2 - 1 | k and
    p^2 not dividing n, or when k > 1 is odd with n = 2 (mod 4).
    """
    return not is_half_epsilon_case(k, n) and not witness_primes(k, n)


def outside_row_zeros(n: int, k: int) -> bool:
    """n outside the zero set of row k, via the progression-union description.

    The complement is the union over the row witness primes p of the
    multiples of p that are not multiples of p^2; for odd k > 1 there are
    none, and it is exactly the residue class 2 mod 4.  k is held to
    [1, MAX_ROW_K] like `row_witness_primes`.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    row_primes = row_witness_primes(k)
    return is_half_epsilon_case(k, n) or bool(_exact_divisors(row_primes, n))


def diagonal_witness(n: int) -> int | None:
    """Smallest prime p = 3 (mod 4) with p^3 - p | n and p^2 not dividing n,
    or None when there is none, that is when sigma_n(n) = 0 (mod n)."""
    return min(witness_primes(n, n), default=None)
