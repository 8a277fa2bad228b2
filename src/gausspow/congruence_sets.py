"""Membership predicates for the zero sets of the Gaussian power-sum table.

Three sets of interest, all defined by sigma_k(n) = 0 (mod n):

  * the zero moduli of a fixed exponent row (n varies, k fixed),
  * the zero exponents of a fixed modulus column (k varies, n fixed),
  * the diagonal zeros (k = n), whose complement is witnessed by a single
    prime p = 3 (mod 4) with p^3 - p | n and p^2 not dividing n.

The predicates read the closed form's witness sets (`closed_form`), and
brute force (`gaussian.sigma_brute`) is their independent check.
`divides_sigma(k, n)` is the closed form's zero test, so the complement of
row k is {n : not divides_sigma(k, n)}, and that of column n the same set
with k varying.  The diagonal is the cell predicate `witness_primes(n, n)`:
p || n and p^2 - 1 | n together say p^3 - p | n, since p and p^2 - 1 are
coprime.  The same complement, as a union of progressions U_p of multiples
of p^3 - p, is counted independently by `density.sieve_complement_count`.

The paper's corollaries of these descriptions (no multiple of 8 is a zero
exponent of a column n with 3 || n; a diagonal witness forces 24 | n) get no
predicate of their own: the tests assert them against the ones here.
"""

from __future__ import annotations

from .closed_form import sigma_closed, witness_primes


def divides_sigma(k: int, n: int) -> bool:
    """Whether n | sigma_k(n): the closed form's zero test.

    False exactly when a prime p | n has p = 3 (mod 4), p^2 - 1 | k and
    p^2 not dividing n, or when k > 1 is odd with n = 2 (mod 4).  k and n
    are checked as `sigma_closed` checks them, for every k.
    """
    return sigma_closed(k, n).is_zero()


def diagonal_witness(n: int) -> int | None:
    """Smallest prime p = 3 (mod 4) with p^3 - p | n and p^2 not dividing n,
    or None when there is none, that is when sigma_n(n) = 0 (mod n)."""
    return min(witness_primes(n, n), default=None)
