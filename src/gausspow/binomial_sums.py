"""Lacunary binomial-coefficient sums modulo a prime.

These are the classical congruences of Hermite and Dilcher for sums of
binomial coefficients taken at indices in arithmetic progression of gap p-1,
plus the signed variant from the paper's proof of the Gaussian closed form
(no evaluation route calls it; the tests check it as a step of that proof).
All three are one walk, `_lacunary_sum`: the sum of sign^j C(n, j(p-1)) over
the inner indices 0 < j(p-1) < n.  Hermite's sum is the walk with sign 1,
the signed sum the walk with sign -1 at p = 3 (mod 4), and Dilcher's
alternating sum the walk over n = k(p-1) plus its two end terms C(n, 0) = 1
and (-1)^k C(n, n).
Binomials are reduced mod p by Lucas decomposition so the sums stay cheap for
large k; each public function checks that p is prime once per call.
"""

from __future__ import annotations

from .arith import is_prime

# Largest min(b, a - b) a Lucas digit C(a, b) may take: each costs that many
# multiplications mod p, about 0.01 s at the cap on a 2-core x86 host.  Every
# prime below 2 * 10^5 stays under it, since min(b, a - b) <= (p - 1)/2.
MAX_LUCAS_DIGIT_TERMS = 10**5


def binom_mod_p(n: int, m: int, p: int) -> int:
    """C(n, m) mod p by Lucas' theorem; 0 when m > n or m < 0.

    Raises ValueError for a base-p digit C(a, b) with min(b, a - b) above
    MAX_LUCAS_DIGIT_TERMS."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _lucas(n, m, p)


def _lucas(n: int, m: int, p: int) -> int:
    """`binom_mod_p` for a p already known to be prime."""
    if m < 0 or m > n:
        return 0
    out = 1
    while m:  # a zero digit of m contributes C(a, 0) = 1
        a, n = n % p, n // p
        b, m = m % p, m // p
        if b > a:
            return 0
        j = min(b, a - b)
        if j > MAX_LUCAS_DIGIT_TERMS:
            raise ValueError(
                f"Lucas digit C({a}, {b}) needs {j} terms, over {MAX_LUCAS_DIGIT_TERMS}"
            )
        num = den = 1
        for i in range(j):  # C(a, b) = prod (a - i) / prod (i + 1)
            num = num * (a - i) % p
            den = den * (i + 1) % p
        out = out * num * pow(den, -1, p) % p
    return out


def _lacunary_sum(n: int, p: int, sign: int) -> int:
    """Sum of sign^j C(n, j(p-1)) over 0 < j(p-1) < n, mod the prime p."""
    last = (n - 1) // (p - 1)  # the largest j with j(p-1) < n
    return sum(sign**j * _lucas(n, j * (p - 1), p) for j in range(1, last + 1)) % p


def hermite_sum(k: int, p: int) -> int:
    """Sum of C(k, j(p-1)) over 0 < j(p-1) < k, mod p.

    Hermite's congruence says this vanishes mod p for every k >= 1; the sum
    is computed literally so tests can assert the vanishing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _lacunary_sum(k, p, 1)


def dilcher_sum(k: int, p: int) -> int:
    """Alternating sum of C(k(p-1), j(p-1)) for j = 0..k, mod p (p odd).

    Evaluates to 0 for odd k, 1 when p+1 | k, and 2 for the remaining even k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    # the inner terms 0 < j < k, then the end terms j = 0 and j = k
    return (_lacunary_sum(k * (p - 1), p, -1) + 1 + (-1) ** k) % p


def signed_lacunary_sum(n: int, p: int) -> int:
    """Sum of (-1)^(j(p-1)/2) C(n, j(p-1)) for j = 1..n/(p-1)-1, mod p.

    Requires p-1 | n.  Nonzero (namely -1 mod p) exactly when p = 3 (mod 4)
    and p+1 divides n/(p-1); the sign only alternates in that residue class
    since (p-1)/2 is then odd.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if n < 1 or n % (p - 1) != 0:
        raise ValueError("requires p - 1 | n")
    return _lacunary_sum(n, p, -1 if p % 4 == 3 else 1)
