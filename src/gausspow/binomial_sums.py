"""Lacunary binomial-coefficient sums modulo a prime.

These are the classical congruences of Hermite and Dilcher for sums of
binomial coefficients taken at indices in arithmetic progression of gap p-1,
plus the signed variant that feeds the Gaussian closed form.  Binomials are
reduced mod p by Lucas decomposition so the sums stay cheap for large k.
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


def hermite_sum(k: int, p: int) -> int:
    """Sum of C(k, j(p-1)) over 0 < j(p-1) < k, mod p.

    Hermite's congruence says this vanishes mod p for every k >= 1; the sum
    is computed literally so tests can assert the vanishing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = 0
    j = 1
    while j * (p - 1) < k:
        total += binom_mod_p(k, j * (p - 1), p)
        j += 1
    return total % p


def dilcher_sum(k: int, p: int) -> int:
    """Alternating sum of C(k(p-1), j(p-1)) for j = 0..k, mod p (p odd).

    Evaluates to 0 for odd k, 1 when p+1 | k, and 2 for the remaining even k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    total = 0
    for j in range(k + 1):
        term = binom_mod_p(k * (p - 1), j * (p - 1), p)
        total += -term if j % 2 else term
    return total % p


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
    alternating = (p - 1) // 2 % 2 == 1  # p = 3 (mod 4)
    total = 0
    for j in range(1, n // (p - 1)):
        term = binom_mod_p(n, j * (p - 1), p)
        total += -term if (alternating and j % 2) else term
    return total % p
