"""Arithmetic substrate: primes, factorization, directed decimals."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspow.arith import (
    MAX_INERT_COUNT,
    MAX_PRIME_INPUT,
    _inert_prime_bound,
    decimal_render,
    factorize,
    inert_primes_up_to,
    is_prime,
    sieve_inert_primes,
    validate_prime_family,
)


def long_division_digits(num, den, digits):
    """Decimal digits of num/den (0 <= num < den) by schoolbook long division."""
    out = []
    rem = num
    for _ in range(digits):
        rem *= 10
        out.append(str(rem // den))
        rem %= den
    return "".join(out), rem


def trial_factorize(n):
    """Ascending (prime, exponent) pairs of n >= 1 by 6k +- 1 trial division
    to sqrt(n): the slow oracle that `factorize` must reproduce."""
    pairs = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                pairs.append((p, e))
        f += 6
    if n > 1:
        pairs.append((n, 1))
    return pairs


def oracle_is_prime(n):
    return trial_factorize(n) == [(n, 1)]


def oracle_next_prime(n):
    while not oracle_is_prime(n):
        n += 1
    return n


# Primes used to build inputs near 2^63, each small enough for the oracle to
# confirm: 997 and 1009 are the primes either side of 1000, 2097143 is the
# largest prime whose cube is below 2^63, 3037000453 * 3037000493 is a
# balanced semiprime just below 2^63, and 999999999989 is the largest prime
# below 10^12.
ORACLE_PRIMES = (
    997, 1009, 1000003, 2097143, 2147483647, 3037000453, 3037000493,
    4294967291, 999999999989,
)

# The largest prime below 2^63 (OEIS A014234), beyond the oracle's reach.
PRIME_BELOW_2_63 = 2**63 - 25


class TestInertPrimes:
    def test_smallest(self):
        assert sieve_inert_primes(1) == (3,)

    def test_first_four(self):
        # cross-check against the sieve filtered by residue
        assert sieve_inert_primes(4) == (3, 7, 11, 19)
        assert inert_primes_up_to(19)[:4] == [3, 7, 11, 19]

    def test_first_thirty_end_at_263(self):
        fam = sieve_inert_primes(30)
        assert len(fam) == 30
        assert fam[-1] == 263
        assert all(p % 4 == 3 and is_prime(p) for p in fam)
        assert list(fam) == sorted(fam)

    def test_bound_holds_for_every_accepted_count(self):
        # one sieve to the bound at the cap covers every smaller count
        found = inert_primes_up_to(_inert_prime_bound(MAX_INERT_COUNT))
        assert len(found) >= MAX_INERT_COUNT
        for count in range(1, MAX_INERT_COUNT + 1):
            assert found[count - 1] <= _inert_prime_bound(count), count

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sieve_inert_primes(0)

    def test_validate_family_rejects_non_inert(self):
        with pytest.raises(ValueError):
            validate_prime_family([3, 5])
        with pytest.raises(ValueError):
            validate_prime_family([7, 3])
        assert validate_prime_family([3, 7, 11]) == (3, 7, 11)


class TestFactorize:
    def test_one_gives_empty_product(self):
        assert factorize(1) == []

    def test_small(self):
        assert factorize(24) == [(2, 3), (3, 1)]
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert prod(p**e for p, e in factorize(360)) == 360

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(2**63)

    def test_reconstruction_exhaustive_small(self):
        for n in range(1, 5000):
            pairs = factorize(n)
            assert prod(p**e for p, e in pairs) == n
            assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
            assert all(is_prime(p) and e >= 1 for p, e in pairs)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_reconstruction_sampled(self, n):
        pairs = factorize(n)
        assert prod(p**e for p, e in pairs) == n
        assert all(is_prime(p) for p, _ in pairs)

    def test_matches_trial_division_oracle_below_1e5(self):
        for n in range(1, 10**5):
            assert factorize(n) == trial_factorize(n), n

    @given(st.integers(min_value=1, max_value=10**12))
    def test_matches_trial_division_oracle(self, n):
        assert factorize(n) == trial_factorize(n)

    def test_prime_powers_with_small_cofactors(self):
        # every p^e below 2^63 for p < 3000: alone, next to one or two of the
        # twelve Miller-Rabin primes (2, 3, 35), and next to two primes above
        # them (1763 = 41 * 43); the powers of primes above 37 are where
        # Brent's rho overshoots to n, is replayed, and moves on to the next c
        cofactors = {c: trial_factorize(c) for c in (1, 2, 3, 35, 1763)}
        for p in filter(oracle_is_prime, range(2, 3000)):
            for c, c_pairs in cofactors.items():
                e, n = 1, c * p
                while n < 2**63:
                    expected = dict(c_pairs)
                    expected[p] = expected.get(p, 0) + e
                    assert factorize(n) == sorted(expected.items()), (c, p, e)
                    e, n = e + 1, n * p

    def test_structured_inputs_near_2_63(self):
        assert all(oracle_is_prime(p) for p in ORACLE_PRIMES)
        p, q = 3037000453, 3037000493
        cases = [
            [(p, 1), (q, 1)],
            [(2147483647, 1), (4294967291, 1)],
            [(q, 2)],
            [(2097143, 3)],
            [(1000003, 3)],
            [(1009, 6)],
            [(2, 23), (999999999989, 1)],
            [(3, 5), (5, 3), (7, 1), (999999999989, 1)],
            [(997, 1), (1009, 1), (999999999989, 1)],
            [(2, 62)],
            [(3, 39)],
            [(7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1)],
            [(PRIME_BELOW_2_63, 1)],
        ]
        for pairs in cases:
            n = prod(p**e for p, e in pairs)
            assert n < 2**63
            assert factorize(n) == pairs, n
        assert prod(p**e for p, e in cases[-2]) == 2**63 - 1

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2**30, max_value=3037000400),
        st.integers(min_value=2**30, max_value=3037000400),
    )
    def test_balanced_semiprimes(self, a, b):
        p, q = sorted((oracle_next_prime(a), oracle_next_prime(b)))
        expected = [(p, 2)] if p == q else [(p, 1), (q, 1)]
        assert factorize(p * q) == expected


class TestIsPrime:
    def test_matches_oracle_below_1e5(self):
        assert not any(is_prime(n) for n in range(-3, 2))
        for n in range(2, 10**5):
            assert is_prime(n) == oracle_is_prime(n), n

    def test_strong_pseudoprimes_are_composite(self):
        # a Carmichael number; the least strong pseudoprime to bases 2, 3, 5
        # and 7; the least to every prime base up to 31, which only base 37
        # exposes
        for n in (561, 3215031751, 3825123056546413051):
            assert not is_prime(n)

    def test_large_primes(self):
        for n in (*ORACLE_PRIMES, 2**61 - 1, PRIME_BELOW_2_63):
            assert is_prime(n)
        assert not is_prime(PRIME_BELOW_2_63 - 2)

    def test_bound(self):
        # the bound sits just below the least strong pseudoprime to all twelve
        # bases, so the first input refused is that composite
        assert not is_prime(MAX_PRIME_INPUT)
        with pytest.raises(ValueError):
            is_prime(MAX_PRIME_INPUT + 1)


class TestDecimalRender:
    def test_directed_pair(self):
        assert decimal_render(Fraction(1, 36), 6, "down") == "0.027777"
        assert decimal_render(Fraction(1, 36), 6, "up") == "0.027778"

    def test_long_division_oracle(self):
        digits, rem = long_division_digits(101, 3528, 10)
        assert digits == "0286281179"
        assert rem != 0
        assert decimal_render(Fraction(101, 3528), 10, "down") == "0.0286281179"

    def test_terminating_expansion_is_exact_both_ways(self):
        assert decimal_render(Fraction(1, 4), 3, "down") == "0.250"
        assert decimal_render(Fraction(1, 4), 3, "up") == "0.250"

    def test_negative_rounds_toward_direction(self):
        assert decimal_render(Fraction(-1, 3), 2, "down") == "-0.34"
        assert decimal_render(Fraction(-1, 3), 2, "up") == "-0.33"

    def test_guards(self):
        with pytest.raises(ValueError):
            decimal_render(Fraction(1, 3), 0, "down")
        with pytest.raises(ValueError):
            decimal_render(Fraction(1, 3), 201, "down")
        with pytest.raises(ValueError):
            decimal_render(Fraction(1, 3), 5, "nearest")

    @given(
        st.integers(min_value=-(10**12), max_value=10**12),
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=30),
    )
    def test_bracketing_property(self, num, den, digits):
        q = Fraction(num, den)
        down = Fraction(decimal_render(q, digits, "down"))
        up = Fraction(decimal_render(q, digits, "up"))
        assert down <= q <= up
        assert up - down <= Fraction(1, 10**digits)
        if 10**digits * q.numerator % q.denominator != 0:
            assert down < q < up


class TestExactRationals:
    @given(
        st.integers(-(10**40), 10**40),
        st.integers(1, 10**40),
        st.integers(-(10**40), 10**40),
        st.integers(1, 10**40),
    )
    def test_add_then_subtract_roundtrip(self, a, b, c, d):
        x, y = Fraction(a, b), Fraction(c, d)
        assert (x + y) - y == x
        assert x.denominator > 0
        from math import gcd

        assert gcd(abs(x.numerator), x.denominator) == 1


class TestPrimeSieve:
    def test_against_trial_division(self):
        inert = [n for n in range(101) if n % 4 == 3 and is_prime(n)]
        assert inert_primes_up_to(100) == inert

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=3000))
    def test_sieve_consistent(self, n):
        inert = [m for m in range(n + 1) if m % 4 == 3 and is_prime(m)]
        assert inert_primes_up_to(n) == inert

    def test_every_limit_to_2000_matches_is_prime(self):
        inert = [m for m in range(2001) if m % 4 == 3 and is_prime(m)]
        for n in range(2001):
            assert inert_primes_up_to(n) == [p for p in inert if p <= n], n

    def test_counts_at_1e6(self):
        assert len(inert_primes_up_to(10**6)) == 39322
