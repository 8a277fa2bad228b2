"""Lacunary binomial congruences, checked against exact big-integer binomials."""

import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gausspow import binomial_sums
from gausspow.arith import is_prime
from gausspow.binomial_sums import (
    MAX_LUCAS_DIGIT_TERMS,
    binom_mod_p,
    dilcher_sum,
    hermite_sum,
    signed_lacunary_sum,
)

ODD_PRIMES_TO_23 = [3, 5, 7, 11, 13, 17, 19, 23]


class TestLucas:
    def test_examples(self):
        assert comb(8, 2) == 28
        assert binom_mod_p(8, 2, 3) == 28 % 3 == 1
        assert binom_mod_p(17, 0, 5) == 1
        assert binom_mod_p(5, 7, 11) == 0

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            binom_mod_p(10, 2, 9)

    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=400),
        st.sampled_from([2, 3, 5, 7, 11, 13, 31, 47]),
    )
    def test_matches_exact_binomial(self, n, m, p):
        assert binom_mod_p(n, m, p) == comb(n, m) % p

    @pytest.mark.parametrize("p, spread", [(10007, 3 * 10007), (1000003, 3000)])
    def test_two_digits_at_large_p(self, p, spread):
        # n has two base-p digits; the exact binomial stays cheap because
        # one of m and n - m is below `spread`, and m = n - r spans both digits
        rng = random.Random(p)
        for _ in range(20):
            n = rng.randrange(p, p * p)
            r = rng.randrange(spread)
            for m in (r, n - r):
                assert binom_mod_p(n, m, p) == comb(n, r) % p, (n, m)

    @pytest.mark.parametrize("p", [10**9 + 7, 2**61 - 1])
    def test_one_digit_at_huge_p(self, p):
        rng = random.Random(p)
        for _ in range(30):
            n = rng.randrange(10**4)
            m = rng.randrange(10**4)
            assert binom_mod_p(n, m, p) == comb(n, m) % p, (n, m)

    def test_digit_cap(self):
        # a digit C(a, b) with min(b, a - b) at the cap is evaluated; one term
        # more is refused at once, also far above the cap at a huge prime
        cap, p = MAX_LUCAS_DIGIT_TERMS, 10**9 + 7
        assert binom_mod_p(2 * cap, cap, p) == comb(2 * cap, cap) % p
        for n, m in [
            (2 * cap + 2, cap + 1),
            (2 * cap + 2 + p, cap + 1 + p),  # the low digit of two
            (p - 1, p // 2),
        ]:
            with pytest.raises(ValueError, match="terms"):
                binom_mod_p(n, m, p)


def hermite_oracle(k, p):
    return sum(comb(k, j) for j in range(p - 1, k, p - 1)) % p


def dilcher_oracle(k, p):
    return sum((-1) ** j * comb(k * (p - 1), j * (p - 1)) for j in range(k + 1)) % p


def lacunary_oracle(n, p):
    total = sum(
        (-1) ** (j * (p - 1) // 2) * comb(n, j * (p - 1))
        for j in range(1, n // (p - 1))
    )
    return total % p


class TestHermite:
    def test_hand_example(self):
        assert comb(5, 2) + comb(5, 4) == 15
        assert hermite_sum(5, 3) == 0

    def test_empty_sum_below_p(self):
        for p in (5, 7, 13):
            for k in range(1, p):
                assert hermite_sum(k, p) == 0

    def test_large_k(self):
        assert hermite_sum(100, 7) == 0

    def test_vanishes_on_full_range(self):
        for p in filter(is_prime, range(50)):
            for k in range(1, 301):
                assert hermite_sum(k, p) == 0, (k, p)

    def test_matches_exact_oracle(self):
        # 43 is past `is_prime`'s trial divisors 2..37
        for p in (3, 5, 7, 43):
            for k in range(1, 60):
                assert hermite_sum(k, p) == hermite_oracle(k, p)


class TestDilcher:
    def test_hand_examples(self):
        # k=2, p=3: 1 - C(4,2) + 1 = -4
        assert dilcher_sum(2, 3) == (-4) % 3 == 2
        # k=4, p=3: 1 - 28 + 70 - 28 + 1 = 16; p+1 = 4 | 4
        assert 1 - comb(8, 2) + comb(8, 4) - comb(8, 6) + 1 == 16
        assert dilcher_sum(4, 3) == 16 % 3 == 1
        assert dilcher_sum(3, 5) == 0

    def test_rejects_p_two(self):
        with pytest.raises(ValueError):
            dilcher_sum(4, 2)

    def test_case_table_full_range(self):
        for p in ODD_PRIMES_TO_23:
            for k in range(1, 61):
                got = dilcher_sum(k, p)
                if k % 2 == 1:
                    assert got == 0, (k, p)
                elif k % (p + 1) == 0:
                    assert got == 1 % p, (k, p)
                else:
                    assert got == 2 % p, (k, p)

    def test_matches_exact_oracle(self):
        # 43 is past `is_prime`'s trial divisors 2..37, and from 41^2 = 1681 on
        # `is_prime` runs Miller-Rabin; the exact binomials grow with k p there
        for p, k_max in [(3, 24), (5, 24), (7, 24), (43, 24), (1693, 12)]:
            for k in range(1, k_max + 1):
                assert dilcher_sum(k, p) == dilcher_oracle(k, p)


class TestSignedLacunary:
    def test_hand_examples(self):
        # n=8, p=3: -C(8,2) + C(8,4) - C(8,6) = -28 + 70 - 28 = 14
        assert -comb(8, 2) + comb(8, 4) - comb(8, 6) == 14
        assert signed_lacunary_sum(8, 3) == 14 % 3 == 2  # i.e. -1 mod 3
        # n=4, p=3: -C(4,2) = -6
        assert signed_lacunary_sum(4, 3) == 0
        # p = 1 mod 4: never alternates, always 0
        for n in range(4, 21, 4):
            assert signed_lacunary_sum(n, 5) == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            signed_lacunary_sum(7, 3)  # 2 does not divide 7
        with pytest.raises(ValueError):
            signed_lacunary_sum(8, 2)

    def test_case_table_full_range(self):
        for p in ODD_PRIMES_TO_23:
            for mult in range(1, 61):
                n = mult * (p - 1)
                got = signed_lacunary_sum(n, p)
                if p % 4 == 3 and mult % (p + 1) == 0:
                    assert got == p - 1, (n, p)
                else:
                    assert got == 0, (n, p)

    def test_matches_exact_oracle(self):
        # both signs: 5 and 13 are 1 (mod 4), 3, 7 and 11 are 3 (mod 4)
        for p in (3, 5, 7, 11, 13):
            for mult in range(1, 20):
                n = mult * (p - 1)
                assert signed_lacunary_sum(n, p) == lacunary_oracle(n, p)

    def test_consistency_with_dilcher(self):
        # For p = 3 (mod 4) the signed sum is the alternating sum minus the
        # j = 0 and j = k boundary terms.
        for p in (3, 7, 11, 19, 23):
            for mult in range(1, 40):
                n = mult * (p - 1)
                expected = (dilcher_sum(mult, p) - 1 - (-1) ** mult) % p
                assert signed_lacunary_sum(n, p) == expected, (n, p)


@pytest.mark.parametrize(
    "fn, args",
    [
        (hermite_sum, (10**5, 1009)),
        (dilcher_sum, (300, 43)),
        (signed_lacunary_sum, (420, 43)),
    ],
)
def test_prime_checked_once_per_call(monkeypatch, fn, args):
    calls = []

    def counting_is_prime(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(binomial_sums, "is_prime", counting_is_prime)
    fn(*args)
    assert calls == [args[1]]


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (hermite_sum, (0, 3), "k must be >= 1"),
        (hermite_sum, (2, 4), "4 is not prime"),
        (dilcher_sum, (0, 3), "k must be >= 1"),
    ],
)
def test_rejects_bad_inputs(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)
