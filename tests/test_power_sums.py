"""Classical power sums mod n: naive summation vs von Staudt's sum."""

import pytest

from gausspow.arith import factorize
from gausspow.power_sums import s_mod_closed, s_mod_closed_row, s_mod_naive


class TestNaive:
    def test_hand_summable(self):
        # 1 + 4 + 9 + 16 + 25 + 36 = 91
        assert s_mod_naive(2, 6) == 91 % 6 == 1

    def test_mod_one(self):
        for k in (0, 1, 7, 30):
            assert s_mod_naive(k, 1) == 0

    def test_zeroth_power(self):
        # S_0(n) = n, so 0 mod n
        assert s_mod_naive(0, 5) == 0


class TestClosed:
    def test_examples(self):
        assert s_mod_closed(2, 6) == 1
        # naive: sum i^4 for i<=10 is 25333
        assert sum(i**4 for i in range(1, 11)) == 25333
        assert s_mod_closed(4, 10) == 25333 % 10 == 3
        # multiple of 4 with odd k > 1: 1 + 8 + 27 + 64 = 100
        assert s_mod_closed(3, 4) == 100 % 4 == 0

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            s_mod_closed(0, 5)

    def test_matches_naive_on_grid(self):
        for n in range(1, 201):
            for k in range(1, 41):
                assert s_mod_closed(k, n) == s_mod_naive(k, n), (k, n)

    def test_matches_naive_on_small_prime_powers(self):
        # the 2-part of von Staudt's sum drops out only when 4 | n and k > 1
        # is odd; each p^e here has one prime, so one term decides the sum
        for p in (2, 3, 5, 7):
            n = p
            while n <= 4096:
                for k in range(1, 49):
                    assert s_mod_closed(k, n) == s_mod_naive(k, n), (k, n)
                n *= p


def prime_powers_to_4096():
    return [p**e for p in (2, 3, 5, 7) for e in range(1, 13) if p**e <= 4096]


class TestClosedRow:
    """`s_mod_closed_row`, the power sums of the expansion route, against the
    literal sums and the scalar von Staudt sum."""

    def test_examples(self):
        for n in (1, 4, 5):
            assert s_mod_closed_row(0, n) == [0]
        # S_1(4) = 10 and S_3(4) = 100: 2 drops out at odd m > 1 when 4 | n
        assert s_mod_closed_row(4, 4) == [0, 2, 2, 0, 2]
        # 2 || 6: the 2-part enters at every m >= 1
        assert s_mod_closed_row(3, 6) == [0, 3, 1, 3]

    def test_matches_naive_on_grid(self):
        for n in range(1, 301):
            assert s_mod_closed_row(60, n) == [s_mod_naive(m, n) for m in range(61)], n

    def test_matches_naive_on_small_prime_powers(self):
        for n in prime_powers_to_4096():
            assert s_mod_closed_row(48, n) == [s_mod_naive(m, n) for m in range(49)], n

    def test_matches_scalar(self):
        for n in [*range(1, 201), *prime_powers_to_4096(), 2**62, 2 * (2**61 - 1)]:
            row = s_mod_closed_row(100, n)
            assert row[1:] == [s_mod_closed(m, n) for m in range(1, 101)], n

    def test_guards(self):
        for k_max, n in ((-1, 5), (3, 0)):
            with pytest.raises(ValueError):
                s_mod_closed_row(k_max, n)


class TestCarlitzParity:
    # For odd k > 2, S_k(n) = r n/2 with r odd exactly when n = 2 (mod 4)
    def test_examples(self):
        assert s_mod_naive(3, 6) == 3
        assert s_mod_naive(3, 8) == 0
        # S_5(10) = r * 5 with r odd
        r = 2 * s_mod_naive(5, 10) // 10  # residue n/2 <-> r odd
        assert s_mod_naive(5, 10) == 5 and r == 1

    def test_half_multiple_structure_on_grid(self):
        # For odd k > 2 the sum is r*n/2: residue is 0, or n/2 when n = 2 mod 4
        for k in range(3, 41, 2):
            for n in range(1, 201):
                res = s_mod_naive(k, n)
                assert res == (n // 2 if n % 4 == 2 else 0), (k, n)


def vanishing_criterion(k, n):
    """n | S_k(n): n odd with p - 1 never dividing k, or 4 | n with odd k > 1."""
    if n % 2 == 1:
        return all(k % (p - 1) != 0 for p, _ in factorize(n))
    return n % 4 == 0 and k > 1 and k % 2 == 1


class TestDividesS:
    def test_examples(self):
        # n = 5 odd, p - 1 = 4 does not divide 2
        assert vanishing_criterion(2, 5) and s_mod_closed(2, 5) == 0
        assert sum(i**2 for i in range(1, 6)) == 55 and 55 % 5 == 0
        # p - 1 = 4 divides 4: fails
        assert not vanishing_criterion(4, 5) and s_mod_closed(4, 5) == 4
        assert sum(i**4 for i in range(1, 6)) == 979 and 979 % 5 == 4
        # multiple of 4, odd k > 1
        assert vanishing_criterion(3, 4) and s_mod_closed(3, 4) == 0

    def test_characterizes_vanishing_on_grid(self):
        for k in range(1, 41):
            for n in range(1, 201):
                assert vanishing_criterion(k, n) == (s_mod_naive(k, n) == 0), (k, n)


@pytest.mark.parametrize(
    "fn, k, n, message",
    [
        (s_mod_naive, 1, 0, "n must be >= 1"),
        (s_mod_naive, -1, 5, "k must be >= 0"),
        (s_mod_closed, 1, 0, "n must be >= 1"),
    ],
)
def test_rejects_bad_inputs(fn, k, n, message):
    with pytest.raises(ValueError, match=message):
        fn(k, n)
