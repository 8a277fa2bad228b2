"""Gaussian residue/exact arithmetic and the brute-force sum oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspow.gaussian import (
    GaussianInt,
    GaussianResidue,
    sigma_brute,
    sigma_brute_rows,
    sigma_brute_sweep,
    sigma_exact,
)


class TestResidueRing:
    def test_mul_examples(self):
        one_i = GaussianResidue(1, 1, 5)
        assert one_i * one_i == GaussianResidue(0, 2, 5)
        x = GaussianResidue(3, 4, 7)
        assert x * GaussianResidue(1, 0, 7) == x
        # (2+3i)(4+i) = 8 - 3 + (2 + 12)i = 5 + 14i
        got = GaussianResidue(2, 3, 7) * GaussianResidue(4, 1, 7)
        assert got == GaussianResidue(5, 0, 7)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            GaussianResidue(1, 1, 5) * GaussianResidue(1, 1, 7)

    def test_pow_examples(self):
        assert GaussianResidue(1, 1, 4) ** 2 == GaussianResidue(0, 2, 4)
        x = GaussianResidue(2, 3, 11)
        assert x**1 == x
        assert x**0 == GaussianResidue(1, 0, 11)
        y = GaussianResidue(1, 2, 13)
        by_loop = GaussianResidue(1, 0, 13)
        for _ in range(8):
            by_loop *= y
        assert y**8 == by_loop

    def test_canonical_range(self):
        r = GaussianResidue(-1, 13, 5)
        assert (r.re, r.im) == (4, 3)

    @given(
        st.integers(0, 50),
        st.integers(0, 50),
        st.integers(0, 64),
        st.integers(2, 60),
    )
    def test_pow_matches_repeated_mul(self, a, b, k, n):
        x = GaussianResidue(a, b, n)
        expected = GaussianResidue(1, 0, n)
        for _ in range(k):
            expected *= x
        assert x**k == expected


class TestExactRing:
    def test_pow_example(self):
        assert GaussianInt(1, 2) ** 8 == _naive_pow(GaussianInt(1, 2), 8)

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
           st.integers(-30, 30))
    def test_ring_identities(self, a, b, c, d):
        x, y = GaussianInt(a, b), GaussianInt(c, d)
        assert (x + y) - y == x
        assert (x * y).norm() == x.norm() * y.norm()

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 20))
    def test_pow_matches_naive(self, a, b, k):
        x = GaussianInt(a, b)
        assert x**k == _naive_pow(x, k)

    def test_reduce(self):
        assert GaussianInt(-1, 13).reduce(5) == GaussianResidue(4, 3, 5)


def _naive_pow(x: GaussianInt, k: int) -> GaussianInt:
    out = GaussianInt(1, 0)
    for _ in range(k):
        out = out * x
    return out


class TestBruteSigma:
    def test_table_values(self):
        assert sigma_brute(3, 2) == GaussianResidue(1, 1, 2)
        for n in (1, 2, 3, 7, 12):
            assert sigma_brute(1, n).is_zero()
        assert sigma_brute(8, 3) == GaussianResidue(2, 0, 3)

    def test_rows_match_single_calls(self):
        for n in range(1, 13):
            rows = sigma_brute_rows(n, 12)
            for k in range(1, 13):
                assert rows[k - 1] == sigma_brute(k, n), (k, n)

    def test_zero_based_square_gives_same_residue(self):
        # summing over 0 <= a, b < n is a complete-residue shift of 1..n
        for n, rows in enumerate(sigma_brute_sweep(30, 30), start=1):
            for k in range(1, 31):
                sre = sim = 0
                for a in range(n):
                    for b in range(n):
                        r = GaussianResidue(a, b, n) ** k
                        sre += r.re
                        sim += r.im
                assert GaussianResidue(sre, sim, n) == rows[k - 1], (k, n)


class TestBruteSweep:
    # A wrong corner (n, n) of the border cannot show mod n at its own n, since
    # (n + ni)^k = 0 (mod n); it shows only at later moduli, so each check
    # below spans many n.
    def test_matches_single_cells(self):
        rows = sigma_brute_sweep(30, 30)
        assert len(rows) == 30
        for n, row in enumerate(rows, start=1):
            assert len(row) == 30
            for k in range(1, 31):
                assert row[k - 1] == sigma_brute(k, n), (k, n)

    def test_single_modulus(self):
        assert sigma_brute_sweep(1, 5) == [[GaussianResidue(0, 0, 1)] * 5]

    def test_single_power(self):
        rows = sigma_brute_sweep(60, 1)
        assert rows == [[sigma_brute(1, n)] for n in range(1, 61)]

    @pytest.mark.parametrize("n_max, k_max", [(0, 1), (1, 0), (-3, 4), (4, -3)])
    def test_rejects_empty_box(self, n_max, k_max):
        with pytest.raises(ValueError):
            sigma_brute_sweep(n_max, k_max)


class TestExactSigma:
    def test_examples(self):
        assert sigma_exact(2, 2) == GaussianInt(0, 18)
        # (1+i) + (1+2i) + (2+i) + (2+2i)
        assert sigma_exact(1, 2) == GaussianInt(6, 6)
        assert sigma_exact(3, 3).reduce(3) == sigma_brute(3, 3)
        assert sigma_brute(3, 3).is_zero()

    def test_reduction_matches_brute_on_grid(self):
        for n, brute_rows in enumerate(sigma_brute_sweep(40, 40), start=1):
            for k in range(1, 41):
                assert sigma_exact(k, n).reduce(n) == brute_rows[k - 1], (k, n)

    def test_rows_match_single_calls(self):
        # each cell of a row of exact sums is the sum of single ** calls
        for m in range(0, 8):
            for k in range(1, 11):
                total = GaussianInt()
                for a in range(1, m + 1):
                    for b in range(1, m + 1):
                        total += GaussianInt(a, b) ** k
                assert sigma_exact(k, m) == total, (k, m)


@settings(deadline=None)
@given(st.integers(1, 25), st.integers(1, 25))
def test_exact_reduces_to_brute(k, n):
    assert sigma_exact(k, n).reduce(n) == sigma_brute(k, n)
