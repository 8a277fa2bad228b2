"""Closed-form sigma evaluation: witness set, case split, oracle agreement."""

from math import isqrt

import pytest

from gausspow.arith import MAX_FACTOR_INPUT, factorize
from gausspow.closed_form import (
    MAX_ROW_K,
    closed_period,
    is_half_epsilon_case,
    row_witness_primes,
    sigma_closed,
    sigma_expansion,
    witness_primes,
)
from gausspow.gaussian import GaussianResidue, sigma_brute, sigma_brute_rows


class TestWitnessPrimes:
    def test_examples(self):
        assert witness_primes(8, 6) == (3,)
        assert witness_primes(8, 9) == ()  # 3^2 | 9 blocks the witness
        for n in (2, 3, 6, 12, 30, 100):
            assert witness_primes(2, n) == ()  # p^2 - 1 >= 8 > 2

    def test_all_conditions_needed(self):
        assert witness_primes(8, 12) == (3,)
        assert witness_primes(4, 12) == ()  # 8 does not divide 4
        assert witness_primes(48, 21) == (3, 7)
        assert witness_primes(48, 147) == (3,)  # 7^2 | 147

    def test_k_mod_8_guard_matches_the_full_predicate(self):
        for k in range(1, 201):
            for n in range(1, 201):
                unguarded = tuple(
                    p
                    for p, e in factorize(n)
                    if e == 1 and p % 4 == 3 and k % (p * p - 1) == 0
                )
                assert witness_primes(k, n) == unguarded, (k, n)

    def test_n_range_does_not_depend_on_k(self):
        for k in (1, 8):
            with pytest.raises(ValueError):
                witness_primes(k, MAX_FACTOR_INPUT + 1)
            with pytest.raises(ValueError):
                witness_primes(k, 0)

    def test_row_witnesses_are_the_column_witnesses_of_p(self):
        # p witnesses in row k exactly when it witnesses the cell (k, p)
        for k in range(1, 3001):
            direct = tuple(
                p for p in range(3, isqrt(k + 1) + 1) if witness_primes(k, p) == (p,)
            )
            assert row_witness_primes(k) == direct, k
        assert row_witness_primes(2880) == (3, 7, 11, 19, 31)

    def test_row_witness_guards(self):
        assert row_witness_primes(MAX_ROW_K) == (3,)
        for k in (0, MAX_ROW_K + 1):
            with pytest.raises(ValueError):
                row_witness_primes(k)


class TestClosedValues:
    def test_epsilon_entries(self):
        assert sigma_closed(3, 6) == GaussianResidue(3, 3, 6)
        assert sigma_closed(3, 2) == GaussianResidue(1, 1, 2)

    def test_real_entries(self):
        # -576/9 = -64 = 8 mod 24
        assert sigma_closed(8, 24) == GaussianResidue(8, 0, 24)
        # -144/9 = -16 = 8 mod 12
        assert sigma_closed(8, 12) == GaussianResidue(8, 0, 12)
        assert sigma_brute(8, 12) == GaussianResidue(8, 0, 12)
        # -225/9 = -25 = 5 mod 15
        assert sigma_closed(8, 15) == GaussianResidue(5, 0, 15)
        assert sigma_brute(8, 15) == GaussianResidue(5, 0, 15)

    def test_guards(self):
        with pytest.raises(ValueError):
            sigma_closed(0, 5)
        with pytest.raises(ValueError):
            sigma_expansion(3, 0)


class TestExpansionRoute:
    def test_table_values(self):
        assert sigma_expansion(3, 2) == GaussianResidue(1, 1, 2)
        for n in range(1, 25):
            assert sigma_expansion(2, n).is_zero()
        assert sigma_expansion(8, 3) == GaussianResidue(2, 0, 3)


class TestCaseFunctions:
    def test_imag_examples(self):
        assert sigma_closed(5, 10).im == 5
        assert sigma_closed(4, 10).im == 0
        assert sigma_closed(7, 8).im == 0

    def test_real_examples(self):
        assert sigma_closed(9, 14).re == 7
        assert sigma_closed(1, 17).re == 0
        # 21 = 3*7: p=3 qualifies for k=16 (8 | 16), p=7 does not (48 | 16 fails)
        assert sigma_closed(16, 21).re == 14

    def test_case_predicate(self):
        assert is_half_epsilon_case(3, 6)
        assert not is_half_epsilon_case(1, 6)
        assert not is_half_epsilon_case(3, 12)
        assert not is_half_epsilon_case(4, 6)


GRID = 40


class TestOracleStack:
    def test_triple_agreement_full_grid(self):
        for n in range(1, GRID + 1):
            brute = sigma_brute_rows(n, GRID)
            for k in range(1, GRID + 1):
                closed = sigma_closed(k, n)
                expanded = sigma_expansion(k, n)
                assert closed == brute[k - 1], (k, n)
                assert expanded == brute[k - 1], (k, n)

    def test_imag_structure(self):
        # Im is 0 or n/2, and n/2 exactly in the half-epsilon case; whenever
        # Im is nonzero, Re equals it.
        for n in range(1, GRID + 1):
            brute = sigma_brute_rows(n, GRID)
            for k in range(1, GRID + 1):
                r = brute[k - 1]
                assert r.im in (0, n // 2 if n % 2 == 0 else 0), (k, n)
                if is_half_epsilon_case(k, n):
                    assert n % 2 == 0 and r.im == n // 2, (k, n)
                else:
                    assert r.im == 0, (k, n)
                if r.im != 0:
                    assert r.re == r.im == n // 2, (k, n)

    def test_rows_one_and_two_vanish(self):
        for n in range(1, 25):
            assert sigma_closed(1, n).is_zero()
            assert sigma_closed(2, n).is_zero()

    def test_periodicity_in_k(self):
        # witness sets depend on k only through p^2-1 | k, so L = lcm(p^2-1)
        # over inert p | n is a period once parity is fixed; k = 1 stays out
        # because the nonreal case needs k > 1
        for n in range(1, GRID + 1):
            L = closed_period(n)
            shift = L if L % 2 == 0 else 2 * L
            for k in range(2, 14):
                assert sigma_closed(k, n) == sigma_closed(k + shift, n), (k, n)

    def test_brute_spot_checks_against_closed(self):
        # independent re-evaluation at scattered larger cells
        for k, n in [(24, 33), (48, 35), (16, 22), (120, 12), (8, 39)]:
            assert sigma_closed(k, n) == sigma_brute(k, n)
