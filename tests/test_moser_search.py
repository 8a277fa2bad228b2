"""Equation search: exactness, incremental bookkeeping, prefilter soundness."""

import random

import pytest

from gausspow.gaussian import GaussianInt, sigma_exact
from gausspow.moser_search import norm_prefilter, search_solutions


class TestPrefilter:
    def test_known_solution_passes(self):
        assert norm_prefilter(2, 3) is True

    def test_magnitude_mismatch_rejected(self):
        assert norm_prefilter(2, 50) is False

    def test_guards(self):
        with pytest.raises(ValueError):
            norm_prefilter(0, 3)
        with pytest.raises(ValueError):
            norm_prefilter(2, 1)

    def test_soundness_near_equality(self):
        # any exact solution must pass: check over a small box
        for k in range(1, 12):
            for m in range(2, 12):
                lhs = sigma_exact(k, m - 1)
                rhs = GaussianInt(m, m) ** k
                if lhs == rhs:
                    assert norm_prefilter(k, m), (k, m)


class TestSearch:
    def test_small_box_finds_the_known_pair(self):
        sols = search_solutions(40, 40)
        assert [(s.k, s.m) for s in sols] == [(2, 3)]
        # recompute both sides non-incrementally at the reported solution
        assert sigma_exact(2, 2) == GaussianInt(0, 18)
        assert GaussianInt(3, 3) ** 2 == GaussianInt(0, 18)
        assert sols[0].value == GaussianInt(0, 18)

    def test_non_solutions_verified_independently(self):
        rng = random.Random(20260810)
        pairs = {(rng.randrange(1, 40), rng.randrange(2, 40)) for _ in range(50)}
        pairs.discard((2, 3))
        for k, m in pairs:
            assert sigma_exact(k, m - 1) != GaussianInt(m, m) ** k, (k, m)

    def test_incremental_bookkeeping_matches_definition(self):
        # run the search and reconstruct every visited square sum directly
        sols = search_solutions(21, 21)
        assert [(s.k, s.m) for s in sols] == [(2, 3)]
        for k in range(1, 21):
            for m in range(2, 21):
                lhs = sigma_exact(k, m - 1)
                rhs = GaussianInt(m, m) ** k
                assert (lhs == rhs) == ((k, m) == (2, 3)), (k, m)

    def test_row_one_has_no_solutions(self):
        # for k = 1 the square sum is (m-1)^2 m / 2 * (1+i) against m(1+i),
        # forcing (m-1)^2 = 2, impossible in integers
        for m in range(2, 60):
            t = m - 1
            assert sigma_exact(1, t) == GaussianInt(
                t * t * m // 2, t * t * m // 2
            )
        assert all(s.k != 1 for s in search_solutions(2, 120))

    def test_guards(self):
        with pytest.raises(ValueError):
            search_solutions(501, 10)
        with pytest.raises(ValueError):
            search_solutions(10, 0)
