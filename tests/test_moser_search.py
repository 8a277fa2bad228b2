"""Equation search: exactness, incremental bookkeeping, prefilter soundness,
and each residue filter of the sieve against the exact sum it reduces."""

import random

import pytest

from gausspow.gaussian import GaussianInt, _pow_exact, sigma_exact
from gausspow.moser_search import (
    SIEVE_PRIMES,
    Solution,
    _sieve_residues,
    norm_prefilter,
    search_solutions,
)


def exact_square_sums(k, m_max):
    """(m, sigma_exact(k, m-1)) for 2 <= m < m_max, growing the square
    incrementally: enlarging the side from t-1 to t adds the new row b = t
    and column a = t."""
    sre = sim = 0
    for t in range(1, m_max - 1):
        for a in range(1, t + 1):
            re, im = _pow_exact(a, t, k)
            sre += re
            sim += im
        for b in range(1, t):
            re, im = _pow_exact(t, b, k)
            sre += re
            sim += im
        yield t + 1, GaussianInt(sre, sim)


def oracle_search(k_max, m_max):
    """The search with no sieve: every pair is compared exactly."""
    return [
        Solution(k, m, lhs)
        for k in range(1, k_max)
        for m, lhs in exact_square_sums(k, m_max)
        if lhs == GaussianInt(m, m) ** k
    ]


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


class TestSieve:
    def test_each_filter_reduces_the_exact_sum(self):
        # every filter must compare sigma_exact(k, m-1) reduced by its
        # modulus with (m + mi)^k, or it could reject a true solution
        for k in range(1, 40):
            for m, lhs in exact_square_sums(k, 40):
                moduli = []
                for n, residue in _sieve_residues(k, m):
                    moduli.append(n)
                    assert residue == (lhs.re % n, lhs.im % n), (k, m, n)
                assert moduli == [m - 1, m, *SIEVE_PRIMES]

    def test_oracle_matches_direct_sums(self):
        for k in (1, 2, 7):
            for m, lhs in exact_square_sums(k, 12):
                assert lhs == sigma_exact(k, m - 1), (k, m)

    @pytest.mark.slow
    def test_matches_exact_oracle_on_150_box(self):
        assert search_solutions(150, 150) == oracle_search(150, 150)
