"""Set-level membership predicates vs the evaluation routes."""

import random

import pytest

from gausspow.arith import MAX_FACTOR_INPUT, inert_primes_up_to, is_prime
from gausspow.closed_form import sigma_closed, sigma_closed_row
from gausspow.congruence_sets import diagonal_witness, divides_sigma
from gausspow.density import sieve_complement_count
from gausspow.gaussian import sigma_brute_sweep


def candidate_witness(n):
    """The diagonal witness without factoring n: the smallest p = 3, 7, 11, ...
    with p^3 - p | n, p^2 not dividing n and p prime.  p^3 - p | n bounds the
    candidates by p^3 - p <= n."""
    p = 3
    while p * p * p - p <= n:
        if n % (p * p * p - p) == 0 and n % (p * p) != 0 and is_prime(p):
            return p
        p += 4
    return None


class TestDividesSigma:
    def test_examples(self):
        assert divides_sigma(8, 12) is False
        assert sigma_closed(8, 12).re == 8
        assert divides_sigma(8, 9) is True  # 3^2 | 9 blocks the witness
        assert divides_sigma(5, 10) is False  # 5-epsilon entry

    def test_matches_brute_on_grid(self):
        for n, brute in enumerate(sigma_brute_sweep(40, 40), start=1):
            for k in range(1, 41):
                assert divides_sigma(k, n) == brute[k - 1].is_zero(), (k, n)


class TestComplementDescriptions:
    """The complement of row k is {n : not divides_sigma(k, n)}."""

    def test_row_examples(self):
        assert divides_sigma(3, 6) is False  # 6 = 2 mod 4, odd k
        assert divides_sigma(8, 6) is False  # 6 = 3 * 2 with 9 absent
        assert divides_sigma(8, 9) is True  # multiple of 9

    def test_row_rejects_n_zero(self):
        with pytest.raises(ValueError, match=str(MAX_FACTOR_INPUT)):
            divides_sigma(8, 0)

    def test_column_examples(self):
        assert not divides_sigma(3, 6)  # odd k > 1, n = 2 mod 4
        assert not divides_sigma(8, 3)  # 8 = 3^2 - 1
        assert divides_sigma(8, 9)

    def test_three_descriptions_agree(self):
        # the closed row is read from R(k) with no factoring, the cell from
        # the factored witness set W(k, n)
        for k in range(1, 201):
            row = sigma_closed_row(k, 200)
            for n in range(1, 201):
                zero = divides_sigma(k, n)
                assert sigma_closed(k, n).is_zero() == zero, (k, n)
                assert row[n - 1].is_zero() == zero, (k, n)

    @pytest.mark.parametrize("k, n", [(3, -2), (3, 2**63 + 2), (8, 2**63 + 2)])
    def test_n_range_does_not_depend_on_k(self, k, n):
        # n = -2 and 2^63 + 2 are 2 mod 4: an odd k > 1 needs no witness set
        with pytest.raises(ValueError, match=str(MAX_FACTOR_INPUT)):
            divides_sigma(k, n)


def column_zero_exponents(n, k_limit=10**4):
    """Exponents k <= k_limit with sigma_k(n) = 0 (mod n), per `divides_sigma`."""
    return {k for k in range(1, k_limit + 1) if divides_sigma(k, n)}


EIGHT_MULTIPLES = set(range(8, 10**4 + 1, 8))


class TestEightMultipleExclusion:
    # For 3 || n no multiple of 8 is a zero exponent of column n; unless
    # n = 2 (mod 4), which also excludes the odd k > 1, every other k is one
    def test_examples(self):
        for n in (3, 12):
            zeros = column_zero_exponents(n)
            assert zeros == set(range(1, 10**4 + 1)) - EIGHT_MULTIPLES, n
        zeros = column_zero_exponents(6)
        assert not zeros & EIGHT_MULTIPLES
        assert zeros == {k for k in range(1, 10**4 + 1) if k % 8 and k % 2 == 0} | {1}

    def test_extra_inert_factor_keeps_equality(self):
        # 21 = 3*7 also excludes multiples of 48, already multiples of 8
        zeros = column_zero_exponents(21)
        assert zeros == set(range(1, 10**4 + 1)) - EIGHT_MULTIPLES

    def test_preconditions(self):
        # without 3 || n the multiples of 8 can be zeros: 5 has no inert
        # factor, and 9 | 18 blocks the witness 3
        assert EIGHT_MULTIPLES <= column_zero_exponents(5)
        assert 8 in column_zero_exponents(18)


class TestDiagonalWitness:
    def test_examples(self):
        assert diagonal_witness(24) == 3
        assert sigma_closed(24, 24).re == 8  # diagonal entry is nonzero
        assert diagonal_witness(72) is None  # 9 | 72 kills p = 3
        assert diagonal_witness(1) is None

    def test_witness_invariants(self):
        for n in (24, 48, 120, 336, 2184):
            p = diagonal_witness(n)
            assert p is not None
            assert p % 4 == 3
            assert n % (p**3 - p) == 0
            assert n % (p * p) != 0

    def test_none_iff_diagonal_zero_small(self):
        for n in range(1, 2001):
            zero = sigma_closed(n, n).is_zero()
            assert (diagonal_witness(n) is None) == zero, n


class TestCandidateWitnessOracle:
    """`diagonal_witness` factors n; the oracle tries every candidate p."""

    def test_every_n_up_to_2e5(self):
        for n in range(1, 2 * 10**5 + 1):
            assert diagonal_witness(n) == candidate_witness(n), n

    def test_seeded_multiples_of_24(self):
        rng = random.Random(20261018)
        for _ in range(1000):
            n = 24 * rng.randrange(1, 10**12 // 24)
            assert diagonal_witness(n) == candidate_witness(n), n

    def test_witness_progressions(self):
        # c (p^3 - p) has a witness no larger than p unless p | c; p^2 | n
        # removes p itself, and the smaller witnesses decide
        rng = random.Random(8)
        for p in inert_primes_up_to(1000):
            u = p**3 - p
            for c in (1, *rng.sample(range(2, 1000), 5)):
                n = c * u
                assert diagonal_witness(n) == candidate_witness(n), n
                if c % p:
                    assert diagonal_witness(n) <= p, n
                n *= p
                assert diagonal_witness(n) == candidate_witness(n), n
                assert diagonal_witness(n) != p, n


class TestStructure24:
    def test_examples(self):
        assert diagonal_witness(24) == 3 and 24 % 24 == 0
        assert diagonal_witness(25) is None  # vacuous

    def test_smallest_witnessed_is_24(self):
        limit = 10**4
        witnessed = {n: p for n in range(1, limit + 1) if (p := diagonal_witness(n))}
        assert min(witnessed) == 24
        assert all(n % 24 == 0 for n in witnessed)
        # the per-n witness agrees with the progression sieve: each witnessed n
        # lies in its witness's U_p, and the sieve counts as many n in the union
        fam = [p for p in inert_primes_up_to(limit) if p**3 - p <= limit]
        for n, p in witnessed.items():
            assert p in fam and n % (p**3 - p) == 0 and n % (p * p), n
        assert sieve_complement_count(limit, fam) == len(witnessed)

    @pytest.mark.parametrize("limit", [23, 24, 71, 72, 167, 168, 10**4])
    def test_sieve_counts_the_witnessed(self, limit):
        # U_3 starts at 24, and 72 = 8 * 9 is the first multiple of 24 it skips
        fam = [p for p in inert_primes_up_to(limit) if p**3 - p <= limit]
        witnessed = sum(1 for n in range(1, limit + 1) if diagonal_witness(n))
        assert sieve_complement_count(limit, fam) == witnessed

    def test_forces_24_up_to_1e5(self):
        for n in range(1, 10**5 + 1):
            assert diagonal_witness(n) is None or n % 24 == 0, n
