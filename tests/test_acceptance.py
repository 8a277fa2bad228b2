"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear.  The
`slow` marker is on criterion 7, the exact tail sum to 1299689 (about 5-6 s on
a 2-core x86 host), and on criteria 5, 6, 8 and 10, which take milliseconds
now: the 30-prime bracket fixture they share, the 1e8 sieve on the lattice
n = 24 j, and the k, m < 100 search box.  `-m "not slow"` deselects them.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from gausspow.arith import decimal_render, inert_primes_up_to, sieve_inert_primes
from gausspow.binomial_sums import dilcher_sum, hermite_sum, signed_lacunary_sum
from gausspow.closed_form import sigma_closed, sigma_expansion
from gausspow.congruence_sets import diagonal_witness
from gausspow.density import (
    diagonal_bracket,
    digit_count,
    sieve_complement_count,
    tail_bound,
    zero_row_density,
)
from gausspow.gaussian import GaussianInt, sigma_brute_sweep, sigma_exact
from gausspow.moser_search import search_solutions


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label} ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"PASS {label} ({time.perf_counter() - start:.2f}s)")


# --- transcribed 24x24 reference table ------------------------------------
# Zero everywhere except: odd k > 1 put (n/2)(1+i) at n = 2 (mod 4), and the
# k = 8 row (repeating at 16 and 24) holds six real values.  The source
# transcription shifts two of those six one column left (8 at n=11 and 5 at
# n=14); the regenerated table places them at n=12 and n=15.

TRANSCRIBED_EIGHT_ROW = {3: 2, 6: 2, 11: 8, 14: 5, 21: 14, 24: 8}
CORRECTED_EIGHT_ROW = {3: 2, 6: 2, 12: 8, 15: 5, 21: 14, 24: 8}
AGREEING_COLUMNS = (3, 6, 21, 24)


def transcribed_cell(k, n):
    if k in (8, 16, 24):
        return (TRANSCRIBED_EIGHT_ROW.get(n, 0), 0)
    if k > 1 and k % 2 == 1 and n % 4 == 2:
        return (n // 2, n // 2)
    return (0, 0)


@pytest.fixture(scope="module")
def bracket30():
    """One shared 30-prime bracket, reused by criteria 5, 6 and 8."""
    return diagonal_bracket(30, 1299689)


def test_criterion_01_table_reproduction():
    with criterion("criterion 1: 24x24 table matches the source table"):
        start = time.perf_counter()
        grid = {
            (k, n): sigma_closed(k, n)
            for k in range(1, 25)
            for n in range(1, 25)
        }
        elapsed = time.perf_counter() - start
        for (k, n), cell in grid.items():
            if k in (8, 16, 24):
                expected = (CORRECTED_EIGHT_ROW.get(n, 0), 0)
                assert (cell.re, cell.im) == expected, (k, n)
                if n in AGREEING_COLUMNS:
                    assert (cell.re, cell.im) == transcribed_cell(k, n), (k, n)
            else:
                assert (cell.re, cell.im) == transcribed_cell(k, n), (k, n)
        for k in (8, 16, 24):
            support = [n for n in range(1, 25) if not grid[(k, n)].is_zero()]
            assert support == [3, 6, 12, 15, 21, 24]
            assert [grid[(k, n)].re for n in support] == [2, 2, 8, 5, 14, 8]
        assert elapsed < 1.0


def test_criterion_02_triple_oracle_sweep():
    with criterion("criterion 2: closed = expansion = brute on 1..40 x 1..40"):
        start = time.perf_counter()
        for n, brute in enumerate(sigma_brute_sweep(40, 40), start=1):
            for k in range(1, 41):
                closed = sigma_closed(k, n)
                expanded = sigma_expansion(k, n)
                assert closed == expanded == brute[k - 1], (k, n)
        assert time.perf_counter() - start < 30.0


def test_criterion_03_binomial_congruence_suites():
    with criterion("criterion 3: binomial-sum congruence suites"):
        start = time.perf_counter()
        primes = [p for p in range(2, 51) if all(p % d for d in range(2, p))]
        for p in primes:
            for k in range(1, 301):
                assert hermite_sum(k, p) == 0, (k, p)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for k in range(1, 61):
                got = dilcher_sum(k, p)
                if k % 2 == 1:
                    assert got == 0, (k, p)
                elif k % (p + 1) == 0:
                    assert got == 1, (k, p)
                else:
                    assert got == 2, (k, p)
            for mult in range(1, 61):
                n = mult * (p - 1)
                got = signed_lacunary_sum(n, p)
                if p % 4 == 3 and mult % (p + 1) == 0:
                    assert got == p - 1, (n, p)
                else:
                    assert got == 0, (n, p)
        assert time.perf_counter() - start < 10.0


def test_criterion_04_row_densities():
    with criterion("criterion 4: row zero densities 3/4 and 7/9"):
        start = time.perf_counter()
        assert zero_row_density(3) == Fraction(3, 4)
        assert zero_row_density(8) == Fraction(7, 9)
        # one-period exact count: the only witness prime for k = 8 is 3, so
        # the zero set mod 9 omits exactly the residues 3 and 6
        zeros = [n for n in range(1, 10) if sigma_closed(8, n).is_zero()]
        period_zeros = sum(
            1 for n in range(1, 10) if not (n % 3 == 0 and n % 9 != 0)
        )
        assert Fraction(period_zeros, 9) == Fraction(7, 9)
        assert zeros == [1, 2, 4, 5, 7, 8, 9]
        assert time.perf_counter() - start < 1.0


@pytest.mark.slow
def test_criterion_05_thirty_prime_union(bracket30):
    with criterion("criterion 5: 30-prime inclusion-exclusion digits"):
        ell = bracket30.union
        assert digit_count(ell.numerator) == 117
        assert digit_count(ell.denominator) == 119
        assert decimal_render(ell, 19, "down") == "0.0289992947691577872"
        num, den = str(ell.numerator), str(ell.denominator)
        assert num.startswith("52832172344") and num.endswith("086951451")
        assert den.startswith("1821843350513") and den.endswith("659697280")


@pytest.mark.slow
def test_criterion_06_density_bracket(bracket30):
    with criterion("criterion 6: diagonal density bracket"):
        reference_lower = Fraction(971000169, 10**9)
        reference_upper = Fraction(97100071, 10**8)
        assert bracket30.lower >= reference_lower
        assert bracket30.upper <= reference_upper
        start = time.perf_counter()
        fast = diagonal_bracket(20, 10**6)
        assert fast.lower <= reference_lower
        assert fast.upper >= reference_upper
        assert time.perf_counter() - start < 60.0


@pytest.mark.slow
def test_criterion_07_tail_bound():
    with criterion("criterion 7: exact tail sum below 5.3539e-7"):
        start = time.perf_counter()
        tail = tail_bound(263, 1299689)
        assert tail < Fraction(53539, 10**11)
        assert tail > Fraction(53538, 10**11)  # not vacuously small
        assert time.perf_counter() - start < 30.0


@pytest.mark.slow
def test_criterion_08_sieve_oracle(bracket30):
    with criterion("criterion 8: 1e8 progression sieve vs union density"):
        start = time.perf_counter()
        limit = 10**8
        count = sieve_complement_count(limit, sieve_inert_primes(30))
        gap = abs(Fraction(count, limit) - bracket30.union)
        assert gap <= Fraction(2, 10**6)
        assert time.perf_counter() - start < 300.0


def test_criterion_09_witness_structure():
    with criterion("criterion 9: witnessed n below 1e5 are multiples of 24"):
        start = time.perf_counter()
        limit = 10**5
        witnessed = {n: p for n in range(1, limit + 1) if (p := diagonal_witness(n))}
        assert min(witnessed) == 24
        assert all(n % 24 == 0 for n in witnessed)
        # each witnessed n lies in its own witness's U_p, and the progression
        # sieve counts as many n in the union of the U_p: the two sets are equal
        fam = [p for p in inert_primes_up_to(limit) if p**3 - p <= limit]
        for n, p in witnessed.items():
            assert p in fam and n % (p**3 - p) == 0 and n % (p * p), n
        assert sieve_complement_count(limit, fam) == len(witnessed)
        assert time.perf_counter() - start < 5.0


@pytest.mark.slow
def test_criterion_10_equation_search():
    with criterion("criterion 10: search box k, m < 100 yields only (2, 3)"):
        start = time.perf_counter()
        sols = search_solutions(100, 100)
        assert [(s.k, s.m) for s in sols] == [(2, 3)]
        assert sigma_exact(2, 2) == GaussianInt(0, 18)
        assert GaussianInt(3, 3) ** 2 == GaussianInt(0, 18)
        assert time.perf_counter() - start < 600.0
