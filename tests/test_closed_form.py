"""Closed-form sigma evaluation: witness set, case split, oracle agreement."""

import random
from math import comb, isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspow import closed_form
from gausspow.arith import MAX_FACTOR_INPUT, factorize, is_prime
from gausspow.closed_form import (
    MAX_EXPANSION_K,
    _expand,
    is_half_epsilon_case,
    row_witness_primes,
    sigma_closed,
    sigma_closed_row,
    sigma_expansion,
    sigma_expansion_sweep,
    witness_primes,
)
from gausspow.gaussian import GaussianResidue, _pow_mod, sigma_brute, sigma_brute_sweep
from gausspow.power_sums import s_mod_closed_row, s_mod_naive


def walked_row_witness_primes(k):
    """R(k) by trying every p = 3, 7, 11, ... with p^2 <= k + 1 for p^2 - 1 | k
    and primality, with no prime sieve."""
    if k % 8:
        return ()
    return tuple(
        p
        for p in range(3, isqrt(k + 1) + 1, 4)
        if k % (p * p - 1) == 0 and is_prime(p)
    )


def binomial_expansion(c, n, s):
    """The two signed binomial sums of `sigma_expansion` at k = len(c) - 1,
    term by term, from c[j] = C(k, j) and s[m] = S_m(n) mod n."""
    k = len(c) - 1
    re = im = 0
    for j in range(k // 2 + 1):
        term = c[2 * j] % n * s[2 * j] % n * s[k - 2 * j] % n
        re += -term if j % 2 else term
    for j in range((k - 1) // 2 + 1):
        term = c[2 * j + 1] % n * s[2 * j + 1] % n * s[k - 2 * j - 1] % n
        im += -term if j % 2 else term
    return GaussianResidue(re % n, im % n, n)


def comb_row(k):
    return [comb(k, j) for j in range(k + 1)]


def summed_expansion_sweep(n_max, k_max):
    """`sigma_expansion_sweep` from `s_mod_naive`, `math.comb` (each taken
    once for every n) and `binomial_expansion`."""
    sums = [[s_mod_naive(m, n) for m in range(k_max + 1)] for n in range(1, n_max + 1)]
    rows = [[] for _ in sums]
    for k in range(1, k_max + 1):
        c = comb_row(k)
        for n, (s, row) in enumerate(zip(sums, rows), start=1):
            row.append(binomial_expansion(c, n, s))
    return rows


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

    def test_guards_name_the_argument_at_fault(self):
        # n is checked first, so the diagonal witness(n, n) names n
        for k, n in ((0, 0), (-3, -3), (2**63, 2**63)):
            with pytest.raises(ValueError, match=rf"^n .*{MAX_FACTOR_INPUT}"):
                witness_primes(k, n)
        with pytest.raises(ValueError, match="^k "):
            witness_primes(0, 24)

    def test_row_witnesses_are_the_column_witnesses_of_p(self):
        # p witnesses in row k exactly when it witnesses the cell (k, p)
        for k in range(1, 3001):
            direct = tuple(
                p for p in range(3, isqrt(k + 1) + 1) if witness_primes(k, p) == (p,)
            )
            assert row_witness_primes(k) == direct, k
        assert row_witness_primes(2880) == (3, 7, 11, 19, 31)

    def test_row_witnesses_match_the_walk(self):
        assert row_witness_primes(999999997920) == (3, 7, 11, 19, 23, 43, 71)
        rng = random.Random(7920)
        ks = [10**12, 999999997920]
        ks += [7920 * rng.randrange(1, 10**12 // 7920 + 1) for _ in range(20)]
        for k in ks:
            assert row_witness_primes(k) == walked_row_witness_primes(k), k

    def test_row_witnesses_need_all_of_p_squared_minus_1(self):
        # p = 7 has p + 1 = 8 | k, but 48 = p^2 - 1 does not divide k
        k = 24 * 3386852179
        assert k % 8 == 0 and k % 48
        assert row_witness_primes(k) == (3,)

    def test_row_witnesses_of_the_most_divisible_k(self):
        # the k below 2^63 with the most divisors, 103680: a walk to
        # sqrt(k + 1), about 9.5e8, is too slow to compare with, so each
        # prime is checked as the cell (k, p)
        k = 897612484786617600
        primes = row_witness_primes(k)
        assert (len(primes), primes[0], primes[-1]) == (67, 3, 104651)
        for p in primes:
            assert witness_primes(k, p) == (p,), p

    def test_row_witness_guards(self):
        assert row_witness_primes(10**12) == (3,)
        assert row_witness_primes(MAX_FACTOR_INPUT) == ()
        # 2^63 is a multiple of 8, 2^63 + 1 is not
        for k in (0, MAX_FACTOR_INPUT + 1, MAX_FACTOR_INPUT + 2):
            with pytest.raises(ValueError, match=str(MAX_FACTOR_INPUT)):
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


class TestClosedRow:
    """`sigma_closed_row` against the per-cell closed form it replaces in
    `table` and `verify`."""

    def test_matches_cells_on_square(self):
        for k in range(1, 501):
            row = sigma_closed_row(k, 500)
            assert len(row) == 500
            for n, cell in enumerate(row, start=1):
                assert cell == sigma_closed(k, n), (k, n)

    @pytest.mark.parametrize(
        "k, primes, n",
        [
            (212520, (3, 11, 43, 139), 3 * 11 * 43),
            (7920, (3, 7, 11, 19, 23), 3 * 7 * 11),
        ],
    )
    def test_rows_with_several_witness_primes(self, k, primes, n):
        assert row_witness_primes(k) == primes
        row = sigma_closed_row(k, 2000)
        assert row == [sigma_closed(k, m) for m in range(1, 2001)]
        # three witnesses at once: -sum n^2 / p^2 over the three primes of n
        total = sum(n * n // (p * p) for p in primes if n % p == 0)
        assert row[n - 1] == GaussianResidue(-total, 0, n) != GaussianResidue(0, 0, n)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.one_of(
            st.integers(1, MAX_FACTOR_INPUT),
            st.integers(1, MAX_FACTOR_INPUT // 7920).map(lambda m: 7920 * m),
        ),
        n_max=st.integers(1, 300),
    )
    def test_matches_cells_up_to_row_cap(self, k, n_max):
        assert sigma_closed_row(k, n_max) == [
            sigma_closed(k, n) for n in range(1, n_max + 1)
        ]

    def test_guards(self):
        for k in (0, MAX_FACTOR_INPUT + 1):
            with pytest.raises(ValueError):
                sigma_closed_row(k, 5)
        with pytest.raises(ValueError):
            sigma_closed_row(8, 0)


class TestExpansionRoute:
    def test_table_values(self):
        assert sigma_expansion(3, 2) == GaussianResidue(1, 1, 2)
        for n in range(1, 25):
            assert sigma_expansion(2, n).is_zero()
        assert sigma_expansion(8, 3) == GaussianResidue(2, 0, 3)

    def test_rows_bounds(self):
        assert len(sigma_expansion_sweep(1000, 1)) == 1000
        assert len(sigma_expansion_sweep(1, MAX_EXPANSION_K)[0]) == MAX_EXPANSION_K
        for n_max, k_max in [
            (1, 0),
            (0, 1),
            (1, MAX_EXPANSION_K + 1),
            (MAX_FACTOR_INPUT + 1, 1),
        ]:
            with pytest.raises(ValueError):
                sigma_expansion_sweep(n_max, k_max)
        for k, n in [(0, 5), (MAX_EXPANSION_K + 1, 5), (2, 0), (2, 2**63)]:
            with pytest.raises(ValueError):
                sigma_expansion(k, n)

    def test_rows_match_summed_oracle(self):
        for n in range(1, 61):
            assert s_mod_closed_row(60, n) == [s_mod_naive(m, n) for m in range(61)], n
        assert sigma_expansion_sweep(60, 60) == summed_expansion_sweep(60, 60)

    # the verify shapes 1 x 291, 290 x 1, 30 x 75 and 48 x 52 (kmax x nmax,
    # the last two the slowest verify accepts), named here by (n_max, k_max)
    @pytest.mark.parametrize("n_max, k_max", [(291, 1), (1, 290), (75, 30), (52, 48)])
    def test_sweep_matches_summed_oracle_on_verify_shapes(self, n_max, k_max):
        oracle = summed_expansion_sweep(n_max, k_max)
        assert sigma_expansion_sweep(n_max, k_max) == oracle

    @pytest.mark.parametrize("n_max, k_max", [(60, 60), (291, 1), (1, 290), (75, 30)])
    def test_sweep_power_sums_match_summation(self, n_max, k_max):
        # the sweep reads each n's power sums from `s_mod_closed_row`
        for n in range(1, n_max + 1):
            summed = [s_mod_naive(m, n) for m in range(k_max + 1)]
            assert s_mod_closed_row(k_max, n) == summed, n

    @pytest.mark.parametrize(
        "n, k_max", [(1000, 3), pytest.param(7, 1000, marks=pytest.mark.slow), (1, 292)]
    )
    def test_long_rows_match_summed_oracle(self, n, k_max):
        # every row of the sweep to n, and single cells of its last row
        oracle = summed_expansion_sweep(n, k_max)
        assert sigma_expansion_sweep(n, k_max) == oracle
        for k in (1, 2, k_max - 1, k_max):
            assert sigma_expansion(k, n) == oracle[-1][k - 1], k

    def test_rows_match_oracle_on_any_sums(self):
        # On true power sums Im is 0 or n/2, its own negative mod n, so a sign
        # slip in Im shows only when the expansion runs on other values of s
        rng = random.Random(24)
        for n in (5, 12, 97, 1000):
            s = [rng.randrange(n) for _ in range(41)]
            for k in range(1, 41):
                c = comb_row(k)
                assert _expand(c, s, n) == binomial_expansion(c, n, s), (k, n)

    def test_last_row_at_cap_matches_summed_oracle(self):
        # n = 1000 was the cap on n while the power sums were summed
        k, n = MAX_EXPANSION_K, 1000
        s = [s_mod_naive(m, n) for m in range(k + 1)]
        assert sigma_expansion(k, n) == binomial_expansion(comb_row(k), n, s)


def forced_cells():
    """Cells whose closed value is a witness sum or the half-epsilon case:
    n = 3m, 9m, 2m, 6m below 2^63 for three large primes m, at k from 8 to
    the expansion cap."""
    return [
        (k, c * m)
        for m in (1000000007, 998244353, 2**61 - 1)
        for c in (3, 9, 2, 6)
        if c * m <= MAX_FACTOR_INPUT
        for k in (8, 48, 120, 240, 960, 999, 1000)
    ]


class TestExpansionPastBrute:
    """The expansion route against the closed form for every n that
    `factorize` takes, far past the reach of brute force."""

    def test_seeded_cells_match_closed_form(self):
        rng = random.Random(1402)
        cells = [
            (rng.randint(1, MAX_EXPANSION_K), rng.randrange(1, 2 ** rng.randint(1, 63)))
            for _ in range(300)
        ]
        for k, n in cells:
            assert sigma_expansion(k, n) == sigma_closed(k, n), (k, n)

    def test_forced_cells_match_closed_form(self):
        values = []
        for k, n in forced_cells():
            values.append(sigma_expansion(k, n))
            assert values[-1] == sigma_closed(k, n), (k, n)
        # both nonzero cases occur: a real witness sum and (n/2)(1 + i)
        assert any(r.im == 0 and r.re != 0 for r in values)
        assert any(r.im != 0 for r in values)

    def test_reads_no_witness_prime(self, monkeypatch):
        # the two routes share `factorize` and nothing of the closed form
        cells = [(48, 3 * 1000000007), (999, 2 * 998244353), (8, 40)]
        closed = [sigma_closed(k, n) for k, n in cells]
        closed_rows = [sigma_closed_row(k, 40) for k in range(1, 49)]

        def refuse(*args):
            raise AssertionError("the expansion route read a witness prime")

        monkeypatch.setattr(closed_form, "witness_primes", refuse)
        monkeypatch.setattr(closed_form, "row_witness_primes", refuse)
        assert [sigma_expansion(k, n) for k, n in cells] == closed
        assert sigma_expansion_sweep(40, 48) == [list(col) for col in zip(*closed_rows)]


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
        routes = zip(sigma_brute_sweep(GRID, GRID), sigma_expansion_sweep(GRID, GRID))
        for n, (brute, expansion) in enumerate(routes, start=1):
            for k in range(1, GRID + 1):
                closed = sigma_closed(k, n)
                expanded = sigma_expansion(k, n)
                assert closed == brute[k - 1], (k, n)
                assert expanded == brute[k - 1], (k, n)
                assert expansion[k - 1] == expanded, (k, n)

    def test_imag_structure(self):
        # Im is 0 or n/2, and n/2 exactly in the half-epsilon case; whenever
        # Im is nonzero, Re equals it.
        for n, brute in enumerate(sigma_brute_sweep(GRID, GRID), start=1):
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
            L = lcm(*(p * p - 1 for p, _ in factorize(n) if p % 4 == 3))
            shift = L if L % 2 == 0 else 2 * L
            for k in range(2, 14):
                assert sigma_closed(k, n) == sigma_closed(k + shift, n), (k, n)

    def test_brute_spot_checks_against_closed(self):
        # independent re-evaluation at scattered larger cells
        for k, n in [(24, 33), (48, 35), (16, 22), (120, 12), (8, 39)]:
            assert sigma_closed(k, n) == sigma_brute(k, n)


PRIMES_TO_50 = [p for p in range(2, 51) if is_prime(p)]


def draw_parts(rng, count):
    """`count` prime powers q = p^e <= 50 with distinct p, as (p, e) pairs."""
    parts = []
    for p in rng.sample(PRIMES_TO_50, count):
        top = max(e for e in range(1, 7) if p**e <= 50)
        parts.append((p, rng.randint(1, top)))
    return parts


def draw_k(rng):
    """k uniform below 1e17, a multiple of 48 * 120 * 360 (p^2 - 1 for
    p = 7, 11, 19, so rich in witnesses), or odd."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randrange(1, 10**17)
    if kind == 1:
        return 48 * 120 * 360 * rng.randint(1, 10**9)
    return rng.randrange(1, 10**17, 2)


def prime_power_sigma(k, p, e):
    """sigma_k(p^e) mod p^e by brute force over the q x q square, q = p^e.

    Z[i]/q is local (p = 3 mod 4 or p = 2) or a product of two local rings
    (p = 1 mod 4), so each element is, in each factor, a unit or nilpotent
    with z^N = 0.  For k >= N, z^k therefore depends on k only through
    N + (k - N) mod |units|."""
    q = p**e
    if p == 2:
        nil, units = 2 * e, 2 ** (2 * e - 1)
    elif p % 4 == 3:
        nil, units = e, (p * p - 1) * p ** (2 * e - 2)
    else:
        nil, units = e, ((p - 1) * p ** (e - 1)) ** 2
    if k >= nil:
        k = nil + (k - nil) % units
    re = im = 0
    for a in range(q):
        for b in range(q):
            x, y = _pow_mod(a, b, k, q)
            re += x
            im += y
    return re % q, im % q


def crt_sigma(k, parts):
    """sigma_k(n) mod n, n the product of the parts, by CRT: [1, n]^2 covers
    each residue pair mod q = p^e exactly (n/q)^2 times, so sigma_k(n) =
    (n/q)^2 sigma_k(q) (mod q).  Reads no witness prime."""
    n = prod(p**e for p, e in parts)
    re = im = 0
    for p, e in parts:
        q = p**e
        m = n // q
        lift = m * m * m * pow(m, -1, q)  # (n/q)^2, then the CRT basis element
        x, y = prime_power_sigma(k, p, e)
        re += x * lift
        im += y * lift
    return GaussianResidue(re, im, n)


def p_minus_one_witnesses(k, n):
    """`witness_primes` misread as p - 1 | k, the form the abstract states."""
    return tuple(p for p, e in factorize(n) if e == 1 and p % 4 == 3 and k % (p - 1) == 0)


@pytest.mark.slow
class TestCrtRoute:
    """The closed form against a route by CRT over the prime powers of n,
    on n far beyond the reach of the brute and expansion routes."""

    @pytest.fixture(scope="class")
    def draws(self):
        rng = random.Random(20141)
        cells = [(draw_k(rng), draw_parts(rng, rng.randint(1, 6))) for _ in range(300)]
        return [(k, crt_sigma(k, parts)) for k, parts in cells]

    def test_prime_power_sigma_matches_brute(self):
        # the reduced exponent agrees with the unreduced one
        for q, p, e in ((8, 2, 3), (9, 3, 2), (25, 5, 2), (7, 7, 1)):
            for k in (1, 2, 3, 8, 47, 48, 96, 97, 120, 241):
                r = sigma_brute(k, q)
                assert prime_power_sigma(k, p, e) == (r.re, r.im), (k, q)

    def test_closed_form_matches(self, draws):
        for k, crt in draws:
            assert sigma_closed(k, crt.n) == crt, (k, crt.n)
        assert sum(not crt.is_zero() for _, crt in draws) >= 30

    def test_catches_p_minus_one_reading(self, draws, monkeypatch):
        monkeypatch.setattr(closed_form, "witness_primes", p_minus_one_witnesses)
        assert any(sigma_closed(k, crt.n) != crt for k, crt in draws)

    def test_catches_flipped_witness_sign(self, draws):
        def flipped(k, n):
            r = sigma_closed(k, n)
            return GaussianResidue(-r.re, r.im, n)

        assert any(flipped(k, crt.n) != crt for k, crt in draws)

    def test_witness_primes_above_1e12(self):
        rng = random.Random(20142)
        for _ in range(100):
            k, parts = draw_k(rng), []
            while prod(p**e for p, e in parts) <= 10**12:
                parts = draw_parts(rng, len(parts) + 1)
            n = prod(p**e for p, e in parts)
            expected = sorted(
                p for p, e in parts if e == 1 and p % 4 == 3 and k % (p * p - 1) == 0
            )
            assert witness_primes(k, n) == tuple(expected), (k, parts)
