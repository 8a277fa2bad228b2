"""Equation search: exactness, incremental bookkeeping, and each residue
filter of the sieve against the exact sum it reduces."""

import random

import pytest

from gausspow import moser_search
from gausspow.closed_form import sigma_closed_row
from gausspow.gaussian import (
    GaussianInt,
    _pow_exact,
    _pow_mod,
    exact_square_sweep,
    sigma_exact,
)
from gausspow.moser_search import (
    SEARCH_GUARD,
    SIEVE_PRIMES,
    Solution,
    _class_sides,
    _first_filter,
    _passes,
    _prime_setup,
    search_solutions,
)


def oracle_search(k_max, m_max):
    """The search with no sieve: every pair is compared exactly, ordered by
    (k, m); row m - 2 of the sweep holds sigma_exact(k, m-1) for each k."""
    found = [
        Solution(k, m, GaussianInt(*lhs))
        for m, row in enumerate(exact_square_sweep(m_max - 2, k_max - 1), start=2)
        for k, lhs in enumerate(row, start=1)
        if lhs == _pow_exact(m, m, k)
    ]
    return sorted(found, key=lambda s: (s.k, s.m))


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

    def test_boxes_ending_past_a_power_of_two(self):
        # checks filter (i)'s edge: m = m_max - 1, the last m it may list,
        # passes only when m_max - 2 is a power of 2
        for m_max in (3, 4, 6, 10, 18, 34):
            assert search_solutions(40, m_max) == oracle_search(40, m_max), m_max

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
        # boxes with no m or no k to try are accepted and empty
        assert search_solutions(5, 1) == search_solutions(5, 2) == []
        assert search_solutions(1, SEARCH_GUARD) == []


def pow_mod_table(k, p):
    return [[_pow_mod(r, s, k, p) for s in range(p)] for r in range(p)]


def in_coords(setup, p, pair):
    """The residue re + im i mod p in the coordinates of the prime's setup:
    itself at p = 3 (mod 4), (re + im iota, re - im iota) mod p at p = 1
    (mod 4), with iota = coords[0][1][0]."""
    re, im = pair
    if p % 4 == 3:
        return re % p, im % p
    iota = setup[0][1][0]
    return (re + im * iota) % p, (re - im * iota) % p


def power_table(setup, p, k):
    """The table route, the oracle for `_class_sides`: the p x p table of
    (r + si)^k mod p for k >= 1 in the prime's coordinates, each entry read
    off the prime's setup by the map that `_class_sides` reads its entries
    by."""
    if p % 4 == 3:
        elems, log = setup
        rows = [[elems[d * k % (p * p - 1)] for d in row] for row in log]
        rows[0][0] = (0, 0)
        return rows
    pw = [pow(x, k, p) for x in range(p)]
    return [[(pw[x], pw[y]) for x, y in row] for row in setup]


def sum_mod_prime(powers, m, p):
    """sigma_exact(k, m-1) mod the prime p, from the residue counts of 1..m-1
    and powers[r][s] = (r + si)^k mod p, summed pair by pair; the prime's
    coordinates are linear in (re, im), so the sum is in the coordinates
    the powers are in."""
    q, t = divmod(m - 1, p)
    counts = [(r, c) for r in range(p) if (c := q + (1 <= r <= t))]
    re = im = 0
    for a, ca in counts:
        row = powers[a]
        for b, cb in counts:
            pre, pim = row[b]
            re += ca * cb * pre
            im += ca * cb * pim
    return re % p, im % p


# the odd primes to 31: the sieve primes, and 13, 29 and 31, so both branches
# are also tested at primes the search does not use
TABLE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SETUPS = {p: _prime_setup(p) for p in TABLE_PRIMES}


class TestPowerTables:
    def test_tables_match_pow_mod(self):
        # every prime of TABLE_PRIMES, both branches: a full period and
        # its wrap, k = 1..2(p^2 - 1) + 1, for p <= 11, and for the larger
        # primes the wrap points k = 0, 1 (mod p^2 - 1) and sampled k
        rng = random.Random(22)
        for p, setup in SETUPS.items():
            q = p * p - 1
            if p <= 11:
                ks = range(1, 2 * q + 2)
            else:
                ks = [1, 2, q - 1, q, q + 1, 2 * q, 2 * q + 1, 3 * q + 1]
                ks += rng.sample(range(3, 10 * q), 12)
            for k in ks:
                exact = [
                    [in_coords(setup, p, z) for z in row] for row in pow_mod_table(k, p)
                ]
                assert power_table(setup, p, k) == exact, (p, k)

    def test_zero_and_zero_divisors(self):
        # 0^k = 0 in both branches; at a split prime the zero divisors
        # r = +-s iota have powers that are nonzero zero divisors again:
        # one coordinate is 0, as their product is the norm r^2 + s^2
        for p, setup in SETUPS.items():
            q = p * p - 1
            for k in (1, 2, q - 1, q, q + 1):
                rows = power_table(setup, p, k)
                assert rows[0][0] == (0, 0), (p, k)
                if p % 4 == 3:
                    continue
                iota = next(x for x in range(p) if x * x % p == p - 1)
                for s in range(1, p):
                    for r in (s * iota % p, -s * iota % p):
                        x, y = rows[r][s]
                        assert (x, y) == in_coords(setup, p, _pow_mod(r, s, k, p))
                        assert (x, y) != (0, 0)
                        assert x * y % p == 0, (p, k, r, s)

    def test_split_coordinates_are_a_ring_isomorphism(self):
        # the fact the coordinate verdict rests on: at each split prime,
        # coords hits every pair of F_p x F_p once and carries 1, sums and
        # products in Z[i]/p to coordinatewise ones, so two sides are equal
        # in Z[i]/p exactly when their coordinates are
        for p, coords in SETUPS.items():
            if p % 4 == 3:
                continue
            elements = [(r, s) for r in range(p) for s in range(p)]
            assert sorted(coords[r][s] for r, s in elements) == [
                (x, y) for x in range(p) for y in range(p)
            ], p
            assert coords[1][0] == (1, 1), p
            for r, s in elements:
                x, y = coords[r][s]
                for a, b in elements:
                    u, v = coords[a][b]
                    total = coords[(r + a) % p][(s + b) % p]
                    product = coords[(r * a - s * b) % p][(r * b + s * a) % p]
                    assert total == ((x + u) % p, (y + v) % p), (p, r, s, a, b)
                    assert product == (x * u % p, y * v % p), (p, r, s, a, b)


def verdict_sides(powers, m, p):
    """Both sides of filter (ii) at p for m, from the table of k-th powers."""
    return sum_mod_prime(powers, m, p), powers[m % p][m % p]


class TestResidueClasses:
    def test_sides_are_periodic_in_k_and_m(self):
        # filter (ii) at p reads k >= 1 only mod p^2 - 1 and m only through
        # (m - 1) mod p^2: both sides are unchanged by k -> k + p^2 - 1 and
        # by m -> m + p^2, also at k = p^2 - 1, whose exponent class is 0;
        # the class's sides are those of every pair in it
        rng = random.Random(23)
        for p, setup in SETUPS.items():
            q = p * p - 1
            ks = [1, 2, q - 1, q] + rng.sample(range(3, q - 1), 4)
            ms = [2, 3, p, p + 1, p * p, p * p + 1] + rng.sample(range(4, SEARCH_GUARD), 6)
            for k in ks:
                powers, shifted = power_table(setup, p, k), power_table(setup, p, k + q)
                for m in ms:
                    sides = verdict_sides(powers, m, p)
                    assert verdict_sides(shifted, m, p) == sides, (p, k, m)
                    assert verdict_sides(powers, m + p * p, p) == sides, (p, k, m)
                    assert _class_sides(setup, p, k, m + p * p) == sides, (p, k, m)

    def test_class_sides_match_the_table_route(self):
        # every class (kr, (m - 1) mod p^2) for p <= 11, and seeded classes
        # for the larger primes, against the sum over the table of kr-th
        # powers; m runs to p^2 + 1, so q = (m - 1) // p takes 0..p and each
        # t = (m - 1) % p meets q = 0, where row 0 is counted out, and q > 0
        rng = random.Random(2311)
        for p, setup in SETUPS.items():
            q = p * p - 1
            if p <= 11:
                krs, ms = range(1, q + 1), range(2, p * p + 2)
            else:
                krs = [1, q] + rng.sample(range(2, q), 6)
                ms = [2, p, p + 1, p * p + 1] + rng.sample(range(3, p * p + 1), 8)
            for kr in krs:
                powers = power_table(setup, p, kr)
                for m in ms:
                    sides = _class_sides(setup, p, kr, m)
                    assert sides == verdict_sides(powers, m, p), (p, kr, m)

    def test_class_verdict_matches_direct_verdict(self):
        # one verdict cache per prime, shared by pairs of the same class
        # (k, k + q, k + 2q, and m + p^2 below the guard) met in random
        # order, against the verdict read off the table of the unreduced k
        rng = random.Random(2323)
        for p, setup in SETUPS.items():
            q = p * p - 1
            pairs = []
            for k in [q] + [rng.randrange(1, q) for _ in range(11)]:
                m = rng.randrange(2, SEARCH_GUARD)
                pairs += [(k + j * q, m) for j in range(3)]
                if m + p * p < SEARCH_GUARD:
                    pairs += [(k + j * q, m + p * p) for j in range(3)]
            rng.shuffle(pairs)
            verdicts = {}
            for k, m in pairs:
                sums, rhs = verdict_sides(power_table(setup, p, k), m, p)
                kr = (k - 1) % q + 1
                assert _passes(verdicts, setup, p, kr, m) == (sums == rhs), (p, k, m)


class TestSieve:
    def test_each_filter_reduces_the_exact_sum(self):
        # every filter must compare sigma_exact(k, m-1) reduced by its
        # modulus with (m + mi)^k, or it could reject a true solution;
        # filter (i) is the lemma's set, filter (ii) reads both sides off
        # its class, and the table route reads them off the table of
        # (r + si)^k mod p, each in the prime's coordinates
        sums = list(exact_square_sweep(38, 39))  # sums[m-2][k-1]
        for k in range(1, 40):
            passed = _first_filter(k, 40)
            tables = {p: power_table(setup, p, k) for p, setup in SETUPS.items()}
            for m in range(2, 40):
                re, im = sums[m - 2][k - 1]
                rhs_re, rhs_im = _pow_exact(m, m, k)
                n = m - 1
                first = (rhs_re % n, rhs_im % n) == (re % n, im % n)
                assert first == (m in passed), (k, m)
                for p, powers in tables.items():
                    setup = SETUPS[p]
                    lhs = in_coords(setup, p, (re, im))
                    sides = lhs, in_coords(setup, p, (rhs_re, rhs_im))
                    assert verdict_sides(powers, m, p) == sides, (k, m, p)
                    kr = (k - 1) % (p * p - 1) + 1
                    assert _class_sides(setup, p, kr, m) == sides, (k, m, p)

    def test_first_filter_is_the_closed_form_reading(self):
        # the lemma's set against filter (i) read off the paper's closed
        # form, sigma_k(m-1) == (1 + i)^k mod m-1, on the guard box; which m
        # pass does not depend on m_max, so this covers every accepted box
        passed = []
        for k in range(1, SEARCH_GUARD):
            row = sigma_closed_row(k, SEARCH_GUARD - 2)
            re, im = _pow_exact(1, 1, k)
            oracle = [
                m
                for m in range(2, SEARCH_GUARD)
                if (row[m - 2].re, row[m - 2].im) == (re % (m - 1), im % (m - 1))
            ]
            assert _first_filter(k, SEARCH_GUARD) == oracle, k
            passed += [(k, m) for m in oracle]
        assert len(passed) == 4178
        assert sum(m == 2 for _, m in passed) == SEARCH_GUARD - 1
        assert sum(m != 2 for _, m in passed) == 3679

    @pytest.mark.parametrize(
        "box, chain",
        [
            ((SEARCH_GUARD, SEARCH_GUARD), [4178, 2518, 1111, 228, 52, 7, 2]),
            ((100, 60), [520, 318, 167, 33, 2, 1, 1]),
        ],
    )
    def test_filter_chain_is_pinned(self, monkeypatch, box, chain):
        # the pairs that reach each prime of filter (ii): the first count is
        # every survivor of filter (i), so a search that lists a wrong set
        # there or skips a prime changes the chain, though its output is the
        # same (2, 3) on every box; and the residue classes among them whose
        # sides are evaluated, each once, so a search that keys its classes
        # too finely or too coarsely changes those counts
        classes = {
            (SEARCH_GUARD, SEARCH_GUARD): [48, 123, 108, 75, 35, 6, 2],
            (100, 60): [44, 81, 84, 33, 2, 1, 1],
        }[box]
        pairs = dict.fromkeys(SIEVE_PRIMES, 0)
        evaluated = dict.fromkeys(SIEVE_PRIMES, 0)

        def pair_recorder(verdicts, setup, p, kr, m):
            pairs[p] += 1
            return _passes(verdicts, setup, p, kr, m)

        def class_recorder(setup, p, kr, m):
            evaluated[p] += 1
            return _class_sides(setup, p, kr, m)

        monkeypatch.setattr(moser_search, "_passes", pair_recorder)
        monkeypatch.setattr(moser_search, "_class_sides", class_recorder)
        assert [(s.k, s.m) for s in search_solutions(*box)] == [(2, 3)]
        assert list(pairs.values()) == chain
        assert list(evaluated.values()) == classes

    def test_oracle_matches_direct_sums(self):
        sums = list(exact_square_sweep(11, 7))
        for k in (1, 2, 7):
            for m in range(2, 12):
                assert GaussianInt(*sums[m - 2][k - 1]) == sigma_exact(k, m - 1)
        # a row kept from the sweep is left alone as the sweep advances
        sweep = exact_square_sweep(3, 2)
        first = next(sweep)
        kept = list(first)
        next(sweep)
        assert first == kept == [(1, 1), (0, 2)]

    @pytest.mark.slow
    def test_matches_exact_oracle_on_150_box(self):
        assert search_solutions(150, 150) == oracle_search(150, 150)
