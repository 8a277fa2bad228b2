"""Exact density machinery: closed products, inclusion-exclusion, sieve oracle."""

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausspow.arith import decimal_render, inert_primes_up_to, is_prime, sieve_inert_primes
from gausspow.congruence_sets import outside_row_zeros
from gausspow.density import (
    MAX_UNION_PRIMES,
    TAIL_REMAINDER,
    TAIL_REMAINDER_MIN_LIMIT,
    TAIL_SCALE,
    DiagonalBracket,
    _merge_sum,
    diagonal_bracket,
    intersection_density,
    rounded_tail,
    sieve_complement_count,
    tail_bound,
    union_density,
    zero_row_density,
)


def qualifying_primes(k):
    """Primes p = 3 (mod 4) with p^2 - 1 | k, by direct trial."""
    return [
        p
        for p in range(3, isqrt(k + 1) + 1, 2)
        if is_prime(p) and p % 4 == 3 and k % (p * p - 1) == 0
    ]


def one_period_row_count(k):
    """Exact zero fraction of row k over one full period (small periods only)."""
    period = prod(p * p for p in qualifying_primes(k))
    assert period <= 2 * 10**6
    zeros = sum(1 for n in range(1, period + 1) if not outside_row_zeros(n, k))
    return Fraction(zeros, period)


def per_prime_row_count(k):
    """Same count assembled per prime modulus; the moduli are coprime, so the
    zero fraction multiplies across them."""
    out = Fraction(1)
    for p in qualifying_primes(k):
        keep = sum(
            1
            for r in range(1, p * p + 1)
            if not (r % p == 0 and r % (p * p) != 0)
        )
        out *= Fraction(keep, p * p)
    return out


class TestZeroRowDensity:
    def test_odd_rows(self):
        assert zero_row_density(3) == Fraction(3, 4)
        assert zero_row_density(99) == Fraction(3, 4)

    def test_trivial_rows(self):
        assert zero_row_density(1) == 1
        assert zero_row_density(2) == 1

    def test_row_eight_with_period_oracle(self):
        assert zero_row_density(8) == Fraction(7, 9)
        assert one_period_row_count(8) == Fraction(7, 9)

    def test_even_rows_match_period_counts(self):
        for k in (8, 16, 24, 48, 120):
            assert zero_row_density(k) == one_period_row_count(k), k
            assert zero_row_density(k) == per_prime_row_count(k), k

    def test_row_2880_includes_all_five_witnesses(self):
        assert qualifying_primes(2880) == [3, 7, 11, 19, 31]
        expected = (
            Fraction(7, 9)
            * Fraction(43, 49)
            * Fraction(111, 121)
            * Fraction(343, 361)
            * Fraction(931, 961)
        )
        assert zero_row_density(2880) == expected
        assert per_prime_row_count(2880) == expected


def witness_density(p):
    """Density of U_p, 1/(p^2 (p+1)), from the paper's formula."""
    return Fraction(1, p * p * (p + 1))


class TestWitnessDensity:
    # a one-prime family's intersection is U_p itself
    def test_examples(self):
        assert intersection_density([3]) == Fraction(1, 36)
        assert intersection_density([7]) == Fraction(1, 392)

    def test_min_minus_excluded_identity(self):
        for p in sieve_inert_primes(10):
            u = p**3 - p
            assert intersection_density([p]) == Fraction(1, u) - Fraction(1, p * u)

    def test_rejects_non_inert(self):
        with pytest.raises(ValueError):
            intersection_density([5])


class TestIncompatible:
    # U_q and U_p (q < p) cannot intersect exactly when q^2 | p^2 - 1
    def test_examples(self):
        assert intersection_density([3, 19]) == 0  # 9 | 360
        assert intersection_density([3, 7]) > 0  # 9 does not divide 48
        assert intersection_density([7, 11]) > 0

    def test_requires_ordered_odd_primes(self):
        with pytest.raises(ValueError):
            intersection_density([7, 3])
        with pytest.raises(ValueError):
            intersection_density([2, 7])

    def test_pairs_in_first_thirty_all_involve_three(self):
        fam = sieve_inert_primes(30)
        pairs = [
            (q, p)
            for i, q in enumerate(fam)
            for p in fam[i + 1 :]
            if intersection_density([q, p]) == 0
        ]
        assert pairs == [
            (3, 19), (3, 71), (3, 107), (3, 127),
            (3, 163), (3, 179), (3, 199), (3, 251),
        ]


class TestIntersectionDensity:
    def test_singleton_matches_witness_density(self):
        for p in sieve_inert_primes(10):
            assert intersection_density([p]) == witness_density(p)

    def test_incompatible_pair_vanishes(self):
        assert intersection_density([3, 19]) == 0
        assert intersection_density([3, 7, 19]) == 0

    def test_pair_example(self):
        # phi-product 2*6 = 12; lcm(72, 2352) = 7056; 12/7056 = 1/588
        assert intersection_density([3, 7]) == Fraction(12, 7056) == Fraction(1, 588)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            intersection_density([])


def naive_union(primes):
    fam = tuple(primes)
    total = Fraction(0)
    for size in range(1, len(fam) + 1):
        for subset in combinations(fam, size):
            term = intersection_density(subset)
            total += term if size % 2 else -term
    return total


def _conflict_masks(fam):
    masks = []
    for j, p in enumerate(fam):
        m = 0
        for i in range(j):
            if (p * p - 1) % (fam[i] * fam[i]) == 0:
                m |= 1 << i
        masks.append(m)
    return masks


def _subtree_sum(us, qm1, conflicts, total_lcm, start, L, phi, sign, mask):
    """Signed sum of phi(S) * (total_lcm // lcm(L, u(S))) over nonempty
    compatible subsets S of indices >= start, relative to the chosen mask."""
    total = 0
    for j in range(start, len(us)):
        if conflicts[j] & mask:
            continue
        u = us[j]
        L2 = L // gcd(L, u) * u
        phi2 = phi * qm1[j]
        total += sign * phi2 * (total_lcm // L2)
        total += _subtree_sum(
            us, qm1, conflicts, total_lcm, j + 1, L2, phi2, -sign, mask | (1 << j)
        )
    return total


def enumerated_union(primes):
    """Union density by enumerating every compatible subset, pruning the
    subtree below each incompatible pair; the oracle for `union_density`."""
    fam = tuple(primes)
    us = [p**4 - p**2 for p in fam]
    total_lcm = lcm(*us)
    qm1 = [p - 1 for p in fam]
    num = _subtree_sum(us, qm1, _conflict_masks(fam), total_lcm, 0, 1, 1, 1, 0)
    return Fraction(num, total_lcm)


def _live_part(n, r):
    """Largest divisor of n built only from primes that divide r."""
    rest = n
    while (g := gcd(rest, r)) > 1:
        rest //= g
    return n // rest


def live_part_union(primes):
    """The union DP keyed by the live part of lcm(S), the part of the total
    lcm built from primes that divide some later q^4 - q^2: the same
    recurrence with coarser merging, and the oracle `union_density` must
    reproduce exactly."""
    order = tuple(primes)[::-1]
    us = [p**4 - p**2 for p in order]
    total_lcm = lcm(*us)
    lives = []
    later = 1
    for u in reversed(us):
        lives.append(_live_part(total_lcm, later))
        later *= u
    lives.reverse()
    states = {1: total_lcm}
    for p, u, live in zip(order, us, lives):
        nxt = {}
        for key, val in states.items():
            skip = gcd(key, live)
            nxt[skip] = nxt.get(skip, 0) + val
            if key % (p * p):
                g = gcd(key, u)
                add = gcd(key // g * u, live)
                nxt[add] = nxt.get(add, 0) - val * (p - 1) * g // u
        states = nxt
    return Fraction(total_lcm - states[1], total_lcm)


FIRST_FORTY = sieve_inert_primes(40)
# partners p of 3 with 9 | p^2 - 1: every incompatible pair among the first 40
THREE_PARTNERS = [p for p in FIRST_FORTY[1:] if (p * p - 1) % 9 == 0]
UNTIED = [p for p in FIRST_FORTY[1:] if p not in THREE_PARTNERS]


@st.composite
def subfamilies(draw):
    """Up to 18 of the first 40 inert primes: up to six partners of 3, other
    primes, and 3 itself in three draws out of four."""
    fam = set(draw(st.lists(st.sampled_from(THREE_PARTNERS), max_size=6, unique=True)))
    fam |= set(draw(st.lists(st.sampled_from(UNTIED), max_size=17 - len(fam), unique=True)))
    if draw(st.integers(0, 3)) or not fam:
        fam.add(3)
    return sorted(fam)


INERT_BELOW_3000 = inert_primes_up_to(3000)
# p^2 - 1 divisible by 81, 49 or 121: factors of u = p^4 - p^2 at high powers
POWER_RICH = [
    p for p in INERT_BELOW_3000 if p % 81 in (1, 80) or p % 49 in (1, 48) or p % 121 in (1, 120)
]
THREE_PARTNERS_BELOW_3000 = [p for p in INERT_BELOW_3000[1:] if (p * p - 1) % 9 == 0]


def seeded_families(seed, count):
    """count families of at most 12 inert primes below 3000: half drawn from
    all of them, half built from 3, 7 and 11, primes from POWER_RICH (among
    them the partners of 7 and 11) and partners of 3."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            fam = set(rng.sample(INERT_BELOW_3000, rng.randint(1, 12)))
        else:
            fam = set(rng.sample((3, 7, 11), rng.randint(1, 3)))
            fam |= set(rng.sample(POWER_RICH, rng.randint(1, 6)))
            fam |= set(rng.sample(THREE_PARTNERS_BELOW_3000, rng.randint(0, 3)))
        yield sorted(fam)


# union_density of the first 24 inert primes (the benchmark's bracket input)
ELL_24 = Fraction(
    "135010272581424513583935379778615981994009550684416848481693350419275724"
    "784833211912131/4655654262767242539366564956101252237805470439946340793657"
    "455218856947201807417293558400"
)

# union_density of the first 40 inert primes, MAX_UNION_PRIMES
ELL_40 = Fraction(
    "2339409584104549004826885597789782229284088538124508747887308737510784587"
    "9582364098194413895654872385282063073159486051987071253297766107625653207"
    "733689842942541311008499/806709592770764247991163726774463211840625853665"
    "5385136361984679312761813248244540394919172845061533747732253159328264383"
    "35613006225474855503642609888467045267633363618880"
)


def direct_free_share(fam, c):
    """free_F(c) counted directly: the share of the multiples n = c t, t in
    1..L_F/c, that lie in no U_q (q^3 - q | n and q^2 does not divide n) for
    q in fam, where L_F = lcm(q^4 - q^2), the union's period."""
    period = lcm(*(q**4 - q**2 for q in fam))
    hit = set()
    for q in fam:
        step = lcm(c, q**3 - q)
        hit.update(n for n in range(step, period + 1, step) if n % (q * q))
    return Fraction(period // c - len(hit), period // c)


class TestUnionDensity:
    def test_singleton(self):
        assert union_density([3]) == Fraction(1, 36)

    def test_pair(self):
        assert union_density([3, 7]) == Fraction(101, 3528)
        assert Fraction(1, 36) + Fraction(1, 392) - Fraction(1, 588) == Fraction(
            101, 3528
        )

    def test_matches_naive_inclusion_exclusion(self):
        fam = sieve_inert_primes(6)  # contains the incompatible pair (3, 19)
        for size in range(1, 7):
            sub = fam[:size]
            assert union_density(sub) == naive_union(sub), sub

    def test_monotone_and_bounded(self):
        fams = [sieve_inert_primes(i) for i in range(1, 9)]
        values = [union_density(f) for f in fams]
        for a, b in zip(values, values[1:]):
            assert a < b  # every new compatible-alone prime adds mass
        for f, v in zip(fams, values):
            assert v <= sum(witness_density(p) for p in f)
            assert v >= max(witness_density(p) for p in f)

    @pytest.mark.slow
    @settings(deadline=None)
    @given(subfamilies())
    @example(list(FIRST_FORTY[:18]))
    @example([3, *THREE_PARTNERS])
    def test_matches_enumeration_on_subfamilies(self, fam):
        assert union_density(fam) == enumerated_union(fam)

    @pytest.mark.slow
    def test_matches_live_part_dp_on_first_primes(self):
        for n in range(1, MAX_UNION_PRIMES + 1):
            fam = FIRST_FORTY[:n]
            assert union_density(fam) == live_part_union(fam), n

    def test_matches_enumeration_on_seeded_families(self):
        for fam in seeded_families(25, 200):
            assert union_density(fam) == enumerated_union(fam), fam

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_marginal_of_a_later_prime_is_a_conditioned_free_share(self, size):
        # for an inert p > max F, d(U_p minus union_F) = free_F(c_p) / (p^2 (p+1))
        # with c_p = gcd(p^2 - 1, L_F): n mod L_F is uniform on the multiples
        # of c_p once p^3 - p | n and p^2 does not divide n
        fam = FIRST_FORTY[:size]
        period = lcm(*(q**4 - q**2 for q in fam))
        for p in FIRST_FORTY[size : size + 6]:
            free = direct_free_share(fam, gcd(p * p - 1, period))
            marginal = union_density([*fam, p]) - union_density(fam)
            assert marginal == free * witness_density(p), (fam, p)
            # the free share is not to be taken from 1 a second time
            assert marginal != (1 - free) * witness_density(p), (fam, p)

    def test_pinned_24_prime_value(self):
        assert union_density(sieve_inert_primes(24)) == ELL_24

    def test_exact_period_count_ties_union_to_sieve(self):
        # the union of the two progressions has period lcm(72, 2352) = 7056
        assert sieve_complement_count(7056, (3, 7)) == 7056 * Fraction(101, 3528)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            union_density([])

    def test_size_cap(self):
        with pytest.raises(ValueError):
            union_density(sieve_inert_primes(MAX_UNION_PRIMES + 1))
        with pytest.raises(ValueError):
            diagonal_bracket(MAX_UNION_PRIMES + 1, 10**6)


class TestTailBound:
    def test_single_prime_window(self):
        # only inert prime in (263, 271] is 271; 271^2 * 272 = 19975952
        assert [p for p in inert_primes_up_to(271) if p > 263] == [271]
        assert 271**3 + 271**2 == 271**2 * 272 == 19975952
        assert tail_bound(263, 271) == Fraction(1, 19975952)

    def test_small_window_matches_direct_sum(self):
        direct = sum(
            (Fraction(1, p**3 + p**2) for p in inert_primes_up_to(10**4) if p > 263),
            Fraction(0),
        )
        assert tail_bound(263, 10**4) == direct

    def test_empty_window(self):
        assert tail_bound(264, 270) == 0

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            tail_bound(300, 300)

    def test_sieve_cap(self):
        with pytest.raises(ValueError, match="sieve limit capped at 2e7"):
            rounded_tail(263, 2 * 10**7 + 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 10**4 - 1), st.integers(1, 10**4))
    def test_rounded_tail_is_outward_and_tight(self, p_min, span):
        p_limit = min(p_min + span, 10**4)
        count = sum(1 for p in inert_primes_up_to(p_limit) if p > p_min)
        exact = tail_bound(p_min, p_limit)
        assert exact <= rounded_tail(p_min, p_limit) <= exact + Fraction(count, TAIL_SCALE)

    @pytest.mark.parametrize(
        "p_min, p_limit", [(3, 4), (3, 7), (263, 10**4), (9000, 9100), (10**5, 2 * 10**5)]
    )
    def test_rounded_tail_is_the_sum_of_ceilings(self, p_min, p_limit):
        primes = [p for p in inert_primes_up_to(p_limit) if p > p_min]
        ceilings = sum(-(-TAIL_SCALE // (p * p * (p + 1))) for p in primes)
        assert rounded_tail(p_min, p_limit) == Fraction(ceilings, TAIL_SCALE)

    def test_merge_sum_helper(self):
        terms = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(2, 9)]
        assert _merge_sum(terms) == sum(terms)
        assert _merge_sum([]) == 0


class TestTailRemainderCertificate:
    def test_remainder_bounds_inert_cube_tail(self):
        # sum of 1/p^3 over inert p > 10^6: each sieved term to Y rounded up
        # over 10^40, then every n = 3 (mod 4) beyond Y bounded by its first
        # term plus (1/4) of the integral of x^-3 from there
        y = 10**7
        scale = 10**40
        primes = [p for p in inert_primes_up_to(y) if p > TAIL_REMAINDER_MIN_LIMIT]
        assert len(primes) == 293076
        sieved = sum(-(-scale // p**3) for p in primes)
        bound = Fraction(sieved, scale) + Fraction(1, y**3) + Fraction(1, 8 * y**2)
        assert bound <= TAIL_REMAINDER
        assert bound > Fraction(18, 10**15)  # 1.857e-14: not vacuously small


class TestDiagonalBracket:
    def test_single_prime_upper_bound(self):
        result = diagonal_bracket(1, 10**6)
        assert result.upper == 1 - Fraction(1, 36) == Fraction(35, 36)
        assert result.union == Fraction(1, 36)

    def test_interval_validation(self):
        ingredients = (Fraction(1, 36), Fraction(0), (3,))
        with pytest.raises(ValueError):
            DiagonalBracket(Fraction(1, 2), Fraction(1, 3), *ingredients)
        with pytest.raises(ValueError):
            DiagonalBracket(Fraction(-1, 3), Fraction(1, 3), *ingredients)
        with pytest.raises(ValueError):
            DiagonalBracket(Fraction(1, 3), Fraction(4, 3), *ingredients)

    def test_rejects_small_tail_limit(self):
        with pytest.raises(ValueError):
            diagonal_bracket(5, 10**5)

    def test_largest_accepted_input_is_bounded(self):
        # MAX_UNION_PRIMES with the 2e7 sieve cap: the slowest bracket the CLI
        # accepts, about 0.7 s on a 2-core host
        start = time.perf_counter()
        result = diagonal_bracket(MAX_UNION_PRIMES, 2 * 10**7)
        assert time.perf_counter() - start < 5.0
        assert result.union == ELL_40
        assert decimal_render(result.lower, 12, "down") == "0.971000353311"
        assert decimal_render(result.upper, 12, "up") == "0.971000597922"

    def test_monotone_lower_bounds(self):
        small = diagonal_bracket(8, 10**6)
        large = diagonal_bracket(12, 10**6)
        assert large.lower >= small.lower
        assert large.upper <= small.upper
        assert small.lower <= large.lower <= large.upper


def chunked_marking_count(limit, primes, chunk):
    """Count n <= limit in some U_p over all of n, one chunk at a time: per
    prime, mark the multiples of p^3 - p in a scratch array, unmark those of
    p (p^3 - p), and or the scratch array into the union."""
    steps = [(p**3 - p, p * (p**3 - p)) for p in primes]
    count = 0
    for lo in range(1, limit + 1, chunk):
        hi = min(lo + chunk, limit + 1)
        width = hi - lo
        union = 0
        for u, pu in steps:
            single = bytearray(width)
            first = -(-lo // u) * u - lo
            single[first:width:u] = b"\x01" * len(range(first, width, u))
            first = -(-lo // pu) * pu - lo
            single[first:width:pu] = bytes(len(range(first, width, pu)))
            union |= int.from_bytes(single, "big")
        count += union.to_bytes(width, "big").count(1)
    return count


FIRST_TWELVE = sieve_inert_primes(12)


@st.composite
def sieve_cases(draw):
    """A subfamily of the first 12 inert primes (3 included or not), a limit
    up to 2e6, and the chunk of the oracle `chunked_marking_count`, in
    1..2^20 (below 24 one time in three); the limit is held to 1000 chunks so
    the oracle stays fast."""
    fam = sorted(draw(st.lists(st.sampled_from(FIRST_TWELVE), unique=True)))
    chunk = draw(st.one_of(st.integers(1, 23), st.integers(24, 2**20), st.integers(24, 2**20)))
    limit = draw(st.integers(1, min(2 * 10**6, 1000 * chunk)))
    return fam, limit, chunk


class TestSieveOracle:
    def test_tiny_example(self):
        assert sieve_complement_count(36, (3,)) == 1  # only n = 24

    def test_progression_formula_for_single_prime(self):
        n = 10**6
        expected = n // 24 - n // 72
        count = sieve_complement_count(n, (3,))
        assert count == expected
        assert abs(Fraction(count, n) - Fraction(1, 36)) < Fraction(1, 10**4)

    def test_against_union_density_mid_scale(self):
        fam = sieve_inert_primes(10)
        dens = union_density(fam)
        # each progression contributes at most 1 of boundary error
        progressions = 2 * len(fam)
        for n in (10**6, 10**7):
            count = sieve_complement_count(n, fam)
            assert abs(Fraction(count, n) - dens) <= Fraction(progressions, n)

    @settings(max_examples=60, deadline=None)
    @given(sieve_cases())
    @example(([7, 11, 19], 10**5, 5))
    @example(([7, 23, 31, 43], 2 * 10**6, 1 << 20))
    @example((list(FIRST_TWELVE), 2 * 10**6, 4001))
    @example(([3], 71, 1))
    @example(([3, 7], 10**5 + 71, 23))
    @example(([3, 7, 11, 19], 2 * 10**6, 72))
    # v_263 = 757966 lies past the array, so 263 marks nothing
    @example(([3, 263], 10**5, 4001))
    @example(([263], 10**5, 4001))
    # a one-entry array, i = 0 (j = 0) alone
    @example(([3], 23, 1))
    @example(([7], 23, 1))
    # top + 1 = 980 is ten strides of 7 (p u_7 = 98) on j, then on i
    @example(([7], 24 * 979, 4001))
    @example(([7], 24 * 979 + 23, 4001))
    @example(([3, 7], 72 * 980 - 1, 4001))
    # the last entry is marked: j = u_7 = 14, then i = v_7 = 14
    @example(([7], 24 * 14, 24))
    @example(([3, 7], 72 * 14 + 71, 24))
    def test_lattice_sieve_matches_chunked_marking(self, case):
        fam, limit, chunk = case
        assert sieve_complement_count(limit, fam) == chunked_marking_count(limit, fam, chunk)

    @pytest.mark.parametrize("limit", [71, 72, 73, 143, 144, 10**5 + 71])
    @pytest.mark.parametrize("chunk", [1, 23, 24, 71, 72])
    def test_fold_boundaries_with_three(self, limit, chunk):
        """With 3 in the family only j = 3 i is marked, one entry per 72
        values of n: limits on either side of multiples of 24 and 72 match
        the marking over all of n, done by the oracle in chunks on either
        side of 24 and 72."""
        for fam in ((3,), (3, 7), (3, 7, 11, 19)):
            expected = chunked_marking_count(limit, fam, chunk)
            assert sieve_complement_count(limit, fam) == expected

    def test_memory_follows_the_lattice(self):
        """One bytearray over the lattice and nothing else of its size:
        limit/72 bytes with 3 folded out, limit/24 without, plus 1 MiB of
        slack for the per-prime strides."""
        for fam, entries in ((sieve_inert_primes(24), 10**8 // 72),
                             (sieve_inert_primes(25)[1:], 10**8 // 24)):
            tracemalloc.start()
            try:
                sieve_complement_count(10**8, fam)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < entries + 2**20

    def test_fold_keeps_every_prime(self):
        """The count for (3, p) is |U_3| plus the part of U_p on 3 | j, both
        counted on the lattice j = n / 24 straight from u_p = (p^3 - p)/24:
        U_3 is the j prime to 3, U_p the t u_p with p not dividing t.  The
        primes cover both 3 | u_p (19) and 3 not dividing u_p (7)."""
        top = 10**6 // 24
        folds = set()
        for p in FIRST_TWELVE[1:]:
            u = (p**3 - p) // 24
            folds.add(gcd(u, 3))
            on_threes = sum(1 for t in range(1, top // u + 1) if t % p and t * u % 3 == 0)
            assert sieve_complement_count(10**6, (3, p)) == top - top // 3 + on_threes
        assert folds == {1, 3}

    def test_pinned_counts_at_1e8(self):
        assert sieve_complement_count(10**8, sieve_inert_primes(24)) == 2899920
        assert sieve_complement_count(10**8, sieve_inert_primes(30)) == 2899928

    def test_pinned_counts_at_accepted_maximum(self):
        assert sieve_complement_count(10**9, sieve_inert_primes(30)) == 28999301
        assert sieve_complement_count(10**9, sieve_inert_primes(40)) == 28999409

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            sieve_complement_count(10**9 + 1, (3,))
