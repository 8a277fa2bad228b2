"""Gaussian residue/exact arithmetic and the brute-force sum oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspow.gaussian import (
    GaussianInt,
    GaussianResidue,
    _pow_exact,
    _pow_mod,
    sigma_brute,
    sigma_brute_rows,
    exact_square_sweep,
    sigma_brute_sweep,
    sigma_exact,
)


def _mul(x, y):
    """(a + bi)(c + di) on exact (re, im) pairs."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _naive_pow(x, k, n=None):
    """x^k by k exact multiplications, reduced mod n when n is given."""
    out = (1, 0)
    for _ in range(k):
        out = _mul(out, x)
    return out if n is None else (out[0] % n, out[1] % n)


def walked_square_sweep(n_max, k_max):
    """`exact_square_sweep` with no rotation: every one of the 2n - 1 border
    terms of [1, n]^2 carries its own powers up through k_max."""
    re = [0] * k_max
    im = [0] * k_max
    for n in range(1, n_max + 1):
        border = [(n, b) for b in range(1, n + 1)] + [(a, n) for a in range(1, n)]
        for a, b in border:
            ca, cb = 1, 0
            for k in range(k_max):
                ca, cb = ca * a - cb * b, ca * b + cb * a
                re[k] += ca
                im[k] += cb
        yield list(zip(re, im))


class TestResidueRing:
    def test_pow_examples(self):
        assert _pow_mod(1, 1, 2, 4) == (0, 2)
        assert _pow_mod(2, 3, 1, 11) == (2, 3)
        assert _pow_mod(2, 3, 0, 11) == (1, 0)
        assert _pow_mod(2, 3, 0, 1) == (0, 0)
        # (1+2i)^2 = -3+4i, (1+2i)^4 = -7-24i, (1+2i)^8 = -527+336i
        assert _pow_mod(1, 2, 8, 13) == (-527 % 13, 336 % 13)

    def test_canonical_range(self):
        r = GaussianResidue(-1, 13, 5)
        assert (r.re, r.im) == (4, 3)
        assert repr(r) == "GaussianResidue(4, 3, mod 5)"

    def test_equal_residues_hash_equal(self):
        r, s = GaussianResidue(-1, 13, 5), GaussianResidue(4, 3, 5)
        assert r == s and hash(r) == hash(s)
        assert len({r, s, GaussianResidue(4, 3, 7)}) == 2

    @given(
        st.integers(0, 50),
        st.integers(0, 50),
        st.integers(0, 64),
        st.integers(1, 60),
    )
    def test_pow_matches_repeated_mul(self, a, b, k, n):
        assert _pow_mod(a, b, k, n) == _naive_pow((a, b), k, n)


class TestExactRing:
    def test_pow_example(self):
        assert GaussianInt(1, 2) ** 8 == GaussianInt(-527, 336)
        assert _naive_pow((1, 2), 8) == (-527, 336)

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 12),
           st.integers(0, 12))
    def test_ring_identities(self, a, b, j, k):
        # z^j z^k = z^(j+k), and the norm is multiplicative: N(z^k) = N(z)^k
        zj, zk = _pow_exact(a, b, j), _pow_exact(a, b, k)
        assert _mul(zj, zk) == _pow_exact(a, b, j + k)
        re, im = zk
        assert re * re + im * im == (a * a + b * b) ** k

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 20))
    def test_pow_matches_naive(self, a, b, k):
        assert _pow_exact(a, b, k) == _naive_pow((a, b), k)
        z = GaussianInt(a, b) ** k
        assert (z.re, z.im) == _naive_pow((a, b), k)


def _reduce(z: GaussianInt, n: int) -> GaussianResidue:
    return GaussianResidue(z.re, z.im, n)


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
                        re, im = _pow_mod(a, b, k, n)
                        sre += re
                        sim += im
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

    def test_exact_sweep_matches_walked_border_small(self):
        # every k_max <= 12 passes each exponent class mod 4 of the rotation
        # i^k, and n_max = 1 has a corner and no mirrored border
        for n_max in range(1, 13):
            for k_max in range(1, 13):
                assert list(exact_square_sweep(n_max, k_max)) == list(
                    walked_square_sweep(n_max, k_max)
                ), (n_max, k_max)

    @pytest.mark.parametrize("n_max, k_max", [(48, 48), (291, 1), (2, 300)])
    def test_exact_sweep_matches_walked_border(self, n_max, k_max):
        assert list(exact_square_sweep(n_max, k_max)) == list(
            walked_square_sweep(n_max, k_max)
        )


class TestExactSigma:
    def test_examples(self):
        assert sigma_exact(2, 2) == GaussianInt(0, 18)
        # (1+i) + (1+2i) + (2+i) + (2+2i)
        assert sigma_exact(1, 2) == GaussianInt(6, 6)
        assert _reduce(sigma_exact(3, 3), 3) == sigma_brute(3, 3)
        assert sigma_brute(3, 3).is_zero()

    def test_reduction_matches_brute_on_grid(self):
        for n, brute_rows in enumerate(sigma_brute_sweep(40, 40), start=1):
            for k in range(1, 41):
                assert _reduce(sigma_exact(k, n), n) == brute_rows[k - 1], (k, n)

    def test_rows_match_single_calls(self):
        # each cell of a row of exact sums is the sum of single ** calls
        for m in range(0, 8):
            for k in range(1, 11):
                re = im = 0
                for a in range(1, m + 1):
                    for b in range(1, m + 1):
                        z = GaussianInt(a, b) ** k
                        re += z.re
                        im += z.im
                assert sigma_exact(k, m) == GaussianInt(re, im), (k, m)


@settings(deadline=None)
@given(st.integers(1, 25), st.integers(1, 25))
def test_exact_reduces_to_brute(k, n):
    assert _reduce(sigma_exact(k, n), n) == sigma_brute(k, n)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GaussianInt(1, 2) ** -1, "negative powers"),
        (lambda: GaussianResidue(1, 1, 0), "modulus must be >= 1"),
        (lambda: sigma_brute(0, 3), "k and n must be >= 1"),
        (lambda: sigma_exact(0, 2), "k must be >= 1"),
        (lambda: sigma_exact(1, -1), "m must be >= 0"),
    ],
)
def test_rejects_bad_inputs(build, message):
    with pytest.raises(ValueError, match=message):
        build()
