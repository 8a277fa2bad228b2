"""Gaussian-integer arithmetic and the brute-force power-sum oracles.

`GaussianResidue` is an element of Z[i]/nZ[i] kept in canonical form (both
parts in [0, n)); `GaussianInt` is an exact Gaussian integer on Python's
arbitrary-precision ints.  Both are values the routes return and compare, not
rings: the power loops `_pow_mod` and `_pow_exact` work on plain (re, im)
pairs, and `GaussianInt ** k` is the one operator, for the search.
`GaussianInt` and the package's other result records build on `Record`, a
frozen `__slots__` base that gives them value equality, hash and repr.
`sigma_brute` evaluates the defining double sum sum over 1 <= a, b <= n of
(a+bi)^k literally and is the ground-truth oracle everything faster is
measured against.

`exact_square_sweep` is the one place where the square grows: it keeps the
double sum exact, unreduced in Z[i], for every k up to k_max, and grows
[1, n]^2 from [1, n-1]^2 by its border of 2n - 1 terms.  No identity of the
power sums enters, only that union of squares.  `sigma_brute_sweep` reduces
each row it yields mod n, so it gives the cells of `sigma_brute` for every n
up to n_max at once and is still the literal definition.
"""

from __future__ import annotations

from collections.abc import Iterator

# Largest inputs `sigma_brute` accepts.  It takes n^2 powers of bit_length(k)
# squarings each, and once k spans many machine words each halving of k costs
# time in its length too.  Slowest accepted on a 2-core x86 host: (k, n) =
# (1, 1000), about 0.8 s; (2^4096 - 1, 15) takes about 0.4 s.
MAX_BRUTE_WORK = 10**6  # n^2 * bit_length(k)
MAX_BRUTE_K_BITS = 4096


class Record:
    """Frozen value whose fields are its `__match_args__`, stored in slots by
    the subclass's `__init__` through `_set`: equal and hashed by its fields
    within one class, printed as `Name(field=value, ...)`, and rebuilt through
    `__init__` when copied or unpickled."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class GaussianInt(Record):
    """Exact Gaussian integer a + bi."""

    __slots__ = __match_args__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self._set(re, im)

    def __pow__(self, k: int) -> "GaussianInt":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        re, im = _pow_exact(self.re, self.im, k)
        return GaussianInt(re, im)


class GaussianResidue:
    """Element of Z[i]/nZ[i] with both components canonicalized to [0, n)."""

    __slots__ = ("re", "im", "n")

    def __init__(self, re: int, im: int, n: int):
        if n < 1:
            raise ValueError("modulus must be >= 1")
        self.n = n
        self.re = re % n
        self.im = im % n

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GaussianResidue)
            and (self.re, self.im, self.n) == (other.re, other.im, other.n)
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.n))

    def __repr__(self) -> str:
        return f"GaussianResidue({self.re}, {self.im}, mod {self.n})"

    def __str__(self) -> str:
        return f"{self.re}+{self.im}i (mod {self.n})"


def _pow_mod(a: int, b: int, k: int, n: int) -> tuple[int, int]:
    ra, rb = 1 % n, 0
    while k:
        if k & 1:
            ra, rb = (ra * a - rb * b) % n, (ra * b + rb * a) % n
        a, b = (a * a - b * b) % n, 2 * a * b % n
        k >>= 1
    return ra, rb


def _pow_exact(a: int, b: int, k: int) -> tuple[int, int]:
    ra, rb = 1, 0
    while k:
        if k & 1:
            ra, rb = ra * a - rb * b, ra * b + rb * a
        a, b = a * a - b * b, 2 * a * b
        k >>= 1
    return ra, rb


def sigma_brute(k: int, n: int) -> GaussianResidue:
    """Sum of (a+bi)^k over the full square 1 <= a, b <= n, reduced mod n.

    O(n^2 log k); meant as an oracle for moderate n, not for production use.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if k.bit_length() > MAX_BRUTE_K_BITS or n * n * k.bit_length() > MAX_BRUTE_WORK:
        raise ValueError(
            f"brute route needs k < 2^{MAX_BRUTE_K_BITS}"
            f" and n^2 * bit_length(k) <= {MAX_BRUTE_WORK}"
        )
    sre = sim = 0
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            re, im = _pow_mod(a, b, k, n)
            sre += re
            sim += im
    return GaussianResidue(sre, sim, n)


def exact_square_sweep(
    n_max: int, k_max: int
) -> Iterator[list[tuple[int, int]]]:
    """For n in 1..n_max, the exact sums over [1, n]^2 of (a+bi)^k for k in
    1..k_max, as (re, im) pairs in a new list that later steps leave alone.

    The sums over [1, n]^2 are the sums over [1, n-1]^2 plus the border terms
    a = n, and b = n with a < n; each term carries its powers up through
    k_max by exact multiplication.  O(k_max * n_max^2) exact steps.
    """
    if k_max < 1 or n_max < 1:
        raise ValueError("k_max and n_max must be >= 1")
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


def sigma_brute_sweep(n_max: int, k_max: int) -> list[list[GaussianResidue]]:
    """[[sigma_brute(k, n) for k in 1..k_max] for n in 1..n_max] in one pass:
    the rows of `exact_square_sweep`, each reduced mod its n."""
    return [
        [GaussianResidue(x, y, n) for x, y in row]
        for n, row in enumerate(exact_square_sweep(n_max, k_max), start=1)
    ]


def sigma_brute_rows(n: int, k_max: int) -> list[GaussianResidue]:
    """[sigma_brute(k, n) for k in 1..k_max]: the last row of the sweep to n."""
    return sigma_brute_sweep(n, k_max)[-1]


def sigma_exact(k: int, m: int) -> GaussianInt:
    """Exact, unreduced sum of (a+bi)^k over 1 <= a, b <= m."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    sre = sim = 0
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            re, im = _pow_exact(a, b, k)
            sre += re
            sim += im
    return GaussianInt(sre, sim)
