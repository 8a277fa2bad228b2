"""The four benchmark workloads, as lists of operations with their checks.

An operation is one in-process CLI invocation (``gausspow.cli.main(argv)``)
or one library call.  Each is looked up through its module at call time, so
a traced pass sees the span wrappers.  A check returns None for a correct
output and a short reason otherwise.

Every pass of a run repeats the same operations, so the median pass and the
median time of each operation can be taken over the passes.  Only `lookup` depends on the seed; the other three are exhaustive
over fixed boxes, so their output is pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple

import gausspow.cli
import gausspow.density

import reference


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gausspow.cli.main(argv)
    return code, out.getvalue()


def cli_op(argv: list[str], check: Callable[[str], str | None]) -> Op:
    def check_cli(result):
        code, text = result
        return f"exit code {code}" if code != 0 else check(text)

    return Op(" ".join(argv), lambda: run_cli(argv), check_cli)


def expect_text(expected: str) -> Callable[[str], str | None]:
    return lambda text: None if text == expected else f"stdout {text[:80]!r}"


# --- bracket: the diagonal density bracket and its sieve cross-check --------

BRACKET_ARGV = [
    "density", "m", "--primes", "24", "--tail-limit", "1000000", "--format", "json",
]
# The JSON record printed at the parent commit of the benchmark; the decimal
# fields and digit counts agree with the values measured when the benchmark
# was specified, and `ell` is cross-checked by the 1e8 sieve below.
BRACKET_RECORD = {
    "primes_used": 24,
    "ell": "135010272581424513583935379778615981994009550684416848481693350419275724"
    "784833211912131/46556542627672425393665649561012522378054704399463407936574"
    "55218856947201807417293558400",
    "ell_decimal": "0.0289992050443145835",
    "tail": "0.0000010069140023031",
    "lower": "0.9709997880416831133",
    "upper": "0.9710007949556854165",
    "num_digits": 87,
    "den_digits": 88,
}
SIEVE_LIMIT = 10**8
SIEVE_COUNT = 2899920
SIEVE_MAX_GAP = Fraction(2, 10**6)


def check_bracket(text: str) -> str | None:
    try:
        record = json.loads(text)
    except ValueError:
        return f"not JSON: {text[:80]!r}"
    return None if record == BRACKET_RECORD else f"record {record}"


def check_sieve(count) -> str | None:
    ell = Fraction(BRACKET_RECORD["ell"])
    if abs(Fraction(count, SIEVE_LIMIT) - ell) > SIEVE_MAX_GAP:
        return f"sieve count {count} is farther than 2e-6 from the union density"
    return None if count == SIEVE_COUNT else f"sieve count {count} != {SIEVE_COUNT}"


def bracket_ops() -> list[Op]:
    family = reference.inert_primes(24)
    return [
        cli_op(BRACKET_ARGV, check_bracket),
        Op(
            "sieve_complement_count",
            lambda: gausspow.density.sieve_complement_count(SIEVE_LIMIT, family),
            check_sieve,
        ),
    ]


# --- search: the Gaussian Moser-type equation over a fixed box --------------

# Every exponent k < 100, with m < 60 so that a pass takes under a second and
# a run holds many.
SEARCH_ARGV = ["em-search", "--kmax", "100", "--mmax", "60"]
# (k, m) = (2, 3) with both sides 18i is the only solution in the box.
SEARCH_OUT = '{"k": 2, "m": 3, "lhs_re": 0, "lhs_im": 18}\n'


def search_ops() -> list[Op]:
    return [cli_op(SEARCH_ARGV, expect_text(SEARCH_OUT))]


# --- cells: the three-route sweep, then the value table ---------------------

# n <= 48 keeps a pass near 1 s, so a run holds many.
VERIFY_ARGV = ["verify", "--kmax", "48", "--nmax", "48"]
VERIFY_OUT = "verified: all three routes agree for 1 <= k <= 48, 1 <= n <= 48\n"
TABLE_ARGV = ["table", "--kmax", "300", "--nmax", "300"]
TABLE_SHA256 = "8de5ae8936bd7380df51caa7f05c6aa42fc4fa9113ffc6ef3788d12dea47f8cd"


def check_table(text: str) -> str | None:
    digest = hashlib.sha256(text.encode()).hexdigest()
    return None if digest == TABLE_SHA256 else f"table digest {digest}"


def cells_ops() -> list[Op]:
    return [
        cli_op(VERIFY_ARGV, expect_text(VERIFY_OUT)),
        cli_op(TABLE_ARGV, check_table),
    ]


# --- lookup: seeded single-cell queries -------------------------------------

# Queries of one kind per decade of n: 3 * 6 * 84 = 1512 queries, which put
# 15 samples beyond p99 and keep a pass near 3 s, so a run times each query
# several times.
PER_DECADE = 84
# Sigma candidates drawn per sigma query (see lookup_queries).
SIGMA_POOL = 64


class Query(NamedTuple):
    kind: str  # "sigma", "witness" or "density"
    k: int
    n: int


def _n(rng: random.Random, e: int) -> int:
    """n log-uniform in [10^e, 10^(e+1))."""
    return min(int(10 ** (e + rng.random())), 10 ** (e + 1) - 1)


def _k(rng: random.Random) -> int:
    return rng.randrange(1, 10**8)


def trial_division_depth(n: int) -> int:
    """How far trial division must run to factor n: the larger of the
    second-largest prime factor and the square root of the largest, with
    2 and 3 left out."""
    primes = [p for p in reference.factor(n) if p > 3]
    if not primes:
        return 0
    return max(primes[-2] if len(primes) > 1 else 0, isqrt(primes[-1]))


def lookup_queries(seed: int) -> list[Query]:
    """The seed's queries: sigma, witness and density nk taking turns.

    n is log-uniform in [1e6, 1e12), each decade equally often, and k uniform
    in [1, 1e8).  Sigma's latency tail comes from the few n that trial
    division must run far on, and how many of those 1512 draws hold varies
    much from seed to seed.  So each decade's sigma queries are a systematic
    sample (every SIGMA_POOL-th, from a random start) of SIGMA_POOL times as
    many draws sorted by trial_division_depth: every draw is as likely to be
    picked, so n stays log-uniform, but the share of hard n follows the
    larger pool.
    """
    rng = random.Random(f"lookup:{seed}")
    sigma, witness, density = [], [], []
    for e in range(6, 12):
        pool = [Query("sigma", _k(rng), _n(rng, e)) for _ in range(SIGMA_POOL * PER_DECADE)]
        pool.sort(key=lambda q: trial_division_depth(q.n))
        sigma += pool[rng.randrange(SIGMA_POOL)::SIGMA_POOL]
        witness += [Query("witness", 0, _n(rng, e)) for _ in range(PER_DECADE)]
        density += [Query("density", _k(rng), 0) for _ in range(PER_DECADE)]
    for queries in (sigma, witness, density):
        rng.shuffle(queries)
    return [q for turn in zip(sigma, witness, density) for q in turn]


def lookup_argv(q: Query) -> list[str]:
    if q.kind == "sigma":
        return ["sigma", "--k", str(q.k), "--n", str(q.n)]
    if q.kind == "witness":
        return ["witness", "--n", str(q.n)]
    return ["density", "nk", "--k", str(q.k)]


def lookup_ops(seed: int) -> list[Op]:
    return [
        cli_op(lookup_argv(q), expect_text(reference.lookup_output(*q)))
        for q in lookup_queries(seed)
    ]


def ops(name: str, seed: int) -> list[Op]:
    """The operations of one pass of a workload."""
    if name == "lookup":
        return lookup_ops(seed)
    return {"bracket": bracket_ops, "search": search_ops, "cells": cells_ops}[name]()

