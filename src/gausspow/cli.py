"""Command-line surface: evaluation, table reproduction, sweeps, densities.

Exit codes: 0 success, 1 verified mathematical discrepancy (verify), 2 usage.
All numeric output is exact or directed-rounded: the density bracket prints
the exact union density and rounds the tail and the endpoints outward.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arith import decimal_render, sieve_inert_primes
from .closed_form import MAX_EXPANSION_K, sigma_closed, sigma_expansion
from .congruence_sets import diagonal_witness
from .density import diagonal_bracket, digit_count, zero_row_density
from .gaussian import GaussianResidue, sigma_brute, sigma_brute_rows
from .moser_search import search_solutions

EPSILON_LEGEND = "ϵ := (1 + i)"

# Largest kmax * nmax * (kmax + nmax)^2 `verify` accepts, a bound on its three
# costs: brute rows of kmax * nmax^3 / 3 steps, (kmax * nmax)^2 / 2 modular
# powers, and exact binomials growing as kmax^3 per n.  It is also the only
# bound on nmax, which it holds to 291 (at kmax = 1); that slowest accepted
# input takes 3-5 s on a 2-core x86 host.
MAX_VERIFY_WORK = 25 * 10**6


def _cell_text(r: GaussianResidue) -> str:
    """Table cell: 0, plain integer, or a multiple of epsilon = 1+i."""
    if r.im == 0:
        return str(r.re)
    if r.re == r.im:
        return "ϵ" if r.re == 1 else f"{r.re}ϵ"
    return f"{r.re}+{r.im}i"


def _cell_csv(r: GaussianResidue) -> str:
    return "0" if r.is_zero() else f"{r.re}+{r.im}i"


def cmd_sigma(args) -> int:
    k, n = args.k, args.n
    if args.method == "closed":
        r = sigma_closed(k, n)
    elif args.method == "expansion":
        r = sigma_expansion(k, n)
    else:
        r = sigma_brute(k, n)
    print(str(r))
    print(json.dumps({"k": k, "n": n, "re": r.re, "im": r.im, "method": args.method}))
    return 0


def cmd_table(args) -> int:
    kmax, nmax = args.kmax, args.nmax
    if not (1 <= kmax <= 500 and 1 <= nmax <= 500):
        raise ValueError("kmax and nmax must be in [1, 500]")
    grid = [[sigma_closed(k, n) for n in range(1, nmax + 1)] for k in range(1, kmax + 1)]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "kmax": kmax,
                    "nmax": nmax,
                    "rows": [[[c.re, c.im] for c in row] for row in grid],
                }
            )
        )
        return 0
    if args.format == "csv":
        print("k," + ",".join(str(n) for n in range(1, nmax + 1)))
        for k, row in enumerate(grid, start=1):
            print(f"{k}," + ",".join(_cell_csv(c) for c in row))
        return 0
    cells = [[_cell_text(c) for c in row] for row in grid]
    width = max(2, max(len(s) for row in cells for s in row))
    head = "k\\n " + " ".join(str(n).rjust(width) for n in range(1, nmax + 1))
    print(EPSILON_LEGEND)
    print(head)
    for k, row in enumerate(cells, start=1):
        print(f"{k:>3}  " + " ".join(s.rjust(width) for s in row))
    return 0


def cmd_verify(args) -> int:
    kmax, nmax = args.kmax, args.nmax
    if not (1 <= kmax <= MAX_EXPANSION_K and nmax >= 1):
        raise ValueError(f"requires 1 <= kmax <= {MAX_EXPANSION_K} and nmax >= 1")
    if kmax * nmax * (kmax + nmax) ** 2 > MAX_VERIFY_WORK:
        raise ValueError(f"requires kmax * nmax * (kmax + nmax)^2 <= {MAX_VERIFY_WORK}")
    for n in range(1, nmax + 1):
        brute = sigma_brute_rows(n, kmax)
        for k in range(1, kmax + 1):
            closed = sigma_closed(k, n)
            expanded = sigma_expansion(k, n)
            if not (closed == expanded == brute[k - 1]):
                print(
                    f"MISMATCH at k={k} n={n}: closed={closed} "
                    f"expansion={expanded} brute={brute[k - 1]}"
                )
                return 1
    print(f"verified: all three routes agree for 1 <= k <= {kmax}, 1 <= n <= {nmax}")
    return 0


def _print_fraction(q: Fraction, digits: int, fmt: str, label: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                {
                    label: f"{q.numerator}/{q.denominator}",
                    "decimal": decimal_render(q, digits, "down"),
                }
            )
        )
    else:
        print(f"{q.numerator}/{q.denominator}")
        print(f"= {decimal_render(q, digits, 'down')} (truncated)")


def cmd_density(args) -> int:
    if args.target == "nk":
        q = zero_row_density(args.k)
        _print_fraction(q, args.digits, args.format, "density")
        return 0
    result = diagonal_bracket(args.primes, args.tail_limit)
    ell, tail = result.union, result.tail
    lo, hi = result.interval.lower, result.interval.upper
    d = args.digits
    record = {
        "primes_used": len(result.primes_used),
        "ell": f"{ell.numerator}/{ell.denominator}",
        "ell_decimal": decimal_render(ell, d, "down"),
        "tail": decimal_render(tail, d, "up"),
        "lower": decimal_render(lo, d, "down"),
        "upper": decimal_render(hi, d, "up"),
        "num_digits": digit_count(ell.numerator),
        "den_digits": digit_count(ell.denominator),
    }
    if args.format == "json":
        print(json.dumps(record))
    else:
        print(f"union density over first {record['primes_used']} inert primes:")
        print(f"  {record['ell']}")
        print(f"  = {record['ell_decimal']} (truncated; "
              f"{record['num_digits']}-digit numerator, "
              f"{record['den_digits']}-digit denominator)")
        print(f"tail bound: {record['tail']} (rounded up)")
        print(f"density bracket: [{record['lower']}, {record['upper']}]")
    return 0


def cmd_witness(args) -> int:
    report = diagonal_witness(args.n)
    print(json.dumps({"n": report.n, "witness": report.witness}))
    return 0


def cmd_em_search(args) -> int:
    for sol in search_solutions(args.kmax, args.mmax):
        print(
            json.dumps(
                {"k": sol.k, "m": sol.m, "lhs_re": sol.value.re, "lhs_im": sol.value.im}
            )
        )
    return 0


def cmd_primes(args) -> int:
    fam = sieve_inert_primes(args.count)
    if args.format == "json":
        print(json.dumps(list(fam)))
    else:
        print(" ".join(str(p) for p in fam))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausspow",
        description="Exact Gaussian-integer power sums mod n, congruence sets, "
        "densities, and equation search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="evaluate the power sum mod n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("closed", "expansion", "brute"), default="closed"
    )
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("table", help="render the k x n value table")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="sweep all three evaluation routes")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("density", help="exact density computations")
    dsub = p.add_subparsers(dest="target", required=True)
    pnk = dsub.add_parser("nk", help="zero density of one table row")
    pnk.add_argument("--k", type=int, required=True)
    pnk.add_argument("--digits", type=int, default=19)
    pnk.add_argument("--format", choices=("text", "json"), default="text")
    pnk.set_defaults(func=cmd_density, target="nk")
    pm = dsub.add_parser("m", help="bracket the diagonal zero density")
    pm.add_argument("--primes", type=int, default=20)
    pm.add_argument("--tail-limit", type=int, default=10**6, dest="tail_limit")
    pm.add_argument("--digits", type=int, default=19)
    pm.add_argument("--format", choices=("text", "json"), default="text")
    pm.set_defaults(func=cmd_density, target="m")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("witness", help="smallest diagonal witness prime for n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("em-search", help="exhaustive equation search")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.set_defaults(func=cmd_em_search)

    p = sub.add_parser("primes", help="list the smallest inert primes")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_primes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
