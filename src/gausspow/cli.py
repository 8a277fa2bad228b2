"""Command-line surface: evaluation, table reproduction, sweeps, densities.

Exit codes: 0 success, 1 verified mathematical discrepancy (verify), 2 usage.
All numeric output is exact or directed-rounded: the density bracket prints
the exact union density and rounds the tail and the endpoints outward.

Each call builds only the parser path its arguments name: `main(argv)` adds
the one subcommand (and `density` target) that `argv` starts with, and every
one when it names none, so help and error text match the full parser.  The
parser is built per call and never kept: a shell user starts one process per
command, so a kept parser would save them nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arith import decimal_render, sieve_inert_primes
from .closed_form import (
    MAX_EXPANSION_K, row_witness_primes, sigma_closed, sigma_closed_row,
    sigma_expansion, sigma_expansion_rows,
)
from .congruence_sets import diagonal_witness
from .density import diagonal_bracket, digit_count, zero_row_density
from .gaussian import GaussianResidue, sigma_brute, sigma_brute_sweep
from .moser_search import search_solutions

EPSILON_LEGEND = "ϵ := (1 + i)"

# Largest kmax * nmax * (kmax + nmax)^2 `verify` accepts; it holds nmax to 291
# at kmax = 1.  The brute sweep takes about kmax * nmax^2 exact steps, and the
# expansion rows add kmax * nmax^2 / 2 modular powers and kmax^2 / 4 exact
# binomials per n.  The slowest accepted inputs lie near kmax = 30-48 (30 x 75,
# 48 x 52): about 0.15 s in the three routes on a 2-core x86 host, 0.1 s of it
# the brute sweep, and 0.2-0.25 s for the whole command.  From kmax = 80 up the
# expansion rows dominate; at kmax = 1 the sweep to 291 takes about 0.05 s.
MAX_VERIFY_WORK = 25 * 10**6

# Largest kmax and nmax `table` accepts.  Rows 1..500 fall into 7 row classes,
# so 500 x 500 takes about 0.01 s in `cmd_table` in any format (about 0.2 s
# for the whole command, mostly interpreter start) on a 2-core x86 host.
MAX_TABLE_SIDE = 500


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
    if not (1 <= kmax <= MAX_TABLE_SIDE and 1 <= nmax <= MAX_TABLE_SIDE):
        raise ValueError(f"kmax and nmax must be in [1, {MAX_TABLE_SIDE}]")
    # A row depends on k only through its class (closed_form docstring), so
    # each class row is evaluated and rendered once and printed for every k.
    keys = [(k > 1 and k % 2 == 1, row_witness_primes(k)) for k in range(1, kmax + 1)]
    rows = {}
    for k, key in enumerate(keys, start=1):
        if key not in rows:
            rows[key] = sigma_closed_row(k, nmax)
    if args.format == "json":
        text = {key: json.dumps([[c.re, c.im] for c in row]) for key, row in rows.items()}
        body = ", ".join(text[key] for key in keys)
        print(f'{{"kmax": {kmax}, "nmax": {nmax}, "rows": [{body}]}}')
        return 0
    if args.format == "csv":
        text = {key: ",".join(_cell_csv(c) for c in row) for key, row in rows.items()}
        print("k," + ",".join(str(n) for n in range(1, nmax + 1)))
        for k, key in enumerate(keys, start=1):
            print(f"{k}," + text[key])
        return 0
    cells = {key: [_cell_text(c) for c in row] for key, row in rows.items()}
    width = max(2, max(len(s) for row in cells.values() for s in row))
    text = {key: " ".join(s.rjust(width) for s in row) for key, row in cells.items()}
    head = "k\\n " + " ".join(str(n).rjust(width) for n in range(1, nmax + 1))
    print(EPSILON_LEGEND)
    print(head)
    for k, key in enumerate(keys, start=1):
        print(f"{k:>3}  " + text[key])
    return 0


def cmd_verify(args) -> int:
    kmax, nmax = args.kmax, args.nmax
    if not (1 <= kmax <= MAX_EXPANSION_K and nmax >= 1):
        raise ValueError(f"requires 1 <= kmax <= {MAX_EXPANSION_K} and nmax >= 1")
    if kmax * nmax * (kmax + nmax) ** 2 > MAX_VERIFY_WORK:
        raise ValueError(f"requires kmax * nmax * (kmax + nmax)^2 <= {MAX_VERIFY_WORK}")
    closed_rows = [sigma_closed_row(k, nmax) for k in range(1, kmax + 1)]
    for n, brute in enumerate(sigma_brute_sweep(nmax, kmax), start=1):
        expansion = sigma_expansion_rows(n, kmax)
        for k in range(1, kmax + 1):
            closed = closed_rows[k - 1][n - 1]
            if not (closed == expansion[k - 1] == brute[k - 1]):
                print(
                    f"MISMATCH at k={k} n={n}: closed={closed} "
                    f"expansion={expansion[k - 1]} brute={brute[k - 1]}"
                )
                return 1
    print(f"verified: all three routes agree for 1 <= k <= {kmax}, 1 <= n <= {nmax}")
    return 0


def _print_fraction(q: Fraction, digits: int, fmt: str, label: str) -> None:
    # render first: a rejected digit count must leave stdout empty
    decimal = decimal_render(q, digits, "down")
    fraction = f"{q.numerator}/{q.denominator}"
    if fmt == "json":
        print(json.dumps({label: fraction, "decimal": decimal}))
    else:
        print(fraction)
        print(f"= {decimal} (truncated)")


def cmd_density(args) -> int:
    if args.target == "nk":
        q = zero_row_density(args.k)
        _print_fraction(q, args.digits, args.format, "density")
        return 0
    result = diagonal_bracket(args.primes, args.tail_limit)
    ell, tail = result.union, result.tail
    lo, hi = result.lower, result.upper
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
    print(json.dumps({"n": args.n, "witness": diagonal_witness(args.n)}))
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


def _configure_sigma(p, rest) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("closed", "expansion", "brute"), default="closed"
    )
    p.set_defaults(func=cmd_sigma)


def _configure_table(p, rest) -> None:
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_table)


def _configure_verify(p, rest) -> None:
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_verify)


def _configure_density_nk(p, rest) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--digits", type=int, default=19)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_density, target="nk")


def _configure_density_m(p, rest) -> None:
    p.add_argument("--primes", type=int, default=20)
    p.add_argument("--tail-limit", type=int, default=10**6, dest="tail_limit")
    p.add_argument("--digits", type=int, default=19)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_density, target="m")


DENSITY_TARGETS = {
    "nk": ("zero density of one table row", _configure_density_nk),
    "m": ("bracket the diagonal zero density", _configure_density_m),
}


def _configure_density(p, rest) -> None:
    _add_commands(p, "target", DENSITY_TARGETS, rest)
    p.set_defaults(func=cmd_density)


def _configure_witness(p, rest) -> None:
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_witness)


def _configure_em_search(p, rest) -> None:
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.set_defaults(func=cmd_em_search)


def _configure_primes(p, rest) -> None:
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_primes)


# Subcommand name -> (help line, configure(parser, argv after the name)).
COMMANDS = {
    "sigma": ("evaluate the power sum mod n", _configure_sigma),
    "table": ("render the k x n value table", _configure_table),
    "verify": ("sweep all three evaluation routes", _configure_verify),
    "density": ("exact density computations", _configure_density),
    "witness": ("smallest diagonal witness prime for n", _configure_witness),
    "em-search": ("exhaustive equation search", _configure_em_search),
    "primes": ("list the smallest inert primes", _configure_primes),
}


def _add_commands(parser, dest: str, table: dict, argv) -> None:
    """Add `table`'s subparsers to `parser`: only the one `argv[0]` names,
    if any, else all of them.

    A lone subparser keeps the full choice list as its metavar, so usage
    lines read as with all of them.  The metavar stays unset otherwise: it
    would replace `dest` (`command`, `target`) in the "required" and
    "invalid choice" errors, which only arise when no valid name is given.
    """
    name = argv[0] if argv else None
    if name in table:
        metavar = "{" + ",".join(table) + "}"
        sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
        chosen, rest = {name: table[name]}, argv[1:]
    else:
        sub = parser.add_subparsers(dest=dest, required=True)
        chosen, rest = table, ()
    for cmd, (help_text, configure) in chosen.items():
        configure(sub.add_parser(cmd, help=help_text), rest)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for `argv`: only the subcommand (and `density` target) it
    names, or every one when it names none.  `build_parser()` is the full
    parser."""
    parser = argparse.ArgumentParser(
        prog="gausspow",
        description="Exact Gaussian-integer power sums mod n, congruence sets, "
        "densities, and equation search.",
    )
    _add_commands(parser, "command", COMMANDS, argv)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
