"""Command-line surface: evaluation, table reproduction, sweeps, densities.

Exit codes: 0 success, 1 verified mathematical discrepancy (verify), 2 usage.
All numeric output is exact or directed-rounded: the density bracket prints
the exact union density and rounds the tail and the endpoints outward.

A valid command is parsed by its leaf parser alone: when `argv` starts with a
full subcommand path (`sigma`, ..., `density nk`), `main(argv)` builds the one
parser that path's subparser would be, with the same `prog`, and parses the
rest with it.  Every other `argv`, and a leaf parse that leaves extras, goes
to the full parser, so help and error text are the full parser's.  Parsers
are built per call and never kept: a shell user starts one process per
command, so a kept parser would save them nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arith import decimal_render, sieve_inert_primes
from .closed_form import (
    MAX_EXPANSION_K, row_class, sigma_closed, sigma_closed_row, sigma_expansion,
    sigma_expansion_rows,
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
# the brute sweep, and 0.22-0.24 s for the whole command, about 0.09 s of that
# interpreter start and the package import.  From kmax = 80 up the
# expansion rows dominate; at kmax = 1 the sweep to 291 takes about 0.05 s.
MAX_VERIFY_WORK = 25 * 10**6

# Largest kmax and nmax `table` accepts.  Rows 1..500 fall into 7 row classes,
# so 500 x 500 takes about 0.01 s in `cmd_table` in any format (about 0.11 s
# for the whole command, 0.09 s of it interpreter start and the package
# import) on a 2-core x86 host.
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
    keys = [row_class(k) for k in range(1, kmax + 1)]
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


def _configure_sigma(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("closed", "expansion", "brute"), default="closed"
    )
    p.set_defaults(func=cmd_sigma)


def _configure_table(p) -> None:
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_table)


def _configure_verify(p) -> None:
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_verify)


def _configure_density_nk(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--digits", type=int, default=19)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_density, target="nk")


def _configure_density_m(p) -> None:
    p.add_argument("--primes", type=int, default=20)
    p.add_argument("--tail-limit", type=int, default=10**6, dest="tail_limit")
    p.add_argument("--digits", type=int, default=19)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_density, target="m")


DENSITY_TARGETS = {
    "nk": ("zero density of one table row", _configure_density_nk),
    "m": ("bracket the diagonal zero density", _configure_density_m),
}


def _configure_witness(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_witness)


def _configure_em_search(p) -> None:
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.set_defaults(func=cmd_em_search)


def _configure_primes(p) -> None:
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_primes)


# Subcommand name -> (help line, configure(parser)), or for `density`
# (help line, (dest, table of targets)): its parser gets subparsers of its own.
COMMANDS = {
    "sigma": ("evaluate the power sum mod n", _configure_sigma),
    "table": ("render the k x n value table", _configure_table),
    "verify": ("sweep all three evaluation routes", _configure_verify),
    "density": ("exact density computations", ("target", DENSITY_TARGETS)),
    "witness": ("smallest diagonal witness prime for n", _configure_witness),
    "em-search": ("exhaustive equation search", _configure_em_search),
    "primes": ("list the smallest inert primes", _configure_primes),
}


def _add_commands(parser, dest: str, table: dict) -> None:
    """Add a subparser to `parser` for every entry of `table`."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for cmd, (help_text, configure) in table.items():
        p = sub.add_parser(cmd, help=help_text)
        if isinstance(configure, tuple):
            _add_commands(p, *configure)
        else:
            configure(p)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand and `density` target."""
    parser = argparse.ArgumentParser(
        prog="gausspow",
        description="Exact Gaussian-integer power sums mod n, congruence sets, "
        "densities, and equation search.",
    )
    _add_commands(parser, "command", COMMANDS)
    return parser


def _parse_leaf(argv: list) -> argparse.Namespace | None:
    """The namespace of `argv` parsed by the leaf parser of the full command
    path it starts with, or None when it names no full path or the leaf
    leaves extras.

    The leaf is built as its subparser is (same `prog`), and the levels above
    it hand everything after its name to it, so what it prints and parses is
    the full parser's.  It sets no `command`, which no `cmd_*` reads.
    """
    table = COMMANDS
    for depth, name in enumerate(argv, start=1):
        if name not in table:
            return None
        configure = table[name][1]
        if isinstance(configure, tuple):
            table = configure[1]
            continue
        parser = argparse.ArgumentParser(prog=" ".join(["gausspow", *argv[:depth]]))
        configure(parser)
        args, extras = parser.parse_known_args(argv[depth:])
        return None if extras else args
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_leaf(argv)
    if args is None:  # the root and `density` levels' help and errors
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
