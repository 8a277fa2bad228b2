"""Command-line surface: evaluation, table reproduction, sweeps, densities.

Exit codes: 0 success, 1 verified mathematical discrepancy (verify), 2 usage.
All numeric output is exact or directed-rounded: the density bracket prints
the exact union density and rounds the tail and the endpoints outward.

Every command is one row of `COMMANDS`, keyed by its command path
(`("sigma",)`, ..., `("density", "nk")`), and `_configure` adds the row's
options to the leaf parser and to the full parser alike.  A valid command is
parsed by its leaf parser alone: when `argv` starts with a command path,
`main(argv)` looks the path up, builds the one parser that path's subparser
would be, with the same `prog`, and parses the rest with it into the namespace
the full parser would return.  Every other `argv`, and a leaf parse that
leaves extras, goes to the full parser, so help and error text are the full
parser's.  Parsers are built per call and never kept: a shell user starts one
process per command, so a kept parser would save them nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import decimal_render, sieve_inert_primes
from .closed_form import (
    MAX_EXPANSION_K, row_class, sigma_closed, sigma_closed_row, sigma_expansion,
    sigma_expansion_sweep,
)
from .congruence_sets import diagonal_witness
from .density import diagonal_bracket, digit_count, zero_row_density
from .gaussian import GaussianResidue, sigma_brute, sigma_brute_sweep
from .moser_search import search_solutions

EPSILON_LEGEND = "ϵ := (1 + i)"

# Largest kmax * nmax * (kmax + nmax)^2 `verify` accepts; it holds nmax to 291
# at kmax = 1.  The bound does not track the cost, whose peak lies inside the
# range of kmax and not at its ends; its value fixes the accepted inputs.
# The brute sweep takes about kmax * nmax^2 / 2 exact steps, the expansion
# sweep kmax^2 * nmax / 2 products of a binomial and two power sums, and the
# closed column one row per row class.  On a 2-core x86 host, in the three
# routes: the slowest accepted inputs, 30 x 75 and 48 x 52, take about 25 ms
# (18-20 ms of it the brute sweep) and the whole command about 0.065 s,
# 0.025 s of that interpreter start; 1 x 291 takes about 8 ms (7 ms the brute
# sweep) and 290 x 1 about 4 ms, nearly all of it the expansion sweep.
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


def _class_rows(kmax: int, nmax: int) -> tuple[list, dict]:
    """The row class of each k in 1..kmax, and `sigma_closed_row(k, nmax)`
    evaluated once per class: a row depends on k only through its class
    (closed_form docstring)."""
    keys = [row_class(k) for k in range(1, kmax + 1)]
    rows = {}
    for k, key in enumerate(keys, start=1):
        if key not in rows:
            rows[key] = sigma_closed_row(k, nmax)
    return keys, rows


def cmd_table(args) -> int:
    kmax, nmax = args.kmax, args.nmax
    if not (1 <= kmax <= MAX_TABLE_SIDE and 1 <= nmax <= MAX_TABLE_SIDE):
        raise ValueError(f"kmax and nmax must be in [1, {MAX_TABLE_SIDE}]")
    # each class row is rendered once and printed for every k of its class
    keys, rows = _class_rows(kmax, nmax)
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
    keys, closed_rows = _class_rows(kmax, nmax)
    routes = zip(sigma_brute_sweep(nmax, kmax), sigma_expansion_sweep(nmax, kmax))
    for n, (brute, expansion) in enumerate(routes, start=1):
        for k in range(1, kmax + 1):
            closed = closed_rows[keys[k - 1]][n - 1]
            if not (closed == expansion[k - 1] == brute[k - 1]):
                print(
                    f"MISMATCH at k={k} n={n}: closed={closed} "
                    f"expansion={expansion[k - 1]} brute={brute[k - 1]}"
                )
                return 1
    print(f"verified: all three routes agree for 1 <= k <= {kmax}, 1 <= n <= {nmax}")
    return 0


def cmd_density_nk(args) -> int:
    q = zero_row_density(args.k)
    # render first: a rejected digit count must leave stdout empty
    decimal = decimal_render(q, args.digits, "down")
    fraction = f"{q.numerator}/{q.denominator}"
    if args.format == "json":
        print(json.dumps({"density": fraction, "decimal": decimal}))
    else:
        print(fraction)
        print(f"= {decimal} (truncated)")
    return 0


def cmd_density_m(args) -> int:
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


_REQUIRED_INT = {"type": int, "required": True}
_DIGITS = ("--digits", {"type": int, "default": 19})
_TEXT_OR_JSON = ("--format", {"choices": ("text", "json"), "default": "text"})

# The dests the full parser stores a command path's words under: the first
# word as `command`, a `density` target as `target`.
_DESTS = ("command", "target")
_DENSITY_HELP = "exact density computations"

# Command path -> (help line, cmd_* function, [(flag, add_argument keywords), ...])
COMMANDS = {
    ("sigma",): ("evaluate the power sum mod n", cmd_sigma,
                 [("--k", _REQUIRED_INT), ("--n", _REQUIRED_INT),
                  ("--method", {"choices": ("closed", "expansion", "brute"),
                                "default": "closed"})]),
    ("table",): ("render the k x n value table", cmd_table,
                 [("--kmax", _REQUIRED_INT), ("--nmax", _REQUIRED_INT),
                  ("--format", {"choices": ("text", "csv", "json"), "default": "text"})]),
    ("verify",): ("sweep all three evaluation routes", cmd_verify,
                  [("--kmax", _REQUIRED_INT), ("--nmax", _REQUIRED_INT)]),
    ("density", "nk"): ("zero density of one table row", cmd_density_nk,
                        [("--k", _REQUIRED_INT), _DIGITS, _TEXT_OR_JSON]),
    ("density", "m"): ("bracket the diagonal zero density", cmd_density_m,
                       [("--primes", {"type": int, "default": 20}),
                        ("--tail-limit", {"type": int, "default": 10**6}),
                        _DIGITS, _TEXT_OR_JSON]),
    ("witness",): ("smallest diagonal witness prime for n", cmd_witness,
                   [("--n", _REQUIRED_INT)]),
    ("em-search",): ("exhaustive equation search", cmd_em_search,
                     [("--kmax", _REQUIRED_INT), ("--mmax", _REQUIRED_INT)]),
    ("primes",): ("list the smallest inert primes", cmd_primes,
                  [("--count", _REQUIRED_INT), _TEXT_OR_JSON]),
}


def _configure(parser, func, options) -> None:
    """Add `options` to `parser` in order, and have it call `func`."""
    for flag, keywords in options:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command path of `COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="gausspow",
        description="Exact Gaussian-integer power sums mod n, congruence sets, "
        "densities, and equation search.",
    )
    # the subparsers of each level, keyed by the path to it
    levels = {(): parser.add_subparsers(dest=_DESTS[0], required=True)}
    for path, (help_text, func, options) in COMMANDS.items():
        if path[:-1] not in levels:  # `density`, at its first target
            density = levels[()].add_parser(path[0], help=_DENSITY_HELP)
            levels[path[:-1]] = density.add_subparsers(dest=_DESTS[1], required=True)
        _configure(levels[path[:-1]].add_parser(path[-1], help=help_text), func, options)
    return parser


def _parse_leaf(argv: list) -> argparse.Namespace | None:
    """The namespace of `argv` parsed by the leaf parser of the command path
    it starts with, or None when it starts with no path or the leaf leaves
    extras.

    The leaf is built as its subparser is (same `prog`), and the levels above
    it hand everything after the path to it, so what it prints and parses is
    the full parser's.  The namespace starts with the path's words under
    `_DESTS`, so it equals the full parser's.
    """
    path = next((p for p in (tuple(argv[:1]), tuple(argv[:2])) if p in COMMANDS), None)
    if path is None:
        return None
    _, func, options = COMMANDS[path]
    parser = argparse.ArgumentParser(prog=" ".join(["gausspow", *path]))
    _configure(parser, func, options)
    namespace = argparse.Namespace(**dict(zip(_DESTS, path)))
    args, extras = parser.parse_known_args(argv[len(path):], namespace)
    return None if extras else args


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
