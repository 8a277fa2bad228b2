"""CLI surface: output formats, exit-code contract, JSON round-trips."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest

import gausspow
from gausspow import cli
from gausspow.arith import MAX_FACTOR_INPUT, MAX_INERT_COUNT
from gausspow.cli import COMMANDS, MAX_TABLE_SIDE, MAX_VERIFY_WORK, build_parser, main
from gausspow.closed_form import (
    MAX_EXPANSION_K, MAX_EXPANSION_N, MAX_ROW_K, sigma_closed, sigma_closed_row,
)
from gausspow.gaussian import MAX_BRUTE_K_BITS, MAX_BRUTE_WORK, GaussianResidue
from gausspow.moser_search import SEARCH_GUARD


def full_parser_main(argv):
    """`main` with every command line parsed by the full parser: the oracle
    for what `main` prints and returns."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_cli(capsys, *argv, entry=main):
    try:
        code = entry(list(argv))
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSigma:
    def test_epsilon_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--k", "3", "--n", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "5+5i (mod 10)"
        record = json.loads(lines[1])
        assert record == {"k": 3, "n": 10, "re": 5, "im": 5, "method": "closed"}

    def test_real_entry(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--k", "8", "--n", "6")
        assert code == 0
        assert out.splitlines()[0] == "2+0i (mod 6)"

    def test_mod_one(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--k", "7", "--n", "1")
        assert code == 0
        assert out.splitlines()[0] == "0+0i (mod 1)"

    def test_methods_agree(self, capsys):
        outputs = set()
        for method in ("closed", "expansion", "brute"):
            code, out, _ = run_cli(
                capsys, "sigma", "--k", "12", "--n", "21", "--method", method
            )
            assert code == 0
            outputs.add(out.splitlines()[0])
        assert len(outputs) == 1

    def test_brute_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "sigma", "--k", "2", "--n", "6000", "--method", "brute"
        )
        assert code == 2
        assert str(MAX_BRUTE_WORK) in err

    def test_bad_input_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "sigma", "--k", "0", "--n", "5")
        assert code == 2
        assert "error" in err


class TestTable:
    def test_text_has_legend_and_epsilon_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--kmax", "3", "--nmax", "6")
        assert code == 0
        assert "ϵ := (1 + i)" in out
        rows = out.strip().splitlines()
        assert rows[-1].split()[1:] == ["0", "ϵ", "0", "0", "0", "3ϵ"]

    def test_all_zero_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--kmax", "2", "--nmax", "24")
        assert code == 0
        for line in out.strip().splitlines()[2:]:
            assert set(line.split()[1:]) == {"0"}

    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--kmax", "1", "--nmax", "1")
        assert code == 0
        assert out.strip().splitlines()[-1].split() == ["1", "0"]

    def test_text_cell_general_case(self):
        # no closed-form cell has Re and Im nonzero and unequal
        assert cli._cell_text(GaussianResidue(1, 2, 5)) == "1+2i"

    def test_csv_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kmax", "3", "--nmax", "6", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,1,2,3,4,5,6"
        assert lines[3] == "3,0,1+1i,0,0,0,3+3i"

    def test_size_guard(self, capsys):
        code, _, err = run_cli(capsys, "table", "--kmax", "501", "--nmax", "5")
        assert code == 2
        assert "500" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kmax", "8", "--nmax", "12", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert json.loads(json.dumps(record)) == record
        assert record["rows"][7][11] == [8, 0]  # k = 8, n = 12
        assert record["rows"][2][1] == [1, 1]  # k = 3, n = 2


def reference_table(kmax, nmax, fmt):
    """`table` stdout rendered cell by cell over `sigma_closed`, with no row
    classes: the per-cell renderer the class rows must reproduce."""
    grid = [[sigma_closed(k, n) for n in range(1, nmax + 1)] for k in range(1, kmax + 1)]
    if fmt == "json":
        rows = [[[c.re, c.im] for c in row] for row in grid]
        return json.dumps({"kmax": kmax, "nmax": nmax, "rows": rows}) + "\n"
    if fmt == "csv":
        lines = ["k," + ",".join(str(n) for n in range(1, nmax + 1))]
        for k, row in enumerate(grid, start=1):
            lines.append(f"{k}," + ",".join(cli._cell_csv(c) for c in row))
        return "".join(line + "\n" for line in lines)
    cells = [[cli._cell_text(c) for c in row] for row in grid]
    width = max(2, max(len(s) for row in cells for s in row))
    lines = [
        cli.EPSILON_LEGEND,
        "k\\n " + " ".join(str(n).rjust(width) for n in range(1, nmax + 1)),
    ]
    for k, row in enumerate(cells, start=1):
        lines.append(f"{k:>3}  " + " ".join(s.rjust(width) for s in row))
    return "".join(line + "\n" for line in lines)


class TestTableClassRows:
    @pytest.mark.parametrize(
        "kmax, nmax",
        [
            (1, 1), (3, 6), (8, 12), (24, 24),
            (300, 300), (500, 500), (499, 137), (17, 500),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_stdout_matches_per_cell_renderer(self, capsys, kmax, nmax, fmt):
        code, out, err = run_cli(
            capsys, "table", "--kmax", str(kmax), "--nmax", str(nmax), "--format", fmt
        )
        assert (code, err) == (0, "")
        # compare line by line: pytest's diff of two ~1 MB strings would stall
        # the run for minutes instead of failing it
        got = out.split("\n")
        want = reference_table(kmax, nmax, fmt).split("\n")
        assert len(got) == len(want)
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert bad is None, (bad, got[bad], want[bad])

    def test_benchmark_digest(self, capsys):
        # the SHA-256 `perfbench` checks for the `cells` workload's table
        code, out, _ = run_cli(capsys, "table", "--kmax", "300", "--nmax", "300")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (
            "8de5ae8936bd7380df51caa7f05c6aa42fc4fa9113ffc6ef3788d12dea47f8cd"
        )


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--kmax", "10", "--nmax", "10")
        assert code == 0
        assert "verified" in out

    def test_trivial_sweep(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--kmax", "1", "--nmax", "1")
        assert code == 0

    def test_cap(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--kmax", "2", "--nmax", "301")
        assert code == 2

    def test_class_rows_match_each_row(self):
        # verify and table read row k from its class; brute and expansion
        # still run every k, so a wrong key would also show as a MISMATCH
        keys, rows = cli._class_rows(300, 300)
        assert len(keys) == 300
        for k, key in enumerate(keys, start=1):
            assert rows[key] == sigma_closed_row(k, 300), k

    @pytest.mark.parametrize(
        "route", ["sigma_closed_row", "sigma_expansion_sweep", "sigma_brute_sweep"]
    )
    def test_corrupted_formula_exits_one(self, capsys, monkeypatch, route):
        import gausspow.cli as cli_mod
        from gausspow.gaussian import GaussianResidue

        # k = 1, n = 1 is the first cell swept; every route gives 0 there, so
        # a value of 1 mod 2 disagrees with the two uncorrupted routes
        def broken_cell(k, n):
            return GaussianResidue(1, 0, max(n, 2))

        def broken_row(k, n_max):
            return [broken_cell(k, n) for n in range(1, n_max + 1)]

        def broken_sweep(n_max, k_max):
            return [
                [broken_cell(k, n) for k in range(1, k_max + 1)]
                for n in range(1, n_max + 1)
            ]

        broken = {
            "sigma_closed_row": broken_row,
            "sigma_expansion_sweep": broken_sweep,
            "sigma_brute_sweep": broken_sweep,
        }[route]
        monkeypatch.setattr(cli_mod, route, broken)
        code, out, _ = run_cli(capsys, "verify", "--kmax", "3", "--nmax", "3")
        assert code == 1
        assert out.startswith("MISMATCH at k=1 n=1: ")


# `density m --primes 24 --tail-limit 1000000 --format json`; the decimals are
# the renderings of the exact tail sum, which the outward-rounded tail keeps.
BRACKET_24_RECORD = {
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
# The same run with --digits 200, rendered from the exact tail sum.
BRACKET_24_DIGITS_200 = {
    "tail": "0.000001006914002303065308095140640565225349587647992326198086164183954"
    "897744010360460031442356576696944359380197109723400983356580509760115332555"
    "31566536318582461132001639796888042634207386981715080187",
    "lower": "0.97099978804168311336475675428359899072750014821563283885878613593"
    "198846483974512587936725509598791225162925933103990143745759561299568184617"
    "011456217324357990755553483949610503914585794218095567828185",
    "upper": "0.97100079495568541643006484942423955595284973586362516505687230011"
    "594336258375548633939869745256460919598863952814962483844095219350544196150"
    "266987783860676573216685485589407391957220001605077282908373",
}


class TestDensity:
    def test_row_density(self, capsys):
        code, out, _ = run_cli(capsys, "density", "nk", "--k", "8")
        assert code == 0
        assert out == "7/9\n= 0.7777777777777777777 (truncated)\n"

    def test_row_density_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "nk", "--k", "3", "--format", "json"
        )
        assert code == 0
        assert out == '{"density": "3/4", "decimal": "0.7500000000000000000"}\n'

    def test_bracket_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "density", "m",
            "--primes", "2",
            "--tail-limit", "1000000",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["primes_used"] == 2
        assert record["ell"] == "101/3528"
        assert float(record["lower"]) < 0.9710008 < float(record["upper"])

    def test_bracket_24_record(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "density", "m",
            "--primes", "24",
            "--tail-limit", "1000000",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == BRACKET_24_RECORD

    def test_bracket_24_at_200_digits(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "density", "m",
            "--primes", "24",
            "--tail-limit", "1000000",
            "--format", "json",
            "--digits", "200",
        )
        assert code == 0
        record = json.loads(out)
        for field, expected in BRACKET_24_DIGITS_200.items():
            assert record[field] == expected, field

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("digits", ["0", "201"])
    def test_rejected_digits_print_nothing(self, capsys, fmt, digits):
        code, out, err = run_cli(
            capsys, "density", "nk", "--k", "8", "--digits", digits, "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err == "error: digits must be in [1, 200]\n"


class TestWitnessAndSearch:
    def test_witness_json(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--n", "24")
        assert code == 0
        assert json.loads(out) == {"n": 24, "witness": 3}
        code, out, _ = run_cli(capsys, "witness", "--n", "25")
        assert json.loads(out) == {"n": 25, "witness": None}

    def test_search_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "em-search", "--kmax", "30", "--mmax", "30")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records == [{"k": 2, "m": 3, "lhs_re": 0, "lhs_im": 18}]

    def test_search_has_no_workers_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["em-search", "--kmax", "5", "--mmax", "5", "--workers", "2"])
        assert exc.value.code == 2


# Usage errors that name a full command path and leave extras after its
# options: the leaf parser takes the path, and the full parser the error.
LEAF_EXTRAS_ARGVS = [
    ["sigma", "--k", "1", "--n", "2", "--bogus"],
    ["sigma", "--k", "1", "--n", "2", "extra"],
    ["primes", "--count", "4", "sigma"],
    ["density", "nk", "--k", "8", "extra"],
    ["density", "m", "--primes", "4", "--tail-limit", "100", "extra"],
    ["em-search", "--kmax", "5", "--mmax", "5", "--workers", "2"],
]

# Command lines whose exit code, stdout and stderr must not depend on whether
# `main` parses with a leaf parser or the full one: the root and every help
# screen, usage errors before, inside and after a command, argparse's edge
# cases (`=`, `--`, repeats, abbreviations, negative numbers) and a few runs.
PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["sig"], ["--k", "1", "sigma"],
    ["-h", "sigma"],
    # every level below the root, `density` once per target
    *([*path[:depth], "-h"] for path in COMMANDS for depth in range(1, len(path) + 1)),
    ["density"], ["density", "x"], ["density", "--k", "8", "nk"],
    ["density", "nk", "m"],
    ["sigma", "--k", "1"], ["witness"], ["density", "nk"],
    ["sigma", "--k", "x", "--n", "2"], ["density", "nk", "--k", "8.5"],
    ["sigma", "--k", "1", "--n", "2", "--method", "fast"],
    ["table", "--kmax", "2", "--nmax", "2", "--format", "xml"],
    ["density", "m", "--format", "csv"],
    *LEAF_EXTRAS_ARGVS,
    ["sigma", "--k", "3", "--n", "10"], ["sigma", "--k", "0", "--n", "5"],
    ["density", "nk", "--k", "8"], ["witness", "--n", "24"],
    ["sigma", "--k=3", "--n=10"],
    ["sigma", "--", "--k", "3", "--n", "10"],
    ["sigma", "--k", "3", "--n", "10", "--"],
    ["--", "sigma", "--k", "3", "--n", "10"],
    ["sigma", "--k", "2", "--k", "3", "--n", "10"],
    ["sigma", "--he"], ["density", "nk", "--he"],
    ["table", "--kmax", "2", "--nmax", "2", "--f", "csv"],
    ["sigma", "-k", "3", "--n", "10"],
    ["sigma", "--k", "3", "--n", "-5"],
]

# One valid command line per subcommand and per `density` target.
VALID_ARGVS = [
    ["sigma", "--k", "3", "--n", "10", "--method", "brute"],
    ["table", "--kmax", "3", "--nmax", "4", "--format", "csv"],
    ["verify", "--kmax", "2", "--nmax", "2"],
    ["density", "nk", "--k", "8", "--digits", "5"],
    ["density", "m", "--primes", "4", "--tail-limit", "1000000"],
    ["witness", "--n", "24"],
    ["em-search", "--kmax", "5", "--mmax", "5"],
    ["primes", "--count", "4", "--format", "json"],
]


def argv_id(argv):
    return " ".join(argv) or "(no arguments)"


class TestParserPaths:
    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=argv_id)
    def test_output_matches_full_parser(self, capsys, monkeypatch, columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        got = run_cli(capsys, *argv)
        assert got == run_cli(capsys, *argv, entry=full_parser_main)

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=argv_id)
    def test_namespace_matches_full_parser(self, argv):
        assert vars(cli._parse_leaf(argv)) == vars(build_parser().parse_args(argv))

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts of the parsers `main` builds: every `ArgumentParser`, and
        the calls of `build_parser`."""
        counts = {"parsers": 0, "build_parser": 0}
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            counts["parsers"] += 1
            init(self, *args, **kwargs)

        def counting_build_parser():
            counts["build_parser"] += 1
            return build_parser()

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        return counts

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=argv_id)
    def test_valid_command_builds_its_leaf_alone(self, capsys, built, argv):
        assert run_cli(capsys, *argv)[0] == 0
        assert built == {"parsers": 1, "build_parser": 0}

    @pytest.mark.parametrize("argv", LEAF_EXTRAS_ARGVS, ids=argv_id)
    def test_leaf_extras_fall_back_to_full_parser(self, capsys, built, argv):
        assert run_cli(capsys, *argv)[0] == 2
        # the leaf, then the full tree: a parser per leaf and per level above
        full_tree = len(COMMANDS) + len({path[:-1] for path in COMMANDS})
        assert built == {"parsers": 1 + full_tree, "build_parser": 1}

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["sigma", "--k", "3", "--n", "10"]
        _, expected, _ = run_cli(capsys, *argv)
        parsed, parse_leaf = [], cli._parse_leaf

        def spy(argv):
            parsed.append(argv)
            return parse_leaf(argv)

        monkeypatch.setattr(cli, "_parse_leaf", spy)
        monkeypatch.setattr(sys, "argv", ["gausspow", *argv])
        assert main() == 0 and capsys.readouterr().out == expected
        assert main(tuple(argv)) == 0 and capsys.readouterr().out == expected
        assert parsed == [argv, argv]


# Per leaf: a minimal valid command line, the namespace it parses to (every
# default, and `func`; `command` comes from the path), and each option's
# (flags, type, required, choices, default, dest).  Written out, not read from
# `cli.COMMANDS`: the tests above build both parsers from that table, so a
# wrong entry there passes them.
OPTION_PINS = [
    (
        ["sigma", "--k", "3", "--n", "10"],
        {"k": 3, "n": 10, "method": "closed", "func": cli.cmd_sigma},
        [
            ("--k", int, True, None, None, "k"),
            ("--n", int, True, None, None, "n"),
            ("--method", None, False, ("closed", "expansion", "brute"), "closed",
             "method"),
        ],
    ),
    (
        ["table", "--kmax", "3", "--nmax", "4"],
        {"kmax": 3, "nmax": 4, "format": "text", "func": cli.cmd_table},
        [
            ("--kmax", int, True, None, None, "kmax"),
            ("--nmax", int, True, None, None, "nmax"),
            ("--format", None, False, ("text", "csv", "json"), "text", "format"),
        ],
    ),
    (
        ["verify", "--kmax", "2", "--nmax", "2"],
        {"kmax": 2, "nmax": 2, "func": cli.cmd_verify},
        [
            ("--kmax", int, True, None, None, "kmax"),
            ("--nmax", int, True, None, None, "nmax"),
        ],
    ),
    (
        ["density", "nk", "--k", "8"],
        {"target": "nk", "k": 8, "digits": 19, "format": "text",
         "func": cli.cmd_density_nk},
        [
            ("--k", int, True, None, None, "k"),
            ("--digits", int, False, None, 19, "digits"),
            ("--format", None, False, ("text", "json"), "text", "format"),
        ],
    ),
    (
        ["density", "m"],
        {"target": "m", "primes": 20, "tail_limit": 10**6, "digits": 19,
         "format": "text", "func": cli.cmd_density_m},
        [
            ("--primes", int, False, None, 20, "primes"),
            ("--tail-limit", int, False, None, 10**6, "tail_limit"),
            ("--digits", int, False, None, 19, "digits"),
            ("--format", None, False, ("text", "json"), "text", "format"),
        ],
    ),
    (
        ["witness", "--n", "24"],
        {"n": 24, "func": cli.cmd_witness},
        [("--n", int, True, None, None, "n")],
    ),
    (
        ["em-search", "--kmax", "5", "--mmax", "5"],
        {"kmax": 5, "mmax": 5, "func": cli.cmd_em_search},
        [
            ("--kmax", int, True, None, None, "kmax"),
            ("--mmax", int, True, None, None, "mmax"),
        ],
    ),
    (
        ["primes", "--count", "4"],
        {"count": 4, "format": "text", "func": cli.cmd_primes},
        [
            ("--count", int, True, None, None, "count"),
            ("--format", None, False, ("text", "json"), "text", "format"),
        ],
    ),
]


class TestOptionTable:
    @pytest.mark.parametrize(
        "argv, namespace, options", OPTION_PINS,
        ids=[argv_id(argv) for argv, _, _ in OPTION_PINS],
    )
    def test_leaf_is_pinned(self, argv, namespace, options):
        leaf, full = cli._parse_leaf(argv), build_parser().parse_args(argv)
        assert vars(leaf) == vars(full) == {"command": argv[0], **namespace}
        # the leaf's subparser in the full parser, read from its actions, not
        # its help text, which differs between Python versions
        parser = build_parser()
        for name in argv[: 1 + (argv[0] == "density")]:
            (sub,) = [a for a in parser._actions if a.dest in ("command", "target")]
            parser = sub.choices[name]
        got = [
            (" ".join(a.option_strings), a.type, a.required, a.choices, a.default, a.dest)
            for a in parser._actions
            if a.dest != "help"
        ]
        assert got == options

    def test_every_leaf_is_pinned(self):
        pinned = [tuple(argv[: 1 + (argv[0] == "density")]) for argv, _, _ in OPTION_PINS]
        assert sorted(pinned) == sorted(COMMANDS)


class TestImport:
    @staticmethod
    def run_python(*args):
        """stdout of a fresh interpreter that imports this checkout's gausspow."""
        src = str(Path(gausspow.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout

    @classmethod
    def loaded_by_cli_import(cls, module, argv=()):
        """Whether importing gausspow.cli, then running `main(argv)` if argv
        is given, leaves `module` in sys.modules of a fresh interpreter."""
        run = f"gausspow.cli.main({list(argv)!r}); " if argv else ""
        probe = f"import sys, gausspow.cli; {run}print({module!r} in sys.modules)"
        out = cls.run_python("-c", probe)
        return out.strip().splitlines()[-1] == "True"

    def test_module_entry_point(self):
        out = self.run_python("-m", "gausspow", "sigma", "--k", "3", "--n", "10")
        lines = out.strip().splitlines()
        assert lines[0] == "5+5i (mod 10)"
        record = json.loads(lines[1])
        assert record == {"k": 3, "n": 10, "re": 5, "im": 5, "method": "closed"}

    def test_cli_import_leaves_numpy_out(self):
        assert not self.loaded_by_cli_import("numpy")

    def test_search_run_leaves_numpy_out(self):
        argv = ["em-search", "--kmax", "30", "--mmax", "30"]
        assert not self.loaded_by_cli_import("numpy", argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["primes", "--count", "30"],
            ["density", "m", "--primes", "8"],
            ["verify", "--kmax", "3", "--nmax", "3"],
        ],
        ids=["primes", "density-m", "verify"],
    )
    def test_prime_sieve_runs_leave_numpy_out(self, argv):
        assert not self.loaded_by_cli_import("numpy", argv)

    def test_progression_sieve_leaves_numpy_out(self):
        probe = (
            "import sys, gausspow.density as d; "
            "d.sieve_complement_count(10**6, (3,)); print('numpy' in sys.modules)"
        )
        assert self.run_python("-c", probe).strip() == "False"

    @pytest.mark.parametrize("module", ["multiprocessing", "concurrent.futures"])
    def test_cli_import_leaves_process_pools_out(self, module):
        assert not self.loaded_by_cli_import(module)


class TestPrimes:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--count", "4")
        assert code == 0
        assert out.split() == ["3", "7", "11", "19"]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--count", "30", "--format", "json")
        assert code == 0
        fam = json.loads(out)
        assert len(fam) == 30 and fam[-1] == 263

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestInputCaps:
    """Each capped input: the largest accepted value finishes within a stated
    time (a 2-core x86 host needs under a fifth of each bound), and the next
    value exits 2 without starting the work."""

    def timed(self, capsys, *argv):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv)
        return code, out, time.perf_counter() - start

    def test_sigma_closed_at_cap(self, capsys):
        # 8 | k makes n be factored: the largest prime below 2^63, then a
        # product of two primes near 2^31.5, the slowest case for rho
        for n in (2**63 - 25, 3037000453 * 3037000493):
            code, out, seconds = self.timed(capsys, "sigma", "--k", "8", "--n", str(n))
            assert code == 0
            assert seconds < 10.0
            assert out.splitlines()[0] == f"0+0i (mod {n})"

    def test_sigma_closed_above_cap(self, capsys):
        for k in ("8", "2"):
            code, _, err = run_cli(capsys, "sigma", "--k", k, "--n", str(2**63))
            assert code == 2
            assert str(MAX_FACTOR_INPUT) in err

    def test_sigma_half_epsilon_case_at_cap(self, capsys):
        # odd k > 1 with n = 2 (mod 4) needs no witness set, (n/2)(1 + i)
        n = 2**63 - 2
        code, out, _ = run_cli(capsys, "sigma", "--k", "3", "--n", str(n))
        assert code == 0
        assert out.splitlines()[0] == f"{n // 2}+{n // 2}i (mod {n})"

    def test_sigma_half_epsilon_case_above_cap(self, capsys):
        code, _, err = run_cli(capsys, "sigma", "--k", "3", "--n", str(2**63 + 2))
        assert code == 2
        assert str(MAX_FACTOR_INPUT) in err

    def test_sigma_expansion_at_cap(self, capsys):
        k, n = str(MAX_EXPANSION_K), str(MAX_EXPANSION_N)
        code, out, seconds = self.timed(
            capsys, "sigma", "--k", k, "--n", n, "--method", "expansion"
        )
        assert code == 0
        assert seconds < 15.0
        _, closed, _ = run_cli(capsys, "sigma", "--k", k, "--n", n)
        assert out.splitlines()[0] == closed.splitlines()[0]

    def test_sigma_expansion_above_cap(self, capsys):
        for k, n in ((MAX_EXPANSION_K + 1, 7), (2, MAX_EXPANSION_N + 1)):
            code, _, err = run_cli(
                capsys, "sigma", "--k", str(k), "--n", str(n), "--method", "expansion"
            )
            assert code == 2
            assert str(MAX_EXPANSION_K) in err

    def test_verify_above_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--kmax", str(MAX_EXPANSION_K + 1), "--nmax", "1"
        )
        assert code == 2
        assert str(MAX_EXPANSION_K) in err

    # kmax = 1 gives the verify bound its largest nmax, 291; the slowest
    # accepted inputs lie near kmax = 30-48, at about 0.075 s for the command
    VERIFY_NMAX = max(n for n in range(1, 301) if n * (1 + n) ** 2 <= MAX_VERIFY_WORK)

    def test_verify_work_at_cap(self, capsys):
        nmax = str(self.VERIFY_NMAX)
        code, out, seconds = self.timed(capsys, "verify", "--kmax", "1", "--nmax", nmax)
        assert code == 0
        assert seconds < 30.0
        assert out.startswith("verified")

    def test_verify_work_above_cap(self, capsys):
        nmax = str(self.VERIFY_NMAX + 1)
        code, _, err = run_cli(capsys, "verify", "--kmax", "1", "--nmax", nmax)
        assert code == 2
        assert str(MAX_VERIFY_WORK) in err

    def test_sigma_brute_at_cap(self, capsys):
        # k = 1 has the largest n and the highest cost per unit of work
        widest_n = str(isqrt(MAX_BRUTE_WORK))
        widest_k = str(2**MAX_BRUTE_K_BITS - 1)
        narrow_n = str(isqrt(MAX_BRUTE_WORK // MAX_BRUTE_K_BITS))
        for k, n in (("1", widest_n), (widest_k, narrow_n)):
            code, out, seconds = self.timed(
                capsys, "sigma", "--k", k, "--n", n, "--method", "brute"
            )
            assert code == 0
            assert seconds < 15.0
            _, closed, _ = run_cli(capsys, "sigma", "--k", k, "--n", n)
            assert out.splitlines()[0] == closed.splitlines()[0]

    def test_sigma_brute_above_cap(self, capsys):
        for k, n in ((1, isqrt(MAX_BRUTE_WORK) + 1), (2**MAX_BRUTE_K_BITS, 1)):
            code, _, err = run_cli(
                capsys, "sigma", "--k", str(k), "--n", str(n), "--method", "brute"
            )
            assert code == 2
            assert str(MAX_BRUTE_WORK) in err

    def test_row_density_at_cap(self, capsys):
        # 10^12 = 2^12 5^12: only p = 3 has p^2 - 1 | k, and every inert prime
        # to 10^6 is tried
        code, out, seconds = self.timed(capsys, "density", "nk", "--k", str(MAX_ROW_K))
        assert code == 0
        assert seconds < 1.0
        assert out.splitlines()[0] == "7/9"

    def test_row_density_above_cap(self, capsys):
        for k in (MAX_ROW_K + 1, MAX_ROW_K + 8):
            code, _, err = run_cli(capsys, "density", "nk", "--k", str(k))
            assert code == 2
            assert "error" in err

    def test_table_at_cap(self, capsys):
        side = str(MAX_TABLE_SIDE)
        code, out, seconds = self.timed(
            capsys, "table", "--kmax", side, "--nmax", side, "--format", "json"
        )
        assert code == 0
        assert seconds < 1.0
        rows = json.loads(out)["rows"]
        assert len(rows) == len(rows[-1]) == MAX_TABLE_SIDE

    def test_witness_at_cap(self, capsys):
        # 8 | n makes n be factored: 8 times a product of two primes near 2^30,
        # the slowest case for rho; 2^63 - 1 is odd and needs no factoring
        for n in (8 * 1073741789 * 1073741783, MAX_FACTOR_INPUT):
            code, out, seconds = self.timed(capsys, "witness", "--n", str(n))
            assert code == 0
            assert seconds < 10.0
            assert json.loads(out) == {"n": n, "witness": None}

    def test_witness_above_cap(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--n", str(MAX_FACTOR_INPUT + 1))
        assert code == 2
        assert str(MAX_FACTOR_INPUT) in err

    def test_search_at_cap(self, capsys):
        code, out, seconds = self.timed(
            capsys, "em-search", "--kmax", str(SEARCH_GUARD), "--mmax", str(SEARCH_GUARD)
        )
        assert code == 0
        assert seconds < 5.0
        assert out == '{"k": 2, "m": 3, "lhs_re": 0, "lhs_im": 18}\n'

    def test_search_above_cap(self, capsys):
        for kmax, mmax in ((SEARCH_GUARD + 1, 10), (10, SEARCH_GUARD + 1)):
            code, _, err = run_cli(
                capsys, "em-search", "--kmax", str(kmax), "--mmax", str(mmax)
            )
            assert code == 2
            assert str(SEARCH_GUARD) in err

    def test_primes_at_cap(self, capsys):
        code, out, seconds = self.timed(
            capsys, "primes", "--count", str(MAX_INERT_COUNT)
        )
        assert code == 0
        assert seconds < 10.0
        fam = out.split()
        assert len(fam) == MAX_INERT_COUNT and fam[-1] == "2747671"

    def test_primes_above_cap(self, capsys):
        code, _, err = run_cli(capsys, "primes", "--count", str(MAX_INERT_COUNT + 1))
        assert code == 2
        assert str(MAX_INERT_COUNT) in err

    def test_tail_limit_above_cap(self, capsys):
        code, out, err = run_cli(capsys, "density", "m", "--tail-limit", "20000001")
        assert code == 2
        assert out == ""
        assert err == "error: sieve limit capped at 2e7\n"
