"""CLI surface: output formats, exit-code contract, JSON round-trips."""

import json
import os
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest

import gausspow
from gausspow.arith import MAX_FACTOR_INPUT, MAX_INERT_COUNT
from gausspow.cli import MAX_VERIFY_WORK, main
from gausspow.closed_form import MAX_EXPANSION_K, MAX_EXPANSION_N, MAX_ROW_K
from gausspow.congruence_sets import MAX_WITNESS_N
from gausspow.gaussian import MAX_BRUTE_K_BITS, MAX_BRUTE_WORK
from gausspow.moser_search import SEARCH_GUARD


def run_cli(capsys, *argv):
    code = main(list(argv))
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

    def test_corrupted_formula_exits_one(self, capsys, monkeypatch):
        import gausspow.cli as cli_mod
        from gausspow.gaussian import GaussianResidue

        def broken(k, n):
            return GaussianResidue(1, 0, max(n, 2))

        monkeypatch.setattr(cli_mod, "sigma_closed", broken)
        code, out, _ = run_cli(capsys, "verify", "--kmax", "3", "--nmax", "3")
        assert code == 1
        assert "MISMATCH" in out


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
        assert out.splitlines()[0] == "7/9"

    def test_row_density_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "nk", "--k", "3", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["density"] == "3/4"
        assert record["decimal"].startswith("0.75")

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


class TestImport:
    @staticmethod
    def loaded_by_cli_import(module, argv=()):
        """Whether importing gausspow.cli, then running `main(argv)` if argv
        is given, leaves `module` in sys.modules of a fresh interpreter."""
        src = str(Path(gausspow.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = f"gausspow.cli.main({list(argv)!r}); " if argv else ""
        probe = f"import sys, gausspow.cli; {run}print({module!r} in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        return out.strip().splitlines()[-1] == "True"

    def test_cli_import_leaves_numpy_out(self):
        assert not self.loaded_by_cli_import("numpy")

    def test_search_run_leaves_numpy_out(self):
        argv = ["em-search", "--kmax", "30", "--mmax", "30"]
        assert not self.loaded_by_cli_import("numpy", argv)

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

    # kmax = 1 is the slowest corner of the verify bound: the brute rows'
    # per-cell overhead dominates there
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
        # 10^12 = 2^12 5^12: only p = 3 has p^2 - 1 | k, and every candidate is tried
        code, out, seconds = self.timed(capsys, "density", "nk", "--k", str(MAX_ROW_K))
        assert code == 0
        assert seconds < 10.0
        assert out.splitlines()[0] == "7/9"

    def test_row_density_above_cap(self, capsys):
        for k in (MAX_ROW_K + 1, MAX_ROW_K + 8):
            code, _, err = run_cli(capsys, "density", "nk", "--k", str(k))
            assert code == 2
            assert "error" in err

    def test_witness_at_cap(self, capsys):
        # 3 | p^3 - p for every p, so 10^18 has no witness and the loop runs out
        code, out, seconds = self.timed(capsys, "witness", "--n", str(MAX_WITNESS_N))
        assert code == 0
        assert seconds < 10.0
        assert json.loads(out) == {"n": MAX_WITNESS_N, "witness": None}

    def test_witness_above_cap(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--n", str(MAX_WITNESS_N + 1))
        assert code == 2
        assert "error" in err

    def test_search_at_cap(self, capsys):
        code, out, seconds = self.timed(
            capsys, "em-search", "--kmax", str(SEARCH_GUARD), "--mmax", str(SEARCH_GUARD)
        )
        assert code == 0
        assert seconds < 30.0
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
