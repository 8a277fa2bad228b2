"""Tests of the benchmark itself.

Run from the repository root:
    python3 -m pytest perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Digest of the lookup inputs and expected outputs for seed 1.
SEED1_SHA256 = "171689a1670293bbb3490eb9773db3ad3000065e0a886085a6dfa5d2766d50db"


def run_bench(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_lookup_inputs_follow_the_seed():
    assert workloads.lookup_queries(7) == workloads.lookup_queries(7)
    assert workloads.lookup_queries(7) != workloads.lookup_queries(8)


def test_stored_lookup_answers():
    digest = hashlib.sha256()
    for q in workloads.lookup_queries(1):
        digest.update(repr(q).encode())
        digest.update(reference.lookup_output(*q).encode())
    assert digest.hexdigest() == SEED1_SHA256


@pytest.mark.parametrize("n", [1, 2, 6, 21, 24, 336, 1320, 2 * 3 * 7 * 8, 10**6 + 3])
def test_reference_matches_program_on_small_cells(n):
    for k in (1, 2, 3, 8, 24, 48, 240, 5040):
        assert workloads.run_cli(["sigma", "--k", str(k), "--n", str(n)]) == (
            0, reference.sigma_output(k, n))
        assert workloads.run_cli(["density", "nk", "--k", str(k)]) == (
            0, reference.row_density_output(k))
    assert workloads.run_cli(["witness", "--n", str(n)]) == (0, reference.witness_output(n))


def test_reference_factor():
    for n in (1, 2, 97, 2**61 - 1, 600851475143, 10**12 - 11, 999983 * 1000003, 17**2 * 101**3):
        f = reference.factor(n)
        prod = 1
        for p, e in f.items():
            assert reference.is_prime(p)
            prod *= p**e
        assert prod == n


def test_traced_call_leaves_nothing_wrapped():
    tracer = spans.Tracer()
    with tracer.installed():
        assert "gausspow.cli.sigma_closed" in spans.wrapped_attributes()
        assert workloads.run_cli(["sigma", "--k", "8", "--n", "21"]) == (
            0, reference.sigma_output(8, 21))
    assert spans.wrapped_attributes() == []
    summary = tracer.summarize(0, tracer.mark())
    assert summary["cli.main"]["calls"] == 1
    assert summary["closed_form.sigma_closed"]["calls"] == 1
    assert summary["arith.factorize"]["calls"] == 1
    total_self = sum(rec["self_s"] for rec in summary.values())
    assert total_self == pytest.approx(summary["cli.main"]["s"])


def test_host_scale_trims_extremes_and_scales_only_times():
    host = hostspeed.Sampler(0.0)
    host.samples = [2 * hostspeed.REFERENCE_S] * 18 + [0.0, 100.0]
    assert host.scale() == pytest.approx(0.5)
    units = {"wall_s": "s", "query_p99_ms": "ms", "peak_rss_mb": "MB", "x.calls": "count"}
    metrics = {"wall_s": 2.0, "query_p99_ms": 4.0, "peak_rss_mb": 10.0, "x.calls": 7}
    assert run.scaled(metrics, units, 0.5) == {
        "wall_s": 1.0, "query_p99_ms": 2.0, "peak_rss_mb": 10.0, "x.calls": 7}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = run_bench(ROOT, "search", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "lookup", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
