"""gausspow benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload {bracket,search,cells,lookup} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; the package is imported from ./src.  A run
repeats one pass of the workload (see workloads.py) in this process until
about S seconds are used, always at least once.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones: each pass then runs once
plain and once with span wrappers installed (spans.py), and the difference is
the tracing overhead.

Times are the median of the repeats.  On a shared two-core machine the
fastest repeat follows the rare quiet moments of the host, which come and go
over minutes, and it spread about twice as much over runs as the median did.
Set-up time is the median of fresh-interpreter probes spread over the run.
Every time is then scaled to a reference host speed (hostspeed.py), measured
by a fixed probe timed between the passes; the lines before the result line
give the scale and the times as measured.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the machine facts and each
metric with its unit and sample count.  A full record goes to
perfbench/out/, with the spans of a traced run.  Exit status 1 means some
output was wrong, 2 means the repository was not found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import monotonic_ns, perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# Set-up probes: a few before the first pass, one after a pass whenever
# PROBE_EVERY_S has gone by since the last, and more after the last pass
# until there are SETUP_PROBES.
SETUP_PROBES_BEFORE = 5
PROBE_EVERY_S = 2.0
SETUP_PROBES = 15
# Host-speed probes: one after each set-up probe, and one between two
# operations whenever HOST_PROBE_EVERY_S has gone by since the last, so that
# they sample the host at the same times as the work.
HOST_PROBE_EVERY_S = 0.25

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}

PER_LAYER = (
    "density.union_density.s",
    "density.union_density.child_cpu_s",
    "density.tail_bound.s",
    "density.diagonal_bracket.self_s",
    "density.sieve_complement_count.s",
    "arith.inert_primes_up_to.s",
    "arith.decimal_render.s",
    "moser_search.search_solutions.s",
    "moser_search.search_solutions.pairs",
    "moser_search.search_solutions.solutions",
    "gaussian.sigma_brute_rows.s",
    "gaussian.sigma_brute_rows.cells",
    "closed_form.sigma_expansion.s",
    "closed_form.sigma_expansion.calls",
    "power_sums.s_mod_naive.s",
    "power_sums.s_mod_naive.calls",
    "closed_form.sigma_closed.s",
    "closed_form.sigma_closed.calls",
    "arith.factorize.s",
    "arith.factorize.calls",
    "arith.is_prime.s",
    "arith.is_prime.calls",
    "congruence_sets.diagonal_witness.s",
    "density.zero_row_density.s",
    "cli.self_s",
    "setup.import_numpy_s",
    "setup.import_gausspow_s",
    "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def scaled(metrics: dict[str, float], units: dict[str, str], scale: float) -> dict[str, float]:
    """The metrics with every time multiplied by `scale`."""
    return {name: v * scale if units[name] in ("s", "ms") else v for name, v in metrics.items()}


class PassResult(NamedTuple):
    wall: float
    cpu: float
    latencies: list[float]
    failures: list[str]


def cpu_seconds() -> float:
    """User+system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_pass(ops, host=None) -> PassResult:
    """One pass over `ops`; a host-speed sample is taken between two
    operations whenever `host` says one is due, and its time is left out."""
    outputs, latencies = [], []
    cpu0 = cpu_seconds()
    t0 = perf_counter()
    probe_wall = probe_cpu = 0.0
    for op in ops:
        start = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc()
            out = exc
        latencies.append(perf_counter() - start)
        outputs.append(out)
        if host is not None and host.due():
            c, t = cpu_seconds(), perf_counter()
            host.sample()
            probe_cpu += cpu_seconds() - c
            probe_wall += perf_counter() - t
    wall = perf_counter() - t0 - probe_wall
    cpu = cpu_seconds() - cpu0 - probe_cpu
    failures = []
    for op, out in zip(ops, outputs):
        reason = f"raised {out!r}" if isinstance(out, Exception) else op.check(out)
        if reason:
            failures.append(f"{op.label}: {reason}")
    return PassResult(wall, cpu, latencies, failures)


def measure(ops, seconds: float, tracer, host, between):
    """Passes over `ops` until the next one would end after `seconds`; at least one.

    With a tracer each pass is repeated with spans recorded, after one
    discarded warm-up pass so that the first plain pass is not the only cold
    one; returns the plain passes, the traced ones and their span ranges.
    `host` samples the host's speed within the passes (see run_pass).
    `between()` is called after each pass; its time does not count.
    """
    plain, traced, ranges = [], [], []
    start = perf_counter()
    if tracer is not None:
        run_pass(ops, host)
    i = 0
    while True:
        plain.append(run_pass(ops, host))
        if tracer is not None:
            lo = tracer.mark()
            with tracer.installed():
                traced.append(run_pass(ops, host))
            ranges.append((lo, tracer.mark()))
        i += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / i > seconds:
            return plain, traced, ranges
        t0 = perf_counter()
        between()
        start += perf_counter() - t0


def setup_probe(root: Path, importtime: bool):
    """Set-up seconds of one fresh interpreter, and its numpy/gausspow import split."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd.append(str(HERE / "setup_probe.py"))
    t0 = monotonic_ns()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    numpy_s = 0.0
    for line in proc.stderr.splitlines():  # "import time: self | cumulative | name"
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            numpy_s = int(parts[1]) / 1e6
    return (record["ready_ns"] - t0) / 1e9, numpy_s, record["import_s"] - numpy_s


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, in MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def machine_facts() -> dict:
    model = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    nproc = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
    return {
        "nproc": int(nproc.stdout),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_before": loadavg(),
    }


def end_to_end_metrics(plain, setups) -> dict[str, float]:
    # Each operation's median time over the passes: an operation slowed in one
    # pass by the host does not enter the tail.
    latencies_ms = [statistics.median(op) * 1e3 for op in zip(*(p.latencies for p in plain))]
    return {
        "wall_s": statistics.median(p.wall for p in plain),
        "cpu_s": statistics.median(p.cpu for p in plain),
        "setup_s": statistics.median(s[0] for s in setups),
        "peak_rss_mb": peak_rss_mb(),
        "query_p50_ms": percentile(latencies_ms, 50),
        "query_p99_ms": percentile(latencies_ms, 99),
    }


def per_layer_metrics(tracer, plain, traced, ranges, setups) -> dict[str, float]:
    out = {
        "setup.import_numpy_s": statistics.median(s[1] for s in setups),
        "setup.import_gausspow_s": statistics.median(s[2] for s in setups),
        "trace.overhead_s": (statistics.median(p.wall for p in traced)
                             - statistics.median(p.wall for p in plain)),
    }
    summaries = [tracer.summarize(lo, hi) for lo, hi in ranges]
    for name in PER_LAYER:
        if name not in out:
            layer, field = name.rsplit(".", 1)
            if layer == "cli":
                layer = "cli.main"
            out[name] = statistics.median(s.get(layer, {}).get(field, 0) for s in summaries)
    return {name: out[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bracket", "search", "cells", "lookup"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gausspow" / "__init__.py").is_file():
        print(f"perfbench: no src/gausspow under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import hostspeed
    import spans
    import workloads

    facts = machine_facts()

    setups = []
    last_probe = perf_counter()

    host = hostspeed.Sampler(HOST_PROBE_EVERY_S)

    def probe():
        nonlocal last_probe
        setups.append(setup_probe(root, bool(args.trace)))
        host.sample()
        last_probe = perf_counter()

    def probe_if_due():
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probe()

    # The set-up and host-speed probes are spread over the whole run, so that
    # they cover the run's changes in host load.
    for _ in range(SETUP_PROBES_BEFORE):
        probe()
    tracer = spans.Tracer() if args.trace else None
    plain, traced, ranges = measure(
        workloads.ops(args.workload, args.seed), args.seconds, tracer, host, probe_if_due
    )
    while len(setups) < SETUP_PROBES:
        probe()
    if tracer is not None:
        measured = per_layer_metrics(tracer, plain, traced, ranges, setups)
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        measured = end_to_end_metrics(plain, setups)
        units = END_TO_END
    scale = host.scale()
    metrics = scaled(measured, units, scale)
    facts["loadavg_after"] = loadavg()
    facts["overloaded"] = max(facts["loadavg_before"][0], facts["loadavg_after"][0]) > facts["nproc"]
    if facts["overloaded"]:
        print("perfbench: load average above nproc; timings are suspect", file=sys.stderr)

    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted = sum(len(p.latencies) for p in passes)
    walls = sorted(p.wall for p in plain)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "passes": len(plain),
        "pass_wall_s": [p.wall for p in plain],
        "pass_cpu_s": [p.cpu for p in plain],
        "pass_latencies_s": [p.latencies for p in plain],
        "traced_pass_wall_s": [p.wall for p in traced],
        "setup_probes": setups,
        "host_probes_s": host.samples,
        "scale": scale,
        "measured_metrics": measured,
        "failures": failures[:100],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.csv.gz")

    print("machine " + json.dumps(facts))
    q = statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
    print(f"passes {len(plain)}: pass wall_s min {walls[0]:.6g}, quartiles {q[0]:.6g} "
          f"{q[1]:.6g} {q[2]:.6g}; setup probes {len(setups)}; "
          f"operations {attempted}, failed {len(failures)}")
    print(f"host probes {len(host.samples)}: median {statistics.median(host.samples):.6g} s "
          f"against {hostspeed.REFERENCE_S} s, so times are scaled by {scale:.6g}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} (as measured {measured[name]:.6g})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
