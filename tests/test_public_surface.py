"""The package's exported names, and the layer names the benchmark traces."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import gausspow
from gausspow import binomial_sums, cli, congruence_sets, gaussian

REMOVED = (
    "lcm_accumulate",
    "mod_pow",
    "real_part_closed",
    "imag_part_closed",
    "sigma_by_parts",
    "outside_column_zeros",
    "WitnessReport",
    "norm_prefilter",
    "squarefree_term",
    "closed_period",
    "primes_up_to",
    "carlitz_parity",
    "divides_s",
    "eight_multiple_exclusion",
    "witness_forces_24",
    "witness_density",
    "incompatible",
    "DensityInterval",
    "outside_row_zeros",
)

# The Gaussian types are values, not rings: the routes call the power loops
# directly, and `GaussianInt ** k` is the one operator the search uses.
REMOVED_MEMBERS = {
    gaussian.GaussianInt: ("__add__", "__sub__", "__mul__", "__neg__", "norm", "reduce"),
    gaussian.GaussianResidue: ("__add__", "__mul__", "__pow__", "_check"),
}


def test_every_exported_name_resolves():
    for name in gausspow.__all__:
        assert getattr(gausspow, name) is not None, name


def test_no_duplicate_exports():
    assert len(gausspow.__all__) == len(set(gausspow.__all__))


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in gausspow.__all__
        assert not hasattr(gausspow, name), name


def test_removed_members_are_gone():
    for cls, members in REMOVED_MEMBERS.items():
        for member in members:
            assert not hasattr(cls, member), f"{cls.__name__}.{member}"
    assert not hasattr(gaussian, "_mul_mod")
    # U_p is walked by `density.sieve_complement_count` alone, and Lucas'
    # digits take their binomials without cached factorial tables
    assert not hasattr(congruence_sets, "diagonal_nonzero_up_to")
    assert not hasattr(binomial_sums, "_factorial_tables")
    # str falls back to the field repr, GaussianInt(re=..., im=...)
    assert "__str__" not in vars(gaussian.GaussianInt)


# Modules that `import gausspow.cli` must not load: `dataclasses` pulls in the
# next four, and `typing` is no dependency either.  Each costs start-up time
# on every shell command.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_import_loads_no_heavy_module():
    # -S keeps `site` (and any .pth file it runs) out; only the modules the
    # import itself adds are checked, since some interpreters preload a few
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; before = set(sys.modules); "
        f"sys.path.insert(0, {str(src)!r}); import gausspow.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    loaded = set(
        subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
        ).stdout.split()
    )
    assert "gausspow.cli" in loaded
    assert not loaded & set(HEAVY_MODULES), sorted(loaded & set(HEAVY_MODULES))


def _perfbench_spans():
    # spans.py imports only the standard library, so loading it runs no harness
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    # a traced benchmark run looks each layer up with getattr and fails on a
    # renamed one; this finds it without running the harness
    spans = _perfbench_spans()
    for mod_name, funcs in spans.LAYERS.items():
        module = importlib.import_module(f"gausspow.{mod_name}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{mod_name}.{func}"
    traced = {f"{m}.{f}" for m, funcs in spans.LAYERS.items() for f in funcs}
    assert set(spans.COUNTERS) <= traced


# Per command, layers a traced `main` call must reach.  The tracer rebinds
# each layer's module-level names, so a layer that `cli` calls through some
# other reference, such as a dict of functions built at import, drops out.
TRACED_CALLS = [
    (["sigma", "--k", "8", "--n", "24"], {"closed_form.sigma_closed", "arith.factorize"}),
    (["sigma", "--k", "3", "--n", "10", "--method", "expansion"],
     {"closed_form.sigma_expansion", "arith.factorize"}),
    (["witness", "--n", "24"], {"congruence_sets.diagonal_witness"}),
    (["density", "nk", "--k", "8"],
     {"density.zero_row_density", "arith.factorize", "arith.decimal_render"}),
    (["density", "m", "--primes", "4"],
     {"density.diagonal_bracket", "density.union_density"}),
    (["em-search", "--kmax", "5", "--mmax", "5"], {"moser_search.search_solutions"}),
]


@pytest.mark.parametrize(
    "argv, layers", TRACED_CALLS, ids=[" ".join(argv) for argv, _ in TRACED_CALLS]
)
def test_each_traced_layer_is_seen_through_main(capsys, argv, layers):
    tracer = _perfbench_spans().Tracer()
    with tracer.installed():
        assert cli.main(argv) == 0
    capsys.readouterr()
    summary = tracer.summarize(0, tracer.mark())
    assert summary["cli.main"]["calls"] == 1
    assert layers <= set(summary), sorted(layers - set(summary))
