"""The package's exported names."""

import gausspow

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
)


def test_every_exported_name_resolves():
    for name in gausspow.__all__:
        assert getattr(gausspow, name) is not None, name


def test_no_duplicate_exports():
    assert len(gausspow.__all__) == len(set(gausspow.__all__))


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in gausspow.__all__
        assert not hasattr(gausspow, name), name
