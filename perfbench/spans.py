"""Spans around calls into gausspow's layers, recorded from outside the package.

A `Tracer` wraps each layer function under every name a gausspow module binds
it to (``cli`` calls ``sigma_closed`` through ``gausspow.cli.sigma_closed``,
``closed_form`` calls ``factorize`` through ``gausspow.closed_form.factorize``),
so calls are seen exactly as the calling module makes them.  Wrappers exist
only inside `Tracer.installed()`; nothing under ``src/`` is edited.

Spans (name, start, end, parent) are kept in flat arrays while the run lasts
and written out once, when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import resource
import sys
from array import array
from time import perf_counter

# Layer functions, keyed by the module that defines them.  `binomial_sums` is
# absent: no CLI path calls it.
LAYERS = {
    "arith": ("factorize", "is_prime", "inert_primes_up_to", "decimal_render"),
    "gaussian": ("sigma_brute_rows",),
    "power_sums": ("s_mod_naive",),
    "closed_form": ("sigma_closed", "sigma_expansion"),
    "congruence_sets": ("diagonal_witness",),
    "density": (
        "diagonal_bracket",
        "union_density",
        "tail_bound",
        "sieve_complement_count",
        "zero_row_density",
    ),
    "moser_search": ("search_solutions",),
    "cli": ("main",),
}

# union_density forks a process pool; its children's CPU time is read around
# each call.  Reading rusage on every span would double the cost of hot ones.
CHILD_CPU = {"density.union_density"}


def _search_counts(args, result):
    box = (args["k_max"] - 1) * max(0, args["m_max"] - 2)
    return {"pairs": box, "solutions": len(result)}


def _brute_row_counts(args, result):
    return {"cells": len(result)}


# Work counters taken at the boundary from the bound call arguments and result.
COUNTERS = {
    "moser_search.search_solutions": _search_counts,
    "gaussian.sigma_brute_rows": _brute_row_counts,
}

_MARK = "_perfbench_span"


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """In-memory span recorder for the gausspow layers."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []

    def _wrap(self, key: str, fn):
        if key not in self.names:
            self.names.append(key)
        idx = self.names.index(key)
        counter = COUNTERS.get(key)
        child_cpu = key in CHILD_CPU
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            cpu0 = _children_cpu() if child_cpu else 0.0
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if child_cpu:
                self.extra[i] = {"child_cpu_s": _children_cpu() - cpu0}
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.extra[i] = counter(bound.arguments, result)
            return result

        setattr(wrapper, _MARK, key)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function under each name a gausspow module gives it."""
        modules = gausspow_modules()
        replaced = []
        try:
            for mod_name, funcs in LAYERS.items():
                home = sys.modules[f"gausspow.{mod_name}"]
                for func in funcs:
                    fn = getattr(home, func)
                    wrapper = self._wrap(f"{mod_name}.{func}", fn)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                replaced.append((mod, attr, fn))
                                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(replaced):
                setattr(mod, attr, fn)

    def mark(self) -> int:
        """Index of the next span; passes are delimited by marks."""
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per-layer totals over spans lo..hi-1.

        ``s`` sums the spans not nested in a span of the same layer, ``self_s``
        subtracts from each span the time its direct child spans cover.
        """
        child_time = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child_time[p - lo] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(lo, hi):
            key = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            rec = out.setdefault(key, {"s": 0.0, "self_s": 0.0, "calls": 0})
            rec["calls"] += 1
            rec["self_s"] += dur - child_time[i - lo]
            p = self.parent[i]
            while p >= lo and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < lo:
                rec["s"] += dur
            for field, value in self.extra.get(i, {}).items():
                rec[field] = rec.get(field, 0) + value
        return out

    def write(self, path) -> None:
        """Write every span as CSV: name, start, end, parent (-1 for roots)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]}\n"
                )


def gausspow_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "gausspow" or name.startswith("gausspow."))
    ]


def wrapped_attributes() -> list[str]:
    """Names of gausspow module attributes that are still span wrappers."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in gausspow_modules()
        for attr, value in vars(mod).items()
        if hasattr(value, _MARK)
    ]
