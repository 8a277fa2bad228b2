"""One fresh interpreter doing what every gausspow CLI call does before its work.

Usage (from the repository root): python3 perfbench/setup_probe.py

Imports gausspow.cli from ./src, then prints one JSON line: the
CLOCK_MONOTONIC time at which the first call could start (``ready_ns``) and
the duration of the package import (``import_s``).  The parent subtracts its
own clock reading taken before the spawn, so interpreter start-up is
included.  The benchmark's own input generation is left out: it is not work
the program does.
"""

import json
import sys
import time

sys.path.insert(0, "src")
t0 = time.perf_counter()
import gausspow.cli  # noqa: E402, F401

import_s = time.perf_counter() - t0
print(json.dumps({"ready_ns": time.monotonic_ns(), "import_s": import_s}))
