"""cProfile the serial simulation hot path.

The micro-optimizations in ``sim.engine``, ``uarch.cache``,
``uarch.tlb``, ``cpu.isa``, ``cpu.program`` and ``cpu.core`` were
guided by this profile (committed as ``PROFILE_seed.txt`` for the
pre-optimization tree and ``PROFILE_optimized.txt`` for the current
one).  Re-run after touching the hot path:

    PYTHONPATH=src python benchmarks/profile_hotpath.py [output.txt]

The workload is one Fig 4.3-style resolution cell — the inner loop
every τ-sweep benchmark multiplies by dozens of cells.  The report
opens with the tree it profiled: ``git describe --dirty`` (a
``-dirty`` suffix means uncommitted changes on top of that commit),
the uarch backend, the CPU count and the Python version.
"""

from __future__ import annotations

import cProfile
import io
import os
import platform
import pstats
import subprocess
import sys
from pathlib import Path

PREEMPTIONS = 400
TOP = 35


def workload(run_resolution) -> None:
    run_resolution(740.0, degrade_itlb=True, preemptions=PREEMPTIONS, seed=1)


def header() -> str:
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        describe = "unknown"
    backend = os.environ.get("REPRO_UARCH_BACKEND", "").strip() or "dict"
    return (f"# git {describe}  uarch_backend={backend}  "
            f"cpu_count={os.cpu_count()}  "
            f"python={platform.python_version()}\n"
            f"# workload: run_resolution(740.0, degrade_itlb=True, "
            f"preemptions={PREEMPTIONS}, seed=1)\n\n")


def main() -> int:
    # Import (and thereby compile) the whole repro package *before*
    # enabling the profiler: with the import inside the profiled
    # region, importlib frames dominated the top of the report and
    # cumulative percentages measured the module loader, not the
    # simulation hot path.
    from repro.experiments.resolution import run_resolution

    profiler = cProfile.Profile()
    profiler.enable()
    workload(run_resolution)
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs().sort_stats("cumulative").print_stats(TOP)
    stats.sort_stats("tottime").print_stats(TOP)
    text = header() + out.getvalue()
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            fh.write(text)
        print(f"wrote {sys.argv[1]}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
