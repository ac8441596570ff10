#!/usr/bin/env python3
"""Pin the result digests the benchmark checks at the default seed.

    python3 perfbench/pin_digests.py characterize
    python3 perfbench/pin_digests.py attacks
    python3 perfbench/pin_digests.py sweep_cached

Each call runs one workload's cells once at seed 0, full size, in a
fresh interpreter (as round 0 of a benchmark run does) and rewrites
that workload's entry in perfbench/pinned_digests.json.  Pin only after
a change that is meant to change results.
"""

import json
import shutil
import sys
import tempfile

import run


def digests(workload: str):
    import workloads
    from repro.obs.manifest import result_digest

    if workload == "sweep_cached":
        from repro.sweeps import run_sweep

        run.WORK.mkdir(exist_ok=True)
        work = tempfile.mkdtemp(dir=run.WORK)
        try:
            cells = workloads.sweep_grid(run.DEFAULT_SEED)
            return {"sweep": run_sweep(work, cells, jobs=1).digest}
        finally:
            shutil.rmtree(work)
    return {cell.id: result_digest(cell.fn(**cell.kwargs))
            for cell in workloads.build(workload, run.DEFAULT_SEED).cells}


def main() -> int:
    workload = sys.argv[1]
    run.clean_environ()
    sys.path.insert(0, str(run.SRC))
    pins = json.loads(run.PINS.read_text()) if run.PINS.exists() else {}
    pins[workload] = digests(workload)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
