#!/usr/bin/env python3
"""The repository benchmark.

Runs one workload of paper experiments, serially in this process,
through the program's public experiment functions, and prints every
metric with its unit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 15 --trace 0

Times are host CPU seconds of this process and all of its children,
scaled to a nominal host speed by a yardstick loop timed after every
cell (perfbench/yardstick.py).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds of the same cells and reports the per-layer
split of the traced ones (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PINS = HERE / "pinned_digests.json"

DEFAULT_SEED = 0

#: Settings that change what a run does or measures: caches, manifests,
#: metrics, tracing, pools, sample scale, fault injection, progress.
#: Every run starts without them.
SCRUBBED_ENV = ("REPRO_CELL_CACHE_DIR", "REPRO_MANIFEST_DIR", "REPRO_METRICS",
                "REPRO_TRACE", "REPRO_TRACE_CAPACITY", "REPRO_TELEMETRY",
                "REPRO_JOBS", "REPRO_SCALE", "REPRO_CHAOS", "REPRO_PROGRESS")

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_REPEATS = 5

_PROBE = ("import sys, workloads; "
          "workloads.setup_probe(sys.argv[1], int(sys.argv[2]), sys.argv[3])")


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children, so that work
    moved into a worker process still counts."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def clean_environ() -> None:
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


def host_stamp(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "REPRO_UARCH_BACKEND": os.environ.get("REPRO_UARCH_BACKEND", "dict"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (a
    benchmark checkout need not be a repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, size: str, stick) -> List["Piece"]:
    """Time fresh interpreters that import the program, make the
    workload's inputs and build the first environment and victim."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    samples = []
    for _ in range(SETUP_REPEATS):
        with timed(stick) as piece:
            subprocess.run([sys.executable, "-c", _PROBE, workload,
                            str(seed), size], cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        samples.append(piece)
    return samples


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class Piece:
    """The raw CPU seconds of one timed piece of work."""

    raw_s = 0.0


@contextlib.contextmanager
def timed(stick):
    """Time the body's CPU seconds, then take a yardstick sample."""
    piece = Piece()
    cpu = cpu_seconds()
    try:
        yield piece
    finally:
        piece.raw_s = cpu_seconds() - cpu
        stick.mark()


class Tally:
    """Cells attempted and failed, and the timed pieces of work.

    ``pieces`` holds the untraced cells (or sweep passes) with the raw
    CPU milliseconds of each cell in them; ``rounds`` each round's raw
    CPU seconds, for the tracing overhead ratio.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Set[Tuple[int, str]] = set()
        self.pieces: List[Tuple[float, int, List[float]]] = []
        self.rounds: List[Tuple[bool, float]] = []  # (traced, raw seconds)

    def fail(self, round_index: int, cell_id: str, why: str) -> None:
        if (round_index, cell_id) not in self.failed:
            print(f"FAILED round {round_index} cell {cell_id}: {why}",
                  file=sys.stderr)
        self.failed.add((round_index, cell_id))

    def raw_s(self, traced: bool) -> float:
        return sum(cpu for flag, cpu in self.rounds if flag is traced)

    def overhead_ratio(self) -> float:
        traced = [cpu for flag, cpu in self.rounds if flag]
        plain = [cpu for flag, cpu in self.rounds if not flag]
        if not traced or not plain:
            return 0.0
        return statistics.mean(traced) / statistics.mean(plain)

    def nominal(self, factor: float) -> Tuple[float, List[float]]:
        """Cells per nominal CPU-second, and nominal ms per cell."""
        cells = sum(n_cells for _, n_cells, _ in self.pieces)
        seconds = sum(raw_s for raw_s, _, _ in self.pieces) * factor
        return cells / seconds, [ms * factor for _, _, raw_ms in self.pieces
                                 for ms in raw_ms]


def _rounds(seconds: float, tracer):
    """Round indices to run: at least two (a repeat for the digest
    check), then more until ``seconds`` of wall time have passed.  With
    a tracer, rounds alternate untraced/traced and stop after a pair."""
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        yield index
        index += 1
        if index >= 2 and time.monotonic() >= deadline \
                and (tracer is None or index % 2 == 0):
            return


def _pid_rewinder():
    """A function that puts the program's process-wide Task pid counter
    back where it is now.

    Task pids come from one counter per process, and a LEASH defense
    cell's result lists the pids it flagged, so without the rewind the
    same cell would give another result in every round.  Rewound, each
    round starts from the state a fresh interpreter starts from (the
    state the pinned digests were taken in).
    """
    import itertools

    from repro.sched import task

    start = next(task._pid_counter)

    def rewind() -> None:
        task._pid_counter = itertools.count(start)
    rewind()
    return rewind


def measure_cells(workload, seconds: float, stick, *, tracer=None,
                  pins: Optional[Dict[str, str]] = None) -> Tally:
    """Run the workload's cell list in rounds, with a yardstick sample
    after each cell.  Untraced cells give the end-to-end figures.

    Each round starts with the Task pid counter where the first round
    started it.  A cell fails if it raises, if its result digest
    differs from its first round's, or, when ``pins`` is given, from
    the pinned digest.  Every cell of an attack family fails if the
    family's aggregate accuracy (first round) is below its floor.
    """
    from repro.obs.manifest import result_digest

    tally = Tally()
    first: Dict[str, str] = {}
    summaries: Dict[str, List[Dict[str, float]]] = {}
    executions: Dict[str, List[Tuple[int, str]]] = {}
    rewind_pids = _pid_rewinder()
    for round_index in _rounds(seconds, tracer):
        rewind_pids()
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            tracer.install()
        round_raw = 0.0
        try:
            for cell in workload.cells:
                result = None
                with timed(stick) as piece:
                    try:
                        if traced:
                            result = tracer.root(cell.fn, **cell.kwargs)
                        else:
                            result = cell.fn(**cell.kwargs)
                    except Exception:  # a failed cell is counted, not fatal
                        tally.fail(round_index, cell.id,
                                   traceback.format_exc())
                round_raw += piece.raw_s
                tally.attempted += 1
                executions.setdefault(cell.family, []).append(
                    (round_index, cell.id))
                if traced:
                    tracer.collect()
                else:
                    tally.pieces.append((piece.raw_s, 1, [piece.raw_s * 1e3]))
                if result is None:
                    continue
                digest = result_digest(result)
                if first.setdefault(cell.id, digest) != digest:
                    tally.fail(round_index, cell.id,
                               "result digest differs from round 0")
                if pins is not None and pins.get(cell.id) != digest:
                    tally.fail(round_index, cell.id,
                               "result digest differs from the pinned one")
                floor = workload.floors.get(cell.family)
                if floor is not None and round_index == 0:
                    summaries.setdefault(cell.family, []).append(
                        floor.summarize(result))
        finally:
            if traced:
                tracer.remove()
        tally.rounds.append((traced, round_raw))
    for family, floor in workload.floors.items():
        rows = summaries.get(family)
        if rows and not floor.holds(rows):
            for round_index, cell_id in executions[family]:
                tally.fail(round_index, cell_id,
                           f"{family} below its floor ({floor.rule}): {rows}")
    return tally


def measure_sweep(cells, cold_digests: List[str], cold_digest: str,
                  work: Path, seconds: float, stick, *, tracer=None) -> Tally:
    """Sweep the grid into a fresh run dir against the filled cache,
    then resume that run dir; repeat, with a yardstick sample after
    each pass.  Every cell's warm and resumed digests must equal the
    cold pass's."""
    import repro.sweeps as sweeps
    from repro.obs.journal import SweepJournal

    # The journal fsyncs once per batch of records, so single-cell times
    # are bimodal; each sample is the mean over one batch of cells.
    batch = inspect.signature(SweepJournal).parameters["fsync_every"].default
    tally = Tally()
    n = len(cells)
    for round_index in _rounds(seconds, tracer):
        traced = tracer is not None and round_index % 2 == 1
        run_dir = str(work / f"pass{round_index}")
        stamps: List[int] = []
        if traced:
            tracer.install()
        else:
            sweeps.result_digest = _cell_clock(sweeps.result_digest, stamps)
        warm = resumed = None
        try:
            with timed(stick) as piece:
                stamps.append(time.process_time_ns())
                if traced:
                    warm = tracer.root(sweeps.run_sweep, run_dir, cells,
                                       jobs=1)
                    resumed = tracer.root(sweeps.run_sweep, run_dir, None,
                                          jobs=1, resume=True)
                else:
                    warm = sweeps.run_sweep(run_dir, cells, jobs=1)
                    resumed = sweeps.run_sweep(run_dir, None, jobs=1,
                                               resume=True)
        except Exception:  # a failed pass is counted, not fatal
            for index in range(n):
                tally.fail(round_index, f"warm/{index}",
                           traceback.format_exc())
                tally.fail(round_index, f"resume/{index}", "pass failed")
        finally:
            if traced:
                tracer.remove()
            else:
                sweeps.result_digest = sweeps.result_digest.__wrapped__
            shutil.rmtree(run_dir, ignore_errors=True)
        tally.attempted += 2 * n
        tally.rounds.append((traced, piece.raw_s))
        if traced:
            tracer.collect()
        else:
            cell_ms = [(b - a) / 1e6 for a, b in zip(stamps, stamps[1:])]
            tally.pieces.append((piece.raw_s, 2 * n, [
                statistics.mean(cell_ms[i:i + batch])
                for i in range(0, len(cell_ms), batch)]))
        if warm is None or resumed is None:
            continue
        if warm.ran != n:
            tally.fail(round_index, "sweep",
                       f"warm pass ran {warm.ran} of {n} cells")
        for outcome in warm.outcomes:
            if outcome.digest != cold_digests[outcome.index]:
                tally.fail(round_index, f"warm/{outcome.index}",
                           "warm digest differs from the cold pass")
        if resumed.ran or resumed.journal_served != n:
            tally.fail(round_index, "resume",
                       f"resume ran {resumed.ran} cells and served "
                       f"{resumed.journal_served} of {n} from the journal")
        for outcome in resumed.outcomes:
            if outcome.digest != cold_digests[outcome.index]:
                tally.fail(round_index, f"resume/{outcome.index}",
                           "resumed digest differs from the cold pass")
        if warm.digest != cold_digest or resumed.digest != cold_digest:
            tally.fail(round_index, "sweep",
                       "sweep digest differs from the cold pass")
    return tally


def _cell_clock(digest_fn, stamps: List[int]):
    """``digest_fn`` that also stamps the CPU clock: the sweep digests
    each cell as it completes, so consecutive stamps bound one cell."""
    def clocked(result):
        stamps.append(time.process_time_ns())
        return digest_fn(result)
    clocked.__wrapped__ = digest_fn
    return clocked


def load_pins(workload: str, seed: int, size: str) -> Optional[Dict[str, str]]:
    """Digests pinned for the default seed at full size, else None."""
    if seed != DEFAULT_SEED or size != "full" or not PINS.exists():
        return None
    return json.loads(PINS.read_text()).get(workload)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads
    import yardstick
    from layers import Tracer, per_layer_metrics

    tracer = Tracer() if args.trace else None
    pins = load_pins(args.workload, args.seed, args.size)
    stick = yardstick.Yardstick()
    setup = measure_setup(args.workload, args.seed, args.size, stick)
    if args.workload == "sweep_cached":
        from repro.sweeps import run_sweep

        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=WORK))
        try:
            os.environ["REPRO_CELL_CACHE_DIR"] = str(work / "cache")
            with timed(stick) as cold_piece:
                cells = workloads.sweep_grid(args.seed, args.size)
                cold = run_sweep(str(work / "cold"), cells, jobs=1)
            cold_digests = [o.digest for o in cold.outcomes]
            tally = measure_sweep(cells, cold_digests, cold.digest, work,
                                  args.seconds, stick, tracer=tracer)
            if pins is not None and pins.get("sweep") != cold.digest:
                tally.fail(0, "sweep", "cold digest differs from the pinned one")
        finally:
            os.environ.pop("REPRO_CELL_CACHE_DIR", None)
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()  # only if no other run is using it
    else:
        workload = workloads.build(args.workload, args.seed, args.size)
        tally = measure_cells(workload, args.seconds, stick, tracer=tracer,
                              pins=pins)

    factor = stick.factor()
    setup = [piece.raw_s * factor for piece in setup]
    setup_s = statistics.median(setup)
    if args.workload == "sweep_cached":
        setup_s += cold_piece.raw_s * factor
    if tracer is not None:
        metrics = per_layer_metrics(tracer, tally.raw_s(True),
                                    tally.raw_s(False))
        metrics["trace.overhead_ratio"] = (tally.overhead_ratio(), "ratio")
    else:
        cells_per_s, cell_ms = tally.nominal(factor)
        metrics = {
            "cells_per_s": (cells_per_s, "1/s"),
            "cell_p50_ms": (quantile(cell_ms, 50), "ms"),
            "cell_p90_ms": (quantile(cell_ms, 90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {"tally": tally, "metrics": metrics, "setup": setup,
            "stick": stick}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("characterize", "attacks", "sweep_cached"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small cells, for the benchmark's "
                             "own tests")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC / 'repro'}", file=sys.stderr)
        return 2
    clean_environ()
    sys.path.insert(0, str(SRC))
    import yardstick
    print("host " + json.dumps(host_stamp(args), sort_keys=True))
    outcome = run(args)
    tally, metrics = outcome["tally"], outcome["metrics"]
    stick = outcome["stick"]
    print(f"yardstick: median {stick.median_ms():.3f} ms over "
          f"{len(stick.samples)} samples (nominal "
          f"{yardstick.NOMINAL_S * 1e3:g} ms); raw CPU "
          f"{tally.raw_s(False):.3f} s untraced")
    print("setup samples (nominal s): "
          + " ".join(f"{s:.4f}" for s in outcome["setup"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>14.6g} {unit}")
    failed = len(tally.failed)
    print(f"{'error_rate':<30} {failed / tally.attempted:>14.6g} ratio "
          f"({failed} of {tally.attempted} cells failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
