"""Process-pool experiment runner with deterministic seed derivation.

Every figure and table in this reproduction is the aggregate of many
*independent* simulation trials (τ-sweep cells, per-key attack runs,
repeated-preemption episodes) — the same embarrassingly parallel shape
as SGX-Step's 2²⁰-trial loops or REPTTACK's co-location campaigns.
This module fans those trials out over a process pool while keeping
results **bit-identical** to a serial run:

* each trial derives its own seed with :func:`derive_seed` from the
  root seed and a stable trial identity (never from pool scheduling
  order or worker id);
* each trial builds its entire environment (machine, kernel, RNG
  streams) from that seed inside the worker, so no state is shared;
* results are reassembled in submission order, regardless of which
  worker finished first.

``jobs`` semantics, everywhere in this repo:

* ``jobs=None`` — read ``REPRO_JOBS`` from the environment; unset means
  ``os.cpu_count()`` (export ``REPRO_JOBS=1`` to keep a library caller
  serial);
* ``jobs=0`` or negative — use ``os.cpu_count()``;
* ``jobs=1`` — serial in-process execution (no pool, no pickling);
* ``jobs>1`` — a :class:`concurrent.futures.ProcessPoolExecutor` with
  that many workers.

The CLI (`python -m repro --jobs N`) defaults to ``os.cpu_count()``.

With metrics on, every cell runs against its own registry
(:func:`repro.obs.telemetry.cell_metrics_scope`) that is folded back
into the caller's registry in submission order, so a ``--metrics``
table is byte-identical for any ``jobs``.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "derive_seed",
    "resolve_jobs",
    "parallel_map",
    "starmap_kwargs",
    "map_payloads_completions",
    "run_trials",
    "SweepInterrupted",
]


class SweepInterrupted(RuntimeError):
    """A sweep stopped before completing every cell.

    Raised by :func:`map_payloads_completions` when its ``should_abort``
    callback turns true (SIGTERM/SIGINT handlers set exactly that
    flag) — *after* the completed cells were reported through
    ``on_result``, so a journaling caller has already durably recorded
    everything that finished.  ``completed`` counts those cells.
    """

    def __init__(self, message: str, completed: int = 0):
        super().__init__(message)
        self.completed = completed


class _Progress:
    """Live per-cell progress line on stderr (``--progress``).

    One ``\\r``-rewritten line: completed/total cells, throughput, and
    elapsed wall time.  Deliberately stderr so piped stdout output stays
    machine-readable.
    """

    def __init__(self, total: int):
        self.total = total
        self.done = 0
        self.start = time.perf_counter()

    def update(self, n: int = 1) -> None:
        self.done += n
        elapsed = time.perf_counter() - self.start
        rate = self.done / elapsed if elapsed > 0 else 0.0
        sys.stderr.write(
            f"\r[repro] {self.done}/{self.total} cells · "
            f"{rate:5.2f} cells/s · {elapsed:6.1f}s"
        )
        sys.stderr.flush()

    def finish(self) -> None:
        if self.done:
            sys.stderr.write("\n")
            sys.stderr.flush()


def _progress_enabled(progress: Optional[bool]) -> bool:
    if progress is not None:
        return progress
    return os.environ.get("REPRO_PROGRESS", "").strip() not in ("", "0", "false")


def derive_seed(root_seed: int, *identity: object) -> int:
    """Derive a 63-bit trial seed from ``root_seed`` and a stable identity.

    The identity is whatever names the trial — an index, a τ value, a
    panel letter — **not** anything about how or where it executes.
    Two properties matter:

    * deterministic: the same (root, identity) always yields the same
      seed, so parallel and serial schedules agree bit-for-bit;
    * independent: distinct identities yield unrelated seeds (SHA-256),
      so neighbouring trials do not share RNG structure the way
      ``seed + i`` schedules can.
    """
    material = "\x1f".join([repr(root_seed), *(repr(part) for part in identity)])
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` argument to a concrete worker count (>= 1)."""
    if jobs is None:
        jobs = int(os.environ.get("REPRO_JOBS", "").strip() or 0)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], *, jobs: Optional[int] = None,
    progress: Optional[bool] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across a process pool.

    Results come back in input order whatever the completion order, so
    the output is indistinguishable from ``[fn(x) for x in items]`` as
    long as each call is self-contained (all our trial functions are:
    they build their own environment from their own seed).

    ``fn`` and every item must be picklable when ``jobs > 1`` (i.e. a
    module-level function and plain-data arguments).

    ``progress`` (or ``REPRO_PROGRESS=1``) renders a live completed/
    total + throughput line on stderr as cells finish.
    """
    return _execute(fn, list(items), jobs, progress)


def _metrics_enabled() -> bool:
    from repro.obs import get_obs

    return get_obs().metrics.enabled


def _scoped_call(call: Tuple[Callable[[Any], Any], Any]) -> Tuple[Any, Any]:
    """Run ``fn(arg)`` against a fresh metrics registry, publish the
    pull gauges of the kernel it built, and return ``(result,
    registry)``.  Serial and pooled schedules both go through here, so
    the caller folds the same registries in the same order."""
    from repro.obs import get_obs
    from repro.obs.telemetry import cell_metrics_scope

    fn, arg = call
    with cell_metrics_scope(fold=False) as registry:
        result = fn(arg)
        get_obs().publish()
    return result, registry


def _invoke_kwargs(payload: Any) -> Any:
    """Run one ``(fn, kwargs)`` cell.  A caller that already holds the
    cell's content key (:func:`repro.obs.cellcache.cell_key`, None for
    a cell that has none) passes ``(fn, kwargs, key)`` instead, so the
    cache lookup does not compute it again."""
    fn, kwargs, *known = payload
    cache = key = None
    if os.environ.get("REPRO_CELL_CACHE_DIR", "").strip():
        # Content-addressed cell cache (repro.obs.cellcache): cells are
        # pure functions of their kwargs, so a key hit — same code
        # version, same experiment, same sanitized params — returns the
        # stored result without simulating.  Workers inherit the env
        # var, so serial and pooled schedules share one cache and a
        # warm run is digest-identical to a cold one for any ``jobs``.
        from repro.obs.cellcache import cell_cache

        cache = cell_cache()
        if cache is not None:
            key = (cache.accept_key(known[0]) if known else cache.key_for(
                f"{fn.__module__}:{fn.__qualname__}", kwargs))
            if key is not None:
                hit, result = cache.fetch(key)
                if hit:
                    return result
    manifest_dir = os.environ.get("REPRO_MANIFEST_DIR", "").strip()
    if manifest_dir:
        # Runs inside pool workers too: workers inherit the env var, so
        # every parallel cell leaves the same manifest a serial cell
        # would.  Import is lazy to keep the pickling path light.
        from repro.obs.manifest import record_cell

        result = record_cell(fn, kwargs, manifest_dir)
    else:
        result = fn(**kwargs)
    if key is not None:
        cache.store(key, f"{fn.__module__}:{fn.__qualname__}", result)
    return result


def starmap_kwargs(
    fn: Callable[..., R],
    kwargs_list: Iterable[Dict[str, Any]],
    *,
    jobs: Optional[int] = None,
    progress: Optional[bool] = None,
) -> List[R]:
    """``[fn(**kw) for kw in kwargs_list]`` with optional parallelism.

    This is the shape every experiment sweep in :mod:`repro.experiments`
    reduces to: a list of per-cell keyword dictionaries (each carrying
    its own derived seed) applied to one module-level cell function.
    """
    payloads = [(fn, dict(kw)) for kw in kwargs_list]
    return _execute(_invoke_kwargs, payloads, jobs, progress)


def _chaos_tick(completed: int) -> None:
    """``runner.tick`` injection point: consulted after every completed
    cell when a chaos schedule is active (no-op otherwise)."""
    if not os.environ.get("REPRO_CHAOS", "").strip():
        return
    from repro.chaos import ChaosAbort, chaos_point

    fault = chaos_point("runner.tick", completed=completed)
    if fault is None:
        return
    if fault["kind"] == "abort":
        raise ChaosAbort(f"chaos abort after {completed} completed cells")
    if fault["kind"] == "sigterm":
        import signal

        os.kill(os.getpid(), signal.SIGTERM)


def map_payloads_completions(
    payloads: Sequence[Any],
    *,
    jobs: Optional[int] = None,
    progress: Optional[bool] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> List[Any]:
    """Run explicit ``(fn, kwargs)`` or ``(fn, kwargs, key)`` payloads
    (``key``: the cell's content key, when the caller already has it),
    reporting cells in completion order — the form journaled sweeps
    need, where each cell names its own callable (cache/manifest
    identity stays the cell's own ``module:qualname``, never a shared
    dispatcher's).

    ``on_result(index, result)`` fires as each cell *finishes* —
    whatever order the pool finishes them in — which is exactly what a
    write-ahead journal needs: a crash between completions loses only
    in-flight cells.  Results still return in submission order, so the
    output remains bit-identical to the serial list comprehension.

    ``should_abort`` is polled between completions (signal handlers
    set a flag; this runner turns the flag into an orderly stop):
    pending cells are cancelled, the pool shuts down without waiting,
    and :class:`SweepInterrupted` carries the completed count.  An
    active chaos schedule's ``runner.tick`` point is consulted at the
    same cadence.
    """
    payloads = [(fn_i, dict(kw), *key) for fn_i, kw, *key in payloads]
    return _execute(_invoke_kwargs, payloads, jobs, progress,
                    on_result, should_abort, tick=_chaos_tick)


def _execute(
    call: Callable[[Any], Any],
    items: List[Any],
    jobs: Optional[int],
    progress: Optional[bool],
    on_result: Optional[Callable[[int, Any], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    *,
    tick: Optional[Callable[[int], None]] = None,
) -> List[Any]:
    """The cell executor behind every public map in this module:
    ``[call(x) for x in items]``, with each cell's metrics (when on)
    recorded against its own registry and folded in submission order
    once the map ends (or stops), whatever order cells completed in.
    """
    if not _metrics_enabled():
        return _completions(call, items, jobs, progress, on_result,
                            should_abort, tick)
    registries: Dict[int, Any] = {}

    def on_pair(index: int, pair: Tuple[Any, Any]) -> None:
        result, registries[index] = pair
        if on_result is not None:
            on_result(index, result)

    try:
        pairs = _completions(
            _scoped_call, [(call, item) for item in items],
            jobs, progress, on_pair, should_abort, tick)
    finally:
        from repro.obs.telemetry import fold_cell_metrics

        for index in sorted(registries):
            fold_cell_metrics(registries[index])
    return [result for result, _ in pairs]


def _completions(
    call: Callable[[Any], Any],
    payloads: List[Any],
    jobs: Optional[int],
    progress: Optional[bool],
    on_result: Optional[Callable[[int, Any], None]],
    should_abort: Optional[Callable[[], bool]],
    tick: Optional[Callable[[int], None]],
) -> List[Any]:
    jobs = resolve_jobs(jobs)
    show = _progress_enabled(progress) and len(payloads) > 1
    results: List[Any] = [None] * len(payloads)
    meter = _Progress(len(payloads)) if show else None

    def finish_one(index: int, result: Any) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)
        if meter is not None:
            meter.update()

    completed = 0
    if jobs <= 1 or len(payloads) <= 1:
        try:
            for index, payload in enumerate(payloads):
                if should_abort is not None and should_abort():
                    raise SweepInterrupted(
                        f"sweep interrupted after {completed} cells",
                        completed)
                finish_one(index, call(payload))
                completed += 1
                if tick is not None:
                    tick(completed)
        finally:
            if meter is not None:
                meter.finish()
        return results

    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(payloads)))
        future_index = {pool.submit(call, payload): index
                        for index, payload in enumerate(payloads)}
    except OSError:
        # Sandboxes without fork/semaphore support degrade to serial —
        # same results, same journal, just slower.  Nothing has been
        # reported yet, so the serial pass starts from scratch.
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return _completions(call, payloads, 1, progress, on_result,
                            should_abort, tick)
    try:
        for future in as_completed(future_index):
            # Checked before reporting, as the serial loop does: once an
            # abort is requested, no further cell is reported, so an
            # interrupt after N cells journals exactly N for any jobs.
            if should_abort is not None and should_abort():
                raise SweepInterrupted(
                    f"sweep interrupted after {completed} cells", completed)
            finish_one(future_index[future], future.result())
            completed += 1
            if tick is not None:
                tick(completed)
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        if meter is not None:
            meter.finish()
    pool.shutdown()
    return results


def run_trials(
    fn: Callable[..., R],
    n_trials: int,
    *,
    root_seed: int = 0,
    jobs: Optional[int] = None,
    seed_arg: str = "seed",
    identity: object = None,
    **common: Any,
) -> List[R]:
    """Run ``n_trials`` independent repetitions of one trial function.

    Trial ``i`` receives ``common`` plus
    ``seed_arg=derive_seed(root_seed, identity, i)``; results arrive in
    trial order.  This is the SGX-Step-style campaign primitive: many
    i.i.d. repetitions of one cell, differing only in their derived
    seed.
    """
    cells = [
        {**common, seed_arg: derive_seed(root_seed, identity, index)}
        for index in range(n_trials)
    ]
    return starmap_kwargs(fn, cells, jobs=jobs)
