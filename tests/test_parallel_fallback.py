"""A host that cannot start a process pool still runs every cell.

Sandboxes without semaphores fail when the pool is built; sandboxes
without fork fail when the first cell is submitted.  Either way the
executor in :mod:`repro.parallel` must fall back to the serial loop and
return the serial results, reporting each cell exactly once.
"""

from __future__ import annotations

import errno

import pytest

import repro.parallel as parallel
from repro.parallel import map_payloads_completions, parallel_map, starmap_kwargs


def _square(x):
    return x * x


class _NoSemaphores:
    """A pool that cannot be built (no ``sem_open``)."""

    def __init__(self, max_workers=None):
        raise OSError(errno.ENOSYS, "function not implemented")


class _NoFork:
    """A pool that builds but cannot start its workers."""

    shutdowns = []

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args):
        raise OSError(errno.EAGAIN, "fork: resource temporarily unavailable")

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


@pytest.fixture(params=[_NoSemaphores, _NoFork], ids=["build", "submit"])
def broken_pool(request, monkeypatch):
    monkeypatch.delenv("REPRO_CELL_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    _NoFork.shutdowns = []
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", request.param)
    return request.param


def test_parallel_map_falls_back_to_serial(broken_pool):
    items = [3, -1, 4, -1, 5]
    assert parallel_map(abs, items, jobs=2) == [abs(x) for x in items]


def test_starmap_kwargs_falls_back_to_serial(broken_pool):
    cells = [{"x": x} for x in range(5)]
    assert starmap_kwargs(_square, cells, jobs=2) == [x * x for x in range(5)]


def test_completions_fall_back_and_report_each_cell_once(broken_pool):
    payloads = [(_square, {"x": x}) for x in range(6)]
    reported = []
    results = map_payloads_completions(
        payloads, jobs=2,
        on_result=lambda index, result: reported.append((index, result)))
    assert results == [x * x for x in range(6)]
    assert reported == [(x, x * x) for x in range(6)]
    if broken_pool is _NoFork:
        # The half-built pool is released without waiting on workers.
        assert _NoFork.shutdowns == [(False, True)]
