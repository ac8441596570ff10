"""Regression tests for CellCache concurrent-writer/pruner races.

The cache is shared by pool workers and by concurrent sweeps, so two
processes routinely race on the same key (same pure cell computed
twice) and a pruner can run while fetches are in flight.  The fixes
under test:

* **single-writer stores** — a per-key lock file elects one winner;
  losers skip (counted ``store_contended``) instead of interleaving
  partial writes or double-counting ``bytes_written``;
* **stale-lock recovery** — a crashed writer's lock expires after
  ``LOCK_STALE_S`` instead of wedging the key forever;
* **rename-then-unlink prune** — an entry leaves the namespace
  atomically, so a concurrent fetch reads either the complete old
  bytes or a clean miss, never a torn file — and a live-locked entry
  (mid-rewrite) is never pruned.

The exact interleavings are forced via the cache's ``_hooks``
injection points (see :class:`repro.obs.cellcache.CellCache`), which
pause a thread at the moment the race window is open.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

import repro.obs as obs_mod
from repro.obs.cellcache import CellCache

RESULT = {"samples": [1.0, 2.0, 3.0], "tau": 740.0}
EXPERIMENT = "repro.experiments.resolution:run_resolution"
PARAMS = {"tau": 740.0, "seed": 7}


@pytest.fixture
def metrics_on():
    os.environ["REPRO_METRICS"] = "1"
    obs_mod.reset()
    yield obs_mod.get_obs().metrics
    # conftest's _repro_env_hygiene restores env and resets obs.


def metric(registry, name: str):
    if name not in registry.names():
        return 0
    return registry.get(name).value


# ----------------------------------------------------------------------
# Concurrent same-key stores
# ----------------------------------------------------------------------
class TestConcurrentStore:
    def test_loser_skips_while_winner_holds_lock(self, tmp_path, metrics_on):
        """Two caches (as two processes would) store the same key; the
        thread caught inside the critical section wins, the other skips
        — one store, one contended, bytes counted exactly once."""
        winner = CellCache(str(tmp_path))
        loser = CellCache(str(tmp_path))
        key = winner.key_for(EXPERIMENT, PARAMS)
        in_critical = threading.Event()
        release = threading.Event()

        def pause_in_store():
            in_critical.set()
            assert release.wait(timeout=10)

        winner._hooks["store.locked"] = pause_in_store
        stored_path = []
        thread = threading.Thread(
            target=lambda: stored_path.append(
                winner.store(key, EXPERIMENT, RESULT)))
        thread.start()
        try:
            assert in_critical.wait(timeout=10)
            # Lock is held: the concurrent writer must not write.
            assert loser.store(key, EXPERIMENT, RESULT) is None
            assert metric(metrics_on, "cellcache.store_contended") == 1
            # ... and nothing partial is visible under the key.
            status, _ = loser.fetch_outcome(key)
            assert status == "miss"
        finally:
            release.set()
            thread.join(timeout=10)
        assert stored_path and stored_path[0] is not None

        # Exactly one store happened, and the byte counter matches the
        # bytes actually on disk (the double-count regression).
        assert metric(metrics_on, "cellcache.stores") == 1
        on_disk = os.path.getsize(winner._path(key))
        assert metric(metrics_on, "cellcache.bytes_written") == on_disk

        hit, result = loser.fetch(key)
        assert hit and result == RESULT

    def test_no_partial_entry_visible_before_publish(self, tmp_path,
                                                     metrics_on):
        """With the temp file fully written but not yet published
        (``store.before_replace``), readers still see a clean miss —
        the entry appears atomically or not at all."""
        cache = CellCache(str(tmp_path))
        reader = CellCache(str(tmp_path))
        key = cache.key_for(EXPERIMENT, PARAMS)
        seen = []
        cache._hooks["store.before_replace"] = lambda: seen.append(
            reader.fetch_outcome(key)[0])
        assert cache.store(key, EXPERIMENT, RESULT) is not None
        assert seen == ["miss"]
        assert reader.fetch(key) == (True, RESULT)

    def test_stale_lock_is_broken(self, tmp_path, metrics_on):
        """A lock left by a crashed writer must not wedge the key: once
        older than LOCK_STALE_S it is broken and the store proceeds."""
        cache = CellCache(str(tmp_path))
        key = cache.key_for(EXPERIMENT, PARAMS)
        lock = cache._lock_path(key)
        with open(lock, "w") as fh:
            fh.write("999999")  # a pid that is long gone
        stale = time.time() - cache.LOCK_STALE_S - 10
        os.utime(lock, (stale, stale))
        assert cache.store(key, EXPERIMENT, RESULT) is not None
        assert metric(metrics_on, "cellcache.stores") == 1
        assert not os.path.exists(lock)  # released after the write

    def test_fresh_lock_is_respected(self, tmp_path, metrics_on):
        cache = CellCache(str(tmp_path))
        key = cache.key_for(EXPERIMENT, PARAMS)
        with open(cache._lock_path(key), "w") as fh:
            fh.write(str(os.getpid()))
        assert cache.store(key, EXPERIMENT, RESULT) is None
        assert metric(metrics_on, "cellcache.store_contended") == 1
        assert not os.path.exists(cache._path(key))


# ----------------------------------------------------------------------
# Prune vs concurrent fetch
# ----------------------------------------------------------------------
class TestPruneRaces:
    def _stored(self, directory: str, age_s: float = 3600.0):
        cache = CellCache(directory)
        key = cache.key_for(EXPERIMENT, PARAMS)
        path = cache.store(key, EXPERIMENT, RESULT)
        assert path is not None
        old = time.time() - age_s
        os.utime(path, (old, old))
        return cache, key, path

    def test_fetch_mid_prune_gets_old_bytes_or_clean_miss(self, tmp_path):
        """A fetch that already read the entry's bytes must return the
        complete old result even if a prune removes the entry before
        verification finishes — rename-then-unlink never tears the
        file out from under the read."""
        fetcher, key, _ = self._stored(str(tmp_path))
        pruner = CellCache(str(tmp_path))
        read_done = threading.Event()
        resume = threading.Event()

        def pause_after_read():
            read_done.set()
            assert resume.wait(timeout=10)

        fetcher._hooks["fetch.after_read"] = pause_after_read
        outcome = []
        thread = threading.Thread(
            target=lambda: outcome.append(fetcher.fetch_outcome(key)))
        thread.start()
        try:
            assert read_done.wait(timeout=10)
            stats = pruner.prune(older_than_s=60.0)
            assert stats["removed"] == 1
        finally:
            resume.set()
            thread.join(timeout=10)
        # The in-flight fetch completed from the bytes it already read.
        assert outcome == [("hit", RESULT)]
        # New fetches see a clean miss, not a torn entry.
        assert pruner.fetch_outcome(key) == ("miss", None)

    def test_fetch_between_rename_and_unlink_is_clean_miss(self, tmp_path):
        """Inside the prune's own window — entry renamed to its doomed
        name but not yet unlinked — the key's namespace is already
        empty: a concurrent fetch is a plain miss, never a torn read."""
        pruner, key, _ = self._stored(str(tmp_path))
        reader = CellCache(str(tmp_path))
        seen = []
        pruner._hooks["prune.before_unlink"] = lambda: seen.append(
            reader.fetch_outcome(key))
        stats = pruner.prune(older_than_s=60.0)
        assert stats["removed"] == 1
        assert seen == [("miss", None)]

    def test_prune_skips_live_locked_entry(self, tmp_path):
        """An old entry whose writer currently holds the store lock is
        mid-rewrite — pruning it would race the in-flight publish."""
        cache, key, path = self._stored(str(tmp_path))
        lock = cache._lock_path(key)
        with open(lock, "w") as fh:
            fh.write(str(os.getpid()))  # fresh mtime: writer is alive
        stats = cache.prune(older_than_s=60.0)
        assert stats == {"removed": 0, "removed_bytes": 0, "kept": 1}
        assert os.path.exists(path)

        # Once the lock goes stale (writer crashed), the entry prunes.
        stale = time.time() - cache.LOCK_STALE_S - 10
        os.utime(lock, (stale, stale))
        stats = cache.prune(older_than_s=60.0)
        assert stats["removed"] == 1
        assert not os.path.exists(path)

    def test_store_during_prune_window_republishes(self, tmp_path,
                                                   metrics_on):
        """A store racing the prune's unlink window simply republishes
        the key afterwards: prune removes the *old* generation, the new
        entry stays fetchable."""
        pruner, key, _ = self._stored(str(tmp_path))
        writer = CellCache(str(tmp_path))
        fresh = {"samples": [9.0], "tau": 740.0}
        pruner._hooks["prune.before_unlink"] = lambda: writer.store(
            key, EXPERIMENT, fresh)
        stats = pruner.prune(older_than_s=60.0)
        assert stats["removed"] == 1
        assert writer.fetch(key) == (True, fresh)
