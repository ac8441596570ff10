"""Crash-safe sweeps: interrupt + resume must be byte-identical.

The acceptance bar from the robustness contract: a sweep killed at a
chaos-scheduled point and resumed recomputes **zero** journaled cells
and produces final digests byte-identical to an uninterrupted run, for
any ``--jobs``.
"""

import collections
import inspect
import os

import pytest

import repro.obs as obs_mod
import repro.obs.cellcache as cellcache_mod
import repro.sweeps as sweeps_mod
from repro.chaos import ChaosAbort, ChaosSpec, FaultEvent, reset_active
from repro.experiments import wire
from repro.experiments.preemption_count import run_budget_measurement
from repro.experiments.resolution import run_resolution
from repro.experiments.wire import cell_from_wire
from repro.obs.cellcache import CellCache
from repro.obs.journal import journal_path, replay
from repro.parallel import derive_seed
from repro.sweeps import SweepSpec, load_spec, prepare_run_dir, run_sweep

N_CELLS = 4


def _cells(n=N_CELLS):
    return [
        cell_from_wire({
            "experiment": "resolution",
            "params": {
                "tau": 700.0 + 5.0 * i,
                "preemptions": 5,
                "seed": derive_seed(0, "sweep-resume", i),
            },
        })
        for i in range(n)
    ]


def _chaos_abort_after(tmp_path, completed):
    path = str(tmp_path / "chaos.json")
    ChaosSpec(events=[FaultEvent(point="runner.tick", kind="abort",
                                 match={"completed": completed})]).save(path)
    os.environ["REPRO_CHAOS"] = path
    reset_active()


def _clear_chaos():
    os.environ.pop("REPRO_CHAOS", None)
    reset_active()


def test_uninterrupted_sweep_round_trips(tmp_path):
    run_dir = str(tmp_path / "run")
    result = run_sweep(run_dir, _cells(), jobs=1)
    assert result.ran == N_CELLS and result.journal_served == 0
    assert len(result.outcomes) == N_CELLS
    # Spec is durable and reloadable.
    assert load_spec(run_dir).digest() == result.spec_digest
    # Re-running with resume recomputes nothing and matches exactly.
    again = run_sweep(run_dir, resume=True, jobs=1)
    assert again.ran == 0 and again.journal_served == N_CELLS
    assert again.digest == result.digest


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_chaos_interrupt_then_resume_is_byte_identical(tmp_path, jobs):
    golden = run_sweep(str(tmp_path / "golden"), _cells(), jobs=1)

    run_dir = str(tmp_path / "run")
    _chaos_abort_after(tmp_path, completed=2)
    try:
        with pytest.raises(ChaosAbort):
            run_sweep(run_dir, _cells(), jobs=1)
    finally:
        _clear_chaos()

    resumed = run_sweep(run_dir, resume=True, jobs=jobs)
    # The two journaled cells are served, never recomputed …
    assert resumed.journal_served == 2
    assert resumed.ran == N_CELLS - 2
    # … and the final digests are indistinguishable from the
    # uninterrupted run, per-cell and combined.
    assert [o.digest for o in resumed.outcomes] == \
        [o.digest for o in golden.outcomes]
    assert resumed.digest == golden.digest


@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_sweep_is_served_by_the_cell_cache_and_journaled(
        tmp_path, monkeypatch, jobs):
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv("REPRO_CELL_CACHE_DIR", cache_dir)
    monkeypatch.setenv("REPRO_METRICS", "1")
    monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
    obs_mod.reset()
    cold = run_sweep(str(tmp_path / "cold"), _cells(), jobs=jobs)
    assert cold.ran == N_CELLS
    assert CellCache(cache_dir).stats()["entries"] == N_CELLS

    # A new run dir: nothing to resume, so every cell goes through the
    # executor — and every one is a cache hit.
    obs_mod.reset()
    warm_dir = str(tmp_path / "warm")
    warm = run_sweep(warm_dir, _cells(), jobs=jobs)
    hits = obs_mod.get_obs().metrics.counter("cellcache.hits").value
    assert [o.digest for o in warm.outcomes] == \
        [o.digest for o in cold.outcomes]
    assert warm.digest == cold.digest
    assert hits == N_CELLS

    # Cache-served cells are journaled like computed ones …
    journaled = replay(journal_path(warm_dir))
    assert len(journaled) == N_CELLS
    for outcome in warm.outcomes:
        assert journaled.digest_for(outcome.key) == outcome.digest

    # … so a resume of the warm run dir is served from its journal.
    resumed = run_sweep(warm_dir, resume=True, jobs=jobs)
    assert resumed.ran == 0 and resumed.journal_served == N_CELLS
    assert resumed.digest == cold.digest


def test_resume_tolerates_a_torn_journal_tail(tmp_path):
    golden = run_sweep(str(tmp_path / "golden"), _cells(), jobs=1)

    run_dir = str(tmp_path / "run")
    _chaos_abort_after(tmp_path, completed=2)
    try:
        with pytest.raises(ChaosAbort):
            run_sweep(run_dir, _cells(), jobs=1)
    finally:
        _clear_chaos()
    # Tear the final line, as a mid-append crash would.
    with open(os.path.join(run_dir, "journal.ndjson"), "ab") as fh:
        fh.write(b'{"key": "half-a-reco')

    resumed = run_sweep(run_dir, resume=True, jobs=1)
    assert resumed.torn
    assert resumed.digest == golden.digest


def test_fresh_run_refuses_a_journaled_dir_without_resume(tmp_path):
    run_dir = str(tmp_path / "run")
    run_sweep(run_dir, _cells(), jobs=1)
    with pytest.raises(ValueError, match="--resume"):
        run_sweep(run_dir, _cells(), jobs=1)


def test_resume_refuses_a_different_grid(tmp_path):
    run_dir = str(tmp_path / "run")
    run_sweep(run_dir, _cells(), jobs=1)
    other = _cells(N_CELLS + 1)
    with pytest.raises(ValueError, match="does not match"):
        run_sweep(run_dir, other, resume=True, jobs=1)


def test_resume_of_a_nonexistent_run_dir_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="no sweep.json"):
        run_sweep(str(tmp_path / "never-ran"), resume=True, jobs=1)


def test_journal_from_another_sweep_is_refused(tmp_path):
    run_a = str(tmp_path / "a")
    run_b = str(tmp_path / "b")
    run_sweep(run_a, _cells(), jobs=1)
    run_sweep(run_b, _cells(N_CELLS + 1), jobs=1)
    # Transplant b's journal into a: the header's spec digest must
    # refuse the mix.
    os.replace(os.path.join(run_b, "journal.ndjson"),
               os.path.join(run_a, "journal.ndjson"))
    with pytest.raises(ValueError, match="different sweep"):
        run_sweep(run_a, resume=True, jobs=1)


# ----------------------------------------------------------------------
# sweep.json: atomic writes, readable errors, no needless rewrite
# ----------------------------------------------------------------------
def _spec_path(run_dir):
    return os.path.join(run_dir, "sweep.json")


@pytest.mark.parametrize("resume", [False, True])
def test_a_torn_spec_is_a_value_error_naming_the_file(tmp_path, resume):
    run_dir = str(tmp_path / "run")
    SweepSpec(cells=_cells()).save(run_dir)
    with open(_spec_path(run_dir), "r+b") as fh:
        fh.truncate(os.path.getsize(_spec_path(run_dir)) // 2)
    with pytest.raises(ValueError) as caught:
        run_sweep(run_dir, None if resume else _cells(), resume=resume,
                  jobs=1)
    assert _spec_path(run_dir) in str(caught.value)


def test_a_spec_write_killed_before_publishing_leaves_the_old_spec(
        tmp_path, monkeypatch):
    run_dir = str(tmp_path / "run")
    SweepSpec(cells=_cells()).save(run_dir)
    before = load_spec(run_dir).digest()

    def killed(src, dst):
        raise KeyboardInterrupt("killed mid-save")

    monkeypatch.setattr(sweeps_mod.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        SweepSpec(cells=_cells(N_CELLS + 1)).save(run_dir)
    monkeypatch.undo()
    assert load_spec(run_dir).digest() == before
    assert os.listdir(run_dir) == ["sweep.json"]  # no temp file left


def test_a_fresh_run_killed_while_saving_its_spec_can_start_again(
        tmp_path, monkeypatch):
    run_dir = str(tmp_path / "run")

    def killed(src, dst):
        raise KeyboardInterrupt("killed mid-save")

    monkeypatch.setattr(sweeps_mod.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(run_dir, _cells(), jobs=1)
    monkeypatch.undo()
    assert not os.path.exists(_spec_path(run_dir))
    assert run_sweep(run_dir, _cells(), jobs=1).ran == N_CELLS


def test_a_fresh_run_keeps_a_spec_that_already_matches(tmp_path):
    run_dir = str(tmp_path / "run")
    prepare_run_dir(run_dir, _cells(), resume=False)
    first = os.stat(_spec_path(run_dir))
    prepare_run_dir(run_dir, _cells(), resume=False)
    again = os.stat(_spec_path(run_dir))
    # os.replace would publish a new inode with a new mtime.
    assert (again.st_ino, again.st_mtime_ns) == \
        (first.st_ino, first.st_mtime_ns)


# ----------------------------------------------------------------------
# Call counts: the spec and each cell's key are built once per run
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_warm_sweep_keys_each_cell_once_and_pins_its_spec_once(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CELL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_METRICS", "1")
    monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
    cold = run_sweep(str(tmp_path / "cold"), _cells(), jobs=1)

    obs_mod.reset()
    calls = collections.Counter()
    _count_calls(monkeypatch, SweepSpec, "to_dict", calls)
    for owner, name in ((sweeps_mod, "cell_key"), (cellcache_mod, "cell_key"),
                        (sweeps_mod, "_wire_digest"),
                        (sweeps_mod, "_write_spec")):
        _count_calls(monkeypatch, owner, name, calls)
    warm = run_sweep(str(tmp_path / "warm"), _cells(), jobs=1)
    metrics = obs_mod.get_obs().metrics
    assert metrics.counter("cellcache.hits").value == N_CELLS
    assert warm.digest == cold.digest and warm.ran == N_CELLS
    assert calls == {"cell_key": N_CELLS, "to_dict": 1, "_wire_digest": 1,
                     "_write_spec": 1}
    assert warm.spec_digest == load_spec(str(tmp_path / "warm")).digest()


def test_a_resume_reads_each_experiment_signature_once(tmp_path,
                                                       monkeypatch):
    budget = cell_from_wire({"experiment": "budget", "params": {
        "extra_compute_ns": 40_000.0, "max_rounds": 20, "seed": 3}})
    run_dir = str(tmp_path / "run")
    run_sweep(run_dir, _cells() + [budget], jobs=1)

    wire._signature.cache_clear()
    seen = collections.Counter()
    signature = inspect.signature

    def counted(fn, *args, **kwargs):
        seen[fn] += 1
        return signature(fn, *args, **kwargs)

    monkeypatch.setattr(inspect, "signature", counted)
    resumed = run_sweep(run_dir, resume=True, jobs=1)
    assert resumed.journal_served == N_CELLS + 1
    assert seen == {run_resolution: 1, run_budget_measurement: 1}
