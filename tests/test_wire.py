"""Unit tests for wire-format experiment cells (repro.experiments.wire).

These are the contracts ``repro run --file``/``--grid`` and the sweep
spec rely on: experiment canonicalization, parameter normalization
(the cache and journal identity), grid expansion order, and cell
identity.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import repro.obs as obs_mod
from repro.experiments.resolution import WakeupMethod, run_resolution
from repro.experiments.wire import (
    WireCell,
    WireError,
    canonical_experiment,
    cell_from_wire,
    cell_to_wire,
    grid_cells,
    normalize_params,
)
from repro.sweeps import run_sweep

CANONICAL = "repro.experiments.resolution:run_resolution"


# ----------------------------------------------------------------------
# Experiment canonicalization
# ----------------------------------------------------------------------
class TestCanonicalExperiment:
    def test_verb_resolves_to_module_qualname(self):
        name, fn = canonical_experiment("resolution")
        assert name == CANONICAL
        assert callable(fn)

    def test_canonical_path_is_idempotent(self):
        assert canonical_experiment(CANONICAL)[0] == CANONICAL

    def test_unknown_experiment_is_wire_error(self):
        with pytest.raises(WireError):
            canonical_experiment("no-such-experiment")


# ----------------------------------------------------------------------
# Normalization edge cases (properties are in test_digest_properties)
# ----------------------------------------------------------------------
class TestNormalization:
    def test_defaults_are_filled_in(self):
        cell = cell_from_wire({"experiment": "resolution",
                               "params": {"tau": 740.0}})
        assert cell.params["preemptions"] == 1000
        assert cell.params["scheduler"] == "cfs"
        assert cell.params["seed"] == 0
        assert cell.params["method"] is WakeupMethod.NANOSLEEP

    def test_unknown_param_is_rejected(self):
        with pytest.raises(WireError, match="unknown parameter"):
            cell_from_wire({"experiment": "resolution",
                            "params": {"tau": 740.0, "taus": 1}})

    def test_missing_required_param_is_rejected(self):
        with pytest.raises(WireError, match="missing required"):
            cell_from_wire({"experiment": "resolution", "params": {}})

    def test_bool_is_never_coerced_to_float(self):
        def fake(x: float = 1.0):
            return x

        assert normalize_params(fake, {"x": True})["x"] is True

    def test_malformed_cell_shapes_are_rejected(self):
        with pytest.raises(WireError):
            cell_from_wire({"params": {"tau": 740.0}})  # no experiment
        with pytest.raises(WireError):
            cell_from_wire({"experiment": "resolution", "params": [1]})
        with pytest.raises(WireError):
            cell_from_wire(["resolution"])

    def test_enum_params_survive_the_wire(self):
        cell = cell_from_wire({"experiment": "resolution",
                               "params": {"tau": 740.0}})
        wire = cell_to_wire(cell)
        assert wire["params"]["method"] == {
            "__enum__": "repro.core.wakeup:WakeupMethod",
            "value": "nanosleep"}
        assert cell_from_wire(wire) == cell


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
class TestGridCells:
    def test_product_in_sorted_axis_order(self):
        cells = grid_cells("resolution",
                           {"tau": [700.0, 705.0], "seed": [1, 2]})
        assert len(cells) == 4
        # Axes expand sorted by name: 'seed' is the outer loop.
        assert [(c.params["seed"], c.params["tau"]) for c in cells] == [
            (1, 700.0), (1, 705.0), (2, 700.0), (2, 705.0)]

    def test_same_spec_same_cells(self):
        spec = {"tau": [700.0, 705.0, 710.0], "seed": [1, 2]}
        assert (grid_cells("resolution", spec)
                == grid_cells("resolution", spec))

    def test_base_params_apply_to_every_cell(self):
        cells = grid_cells("resolution", {"tau": [700.0, 705.0]},
                           base={"preemptions": 7})
        assert all(c.params["preemptions"] == 7 for c in cells)


# ----------------------------------------------------------------------
# Cell identity
# ----------------------------------------------------------------------
def test_wirecell_is_hashable_identity():
    # frozen dataclass: equal cells are interchangeable dict keys
    a = WireCell(CANONICAL, {"tau": 740.0})
    b = WireCell(CANONICAL, {"tau": 740.0})
    assert a == b


# ----------------------------------------------------------------------
# The signature memo: every check still runs on every call
# ----------------------------------------------------------------------
def _canonical_mode(value):
    if value not in ("fast", "slow"):
        raise ValueError(f"unknown mode {value!r}")
    return value


def _memo_probe(x: float, *, rate: float = 1.0, mode: str = "fast"):
    return x, rate, mode


_memo_probe.__wire_canonical__ = {"mode": _canonical_mode}


class TestSignatureMemo:
    @pytest.mark.parametrize("params, match", [
        ({"x": 1.0, "typo": 2}, "unknown parameter"),
        ({"rate": 2.0}, "missing required"),
        ({"x": 1.0, "mode": "sideways"}, "invalid value"),
    ])
    def test_a_second_call_still_rejects(self, params, match):
        assert normalize_params(_memo_probe, {"x": 1}) == {
            "x": 1.0, "rate": 1.0, "mode": "fast"}
        for _ in range(2):
            with pytest.raises(WireError, match=match):
                normalize_params(_memo_probe, params)

    def test_a_second_call_still_coerces_ints_and_never_bools(self):
        for _ in range(2):
            normalized = normalize_params(_memo_probe,
                                          {"x": 3, "rate": True})
            assert normalized["x"] == 3.0 and type(normalized["x"]) is float
            assert normalized["rate"] is True


def test_a_sweep_cell_without_a_key_counts_as_skipped(tmp_path,
                                                      monkeypatch):
    # A Fraction has no manifest encoding, so the cell has no content
    # key: the sweep hands the executor None, which must neither fetch
    # nor store, and count the cell as skipped.
    monkeypatch.setenv("REPRO_CELL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_METRICS", "1")
    monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
    obs_mod.reset()
    cell = WireCell(CANONICAL, normalize_params(run_resolution, {
        "tau": Fraction(700), "preemptions": 5, "seed": 1}))
    result = run_sweep(str(tmp_path / "run"), [cell], jobs=1)
    assert result.ran == 1 and result.outcomes[0].key is None
    metrics = obs_mod.get_obs().metrics
    assert metrics.counter("cellcache.skipped").value == 1
    assert metrics.counter("cellcache.stores").value == 0
    assert metrics.counter("cellcache.misses").value == 0
