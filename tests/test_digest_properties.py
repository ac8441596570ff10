"""Property tests for cell-digest stability — the dedupe invariant.

The cell cache and the sweep journal key work by ``CellCache.key_for``
over the normalized cell (:mod:`repro.experiments.wire`), so "the same cell,
spelled differently" MUST collide to one key and distinct cells must
not.  Hypothesis hunts the spellings humans produce:

* parameter dicts in any insertion order;
* floats written as any equivalent literal (``repr`` round-trip);
* ints where the signature default is a float (JSON clients drop
  the ``.0``);
* defaulted parameters omitted vs passed explicitly.

A violation in either direction is costly: a spurious key split
re-simulates work the cache already holds; a spurious collision serves
one cell's result for another.
"""

from __future__ import annotations

import json
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.resolution import run_resolution
from repro.experiments.wire import cell_from_wire, cell_to_wire, normalize_params
from repro.obs.cellcache import CellCache
from repro.obs.manifest import _sanitize

from tests.strategies import finite_floats, param_dicts

#: One key oracle for the whole module — ``key_for`` only touches the
#: directory at construction, so a single shared instance is fine.
CACHE = CellCache(tempfile.mkdtemp(prefix="digest-props-"))

EXPERIMENT = "repro.experiments.resolution:run_resolution"

#: The experiment's own defaults, as the wire would carry them
#: (sanitized — the enum travels as its ``{"__enum__": ...}`` form).
RESOLUTION_DEFAULTS = normalize_params(run_resolution, {"tau": 0.0})
del RESOLUTION_DEFAULTS["tau"]


def canonical_json(params):
    return json.dumps({k: _sanitize(v) for k, v in params.items()},
                      sort_keys=True)


# ----------------------------------------------------------------------
# key_for over raw parameter dicts
# ----------------------------------------------------------------------
class TestKeyOverParams:
    @given(params=param_dicts)
    def test_key_ignores_dict_insertion_order(self, params):
        reversed_params = dict(reversed(list(params.items())))
        assert (CACHE.key_for(EXPERIMENT, params)
                == CACHE.key_for(EXPERIMENT, reversed_params))

    @given(params=param_dicts)
    def test_key_is_deterministic(self, params):
        assert (CACHE.key_for(EXPERIMENT, params)
                == CACHE.key_for(EXPERIMENT, dict(params)))

    @given(a=param_dicts, b=param_dicts)
    def test_distinct_params_get_distinct_keys(self, a, b):
        """Keys collide exactly when the canonical sanitized JSON does
        — no weaker (hash truncation) and no stronger (dict order)."""
        same_cell = canonical_json(a) == canonical_json(b)
        same_key = (CACHE.key_for(EXPERIMENT, a)
                    == CACHE.key_for(EXPERIMENT, b))
        assert same_key == same_cell

    @given(value=finite_floats)
    def test_equivalent_float_spellings_collide(self, value):
        """Any literal that parses back to the same float keys
        identically — ``740.0``, ``7.4e2``, ``740.00`` are one cell."""
        respelled = float(repr(value))
        assert (CACHE.key_for(EXPERIMENT, {"tau": value})
                == CACHE.key_for(EXPERIMENT, {"tau": respelled}))


# ----------------------------------------------------------------------
# Normalization: the wire-level equivalences
# ----------------------------------------------------------------------
class TestNormalizationEquivalence:
    @given(tau=st.floats(min_value=1.0, max_value=100_000.0,
                         allow_nan=False),
           seed=st.integers(min_value=0, max_value=2**31),
           explicit=st.sets(st.sampled_from(sorted(RESOLUTION_DEFAULTS))))
    def test_defaulted_vs_explicit_params_key_identically(
            self, tau, seed, explicit):
        """Omitting a defaulted parameter and passing its default
        explicitly are the same cell — any subset of the defaults
        spelled out must not split the key."""
        minimal = {"tau": tau, "seed": seed}
        spelled_out = {name: _sanitize(RESOLUTION_DEFAULTS[name])
                       for name in explicit}
        spelled_out.update(minimal)  # drawn values win over defaults
        lean = cell_from_wire({"experiment": "resolution",
                               "params": minimal})
        fat = cell_from_wire({"experiment": "resolution",
                              "params": spelled_out})
        assert lean == fat
        assert (CACHE.key_for(lean.experiment, lean.params)
                == CACHE.key_for(fat.experiment, fat.params))

    @given(tau=st.integers(min_value=1, max_value=100_000))
    def test_int_for_float_default_coerces(self, tau):
        """JSON clients drop the ``.0``; an int where the default is a
        float must key as the float cell, not a distinct one."""
        as_int = cell_from_wire({"experiment": "resolution",
                                 "params": {"tau": tau}})
        as_float = cell_from_wire({"experiment": "resolution",
                                   "params": {"tau": float(tau)}})
        assert as_int == as_float
        assert isinstance(as_int.params["tau"], float)
        assert (CACHE.key_for(as_int.experiment, as_int.params)
                == CACHE.key_for(as_float.experiment, as_float.params))

    @given(tau=st.floats(min_value=1.0, max_value=100_000.0,
                         allow_nan=False),
           preemptions=st.integers(min_value=1, max_value=5000),
           scheduler=st.sampled_from(["cfs", "eevdf"]),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_wire_round_trip_is_identity(self, tau, preemptions,
                                         scheduler, seed):
        """``cell_to_wire`` then ``cell_from_wire`` reproduces the cell
        exactly — what travels is what dedupes."""
        cell = cell_from_wire({
            "experiment": "resolution",
            "params": {"tau": tau, "preemptions": preemptions,
                       "scheduler": scheduler, "seed": seed},
        })
        assert cell_from_wire(cell_to_wire(cell)) == cell

    @given(tau=st.floats(min_value=1.0, max_value=100_000.0,
                         allow_nan=False))
    def test_verb_and_canonical_path_key_identically(self, tau):
        """A cell named by registry verb keys identically to the same
        cell named by its canonical ``module:qualname`` path (the
        identity the ``--jobs`` runner caches under)."""
        by_verb = cell_from_wire({"experiment": "resolution",
                                  "params": {"tau": tau}})
        by_path = cell_from_wire({"experiment": EXPERIMENT,
                                  "params": {"tau": tau}})
        assert by_verb == by_path
