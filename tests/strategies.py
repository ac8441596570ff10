"""Shared Hypothesis strategies for scheduler property tests.

One place to define "a plausible task mix" so every property file
exercises the same distribution — and widening it (e.g. to the full
nice range) widens every test at once.
"""

from hypothesis import strategies as st

MS = 1_000_000

#: Moderate nice values: the range real workloads live in.  Lists of
#: these make multi-task fairness mixes.
nice_moderate = st.integers(min_value=-10, max_value=10)
nice_values = st.lists(nice_moderate, min_size=2, max_size=5)

#: The full kernel range, including the ±extremes whose ~88× weight
#: ratio stresses every vruntime formula.
nice_full_range = st.integers(min_value=-20, max_value=19)
nice_extreme = st.sampled_from([-20, -19, 18, 19])

#: Root seeds for deterministic sub-generators (RngStreams etc.).
seeds = st.integers(min_value=0, max_value=2**16)

#: Attacker measurement padding in µs (the §4.1 budget knob).
attacker_padding_us = st.integers(min_value=6, max_value=60)

schedulers = st.sampled_from(["cfs", "eevdf"])

#: Positive execution charges at tick-ish granularity (ns).
charge_ns = st.floats(min_value=1_000.0, max_value=4 * MS,
                      allow_nan=False, allow_infinity=False)

#: One runqueue operation for stateful wake/sleep properties; the
#: interpretation (which task, how much charge) is up to the test.
rq_ops = st.lists(
    st.tuples(st.sampled_from(["wake", "sleep", "charge", "pick"]),
              st.integers(min_value=0, max_value=7),
              charge_ns),
    min_size=1, max_size=40,
)

#: Workload-generator seeds for fuzz-driven properties (small range so
#: Hypothesis shrinks toward the simplest failing mix).
workload_seeds = st.integers(min_value=0, max_value=127)

#: Named feature variants from the differential grid (see
#: repro.validate.workload.FEATURE_VARIANTS).  Listed literally so this
#: module stays import-light; test_migration_properties asserts the
#: list matches the source of truth.
FEATURE_VARIANT_NAMES = [
    "default",
    "no-gentle-sleepers",
    "no-wakeup-preemption",
    "min-slice-guard",
    "run-to-parity",
    "no-place-lag",
]
feature_variant_names = st.sampled_from(FEATURE_VARIANT_NAMES)

# ----------------------------------------------------------------------
# Cell-parameter strategies for the cell-key digest properties
# (tests/test_digest_properties.py): the cell cache and the sweep
# journal key cells by the sha256 of their sanitized params, so "same cell" spellings — any dict
# key order, equivalent float spellings, defaulted vs explicit — must
# collide and different values must not.
# ----------------------------------------------------------------------

#: Finite floats whose repr round-trips exactly (all of them, in
#: Python 3 — that exactness is what the digest layer leans on).
finite_floats = st.floats(allow_nan=False, allow_infinity=False)

#: Scalar parameter values a wire cell can carry.
param_scalars = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    finite_floats,
    st.booleans(),
    st.text(max_size=20),
    st.none(),
    st.binary(max_size=16),
)

#: Parameter names: short identifier-ish strings.
param_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)

#: Possibly-nested parameter values (lists and dicts of scalars).
param_values = st.recursive(
    param_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(param_names, children, max_size=4),
    ),
    max_leaves=8,
)

#: One cell's parameter dict.
param_dicts = st.dictionaries(param_names, param_values, max_size=6)
