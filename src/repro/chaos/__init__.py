"""``repro.chaos`` — deterministic, seeded fault injection.

A *fault schedule* — seeded draws plus explicit events, saved to a
replayable JSON manifest exactly like a ``repro.validate`` case —
injects mid-sweep aborts and signals, cache corruption and lock-holder
stalls at deterministic points in the journaled sweep runner and the
cell cache, so the crash/resume and cache-verification contracts are
exercised by real faults rather than test-only hooks.

Activation is environmental (``REPRO_CHAOS=/path/to/chaos.json``), so
process-pool workers inherit the schedule the same way they inherit
``REPRO_MANIFEST_DIR``, and the *same seed always replays the same
fault schedule* — every draw is a pure function of ``(schedule seed,
injection point, call identity)``, never of wall time or scheduling
order.  See docs/CHAOS.md for the manifest format and the injection-
point catalogue.
"""

from repro.chaos.engine import (
    CHAOS_ENV,
    CHAOS_SCHEMA,
    INJECTION_POINTS,
    ChaosAbort,
    ChaosEngine,
    ChaosSpec,
    FaultEvent,
    active_engine,
    chaos_point,
    load_spec,
    reset_active,
)

__all__ = [
    "CHAOS_ENV",
    "CHAOS_SCHEMA",
    "INJECTION_POINTS",
    "ChaosAbort",
    "ChaosEngine",
    "ChaosSpec",
    "FaultEvent",
    "active_engine",
    "chaos_point",
    "load_spec",
    "reset_active",
]
