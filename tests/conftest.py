"""Shared pytest configuration: Hypothesis profiles.

Select with ``HYPOTHESIS_PROFILE=ci|dev|thorough`` (default: dev).

* ``ci`` — derandomized so CI failures reproduce locally, and
  ``deadline=None`` because shared runners have noisy clocks;
* ``dev`` — the fast default for the edit-test loop;
* ``thorough`` — a deep run for hunting rare cases; note per-test
  ``@settings(max_examples=...)`` still wins where present.
"""

import os

import pytest

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    settings = None


@pytest.fixture(autouse=True)
def _repro_env_hygiene():
    """Restore ``REPRO_*`` env vars (and the obs singleton) after every
    test.

    ``repro.cli.main`` installs its observability config through the
    environment so pool workers inherit it — fine for a real CLI
    process, but an in-process ``main([...])`` call would otherwise
    leak ``REPRO_MANIFEST_DIR``/``REPRO_CELL_CACHE_DIR`` into later
    tests, which then silently read cells from a stale cache instead
    of exercising the code under test."""
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    yield
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key not in saved:
            del os.environ[key]
    os.environ.update(saved)
    import repro.obs as obs_mod

    obs_mod.reset()
    from repro.chaos import reset_active

    reset_active()

if settings is not None:
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        print_blob=True,
    )
    settings.register_profile(
        "dev",
        deadline=None,
    )
    settings.register_profile(
        "thorough",
        deadline=None,
        max_examples=500,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
