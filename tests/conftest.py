"""Shared fixtures for the taxdelay test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from taxdelay.model import LevyModel, new_model
from taxdelay.scale import ScaleSet

# ---------------------------------------------------------------------------
# Hypothesis profile: on small shared hosts the wall time of one example
# varies several-fold from run to run, so per-example deadlines are noise.
# ---------------------------------------------------------------------------

settings.register_profile(
    "taxdelay",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("taxdelay")


# ---------------------------------------------------------------------------
# Baseline scenario used throughout: c=1.2, lam=1, mu=1.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def base_model() -> LevyModel:
    """Premium 1.2, unit claim intensity, unit claim rate (drift +0.2)."""
    return new_model(1.2, 1.0, 1.0)


@pytest.fixture(scope="session")
def scale05(base_model: LevyModel) -> ScaleSet:
    """Baseline scale family at discount rate q=0.05."""
    return ScaleSet(base_model, 0.05)


@pytest.fixture(scope="session")
def scale002(base_model: LevyModel) -> ScaleSet:
    """Baseline scale family at the small discount rate q=0.002."""
    return ScaleSet(base_model, 0.002)
