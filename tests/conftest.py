"""Shared fixtures for the test suite."""

import functools

import pytest

import repro.core.system
import repro.scenarios.service
from repro.sim.engine import Engine


@pytest.fixture
def periodic_mode(monkeypatch):
    """Select the periodic mode whole-system runs are built with.

    Returns ``use(mode)``: after ``use("eager")`` every
    :func:`~repro.core.system.build_and_run` and
    :func:`~repro.scenarios.service.run_scenario` call in the test builds
    ``Engine(periodic="eager")``, the one-dispatch-per-occurrence
    reference the default lazy census is checked against; ``use("lazy")``
    switches back.  The patch is undone when the test ends.
    """
    def use(mode):
        engine = functools.partial(Engine, periodic=mode)
        monkeypatch.setattr(repro.core.system, "Engine", engine)
        monkeypatch.setattr(repro.scenarios.service, "Engine", engine)

    return use
