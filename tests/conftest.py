"""Shared test configuration: Hypothesis profiles, and a fixture that
counts ``to_fs`` conversions.

CI runs with ``HYPOTHESIS_PROFILE=ci`` for derandomized, reproducible
property tests; local runs keep Hypothesis's default randomized exploration.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def to_fs_calls(monkeypatch):
    """The ns argument of every ``to_fs`` call from here on, counted in
    every ``repro`` module that binds the function."""
    import sys

    from repro.netsim import clock

    real, calls = clock.to_fs, []

    def counted(ns):
        calls.append(ns)
        return real(ns)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "to_fs", None) is real:
            monkeypatch.setattr(module, "to_fs", counted)
    return calls
