"""Fixtures shared by the test modules."""

import pytest

from pontus import _stepper
from pontus.dynamics import ConstantFlow


@pytest.fixture
def flow_builds(monkeypatch):
    """The list to which each ``ConstantFlow`` build appends its generator."""
    builds = []
    init = ConstantFlow.__init__

    def counting(self, g, *args):
        builds.append(g)
        init(self, g, *args)

    monkeypatch.setattr(ConstantFlow, "__init__", counting)
    return builds


@pytest.fixture
def python_route(monkeypatch):
    """Forces the Python stepper: the kernel loader finds no kernel."""
    monkeypatch.setattr(_stepper, "kernel", lambda check: None)
