"""Fixtures shared by the test modules."""

import sys

import pytest

from pontus import _stepper, dynamics
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


@pytest.fixture
def generator_calls(monkeypatch):
    """The list to which each ``assemble_generator`` and ``steady_state`` call
    in this process appends the function's name, wherever pontus looks the
    function up."""
    calls = []
    for original in (dynamics.assemble_generator, dynamics.steady_state):
        def counting(*args, _original=original):
            calls.append(_original.__name__)
            return _original(*args)

        for name, module in list(sys.modules.items()):
            if name == "pontus" or name.startswith("pontus."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
    return calls
