"""Importing pontus and running its figure commands loads no scipy, and
the figure commands load no OpenSSL.

scipy serves only the rare routes: ``dynamics.expm`` (a flow without usable
eigenmodes, the product oracle) and the quadrature oracle, each importing it
on first use.  The kernel's cache key is a zlib checksum, not a ``hashlib``
digest, whose import loads OpenSSL's ``_hashlib``.  Every check of what a run
loads runs in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

_SCIPY = 'sorted(m for m in sys.modules if m.split(".")[0] == "scipy")'


def loaded(tmp_path, body):
    """The scipy modules loaded after ``body`` runs in a fresh interpreter
    (in ``tmp_path``), and its printed value of ``before`` if it sets one."""
    script = f"import json, sys\nbefore = None\n{body}\nprint(json.dumps([before, {_SCIPY}]))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert loaded(tmp_path, "import pontus, pontus.cli") == [None, []]


def test_import_and_writer_tables_load_no_fractions_or_decimal(tmp_path):
    """The writer's power table is built from Python ints, on first use."""
    exact = 'sorted(m for m in ("fractions", "decimal") if m in sys.modules)'
    body = (
        f"import pontus, pontus.cli\nbefore = {exact}\n"
        f"pontus.dynamics._powers_of_ten()\nassert {exact} == [], {exact}"
    )
    assert loaded(tmp_path, body) == [[], []]


def _gain_map_config(tmp_path):
    sweep = {
        "kind": "kappa-omega",
        "rates_s": [0.75, 0.75, 0.75],
        "rates_f": [0.05, 0.1, 0.15],
        "h": [1.0, 0.0, 0.0],
        "kappa": {"min": 0.1, "max": 1.0, "n": 2},
        "omega": {"min": 0.1, "max": 1.0, "n": 2},
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"schema": 1, "sweep": sweep}))
    return str(path)


@pytest.mark.parametrize(
    "config, command",
    [
        ("fig1.json", ["simulate"]),
        ("fig2_k020.json", ["simulate", "--with-baseline"]),
        (None, ["--jobs", "1", "gain-map"]),  # a 2x2 map
    ],
    ids=["fig1-scan", "fig2-with-baseline", "gain-map-2x2"],
)
def test_figure_commands_load_no_scipy(tmp_path, config, command):
    """Nor OpenSSL: ``before`` is whether ``_hashlib`` loaded."""
    config = str(CONFIGS / config) if config else _gain_map_config(tmp_path)
    argv = ["--config", config, "--output", str(tmp_path), *command]
    body = (
        "import contextlib, io\nfrom pontus.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        'before = "_hashlib" in sys.modules'
    )
    assert loaded(tmp_path, body) == [False, []]


def test_defective_drift_loads_scipy_linalg_on_use(tmp_path):
    body = f"""
import numpy as np
from pontus import ParameterPoint
from pontus.dynamics import ConstantFlow, assemble_generator
flow = ConstantFlow(assemble_generator(ParameterPoint.make((0.5, 0.0, 0.0), (0.0, 0.0, 1.0))))
assert flow._modes is None  # the expm route
before = {_SCIPY}
r = flow.state(np.array([0.3, -0.5, 0.6]), 1.5)
assert np.all(np.isfinite(r)) and np.linalg.norm(r) <= 1.0
"""
    before, after = loaded(tmp_path, body)
    assert before == [] and "scipy.linalg" in after


def test_quadrature_oracle_loads_scipy_integrate_on_use(tmp_path):
    body = f"""
from pontus.nonmarkov import nm_measure_closed_form, nm_measure_quadrature
before = {_SCIPY}
quad = nm_measure_quadrature(0.9, 0.1, 0.05, 1.0, 600.0)
assert quad > 0 and abs(quad - nm_measure_closed_form(0.9, 0.1, 0.05, 1.0)) < 1e-8
"""
    before, after = loaded(tmp_path, body)
    assert before == [] and "scipy.integrate" in after


def _import_time_nodes(node):
    """The statements of a module that run when it is imported: everything
    but the bodies of functions and lambdas."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _import_time_nodes(child)


@pytest.mark.parametrize("path", sorted((SRC / "pontus").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_at_import_time(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offending = []
    for node in _import_time_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        offending += [(node.lineno, n) for n in names if n.split(".")[0] == "scipy"]
    assert offending == []


def _package_imports(path, modules):
    """The modules of ``modules`` that the pontus module at ``path`` imports,
    at import time or inside a function; the package itself is
    ``__init__``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level in (0, 1):
            module = node.module if node.level == 0 else ".".join(
                filter(None, ["pontus", node.module]))
            # "from . import x" imports the module x, if there is one
            names += [f"{module}.{alias.name}" for alias in node.names]
    found = set()
    for parts in (name.split(".") + [""] for name in names):
        if parts[0] == "pontus":
            found.add(parts[1] if parts[1] in modules else "__init__")
    return found - {path.stem}


def test_package_import_graph_has_no_cycle():
    paths = {p.stem: p for p in (SRC / "pontus").glob("*.py")}
    graph = {name: _package_imports(path, paths) for name, path in paths.items()}
    order = []  # modules whose imports are all placed, dependencies first
    while len(order) < len(graph):
        ready = sorted(m for m in graph if m not in order and graph[m] <= set(order))
        assert ready, {m: sorted(graph[m] - set(order)) for m in graph if m not in order}
        order += ready
    assert order.index("core") < order.index("dynamics") < order.index("protocols")
    assert order.index("protocols") < min(order.index("mpemba"), order.index("sweep"))
    assert max(order.index("mpemba"), order.index("sweep")) < order.index("cli")


# Records, in a fresh interpreter, every subprocess started and every file
# opened for writing whose name holds "_stepper" (the kernel cache).
_WATCH = """
import os
events = []

def _watch(event, args):
    if event == "subprocess.Popen":
        events.append([event, str(args[0])])
    elif event == "open" and "_stepper" in str(args[0]) and isinstance(args[2], int) and (
            args[2] & (os.O_WRONLY | os.O_RDWR | os.O_CREAT)):
        events.append([event, str(args[0])])

sys.addaudithook(_watch)
"""


def test_import_starts_no_subprocess_and_writes_no_cache(tmp_path):
    body = _WATCH + (
        "import pontus, pontus.cli\n"
        "from pontus import _stepper\n"
        "before = [events, _stepper._kernel is _stepper._UNTRIED]"
    )
    assert loaded(tmp_path, body) == [[[], True], []]


def test_first_ramp_run_on_a_warm_cache_starts_no_subprocess(tmp_path):
    from pontus import dynamics

    if dynamics.ramp_kernel() is None:
        pytest.skip("no compiled kernel loads here")
    body = _WATCH + (
        "from pontus import ParameterPoint, run_continuous, _stepper\n"
        "s = ParameterPoint.make((1.0, 0.0, 0.0), (0.75, 0.75, 0.75))\n"
        "f = ParameterPoint.make((1.0, 0.0, 0.0), (0.05, 0.1, 0.15))\n"
        "run_continuous(s, f, 1.0, 0.5)\n"
        "before = [events, _stepper._kernel is not None]"
    )
    assert loaded(tmp_path, body) == [[[], True], []]
