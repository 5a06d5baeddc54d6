"""Module boundaries: no egregium module reaches into another's private
names, so a module's underscored functions can change without breaking
its callers; and no module imports numpy at import time, so the commands
that build no array never load it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egregium

PACKAGE = Path(egregium.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = frozenset(path.stem for path in MODULES)


def private_uses(source):
    """(line, `module._name`) of each attribute access on a name that is
    an egregium module, where the attribute is private."""
    return [(node.lineno, f"{node.value.id}.{node.attr}")
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULE_NAMES
            and node.attr.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_names_of_other_modules(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_private_use():
    source = "from . import curves\n\ncurves._jets(curve, 0.0)\n"
    assert private_uses(source) == [(3, "curves._jets")]


# --- numpy is imported by the code that builds arrays, not at import -------

def import_time_numpy(source):
    """Line of each import of numpy that runs when the module is imported:
    every one outside a function body."""
    lines, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            names = []
        if any(name.partition(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_level_numpy_import(path):
    lines = import_time_numpy(path.read_text(encoding="utf-8"))
    assert not lines, ", ".join(f"{path.name}:{line}: numpy imported at "
                                f"module level" for line in lines)


def test_the_check_sees_a_module_level_numpy_import():
    source = ("import math\nimport numpy as np\nfrom numpy import ndarray\n"
              "from . import jets\n\n\ndef grid(u):\n    import numpy\n"
              "    return numpy.array(u)\n\n\nif math.pi:\n"
              "    import numpy.linalg\n")
    assert import_time_numpy(source) == [2, 3, 13]


# each argv runs in a fresh interpreter, which then reports its exit code
# and whether numpy was loaded
CHILD = """\
import contextlib, io, json, sys
from egregium import cli
cli.build_parser()
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
print(json.dumps([code, "numpy" in sys.modules]))
"""

NUMPY_FREE = {
    "import": ([], None),
    "curve graph": (["curve", "--graph", "x^2", "--range", "-1:1",
                     "--n", "3"], 0),
    "curve parametric": (["curve", "--catalog", "circle2",
                          "--range", "0:6.28318", "--n", "5"], 0),
    "curve implicit": (["curve", "--implicit", "x^2+y^2-4",
                        "--at", "2,0", "--at", "0,2"], 0),
    "geodesic": (["geodesic", "--catalog", "sphere_metric",
                  "--start", "1.5707963,0,0,1", "--length", "3.14159",
                  "--step", "0.001"], 0),
    "catalog": (["catalog"], 0),
    "help": (["--help"], 0),
    "malformed expression": (["curve", "--graph", "sin(",
                              "--range", "0:1", "--n", "3"], 2),
}


def run_child(argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_paths_without_arrays_do_not_import_numpy(name):
    argv, code = NUMPY_FREE[name]
    assert run_child(argv) == [code, False]


def test_a_grid_run_imports_numpy():
    # so that the checks above cannot pass for want of a working child
    argv = ["surface", "--catalog", "sphere", "--radius", "2",
            "--grid", "3x3"]
    assert run_child(argv) == [0, True]
