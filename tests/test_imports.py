"""No module of the package imports a private name of another.

A name that starts with an underscore belongs to its own module; a module
that imports another's private helper couples itself to that module's
implementation.  The walk reads the AST of every module under
`src/wienercap` and reports each `from ... import _name` whose source is
the package, relative (`from .metric import ...`) or absolute (`from
wienercap.metric import ...`).  Dunder names such as `__version__` are
public by convention.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "wienercap")


def private_imports(source: str, filename: str) -> list:
    """"file:line name" for each private name the source imports from the
    package."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module and node.module.split(".")[0] == "wienercap"
        if node.level == 0 and not package:
            continue
        found += [f"{filename}:{node.lineno} {alias.name}"
                  for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                found += private_imports(fh.read(), name)
    assert found == []


def test_the_walk_reports_relative_and_absolute_private_imports():
    source = ("from . import __version__\n"
              "from .metric import dist, _gauge_power\n"
              "from wienercap.kernel import _grid_block as grid\n"
              "from scipy.optimize._highspy._core import _Highs\n")
    assert private_imports(source, "planted.py") == [
        "planted.py:2 _gauge_power", "planted.py:3 _grid_block"]
