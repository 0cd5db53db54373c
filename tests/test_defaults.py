"""Every defaulted parameter and dataclass field of the library is set.

A default that no caller in the repository overrides is a knob nobody
turns: it widens the API without a use.  The walk below reads the AST of
`src/`, `scripts/`, `tests/` and `perfbench/`, resolves import aliases
(`from .domain import cone as cone_domain` makes `cone_domain(...)` a call
of `cone`), and counts a parameter as set when a call passes it by
keyword or by position, or passes `*args` / `**kwargs` that may carry it.
A defaulted dataclass field counts as set the same way through calls of
its class, and also when a `replace(...)` call passes it by keyword or
some code assigns it (`obj.name = ...`, `obj.name += ...`, or
`setattr` / `object.__setattr__` with its name).  Fields declared with
`field(default_factory=...)` are containers filled after construction
and are not checked.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALKED = ("src", "scripts", "tests", "perfbench")

# (function, parameter) -> why its default stays unset by every caller
ALLOWED = {}


def _sources(top):
    for base, dirs, files in os.walk(os.path.join(ROOT, top)):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, encoding="utf-8") as fh:
                    yield ast.parse(fh.read(), path)


def _defaulted(fn, is_method):
    """(name, positional index or None) of each defaulted parameter, the
    index counted from the first argument a caller passes."""
    a = fn.args
    positional = a.posonlyargs + a.args
    skip = int(is_method)
    out = []
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        out.append((arg.arg, i - skip))
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            out.append((arg.arg, None))
    return out


def library_defaults():
    """{(function name, parameter): positional index or None} over the
    public functions and methods of the package."""
    found = {}
    for tree in _sources(os.path.join("src", "wienercap")):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node, False)]
            elif isinstance(node, ast.ClassDef):
                fns = [(f, True) for f in node.body
                       if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for fn, is_method in fns:
                if not fn.name.startswith("_"):
                    for param, index in _defaulted(fn, is_method):
                        found[(fn.name, param)] = index
    return found


def _aliases(tree):
    """local name -> imported name, for `from ... import name as local`."""
    return {alias.asname: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.asname}


def calls():
    """(called name, positional args passed or None for *args, keywords or
    None for **kwargs) of every call in the walked trees."""
    out = []
    for top in WALKED:
        for tree in _sources(top):
            alias = _aliases(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    name = alias.get(node.func.id, node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                else:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                out.append((name, None if starred else len(node.args),
                            None if None in keywords else keywords))
    return out


def unset_defaults():
    defaults = library_defaults()
    unset = set(defaults)
    for name, n_args, keywords in calls():
        for (fn, param), index in defaults.items():
            if fn != name:
                continue
            if (n_args is None or keywords is None or param in keywords
                    or (index is not None and index < n_args)):
                unset.discard((fn, param))
    return unset


def test_walk_resolves_import_aliases():
    """cli.py calls `cone_domain(...)`, the domain family `cone` imported
    under another name, with its halfwidth by position."""
    assert ("cone", "halfwidth") in library_defaults()
    assert ("cone", "halfwidth") not in unset_defaults()


def test_every_defaulted_parameter_is_set_by_some_call():
    unset = unset_defaults() - set(ALLOWED)
    assert not unset, (
        "defaulted parameters that no call in src/, scripts/, tests/ or "
        f"perfbench/ sets: {sorted(unset)}; drop the parameter or add "
        "the caller that needs it")


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _factory_default(value):
    return (isinstance(value, ast.Call)
            and any(k.arg == "default_factory" for k in value.keywords))


def dataclass_defaults():
    """{(class name, field): positional index} of the defaulted fields of
    the package's dataclasses, factory-made containers left out."""
    found = {}
    for tree in _sources(os.path.join("src", "wienercap")):
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                      and isinstance(f.target, ast.Name)]
            for index, f in enumerate(fields):
                if f.value is not None and not _factory_default(f.value):
                    found[(node.name, f.target.id)] = index
    return found


def assigned_attributes():
    """Names of the attributes some code in the walked trees assigns."""
    out = set()
    for top in WALKED:
        for tree in _sources(top):
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (isinstance(node, ast.Call) and ast.unparse(node.func)
                      in ("setattr", "object.__setattr__")
                      and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    out.add(node.args[1].value)
                    continue
                else:
                    continue
                for t in targets:
                    for sub in ast.walk(t):
                        if isinstance(sub, ast.Attribute):
                            out.add(sub.attr)
    return out


def unset_fields():
    defaults = dataclass_defaults()
    assigned = assigned_attributes()
    unset = {key for key in defaults if key[1] not in assigned}
    for name, n_args, keywords in calls():
        for (cls, fld), index in defaults.items():
            if name == "replace":
                if keywords is None or fld in keywords:
                    unset.discard((cls, fld))
            elif name == cls and (n_args is None or keywords is None
                                  or fld in keywords or index < n_args):
                unset.discard((cls, fld))
    return unset


def test_field_walk_sees_constructors_assignments_and_replace():
    """WalkConfig.step is set by position and by replace(...), and
    SeriesTable.partial by assignment; SeriesTable.capacities is a
    factory-made container and is not checked."""
    defaults = dataclass_defaults()
    assert ("WalkConfig", "step") in defaults
    assert ("SeriesTable", "partial") in defaults
    assert ("SeriesTable", "capacities") not in defaults
    assert "partial" in assigned_attributes()
    assert not {("WalkConfig", "step"), ("SeriesTable", "partial")} \
        & unset_fields()


def test_every_defaulted_dataclass_field_is_set_somewhere():
    unset = unset_fields()
    assert not unset, (
        "defaulted dataclass fields that no constructor call, replace(...) "
        f"or assignment in src/, scripts/, tests/ or perfbench/ sets: "
        f"{sorted(unset)}; make the value a constant or add the code that "
        "needs another")
