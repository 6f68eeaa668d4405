"""Decision tolerances live in one table of ``matcore`` constants: no public
function or method of the package takes a tolerance parameter, except the one
primitive whose callers use more than one value, and every constant of the
table is read by the package."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import spinmoment

ALLOWED = {"spinmoment.matcore.hermitize"}


def is_tolerance(name):
    return name in ("tol", "band") or name.endswith("_tol")


def public_callables():
    """(qualified name, callable) of every public function and method defined in the package."""
    for info in pkgutil.iter_modules(spinmoment.__path__, "spinmoment."):
        mod = importlib.import_module(info.name)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr in vars(obj):
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    member = getattr(obj, attr)
                    if inspect.isfunction(member) or inspect.ismethod(member):
                        yield f"{mod.__name__}.{name}.{attr}", member


def test_only_hermitize_takes_a_tolerance():
    found = {
        f"{qualname}({param})"
        for qualname, fn in public_callables()
        for param in inspect.signature(fn).parameters
        if is_tolerance(param) and qualname not in ALLOWED
    }
    assert found == set()


def test_the_walk_sees_the_allowed_thresholds():
    walked = dict(public_callables())
    for qualname in ALLOWED:
        assert "tol" in inspect.signature(walked[qualname]).parameters
    assert "spinmoment.spinalg.MomentMatrix.from_matrix" in walked


def test_every_table_constant_is_read():
    """A constant of ``matcore``'s table that no package code reads is dead:
    only its definition would name it."""
    package = Path(spinmoment.__file__).parent
    table = {
        target.id
        for node in ast.parse((package / "matcore.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    assert "PSD_TOL" in table
    read = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert table - read == set()
