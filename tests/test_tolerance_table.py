"""Decision tolerances live in one table of ``matcore`` constants: no public
function or method of the package takes a tolerance parameter, except the two
primitives whose callers use two values each."""

import importlib
import inspect
import pkgutil

import spinmoment

ALLOWED = {"spinmoment.matcore.hermitize", "spinmoment.matcore.is_psd"}


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


def test_only_hermitize_and_is_psd_take_a_tolerance():
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
