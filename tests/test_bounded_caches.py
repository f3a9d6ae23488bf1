"""Every ``functools`` cache in the package has a finite ``maxsize``: an
unbounded cache keeps every key and result it meets for the life of the
process, and a long fuzz or benchmark process meets a great many."""

import functools
import importlib
import inspect
import pkgutil

import gridform

def functools_caches() -> dict:
    """``module.name`` (or ``module.Class.name``) -> each cache wrapper
    defined in a module of the package, found by introspection."""
    found = {}
    for info in pkgutil.iter_modules(gridform.__path__, "gridform."):
        module = importlib.import_module(info.name)
        owners = [(info.name, module)] + [
            (f"{info.name}.{name}", cls)
            for name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == info.name]
        for prefix, owner in owners:
            for name, value in vars(owner).items():
                fn = getattr(value, "__func__", value)  # static/class methods
                if (callable(getattr(fn, "cache_parameters", None))
                        and fn.__module__ == info.name):
                    found[f"{prefix}.{name}"] = fn
    return found


def test_every_cache_has_a_finite_maxsize():
    caches = functools_caches()
    assert "gridform.sampling._cells" in caches  # the guard sees them all
    unbounded = {name for name, fn in caches.items()
                 if fn.cache_parameters()["maxsize"] is None}
    assert unbounded == set()


def test_the_guard_sees_a_new_unbounded_cache(monkeypatch):
    """A module-level ``functools.cache`` and one on a class's static
    method, as if ``gridform.geometry`` defined them."""
    from gridform import geometry

    @functools.cache
    def scratch(x):
        return x

    class Scratch:
        at = staticmethod(scratch)

    scratch.__module__ = Scratch.__module__ = "gridform.geometry"
    monkeypatch.setattr(geometry, "scratch", scratch, raising=False)
    monkeypatch.setattr(geometry, "Scratch", Scratch, raising=False)
    caches = functools_caches()
    assert caches["gridform.geometry.scratch"] is scratch
    assert caches["gridform.geometry.Scratch.at"] is scratch
