"""Every name in a package module's ``__all__`` must exist."""

import importlib
import pkgutil

import pytest

import adacur

MODULES = ["adacur"] + [f"adacur.{info.name}"
                        for info in pkgutil.iter_modules(adacur.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name} repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ lists missing names {missing}"
