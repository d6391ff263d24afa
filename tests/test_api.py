"""The export lists, kept by hand, name only what exists."""

import importlib
import pkgutil

import pytest

import risofdm

MODULES = ["risofdm"] + [
    f"risofdm.{info.name}" for info in pkgutil.iter_modules(risofdm.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"

