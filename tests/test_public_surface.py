"""Every exported name resolves, and no export list repeats a name.

A module without ``__all__`` (``cseries``) has no list to check."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import kernelwave

MODULES = ["kernelwave"] + [
    f"kernelwave.{m.name}" for m in pkgutil.iter_modules(kernelwave.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
