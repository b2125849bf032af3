"""Every exported name resolves, and no export list repeats a name; README's
API table names real calls with their real parameters.

A module without ``__all__`` (``cseries``) has no list to check."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


def _readme_api_rows() -> list[tuple[str, list[str]]]:
    """``(name, parameter names)`` of each ``name(params)`` row of README's
    "Python API" table.  Defaults are dropped, and commas inside brackets (a
    default such as ``(-4, 4, -4, 4)``) do not split parameters."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    rows = []
    for m in re.finditer(r"^\| `(\w+)\((.*?)\)` \|", table, re.M):
        params, depth, cur = [], 0, ""
        for ch in m.group(2) + ",":
            depth += (ch in "([{") - (ch in ")]}")
            if ch == "," and depth == 0:
                params.append(cur.split("=", 1)[0].strip())
                cur = ""
            else:
                cur += ch
        rows.append((m.group(1), [p for p in params if p not in ("", "*")]))
    return rows


def test_readme_api_table_matches_signatures():
    rows = _readme_api_rows()
    assert len(rows) >= 10
    for name, params in rows:
        assert name in kernelwave.__all__, name
        assert params == list(inspect.signature(getattr(kernelwave, name)).parameters), name
