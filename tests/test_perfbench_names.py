"""The traced benchmark wraps program functions by name: they must exist."""

from __future__ import annotations

import importlib
from pathlib import Path


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._installed)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in wrapped)
    finally:
        tracer.uninstall()
    names = {(owner.__name__, attr) for owner, attr, _ in wrapped}
    assert {("kernelwave.cli", "eval_kernel"), ("kernelwave.cli", "build_amplitudes"),
            ("kernelwave.cli", "expansion_partial_sum"),
            ("kernelwave.kernels", "integrate_double")} <= names
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
