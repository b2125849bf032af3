"""The traced benchmark wraps program functions by name: they must exist,
and the program must still call them through those names."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("spans").Tracer()
    yield tracer
    tracer.uninstall()


def test_tracer_wraps_and_restores_every_name(tracer):
    tracer.install()
    wrapped = list(tracer._installed)
    assert all(getattr(owner, attr) is not original
               for owner, attr, original in wrapped)
    tracer.uninstall()
    names = {(owner.__name__, attr) for owner, attr, _ in wrapped}
    assert {("kernelwave.cli", "eval_kernel"), ("kernelwave.cli", "build_amplitudes"),
            ("kernelwave.cli", "expansion_partial_sum"),
            ("kernelwave.kernels", "integrate_double")} <= names
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_traced_rate_study_counts_every_layer(tracer):
    from kernelwave import verify
    from kernelwave.kernels import KernelQuery

    tracer.install()
    verify.residual_study("airy-to-s1", verify.DEFAULT_STUDY_POINTS[0], (4.0, 5.5, 7.0), 0)
    verify.eval_kernel(KernelQuery("airy-ext", 0.2, -0.1, 0.3, -0.4, backend="saddle"))
    tracer.uninstall()
    for label in ("kernels.rescaled_lhs", "phase.branch_table", "kernels.eval_kernel",
                  "quadrature.integrate_single"):
        assert tracer.calls[label] > 0, label
    assert tracer.calls["kernels.rescaled_lhs"] == tracer.counts["lhs_evals"]


def test_traced_amplitude_build_counts_the_series_layer(tracer):
    # spans.py finds cseries functions through the names expansion imports;
    # series work moved out of those names would silently read as none.
    from kernelwave import expansion

    tracer.install()
    expansion.build_amplitudes("pearcey-to-s2", 0.3, -0.2, 0.1, 0.4, order=24)
    tracer.uninstall()
    assert tracer.calls["cseries"] > 0
    assert tracer.counts["s2_ops"] > 0
