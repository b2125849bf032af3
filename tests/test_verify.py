"""Rate fitting, residual studies, windows, and backend cross-checks."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from kernelwave.kernels import KernelQuery
from kernelwave.verify import (
    ACCEPTANCE_WINDOWS,
    DEFAULT_A_GRID,
    PrecisionError,
    RateFitError,
    ResidualTable,
    check_windows,
    cross_validate,
    fit_loglog_slope,
    residual_study,
    table_summary_json,
    table_to_csv,
)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_exact_power_law():
    a = np.array([2.0, 4.0, 8.0, 16.0])
    slope, stderr = fit_loglog_slope(a, 5.0 * a ** -3.0)
    assert abs(slope + 3.0) < 1e-12
    assert stderr < 1e-12


def test_fit_constant_has_zero_slope():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    slope, _ = fit_loglog_slope(a, np.full(4, 0.7))
    assert abs(slope) < 1e-12


def test_fit_with_mild_noise_stays_close():
    rng = np.random.default_rng(0)
    a = np.geomspace(2, 40, 12)
    ys = a ** -2.5 * np.exp(rng.normal(0, 0.02, size=12))
    slope, stderr = fit_loglog_slope(a, ys)
    assert abs(slope + 2.5) < 0.05
    assert stderr < 0.05


def test_fit_input_validation():
    with pytest.raises(RateFitError):
        fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(RateFitError):
        fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(RateFitError):
        fit_loglog_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# tables and windows
# ---------------------------------------------------------------------------


def _synthetic_table(slopes):
    a = np.array([4.0, 6.0, 9.0])
    n = len(slopes)
    res = np.vstack([a ** s for s in slopes])
    return ResidualTable(
        transition="airy-to-s1",
        point=(0.0, 0.0, 0.0, 0.0),
        a_values=a,
        residuals=res,
        slopes=np.asarray(slopes, dtype=float),
        slope_ci=np.zeros(n),
        noise_floor=np.full(3, 1e-14),
        backend="saddle",
        envelope_used=tuple(False for _ in range(n)),
        fit_points=tuple((a, res[k]) for k in range(n)),
    )


def test_check_windows_passes_inside():
    table = _synthetic_table([-1.5, -3.0, -4.5])
    assert check_windows(table) == []


def test_check_windows_flags_outside():
    table = _synthetic_table([-1.5, -2.0, -4.5])  # N=1 outside [-3.35,-2.65]
    violations = check_windows(table)
    assert len(violations) == 1
    assert "N=1" in violations[0]


def test_residual_table_validates_grid():
    with pytest.raises(ValueError):
        _synthetic_table([-1.5]).__class__(
            **{**_synthetic_table([-1.5]).__dict__, "a_values": np.array([4.0, 3.0, 9.0])}
        )


def test_table_csv_and_json_round_trip():
    table = _synthetic_table([-1.5, -3.0])
    csv = table_to_csv(table)
    lines = csv.strip().splitlines()
    assert lines[0] == "transition,u,v,tau1,tau2,N,a,residual"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "airy-to-s1" and first[5] == "0"
    assert float(first[7]) == pytest.approx(4.0 ** -1.5)

    summary = json.loads(table_summary_json(table))
    assert summary["transition"] == "airy-to-s1"
    assert summary["windows"]["0"]["pass"] is True
    assert summary["slopes"][1] == pytest.approx(-3.0)


def test_summary_json_reports_distance_to_theory():
    # the N-term residual decays like a**(-1.5 (N+1)) toward s1 and like
    # a**(-4/3 (N+1)) toward s2
    airy = _synthetic_table([-1.4, -3.1, -4.3])
    pearcey = replace(_synthetic_table([-1.2, -2.5]), transition="pearcey-to-s2")
    for table, beta in ((airy, 1.5), (pearcey, 4.0 / 3.0)):
        windows = json.loads(table_summary_json(table))["windows"]
        assert sorted(windows) == [str(N) for N in range(table.slopes.size)]
        for N, slope in enumerate(table.slopes):
            verdict = windows[str(N)]
            assert verdict["theory"] == pytest.approx(-beta * (N + 1))
            assert verdict["slope_minus_theory"] == pytest.approx(slope + beta * (N + 1))


# ---------------------------------------------------------------------------
# a short real study (the full protocol runs in the acceptance suite)
# ---------------------------------------------------------------------------


def test_residual_study_smoke():
    table = residual_study(
        "airy-to-s1", (0.9, 0.7, 0.2, -0.3), DEFAULT_A_GRID, 1
    )
    assert table.residuals.shape == (2, len(DEFAULT_A_GRID))
    assert np.all(table.residuals > 0)
    assert check_windows(table) == []
    lo, hi = ACCEPTANCE_WINDOWS["airy-to-s1"][0]
    assert lo <= table.slopes[0] <= hi


def test_residual_study_rejects_bad_arguments():
    with pytest.raises(ValueError):
        residual_study("airy-to-sine", (0, 0, 0, 0), DEFAULT_A_GRID, 0)
    with pytest.raises(ValueError):
        residual_study("airy-to-s1", (0, 0, 0, 0), (4.0, 4.0, 5.0), 0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            residual_study("airy-to-s1", (0, 0, 0, 0), DEFAULT_A_GRID[:-1] + (bad,), 0)


def test_residual_study_noise_floor_exclusion():
    # an absurd noise multiplier pushes every point below the floor
    with pytest.raises(PrecisionError):
        residual_study(
            "airy-to-s1", (0.9, 0.7, 0.2, -0.3), (4.0, 5.5, 7.0), 0,
            noise_multiplier=1e30,
        )


# ---------------------------------------------------------------------------
# cross-validation between backends
# ---------------------------------------------------------------------------


def test_cross_validate_rows_and_identities():
    queries = [
        KernelQuery("airy-ext", 0.2, -0.1, 0.3, -0.4),
        KernelQuery("pearcey-ext", -0.1, 0.15, 0.2, 0.4),
    ]
    report = cross_validate(queries)
    labels = [r.label for r in report.rows]
    assert sum(1 for lbl in labels if "direct-vs-saddle" in lbl) == 2
    assert any("sine-vs-s1" in lbl for lbl in labels)
    assert any("s1-vs-s2" in lbl for lbl in labels)
    assert any("transition0-vs-quartic" in lbl for lbl in labels)
    assert report.n_flagged == 0
    assert max(r.discrepancy for r in report.rows) < 1e-8


def test_cross_validate_without_identities():
    report = cross_validate(
        [KernelQuery("sine-ext", 0.1, -0.2, 0.4, 0.0)],
        include_identity_checks=False,
    )
    assert len(report.rows) == 1
    assert report.rows[0].flagged is False
