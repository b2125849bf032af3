"""Rate fitting, residual studies, windows, and backend cross-checks."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from kernelwave import verify
from kernelwave.kernels import KernelQuery
from kernelwave.phase import TRANSITION_TABLE
from kernelwave.verify import (
    ACCEPTANCE_WINDOWS,
    DEFAULT_A_GRID,
    DEFAULT_STUDY_POINTS,
    PrecisionError,
    RateFitError,
    ResidualTable,
    check_windows,
    cross_validate,
    fit_rate,
    residual_study,
    table_summary_json,
    table_to_csv,
)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_exact_power_law():
    # below 5 points the phase columns drop: a plain (signed) power law
    a = np.array([2.0, 4.0, 8.0, 16.0])
    slope, stderr = fit_rate(a, -5.0 * a ** -3.0, np.exp(1j * a))
    assert abs(slope + 3.0) < 1e-10
    assert stderr < 1e-12


def test_fit_constant_has_zero_slope():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    slope, _ = fit_rate(a, np.full(4, 0.7), np.exp(1j * a))
    assert abs(slope) < 1e-10


def test_fit_with_mild_noise_stays_close():
    rng = np.random.default_rng(0)
    a = np.geomspace(2, 40, 12)
    ys = a ** -2.5 * np.exp(rng.normal(0, 0.02, size=12))
    for t in TRANSITION_TABLE.values():
        slope, stderr = fit_rate(a, ys, t.oscillation(a))
        assert abs(slope + 2.5) < 0.05
        assert stderr < 0.05


def test_fit_input_validation():
    osc = np.ones(3)
    with pytest.raises(RateFitError):
        fit_rate([1.0, 2.0], [1.0, 2.0], osc[:2])
    with pytest.raises(RateFitError):
        fit_rate([1.0, 2.0, 3.0], [1.0, 2.0], osc)
    with pytest.raises(RateFitError):
        fit_rate([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], osc)
    with pytest.raises(RateFitError):
        fit_rate([-1.0, 2.0, 3.0], [1.0, 2.0, 3.0], osc)


@pytest.mark.parametrize("a,r,osc", [
    ([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5, [1.0] * 5),
    ([1.0, 2.0, np.inf, 4.0, 5.0], [1.0, 0.5, 0.3, 0.2, 0.1], [1.0] * 5),
    ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.5, np.nan, 0.2, 0.1], [1.0] * 5),
    ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.5, 0.3, 0.2, 0.1], [1.0, np.nan, 1.0, 1.0, 1.0]),
], ids=["all-zero-residuals", "infinite-a", "nan-residual", "nan-oscillation"])
def test_fit_rejects_degenerate_input(a, r, osc):
    # each used to return the edge of the exponent grid with a NaN stderr
    with pytest.raises(RateFitError):
        fit_rate(a, r, osc)


_C = (0.3, -1.1, 0.7)


def _oscillating(transition, p, a):
    osc = TRANSITION_TABLE[transition].oscillation(a)
    return a**p * (_C[0] + _C[1] * osc.real + _C[2] * osc.imag), osc


@pytest.mark.parametrize("transition", list(TRANSITION_TABLE))
def test_fit_rate_recovers_exponent_with_known_phase(transition):
    a = np.asarray(DEFAULT_A_GRID)
    for p in (-1.5, -4.0 / 3.0, -4.5):
        r, osc = _oscillating(transition, p, a)
        slope, stderr = fit_rate(a, r, osc)
        assert abs(slope - p) < 1e-8 and stderr < 1e-6


@pytest.mark.parametrize("transition", list(TRANSITION_TABLE))
def test_fit_rate_stderr_covers_noisy_exponent(transition):
    # noise of 1e-3 relative to the envelope a**p |c|; with 7 points and 4
    # parameters |p_hat - p| / stderr follows Student's t with 3 degrees of
    # freedom, which stays within 3 for 94% of draws
    rng = np.random.default_rng(17)
    a = np.asarray(DEFAULT_A_GRID)
    for p in (-1.5, -2.65, -4.5):
        r, osc = _oscillating(transition, p, a)
        scale = 1e-3 * np.linalg.norm(_C) * a**p
        fits = np.array([fit_rate(a, r + scale * rng.standard_normal(a.size), osc)
                         for _ in range(100)])
        slope, stderr = fits.T
        assert np.all((stderr > 0) & np.isfinite(stderr))
        assert np.mean(np.abs(slope - p) <= 3.0 * stderr) >= 0.85


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


@pytest.mark.parametrize("transition", list(TRANSITION_TABLE))
def test_residual_study_evaluates_lhs_once_per_anchor(monkeypatch, transition):
    calls = []
    name = "rescaled_airy_lhs" if transition == "airy-to-s1" else "rescaled_pearcey_lhs"
    lhs = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda a, *args: calls.append(a) or lhs(a, *args))
    n_max = max(ACCEPTANCE_WINDOWS[transition])
    table = residual_study(transition, DEFAULT_STUDY_POINTS[1], DEFAULT_A_GRID, n_max)
    assert calls == list(DEFAULT_A_GRID)
    assert table.envelope_used == (False,) * (n_max + 1)


def test_default_studies_have_positive_slope_ci():
    # the benchmark's self-test moves a slope 10 standard errors past a
    # window edge, so a zero standard error would leave it inside
    for transition in TRANSITION_TABLE:
        n_max = max(ACCEPTANCE_WINDOWS[transition])
        for point in DEFAULT_STUDY_POINTS:
            table = residual_study(transition, point, DEFAULT_A_GRID, n_max)
            assert np.all(table.slope_ci > 0) and np.all(np.isfinite(table.slope_ci))


def test_residual_study_rejects_unknown_backend_before_evaluating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("evaluated a kernel")
    monkeypatch.setattr(verify, "eval_kernel", never)
    monkeypatch.setattr(verify, "rescaled_airy_lhs", never)
    for backend in ("Direct", "magic"):
        with pytest.raises(ValueError, match="unknown backend"):
            residual_study("airy-to-s1", (0.9, 0.7, 0.2, -0.3), DEFAULT_A_GRID, 0,
                           backend=backend)


def test_residual_study_rejects_bad_arguments():
    with pytest.raises(ValueError):
        residual_study("airy-to-sine", (0, 0, 0, 0), DEFAULT_A_GRID, 0)
    with pytest.raises(ValueError):
        residual_study("airy-to-s1", (0, 0, 0, 0), (4.0, 4.0, 5.0), 0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            residual_study("airy-to-s1", (0, 0, 0, 0), DEFAULT_A_GRID[:-1] + (bad,), 0)


def test_residual_study_noise_floor_exclusion(monkeypatch):
    # an absurd noise multiplier pushes every point below the floor
    monkeypatch.setattr(verify, "_NOISE_MULTIPLIER", 1e30)
    with pytest.raises(PrecisionError):
        residual_study("airy-to-s1", (0.9, 0.7, 0.2, -0.3), (4.0, 5.5, 7.0), 0)


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


def test_cross_validate_pairs_each_query_and_checks_each_point_once():
    q = KernelQuery("airy-ext", 0.1, -0.2, 0.4, 0.0)
    report = cross_validate([q, q])
    assert [r.label for r in report.rows] == [
        "airy-ext direct-vs-saddle", "airy-ext direct-vs-saddle", "identity sine-vs-s1",
        "identity s1-vs-s2", "identity transition0-vs-quartic"]
    row = report.rows[0]
    assert row.flagged is False
    # two independent geometries: equal to quadrature accuracy, not bitwise
    assert row.value_a != row.value_b
    assert row.discrepancy <= row.combined_error


@pytest.mark.parametrize("kernel", ["sine-ext", "s1", "s2", "transition-a"])
def test_cross_validate_rejects_kernels_without_saddle_route(kernel):
    a = 1.0 if kernel == "transition-a" else None
    with pytest.raises(ValueError, match=f"{kernel}.*airy-ext and pearcey-ext"):
        cross_validate([KernelQuery("airy-ext", 0.1, 0.0, 0.2, 0.1),
                        KernelQuery(kernel, 0.1, -0.2, 0.4, 0.0, a_param=a)])
