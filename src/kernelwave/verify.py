"""Convergence-rate studies and dual-backend cross-validation.

The residual of the rescaled kernel against an ``N``-term partial sum decays
like a power of the rescaling parameter ``a``; this module measures that
power empirically.  The leading neglected term is ``a**-(beta*(N+1))``
times a constant plus an oscillation ``Re(c*exp(i*theta(a)))`` whose phase
``theta(a)`` is known (``TRANSITION_TABLE[transition].oscillation``), so it
passes through zero as a function of ``a`` and a log-log fit of the
residual's magnitude would be biased by near-zero samples.  Instead the
signed residual at the anchors is fitted to ``a**p * (c0 + c1 cos(theta) +
c2 sin(theta))``, with ``c`` projected out by linear least squares and ``p``
found by a one-dimensional search (variable projection, Golub & Pereyra,
SIAM J. Numer. Anal. 10 (1973) 413-432).  Each anchor costs one evaluation
of the rescaled kernel.  Residuals at or below a multiple of the quadrature
error estimate are excluded as noise.

Dual-backend cross-validation evaluates the same queries through the two
independent quadrature routes (plain contour geometry versus
steepest-descent paths) and flags disagreements exceeding the combined error
estimates, plus the kernel-family identity checks evaluated both ways.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from io import StringIO

import numpy as np

from .expansion import (
    TRANSITIONS,
    build_amplitudes,
    correction_term,
)
from .kernels import (
    _EMBEDDING as _SADDLE_ROUTES,
    BACKENDS,
    KernelQuery,
    KernelValue,
    eval_kernel,
    eval_kernels,
    relation_connS,
    relation_connSS,
    rescaled_airy_lhs,
    rescaled_pearcey_lhs,
    transition_interpolation_check,
)
from .phase import TRANSITION_TABLE
from .quadrature import QuadOptions

__all__ = [
    "RateFitError",
    "PrecisionError",
    "ResidualTable",
    "ACCEPTANCE_WINDOWS",
    "DEFAULT_A_GRID",
    "DEFAULT_STUDY_POINTS",
    "fit_rate",
    "residual_study",
    "check_windows",
    "table_to_csv",
    "table_summary_json",
    "CrossCheckRow",
    "CrossCheckReport",
    "cross_validate",
]


class RateFitError(ValueError):
    """Raised when a rate fit's points cannot determine a rate."""


class PrecisionError(ValueError):
    """Raised when fewer than 3 residuals clear the quadrature noise floor."""


# Slope acceptance windows per (transition, N): the theoretical exponent of
# the first neglected term, widened for the oscillatory modulation.
ACCEPTANCE_WINDOWS: dict[str, dict[int, tuple[float, float]]] = {
    "airy-to-s1": {0: (-1.7, -1.3), 1: (-3.35, -2.65), 2: (-4.9, -4.1)},
    "pearcey-to-s2": {0: (-1.55, -1.15), 1: (-3.0, -2.35)},
}

# Exponents scanned by a rate fit's coarse search, before refinement; far
# wider than the theoretical slopes, -4/3 to -4.5.
_EXPONENT_GRID = np.linspace(-20.0, 10.0, 601)

# An anchor's residual must exceed this many times the combined error
# estimate of its two kernel values to enter a rate fit.
_NOISE_MULTIPLIER = 100.0

# Default anchor grid: geometric-ish spacing; the saddle backend stays
# accurate well beyond 14, the plain geometry loses ground to cancellation.
DEFAULT_A_GRID: tuple[float, ...] = (4.0, 5.5, 7.0, 8.5, 10.0, 12.0, 14.0)

# Default sample points: moderate coordinates chosen so the first neglected
# term already dominates the residual at the smallest anchor (large
# coordinate spreads inflate the higher-order coefficients and push the
# crossover beyond a=4, which would flatten the fitted slopes).
DEFAULT_STUDY_POINTS: tuple[tuple[float, float, float, float], ...] = (
    (0.9, 0.7, 0.2, -0.3),
    (-0.4, 0.6, -0.5, 0.3),
    (-0.6, 0.4, -0.3, 0.5),
)


@dataclass(frozen=True)
class ResidualTable:
    """Residuals of N-term partial sums over an ``a`` grid, with fitted rates.

    ``residuals[N][j]`` is ``|rescaled LHS(a_j) - partial_sum(N, a_j)|``;
    ``slopes[N]``/``slope_ci[N]`` the exponent fitted by :func:`fit_rate`
    to the signed residuals and its nonlinear least-squares standard error;
    ``fit_points[N]`` the (a, residual) pairs of the anchors the fit used,
    those above ``noise_floor[j]``, the exclusion threshold derived from the
    quadrature error estimates.  ``envelope_used`` is all False; it is kept
    for readers of the field.
    """

    transition: str
    point: tuple[float, float, float, float]
    a_values: np.ndarray
    residuals: np.ndarray
    slopes: np.ndarray
    slope_ci: np.ndarray
    noise_floor: np.ndarray
    backend: str
    envelope_used: tuple[bool, ...]
    fit_points: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        a = np.asarray(self.a_values, dtype=float)
        if np.any(np.diff(a) <= 0):
            raise ValueError("a_values must be strictly increasing")
        if np.any(np.asarray(self.residuals) < 0):
            raise ValueError("residuals must be nonnegative")


def fit_rate(a_values, residuals, oscillation) -> tuple[float, float]:
    """Fit signed residuals to ``a**p * (c0 + c1 cos(theta) + c2 sin(theta))``.

    ``oscillation[j]`` is ``exp(i*theta(a_j))``.  Below 5 points the two
    phase columns are dropped and the model is the plain power law
    ``c0 * a**p``.  The model is linear in ``c`` and nonlinear only in
    ``p``, so ``c`` is projected out (variable projection): with ``P`` the
    projector onto the columns, which does not depend on ``p``, ``p``
    minimizes the scale-free cost ``|(I - P) y|**2 / |y|**2`` of
    ``y = residuals * a**-p``, over a coarse grid refined around its
    minimum.  Returns ``(p, stderr)``, the nonlinear least-squares standard
    error of ``p`` with the row weights ``a**-p`` frozen at the optimum.
    """
    a = np.asarray(a_values, dtype=float)
    r = np.asarray(residuals, dtype=float)
    osc = np.asarray(oscillation, dtype=complex)
    if not a.shape == r.shape == osc.shape or a.ndim != 1:
        raise RateFitError("a_values, residuals and oscillation must be 1-d of equal length")
    if a.size < 3:
        raise RateFitError(f"need at least 3 points for a rate fit, got {a.size}")
    if np.any(a <= 0) or np.ptp(a) == 0:
        raise RateFitError("a_values must be positive and not all equal")
    cols = [np.ones_like(a)] + ([osc.real, osc.imag] if a.size >= 5 else [])
    q = np.linalg.qr(np.column_stack(cols))[0]
    log_a = np.log(a)

    def off_basis(y):
        """``(I - P) y``, column by column."""
        return y - q @ (q.T @ y)

    def cost(ps):
        y = r[:, None] * np.exp(-np.outer(log_a, ps))
        return np.sum(off_basis(y) ** 2, axis=0) / np.sum(y**2, axis=0)

    p = float(_EXPONENT_GRID[np.argmin(cost(_EXPONENT_GRID))])
    step = _EXPONENT_GRID[1] - _EXPONENT_GRID[0]
    while step > 1e-12:
        ps = np.linspace(p - step, p + step, 21)
        p = float(ps[np.argmin(cost(ps))])
        step = ps[1] - ps[0]

    # Gauss-Newton covariance of p with c free: the p column of the
    # Jacobian, log(a) times the fitted shape, projected off the columns.
    y = r * a**-p
    misfit = off_basis(y)
    dp = off_basis(log_a * (y - misfit))
    sigma2 = float(misfit @ misfit) / (a.size - q.shape[1] - 1)
    return p, float(np.sqrt(sigma2 / (dp @ dp)))


def _lhs_function(transition: str):
    # By name from this module's globals: perfbench/spans.py wraps them.
    return rescaled_airy_lhs if transition == "airy-to-s1" else rescaled_pearcey_lhs


def residual_study(
    transition: str,
    point,
    a_values,
    N_max: int,
    backend: str = "saddle",
    opts: QuadOptions | None = None,
) -> ResidualTable:
    """Measure the decay rate of partial-sum residuals over an ``a`` grid.

    For each ``N`` in ``0..N_max`` the signed residual ``LHS(a) -
    partial_sum(N)`` is formed at every anchor ``a``, one LHS evaluation per
    anchor.  Anchors whose residual is at or below ``_NOISE_MULTIPLIER``
    (100) times the combined quadrature error estimate are excluded, and
    :func:`fit_rate` fits the rest with the transition's known phase.
    """
    if transition not in TRANSITIONS:
        raise ValueError(f"unknown transition {transition!r}; expected one of {TRANSITIONS}")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if N_max < 0:
        raise ValueError("N_max must be nonnegative")
    u, v, tau1, tau2 = (float(c) for c in point)
    a_arr = np.asarray(a_values, dtype=float)
    if a_arr.ndim != 1 or a_arr.size < 3:
        raise ValueError("a_values must contain at least 3 values")
    if (not np.all(np.isfinite(a_arr)) or np.any(a_arr <= 0)
            or np.any(np.diff(a_arr) <= 0)):
        raise ValueError("a_values must be finite, positive and strictly increasing")
    opts = opts or QuadOptions()
    lhs_fn = _lhs_function(transition)
    t = TRANSITION_TABLE[transition]

    base_kv = eval_kernel(KernelQuery(kernel=t.kernel, tau1=tau1, tau2=tau2, u=u, v=v), opts)
    coeffs = (
        build_amplitudes(transition, u, v, tau1, tau2, order=2 * N_max)
        if N_max >= 1
        else None
    )

    signed = np.empty((N_max + 1, a_arr.size))
    floor = np.empty(a_arr.size)
    for j, a in enumerate(a_arr):
        kv = lhs_fn(float(a), tau1, tau2, u, v, backend, opts)
        floor[j] = _NOISE_MULTIPLIER * (kv.error_estimate + base_kv.error_estimate)
        partial = base_kv.value.real
        signed[0, j] = kv.value.real - partial
        for nu in range(1, N_max + 1):
            partial += correction_term(coeffs, nu, float(a))
            signed[nu, j] = kv.value.real - partial
    res = np.abs(signed)
    oscillation = t.oscillation(a_arr)

    slopes = np.empty(N_max + 1)
    cis = np.empty(N_max + 1)
    fit_points: list[tuple[np.ndarray, np.ndarray]] = []
    for N in range(N_max + 1):
        usable = res[N] > floor
        if usable.sum() < 3:
            raise PrecisionError(
                f"N={N}: fewer than 3 residuals clear the noise floor; tighten "
                f"quadrature options or use the saddle backend"
            )
        slopes[N], cis[N] = fit_rate(a_arr[usable], signed[N][usable],
                                     oscillation[usable])
        fit_points.append((a_arr[usable], res[N][usable]))

    return ResidualTable(
        transition=transition,
        point=(u, v, tau1, tau2),
        a_values=a_arr,
        residuals=res,
        slopes=slopes,
        slope_ci=cis,
        noise_floor=floor,
        backend=backend,
        envelope_used=(False,) * (N_max + 1),
        fit_points=tuple(fit_points),
    )


def check_windows(table: ResidualTable) -> list[str]:
    """Slope-window violations for the table's transition; empty means pass."""
    windows = ACCEPTANCE_WINDOWS[table.transition]
    out = []
    for N, (lo, hi) in windows.items():
        if N >= table.slopes.size:
            continue
        s = table.slopes[N]
        if not lo <= s <= hi:
            out.append(
                f"{table.transition} N={N}: slope {s:.3f} outside [{lo}, {hi}]"
            )
    return out


def table_to_csv(table: ResidualTable) -> str:
    """Residual rows as CSV: transition,u,v,tau1,tau2,N,a,residual."""
    buf = StringIO()
    buf.write("transition,u,v,tau1,tau2,N,a,residual\n")
    u, v, t1, t2 = table.point
    for N in range(table.residuals.shape[0]):
        for a, r in zip(table.a_values, table.residuals[N]):
            buf.write(
                f"{table.transition},{u:.17g},{v:.17g},{t1:.17g},{t2:.17g},"
                f"{N},{a:.17g},{r:.17g}\n"
            )
    return buf.getvalue()


def table_summary_json(table: ResidualTable) -> str:
    """Slope summary with window verdicts as a JSON object; each verdict
    also gives the theoretical slope and the fitted slope's distance to it."""
    windows = ACCEPTANCE_WINDOWS[table.transition]
    verdicts = {}
    for N, (lo, hi) in windows.items():
        if N < table.slopes.size:
            # the nu-th term decays like a**(-beta*nu): the N-term residual
            # has the slope -beta*(N+1)
            theory = -TRANSITION_TABLE[table.transition].beta * (N + 1)
            verdicts[str(N)] = {
                "window": [lo, hi],
                "slope": float(table.slopes[N]),
                "pass": bool(lo <= table.slopes[N] <= hi),
                "theory": theory,
                "slope_minus_theory": float(table.slopes[N] - theory),
            }
    return json.dumps(
        {
            "transition": table.transition,
            "point": list(table.point),
            "backend": table.backend,
            "a_values": [float(a) for a in table.a_values],
            "slopes": [float(s) for s in table.slopes],
            "slope_ci": [float(s) for s in table.slope_ci],
            "envelope_used": list(table.envelope_used),
            "windows": verdicts,
        }
    )


# ---------------------------------------------------------------------------
# Dual-backend cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossCheckRow:
    """One cross-validated pair of evaluations."""

    label: str
    point: tuple[float, float, float, float]
    a_param: float | None
    value_a: complex
    value_b: complex
    discrepancy: float
    combined_error: float
    flagged: bool


@dataclass(frozen=True)
class CrossCheckReport:
    rows: tuple[CrossCheckRow, ...]

    @property
    def n_flagged(self) -> int:
        return sum(r.flagged for r in self.rows)


def _pair_row(label, point, a_param, kv_a: KernelValue, kv_b: KernelValue) -> CrossCheckRow:
    disc = abs(kv_a.value - kv_b.value)
    combined = kv_a.error_estimate + kv_b.error_estimate + 1e-13
    return CrossCheckRow(
        label=label,
        point=point,
        a_param=a_param,
        value_a=kv_a.value,
        value_b=kv_b.value,
        discrepancy=float(disc),
        combined_error=float(combined),
        flagged=bool(disc > combined),
    )


def cross_validate(
    queries: list[KernelQuery],
    opts: QuadOptions | None = None,
) -> CrossCheckReport:
    """Evaluate each query through both backends and flag disagreements.

    Each side is one :func:`~kernelwave.kernels.eval_kernels` batch with
    ``opts``.  A kernel without a saddle route (not airy-ext or pearcey-ext)
    raises.

    The report also carries, for every distinct point appearing in the
    queries, in order of first appearance, the kernel-family identities
    (the pi-rescaled s1 versus extended-sine relation, the gauged s2 versus
    s1 relation, and the a=0 transition kernel versus the saddle-backend
    quartic kernel), each evaluated as an independent left/right pair.  In
    "identity sine-vs-s1" s1 is segment quadrature and the extended sine
    kernel its closed form, so the pair compares two code paths.
    """
    for q in queries:
        if q.kernel not in _SADDLE_ROUTES:
            raise ValueError(f"{q.kernel} has no saddle route to compare against; "
                             f"only {' and '.join(_SADDLE_ROUTES)} have one")
    direct = eval_kernels([replace(q, backend="direct") for q in queries], opts)
    saddle = eval_kernels([replace(q, backend="saddle") for q in queries], opts)
    rows = [_pair_row(f"{q.kernel} direct-vs-saddle", (q.u, q.v, q.tau1, q.tau2),
                      q.a_param, kv_d, kv_s)
            for q, kv_d, kv_s in zip(queries, direct, saddle)]
    for pt in dict.fromkeys((q.u, q.v, q.tau1, q.tau2) for q in queries):
        u, v, t1, t2 = pt
        for label, (lhs, rhs), a_param in (
                ("identity sine-vs-s1", relation_connS(t1, t2, u, v, opts), None),
                ("identity s1-vs-s2", relation_connSS(t1, t2, u, v, opts), None),
                ("identity transition0-vs-quartic",
                 transition_interpolation_check(0.0, t1, t2, u, v, opts), 0.0)):
            rows.append(_pair_row(label, pt, a_param, lhs, rhs))
    return CrossCheckReport(rows=tuple(rows))
