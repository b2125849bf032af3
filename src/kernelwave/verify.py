"""Convergence-rate studies and dual-backend cross-validation.

The residual of the rescaled kernel against an ``N``-term partial sum decays
like a power of the rescaling parameter ``a``; this module measures that
power empirically.  The leading neglected term oscillates through zero as a
function of ``a``, so a slope fit over raw residuals at fixed anchor values
can be badly corrupted by near-zero samples.  The *envelope* strategy
replaces each anchor by the maximum residual over one full oscillation
period starting at the anchor (together with the ``a`` where the maximum is
attained, so the fitted points genuinely lie on the decay curve).  Residuals
that sink below a multiple of the quadrature error estimate are excluded as
noise.

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
    KernelQuery,
    KernelValue,
    eval_kernel,
    relation_connS,
    relation_connSS,
    rescaled_airy_lhs,
    rescaled_pearcey_lhs,
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
    "fit_loglog_slope",
    "residual_study",
    "check_windows",
    "table_to_csv",
    "table_summary_json",
    "CrossCheckRow",
    "CrossCheckReport",
    "cross_validate",
]


class RateFitError(RuntimeError):
    """Raised when a slope fit lacks enough usable points."""


class PrecisionError(RuntimeError):
    """Raised when every residual sits below the quadrature noise floor."""


# Slope acceptance windows per (transition, N): the theoretical exponent of
# the first neglected term, widened for the oscillatory modulation.
ACCEPTANCE_WINDOWS: dict[str, dict[int, tuple[float, float]]] = {
    "airy-to-s1": {0: (-1.7, -1.3), 1: (-3.35, -2.65), 2: (-4.9, -4.1)},
    "pearcey-to-s2": {0: (-1.55, -1.15), 1: (-3.0, -2.35)},
}

# Residual samples per oscillation period when a slope fit uses the envelope.
_ENVELOPE_SAMPLES = 7

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


def fit_loglog_slope(xs, ys) -> tuple[float, float]:
    """Ordinary least squares slope of log(ys) against log(xs).

    Returns ``(slope, stderr)`` where ``stderr`` is the usual OLS standard
    error of the slope estimate (zero for an exact power law).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise RateFitError("xs and ys must be 1-d arrays of equal length")
    if x.size < 3:
        raise RateFitError(f"need at least 3 points for a slope fit, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise RateFitError("slope fits need strictly positive xs and ys")
    lx, ly = np.log(x), np.log(y)
    dx = lx - lx.mean()
    dy = ly - ly.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise RateFitError("xs are all identical; slope is undefined")
    slope = float(dx @ dy) / sxx
    resid = dy - slope * dx
    dof = x.size - 2
    stderr = float(np.sqrt((resid @ resid) / dof / sxx)) if dof > 0 else 0.0
    return slope, stderr


@dataclass(frozen=True)
class ResidualTable:
    """Residuals of N-term partial sums over an ``a`` grid, with fitted rates.

    ``residuals[N][j]`` is ``|rescaled LHS(a_j) - partial_sum(N, a_j)|``;
    ``slopes[N]``/``slope_ci[N]`` the fitted log-log rate and its standard
    error; ``fit_points[N]`` the (a, residual) pairs actually used by the
    fit (envelope maxima when the envelope strategy was active, see
    ``envelope_used``); ``noise_floor[j]`` the exclusion threshold derived
    from the quadrature error estimates.
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


def _phase_inverse(transition: str, theta: float) -> float:
    """The ``a`` at which the leading correction's oscillation phase
    ``TRANSITION_TABLE[transition].theta * a**beta`` equals ``theta``."""
    if transition == "airy-to-s1":
        return (0.75 * theta) ** (2.0 / 3.0)
    return (theta / (0.75 * np.sqrt(3.0))) ** 0.75


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
    *,
    noise_multiplier: float = 100.0,
) -> ResidualTable:
    """Measure the decay rate of partial-sum residuals over an ``a`` grid.

    For each ``N`` in ``0..N_max`` the residual ``|LHS(a) - partial_sum(N)|``
    is formed at every anchor ``a``.  Slopes come from an OLS fit on logs;
    points below ``noise_multiplier`` times the combined quadrature error
    estimate are excluded.  When the fit of the raw anchor residuals has a
    standard error above 0.2 (or too few usable points), each anchor is
    replaced by the maximum residual over one oscillation period, sampled
    at ``_ENVELOPE_SAMPLES`` points.
    """
    if transition not in TRANSITIONS:
        raise ValueError(f"unknown transition {transition!r}; expected one of {TRANSITIONS}")
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

    base_kv = eval_kernel(
        KernelQuery(kernel=t.kernel, tau1=tau1, tau2=tau2, u=u, v=v, opts=opts)
    )
    base = base_kv.value.real
    coeffs = (
        build_amplitudes(transition, u, v, tau1, tau2, order=2 * N_max)
        if N_max >= 1
        else None
    )

    def residuals_at(a: float) -> tuple[np.ndarray, float]:
        """Residual for every N at one parameter value, plus its noise floor."""
        kv = lhs_fn(a, tau1, tau2, u, v, backend, opts)
        err = kv.error_estimate + base_kv.error_estimate
        partial = base
        out = np.empty(N_max + 1)
        out[0] = abs(kv.value.real - partial)
        for nu in range(1, N_max + 1):
            partial += correction_term(coeffs, nu, a)
            out[nu] = abs(kv.value.real - partial)
        return out, noise_multiplier * err

    res = np.empty((N_max + 1, a_arr.size))
    floor = np.empty(a_arr.size)
    for j, a in enumerate(a_arr):
        res[:, j], floor[j] = residuals_at(float(a))

    # Lazily computed envelope samples, shared across all N.
    env_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def envelope_window(j: int):
        """Residuals over one oscillation period starting at anchor j."""
        if j not in env_cache:
            theta0 = float(t.theta * np.asarray(a_arr[j]) ** t.beta)
            a_hi = _phase_inverse(transition, theta0 + 2.0 * np.pi)
            samples = np.linspace(a_arr[j], a_hi, _ENVELOPE_SAMPLES)
            rs = np.empty((N_max + 1, samples.size))
            fl = np.empty(samples.size)
            rs[:, 0], fl[0] = res[:, j], floor[j]
            for m in range(1, samples.size):
                rs[:, m], fl[m] = residuals_at(float(samples[m]))
            env_cache[j] = (samples, rs, fl)
        return env_cache[j]

    slopes = np.empty(N_max + 1)
    cis = np.empty(N_max + 1)
    env_used: list[bool] = []
    fit_points: list[tuple[np.ndarray, np.ndarray]] = []
    for N in range(N_max + 1):
        usable = res[N] > floor
        if not usable.any():
            raise PrecisionError(
                f"every N={N} residual sits below the noise floor; tighten "
                f"quadrature options or use the saddle backend"
            )
        plain: tuple[float, float] | None = None
        if usable.sum() >= 3:
            plain = fit_loglog_slope(a_arr[usable], res[N][usable])
        if plain is not None and not plain[1] > 0.2:
            slopes[N], cis[N] = plain
            env_used.append(False)
            fit_points.append((a_arr[usable], res[N][usable]))
            continue
        pts_a: list[float] = []
        pts_r: list[float] = []
        for j in range(a_arr.size):
            samples, rs, fl = envelope_window(j)
            ok = rs[N] > fl
            if not ok.any():
                continue
            m = int(np.argmax(np.where(ok, rs[N], -np.inf)))
            pts_a.append(float(samples[m]))
            pts_r.append(float(rs[N][m]))
        if len(pts_a) < 3:
            raise PrecisionError(
                f"N={N}: fewer than 3 envelope maxima clear the noise floor; "
                f"tighten quadrature options or use the saddle backend"
            )
        slopes[N], cis[N] = fit_loglog_slope(pts_a, pts_r)
        env_used.append(True)
        fit_points.append((np.asarray(pts_a), np.asarray(pts_r)))

    return ResidualTable(
        transition=transition,
        point=(u, v, tau1, tau2),
        a_values=a_arr,
        residuals=res,
        slopes=slopes,
        slope_ci=cis,
        noise_floor=floor,
        backend=backend,
        envelope_used=tuple(env_used),
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
    *,
    include_identity_checks: bool = True,
) -> CrossCheckReport:
    """Evaluate each query through both backends and flag disagreements.

    With ``include_identity_checks`` the report also carries, for every
    distinct point appearing in the queries, the kernel-family identities
    (the pi-rescaled s1 versus extended-sine relation, the gauged s2 versus
    s1 relation, and the a=0 transition kernel versus the saddle-backend
    quartic kernel), each evaluated as an independent left/right pair.
    """
    rows: list[CrossCheckRow] = []
    for q in queries:
        kv_d = eval_kernel(replace(q, backend="direct"))
        kv_s = eval_kernel(replace(q, backend="saddle"))
        rows.append(
            _pair_row(
                f"{q.kernel} direct-vs-saddle",
                (q.u, q.v, q.tau1, q.tau2),
                q.a_param,
                kv_d,
                kv_s,
            )
        )
    if include_identity_checks:
        seen: set[tuple[float, float, float, float]] = set()
        for q in queries:
            pt = (q.u, q.v, q.tau1, q.tau2)
            if pt in seen:
                continue
            seen.add(pt)
            u, v, t1, t2 = pt
            lhs, rhs = relation_connS(t1, t2, u, v, q.opts)
            rows.append(_pair_row("identity sine-vs-s1", pt, None, lhs, rhs))
            lhs, rhs = relation_connSS(t1, t2, u, v, q.opts)
            rows.append(_pair_row("identity s1-vs-s2", pt, None, lhs, rhs))
            kv0 = eval_kernel(
                KernelQuery(kernel="transition-a", tau1=t1, tau2=t2, u=u, v=v,
                            a_param=0.0, opts=q.opts)
            )
            kvp = eval_kernel(
                KernelQuery(kernel="pearcey-ext", tau1=t1, tau2=t2, u=u, v=v,
                            backend="saddle", opts=q.opts)
            )
            rows.append(_pair_row("identity transition0-vs-quartic", pt, 0.0, kv0, kvp))
    return CrossCheckReport(rows=tuple(rows))
