"""Asymptotic-expansion coefficients and fluctuation terms for the transitions.

The rescaled Airy and quartic kernels approach the S1/S2 sine-kernel variants
with oscillatory corrections ordered in inverse powers of the rescaling
parameter ``a``.  Each correction term is a finite combination of

* *amplitude coefficients* ``b_{k,l}`` and ``c_{k,l}`` — Taylor coefficients
  of two bivariate analytic functions built from the branch series of the
  cubic/quartic phase (:func:`build_amplitudes`),
* *Gaussian moments* ``B_{k,l}`` and ``C_k`` — universal constants from
  integrating monomials (times a half-plane splitting factor) against
  ``exp(-x**2-y**2)`` (:func:`gauss_moment_B`, :func:`gauss_moment_C`),
* an oscillatory phase ``exp(±i*theta(a))`` carried by the mixed saddle
  pairings.

The first correction term collapses to the closed-form fluctuation formulas
:func:`fluc_s1` / :func:`fluc_s2`; :func:`expansion_partial_sum` assembles the
kernel value plus the first ``N`` corrections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cseries import (
    SeriesUsageError,
    TruncatedSeries1,
    TruncatedSeries2,
    conjugate_coeffs,
    s1_add,
    s1_arg_scale,
    s1_derivative,
    s1_exp,
    s1_from_coeffs,
    s1_mul,
    s1_scale,
    s2_add,
    s2_from_x,
    s2_from_y,
    s2_mul,
    s2_outer,
    s2_reciprocal,
    s2_scale,
    solve_branch,
)
from .kernels import KernelQuery, eval_kernel
from .phase import TRANSITION_TABLE
from .quadrature import QuadOptions

__all__ = [
    "TRANSITIONS",
    "ExpansionCoefficients",
    "GaussMoments",
    "gauss_moment_B",
    "gauss_moment_C",
    "gauss_moments",
    "build_amplitudes",
    "symmetry_starred_b",
    "symmetry_starred_c",
    "airy_c00",
    "fluc_s1",
    "fluc_s2",
    "correction_term",
    "expansion_partial_sum",
    "coefficients_to_json",
]

TRANSITIONS = tuple(TRANSITION_TABLE)

_MAX_ORDER = 40  # series arithmetic stays fast and stable up to here
_MAX_PARTIAL_N = 12
_SQRT3 = np.sqrt(3.0)


# ---------------------------------------------------------------------------
# Gamma values at half-integer arguments and the Gaussian moments
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gamma_half(n: int) -> float:
    """Gamma(n/2) for positive integer n, by the recurrence from n=1,2."""
    if n <= 0:
        raise SeriesUsageError("gamma argument must be a positive half-integer")
    if n == 1:
        return float(np.sqrt(np.pi))
    if n == 2:
        return 1.0
    return (n - 2) / 2.0 * _gamma_half(n - 2)


@lru_cache(maxsize=None)
def gauss_moment_B(k: int, l: int) -> complex:
    """Moment of ``x^k y^l / (x - i y)`` against ``exp(-x**2 - y**2)``.

    Passing to polar coordinates splits the integral into a radial Gamma
    factor and an angular integral of ``exp(i*phi) cos^k sin^l``, which
    reduces to Beta-function values.  The result is purely real for odd ``k``
    / even ``l``, purely imaginary for even ``k`` / odd ``l``, and exactly
    zero when ``k`` and ``l`` share a parity.
    """
    if k < 0 or l < 0:
        raise SeriesUsageError("moment indices must be nonnegative")
    if (k + l) % 2 == 0:
        return 0.0 + 0.0j
    radial = _gamma_half(k + l + 1) / _gamma_half(k + l + 3)
    if k % 2 == 1:
        return complex(radial * _gamma_half(k + 2) * _gamma_half(l + 1))
    return 1j * radial * _gamma_half(k + 1) * _gamma_half(l + 2)


@lru_cache(maxsize=None)
def gauss_moment_C(k: int) -> float:
    """One-dimensional Gaussian moment: 0 for odd ``k``, Gamma((k+1)/2) else."""
    if k < 0:
        raise SeriesUsageError("moment indices must be nonnegative")
    if k % 2 == 1:
        return 0.0
    return _gamma_half(k + 1)


@dataclass(frozen=True)
class GaussMoments:
    """Tabulated moments ``B[k, l]`` and ``C[k]`` for all indices <= max_index."""

    max_index: int
    B: np.ndarray
    C: np.ndarray


def gauss_moments(max_index: int) -> GaussMoments:
    """Tabulate :func:`gauss_moment_B` / :func:`gauss_moment_C` up to max_index."""
    if max_index < 0:
        raise SeriesUsageError("max_index must be nonnegative")
    n = max_index + 1
    B = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            B[k, l] = gauss_moment_B(k, l)
    C = np.array([gauss_moment_C(k) for k in range(n)])
    return GaussMoments(max_index=max_index, B=B, C=C)


# ---------------------------------------------------------------------------
# Amplitude coefficients b_{k,l} and c_{k,l}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Amplitude-coefficient families of one transition at one point.

    ``b`` collects the coefficients of the same-pairing amplitude (the one
    carrying the divided-difference factor and no oscillatory phase); ``c``
    those of the mixed-pairing amplitude (the one multiplied by
    ``exp(±i*theta(a))`` in the assembled corrections).  ``b_star`` and
    ``c_star`` are the conjugate-pairing amplitudes built independently from
    their own defining formulas; up to signs and conjugation they must agree
    with ``b`` and ``c`` (see :func:`symmetry_starred_b`,
    :func:`symmetry_starred_c`), and keeping both routes makes that a
    verifiable invariant rather than an assumption.
    """

    transition: str
    order: int
    b: TruncatedSeries2
    c: TruncatedSeries2
    b_star: TruncatedSeries2
    c_star: TruncatedSeries2
    at_point: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if self.transition not in TRANSITIONS:
            raise SeriesUsageError(
                f"unknown transition {self.transition!r}; expected one of {TRANSITIONS}"
            )


def _branch_series(transition: str, order: int) -> TruncatedSeries1:
    """Branch series g of the S path at the governing saddle, to the
    requested order."""
    t = TRANSITION_TABLE[transition]
    sigma, first = t.S
    level = complex(t.phase.f(t.saddle))
    return solve_branch(t.phase, t.saddle, sigma, level, first, order)


def _substituted(g_full: TruncatedSeries1, sign: complex, w: complex, order: int) -> TruncatedSeries1:
    """Univariate series of ``sign * g(w * t)`` truncated to ``order``."""
    return s1_scale(s1_arg_scale(s1_from_coeffs(g_full.coeffs, order), w), sign)


def _jacobian(g_full: TruncatedSeries1, sign: complex, w: complex, order: int) -> TruncatedSeries1:
    """Univariate series of ``d/dt [sign * g(w * t)]`` truncated to ``order``."""
    dg = s1_from_coeffs(s1_derivative(g_full).coeffs, order)
    return s1_scale(s1_arg_scale(dg, w), sign * w)


def _exp_centered(a: TruncatedSeries1) -> TruncatedSeries1:
    """``exp(a - a_0)``: the exponential without its constant factor."""
    return s1_exp(TruncatedSeries1(a.order, np.append(0.0, a.coeffs[1:])))


def _amplitude_block(
    g_full: TruncatedSeries1,
    zeta_sign: complex,
    zeta_w: complex,
    omega_g: TruncatedSeries1,
    omega_sign: complex,
    omega_w: complex,
    u: float,
    v: float,
    tau1: float,
    tau2: float,
    order: int,
    divided_difference: bool,
    dd_lambda: complex = 1.0,
) -> TruncatedSeries2:
    """Assemble one amplitude as a bivariate series.

    The block is ``exp{-v*zeta - tau2*zeta^2 + u*omega + tau1*omega^2} *
    zeta'(x) * omega'(y) / denominator`` where ``zeta(x) = zeta_sign *
    g(zeta_w * x)`` and ``omega(y) = omega_sign * omega_g(omega_w * y)``.

    For ``divided_difference=True`` the denominator is ``(zeta - omega)``
    divided by its vanishing linear factor: the quotient series is formed
    coefficientwise from g's coefficients (never by dividing by ``x - i y``),
    carries the nonzero constant term ``dd_lambda * zeta_sign * g'(0)`` and
    is inverted as a regular power series.  Otherwise the denominator is
    ``zeta - omega`` itself, whose constant term (the saddle separation) is
    nonzero.
    """
    zeta = _substituted(g_full, zeta_sign, zeta_w, order)
    omega = _substituted(omega_g, omega_sign, omega_w, order)
    jac_x = _jacobian(g_full, zeta_sign, zeta_w, order)
    jac_y = _jacobian(omega_g, omega_sign, omega_w, order)

    # The exponent is an x-only plus a y-only series, so its exponential is
    # the outer product of two univariate exponentials.
    e_x = s1_add(s1_scale(zeta, -v), s1_scale(s1_mul(zeta, zeta), -tau2))
    e_y = s1_add(s1_scale(omega, u), s1_scale(s1_mul(omega, omega), tau1))
    e00 = complex(e_x.coeffs[0] + e_y.coeffs[0])
    expf = s2_scale(s2_outer(_exp_centered(e_x), _exp_centered(e_y)), np.exp(e00))

    if divided_difference:
        if zeta_sign != omega_sign or omega_g is not g_full:
            raise SeriesUsageError(
                "divided-difference form requires both substitutions to use the "
                "same branch series and overall sign"
            )
        # (zeta - omega) / (zeta_w*x - omega_w*y), coefficientwise:
        # coefficient (j, m) is a_{j+m+1} * zeta_w**j * omega_w**m, scaled by
        # the overall branch sign; dd_lambda folds the linear factor back to
        # the normalized form (x -+ i y) used by the moment integrals.
        a = g_full.coeffs
        den = np.zeros((order + 1, order + 1), dtype=complex)
        for j in range(order + 1):
            m = np.arange(0, order + 1 - j)
            den[j, : order + 1 - j] = a[j + m + 1] * zeta_w**j * omega_w**m
        den *= dd_lambda * zeta_sign
        factor = s2_reciprocal(TruncatedSeries2(order, den))
    else:
        diff = s2_add(s2_from_x(zeta), s2_scale(s2_from_y(omega), -1.0))
        factor = s2_reciprocal(diff)

    return s2_mul(s2_mul(expf, s2_outer(jac_x, jac_y)), factor)


def build_amplitudes(
    transition: str,
    u: float,
    v: float,
    tau1: float,
    tau2: float,
    order: int,
) -> ExpansionCoefficients:
    """Compute all four amplitude-coefficient families at one point.

    The two branch substitutions per amplitude follow the saddle pairings of
    the rescaled kernels: the unstarred pair uses the ascent/descent
    parameterizations through the governing saddle, the starred pair the
    reflected ones.  All four are computed from their own defining formulas;
    none is derived from another by symmetry.
    """
    if transition not in TRANSITIONS:
        raise SeriesUsageError(
            f"unknown transition {transition!r}; expected one of {TRANSITIONS}"
        )
    if not 0 <= order <= _MAX_ORDER:
        raise SeriesUsageError(f"order must lie in [0, {_MAX_ORDER}]")
    g = _branch_series(transition, order + 1)

    def block(xg, zs, zw, og, os_, ow, dd, lam=1.0):
        return _amplitude_block(
            xg, zs, zw, og, os_, ow, u, v, tau1, tau2, order, dd, lam
        )

    if transition == "airy-to-s1":
        b = block(g, +1.0, 1.0, g, +1.0, 1j, True, 1.0)
        c = block(g, +1.0, 1.0, g, -1.0, -1.0, False)
        b_star = block(g, -1.0, -1j, g, -1.0, -1.0, True, -1j)
        c_star = block(g, -1.0, -1j, g, +1.0, 1j, False)
    else:
        gbar = conjugate_coeffs(g)
        b = block(g, +1.0, 1.0, g, +1.0, 1j, True, 1.0)
        c = block(g, +1.0, 1.0, gbar, +1.0, 1j, False)
        b_star = block(gbar, +1.0, -1.0, gbar, +1.0, 1j, True, -1.0)
        c_star = block(gbar, +1.0, -1.0, g, +1.0, 1j, False)

    return ExpansionCoefficients(
        transition=transition,
        order=order,
        b=b,
        c=c,
        b_star=b_star,
        c_star=c_star,
        at_point=(float(u), float(v), float(tau1), float(tau2)),
    )


def symmetry_starred_b(b: TruncatedSeries2) -> TruncatedSeries2:
    """Starred b-series predicted by symmetry: (-1)**(k+l+1) * conj(b_{k,l})."""
    k = np.arange(b.order + 1)
    sign = (-1.0) ** (k[:, None] + k[None, :] + 1)
    return TruncatedSeries2(b.order, sign * np.conj(b.coeffs))


def symmetry_starred_c(c: TruncatedSeries2) -> TruncatedSeries2:
    """Starred c-series predicted by symmetry: (-1)**(k+l) * conj(c_{k,l})."""
    k = np.arange(c.order + 1)
    sign = (-1.0) ** (k[:, None] + k[None, :])
    return TruncatedSeries2(c.order, sign * np.conj(c.coeffs))


# ---------------------------------------------------------------------------
# Closed forms: leading mixed-pairing coefficient and fluctuation terms
# ---------------------------------------------------------------------------


def airy_c00(u: float, v: float, tau1: float, tau2: float) -> complex:
    """Constant term of the Airy-transition mixed amplitude, in closed form.

    Evaluating the amplitude at the saddle gives
    ``(1/2) * exp(-(tau1-tau2)) * exp(-i(u+v))``; :func:`build_amplitudes`
    must reproduce this through series arithmetic.
    """
    return 0.5 * np.exp(-(tau1 - tau2)) * np.exp(-1j * (u + v))


def _require_positive_a(a: float) -> None:
    if not (math.isfinite(a) and a > 0):
        raise SeriesUsageError(
            f"rescaling parameter a must be finite and positive, got {a!r}")


def fluc_s1(u: float, v: float, tau1: float, tau2: float, a: float) -> float:
    """Leading oscillatory correction of the rescaled Airy kernel around S1.

    Equals the nu=1 term of the complete expansion: decay ``a**-1.5``, an
    ``a``-independent fluctuation profile plus a pure cosine carrying the
    phase ``(4/3) a**1.5``.
    """
    _require_positive_a(a)
    f = (u + v) * np.cos(u - v) - 2.0 * (tau1 + tau2) * np.sin(u - v)
    osc = np.cos(4.0 / 3.0 * a**1.5 - (u + v))
    return float(-np.exp(-(tau1 - tau2)) * (f + osc) / (4.0 * np.pi * a**1.5))


def fluc_s2(u: float, v: float, tau1: float, tau2: float, a: float) -> float:
    """Leading oscillatory correction of the rescaled quartic kernel around S2.

    Equals the nu=1 term of the complete expansion: decay ``a**(-4/3)`` with
    phase ``(3*sqrt(3)/4) a**(4/3)``.  The point-dependent shift inside the
    cosine is ``+(sqrt(3)/2)(u+v+tau1+tau2)``, the argument of the constant
    mixed-amplitude coefficient; with this shift (and no other) the identity
    ``partial_sum(N=1) = kernel + fluc`` holds to quadrature accuracy.
    """
    _require_positive_a(a)
    psi = 0.5 * _SQRT3 * (u - v + tau1 - tau2)
    f = (0.5 * (u + v) - (tau1 + tau2)) * np.sin(psi) + _SQRT3 * (
        0.5 * (u + v) + (tau1 + tau2)
    ) * np.cos(psi)
    arg = 0.75 * _SQRT3 * a ** (4.0 / 3.0) + 0.5 * _SQRT3 * (u + v + tau1 + tau2)
    env = np.exp(0.5 * (u - v) - 0.5 * (tau1 - tau2))
    return float(
        env * (f - 2.0 / _SQRT3 * np.cos(arg)) / (6.0 * np.pi * a ** (4.0 / 3.0))
    )


# ---------------------------------------------------------------------------
# Assembled partial sums
# ---------------------------------------------------------------------------


def correction_term(coeffs: ExpansionCoefficients, nu: int, a: float) -> float:
    """The nu-th correction term of the complete expansion at parameter a.

    Combines the b-family with the two-variable Gaussian moments (indices
    summing to ``2*nu - 1``; even sums drop out because those moments vanish)
    and the even-indexed c-family with the oscillatory phase and
    one-variable Gaussian moments (indices summing to ``nu - 1``).
    """
    _require_positive_a(a)
    if nu < 1:
        raise SeriesUsageError("correction index nu must be >= 1")
    if coeffs.order < 2 * nu - 1:
        raise SeriesUsageError(
            f"nu={nu} needs coefficients of order {2 * nu - 1}, have {coeffs.order}"
        )
    t = TRANSITION_TABLE[coeffs.transition]
    phase = t.oscillation(a)

    b_part = 0.0
    for k in range(2 * nu):
        l = 2 * nu - 1 - k
        b_part += (coeffs.b.coeffs[k, l] * gauss_moment_B(k, l)).real
    c_part = 0.0
    for k in range(nu):
        l = nu - 1 - k
        c_part += (
            (coeffs.c.coeffs[2 * k, 2 * l] * phase).real
            * _gamma_half(2 * k + 1)
            * _gamma_half(2 * l + 1)
        )
    return float(-(b_part + c_part) / (2.0 * np.pi**2 * a ** (t.beta * nu)))


def expansion_partial_sum(
    transition: str,
    N: int,
    u: float,
    v: float,
    tau1: float,
    tau2: float,
    a: float,
    *,
    coeffs: ExpansionCoefficients | None = None,
    base: float | None = None,
    opts: QuadOptions | None = None,
) -> float:
    """Kernel value plus the first N correction terms of the expansion.

    ``N=0`` returns exactly the S1/S2 kernel value.  ``coeffs`` and ``base``
    allow reusing a coefficient build / kernel evaluation across many values
    of ``a`` (neither depends on ``a``); when given, ``coeffs`` must have been
    built for the same transition and point.
    """
    if transition not in TRANSITIONS:
        raise SeriesUsageError(
            f"unknown transition {transition!r}; expected one of {TRANSITIONS}"
        )
    if N < 0:
        raise SeriesUsageError("N must be nonnegative")
    if N > _MAX_PARTIAL_N:
        raise SeriesUsageError(
            f"N={N} exceeds the supported coefficient capacity (N <= {_MAX_PARTIAL_N})"
        )
    _require_positive_a(a)
    if base is None:
        q = KernelQuery(
            kernel=TRANSITION_TABLE[transition].kernel,
            tau1=tau1,
            tau2=tau2,
            u=u,
            v=v,
            opts=opts if opts is not None else QuadOptions(),
        )
        base = eval_kernel(q).value.real
    total = float(base)
    if N == 0:
        return total
    if coeffs is None:
        coeffs = build_amplitudes(transition, u, v, tau1, tau2, order=2 * N)
    else:
        if coeffs.transition != transition:
            raise SeriesUsageError("coefficient set was built for a different transition")
        point = (float(u), float(v), float(tau1), float(tau2))
        if any(abs(p - q_) > 1e-12 for p, q_ in zip(coeffs.at_point, point)):
            raise SeriesUsageError("coefficient set was built at a different point")
    for nu in range(1, N + 1):
        total += correction_term(coeffs, nu, a)
    return total


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _matrix_pairs(series: TruncatedSeries2) -> list[list[list[float]]]:
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in series.coeffs
    ]


def coefficients_to_json(coeffs: ExpansionCoefficients) -> str:
    """Dump a coefficient set as JSON with [re, im] pairs."""
    return json.dumps(
        {
            "transition": coeffs.transition,
            "point": list(coeffs.at_point),
            "order": coeffs.order,
            "b": _matrix_pairs(coeffs.b),
            "c": _matrix_pairs(coeffs.c),
        }
    )
