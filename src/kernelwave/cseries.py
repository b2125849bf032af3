"""Truncated complex power-series arithmetic in one and two variables.

Univariate series are used to represent locally analytic branch functions
``g`` solving ``f(g(x)) - level = sign * x**2`` near a simple saddle of a
polynomial phase ``f``; bivariate series carry the amplitude functions whose
Taylor coefficients drive the asymptotic expansions, and need only a
reciprocal and its product with two univariate factors.  All operations are
exact-order: coefficients beyond ``order`` are never read or written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SeriesUsageError(ValueError):
    """Raised on order mismatches or unsupported operand shapes."""


class SingularSeriesError(ValueError):
    """Raised when a reciprocal of a series with zero constant term is requested."""


class BranchError(ValueError):
    """Raised when branch data passed to solve_branch is inconsistent."""


class DegenerateSaddleError(BranchError):
    """Raised when the expansion center is not a simple saddle."""


# ---------------------------------------------------------------------------
# univariate series


@dataclass(frozen=True)
class TruncatedSeries1:
    """Complex power series a_0 + a_1 x + ... + a_order x^order."""

    order: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if self.order < 0:
            raise SeriesUsageError("series order must be nonnegative")
        if c.shape != (self.order + 1,):
            raise SeriesUsageError(
                f"expected {self.order + 1} coefficients, got shape {c.shape}"
            )
        object.__setattr__(self, "coeffs", c)

    def eval(self, x: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate the truncated series by Horner's rule."""
        return np.polynomial.polynomial.polyval(x, self.coeffs)



def s1_from_coeffs(coeffs, order: int | None = None) -> TruncatedSeries1:
    """Build a series from a coefficient list, padding or truncating to order."""
    c = np.asarray(coeffs, dtype=complex)
    n = c.size - 1 if order is None else order
    out = np.zeros(n + 1, dtype=complex)
    m = min(n + 1, c.size)
    out[:m] = c[:m]
    return TruncatedSeries1(order=n, coeffs=out)


def s1_constant(value: complex, order: int) -> TruncatedSeries1:
    out = np.zeros(order + 1, dtype=complex)
    out[0] = value
    return TruncatedSeries1(order=order, coeffs=out)


def _check_orders(a: TruncatedSeries1, b: TruncatedSeries1) -> None:
    if a.order != b.order:
        raise SeriesUsageError(f"order mismatch: {a.order} != {b.order}")


def s1_add(a: TruncatedSeries1, b: TruncatedSeries1) -> TruncatedSeries1:
    _check_orders(a, b)
    return TruncatedSeries1(a.order, a.coeffs + b.coeffs)


def s1_scale(a: TruncatedSeries1, factor: complex) -> TruncatedSeries1:
    return TruncatedSeries1(a.order, a.coeffs * factor)


def s1_mul(a: TruncatedSeries1, b: TruncatedSeries1) -> TruncatedSeries1:
    """Cauchy product truncated at the common order."""
    _check_orders(a, b)
    full = np.convolve(a.coeffs, b.coeffs)
    return TruncatedSeries1(a.order, full[: a.order + 1])


def s1_arg_scale(a: TruncatedSeries1, beta: complex) -> TruncatedSeries1:
    """Series of x -> a(beta * x); coefficients a_k * beta^k."""
    powers = beta ** np.arange(a.order + 1)
    return TruncatedSeries1(a.order, a.coeffs * powers)


def s1_derivative(a: TruncatedSeries1) -> TruncatedSeries1:
    """Derivative as a series of the same order (top coefficient padded with 0)."""
    out = np.zeros(a.order + 1, dtype=complex)
    if a.order >= 1:
        out[: a.order] = a.coeffs[1:] * np.arange(1, a.order + 1)
    return TruncatedSeries1(a.order, out)


def s1_exp(a: TruncatedSeries1) -> TruncatedSeries1:
    """exp of a series with zero constant term."""
    if abs(a.coeffs[0]) > 1e-14 * max(1.0, float(np.abs(a.coeffs).max())):
        raise SeriesUsageError("exp requires zero constant term; factor out exp(a_0)")
    n = a.order
    out = np.zeros(n + 1, dtype=complex)
    out[0] = 1.0
    # (e^a)' = a' e^a  =>  k*out_k = sum_{j=1..k} j*a_j*out_{k-j}
    for k in range(1, n + 1):
        j = np.arange(1, k + 1)
        out[k] = np.dot(j * a.coeffs[1 : k + 1], out[k - 1 :: -1]) / k
    return TruncatedSeries1(n, out)


def s1_eval_poly(poly_coeffs, series: TruncatedSeries1) -> TruncatedSeries1:
    """Evaluate a scalar polynomial (ascending coefficients) at a series
    argument, whose constant term may be nonzero."""
    p = np.asarray(poly_coeffs, dtype=complex)
    result = s1_constant(p[-1], series.order)
    for k in range(p.size - 2, -1, -1):
        result = s1_mul(result, series)
        new = result.coeffs.copy()
        new[0] += p[k]
        result = TruncatedSeries1(series.order, new)
    return result


def conjugate_coeffs(g: TruncatedSeries1) -> TruncatedSeries1:
    """Series with conjugated coefficients (the mirror branch for real phases)."""
    return TruncatedSeries1(g.order, np.conj(g.coeffs))


def solve_branch(
    f,
    center: complex,
    rhs_sign: int,
    level: complex,
    first_coeff: complex,
    order: int,
) -> TruncatedSeries1:
    """Solve f(g(x)) - level = rhs_sign * x^2 for the branch series g.

    ``f`` is a polynomial phase given either as an object with ascending
    ``coeffs`` or as a bare coefficient array.  ``center`` must be a simple
    saddle (f'(center)=0, f''(center)!=0), ``level`` must equal f(center), and
    ``first_coeff`` selects the branch via f''(center)*first_coeff^2/2 = rhs_sign.
    Coefficients are obtained by an order-by-order linear solve with pivot
    f''(center)*first_coeff.
    """
    coeffs = np.asarray(getattr(f, "coeffs", f), dtype=complex)
    polyval = np.polynomial.polynomial.polyval
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)
    d2coeffs = np.polynomial.polynomial.polyder(dcoeffs)
    scale = max(1.0, float(np.abs(coeffs).max()))
    if rhs_sign not in (1, -1):
        raise BranchError("rhs_sign must be +1 or -1")
    if abs(polyval(center, dcoeffs)) > 1e-10 * scale:
        raise BranchError(f"center {center} is not a stationary point of the phase")
    fpp = polyval(center, d2coeffs)
    if abs(fpp) < 1e-10 * scale:
        raise DegenerateSaddleError(f"phase has a degenerate saddle at {center}")
    if abs(polyval(center, coeffs) - level) > 1e-10 * (1.0 + abs(level)):
        raise BranchError("level does not equal the phase value at the center")
    if abs(fpp * first_coeff**2 / 2.0 - rhs_sign) > 1e-8:
        raise BranchError(
            "first_coeff does not satisfy f''(center) * first_coeff^2 / 2 = rhs_sign"
        )

    a = np.zeros(order + 1, dtype=complex)
    a[0] = center
    if order >= 1:
        a[1] = first_coeff
    pivot = fpp * first_coeff
    for m in range(2, order + 1):
        trial = TruncatedSeries1(m + 1, np.append(a[: m + 1], 0.0))
        comp = s1_eval_poly(coeffs, trial)
        residual = comp.coeffs[m + 1]
        # the x^{m+1} coefficient of level + rhs_sign*x^2 vanishes for m >= 2
        a[m] = -residual / pivot
    return TruncatedSeries1(order, a)


def branch_residual(f, g: TruncatedSeries1, rhs_sign: int, level: complex) -> float:
    """Max relative residual coefficient of f(g(x)) - level - rhs_sign*x^2."""
    coeffs = np.asarray(getattr(f, "coeffs", f), dtype=complex)
    comp = s1_eval_poly(coeffs, g)
    target = np.zeros(g.order + 1, dtype=complex)
    target[0] = level
    if g.order >= 2:
        target[2] = rhs_sign
    resid = comp.coeffs - target
    return float(np.abs(resid).max() / max(1.0, np.abs(g.coeffs).max()))


# ---------------------------------------------------------------------------
# bivariate series (total degree <= order)


def _mask(order: int) -> np.ndarray:
    k = np.arange(order + 1)
    return (k[:, None] + k[None, :]) <= order


@dataclass(frozen=True)
class TruncatedSeries2:
    """Bivariate series sum of c[k, l] x^k y^l over total degree k+l <= order."""

    order: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        n = self.order
        if n < 0:
            raise SeriesUsageError("series order must be nonnegative")
        if c.shape != (n + 1, n + 1):
            raise SeriesUsageError(
                f"expected ({n + 1},{n + 1}) coefficient matrix, got {c.shape}"
            )
        c = np.where(_mask(n), c, 0.0)
        object.__setattr__(self, "coeffs", c)


def s2_outer_mul(
    p: TruncatedSeries1, q: TruncatedSeries1, r: TruncatedSeries2
) -> TruncatedSeries2:
    """Product p(x) * q(y) * r(x, y) truncated at total degree <= order.

    It is the matrix product ``T(p) r T(q)^T``, masked, where ``T(a)`` is the
    lower-triangular Toeplitz matrix of ``a`` (multiplication by ``a``).
    """
    _check_orders(p, q)
    if p.order != r.order:
        raise SeriesUsageError(f"order mismatch: {p.order} != {r.order}")
    k = np.arange(r.order + 1)
    d = k[:, None] - k[None, :]
    tp, tq = (np.where(d >= 0, a.coeffs[d], 0.0) for a in (p, q))
    return TruncatedSeries2(r.order, tp @ r.coeffs @ tq.T)


def s2_reciprocal(a: TruncatedSeries2) -> TruncatedSeries2:
    """Multiplicative inverse; requires a nonzero constant term."""
    c00 = a.coeffs[0, 0]
    if abs(c00) < 1e-300:
        raise SingularSeriesError("reciprocal of a bivariate series with zero constant")
    n = a.order
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[0, 0] = 1.0 / c00
    for d in range(1, n + 1):
        for k in range(d + 1):
            l = d - k
            # out[k, l] is still zero, so the (0, 0) term adds nothing.
            out[k, l] = -np.sum(a.coeffs[: k + 1, : l + 1] * out[k::-1, l::-1]) / c00
    return TruncatedSeries2(n, out)

