"""Truncated-series arithmetic: ring laws, inverses, branch solving."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelwave.cseries import (
    BranchError,
    DegenerateSaddleError,
    SeriesUsageError,
    SingularSeriesError,
    TruncatedSeries2,
    branch_residual,
    conjugate_coeffs,
    s1_add,
    s1_arg_scale,
    s1_derivative,
    s1_exp,
    s1_from_coeffs,
    s1_mul,
    s2_add,
    s2_from_x,
    s2_from_y,
    s2_mul,
    s2_outer,
    s2_reciprocal,
    solve_branch,
)

ORDER = 6

complex_st = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
coeffs_st = st.lists(complex_st, min_size=1, max_size=ORDER + 1)


def _series(coeffs):
    return s1_from_coeffs(coeffs, ORDER)


# ---------------------------------------------------------------------------
# one-variable ring laws
# ---------------------------------------------------------------------------


@given(coeffs_st, coeffs_st, coeffs_st)
def test_mul_distributes_over_add(ca, cb, cc):
    a, b, c = _series(ca), _series(cb), _series(cc)
    lhs = s1_mul(a, s1_add(b, c)).coeffs
    rhs = s1_add(s1_mul(a, b), s1_mul(a, c)).coeffs
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


@given(coeffs_st, coeffs_st)
def test_mul_commutes(ca, cb):
    # summation order inside the convolution differs, so allow roundoff
    a, b = _series(ca), _series(cb)
    np.testing.assert_allclose(
        s1_mul(a, b).coeffs, s1_mul(b, a).coeffs, rtol=0, atol=1e-12
    )


def test_mul_matches_polynomial_convolution():
    a = s1_from_coeffs([1, 2, 0, -1], 5)
    b = s1_from_coeffs([3, 0, 1], 5)
    got = s1_mul(a, b).coeffs
    want = np.convolve([1, 2, 0, -1], [3, 0, 1])
    np.testing.assert_allclose(got, want[:6], rtol=0, atol=0)


@given(coeffs_st, coeffs_st)
def test_exp_of_sum_is_product_of_exps(ca, cb):
    ca, cb = [0.0] + list(ca[1:]), [0.0] + list(cb[1:])
    a, b = _series(ca), _series(cb)
    lhs = s1_exp(s1_add(a, b)).coeffs
    rhs = s1_mul(s1_exp(a), s1_exp(b)).coeffs
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-7)


def test_exp_requires_zero_constant_term():
    with pytest.raises(SeriesUsageError):
        s1_exp(s1_from_coeffs([1.0, 1.0], 3))


def test_exp_matches_taylor_series():
    got = s1_exp(s1_from_coeffs([0, 1], 8)).coeffs
    want = 1.0 / np.array([math.factorial(k) for k in range(9)], dtype=float)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@given(coeffs_st, coeffs_st)
def test_derivative_product_rule(ca, cb):
    a, b = _series(ca), _series(cb)
    lhs = s1_derivative(s1_mul(a, b)).coeffs
    rhs = s1_add(s1_mul(s1_derivative(a), b), s1_mul(a, s1_derivative(b))).coeffs
    # the top-degree slot is lost to truncation on both sides alike
    np.testing.assert_allclose(lhs[:-1], rhs[:-1], rtol=0, atol=1e-9)


def test_arg_scale_evaluates_consistently():
    a = s1_from_coeffs([1, -2, 3, 0.5], 3)
    beta = 0.3 - 0.7j
    x = 0.11
    assert abs(s1_arg_scale(a, beta).eval(x) - a.eval(beta * x)) < 1e-14


def test_conjugate_coeffs_evaluates_to_conjugate_on_reals():
    g = s1_from_coeffs([1j, 2 - 1j, -0.5], 4)
    gbar = conjugate_coeffs(g)
    for x in (-0.4, 0.0, 0.9):
        assert abs(gbar.eval(x) - np.conj(g.eval(x))) < 1e-14


def test_order_mismatch_rejected():
    with pytest.raises(SeriesUsageError):
        s1_add(s1_from_coeffs([1], 2), s1_from_coeffs([1], 3))


# ---------------------------------------------------------------------------
# branch solving
# ---------------------------------------------------------------------------


def test_solve_branch_cubic_printed_values():
    f = (0.0, 1.0, 0.0, 1.0 / 3.0)  # z^3/3 + z
    g = solve_branch(f, 1j, -1, 2j / 3, np.exp(1j * np.pi / 4), 6)
    np.testing.assert_allclose(g.coeffs[0], 1j, atol=1e-14)
    np.testing.assert_allclose(g.coeffs[1], np.exp(1j * np.pi / 4), atol=1e-14)
    np.testing.assert_allclose(g.coeffs[2], -1.0 / 6.0, atol=1e-13)
    np.testing.assert_allclose(
        g.coeffs[3], 5.0 / 72.0 * np.exp(-1j * np.pi / 4), atol=1e-13
    )
    assert branch_residual(f, g, -1, 2j / 3) < 1e-12


def test_solve_branch_defining_equation_numerically():
    f = (0.0, 1.0, 0.0, 0.0, 0.25)  # z^4/4 + z
    p = np.exp(1j * np.pi / 3)
    level = 0.75 * np.exp(1j * np.pi / 3)
    a1 = np.sqrt(2.0 / 3.0) * np.exp(2j * np.pi / 3)
    g = solve_branch(f, p, +1, level, a1, 10)
    for x in (0.01, 0.05, -0.08):
        z = g.eval(x)
        fz = sum(c * z ** k for k, c in enumerate(f))
        assert abs(fz - level - x * x) < 1e-12


def test_solve_branch_rejects_non_saddle_center():
    f = (0.0, 1.0, 0.0, 1.0 / 3.0)
    with pytest.raises(BranchError):
        solve_branch(f, 0.5j, -1, 2j / 3, 1.0, 4)


def test_solve_branch_rejects_degenerate_saddle():
    f = (0.0, 0.0, 0.0, 1.0 / 3.0)  # z^3/3: f'(0)=f''(0)=0
    with pytest.raises(DegenerateSaddleError):
        solve_branch(f, 0.0, +1, 0.0, 1.0, 4)


def test_solve_branch_rejects_inconsistent_first_coeff():
    f = (0.0, 1.0, 0.0, 1.0 / 3.0)
    with pytest.raises(BranchError):
        solve_branch(f, 1j, -1, 2j / 3, 1.0, 4)  # f''(i) a1^2/2 = i, not -1


# ---------------------------------------------------------------------------
# two-variable series
# ---------------------------------------------------------------------------


def test_s2_outer_matches_mul_of_embeddings():
    ax = s1_from_coeffs([1, 2, -1], 4)
    by = s1_from_coeffs([0.5, 1j, 0, 2], 4)
    direct = s2_outer(ax, by).coeffs
    via_mul = s2_mul(s2_from_x(ax), s2_from_y(by)).coeffs
    np.testing.assert_allclose(direct, via_mul, rtol=0, atol=1e-13)


def test_s2_reciprocal_is_inverse():
    one = np.zeros((6, 6))
    one[0, 0] = 1.0
    a = s2_add(
        TruncatedSeries2(5, (2.0 - 1j) * one),
        s2_outer(s1_from_coeffs([0, 1, 0.3], 5), s1_from_coeffs([1, -0.4], 5)),
    )
    got = s2_mul(a, s2_reciprocal(a)).coeffs
    np.testing.assert_allclose(got, one, rtol=0, atol=1e-12)


def test_s2_reciprocal_rejects_zero_constant():
    a = s2_from_x(s1_from_coeffs([0, 1], 3))
    with pytest.raises(SingularSeriesError):
        s2_reciprocal(a)


def test_s2_mask_kills_total_degree_overflow():
    ax = s1_from_coeffs([0, 1], 3)  # x
    a = s2_outer(ax, s1_from_coeffs([0, 1], 3))  # xy, degree 2
    sq = s2_mul(a, a)  # x^2 y^2, degree 4 > 3: masked away
    assert np.all(sq.coeffs == 0)
