"""Expansion machinery: moments against quadrature, printed coefficient
formulas, symmetry invariants, and the partial-sum/fluctuation identity."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelwave.cseries import SeriesUsageError
from kernelwave.expansion import (
    TRANSITIONS,
    _branch_series,
    airy_c00,
    build_amplitudes,
    coefficients_to_json,
    correction_term,
    expansion_partial_sum,
    fluc_s1,
    fluc_s2,
    gauss_moment_B,
    gauss_moment_C,
    gauss_moments,
    symmetry_starred_b,
    symmetry_starred_c,
)
from kernelwave.kernels import KernelQuery, eval_kernel

coord = st.floats(-1.0, 1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Gaussian moments: oracle first (Gauss-trapezoid polar quadrature), then closed form
# ---------------------------------------------------------------------------


def _moment_b_quadrature(k: int, l: int) -> complex:
    """Independent oracle: 2-d integral of x^k y^l e^{-x^2-y^2}/(x - iy) in
    polar coordinates, where the integrand is smooth (r^{k+l} / r = r^{k+l-1}
    times the angular factor): 96 Gauss-Legendre nodes in r on [0, 8], past
    which e^{-r^2} is below 1e-27, and the 64-point trapezoid rule in theta,
    exact for the angular factor, a trigonometric polynomial of degree
    k + l + 1."""
    x, w = np.polynomial.legendre.leggauss(96)
    r, wr = 4.0 * (x + 1.0), 4.0 * w
    th = np.arange(64) * (2 * np.pi / 64)
    R, TH = np.meshgrid(r, th)
    X, Y = R * np.cos(TH), R * np.sin(TH)
    f = X ** k * Y ** l / (X - 1j * Y) * np.exp(-(R ** 2)) * R
    return complex(np.sum(f * wr) * (2 * np.pi / 64))


def test_moment_b_base_values():
    assert gauss_moment_B(0, 0) == 0.0
    assert abs(gauss_moment_B(1, 0) - np.pi / 2) < 1e-14
    assert abs(gauss_moment_B(0, 1) - 1j * np.pi / 2) < 1e-14


@pytest.mark.parametrize("k,l", [(2, 1), (1, 2), (3, 0), (0, 3), (2, 3), (4, 1)])
def test_moment_b_against_quadrature(k, l):
    assert abs(gauss_moment_B(k, l) - _moment_b_quadrature(k, l)) < 1e-13


def test_moment_b_parity_vanishing_is_exact():
    for k in range(9):
        for l in range(9):
            if (k + l) % 2 == 0:
                assert gauss_moment_B(k, l) == 0.0


def test_moment_c_values():
    assert abs(gauss_moment_C(0) - math.sqrt(math.pi)) < 1e-15
    assert gauss_moment_C(1) == 0.0
    assert abs(gauss_moment_C(2) - math.sqrt(math.pi) / 2) < 1e-15
    # C_k = (1+(-1)^k)/2 * Gamma((k+1)/2) against math.gamma
    for k in range(8):
        want = 0.0 if k % 2 else math.gamma((k + 1) / 2)
        assert abs(gauss_moment_C(k) - want) < 1e-13


def test_gauss_moments_table_consistent_with_scalars():
    gm = gauss_moments(6)
    assert gm.B.shape == (7, 7) and gm.C.shape == (7,)
    for k in range(7):
        for l in range(7 - k):
            assert gm.B[k, l] == gauss_moment_B(k, l)
    with pytest.raises(ValueError):
        gauss_moments(-1)


def test_moment_rejects_negative_index():
    with pytest.raises(ValueError):
        gauss_moment_B(-1, 0)
    with pytest.raises(ValueError):
        gauss_moment_C(-2)


# ---------------------------------------------------------------------------
# amplitude coefficients: printed values and closed forms
# ---------------------------------------------------------------------------


def test_airy_coefficients_at_origin():
    co = build_amplitudes("airy-to-s1", 0, 0, 0, 0, order=4)
    assert abs(co.b.coeffs[1, 0] - (-1j / 6)) < 1e-13
    assert abs(co.b.coeffs[0, 1] - (1.0 / 6)) < 1e-13
    assert abs(co.c.coeffs[0, 0] - 0.5) < 1e-13


def test_pearcey_coefficients_at_origin():
    co = build_amplitudes("pearcey-to-s2", 0, 0, 0, 0, order=4)
    assert abs(co.b.coeffs[1, 0] - 2j / 9) < 1e-13


@given(coord, coord, coord, coord)
def test_airy_first_order_closed_forms(u, v, t1, t2):
    co = build_amplitudes("airy-to-s1", u, v, t1, t2, order=2)
    pref = np.exp((u - v) * 1j - (t1 - t2))
    want10 = pref * (v + 1j * (2 * t2 - 1.0 / 6.0))
    want01 = pref * (-1j * u + 2 * t1 + 1.0 / 6.0)
    assert abs(co.b.coeffs[1, 0] - want10) < 1e-12
    assert abs(co.b.coeffs[0, 1] - want01) < 1e-12
    assert abs(co.c.coeffs[0, 0] - airy_c00(u, v, t1, t2)) < 1e-12


@given(coord, coord, coord, coord)
def test_pearcey_first_order_closed_forms(u, v, t1, t2):
    co = build_amplitudes("pearcey-to-s2", u, v, t1, t2, order=2)
    E = np.exp((u - v) / 2 - (t1 - t2) / 2)
    psi = np.sqrt(3) / 2 * (u - v + t1 - t2)
    want10 = (
        2j / 3 * E * np.exp(1j * psi)
        * (1.0 / 3 + v / 2 - t2 + np.sqrt(3) * 1j / 2 * (v + 2 * t2))
    )
    want01 = (
        2.0 / 3 * E * np.exp(1j * psi)
        * (-1.0 / 3 + u / 2 - t1 + np.sqrt(3) * 1j / 2 * (u + 2 * t1))
    )
    want00 = (
        2 / (3 * np.sqrt(3)) * E
        * np.exp(-1j * np.sqrt(3) / 2 * (u + v + t1 + t2))
    )
    assert abs(co.b.coeffs[1, 0] - want10) < 1e-12
    assert abs(co.b.coeffs[0, 1] - want01) < 1e-12
    assert abs(co.c.coeffs[0, 0] - want00) < 1e-12


@given(st.sampled_from(TRANSITIONS), coord, coord, coord, coord)
def test_starred_coefficients_satisfy_conjugation_symmetry(tr, u, v, t1, t2):
    co = build_amplitudes(tr, u, v, t1, t2, order=4)
    db = np.abs(co.b_star.coeffs - symmetry_starred_b(co.b).coeffs).max()
    dc = np.abs(co.c_star.coeffs - symmetry_starred_c(co.c).coeffs).max()
    assert db < 1e-11
    assert dc < 1e-11


# zeta(x), omega(y) of each amplitude: (sign, w, conjugate branch) per side,
# with zeta(x) = sign * g(w * x) as in build_amplitudes.
_SUBSTITUTIONS = {
    "airy-to-s1": {
        "b": ((1.0, 1.0, False), (1.0, 1j, False)),
        "c": ((1.0, 1.0, False), (-1.0, -1.0, False)),
        "b_star": ((-1.0, -1j, False), (-1.0, -1.0, False)),
        "c_star": ((-1.0, -1j, False), (1.0, 1j, False)),
    },
    "pearcey-to-s2": {
        "b": ((1.0, 1.0, False), (1.0, 1j, False)),
        "c": ((1.0, 1.0, False), (1.0, 1j, True)),
        "b_star": ((1.0, -1.0, True), (1.0, 1j, True)),
        "c_star": ((1.0, -1.0, True), (1.0, 1j, False)),
    },
}


@pytest.mark.parametrize("family", ["b", "c", "b_star", "c_star"])
@pytest.mark.parametrize("tr", TRANSITIONS)
def test_amplitude_coefficients_match_fft_of_the_amplitude(tr, family):
    # Independent of series arithmetic: the amplitude
    # exp(-v zeta - tau2 zeta^2 + u omega + tau1 omega^2) zeta' omega' / (zeta - omega),
    # times x - (omega_w / zeta_w) y for the b families, is evaluated
    # pointwise from the branch polynomial on |x| = 0.5, |y| = 0.45 (where
    # that factor never vanishes), and a 2-D FFT gives its Taylor coefficients.
    u, v, t1, t2 = 0.3, -0.2, 0.1, 0.4
    order, n, rx, ry = 24, 64, 0.5, 0.45
    co = build_amplitudes(tr, u, v, t1, t2, order=order)
    g = _branch_series(tr, order + 1)
    sub_x, sub_y = _SUBSTITUTIONS[tr][family]

    def side(r, sign, w, conj):
        x = r * np.exp(2j * np.pi * np.arange(n) / n)
        c = np.conj(g.coeffs) if conj else g.coeffs
        P = np.polynomial.polynomial
        return x, sign * P.polyval(w * x, c), sign * w * P.polyval(w * x, P.polyder(c))

    (x, zeta, dzeta), (y, omega, domega) = side(rx, *sub_x), side(ry, *sub_y)
    Z, W = zeta[:, None], omega[None, :]
    amp = (np.exp(-v * Z - t2 * Z * Z + u * W + t1 * W * W)
           * dzeta[:, None] * domega[None, :] / (Z - W))
    if family.startswith("b"):
        amp *= x[:, None] - sub_y[1] / sub_x[1] * y[None, :]
    k = np.arange(order + 1)
    fft = np.fft.fft2(amp)[: order + 1, : order + 1] / (n * n)
    want = fft / (rx ** k[:, None] * ry ** k[None, :])
    mask = k[:, None] + k[None, :] <= order
    got = getattr(co, family).coeffs
    assert np.abs(got - want)[mask].max() < 1e-8 * np.abs(got).max()


def test_build_amplitudes_validation():
    with pytest.raises(ValueError):
        build_amplitudes("airy-to-sine", 0, 0, 0, 0, 2)
    with pytest.raises(SeriesUsageError):
        build_amplitudes("airy-to-s1", 0, 0, 0, 0, order=100)


# ---------------------------------------------------------------------------
# fluctuation terms and the nu = 1 identity
# ---------------------------------------------------------------------------


def test_fluc_s1_origin_special_value():
    # at the origin with theta = 2*pi*k + pi/2... choose a with cos = -1
    a0 = (3 * np.pi / 2) ** (2.0 / 3.0)  # theta(a0) = 2 pi
    assert abs(fluc_s1(0, 0, 0, 0, a0) - (-1.0 / (6 * np.pi ** 2))) < 1e-15


@pytest.mark.parametrize("a", [2.0, 3.7])
def test_fluc_s2_origin_special_value(a):
    want = (
        -1.0 / (3 * np.sqrt(3) * np.pi) * a ** (-4.0 / 3.0)
        * np.cos(3 * np.sqrt(3) / 4 * a ** (4.0 / 3.0))
    )
    assert abs(fluc_s2(0, 0, 0, 0, a) - want) < 1e-15


def test_fluc_s1_pi_rescaled_form():
    # the sine-variable restatement of the s1 fluctuation term
    rng = np.random.default_rng(3)
    for a in (2.2, 4.4, 6.1):
        u, v, t1, t2 = rng.uniform(-1, 1, size=4)
        lhs = np.pi * fluc_s1(
            np.pi * u, np.pi * v, np.pi ** 2 * t1 / 2, np.pi ** 2 * t2 / 2, a
        )
        f = np.pi * (u + v) * np.cos(np.pi * (u - v)) - np.pi ** 2 * (
            t1 + t2
        ) * np.sin(np.pi * (u - v))
        rhs = (
            -0.25 * a ** -1.5 * np.exp(-np.pi ** 2 / 2 * (t1 - t2))
            * (f + np.cos(4.0 / 3.0 * a ** 1.5 - np.pi * (u + v)))
        )
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


@pytest.mark.parametrize(
    "tr,fl", [("airy-to-s1", fluc_s1), ("pearcey-to-s2", fluc_s2)]
)
def test_first_correction_term_equals_fluctuation(tr, fl):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u, v, t1, t2 = rng.uniform(-1, 1, size=4)
        co = build_amplitudes(tr, u, v, t1, t2, order=2)
        for a in (2.0, 5.0, 9.0):
            assert abs(correction_term(co, 1, a) - fl(u, v, t1, t2, a)) < 1e-12


def test_correction_term_requires_sufficient_order():
    co = build_amplitudes("airy-to-s1", 0, 0, 0, 0, order=2)
    with pytest.raises(SeriesUsageError):
        correction_term(co, 2, 4.0)  # needs order >= 3


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------


def test_partial_sum_n0_is_limit_kernel():
    u, v, t1, t2 = 0.3, -0.4, 0.2, 0.1
    for tr, kname in (("airy-to-s1", "s1"), ("pearcey-to-s2", "s2")):
        base = eval_kernel(KernelQuery(kname, t1, t2, u, v)).value.real
        assert expansion_partial_sum(tr, 0, u, v, t1, t2, 4.0) == base


def test_partial_sum_n1_is_kernel_plus_fluctuation():
    u, v, t1, t2 = 0.3, -0.4, 0.2, 0.1
    for tr, fl in (("airy-to-s1", fluc_s1), ("pearcey-to-s2", fluc_s2)):
        kname = "s1" if tr == "airy-to-s1" else "s2"
        base = eval_kernel(KernelQuery(kname, t1, t2, u, v)).value.real
        p1 = expansion_partial_sum(tr, 1, u, v, t1, t2, 4.0)
        assert abs(p1 - (base + fl(u, v, t1, t2, 4.0))) < 1e-12


def test_partial_sum_reuses_supplied_coefficients():
    u, v, t1, t2 = -0.2, 0.5, 0.1, -0.3
    co = build_amplitudes("airy-to-s1", u, v, t1, t2, order=4)
    direct = expansion_partial_sum("airy-to-s1", 2, u, v, t1, t2, 5.0)
    cached = expansion_partial_sum("airy-to-s1", 2, u, v, t1, t2, 5.0, coeffs=co)
    assert abs(direct - cached) < 1e-15


def test_partial_sum_rejects_mismatched_coefficients():
    co = build_amplitudes("airy-to-s1", 0.1, 0.2, 0.3, 0.4, order=4)
    with pytest.raises(SeriesUsageError):
        expansion_partial_sum("airy-to-s1", 1, 0.9, 0.2, 0.3, 0.4, 5.0, coeffs=co)
    with pytest.raises(SeriesUsageError):
        expansion_partial_sum("pearcey-to-s2", 1, 0.1, 0.2, 0.3, 0.4, 5.0, coeffs=co)


def test_partial_sum_validates_n():
    with pytest.raises(ValueError):
        expansion_partial_sum("airy-to-s1", -1, 0, 0, 0, 0, 4.0)
    with pytest.raises(ValueError):
        expansion_partial_sum("airy-to-s1", 99, 0, 0, 0, 0, 4.0)
    # and a: finite and positive
    for a in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            expansion_partial_sum("airy-to-s1", 1, 0, 0, 0, 0, a)


def test_coefficients_json_dump():
    co = build_amplitudes("airy-to-s1", 0, 0, 0, 0, order=3)
    obj = json.loads(coefficients_to_json(co))
    assert obj["transition"] == "airy-to-s1"
    assert obj["order"] == 3
    assert obj["point"] == [0.0, 0.0, 0.0, 0.0]
    re, im = obj["b"][1][0]
    assert abs(complex(re, im) - (-1j / 6)) < 1e-13
