"""Contour quadrature: closed forms, deformation invariance, error honesty."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from kernelwave.quadrature import (
    AccuracyWarning,
    Contour,
    GeometryError,
    QuadOptions,
    Ray,
    StraightArc,
    gl_unit,
    integrate_double,
    integrate_single,
    polar_cell,
    refine_panels,
    truncate_rays,
)

SQRT_PI = np.sqrt(np.pi)


def _gaussian_line(vertex=0.0, angle=0.0):
    d_out = np.exp(1j * angle)
    return Contour.vee(vertex, -d_out, d_out)


def _prep(contour, env, opts):
    return refine_panels(truncate_rays(contour, env, opts.ray_truncation_budget), env)


def test_gaussian_on_real_line():
    opts = QuadOptions()
    env = lambda z: np.real(-(z ** 2))
    c = _prep(_gaussian_line(), env, opts)
    val, err = integrate_single(lambda z: np.exp(-(z ** 2)), c, opts)
    assert abs(val - SQRT_PI) < 1e-12
    assert abs(val - SQRT_PI) <= max(err, 1e-12)


@pytest.mark.parametrize("angle", [0.1, -0.35, np.pi / 8])
@pytest.mark.parametrize("vertex", [0.0, 0.4 + 0.2j])
def test_gaussian_contour_deformation_invariance(angle, vertex):
    # Cauchy: any decaying deformation of the line leaves the value fixed
    opts = QuadOptions()
    env = lambda z: np.real(-(z ** 2))
    c = _prep(_gaussian_line(vertex, angle), env, opts)
    val, _ = integrate_single(lambda z: np.exp(-(z ** 2)), c, opts)
    assert abs(val - SQRT_PI) < 1e-11


def test_polyline_matches_vee_for_shared_endpoints():
    opts = QuadOptions()
    f = lambda z: np.exp(-(z ** 2)) * (1.0 + z)
    bent = refine_panels(
        Contour.polyline([-8.0, -1.0 + 0.5j, 1.0 - 0.25j, 8.0])
    )
    straight = refine_panels(Contour.polyline([-8.0, 8.0]))
    v1, _ = integrate_single(f, bent, opts)
    v2, _ = integrate_single(f, straight, opts)
    assert abs(v1 - v2) < 1e-11


def test_truncate_rays_records_radii_and_preserves_value():
    env = lambda z: np.real(-(z ** 2))
    c = truncate_rays(_gaussian_line(), env, 40.0)
    assert c.is_finite
    assert len(c.truncation_radii) == 2
    assert all(r > 3.0 for r in c.truncation_radii)


def test_truncate_rays_rejects_growing_envelope():
    env = lambda z: np.real(z ** 2)  # grows along the real line
    with pytest.raises(GeometryError):
        truncate_rays(_gaussian_line(), env, 40.0)


def test_truncate_rays_rejects_nonpositive_budget():
    env = lambda z: np.real(-(z ** 2))
    with pytest.raises(GeometryError):
        truncate_rays(_gaussian_line(), env, 0.0)


def test_integrate_single_requires_finite_contour():
    with pytest.raises(GeometryError):
        integrate_single(lambda z: z, _gaussian_line())


def test_integrate_single_rejects_non_finite_integrand():
    # no refinement can repair a non-finite value
    with pytest.raises(GeometryError, match="non-finite"):
        integrate_single(lambda z: np.full(z.shape, np.inf), Contour.polyline([0.0, 1.0]))


def test_ray_direction_normalized():
    r = Ray(0.0, 3.0 + 4.0j)
    assert abs(abs(r.direction) - 1.0) < 1e-15


def test_quad_options_validation():
    with pytest.raises(ValueError):
        QuadOptions(rel_tol=-1e-10)
    with pytest.raises(ValueError):
        QuadOptions(nodes_per_panel=0)


def test_accuracy_warning_on_exhausted_refinement():
    # a near-singular peak with refinement depth 1 cannot converge
    opts = QuadOptions(nodes_per_panel=4, max_refine_depth=1, rel_tol=1e-14)
    c = Contour.polyline([-0.5, 0.5])  # one panel
    f = lambda z: 1.0 / (z - 1e-4 * 1j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, err = integrate_single(f, c, opts)
    acc = [w for w in caught if issubclass(w.category, AccuracyWarning)]
    assert acc, "expected an accuracy warning"
    # the warning reports the worst per-panel residual, bounded by the total
    assert 0 < acc[0].message.estimate <= err + 1e-15
    assert err > 1e-10


# A batch of integrals on [-0.5, 0.5]: one row with a pole 0.05 off the
# segment, which needs refinement at 6 nodes, and easy rows c z^2 + 1, which
# the 6-node rule integrates exactly.
_POLE = 0.05j


def _pole_row(z):
    return 1.0 / (z - _POLE)


def _batch_of_easy_rows(n_rows, hard, seen=None):
    coef = np.linspace(-2.0, 2.0, n_rows)
    is_hard = np.arange(n_rows) == hard

    def f(z, i):
        if seen is not None:
            seen.append(np.broadcast_to(i, z.shape).ravel())
        return np.where(is_hard[i], _pole_row(z), coef[i] * z * z + 1.0)
    return f, coef


def test_batch_rows_refine_independently():
    c = Contour.polyline([-0.5, 0.5])
    opts = QuadOptions(nodes_per_panel=6)
    alone_points = []
    alone = integrate_single(
        lambda z: (alone_points.append(z.size), _pole_row(z))[1], c, opts)
    seen = []
    f, coef = _batch_of_easy_rows(501, 250, seen)
    vals, errs = integrate_single(f, c, opts, batch=501)
    assert vals.shape == errs.shape == (501,)
    # Alone or among 500 easy rows, the hard row gets the same value and
    # estimate: its tolerance is its own, not shrunk by sqrt(501).  Only a
    # matrix-vector product over a longer block may round differently.
    assert vals[250] == pytest.approx(alone[0], rel=1e-15)
    assert errs[250] == pytest.approx(alone[1], rel=1e-12)
    # The hard row refined; no easy row was evaluated past level 0's one
    # panel of 3 * 6 points.
    points = np.bincount(np.concatenate(seen), minlength=501)
    assert points[250] == sum(alone_points) > 18
    assert (np.delete(points, 250) == 18).all()
    easy = np.delete(np.arange(501), 250)
    assert np.abs(vals[easy] - (coef[easy] / 12 + 1)).max() < 1e-14


def test_batch_exhausted_row_warns_with_its_own_estimate():
    c = Contour.polyline([-0.5, 0.5])
    opts = QuadOptions(nodes_per_panel=6, max_refine_depth=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, alone_err = integrate_single(_pole_row, c, opts)
        f, _ = _batch_of_easy_rows(40, 7)
        _, errs = integrate_single(f, c, opts, batch=40)
    acc = [w.message for w in caught if issubclass(w.category, AccuracyWarning)]
    assert len(acc) == 2  # one alone, one for row 7 of the batch
    assert (acc[0].index, acc[1].index) == (0, 7)
    assert "integral 7 of 40" in str(acc[1])
    assert acc[1].estimate == pytest.approx(acc[0].estimate, rel=1e-12)
    assert 0 < acc[1].estimate <= errs[7] == pytest.approx(alone_err, rel=1e-12)


def test_batch_non_finite_row_rejects_the_call():
    c = Contour.polyline([0.0, 1.0])
    with pytest.raises(GeometryError, match="non-finite"):
        integrate_single(lambda z, i: np.where(i == 2, np.nan, np.exp(z)), c, batch=4)


def test_error_estimate_honest_for_smooth_integrands():
    opts = QuadOptions()
    exact = SQRT_PI * np.exp(-0.25)  # integral of exp(-z^2+iz) over R
    env = lambda z: np.real(-(z ** 2))
    c = _prep(_gaussian_line(), env, opts)
    val, err = integrate_single(lambda z: np.exp(-(z ** 2) + 1j * z), c, opts)
    assert abs(val - exact) <= max(5 * err, 1e-13)


# ---------------------------------------------------------------------------
# double integrals
# ---------------------------------------------------------------------------


def test_double_separable_gaussian():
    opts = QuadOptions()
    env = lambda z: np.real(-(z ** 2))
    c1 = _prep(_gaussian_line(0.0, 0.0), env, opts)
    c2 = _prep(_gaussian_line(0.0, 0.1), env, opts)
    val, err = integrate_double(
        lambda z, w: np.exp(-(z ** 2) - w ** 2), c1, c2, opts
    )
    assert abs(val - np.pi) < 1e-10


# 1/(z-w) on two lines kept apart, below and above the real axis
_SEPARATED = lambda z, w: np.exp(-((z - 1j) ** 2) - (w + 1j) ** 2) / (z - w)


def _offset_line(dz, ang=0.0):
    env = lambda z: np.real(-((z - dz) ** 2))
    d = np.exp(1j * ang)
    return _prep(Contour.vee(dz, -d, d), env, QuadOptions())


def test_double_with_separated_singularity():
    # tilting either line inside the decay sector must not move the value
    # (no pole is swept)
    opts = QuadOptions()
    F = _SEPARATED
    va, _ = integrate_double(F, _offset_line(1j), _offset_line(-1j), opts)
    vb, _ = integrate_double(F, _offset_line(1j, 0.2), _offset_line(-1j, -0.15), opts)
    assert abs(va - vb) < 1e-10


def test_double_refinement_converges_without_warning():
    ca, cb = _offset_line(1j), _offset_line(-1j)
    ref, ref_err = integrate_double(_SEPARATED, ca, cb)
    points = []

    def counted(z, w):
        points.append(np.broadcast(z, w).size)
        return _SEPARATED(z, w)

    low = QuadOptions(nodes_per_panel=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        val, err = integrate_double(counted, ca, cb, low)
    # level 0 measures every pair on the 6- and 10-node grids; more means
    # some pairs were split
    assert sum(points) > len(ca.panels) * len(cb.panels) * (36 + 100)
    assert abs(val - ref) <= err + ref_err


def test_double_accuracy_warning_on_exhausted_refinement():
    opts = QuadOptions(nodes_per_panel=6, max_refine_depth=1, rel_tol=1e-15)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, err = integrate_double(_SEPARATED, _offset_line(1j), _offset_line(-1j), opts)
    acc = [w for w in caught if issubclass(w.category, AccuracyWarning)]
    assert len(acc) == 1
    assert 0 < acc[0].message.estimate <= err


def test_undeclared_crossing_is_rejected():
    # the vertical line meets the real segment at one of its 49 Gauss nodes
    x = np.polynomial.legendre.leggauss(49)[0][30]
    vert = Contour.polyline([x - 1j, x + 1j])
    with pytest.raises(GeometryError, match="undeclared contour crossing"):
        integrate_double(lambda z, w: 1.0 / (z - w), vert, Contour.polyline([-1.0, 1.0]))


def test_steep_integrand_on_separated_panels_is_accepted():
    # a dynamic range of e^80 alone is no crossing
    val, err = integrate_double(lambda z, w: np.exp(40 * z) / (z - w),
                                Contour.polyline([-1.0, 1.0]),
                                Contour.polyline([-1.0 + 0.5j, 1.0 + 0.5j]))
    assert np.isfinite(val) and err < 1e-10 * abs(val)


def test_integrators_return_python_scalars():
    c = Contour.polyline([0.0, 1.0, 1.0 + 1j])
    for val, err in (integrate_single(np.exp, c),
                     integrate_double(lambda z, w: np.exp(z - w), c, c)):
        assert type(val) is complex and type(err) is float


@pytest.mark.parametrize("f", [np.ones_like, lambda z: z, lambda z: z * z])
def test_nonzero_integrand_never_reports_zero_error(f):
    c = Contour.polyline([0.0, 1.0])
    assert integrate_single(f, c)[1] > 0
    assert integrate_double(lambda z, w: f(z) * f(w), c, c)[1] > 0


def test_double_requires_finite_contours():
    with pytest.raises(GeometryError):
        integrate_double(lambda z, w: 1.0, _gaussian_line(), _gaussian_line())


def test_polar_cell_keeps_crossing_cell_values():
    # Values of the octant-by-octant crossing cell this polar cell replaced:
    # zeta = i s on a vertical line meets omega = t on the real line at 0,
    # and the factor i is the direction of the zeta line.
    F = lambda z, w: np.exp(z ** 2 - w ** 2) / (z - w)
    G = lambda z, w: np.exp(z - 2 * w) / (z - w)
    cell = lambda H: polar_cell(lambda s, t: H(1j * s, t), 0.3, 32) * 1j
    assert abs(cell(G) - 0.5520958742547415j) < 1e-12
    assert abs(cell(F) - 2.0816681711721685e-16j) < 1e-12


def test_polar_cell_integrates_polynomials_over_the_square():
    # square [-r, r]^2: area 4 r^2, second moment 8 r^4 / 3
    r = 0.7
    assert abs(polar_cell(lambda s, t: np.ones_like(s), r, 16) - 4 * r * r) < 1e-14
    m2 = polar_cell(lambda s, t: s * s + t * t, r, 16)
    assert abs(m2 - 8 * r ** 4 / 3) < 1e-14
    # a principal value: 1/(s - i t) integrates to 0, s/(s - i t) to 2 r^2
    pv = polar_cell(lambda s, t: (1 + s) / (s - 1j * t), r, 16)
    assert abs(pv - 2 * r * r) < 1e-14
    # a two-panel radial rule gives the same value
    nodes, weights = gl_unit(5)
    split = (np.concatenate([0.5 * nodes, 0.5 + 0.5 * nodes]),
             np.concatenate([0.5 * weights, 0.5 * weights]))
    assert abs(polar_cell(lambda s, t: s * s + t * t, r, 16, split) - m2) < 1e-14
