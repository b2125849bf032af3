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
from kernelwave.quadrature import _duffy_cell  # values of the replaced cell

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


def test_double_with_separated_singularity():
    # 1/(z-w) with contours kept apart: tilting either line inside the
    # decay sector must not move the value (no pole is swept)
    opts = QuadOptions()
    F = lambda z, w: np.exp(-((z - 1j) ** 2) - (w + 1j) ** 2) / (z - w)

    def make(dz, ang=0.0):
        env = lambda z: np.real(-((z - dz) ** 2))
        d = np.exp(1j * ang)
        return _prep(Contour.vee(dz, -d, d), env, opts)

    va, _ = integrate_double(F, make(1j), make(-1j), opts)
    vb, _ = integrate_double(F, make(1j, 0.2), make(-1j, -0.15), opts)
    assert abs(va - vb) < 1e-10


def test_double_requires_finite_contours():
    with pytest.raises(GeometryError):
        integrate_double(lambda z, w: 1.0, _gaussian_line(), _gaussian_line())


def test_declared_crossing_computes_principal_value():
    # vertical line against the real line with 1/(z-w) crossing at 0.  A
    # displaced line differs from the principal value by a one-sided
    # residue sweep, so the symmetric average of left/right displacements
    # is the independent principal-value oracle.
    opts = QuadOptions()
    F = lambda z, w: np.exp(z ** 2 - w ** 2) / (z - w)
    env_w = lambda w: np.real(-(w ** 2))
    horiz = Contour(
        panels=(Ray(0.0, -1.0, incoming=True), Ray(0.0, 1.0, incoming=False)),
        crossings=(0.0,),
    )
    ch = refine_panels(truncate_rays(horiz, env_w, 40.0), env_w)

    vert = Contour(
        panels=(Ray(0.0, -1j, incoming=True), Ray(0.0, 1j, incoming=False)),
        crossings=(0.0,),
    )
    env_vert = lambda z: np.real(z ** 2)
    cv = refine_panels(truncate_rays(vert, env_vert, 40.0), env_vert)
    val, err = integrate_double(F, cv, ch, opts)

    def displaced(c):
        line = Contour.vee(c, -1j, 1j)
        env = lambda z: np.real(z ** 2 - 2 * c * z)
        cl = refine_panels(truncate_rays(line, env, 40.0), env)
        v, _ = integrate_double(F, cl, ch, opts)
        return v

    pv = 0.5 * (displaced(0.3) + displaced(-0.3))
    assert abs(val - pv) < 1e-9


def test_polar_cell_keeps_crossing_cell_values():
    # Values of the octant-by-octant crossing cell this polar cell replaced,
    # for the declared-crossing geometry above (vertical zeta line, real
    # omega line).
    F = lambda z, w: np.exp(z ** 2 - w ** 2) / (z - w)
    G = lambda z, w: np.exp(z - 2 * w) / (z - w)
    assert abs(_duffy_cell(G, 0.0, 1j, 1.0, 0.3, 32) - 0.5520958742547415j) < 1e-12
    assert abs(_duffy_cell(F, 0.0, 1j, 1.0, 0.3, 32) - 2.0816681711721685e-16j) < 1e-12
    horiz = Contour(
        panels=(Ray(0.0, -1.0, incoming=True), Ray(0.0, 1.0, incoming=False)),
        crossings=(0.0,),
    )
    vert = Contour(
        panels=(Ray(0.0, -1j, incoming=True), Ray(0.0, 1j, incoming=False)),
        crossings=(0.0,),
    )
    env_w = lambda w: np.real(-(w ** 2))
    env_vert = lambda z: np.real(z ** 2)
    ch = refine_panels(truncate_rays(horiz, env_w, 40.0), env_w)
    cv = refine_panels(truncate_rays(vert, env_vert, 40.0), env_vert)
    val, _ = integrate_double(F, cv, ch, QuadOptions())
    assert abs(val - (-6.848729244058926e-16 + 1.283987615181724e-16j)) < 1e-12


def test_polar_cell_integrates_polynomials_over_the_square():
    # square [-r, r]^2: area 4 r^2, second moment 8 r^4 / 3
    r = 0.7
    assert abs(polar_cell(lambda s, t: np.ones_like(s), r, 16) - 4 * r * r) < 1e-14
    m2 = polar_cell(lambda s, t: s * s + t * t, r, 16)
    assert abs(m2 - 8 * r ** 4 / 3) < 1e-14
    # a two-panel radial rule gives the same value
    nodes, weights = gl_unit(5)
    split = (np.concatenate([0.5 * nodes, 0.5 + 0.5 * nodes]),
             np.concatenate([0.5 * weights, 0.5 * weights]))
    assert abs(polar_cell(lambda s, t: s * s + t * t, r, 16, split) - m2) < 1e-14
