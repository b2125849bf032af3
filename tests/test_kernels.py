"""Kernel evaluation: closed forms, independent oracles, backend agreement."""

from __future__ import annotations

import ast
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import airy as scipy_airy

from airy_oracle import airy_ext_oracle
from pearcey_oracle import pearcey_ext_oracle
from kernelwave.kernels import (
    KernelQuery,
    KernelValue,
    eval_kernel,
    eval_kernels,
    heat_term,
    relation_connS,
    relation_connSS,
    rescaled_airy_lhs,
    rescaled_pearcey_lhs,
    transition_interpolation_check,
)
from kernelwave import kernels
from kernelwave.quadrature import (
    _CHUNK,
    Contour,
    QuadOptions,
    integrate_cauchy,
)
from kernelwave.verify import DEFAULT_STUDY_POINTS

# Multiples of 2**-21: common shifts are exact, yet tau1 - tau2 can still be
# 0 or as small as 2**-21, where the segment kernels are steepest.
coord = st.integers(-3 * 2 ** 20, 3 * 2 ** 20).map(lambda k: k * 2.0 ** -21)
shift = st.integers(-(2 ** 20), 2 ** 20).map(lambda k: k * 2.0 ** -21)


def _val(kernel, tau1=0.0, tau2=0.0, u=0.0, v=0.0, a=None, backend="direct"):
    return eval_kernel(
        KernelQuery(kernel, tau1, tau2, u, v, a_param=a, backend=backend)
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_heat_term_values():
    assert heat_term(0.0, 1.0, "four-pi") == 0.0
    assert heat_term(-0.5, 1.0, "two-pi") == 0.0
    dt, dx = 0.7, -0.4
    want4 = np.exp(-(dx ** 2) / (4 * dt)) / np.sqrt(4 * np.pi * dt)
    want2 = np.exp(-(dx ** 2) / (2 * dt)) / np.sqrt(2 * np.pi * dt)
    assert abs(heat_term(dt, dx, "four-pi") - want4) < 1e-15
    assert abs(heat_term(dt, dx, "two-pi") - want2) < 1e-15
    with pytest.raises(ValueError):
        heat_term(dt, dx, "six-pi")


@pytest.mark.parametrize("du", [0.5, 1.0, 0.25, -0.8])
def test_sine_ext_equal_times_is_sinc(du):
    kv = _val("sine-ext", 0.3, 0.3, du, 0.0)
    want = np.sin(np.pi * du) / (np.pi * du)
    assert abs(kv.value.real - want) < 1e-10


def test_sine_ext_diagonal_limit():
    kv = _val("sine-ext", -0.2, -0.2, 0.7, 0.7)
    assert abs(kv.value.real - 1.0) < 1e-10


def test_s1_diagonal_value():
    kv = _val("s1", 0.4, 0.4, -0.3, -0.3)
    assert abs(kv.value.real - 1.0 / np.pi) < 1e-12


def test_s2_diagonal_value():
    kv = _val("s2", -0.1, -0.1, 0.6, 0.6)
    assert abs(kv.value.real - np.sqrt(3.0) / (2 * np.pi)) < 1e-12


def test_airy_ext_zero_times_matches_classic_kernel():
    # tau1 = tau2 = 0 reduces to (Ai(u)Ai'(v) - Ai'(u)Ai(v))/(u - v)
    for u, v in [(0.3, -0.2), (0.7, 0.1), (-0.5, -1.1)]:
        Aiu, Aipu, _, _ = scipy_airy(u)
        Aiv, Aipv, _, _ = scipy_airy(v)
        want = (Aiu * Aipv - Aipu * Aiv) / (u - v)
        kv = _val("airy-ext", 0.0, 0.0, u, v)
        assert abs(kv.value.real - want) < 1e-8


def test_airy_ext_origin_is_derivative_squared():
    aip0 = scipy_airy(0.0)[1]
    kv = _val("airy-ext", 0.0, 0.0, 0.0, 0.0)
    assert abs(kv.value.real - aip0 ** 2) < 1e-8


# ---------------------------------------------------------------------------
# the extended sine kernel's closed form against mpmath and the quadrature
# ---------------------------------------------------------------------------


def _mp_faddeeva(z):
    """w(z) at 30 digits from mpmath's erfc."""
    import mpmath as mp

    with mp.workdps(30):
        z = mp.mpc(z)
        return mp.exp(-z * z) * mp.erfc(-1j * z)


def _mp_sine_ext(dt, dx):
    """The extended sine kernel at 30 digits: the closed form's algebra on
    mpmath's erfc, which shares no arithmetic with the package."""
    import mpmath as mp

    with mp.workdps(30):
        dt, dx = mp.mpf(dt), mp.mpf(dx)
        if dt == 0:
            return mp.sinc(mp.pi * dx)
        r = mp.sqrt(abs(dt) / 2)
        if dt > 0:
            t = mp.exp(-(mp.pi * r) ** 2 + 1j * mp.pi * dx) * _mp_faddeeva(
                dx / (2 * r) + 1j * mp.pi * r)
            return -mp.re(t) / (2 * mp.sqrt(mp.pi) * r)
        t = mp.exp((mp.pi * r) ** 2 - 1j * mp.pi * abs(dx)) * _mp_faddeeva(
            -mp.pi * r + 1j * abs(dx) / (2 * r))
        return -mp.im(t) / (2 * mp.sqrt(mp.pi) * r)


def _mp_sine_ext_by_quadrature(dt, dx):
    """The defining integral by mpmath's quadrature, minus the heat term."""
    import mpmath as mp

    with mp.workdps(30):
        dt, dx = mp.mpf(dt), mp.mpf(dx)
        f = lambda w: mp.exp(-dt * w * w / 2) * mp.cos(dx * w)
        k = mp.quad(f, mp.linspace(0, mp.pi, 2 + int(abs(dx)) // 2)) / mp.pi
        if dt > 0:
            k -= mp.exp(-dx * dx / (2 * dt)) / mp.sqrt(2 * mp.pi * dt)
        return k


# dt at which the integrand exp(-dt w^2 / 2) reaches the largest double at w = pi
_OVERFLOW_DT = -2.0 * kernels._LOG_MAX / np.pi ** 2


def _sine_gate_points():
    """210 seeded (dt, dx) points: a grid through the steep and the
    overflowing corners, and a log-uniform cloud."""
    rng = np.random.default_rng(19)
    dts = [0.0] + [s * t for t in (2.0 ** -21, 1e-3, 0.5, 1.0, 5.0, 20.0) for s in (1, -1)]
    dts += [-140.0, 0.999 * _OVERFLOW_DT]
    dxs = [0.0, 1e-9, 0.5, 1.0, 2.5, 3.999, 7.3, -13.7, 25.0, 50.0]
    pts = [(dt, dx) for dt in dts for dx in dxs]
    pts += [(float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-16.0, 3.0))),
             float(rng.uniform(-50.0, 50.0))) for _ in range(60)]
    return np.array(pts).T


def test_sine_ext_closed_form_within_its_estimate():
    from kernelwave.quadrature import Contour, integrate_single

    dt, dx = _sine_gate_points()
    assert dt.size >= 200
    val, err = kernels._sine_ext(dt, dx)
    # mpmath at 30 digits, whose own error is below 1e-25 of the value
    ref = np.array([float(_mp_sine_ext(t, x)) for t, x in zip(dt, dx)])
    ratio = np.abs(val - ref) / (err + 1e-25 * np.abs(ref))
    # the old quadrature on the defining integral, within its own estimate
    q, q_err = integrate_single(lambda w, i: np.exp(-0.5 * dt[i] * w * w + 1j * dx[i] * w),
                                Contour.polyline([0.0, np.pi]), QuadOptions(), batch=dt.size)
    quad = q.real / np.pi - heat_term(dt, dx, "two-pi")
    quad_ratio = np.abs(val - quad) / (err + q_err / np.pi)
    for name, r in (("mpmath", ratio), ("quadrature", quad_ratio)):
        print(f"|K - {name}| / err over {r.size} points: median {np.median(r):.3g}, "
              f"90% {np.quantile(r, 0.9):.3g}, max {r.max():.3g}")
    assert (ratio <= 1.0).all(), np.column_stack([dt, dx, ratio])[ratio > 1.0]
    assert (quad_ratio <= 1.0).all(), np.column_stack([dt, dx, quad_ratio])[quad_ratio > 1.0]
    # the mpmath reference's algebra, against quadrature of the defining integral
    for t, x in list(zip(dt, dx))[::20]:
        if t <= 5.0:  # beyond, the heat term cancels more than 30 digits hold
            a, b = _mp_sine_ext(t, x), _mp_sine_ext_by_quadrature(t, x)
            assert abs(a - b) <= 1e-25 * max(1, abs(b)), (t, x)


def test_sine_ext_overflow_is_a_geometry_error():
    from kernelwave.quadrature import GeometryError

    val, _ = kernels._sine_ext(np.array([0.999 * _OVERFLOW_DT]), np.array([0.3]))
    assert np.isfinite(val).all()
    for dt in (1.001 * _OVERFLOW_DT, -300.0):
        with pytest.raises(GeometryError, match="non-finite"):
            kernels._sine_ext(np.array([dt, 0.5]), np.array([0.3, 0.3]))


@pytest.mark.parametrize("times,coords", [((0.0, 0.0), (1e308, -1e308)),
                                         ((1e308, -1e308), (0.0, 0.0))])
def test_overflowing_differences_are_a_geometry_error(times, coords):
    # tau1 - tau2 or u - v overflows: sine-ext used to return nan with a finite err
    from kernelwave.quadrature import GeometryError

    with pytest.raises(GeometryError, match="non-finite value or error estimate in row 1") as info:
        eval_kernels([KernelQuery("sine-ext", 0.1, 0.0, 0.3, 0.2),
                      KernelQuery("sine-ext", *times, *coords)])
    assert info.value.row == 1
    with pytest.raises(GeometryError, match="non-finite"):
        eval_kernel(KernelQuery("sine-ext", *times, *coords))


def _segment_oracle(kind: str, dt: float, dx: float) -> tuple[float, float, float]:
    """scipy's quad on the defining integral of s1 or s2, written out here:
    the value minus the heat term, quad's error bound, and a round-off
    scale ``|heat| + int |f| / pi``."""
    from scipy.integrate import quad

    if kind == "s1":  # (1/pi) int_0^1 exp(-dt y^2) cos(dx y) dy
        top = 1.0
        f = lambda y: np.exp(-dt * y * y) * np.cos(dx * y)
        mag = lambda y: np.exp(-dt * y * y)
    else:  # (1/pi) int_0^{sqrt3/2} Re exp(dt w^2 + dx w) dy, w = 1/2 + iy
        top = np.sqrt(3.0) / 2.0
        f = lambda y: np.exp(dt * (0.5 + 1j * y) ** 2 + dx * (0.5 + 1j * y)).real
        mag = lambda y: np.exp(dt * (0.25 - y * y) + 0.5 * dx)
    total, _ = quad(mag, 0.0, top, epsabs=0.0, epsrel=1e-10, limit=200)
    # Any tighter and quad warns of round-off where the value cancels.
    val, val_err = quad(f, 0.0, top, epsabs=1e-13 * total, epsrel=1e-12, limit=200)
    heat = np.exp(-dx * dx / (4.0 * dt)) / np.sqrt(4.0 * np.pi * dt) if dt > 0 else 0.0
    return val / np.pi - heat, val_err / np.pi, abs(heat) + total / np.pi


def test_s1_s2_match_scipy_quad_on_their_defining_integrals():
    # An oracle that shares no code with the package: each kernel's value
    # must sit within its own estimate plus the oracle's error and round-off.
    rng = np.random.default_rng(26)
    pts = np.concatenate([rng.uniform(-b, b, (67, 4)) for b in (1.0, 3.0, 6.0)])
    worst = 0.0
    for kind in ("s1", "s2"):
        kvs = eval_kernels([KernelQuery(kind, *p) for p in pts])
        for (t1, t2, u, v), kv in zip(pts, kvs):
            ref, ref_err, scale = _segment_oracle(kind, t1 - t2, u - v)
            bound = kv.error_estimate + ref_err + 4.0 * np.finfo(float).eps * scale
            ratio = abs(kv.value.real - ref) / bound
            assert ratio <= 1.0, (kind, t1, t2, u, v, kv.value.real, ref, bound)
            worst = max(worst, ratio)
    print(f"s1/s2 against quad over {len(pts)} points each: "
          f"largest |K - quad| / bound {worst:.3g}")


def test_faddeeva_within_its_bound():
    # The arguments the closed form uses, for 2**-21 <= |dt| <= the overflow
    # edge and |dx| <= 50, and a grid of the closed upper half-plane.
    from scipy.special import wofz

    r = np.sqrt(0.5 * np.geomspace(2.0 ** -21, -_OVERFLOW_DT, 60))[:, None]
    x = np.concatenate([[0.0], np.geomspace(1e-9, 50.0, 40)])[None, :]
    grid_x = np.concatenate([-np.geomspace(1e-3, 1e3, 60), [0.0], np.geomspace(1e-3, 1e3, 60)])
    grid_y = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 50)])
    z = np.concatenate([(x / (2 * r) + 1j * np.pi * r).ravel(),
                        (-np.pi * r + 1j * x / (2 * r)).ravel(),
                        (grid_x[:, None] + 1j * grid_y[None, :]).ravel()])
    w = kernels._faddeeva(z)
    ref = wofz(z)
    off = np.abs(w - ref) > kernels._W_REL * np.abs(ref)
    # scipy's wofz errs by up to ~4e-14 near the real axis around |x| ~ 9;
    # there mpmath decides
    worst = 0.0
    for zk, wk in zip(z[off], w[off]):
        exact = complex(_mp_faddeeva(zk))
        worst = max(worst, abs(wk - exact) / abs(exact))
    print(f"{off.sum()} of {z.size} points differ from wofz by more than the bound; "
          f"against mpmath their largest relative error is {worst:.3g}")
    assert worst <= kernels._W_REL
    assert off.sum() < 0.05 * z.size


def test_sine_ext_never_integrates(monkeypatch):
    # So relation_connS and cross_validate's "identity sine-vs-s1" compare
    # the closed form with s1's quadrature: two code paths.
    def fail(*args, **kwargs):
        raise AssertionError("sine-ext called integrate_single")

    monkeypatch.setattr(kernels, "integrate_single", fail)
    batch = eval_kernels([KernelQuery("sine-ext", t1, 0.2, 0.7, -0.4)
                          for t1 in (0.9, 0.2, -0.5)])  # dt > 0, dt = 0, dt < 0
    assert all(np.isfinite(kv.value) and kv.error_estimate < 1e-13 for kv in batch)
    with pytest.raises(AssertionError, match="integrate_single"):
        relation_connS(0.4, -0.2, 0.3, -0.5)  # its s1 side integrates


# ---------------------------------------------------------------------------
# realness, symmetry under shifts, deformation invariance
# ---------------------------------------------------------------------------


def test_kernels_are_real_on_sample_points():
    # Direct rows are real by construction (the conjugate fold); the saddle
    # rows still check realness as a property of the computed value.
    rng = np.random.default_rng(5)
    rows = [(k, "direct") for k in ("sine-ext", "s1", "s2", "airy-ext", "pearcey-ext")]
    for kernel, backend in rows + [("airy-ext", "saddle"), ("pearcey-ext", "saddle")]:
        t1, t2, u, v = rng.uniform(-1, 1, size=4)
        kv = _val(kernel, t1, t2, u, v, backend=backend)
        assert kv.imag_residual < 1e-9, (kernel, backend)


@given(coord, coord, coord, coord, shift, shift)
def test_segment_kernels_depend_only_on_differences(t1, t2, u, v, ct, cu):
    # the three segment kernels are invariant under common shifts
    for kernel in ("s1", "s2", "sine-ext"):
        base = _val(kernel, t1, t2, u, v).value
        moved = _val(kernel, t1 + ct, t2 + ct, u + cu, v + cu).value
        assert abs(base - moved) < 1e-10


def test_eval_kernels_matches_one_query_at_a_time():
    # One mixed batch: every kernel, both backends where there are two, the
    # segment kernels at dt > 0, dt < 0 and dt = 0 plus the point where the
    # realness bound was once missed, and more s1 rows than one chunk holds.
    rng = np.random.default_rng(11)
    qs = [KernelQuery(k, 0.3, -0.2, 0.15, 0.05, backend=b)
          for k in ("airy-ext", "pearcey-ext") for b in ("direct", "saddle")]
    qs.append(KernelQuery("transition-a", 0.3, -0.2, 0.15, 0.05, a_param=1.0))
    qs += [KernelQuery(k, t1, t2, 0.7, -0.4) for k in ("sine-ext", "s1", "s2")
           for t1, t2 in ((0.5, 0.1), (-0.3, 0.4), (0.2, 0.2))]
    qs.append(KernelQuery("sine-ext", -1.828, 1.861, -1.878, -1.518))
    rows_per_chunk = _CHUNK // (3 * QuadOptions().nodes_per_panel)
    qs += [KernelQuery("s1", *rng.uniform(-2.0, 2.0, 4))
           for _ in range(rows_per_chunk + 15)]
    qs = [qs[k] for k in rng.permutation(len(qs))]

    batch = eval_kernels(qs)
    assert len(batch) == len(qs)
    for q, got in zip(qs, batch):
        want = eval_kernel(q)
        assert got.backend_used == want.backend_used
        assert abs(got.value - want.value) <= 0.1 * want.error_estimate, q
        assert abs(got.error_estimate - want.error_estimate) <= 0.05 * want.error_estimate, q
        if q.kernel in ("sine-ext", "s1", "s2"):
            assert got.value.imag == want.value.imag == 0.0


def test_eval_kernels_groups_direct_queries_that_share_times(monkeypatch):
    # Direct queries sharing (kernel, tau1, tau2, a) share their contours and
    # one bilinear form; saddle and segment rows sit between them.  Groups
    # of at most 5 split the airy rows in two.
    monkeypatch.setattr(kernels, "_GROUP", 5)
    rng = np.random.default_rng(12)
    qs = [KernelQuery("airy-ext", 0.5, 0.0, *rng.uniform(-3, 3, 2)) for _ in range(8)]
    qs += [KernelQuery("pearcey-ext", -0.2, 0.3, *rng.uniform(-2, 2, 2)) for _ in range(4)]
    qs += [KernelQuery("transition-a", 0.1, 0.2, *rng.uniform(-2, 2, 2), a_param=1.5)
           for _ in range(3)]
    qs += [KernelQuery(k, 0.3, -0.2, 0.15, 0.05, backend="saddle")
           for k in ("airy-ext", "pearcey-ext")]
    qs += [KernelQuery(k, 0.4, 0.1, 0.7, -0.4) for k in ("sine-ext", "s1", "s2")]
    qs = [qs[k] for k in rng.permutation(len(qs))]

    batch = eval_kernels(qs)
    for q, got in zip(qs, batch):
        want = eval_kernel(q)
        assert got.backend_used == want.backend_used, q
        assert abs(got.value - want.value) <= min(got.error_estimate, want.error_estimate), q
        assert 0.5 <= got.error_estimate / want.error_estimate <= 2.0, q


def test_eval_kernels_groups_saddle_queries_that_share_times(monkeypatch):
    # Saddle airy-ext and pearcey-ext queries sharing (kernel, tau1, tau2)
    # share one rule; a small byte budget splits each group into chunks.
    monkeypatch.setattr(kernels, "_SADDLE_BYTES", 8 << 20)
    rng = np.random.default_rng(13)
    qs = [KernelQuery("airy-ext", t1, t2, *rng.uniform(-2, 2, 2), backend="saddle")
          for t1, t2 in ((0.3, -0.2), (-0.4, 0.1)) for _ in range(20)]
    qs += [KernelQuery("pearcey-ext", t1, t2, *rng.uniform(-1.5, 1.5, 2), backend="saddle")
           for t1, t2 in ((0.2, 0.2), (-0.1, 0.35)) for _ in range(10)]
    qs = [qs[k] for k in rng.permutation(len(qs))]

    batch = eval_kernels(qs)
    for q, got in zip(qs, batch):
        want = eval_kernel(q)
        assert got.backend_used == want.backend_used == "saddle", q
        assert abs(got.value - want.value) <= min(got.error_estimate, want.error_estimate), q
        assert 0.5 <= got.error_estimate / want.error_estimate <= 2.0, q


def test_airy_block_matches_scipy_within_its_estimates():
    # The whole equal-time tau = 0 block of the 16-node Gauss-Legendre grid
    # on [-3, 3] in one batch, against scipy's Airy kernel.
    x = 3.0 * np.polynomial.legendre.leggauss(16)[0]
    u, v = (g.ravel() for g in np.meshgrid(x, x, indexing="ij"))
    batch = eval_kernels([KernelQuery("airy-ext", 0.0, 0.0, a, b) for a, b in zip(u, v)])
    ai_u, aip_u, _, _ = scipy_airy(u)
    ai_v, aip_v, _, _ = scipy_airy(v)
    diag = u == v
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.where(diag, aip_u ** 2 - u * ai_u ** 2,
                        (ai_u * aip_v - aip_u * ai_v) / (u - v))
    got = np.array([kv.value.real for kv in batch])
    err = np.array([kv.error_estimate for kv in batch])
    ratio = np.abs(got - want) / err
    print(f"largest miss / err over the 256-entry block: {ratio.max():.3f}")
    assert (ratio <= 1.0).all()


def test_airy_ext_cross_times_match_johansson_oracle():
    # 30 seeded points, against Johansson's single integral of two Airy
    # functions by scipy quadrature.  The strip 0 < tau1 - tau2 < 0.3 is
    # skipped: there the oracle's (-inf, 0] integral decays too slowly.
    rng = np.random.default_rng(21)
    points = []
    while len(points) < 30:
        t1, t2, u, v = rng.uniform(-1.0, 1.0, 2).tolist() + rng.uniform(-3.0, 3.0, 2).tolist()
        if not 0.0 < t1 - t2 < 0.3:
            points.append((t1, t2, u, v))
    want, want_err = np.array([airy_ext_oracle(*p) for p in points]).T
    assert 5 <= sum(t1 > t2 for t1, t2, _, _ in points) <= 25  # both of its integrals
    for backend in ("direct", "saddle"):
        batch = eval_kernels([KernelQuery("airy-ext", *p, backend=backend) for p in points])
        got = np.array([kv.value for kv in batch])
        err = np.array([kv.error_estimate for kv in batch])
        ratio = np.abs(got - want) / (err + want_err)
        print(f"{backend}: largest miss / (err + oracle err) {ratio.max():.3f}")
        assert (ratio <= 1.0).all(), backend


def test_pearcey_ext_equal_times_match_tracy_widom_oracle():
    # 30 seeded points at equal times, against Tracy and Widom's sum of
    # products of single integrals by scipy quadrature.  transition-a at
    # a = 0 is the same kernel, so the oracle covers that slice too.
    rng = np.random.default_rng(27)
    points = []
    while len(points) < 30:
        tau, u, v = rng.uniform(-1.0, 1.0), *rng.uniform(-3.0, 3.0, 2)
        if abs(u - v) >= 0.2:
            points.append((tau, u, v))
    want, want_err = (np.array(x) for x in zip(*(pearcey_ext_oracle(*p) for p in points)))
    assert (np.abs(want.imag) <= want_err).all()
    for kernel, backend, a in (("pearcey-ext", "direct", None), ("pearcey-ext", "saddle", None),
                               ("transition-a", "direct", 0.0)):
        batch = eval_kernels([KernelQuery(kernel, tau, tau, u, v, a_param=a, backend=backend)
                              for tau, u, v in points])
        got = np.array([kv.value for kv in batch])
        err = np.array([kv.error_estimate for kv in batch])
        ratio = np.abs(got - want.real) / (err + want_err)
        print(f"{kernel} {backend}: largest miss / (err + oracle err) {ratio.max():.4f}")
        assert (ratio <= 1.0).all(), (kernel, backend)


@pytest.mark.parametrize("path", ["tests/airy_oracle.py", "tests/pearcey_oracle.py",
                                  "perfbench/oracles.py"])
def test_oracles_share_no_code_with_the_package(path):
    # An oracle that imported kernelwave could compare a code path with itself.
    tree = ast.parse((Path(__file__).parents[1] / path).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [m for m in imported if m.split(".")[0] == "kernelwave"] == []


def test_direct_airy_fails_fast_at_large_negative_times():
    from kernelwave.quadrature import GeometryError

    start = time.perf_counter()
    try:
        kv = _val("airy-ext", -14.0, -14.0)
    except GeometryError:
        pass
    else:  # above the CLI's default warn_tol, so `kernelwave eval` exits 2
        assert kv.error_estimate > 1e-6
    assert time.perf_counter() - start < 5.0
    # the exponentials overflow: rejected, not returned as nan
    with pytest.raises(GeometryError, match="non-finite"):
        _val("airy-ext", -20.0, -20.0)


def _whole_contour_kernel(p_zeta, p_omega, zeta, omegas, dt, dx, variance, opts):
    """A direct kernel integrated over the whole zeta contour, without the
    conjugate fold: complex values and their estimates."""
    val, err = integrate_cauchy(p_zeta, p_omega, kernels._contour(zeta, p_zeta),
                                tuple(kernels._contour(c, p_omega) for c in omegas), opts)
    return val / (2j * np.pi) ** 2 - heat_term(dt, dx, variance), err / (4 * np.pi ** 2)


def _airy_exponents(t1, t2, u, v):
    return (lambda z: z ** 3 / 3 - v * z - t2 * z * z,
            lambda w: -(w ** 3) / 3 + u * w + t1 * w * w)


def test_direct_airy_contour_deformation_invariance():
    # The V's through the zeta vertex s and the omega vertex g < s may move
    # without crossing each other: the value must not change.
    opts = QuadOptions()
    t1, t2, u, v = 0.2, -0.1, np.array([0.3]), np.array([-0.4])
    vals = [
        _whole_contour_kernel(
            *_airy_exponents(t1, t2, u, v),
            Contour.vee(s, np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)),
            [Contour.vee(g, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3))],
            t1 - t2, u - v, "four-pi", opts)[0][0]
        for s, g in ((0.25, -0.25), (0.1, -0.3), (0.6, -0.1), (0.35, -0.6))
    ]
    for val in vals[1:]:
        assert abs(val - vals[0]) < 1e-9


def test_conjugate_fold_matches_the_whole_contour():
    # The direct backend integrates the upper half of each zeta contour and
    # takes 2 Re; here the whole contours are integrated, so realness is
    # checked independently of the fold.
    opts = QuadOptions()
    rng = np.random.default_rng(20)
    for _ in range(3):
        t1, t2 = rng.uniform(-1, 1, 2)
        u, v = rng.uniform(-3, 3, (2, 5))
        whole, whole_err = _whole_contour_kernel(
            *_airy_exponents(t1, t2, u, v),
            Contour.vee(0.25, np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)),
            [Contour.vee(-0.25, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3))],
            t1 - t2, u - v, "four-pi", opts)
        val, err = kernels._direct("airy-ext", t1, t2, u, v, np.nan, opts)
        assert (np.abs(val - whole) <= err).all()
        assert (np.abs(whole.imag) <= whole_err).all()
    for a in (0.0, 0.7, 2.5):
        t1, t2 = rng.uniform(-1, 1, 2)
        u, v = rng.uniform(-2, 2, (2, 5))
        whole, whole_err = _whole_contour_kernel(
            lambda z: -(z ** 4) / 4 + a * z ** 3 / 3 - 0.5 * t2 * z * z - v * z,
            lambda w: w ** 4 / 4 - a * w ** 3 / 3 + 0.5 * t1 * w * w + u * w,
            Contour.vee(0.25, -1j, 1j),
            [Contour.vee(max(0.5, a), np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)),
             Contour.vee(-0.25, np.exp(-3j * np.pi / 4), np.exp(3j * np.pi / 4))],
            t1 - t2, u - v, "two-pi", opts)
        val, err = kernels._direct("transition-a", t1, t2, u, v, a, opts)
        assert (np.abs(val - whole) <= err).all()
        assert (np.abs(whole.imag) <= whole_err).all()


# ---------------------------------------------------------------------------
# backends and rescaled left-hand sides
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["airy-ext", "pearcey-ext"])
def test_backends_agree(kernel):
    for t1, t2, u, v in [(0.2, -0.1, 0.4, -0.3), (-0.3, 0.25, -0.6, 0.1)]:
        d = _val(kernel, t1, t2, u, v, backend="direct")
        s = _val(kernel, t1, t2, u, v, backend="saddle")
        assert abs(d.value - s.value) < 1e-8
        assert d.backend_used == "direct" and s.backend_used == "saddle"


def test_rescaled_airy_lhs_backends_agree():
    d = rescaled_airy_lhs(3.0, 0.2, -0.1, 0.4, -0.3, "direct")
    s = rescaled_airy_lhs(3.0, 0.2, -0.1, 0.4, -0.3, "saddle")
    assert abs(d.value - s.value) < 1e-8


def test_rescaled_pearcey_lhs_backends_agree():
    d = rescaled_pearcey_lhs(3.0, 0.2, -0.1, 0.4, -0.3, "direct")
    s = rescaled_pearcey_lhs(3.0, 0.2, -0.1, 0.4, -0.3, "saddle")
    assert abs(d.value - s.value) < 1e-8


def test_rescaled_lhs_converges_to_segment_kernel():
    # at large a the rescaled kernels approach their stationary limits
    point = (0.3, -0.2, 0.25, 0.1)
    u, v, t1, t2 = point
    s1 = _val("s1", t1, t2, u, v).value.real
    s2 = _val("s2", t1, t2, u, v).value.real
    for a, tol in ((8.0, 2e-2), (20.0, 4e-3)):
        assert abs(rescaled_airy_lhs(a, t1, t2, u, v).value.real - s1) < tol
    for a, tol in ((8.0, 3e-2), (20.0, 8e-3)):
        assert abs(rescaled_pearcey_lhs(a, t1, t2, u, v).value.real - s2) < tol


@pytest.mark.parametrize("a", [2.0, 4.0, 6.0, 8.0])
def test_saddle_lhs_matches_direct_within_both_estimates(a):
    # the direct backend shares no geometry with the branch-path blocks
    worst = 0.0
    for u, v, t1, t2 in DEFAULT_STUDY_POINTS:
        for lhs in (rescaled_airy_lhs, rescaled_pearcey_lhs):
            d = lhs(a, t1, t2, u, v, "direct")
            s = lhs(a, t1, t2, u, v, "saddle")
            ratio = abs(d.value - s.value) / (d.error_estimate + s.error_estimate)
            worst = max(worst, ratio)
            assert ratio <= 1.0, (lhs.__name__, a, u, v)
    print(f"a={a}: largest |saddle - direct| / (sum of estimates) {worst:.3f}")


@pytest.mark.parametrize("a", [1e-300, 1e300])
def test_rescaled_lhs_rejects_a_whose_scale_leaves_the_normal_floats(a):
    # s = a**1.5 underflows to 0 (the truncation halfwidth divides by it) or overflows
    with pytest.raises(ValueError, match="a="):
        rescaled_airy_lhs(a, 0.1, 0.2, 0.3, 0.4)


@pytest.mark.parametrize("a", [4.0, 8.0, 12.0])
def test_equal_time_saddle_airy_lhs_matches_scipy(a):
    # K(t, t; x, y) = exp(t (x - y)) K_Ai(x + t^2, y + t^2), with the classic
    # K_Ai(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y)
    worst = 0.0
    for tau, u, v in ((0.0, 0.9, 0.3), (0.4, -0.5, 0.6), (-0.3, 1.2, -0.4)):
        kv = rescaled_airy_lhs(a, tau, tau, u, v)
        t, x, y = tau / a, u / np.sqrt(a) - a, v / np.sqrt(a) - a
        ai_x, aip_x, _, _ = scipy_airy(x + t * t)
        ai_y, aip_y, _, _ = scipy_airy(y + t * t)
        want = np.exp(t * (x - y)) * (ai_x * aip_y - aip_x * ai_y) / (x - y) / np.sqrt(a)
        ratio = abs(kv.value.real - want) / kv.error_estimate
        worst = max(worst, ratio)
        assert ratio <= 1.0, (a, tau, u, v)
    print(f"a={a}: largest |saddle - scipy| / err {worst:.3f}")


def test_saddle_J_evaluates_each_branch_path_once_per_rule(monkeypatch):
    # the blocks gather their factors from one 1-D coordinate vector per
    # rule, whatever the number of queries and chunks; the truncation
    # half-width's fixed point probes +-X only
    from kernelwave.phase import BranchPath

    kernels.airy_branch_paths(), kernels.pearcey_branch_paths()  # built already
    shapes = []
    zeta = BranchPath.zeta

    def counted(self, x, *args, **kwargs):
        shapes.append(np.shape(x))
        return zeta(self, x, *args, **kwargs)

    monkeypatch.setattr(BranchPath, "zeta", counted)
    monkeypatch.setattr(kernels, "_SADDLE_BYTES", 1)  # one query per chunk
    u, v = np.array([0.9, -0.4, 1.3, 0.0, 0.5]), np.array([0.7, 0.2, -1.1, 0.0, 0.5])
    for kind in ("airy-to-s1", "pearcey-to-s2"):
        shapes.clear()
        vals, errs = kernels._saddle_J(kind, 6.0, 0.2, -0.3, u, v, QuadOptions())
        assert vals.shape == errs.shape == u.shape, kind
        vectors = [shape for shape in shapes if shape != (2,)]
        assert len(vectors) == 4, kind  # 2 branch paths x 2 rules
        assert all(len(shape) == 1 and shape[0] > 2 for shape in vectors), kind
        assert len(shapes) > 4, kind


def test_error_estimates_are_honest():
    # reference: the same query at doubled node count and tighter tolerance
    tight = QuadOptions(rel_tol=1e-13, abs_tol=1e-16, nodes_per_panel=64)
    queries = [
        KernelQuery("sine-ext", 0.3, -0.2, 0.8, 0.1),
        KernelQuery("s1", -0.4, 0.2, 0.3, -0.6),
        KernelQuery("s2", 0.1, -0.3, -0.2, 0.5),
        KernelQuery("airy-ext", 0.15, -0.1, 0.4, -0.25),
        KernelQuery("pearcey-ext", -0.2, 0.1, 0.5, 0.3),
    ]
    for q in queries:
        kv = eval_kernel(q)
        ref = eval_kernel(q, tight)
        true_err = abs(kv.value - ref.value)
        assert true_err <= max(5.0 * kv.error_estimate, 1e-11), q.kernel


# ---------------------------------------------------------------------------
# exact relations
# ---------------------------------------------------------------------------


def test_relation_connS_holds():
    for t1, t2, u, v in [(0.4, -0.2, 0.3, -0.5), (0.0, 0.3, -0.7, 0.2)]:
        lhs, rhs = relation_connS(t1, t2, u, v)
        assert abs(lhs.value - rhs.value) < 1e-10


def test_relation_connSS_holds():
    for t1, t2, u, v in [(0.4, -0.2, 0.3, -0.5), (-0.3, 0.1, 0.6, -0.4)]:
        lhs, rhs = relation_connSS(t1, t2, u, v)
        assert abs(lhs.value - rhs.value) < 1e-10


def test_transition_zero_matches_quartic_kernel():
    lhs, rhs = transition_interpolation_check(0.0, 0.2, -0.1, 0.3, -0.4)
    # the two sides come from independent geometries
    assert (lhs.backend_used, rhs.backend_used) == ("direct", "saddle")
    assert abs(lhs.value - rhs.value) < 1e-10


def test_transition_rejects_negative_a():
    with pytest.raises(ValueError):
        transition_interpolation_check(-1.0, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# query plumbing
# ---------------------------------------------------------------------------


def test_query_validation():
    with pytest.raises(ValueError):
        KernelQuery("unknown-kernel")
    with pytest.raises(ValueError):
        KernelQuery("transition-a")  # needs a_param
    with pytest.raises(ValueError):
        KernelQuery("s1", a_param=2.0)  # a_param is transition-only
    with pytest.raises(ValueError):
        KernelQuery("s1", backend="magic")


@pytest.mark.parametrize("backend", ["magic", "Direct", ""])
def test_rescaled_kernels_reject_unknown_backend(backend):
    for lhs in (rescaled_airy_lhs, rescaled_pearcey_lhs):
        with pytest.raises(ValueError, match="unknown backend"):
            lhs(3.0, 0.1, 0.0, 0.2, 0.1, backend)


@pytest.mark.parametrize("field", ["tau1", "tau2", "u", "v", "a_param"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_query_rejects_non_finite_inputs(field, bad):
    with pytest.raises(ValueError, match=field):
        KernelQuery("transition-a", **{"a_param": 1.0, field: bad})
    # the rescaled kernels take the same numbers, with a for a_param
    name = "a" if field == "a_param" else field
    args = {"a": 3.0, "tau1": 0.0, "tau2": 0.0, "u": 0.0, "v": 0.0, name: bad}
    for lhs in (rescaled_airy_lhs, rescaled_pearcey_lhs):
        for backend in ("saddle", "direct"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                lhs(**args, backend=backend)


def test_kernel_value_wrap_records_imag_residual():
    kv = KernelValue.wrap(1.0 + 1e-12j, 1e-14, "direct")
    assert kv.imag_residual == pytest.approx(1e-12)
    assert kv.backend_used == "direct"


def test_transition_a_runs_and_is_real():
    kv = _val("transition-a", 0.2, -0.1, 0.3, 0.1, a=1.5)
    assert kv.imag_residual < 1e-9
