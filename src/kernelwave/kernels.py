"""Kernel evaluators: extended Airy, extended Pearcey, extended sine and its
two segment variants, and the quartic-to-cubic transition kernel, plus the
rescaled left-hand sides whose large-parameter behavior the package studies.

Two evaluation geometries are implemented:

* DIRECT -- the defining ray contours, with vertices offset by ``+/-delta``
  so the ``1/(zeta-omega)`` factor never becomes singular.  Valid for all
  parameters; loses precision to cancellation once the rescaling parameter
  grows beyond roughly 20 in double precision.

* SADDLE -- crossed steepest descent/ascent paths through the phase
  saddles, parameterized analytically by branch paths (see
  :mod:`kernelwave.phase`), reducing the oscillatory double integral to
  four Gaussian blocks in real coordinates.  The four block maps of each
  transition come from one table of (branch path, reflection) specs.  The
  blocks through coincident saddles carry an integrable ``1/(zeta-omega)``
  singularity handled by a polar substitution (the polar cell shared with
  :mod:`kernelwave.quadrature`); the kernel is then (segment variant) +
  (block sum).  Stable for arbitrarily large rescaling parameters.

Keeping both backends gives an internal cross-validation oracle: they share
no geometry, yet must agree to quadrature accuracy.

The segment kernels take arrays: :func:`eval_kernels` evaluates all the
segment-kernel queries of a batch that share a kernel and options in one
batched single-integral call, and :func:`eval_kernel` of a segment kernel is
the batch of one.
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass, field

from .phase import airy_branch_paths, pearcey_branch_paths
from .quadrature import (
    Contour,
    GeometryError,
    QuadOptions,
    gl_unit,
    integrate_double,
    integrate_single,
    polar_cell,
    refine_panels,
    truncate_rays,
)

__all__ = [
    "KernelQuery",
    "KernelValue",
    "heat_term",
    "eval_kernel",
    "eval_kernels",
    "rescaled_airy_lhs",
    "rescaled_pearcey_lhs",
    "relation_connS",
    "relation_connSS",
    "transition_interpolation_check",
    "KERNEL_NAMES",
]

KERNEL_NAMES = ("airy-ext", "pearcey-ext", "sine-ext", "s1", "s2", "transition-a")

_DELTA = 0.25  # default contour vertex offset for the DIRECT geometry
_TWO_PI_I_SQ = (2j * np.pi) ** 2  # = -4*pi^2


@dataclass(frozen=True)
class KernelQuery:
    """One kernel evaluation request."""

    kernel: str
    tau1: float = 0.0
    tau2: float = 0.0
    u: float = 0.0
    v: float = 0.0
    a_param: float | None = None
    backend: str = "direct"
    opts: QuadOptions = field(default_factory=QuadOptions)

    def __post_init__(self):
        if self.kernel not in KERNEL_NAMES:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {KERNEL_NAMES}")
        if self.backend not in ("direct", "saddle"):
            raise ValueError(f"unknown backend {self.backend!r}")
        for name in ("tau1", "tau2", "u", "v", "a_param"):
            x = getattr(self, name)
            if x is not None and not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x!r}")
        if self.kernel == "transition-a":
            if self.a_param is None or self.a_param < 0:
                raise ValueError("transition-a requires a_param >= 0")
        elif self.a_param is not None:
            raise ValueError("a_param is only meaningful for transition-a")


@dataclass(frozen=True)
class KernelValue:
    """Kernel evaluation result.

    ``value`` keeps its (tiny) imaginary part rather than silently taking
    the real part: realness on real arguments is a verified property, and
    ``imag_residual`` reports it.
    """

    value: complex
    imag_residual: float
    error_estimate: float
    backend_used: str

    @classmethod
    def wrap(cls, value: complex, err: float, backend: str) -> "KernelValue":
        return cls(value=complex(value), imag_residual=abs(np.imag(value)),
                   error_estimate=float(err), backend_used=backend)


def heat_term(dt, dx, variance: str):
    """Gaussian subtraction active for positive time difference ``dt``.

    ``variance="four-pi"``: ``(4 pi dt)**-0.5 * exp(-dx**2/(4 dt))``;
    ``variance="two-pi"``:  ``(2 pi dt)**-0.5 * exp(-dx**2/(2 dt))``.
    Elementwise over arrays of ``(dt, dx)``; a float for scalars.
    """
    c = {"four-pi": 4.0, "two-pi": 2.0}.get(variance)
    if c is None:
        raise ValueError(f"unknown heat variance {variance!r}")
    dt, dx = np.asarray(dt, dtype=float), np.asarray(dx, dtype=float)
    on = dt > 0
    t = np.where(on, dt, 1.0)
    out = np.where(on, np.exp(-dx * dx / (c * t)) / np.sqrt(c * np.pi * t), 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Segment kernels (single integrals)
# ---------------------------------------------------------------------------

_SEGMENT_KERNELS = ("sine-ext", "s1", "s2")


def _segment_kernel(kind: str, dt: np.ndarray, dx: np.ndarray,
                    opts: QuadOptions) -> tuple[np.ndarray, np.ndarray]:
    """Segment kernels at arrays of time differences ``dt = tau1 - tau2``
    and space differences ``dx = u - v``: arrays ``(values, errors)``, from
    one batched :func:`integrate_single` call, real by construction.

    Each integrand is Hermitian-symmetric about its segment's midpoint, so
    the segment integral is twice the real part of the integral from the
    midpoint to the end, taken in the segment's direction.
    """
    if kind == "sine-ext":
        # The quadratic term damps for dt > 0: exp(-dt w^2 / 2).  This is
        # the sign for which the pi-rescaled s1 kernel reproduces this
        # kernel exactly (substitute w -> i w / pi in the s1 segment).
        f = lambda w, i: np.exp(-0.5 * dt[i] * w * w + 1j * dx[i] * w)
        val, err = integrate_single(f, Contour.polyline([0.0, np.pi]), opts,
                                    batch=len(dt))
        # (2 Re val) / (2 pi)
        return val.real / np.pi - heat_term(dt, dx, "two-pi"), err / np.pi
    if kind not in ("s1", "s2"):
        raise ValueError(kind)
    # s1 runs over [-i, i], s2 over [e^{-i pi/3}, e^{i pi/3}]: both upward.
    end = 1j if kind == "s1" else np.exp(1j * np.pi / 3)
    f = lambda w, i: np.exp(dt[i] * w * w + dx[i] * w)
    val, err = integrate_single(f, Contour.polyline([end.real, end]), opts,
                                batch=len(dt))
    # (i 2 Re(val / i)) / (2 pi i)
    return val.imag / np.pi - heat_term(dt, dx, "four-pi"), err / np.pi


# ---------------------------------------------------------------------------
# DIRECT geometry
# ---------------------------------------------------------------------------


def _direct_airy(tau1: float, tau2: float, u: float, v: float,
                 opts: QuadOptions, *, sigma_vertex: float = _DELTA,
                 gamma_vertex: float = -_DELTA) -> tuple[complex, float]:
    """Cubic-phase double integral on offset V contours, minus heat term."""
    if sigma_vertex <= gamma_vertex:
        raise GeometryError("zeta contour must stay right of the omega contour")

    def p_zeta(z):
        return z ** 3 / 3.0 - v * z - tau2 * z * z

    def p_omega(w):
        return -(w ** 3) / 3.0 + u * w + tau1 * w * w

    env_z = lambda z: np.real(p_zeta(z))
    env_w = lambda w: np.real(p_omega(w))
    sig = Contour.vee(sigma_vertex, np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3))
    gam = Contour.vee(gamma_vertex, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3))
    sig = refine_panels(truncate_rays(sig, env_z, opts.ray_truncation_budget), env_z)
    gam = refine_panels(truncate_rays(gam, env_w, opts.ray_truncation_budget), env_w)

    def F(z, w):
        return np.exp(p_zeta(z)) * np.exp(p_omega(w)) / (z - w)

    val, err = integrate_double(F, sig, gam, opts)
    heat = heat_term(tau1 - tau2, u - v, "four-pi")
    return val / _TWO_PI_I_SQ - heat, err / (4.0 * np.pi ** 2)


def _direct_quartic(tau1: float, tau2: float, u: float, v: float,
                    a_cubic: float, opts: QuadOptions) -> tuple[complex, float]:
    """Quartic-phase double integral: the X-contour family.

    ``a_cubic = 0`` gives the plain quartic kernel; ``a_cubic = a > 0``
    gives the transition kernel, whose omega exponent gains ``-a w**3/3``
    (and zeta gains ``+a z**3/3``).  The right V of the X is placed at the
    cubic term's critical point ``max(2 delta, a)``, which keeps the
    envelope monotone decaying along its rays.
    """

    def p_zeta(z):
        return -(z ** 4) / 4.0 + a_cubic * z ** 3 / 3.0 - 0.5 * tau2 * z * z - v * z

    def p_omega(w):
        return (w ** 4) / 4.0 - a_cubic * w ** 3 / 3.0 + 0.5 * tau1 * w * w + u * w

    env_z = lambda z: np.real(p_zeta(z))
    env_w = lambda w: np.real(p_omega(w))

    delta = _DELTA
    zline = Contour.vee(delta, -1j, 1j)  # vertical line through +delta, upward
    right_vertex = max(2.0 * delta, a_cubic)
    right_v = Contour.vee(right_vertex, np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4))
    left_v = Contour.vee(-delta, np.exp(-3j * np.pi / 4), np.exp(3j * np.pi / 4))

    zline = refine_panels(truncate_rays(zline, env_z, opts.ray_truncation_budget), env_z)
    right_v = refine_panels(truncate_rays(right_v, env_w, opts.ray_truncation_budget), env_w)
    left_v = refine_panels(truncate_rays(left_v, env_w, opts.ray_truncation_budget), env_w)

    def F(z, w):
        return np.exp(p_zeta(z)) * np.exp(p_omega(w)) / (z - w)

    v1, e1 = integrate_double(F, zline, right_v, opts)
    v2, e2 = integrate_double(F, zline, left_v, opts)
    heat = heat_term(tau1 - tau2, u - v, "two-pi")
    return (v1 + v2) / _TWO_PI_I_SQ - heat, (e1 + e2) / (4.0 * np.pi ** 2)


# ---------------------------------------------------------------------------
# SADDLE geometry: Gaussian block integrals over branch-path coordinates
# ---------------------------------------------------------------------------


def _graded_boundaries(X: float, s: float, *, first: float = 0.7,
                       growth: float = 1.6) -> np.ndarray:
    """One-sided panel boundaries ``0 = b0 < ... <= X`` graded for the
    Gaussian weight ``exp(-s x**2)``: first panel of width ``first/sqrt(s)``
    growing geometrically outward."""
    h = first / np.sqrt(s)
    bs = [0.0]
    while bs[-1] < X:
        bs.append(min(X, bs[-1] + h))
        h *= growth
    return np.asarray(bs)


def _grid_from_boundaries(bounds: np.ndarray, n: int):
    """Concatenated GL nodes/weights on each panel [b_k, b_{k+1}]."""
    xu, wu = gl_unit(n)
    a = bounds[:-1]
    h = np.diff(bounds)
    nodes = (a[:, None] + h[:, None] * xu[None, :]).ravel()
    weights = (h[:, None] * wu[None, :]).ravel()
    return nodes, weights


def _symmetric_grid(X: float, s: float, n: int):
    b = _graded_boundaries(X, s)
    bounds = np.concatenate([-b[::-1], b[1:]])
    return _grid_from_boundaries(bounds, n)


def _tensor_block(amp, s: float, X: float, n: int) -> complex:
    """``integral over [-X,X]^2 of amp(x,y) * exp(-s(x^2+y^2))`` for a
    smooth (nonsingular) amplitude."""
    xs, wx = _symmetric_grid(X, s, n)
    vals = np.asarray(amp(xs[:, None], xs[None, :]))
    gx = wx * np.exp(-s * xs * xs)
    return complex(np.einsum("i,j,ij->", gx, gx, vals))


def _polar_block(amp, s: float, X: float, n: int) -> complex:
    """Same integral when ``amp`` has an integrable ``1/(x - c y)``-type
    singularity at the origin: one polar cell over the square, with its
    radial panels graded for the Gaussian weight."""
    radial = _grid_from_boundaries(_graded_boundaries(1.0, s * X * X), n)
    return polar_cell(lambda x, y: amp(x, y) * np.exp(-s * (x * x + y * y)),
                      X, n, radial)


def _truncation_halfwidth(s: float, budget: float, growth_bound) -> float:
    """Fixed point of ``X = sqrt((budget + G(X))/s)`` where ``G`` bounds the
    amplitude's Re-exponent growth over the square of halfwidth ``X``."""
    X = np.sqrt(budget / s)
    for _ in range(12):
        X_new = np.sqrt((budget + max(0.0, growth_bound(X))) / s)
        if abs(X_new - X) < 1e-9 * X:
            X = X_new
            break
        X = X_new
    return float(min(X, 38.0))


# Block maps per transition: the Gaussian scale is ``s = a**p``, the
# oscillation phase ``theta = c * s`` enters the (+,-) block as
# ``exp(i * sign * theta)`` and the (-,+) block conjugated, and the four maps
# zeta+, zeta-, omega+, omega- are (branch path, reflection) pairs.  A plus
# map is ``x -> P(x)``; a minus map is ``x -> R(P(-x))`` for the reflection
# ``R`` (negation or conjugation), with derivative ``-R(P'(-x))``.
_SADDLE_SPECS = {
    "airy": (1.5, 4.0 / 3.0, +1,
             (("S", None), ("T", np.negative), ("T", None), ("S", np.negative))),
    "pearcey": (4.0 / 3.0, 3.0 * np.sqrt(3.0) / 4.0, -1,
                (("S", None), ("S", np.conj), ("T", None), ("T", np.conj))),
}


def _block_map(path, reflect):
    """``x -> (zeta, zeta')`` of one block map, in one branch-path pass."""
    if reflect is None:
        return lambda x: path.zeta(x, with_derivative=True)

    def reflected(x):
        z, dz = path.zeta(-x, with_derivative=True)
        return reflect(z), -reflect(dz)
    return reflected


def _saddle_J(kind: str, a: float, tau1: float, tau2: float, u: float, v: float,
              opts: QuadOptions) -> tuple[complex, float]:
    """The four-block steepest-path double integral J for either transition.

    ``kind="airy"``: Gaussian scale ``s = a**1.5``, oscillation phase
    ``4/3 a**1.5``; ``kind="pearcey"``: ``s = a**(4/3)``, phase
    ``3 sqrt(3)/4 a**(4/3)`` with opposite sign pairing (see
    ``_SADDLE_SPECS``).  Blocks through coincident saddles are polar cells;
    mixed-saddle blocks are plain tensor Gaussians (the paths stay a distance
    ~2 / ~sqrt(3) apart).
    """
    if kind not in _SADDLE_SPECS:
        raise ValueError(kind)
    power, theta_per_s, sign, specs = _SADDLE_SPECS[kind]
    paths = airy_branch_paths() if kind == "airy" else pearcey_branch_paths()
    s = a ** power
    phase_pm = np.exp(1j * sign * theta_per_s * s)
    zeta_p, zeta_m, omega_p, omega_m = (_block_map(paths[name], reflect)
                                        for name, reflect in specs)

    def growth(X):
        m = max(float(np.max(np.abs(p.zeta(np.array([X, -X]))))) for p in paths.values())
        return abs(v) * m + abs(tau2) * m * m + abs(u) * m + abs(tau1) * m * m

    X = _truncation_halfwidth(s, opts.ray_truncation_budget, growth)

    def block(zeta_map, omega_map):
        def amp(x, y):
            z, dz = zeta_map(x)
            w, dw = omega_map(y)
            return dz * dw * np.exp(-v * z - tau2 * z * z + u * w + tau1 * w * w) / (z - w)
        return amp

    n = max(12, opts.nodes_per_panel // 2)
    n_hi = n + n // 2 + 1
    total, err = 0.0 + 0.0j, 0.0
    for rule, zeta_map, omega_map, factor in (
            (_polar_block, zeta_p, omega_p, 1.0),
            (_polar_block, zeta_m, omega_m, 1.0),
            (_tensor_block, zeta_p, omega_m, phase_pm),
            (_tensor_block, zeta_m, omega_p, np.conj(phase_pm))):
        amp = block(zeta_map, omega_map)
        lo, hi = rule(amp, s, X, n), rule(amp, s, X, n_hi)
        total += factor * hi
        err += abs(hi - lo)
    return total / _TWO_PI_I_SQ, err / (4.0 * np.pi ** 2)


# ---------------------------------------------------------------------------
# Rescaled left-hand sides and kernel dispatch
# ---------------------------------------------------------------------------


def rescaled_airy_lhs(a: float, tau1: float, tau2: float, u: float, v: float,
                      backend: str = "saddle",
                      opts: QuadOptions | None = None) -> KernelValue:
    """``a**-0.5 * K_airy(tau/a; u/sqrt(a)-a, v/sqrt(a)-a)``.

    The SADDLE backend evaluates it as (s1 segment kernel) + (four-block
    steepest-path integral); the DIRECT backend rescales a plain
    evaluation.  The two routes share no geometry.
    """
    if a <= 0:
        raise ValueError("rescaling parameter a must be positive")
    opts = opts or QuadOptions()
    if backend == "direct":
        val, err = _direct_airy(tau1 / a, tau2 / a, u / np.sqrt(a) - a,
                                v / np.sqrt(a) - a, opts)
        sa = 1.0 / np.sqrt(a)
        return KernelValue.wrap(sa * val, sa * err, "direct")
    s1 = eval_kernel(KernelQuery("s1", tau1, tau2, u, v, opts=opts))
    j_val, j_err = _saddle_J("airy", a, tau1, tau2, u, v, opts)
    return KernelValue.wrap(s1.value.real + j_val, s1.error_estimate + j_err, "saddle")


def rescaled_pearcey_lhs(a: float, tau1: float, tau2: float, u: float, v: float,
                         backend: str = "saddle",
                         opts: QuadOptions | None = None) -> KernelValue:
    """``a**(-1/3) * K_pearcey(2 tau/a**(2/3); u/a**(1/3)+a, v/a**(1/3)+a)``.

    SADDLE: (s2 segment kernel) + (four-block steepest-path integral).
    """
    if a <= 0:
        raise ValueError("rescaling parameter a must be positive")
    opts = opts or QuadOptions()
    if backend == "direct":
        c = a ** (1.0 / 3.0)
        val, err = _direct_quartic(2.0 * tau1 / c ** 2, 2.0 * tau2 / c ** 2,
                                   u / c + a, v / c + a, 0.0, opts)
        return KernelValue.wrap(val / c, err / c, "direct")
    s2 = eval_kernel(KernelQuery("s2", tau1, tau2, u, v, opts=opts))
    j_val, j_err = _saddle_J("pearcey", a, tau1, tau2, u, v, opts)
    return KernelValue.wrap(s2.value.real + j_val, s2.error_estimate + j_err, "saddle")


def eval_kernel(q: KernelQuery) -> KernelValue:
    """Evaluate one kernel query; see :class:`KernelQuery`.

    The segment kernels (sine-ext, s1, s2) and the transition kernel are
    always evaluated directly (their integrals are not oscillatory at
    scale); airy-ext and pearcey-ext honor ``backend="saddle"`` through the
    identity embedding of the rescaled forms at ``a = 1``.  A segment kernel
    is the batch of one of :func:`eval_kernels`.
    """
    opts = q.opts
    if q.kernel in _SEGMENT_KERNELS:
        return eval_kernels([q])[0]
    if q.kernel == "airy-ext":
        if q.backend == "saddle":
            kv = rescaled_airy_lhs(1.0, q.tau1, q.tau2, q.u + 1.0, q.v + 1.0,
                                   "saddle", opts)
            return KernelValue.wrap(kv.value, kv.error_estimate, "saddle")
        val, err = _direct_airy(q.tau1, q.tau2, q.u, q.v, opts)
        return KernelValue.wrap(val, err, "direct")
    if q.kernel == "pearcey-ext":
        if q.backend == "saddle":
            kv = rescaled_pearcey_lhs(1.0, q.tau1 / 2.0, q.tau2 / 2.0,
                                      q.u - 1.0, q.v - 1.0, "saddle", opts)
            return KernelValue.wrap(kv.value, kv.error_estimate, "saddle")
        val, err = _direct_quartic(q.tau1, q.tau2, q.u, q.v, 0.0, opts)
        return KernelValue.wrap(val, err, "direct")
    # transition-a
    val, err = _direct_quartic(q.tau1, q.tau2, q.u, q.v, float(q.a_param), opts)
    return KernelValue.wrap(val, err, "direct")


def eval_kernels(queries) -> list[KernelValue]:
    """Evaluate a batch of queries; the values come back in input order.

    The segment-kernel queries are grouped by (kernel, options), and each
    group is one batched :func:`integrate_single` call, whose integrand sees
    at most ``quadrature._CHUNK`` points per call; every integral in it is
    refined and estimated on its own.  Every other query goes through
    :func:`eval_kernel` one at a time.  A query that fails raises for the
    whole batch.
    """
    queries = list(queries)
    out: list = [None] * len(queries)
    groups: dict = {}
    for k, q in enumerate(queries):
        if q.kernel in _SEGMENT_KERNELS:
            groups.setdefault((q.kernel, q.opts), []).append(k)
        else:
            out[k] = eval_kernel(q)
    for (kind, opts), ks in groups.items():
        dt = np.array([queries[k].tau1 - queries[k].tau2 for k in ks])
        dx = np.array([queries[k].u - queries[k].v for k in ks])
        vals, errs = _segment_kernel(kind, dt, dx, opts)
        # Real by construction: no imaginary residual to report.
        for k, val, err in zip(ks, vals.tolist(), errs.tolist()):
            out[k] = KernelValue(complex(val), 0.0, err, "direct")
    return out


# ---------------------------------------------------------------------------
# Kernel relations
# ---------------------------------------------------------------------------


def relation_connS(tau1: float, tau2: float, u: float, v: float,
                   opts: QuadOptions | None = None) -> tuple[KernelValue, KernelValue]:
    """Both sides of the s1 <-> extended-sine rescaling identity:
    ``pi * K_s1(pi^2 tau/2; pi u, pi v)`` versus ``K_sine(tau; u, v)``."""
    opts = opts or QuadOptions()
    s1 = eval_kernel(KernelQuery(
        "s1", np.pi ** 2 * tau1 / 2.0, np.pi ** 2 * tau2 / 2.0,
        np.pi * u, np.pi * v, opts=opts))
    lhs = KernelValue.wrap(np.pi * s1.value.real, np.pi * s1.error_estimate, "direct")
    return lhs, eval_kernel(KernelQuery("sine-ext", tau1, tau2, u, v, opts=opts))


def relation_connSS(tau1: float, tau2: float, u: float, v: float,
                    opts: QuadOptions | None = None) -> tuple[KernelValue, KernelValue]:
    """Both sides of the s2 <-> s1 gauge/rescaling identity."""
    opts = opts or QuadOptions()
    gauge = (2.0 / np.sqrt(3.0)) * np.exp((tau1 - tau2) / 3.0 - (u - v) / np.sqrt(3.0))
    s2 = eval_kernel(KernelQuery(
        "s2", 4.0 * tau1 / 3.0, 4.0 * tau2 / 3.0,
        2.0 * u / np.sqrt(3.0) - 4.0 * tau1 / 3.0,
        2.0 * v / np.sqrt(3.0) - 4.0 * tau2 / 3.0, opts=opts))
    lhs = KernelValue.wrap(gauge * s2.value.real, gauge * s2.error_estimate, "direct")
    return lhs, eval_kernel(KernelQuery("s1", tau1, tau2, u, v, opts=opts))


def transition_interpolation_check(a: float, tau1: float, tau2: float,
                                   u: float, v: float,
                                   opts: QuadOptions | None = None
                                   ) -> tuple[KernelValue, KernelValue]:
    """Rescaled transition kernel against its cubic-phase limit.

    For ``a > 0`` returns ``(a**(1/3) * K_a(2 a**(2/3) tau; a**(1/3) u,
    a**(1/3) v), K_airy(tau; u, v))`` -- the pair converges as ``a`` grows.
    For ``a = 0`` the prefactor and argument rescalings degenerate, so the
    unrescaled pair ``(K_0(tau; u, v), K_pearcey(tau; u, v))`` is returned
    instead; these must agree identically.  The quartic side comes from the
    saddle backend, so the pair compares two independent geometries.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    opts = opts or QuadOptions()
    if a == 0:
        val0, err0 = _direct_quartic(tau1, tau2, u, v, 0.0, opts)
        lhs = KernelValue.wrap(val0, err0, "direct")
        return lhs, eval_kernel(KernelQuery("pearcey-ext", tau1, tau2, u, v,
                                            backend="saddle", opts=opts))
    c = a ** (1.0 / 3.0)
    val, err = _direct_quartic(2.0 * c ** 2 * tau1, 2.0 * c ** 2 * tau2,
                               c * u, c * v, a, opts)
    lhs = KernelValue.wrap(c * val, c * err, "direct")
    va, ea = _direct_airy(tau1, tau2, u, v, opts)
    return lhs, KernelValue.wrap(va, ea, "direct")
