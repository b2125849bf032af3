"""Kernel evaluators: extended Airy, extended Pearcey, extended sine and its
two segment variants, and the quartic-to-cubic transition kernel, plus the
rescaled left-hand sides whose large-parameter behavior the package studies.

Two evaluation geometries are implemented:

* DIRECT -- the defining ray contours, with vertices offset by ``+/-delta``
  so the ``1/(zeta-omega)`` factor never becomes singular.  Loses precision
  to cancellation once the rescaling parameter grows beyond roughly 20 in
  double precision, and fails in parts of the plain parameter space too:
  ``airy-ext`` raises :class:`GeometryError` from ``tau1 = tau2 = -18`` on,
  where its exponentials overflow, and deep in the oscillatory regime
  (``u = -20, v = -19.7``) returns a value whose error estimate exceeds it.

* SADDLE -- crossed steepest descent/ascent paths through the phase
  saddles, parameterized analytically by branch paths (see
  :mod:`kernelwave.phase`), reducing the oscillatory double integral to
  four Gaussian blocks in real coordinates.  The four block maps of each
  transition come from one table of (branch path, reflection) specs.  The
  blocks through coincident saddles carry an integrable ``1/(zeta-omega)``
  singularity handled by a polar substitution, whose octants are Duffy
  triangles (:func:`~kernelwave.quadrature.polar_rule`); the other two are
  tensor Gauss rules.  Every coordinate the four blocks need lies in one
  1-D vector, so per rule each branch path is evaluated once, each map
  gives one factor per coordinate, and each block is a sum of those
  factors over the Cauchy kernel ``1/(zeta-omega)``, gathered by index.
  The kernel is then (segment variant) + (block sum).  Stable for
  arbitrarily large rescaling parameters.

Keeping both backends gives an internal cross-validation oracle: they share
no geometry, yet must agree to quadrature accuracy.

The segment and direct evaluators take arrays.  :func:`eval_kernels`
evaluates all the segment-kernel queries of a batch that share a kernel and
options in one batched single-integral call.  It evaluates the direct
airy-ext, pearcey-ext and transition-a queries that share a kernel, both
times, the transition parameter and options, up to ``_GROUP`` at a time,
as one Cauchy-matrix bilinear form
(:func:`~kernelwave.quadrature.integrate_cauchy`): their contours are
truncated and refined on the group's upper envelope, and one GEMM gives all
their values.  A saddle airy-ext or pearcey-ext query is the rescaled
kernel of its transition at ``a = 1``.  :func:`eval_kernel` is the batch of
one, for every backend.
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass, field

from .phase import TRANSITION_TABLE, airy_branch_paths, pearcey_branch_paths
from .quadrature import (
    Contour,
    GeometryError,
    QuadOptions,
    gl_unit,
    integrate_cauchy,
    integrate_double,  # noqa: F401  (perfbench/spans.py traces this name)
    integrate_single,
    polar_images,
    polar_rule,
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


def _batch(u, v):
    """``(u, v)`` as arrays, and whether they came as scalars."""
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u, v = np.broadcast_arrays(np.atleast_1d(np.asarray(u, dtype=float)),
                               np.atleast_1d(np.asarray(v, dtype=float)))
    return u, v, scalar


def _contour(contour: Contour, p, opts: QuadOptions) -> Contour:
    """``contour`` truncated and refined on the upper envelope of a batch of
    exponents, ``max_j Re p(z)_j``."""
    env = lambda z: np.real(p(np.asarray(z)[..., None])).max(axis=-1)
    return refine_panels(truncate_rays(contour, env, opts.ray_truncation_budget), env)


def _direct_airy(tau1: float, tau2: float, u, v, opts: QuadOptions, *,
                 sigma_vertex: float = _DELTA, gamma_vertex: float = -_DELTA):
    """Cubic-phase double integral on offset V contours, minus heat term.

    ``u`` and ``v`` may be arrays: the batch shares the contours, truncated
    and refined on its upper envelope, and one :func:`integrate_cauchy`
    call.  Returns arrays ``(values, errors)``, or scalars for scalar
    ``u`` and ``v``.
    """
    if sigma_vertex <= gamma_vertex:
        raise GeometryError("zeta contour must stay right of the omega contour")
    u, v, scalar = _batch(u, v)

    def p_zeta(z):
        return z ** 3 / 3.0 - v * z - tau2 * z * z

    def p_omega(w):
        return -(w ** 3) / 3.0 + u * w + tau1 * w * w

    sig = Contour.vee(sigma_vertex, np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3))
    gam = Contour.vee(gamma_vertex, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3))
    val, err = integrate_cauchy(p_zeta, p_omega, _contour(sig, p_zeta, opts),
                                _contour(gam, p_omega, opts), opts)
    val = val / _TWO_PI_I_SQ - heat_term(tau1 - tau2, u - v, "four-pi")
    err = err / (4.0 * np.pi ** 2)
    return (complex(val[0]), float(err[0])) if scalar else (val, err)


def _direct_quartic(tau1: float, tau2: float, u, v, a_cubic: float,
                    opts: QuadOptions):
    """Quartic-phase double integral: the X-contour family.

    ``a_cubic = 0`` gives the plain quartic kernel; ``a_cubic = a > 0``
    gives the transition kernel, whose omega exponent gains ``-a w**3/3``
    (and zeta gains ``+a z**3/3``).  The right V of the X is placed at the
    cubic term's critical point ``max(2 delta, a)``, which keeps the
    envelope monotone decaying along its rays.  The two V's form one omega
    node set.  Batches of ``(u, v)`` as in :func:`_direct_airy`.
    """
    u, v, scalar = _batch(u, v)

    def p_zeta(z):
        return -(z ** 4) / 4.0 + a_cubic * z ** 3 / 3.0 - 0.5 * tau2 * z * z - v * z

    def p_omega(w):
        return (w ** 4) / 4.0 - a_cubic * w ** 3 / 3.0 + 0.5 * tau1 * w * w + u * w

    delta = _DELTA
    zline = Contour.vee(delta, -1j, 1j)  # vertical line through +delta, upward
    right_vertex = max(2.0 * delta, a_cubic)
    right_v = Contour.vee(right_vertex, np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4))
    left_v = Contour.vee(-delta, np.exp(-3j * np.pi / 4), np.exp(3j * np.pi / 4))
    val, err = integrate_cauchy(
        p_zeta, p_omega, _contour(zline, p_zeta, opts),
        (_contour(right_v, p_omega, opts), _contour(left_v, p_omega, opts)), opts)
    val = val / _TWO_PI_I_SQ - heat_term(tau1 - tau2, u - v, "two-pi")
    err = err / (4.0 * np.pi ** 2)
    return (complex(val[0]), float(err[0])) if scalar else (val, err)


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


# Block maps per transition (see :data:`~kernelwave.phase.TRANSITION_TABLE`
# for its Gaussian scale and oscillation phase): the phase enters the (+,-)
# block and, conjugated, the (-,+) block, and the four maps zeta+, zeta-,
# omega+, omega- are (branch path, reflection) pairs.  A plus map is
# ``x -> P(x)``; a minus map is ``x -> R(P(-x))`` for the reflection ``R``
# (negation or conjugation), with derivative ``-R(P'(-x))``.
_SADDLE_SPECS = {
    "airy-to-s1": (("S", None), ("T", np.negative), ("T", None), ("S", np.negative)),
    "pearcey-to-s2": (("S", None), ("S", np.conj), ("T", None), ("T", np.conj)),
}


def _saddle_blocks(paths, specs, s: float, X: float, n: int, tau1: float,
                   tau2: float, u: float, v: float) -> np.ndarray:
    """The blocks (+,+), (-,-), (+,-) and (-,+) of J on the ``n``-node rule.

    Every coordinate the blocks need is in one vector ``A``: the tensor
    grid ``xs`` on ``[-X, X]``, and the polar rule's ``p`` and ``q`` (the
    polar blocks are the eight images of that octant).  Each branch path is
    evaluated once on ``c = [A, -A]``; a minus map ``x -> R(P(-x))`` at
    ``c`` is the reflected plus map at the swapped half.  Each map gives
    one factor per coordinate: ``dz exp(-v z - tau2 z**2 - s c**2)`` for a
    zeta map and ``dw exp(u w + tau1 w**2 - s c**2)`` for an omega map.
    """
    xs, wx = _symmetric_grid(X, s, n)
    radial = _grid_from_boundaries(_graded_boundaries(1.0, s * X * X), n)
    p, q, W = polar_rule(X, n, radial)
    A = np.concatenate([xs, p, q.ravel()])
    c = np.concatenate([A, -A])
    at = {name: paths[name].zeta(c, with_derivative=True) for name in ("S", "T")}
    maps = []
    for (name, reflect), (lin, quad) in zip(specs, ((-v, -tau2), (-v, -tau2),
                                                    (u, tau1), (u, tau1))):
        z, dz = at[name]
        if reflect is not None:
            z, dz = reflect(np.roll(z, A.size)), -reflect(np.roll(dz, A.size))
        maps.append((z, dz * np.exp(lin * z + quad * z * z - s * c * c)))
    (zp, fp), (zm, fm), (wp, gp), (wm, gm) = maps

    nx = xs.size
    iq = nx + p.size + np.arange(q.size).reshape(q.shape)
    ix, iy = polar_images(nx + np.arange(p.size), iq, lambda i: i + A.size)

    def polar(z, f, w, g):
        return np.sum(W * f[ix] * g[iy] / (z[ix] - w[iy]))

    def tensor(z, f, w, g):
        # (wx f)^T C (wx g) with the Cauchy matrix C; einsum keeps this small
        # product out of BLAS, whose threads cost more to wake than it takes.
        return np.einsum("i,ij,j->", wx * f[:nx], 1.0 / (z[:nx, None] - w[:nx]),
                         wx * g[:nx])

    return np.array([polar(zp, fp, wp, gp), polar(zm, fm, wm, gm),
                     tensor(zp, fp, wm, gm), tensor(zm, fm, wp, gp)])


def _saddle_J(transition: str, a: float, tau1: float, tau2: float, u: float,
              v: float, opts: QuadOptions) -> tuple[complex, float]:
    """The four-block steepest-path double integral J of either transition.

    The Gaussian scale is ``s = a**beta`` and the mixed blocks carry the
    transition's oscillation phase (see ``_SADDLE_SPECS``).  Blocks through
    coincident saddles are polar cells; mixed-saddle blocks are plain tensor
    Gaussians (the paths stay a distance ~2 / ~sqrt(3) apart).  Each block
    is taken on two rules (see :func:`_saddle_blocks`), and the estimate
    sums their differences.
    """
    t, specs = TRANSITION_TABLE[transition], _SADDLE_SPECS[transition]
    # Called by name from this module's globals: perfbench/spans.py wraps them.
    paths = airy_branch_paths() if transition == "airy-to-s1" else pearcey_branch_paths()
    s = a ** t.beta
    phase_pm = t.oscillation(a)

    def growth(X):
        m = max(float(np.max(np.abs(p.zeta(np.array([X, -X]))))) for p in paths.values())
        return abs(v) * m + abs(tau2) * m * m + abs(u) * m + abs(tau1) * m * m

    X = _truncation_halfwidth(s, opts.ray_truncation_budget, growth)
    n = max(12, opts.nodes_per_panel // 2)
    lo, hi = (_saddle_blocks(paths, specs, s, X, m, tau1, tau2, u, v)
              for m in (n, n + n // 2 + 1))
    factors = np.array([1.0, 1.0, phase_pm, np.conj(phase_pm)])
    total, err = complex(factors @ hi), float(np.sum(np.abs(hi - lo)))
    return total / _TWO_PI_I_SQ, err / (4.0 * np.pi ** 2)


# ---------------------------------------------------------------------------
# Rescaled left-hand sides and kernel dispatch
# ---------------------------------------------------------------------------


def _rescaled_lhs(transition: str, a: float, tau1: float, tau2: float, u: float,
                  v: float, backend: str, opts: QuadOptions | None) -> KernelValue:
    """The rescaled kernel of ``transition`` at parameter ``a``.

    The SADDLE backend evaluates it as (segment kernel) + (four-block
    steepest-path integral); the DIRECT backend rescales a plain
    evaluation.  The two routes share no geometry.
    """
    for name, x in (("a", a), ("tau1", tau1), ("tau2", tau2), ("u", u), ("v", v)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    if a <= 0:
        raise ValueError("rescaling parameter a must be positive")
    opts = opts or QuadOptions()
    if backend == "direct":
        if transition == "airy-to-s1":
            val, err = _direct_airy(tau1 / a, tau2 / a, u / np.sqrt(a) - a,
                                    v / np.sqrt(a) - a, opts)
            sa = 1.0 / np.sqrt(a)
            return KernelValue.wrap(sa * val, sa * err, "direct")
        c = a ** (1.0 / 3.0)
        val, err = _direct_quartic(2.0 * tau1 / c ** 2, 2.0 * tau2 / c ** 2,
                                   u / c + a, v / c + a, 0.0, opts)
        return KernelValue.wrap(val / c, err / c, "direct")
    seg, seg_err = _segment_kernel(TRANSITION_TABLE[transition].kernel,
                                   np.array([tau1 - tau2]), np.array([u - v]), opts)
    j_val, j_err = _saddle_J(transition, a, tau1, tau2, u, v, opts)
    return KernelValue.wrap(seg.tolist()[0] + j_val, seg_err.tolist()[0] + j_err, "saddle")


def rescaled_airy_lhs(a: float, tau1: float, tau2: float, u: float, v: float,
                      backend: str = "saddle",
                      opts: QuadOptions | None = None) -> KernelValue:
    """``a**-0.5 * K_airy(tau/a; u/sqrt(a)-a, v/sqrt(a)-a)``, around s1."""
    return _rescaled_lhs("airy-to-s1", a, tau1, tau2, u, v, backend, opts)


def rescaled_pearcey_lhs(a: float, tau1: float, tau2: float, u: float, v: float,
                         backend: str = "saddle",
                         opts: QuadOptions | None = None) -> KernelValue:
    """``a**(-1/3) * K_pearcey(2 tau/a**(2/3); u/a**(1/3)+a, v/a**(1/3)+a)``,
    around s2."""
    return _rescaled_lhs("pearcey-to-s2", a, tau1, tau2, u, v, backend, opts)


def eval_kernel(q: KernelQuery) -> KernelValue:
    """Evaluate one kernel query, as the batch of one of :func:`eval_kernels`."""
    return eval_kernels([q])[0]


# The a = 1 embedding of the saddle kernels in the rescaled kernels:
# K_airy(tau; u, v) is the Airy transition's rescaled kernel at
# (tau, u + 1, v + 1), and K_pearcey(tau; u, v) the quartic one's at
# (tau / 2, u - 1, v - 1).
_EMBEDDING = {
    "airy-ext": ("airy-to-s1", lambda t1, t2, u, v: (t1, t2, u + 1.0, v + 1.0)),
    "pearcey-ext": ("pearcey-to-s2",
                    lambda t1, t2, u, v: (t1 / 2.0, t2 / 2.0, u - 1.0, v - 1.0)),
}


# Direct double-integral queries per integrate_cauchy call: bounds the
# exponent matrices of one group, about 16 bytes per query and node.
_GROUP = 256


def eval_kernels(queries) -> list[KernelValue]:
    """Evaluate a batch of queries; the values come back in input order.

    The segment-kernel queries are grouped by (kernel, options), and each
    group is one batched :func:`integrate_single` call, whose integrand sees
    at most ``quadrature._CHUNK`` points per call; every integral in it is
    refined and estimated on its own.  The direct double-integral queries
    (airy-ext, pearcey-ext, transition-a) are grouped by (kernel, tau1,
    tau2, a_param, options), and each group of up to ``_GROUP`` queries
    shares its contours and one :func:`integrate_cauchy` call.  A saddle
    airy-ext or pearcey-ext query is the rescaled kernel of its transition
    at ``a = 1``, one at a time.  A query that fails raises for the whole
    batch.  :func:`eval_kernel` is the batch of one, for every backend.
    """
    queries = list(queries)
    out: list = [None] * len(queries)
    segments: dict = {}
    directs: dict = {}
    for k, q in enumerate(queries):
        if q.kernel in _SEGMENT_KERNELS:
            segments.setdefault((q.kernel, q.opts), []).append(k)
        elif q.backend == "direct" or q.kernel == "transition-a":
            directs.setdefault((q.kernel, q.tau1, q.tau2, q.a_param, q.opts),
                               []).append(k)
        else:
            transition, embed = _EMBEDDING[q.kernel]
            out[k] = _rescaled_lhs(transition, 1.0, *embed(q.tau1, q.tau2, q.u, q.v),
                                   "saddle", q.opts)
    for (kind, opts), ks in segments.items():
        dt = np.array([queries[k].tau1 - queries[k].tau2 for k in ks])
        dx = np.array([queries[k].u - queries[k].v for k in ks])
        vals, errs = _segment_kernel(kind, dt, dx, opts)
        # Real by construction: no imaginary residual to report.
        for k, val, err in zip(ks, vals.tolist(), errs.tolist()):
            out[k] = KernelValue(complex(val), 0.0, err, "direct")
    for (kind, tau1, tau2, a_param, opts), group in directs.items():
        for j in range(0, len(group), _GROUP):
            ks = group[j:j + _GROUP]
            u = np.array([queries[k].u for k in ks])
            v = np.array([queries[k].v for k in ks])
            if kind == "airy-ext":
                vals, errs = _direct_airy(tau1, tau2, u, v, opts)
            else:
                a_cubic = 0.0 if kind == "pearcey-ext" else float(a_param)
                vals, errs = _direct_quartic(tau1, tau2, u, v, a_cubic, opts)
            for k, val, err in zip(ks, vals.tolist(), errs.tolist()):
                out[k] = KernelValue.wrap(val, err, "direct")
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
