"""Kernel evaluators: extended Airy, extended Pearcey, extended sine and its
two segment variants, and the quartic-to-cubic transition kernel, plus the
rescaled left-hand sides whose large-parameter behavior the package studies.

Two evaluation geometries are implemented:

* DIRECT -- the defining ray contours, with vertices offset by ``+/-delta``
  so the ``1/(zeta-omega)`` factor never becomes singular.  Each contour is
  its own mirror image under conjugation, so only the upper half of the
  zeta contour is integrated and the value is twice its real part
  (:func:`_fold`): direct values are real by construction.  One evaluator,
  :func:`_direct`, builds all three direct kernels, which differ only in
  their exponents, contours and heat term.  Loses precision to
  cancellation once the rescaling parameter grows beyond roughly 20 in
  double precision, and fails in parts of the plain parameter space too:
  ``airy-ext`` raises :class:`GeometryError` from ``tau1 = tau2 = -18`` on,
  where its exponentials overflow, and deep in the oscillatory regime
  (``u = -20, v = -19.7``) returns a value whose error estimate exceeds it.

* SADDLE -- crossed steepest descent/ascent paths through the phase
  saddles, parameterized analytically by branch paths (see
  :mod:`kernelwave.phase`), reducing the oscillatory double integral to
  four Gaussian blocks in real coordinates.  The four block maps of each
  transition come from one table of (branch path, reflection) specs.  All
  four blocks are sums on one polar rule over the square, whose octants are
  Duffy triangles (:func:`~kernelwave.quadrature.polar_rule`): it removes
  the integrable ``1/(zeta-omega)`` singularity of the two blocks through
  coincident saddles, and its radial panels follow the Gaussian weight of
  all four.  Every coordinate the blocks need lies in one 1-D vector, so
  per rule each branch path is evaluated once, each map gives one factor
  per coordinate, and each block is a sum of those factors over the
  Cauchy kernel ``1/(zeta-omega)``, gathered by index.
  The kernel is then (segment variant) + (block sum).  Stable for
  arbitrarily large rescaling parameters.

Keeping both backends gives an internal cross-validation oracle: they share
no geometry, yet must agree to quadrature accuracy.

The extended sine kernel needs neither: it is a Gaussian integral over
``[0, pi]``, evaluated in closed form through the Faddeeva function
(:func:`_sine_ext`).  Its two relatives ``s1`` and ``s2`` are integrated
along their segments (:func:`_segment_kernel`).

Every evaluator takes arrays.  :func:`eval_columns` is the one core: it
checks a batch given as columns (:func:`check_columns`, the rules
:class:`KernelQuery` also applies) and makes one evaluator call per group:
segment queries per kernel; direct queries per (kernel, times, transition
parameter) as one Cauchy-matrix bilinear form
(:func:`~kernelwave.quadrature.integrate_cauchy`); saddle queries per
(kernel, times) on one shared rule, with one branch-path evaluation per
rule.  :func:`eval_kernels` turns a list of queries into those columns, and
:func:`eval_kernel` is the batch of one.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from dataclasses import dataclass

from .phase import TRANSITION_TABLE, airy_branch_paths, pearcey_branch_paths
from .quadrature import (
    Contour,
    GeometryError,
    QuadOptions,
    Ray,
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
    "eval_columns",
    "check_columns",
    "QueryError",
    "rescaled_airy_lhs",
    "rescaled_pearcey_lhs",
    "relation_connS",
    "relation_connSS",
    "transition_interpolation_check",
    "KERNEL_NAMES",
    "BACKENDS",
]

KERNEL_NAMES = ("airy-ext", "pearcey-ext", "sine-ext", "s1", "s2", "transition-a")
BACKENDS = ("direct", "saddle")
_TRANSITION = KERNEL_NAMES.index("transition-a")

_DELTA = 0.25  # contour vertex offset of the DIRECT geometry
# Drop of the exponent's real part below its peak at which a direct contour's
# rays are clipped and the saddle rule's square ends (exp(-60) ~ 1e-26).
_TRUNCATION_BUDGET = 60.0
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

    def __post_init__(self):
        a = self.a_param
        check_columns([self.kernel], [self.tau1], [self.tau2], [self.u], [self.v],
                      [np.nan if a is None else a], [self.backend], [a is not None])


class QueryError(ValueError):
    """A query that breaks one of :func:`check_columns`' rules; ``row`` is
    its index in the batch."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def _codes(values, names) -> np.ndarray:
    """Index of each value in ``names``; -1 for a value that is none of them."""
    index = {name: k for k, name in enumerate(names)}
    try:
        return np.fromiter(map(index.get, values, itertools.repeat(-1)), np.intp, len(values))
    except TypeError:  # an unhashable value, which names nothing
        return np.array([index.get(x, -1) if isinstance(x, str) else -1 for x in values],
                        dtype=np.intp)


def check_columns(kernel, tau1, tau2, u, v, a, backend, a_given):
    """The rules every query obeys, over a batch given as columns.

    A row names a known kernel and backend; its times and coordinates are
    finite; ``a`` (``a_param``) is given for ``transition-a`` rows only,
    finite and nonnegative.  ``a_given`` says which rows give ``a``.
    Raises :class:`QueryError` for the first row that breaks a rule, naming
    the first rule it breaks in that order.  Returns the rows' kernel and
    backend indices in ``KERNEL_NAMES`` and ``BACKENDS``.
    """
    kcode, bcode = _codes(kernel, KERNEL_NAMES), _codes(backend, BACKENDS)
    a, a_given = np.asarray(a, dtype=float), np.asarray(a_given, dtype=bool)
    transition = kcode == _TRANSITION
    finite = [(~np.isfinite(np.asarray(x, dtype=float)), name, x)
              for name, x in (("tau1", tau1), ("tau2", tau2), ("u", u), ("v", v))]
    rules = [
        (kcode < 0, lambda r: f"unknown kernel {kernel[r]!r}; expected one of {KERNEL_NAMES}"),
        (bcode < 0, lambda r: f"unknown backend {backend[r]!r}; expected one of {BACKENDS}"),
        *((bad, lambda r, name=name, x=x: f"{name} must be finite, got {float(x[r])!r}")
          for bad, name, x in finite),
        (a_given & ~np.isfinite(a), lambda r: f"a_param must be finite, got {float(a[r])!r}"),
        (transition & ~(a_given & (a >= 0)), lambda r: "transition-a requires a_param >= 0"),
        (~transition & a_given, lambda r: "a_param is only meaningful for transition-a"),
    ]
    firsts = [int(np.argmax(bad)) if bad.any() else len(kcode) for bad, _ in rules]
    row = min(firsts)
    if row < len(kcode):
        raise QueryError(rules[firsts.index(row)][1](row), row)
    return kcode, bcode


@dataclass(frozen=True)
class KernelValue:
    """Kernel evaluation result.

    A saddle ``value`` keeps its (tiny) imaginary part rather than silently
    taking the real part: realness on real arguments is a verified property,
    and ``imag_residual`` reports it.  Direct and segment values are real by
    construction, from a symmetry of their integrands, so their
    ``imag_residual`` is 0.
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
# Segment kernels: the extended sine kernel in closed form, s1 and s2 by
# quadrature
# ---------------------------------------------------------------------------

_SEGMENT_KERNELS = ("sine-ext", "s1", "s2")
_EPS = float(np.finfo(float).eps)
_LOG_MAX = float(np.log(np.finfo(float).max))
# Relative error bound of _faddeeva as computed, against the exact w: the
# largest seen over the closed upper half-plane is 1.3e-15 (tests check the
# bound against scipy's wofz and mpmath).
_W_REL = 4e-15


@functools.cache
def _weideman(n: int = 40) -> tuple[float, np.ndarray]:
    """Scale ``L`` and polynomial coefficients (highest degree first) of
    Weideman's ``n``-term rational approximation of the Faddeeva function
    (SIAM J. Numer. Anal. 31 (1994) 1497-1518): the FFT of
    ``exp(-t**2) (L**2 + t**2)`` sampled at ``t = L tan(theta / 2)``."""
    m = 2 * n
    L = math.sqrt(n / math.sqrt(2.0))
    t = L * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return L, a[n:0:-1]


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """``w(z) = exp(-z**2) erfc(-i z)`` for ``Im z >= 0``, to relative error
    ``_W_REL``.  Dividing by ``L - i z`` twice, rather than by its square,
    keeps ``|z|`` up to the largest double from overflowing."""
    L, coef = _weideman()
    d = L - 1j * z
    return 2.0 * np.polyval(coef, (L + 1j * z) / d) / d / d + 1.0 / (math.sqrt(math.pi) * d)


def _sine_ext(dt: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The extended sine kernel ``(1/pi) int_0^pi exp(-dt w^2/2) cos(dx w) dw``
    minus, for ``dt > 0``, the heat term: arrays ``(values, errors)``.

    With ``r = sqrt(|dt| / 2)``, ``e = pi^2 r^2`` and ``w`` the Faddeeva
    function:

    * ``dt = 0`` is ``sinc(dx)``.
    * ``dt > 0``: the integral over ``[0, inf)`` is the heat term, so the
      kernel is minus the tail beyond ``pi``,
      ``-Re(exp(-e + i pi dx) w(dx/(2r) + i pi r)) / (2 sqrt(pi) r)``.
    * ``dt < 0``: the integral is ``erfi`` at its two ends.  With ``-|dx|``
      for ``dx`` (the cosine is even) both ends are ``w`` in the upper
      half-plane, and the end at 0 is ``w`` on the imaginary axis, which is
      real, so only the end at ``pi`` is left:
      ``-Im(exp(e - i pi |dx|) w(-pi r + i |dx|/(2r))) / (2 sqrt(pi) r)``.

    The estimate is that end term's size times ``_W_REL``, plus 16 eps for
    the arithmetic (the condition number ``|z w'(z) / w(z)|`` is below 1.5
    in the upper half-plane, so rounded arguments cost a few eps), plus 2 eps
    times ``e``, whose rounding the exponential magnifies.  As ``dt -> 0-``
    the end term grows like ``|dt|**-1/2`` while the kernel stays within
    ``(e/3) exp(e)`` of ``sinc(dx)``; a row takes ``sinc(dx)`` with that
    bound where it is the smaller.  Raises :class:`GeometryError` where the
    integrand overflows on ``[0, pi]``.
    """
    val, err = np.sinc(dx), np.full(dt.shape, 4.0 * _EPS)
    rows = np.flatnonzero(dt)
    if not rows.size:
        return val, err
    pos = dt[rows] > 0
    r = np.sqrt(np.abs(dt[rows])) * math.sqrt(0.5)
    e = (0.5 * np.pi ** 2) * np.abs(dt[rows])  # to 1.5 eps: pi^2, then one product
    if np.any(e[~pos] > _LOG_MAX):
        raise GeometryError("non-finite integrand value on a panel")
    x = np.where(pos, dx[rows], -np.abs(dx[rows]))
    z = np.where(pos, x / (2.0 * r) + 1j * np.pi * r, -np.pi * r - 1j * x / (2.0 * r))
    t = np.exp(np.where(pos, -e, e) + 1j * np.pi * np.fmod(x, 2.0)) * _faddeeva(z)
    scale = 1.0 / (2.0 * math.sqrt(math.pi) * r)
    val[rows] = -np.where(pos, t.real, t.imag) * scale
    err[rows] = np.abs(t) * scale * (_W_REL + _EPS * (16.0 + 2.0 * e))
    bound = e / 3.0 * np.exp(np.minimum(e, 1.0)) + 4.0 * _EPS  # (e/3) exp(e) for e <= 1
    near = rows[~pos & (e <= 1.0) & (bound < err[rows])]
    val[near], err[near] = np.sinc(dx[near]), bound[np.searchsorted(rows, near)]
    return val, err


def _segment_kernel(kind: str, dt: np.ndarray, dx: np.ndarray,
                    opts: QuadOptions) -> tuple[np.ndarray, np.ndarray]:
    """Segment kernels at arrays of time differences ``dt = tau1 - tau2``
    and space differences ``dx = u - v``: arrays ``(values, errors)``, real
    by construction.

    ``sine-ext`` is :func:`_sine_ext`'s closed form.  ``s1`` and ``s2`` are
    one batched :func:`integrate_single` call each: their integrands are
    Hermitian-symmetric about the segment's midpoint, so the segment
    integral is twice the real part of the integral from the midpoint to
    the end, taken in the segment's direction.
    """
    if kind == "sine-ext":
        return _sine_ext(dt, dx)
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


def _contour(contour: Contour, p) -> Contour:
    """``contour`` truncated on the upper envelope of a batch of exponents,
    ``max_j Re p(z)_j``, and cut into panels of at most unit length."""
    env = lambda z: np.real(p(np.asarray(z)[..., None])).max(axis=-1)
    return refine_panels(truncate_rays(contour, env, _TRUNCATION_BUDGET))


def _fold(val: np.ndarray, err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whole double integral over ``(2 pi i)**2``, and its estimate, from
    the integral over the upper half of the zeta contour.

    Each direct zeta and omega contour is its own mirror image under
    conjugation with its orientation reversed, and for real times,
    coordinates and ``a`` every exponent has ``p(conj z) = conj p(z)``.  So
    the lower half of the zeta contour contributes the conjugate of the
    upper half, the whole integral is ``2 Re(val)``, and it is real by
    construction; its estimate is twice the half's.
    """
    # 2 Re(val) / (2 pi i)**2 = -Re(val) / (2 pi**2)
    return -val.real / (2.0 * np.pi ** 2), err / (2.0 * np.pi ** 2)


def _direct(kind: str, tau1: float, tau2: float, u, v, a: float, opts: QuadOptions):
    """Direct kernel ``kind`` minus its heat term, for a batch of ``(u, v)``:
    real arrays ``(values, errors)``.

    ``airy-ext`` has cubic exponents, zeta on the V through ``+delta`` and
    omega on the V through ``-delta``.  ``pearcey-ext`` (``a = 0``) and
    ``transition-a`` have quartic ones plus ``+a z**3/3`` and ``-a w**3/3``,
    zeta on the vertical line through ``+delta`` and omega on an X of two
    V's, the right one at the cubic term's critical point ``max(2 delta,
    a)``, which keeps the envelope monotone decaying along its rays.  Only
    the upper ray of zeta is integrated (see :func:`_fold`).  The batch
    shares the contours, truncated on its upper envelope (:func:`_contour`),
    and one :func:`integrate_cauchy` call.
    """
    u, v = np.atleast_1d(u, v)
    if kind == "airy-ext":
        p_zeta = lambda z: z ** 3 / 3.0 - v * z - tau2 * z * z
        p_omega = lambda w: -(w ** 3) / 3.0 + u * w + tau1 * w * w
        zeta = Ray(_DELTA, np.exp(1j * np.pi / 3))
        omegas = (Contour.vee(-_DELTA, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)),)
        variance = "four-pi"
    else:
        a_cubic = 0.0 if kind == "pearcey-ext" else a
        p_zeta = lambda z: -(z ** 4) / 4.0 + a_cubic * z ** 3 / 3.0 - 0.5 * tau2 * z * z - v * z
        p_omega = lambda w: (w ** 4) / 4.0 - a_cubic * w ** 3 / 3.0 + 0.5 * tau1 * w * w + u * w
        zeta = Ray(_DELTA, 1j)
        omegas = (Contour.vee(max(2.0 * _DELTA, a_cubic), np.exp(1j * np.pi / 4),
                              np.exp(-1j * np.pi / 4)),
                  Contour.vee(-_DELTA, np.exp(-3j * np.pi / 4), np.exp(3j * np.pi / 4)))
        variance = "two-pi"
    val, err = _fold(*integrate_cauchy(p_zeta, p_omega, _contour(Contour((zeta,)), p_zeta),
                                       tuple(_contour(c, p_omega) for c in omegas), opts))
    return val - heat_term(tau1 - tau2, u - v, variance), err


# ---------------------------------------------------------------------------
# SADDLE geometry: Gaussian block integrals over branch-path coordinates
# ---------------------------------------------------------------------------


def _radial_rule(s: float, n: int):
    """Gauss-Legendre nodes and weights on [0, 1], ``n`` per panel, on panels
    graded for the Gaussian weight ``exp(-s x**2)``: the first of width
    ``0.7/sqrt(s)``, each next one 1.6 times wider."""
    h, bounds = 0.7 / np.sqrt(s), [0.0]
    while bounds[-1] < 1.0:
        bounds.append(min(1.0, bounds[-1] + h))
        h *= 1.6
    xu, wu = gl_unit(n)
    a, h = np.asarray(bounds[:-1])[:, None], np.diff(bounds)[:, None]
    return (a + h * xu).ravel(), (h * wu).ravel()


def _truncation_halfwidth(s: float, growth_bound) -> float:
    """Fixed point of ``X = sqrt((budget + G(X))/s)`` where ``G`` bounds the
    amplitude's Re-exponent growth over the square of halfwidth ``X`` and
    the budget is ``_TRUNCATION_BUDGET``."""
    X = np.sqrt(_TRUNCATION_BUDGET / s)
    for _ in range(12):
        X_new = np.sqrt((_TRUNCATION_BUDGET + max(0.0, growth_bound(X))) / s)
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
                   tau2: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The blocks (+,+), (-,-), (+,-) and (-,+) of J on the ``n``-node rule,
    as a (4, queries) array for the arrays ``u`` and ``v``.

    All four blocks are sums over the square ``[-X, X]**2`` on one polar
    rule: the eight images of the Duffy octant of
    :func:`~kernelwave.quadrature.polar_rule`, with radial panels graded
    for the Gaussian.  Every coordinate they need is in one vector ``A``,
    the rule's ``p`` and ``q``.  Each branch path is evaluated once on
    ``c = [A, -A]``; a minus map ``x -> R(P(-x))`` at ``c`` is the
    reflected plus map at the swapped half.  Each map gives,
    ``_SADDLE_BYTES`` at a time, one factor per coordinate and query:
    ``dz exp(-v z - tau2 z**2 - s c**2)`` or ``dw exp(u w + tau1 w**2 - s c**2)``,
    gathered once onto the rule's nodes and shared by the two blocks it
    enters.
    """
    p, q, W = polar_rule(X, n, _radial_rule(s * X * X, n))
    A = np.concatenate([p, q.ravel()])
    c = np.concatenate([A, -A])
    at = {name: paths[name].zeta(c, with_derivative=True) for name in ("S", "T")}
    maps = []
    for name, reflect in specs:
        z, dz = at[name]
        if reflect is not None:
            z, dz = reflect(np.roll(z, A.size)), -reflect(np.roll(dz, A.size))
        maps.append((z, dz))
    (zp, _), (zm, _), (wp, _), (wm, _) = maps
    gauss = s * c * c

    def factors(u, v):
        # In place: every fresh (coordinates x queries) temporary costs page faults.
        for (z, dz), lin, quad in zip(maps, (-v, -v, u, u), (-tau2, -tau2, tau1, tau1)):
            e = np.multiply.outer(z, lin)
            e += (quad * z * z - gauss)[:, None]
            np.exp(e, out=e)
            e *= dz[:, None]
            yield e

    iq = p.size + np.arange(q.size).reshape(q.shape)
    ix, iy = (i.ravel() for i in polar_images(np.arange(p.size), iq, lambda i: i + A.size))
    W8 = np.tile(W.ravel(), 8)
    # W / (zeta - omega) on the nodes of the blocks (+,+), (-,-), (+,-) and (-,+).
    cauchy = [W8 / (z[ix] - w[iy]) for z, w in ((zp, wp), (zm, wm), (zp, wm), (zm, wp))]

    step = max(1, _SADDLE_BYTES // (16 * (2 * c.size + 4 * ix.size)))
    blocks = np.empty((4, u.size), dtype=complex)
    for j in range(0, u.size, step):
        fp, fm, gp, gm = (np.take(e, i, 0) for e, i in
                          zip(factors(u[j:j + step], v[j:j + step]), (ix, ix, iy, iy)))
        blocks[:, j:j + step] = [np.einsum("k,kb,kb->b", k, f, g) for k, f, g in
                                 zip(cauchy, (fp, fm, fp, fm), (gp, gm, gm, gp))]
    return blocks


def _saddle_J(transition: str, a: float, tau1: float, tau2: float,
              u: np.ndarray, v: np.ndarray, opts: QuadOptions):
    """The four-block steepest-path double integral J of either transition
    at arrays ``u`` and ``v`` that share ``a`` and both times.

    The Gaussian scale is ``s = a**beta`` and the mixed blocks carry the
    transition's oscillation phase (see ``_SADDLE_SPECS``).  All four blocks
    are polar cells on one rule: the polar substitution removes the
    singularity of the blocks through coincident saddles, and the
    mixed-saddle blocks, whose paths stay a distance ~2 / ~sqrt(3) apart,
    are smooth Gaussians on the same nodes.  The queries share one
    half-width, from the largest ``|u|`` and ``|v|``, and two rules (see
    :func:`_saddle_blocks`); the estimate sums the rules' differences.
    """
    t, specs = TRANSITION_TABLE[transition], _SADDLE_SPECS[transition]
    # Called by name from this module's globals: perfbench/spans.py wraps them.
    paths = airy_branch_paths() if transition == "airy-to-s1" else pearcey_branch_paths()
    s = t.scale(a)
    phase_pm = t.oscillation(a)
    umax, vmax = float(np.max(np.abs(u))), float(np.max(np.abs(v)))

    def growth(X):
        m = max(float(np.max(np.abs(p.zeta(np.array([X, -X]))))) for p in paths.values())
        return vmax * m + abs(tau2) * m * m + umax * m + abs(tau1) * m * m

    X = _truncation_halfwidth(s, growth)
    n = max(12, opts.nodes_per_panel // 2)
    lo, hi = (_saddle_blocks(paths, specs, s, X, m, tau1, tau2, u, v)
              for m in (n, n + n // 2 + 1))
    phases = np.array([1.0, 1.0, phase_pm, np.conj(phase_pm)])
    total, err = phases @ hi, np.sum(np.abs(hi - lo), axis=0)
    return total / _TWO_PI_I_SQ, err / (4.0 * np.pi ** 2)


def _saddle_kernel(transition: str, a: float, tau1: float, tau2: float,
                   u: np.ndarray, v: np.ndarray, opts: QuadOptions):
    """The SADDLE route, (segment kernel) + J, at ``u``, ``v`` sharing times."""
    seg, seg_err = _segment_kernel(TRANSITION_TABLE[transition].kernel,
                                   np.full(u.shape, tau1 - tau2), u - v, opts)
    j_val, j_err = _saddle_J(transition, a, tau1, tau2, u, v, opts)
    return seg + j_val, seg_err + j_err


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
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    opts = opts or QuadOptions()
    if backend == "saddle":
        val, err = _saddle_kernel(transition, a, tau1, tau2, np.array([u]),
                                  np.array([v]), opts)
        return KernelValue.wrap(val[0], err[0], "saddle")
    if transition == "airy-to-s1":
        kv = eval_kernel(KernelQuery("airy-ext", tau1 / a, tau2 / a, u / np.sqrt(a) - a,
                                     v / np.sqrt(a) - a), opts)
        sa = 1.0 / np.sqrt(a)
        return KernelValue.wrap(sa * kv.value, sa * kv.error_estimate, "direct")
    c = a ** (1.0 / 3.0)
    kv = eval_kernel(KernelQuery("pearcey-ext", 2.0 * tau1 / c ** 2, 2.0 * tau2 / c ** 2,
                                 u / c + a, v / c + a), opts)
    return KernelValue.wrap(kv.value / c, kv.error_estimate / c, "direct")


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


def eval_kernel(q: KernelQuery, opts: QuadOptions | None = None) -> KernelValue:
    """Evaluate one kernel query, as the batch of one of :func:`eval_kernels`."""
    return eval_kernels([q], opts)[0]


# The a = 1 embedding of the saddle kernels in the rescaled kernels:
# K_airy(tau; u, v) is the Airy transition's rescaled kernel at
# (tau, u + 1, v + 1), and K_pearcey(tau; u, v) the quartic one's at
# (tau / 2, u - 1, v - 1).
_EMBEDDING = {
    "airy-ext": ("airy-to-s1", lambda t1, t2, u, v: (t1, t2, u + 1.0, v + 1.0)),
    "pearcey-ext": ("pearcey-to-s2",
                    lambda t1, t2, u, v: (t1 / 2.0, t2 / 2.0, u - 1.0, v - 1.0)),
}


# Per kernel index: is it a segment kernel, does it have a saddle route.
_IS_SEGMENT = np.array([k in _SEGMENT_KERNELS for k in KERNEL_NAMES])
_HAS_SADDLE = np.array([k in _EMBEDDING for k in KERNEL_NAMES])

# Direct double-integral queries per integrate_cauchy call: bounds the
# exponent matrices of one group, about 16 bytes per query and node.
_GROUP = 256
# Saddle factor bytes held at once: about 1.8 MB per query (default options).
_SADDLE_BYTES = 32 << 20


def _groups(kcode: np.ndarray, used: np.ndarray, tau1: np.ndarray, tau2: np.ndarray,
            a: np.ndarray) -> list[np.ndarray]:
    """The rows of each group, in order of first appearance, each group's
    rows in input order.  Segment rows group by kernel (their times differ
    within a group); the others by (kernel, backend used, tau1, tau2, a)."""
    groups = [np.flatnonzero(kcode == c) for c in np.flatnonzero(_IS_SEGMENT)]
    groups = [g for g in groups if g.size]
    rows = np.flatnonzero(~_IS_SEGMENT[kcode])
    keys = zip(kcode[rows].tolist(), used[rows].tolist(), tau1[rows].tolist(),
               tau2[rows].tolist(), np.where(kcode[rows] == _TRANSITION, a[rows], 0.0).tolist())
    timed: dict = {}
    for k, key in zip(rows.tolist(), keys):
        timed.setdefault(key, []).append(k)
    return sorted(groups + [np.array(g) for g in timed.values()], key=lambda g: g[0])


def eval_columns(kernel, tau1, tau2, u, v, a, backend, opts: QuadOptions | None = None,
                 *, a_given=None):
    """Evaluate a batch given as columns: the core of every evaluation.

    ``kernel`` and ``backend`` are sequences of names; ``tau1``, ``tau2``,
    ``u``, ``v`` and ``a`` are numbers, ``a`` NaN on rows that give none
    (``a_given``, by default where ``a`` is not NaN, says which rows give
    one).  The batch is checked by :func:`check_columns`, which raises
    :class:`QueryError` naming the first bad row.  Returns arrays ``(re, im,
    err, backend_used)`` in row order.

    Segment rows are grouped by kernel: ``sine-ext`` in closed form, ``s1``
    and ``s2`` each one batched :func:`integrate_single` call that refines
    and estimates every integral on its own.  The double-integral rows
    (airy-ext, pearcey-ext, transition-a) are grouped by (kernel, backend,
    tau1, tau2, a); transition-a is always direct.  A direct group of up to
    ``_GROUP`` rows shares its contours and one :func:`integrate_cauchy`
    call; a saddle group is the rescaled kernel of its transition at
    ``a = 1`` on one rule.  A failing group fails the batch, and so does a
    row whose value or estimate is not finite, as where ``tau1 - tau2`` or
    ``u - v`` overflows: both raise :class:`GeometryError`.
    """
    opts = opts or QuadOptions()
    tau1, tau2, u, v, a = (np.asarray(x, dtype=float) for x in (tau1, tau2, u, v, a))
    if a_given is None:
        a_given = ~np.isnan(a)
    kcode, bcode = check_columns(kernel, tau1, tau2, u, v, a, backend, a_given)
    n = kcode.size
    re, im, err = np.zeros(n), np.zeros(n), np.zeros(n)
    used = np.where(_HAS_SADDLE[kcode], bcode, 0)
    for rows in _groups(kcode, used, tau1, tau2, a):
        kind, group_backend = KERNEL_NAMES[kcode[rows[0]]], BACKENDS[used[rows[0]]]
        t1, t2, a_param = (float(x[rows[0]]) for x in (tau1, tau2, a))
        step = _GROUP if group_backend == "direct" and kind not in _SEGMENT_KERNELS else rows.size
        for j in range(0, rows.size, step):
            ks = rows[j:j + step]
            # An overflowing row is reported below, not by numpy.
            with np.errstate(over="ignore", invalid="ignore"):
                if kind in _SEGMENT_KERNELS:
                    vals, errs = _segment_kernel(kind, tau1[ks] - tau2[ks], u[ks] - v[ks], opts)
                elif group_backend == "saddle":
                    transition, embed = _EMBEDDING[kind]
                    vals, errs = _saddle_kernel(transition, 1.0, *embed(t1, t2, u[ks], v[ks]),
                                                opts)
                else:
                    vals, errs = _direct(kind, t1, t2, u[ks], v[ks], a_param, opts)
            re[ks], im[ks], err[ks] = vals.real, vals.imag, errs
    bad = ~(np.isfinite(re) & np.isfinite(im) & np.isfinite(err))
    if bad.any():
        r = int(np.argmax(bad))
        dt, dx = float(tau1[r]) - float(tau2[r]), float(u[r]) - float(v[r])
        raise GeometryError(f"non-finite value or error estimate in row {r}, "
                            f"where tau1 - tau2 = {dt!r} and u - v = {dx!r}")
    return re, im, err, np.asarray(BACKENDS)[used]


def eval_kernels(queries, opts: QuadOptions | None = None) -> list[KernelValue]:
    """Evaluate a batch of queries with one set of options; the values come
    back in input order.

    The queries become the columns of one :func:`eval_columns` call.
    """
    qs = list(queries)
    re, im, err, used = eval_columns(
        [q.kernel for q in qs], [q.tau1 for q in qs], [q.tau2 for q in qs],
        [q.u for q in qs], [q.v for q in qs],
        [np.nan if q.a_param is None else q.a_param for q in qs],
        [q.backend for q in qs], opts, a_given=[q.a_param is not None for q in qs])
    return [KernelValue(complex(r, i), abs(i), e, b)
            for r, i, e, b in zip(re.tolist(), im.tolist(), err.tolist(), used.tolist())]


# ---------------------------------------------------------------------------
# Kernel relations
# ---------------------------------------------------------------------------


def relation_connS(tau1: float, tau2: float, u: float, v: float,
                   opts: QuadOptions | None = None) -> tuple[KernelValue, KernelValue]:
    """Both sides of the s1 <-> extended-sine rescaling identity:
    ``pi * K_s1(pi^2 tau/2; pi u, pi v)`` versus ``K_sine(tau; u, v)``.

    The two sides share no code: s1 is integrated along its segment, the
    extended sine kernel is a closed form in the Faddeeva function."""
    s1 = eval_kernel(KernelQuery(
        "s1", np.pi ** 2 * tau1 / 2.0, np.pi ** 2 * tau2 / 2.0,
        np.pi * u, np.pi * v), opts)
    lhs = KernelValue.wrap(np.pi * s1.value.real, np.pi * s1.error_estimate, "direct")
    return lhs, eval_kernel(KernelQuery("sine-ext", tau1, tau2, u, v), opts)


def relation_connSS(tau1: float, tau2: float, u: float, v: float,
                    opts: QuadOptions | None = None) -> tuple[KernelValue, KernelValue]:
    """Both sides of the s2 <-> s1 gauge/rescaling identity."""
    gauge = (2.0 / np.sqrt(3.0)) * np.exp((tau1 - tau2) / 3.0 - (u - v) / np.sqrt(3.0))
    s2 = eval_kernel(KernelQuery(
        "s2", 4.0 * tau1 / 3.0, 4.0 * tau2 / 3.0,
        2.0 * u / np.sqrt(3.0) - 4.0 * tau1 / 3.0,
        2.0 * v / np.sqrt(3.0) - 4.0 * tau2 / 3.0), opts)
    lhs = KernelValue.wrap(gauge * s2.value.real, gauge * s2.error_estimate, "direct")
    return lhs, eval_kernel(KernelQuery("s1", tau1, tau2, u, v), opts)


def transition_interpolation_check(a: float, tau1: float, tau2: float,
                                   u: float, v: float,
                                   opts: QuadOptions | None = None
                                   ) -> tuple[KernelValue, KernelValue]:
    """Rescaled transition kernel against its cubic-phase limit.

    For ``a > 0`` returns ``(a**(1/3) * K_a(2 a**(2/3) tau; a**(1/3) u,
    a**(1/3) v), K_airy(tau; u, v))`` -- the pair converges as ``a`` grows.
    For ``a = 0`` the prefactor and argument rescalings degenerate, so the
    unrescaled pair ``(K_0(tau; u, v), K_pearcey(tau; u, v))`` is returned
    instead; these must agree identically, and the quartic side comes from
    the saddle backend, so the pair compares two independent geometries.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if a == 0:
        return tuple(eval_kernels([
            KernelQuery("transition-a", tau1, tau2, u, v, a_param=0.0),
            KernelQuery("pearcey-ext", tau1, tau2, u, v, backend="saddle")], opts))
    c = a ** (1.0 / 3.0)
    kt, rhs = eval_kernels([
        KernelQuery("transition-a", 2.0 * c ** 2 * tau1, 2.0 * c ** 2 * tau2, c * u,
                    c * v, a_param=a),
        KernelQuery("airy-ext", tau1, tau2, u, v)], opts)
    return KernelValue.wrap(c * kt.value, c * kt.error_estimate, "direct"), rhs
