"""Panelized complex contour quadrature.

Contours are oriented chains of straight panels (infinite rays are clipped
to finite panels before integration by :func:`truncate_rays`, and
:func:`refine_panels` cuts panels to unit length).  Single and
double contour integrals are evaluated by Gauss-Legendre panels refined
level by level, one batched integrand call per level (:func:`_refine`), with
error estimates that include a round-off floor.  :func:`integrate_single`
also takes a batch of B integrands on one contour and keeps every
integral's tolerance, refinement, estimate and warning its own.  Either
integrator calls the integrand on at most ``_CHUNK`` points at a time.  A
double integral is a tensor rule over every panel pair, so the two contours
must not meet: an integrand that explodes where they nearly touch is
rejected as an undeclared contour crossing.

:func:`integrate_cauchy` evaluates B double integrals of the form
``exp(a(ζ)) exp(b(ω)) / (ζ - ω)`` that share two contours as one bilinear
form ``colsum(A ⊙ (C B))`` with the Cauchy matrix ``C_kl = 1/(ζ_k - ω_l)``:
one Gauss-Kronrod node set per contour, whose embedded Gauss rule gives the
error estimate from a leading block of the same ``C`` (Laurie, Math. Comp.
66 (1997) 1133-1145, for the rule), the whole contour pair refined by
doubling the rule, and a round-off floor taken from the arithmetic of the
form.  The kernels' direct backend uses it; :func:`integrate_double`
remains as the general adaptive primitive and the reference it is tested
against.
:func:`polar_cell` integrates an integrable ``1/(s - c*t)``-type
singularity over a square as the sum over the eight signed or swapped
images of one octant, a Duffy triangle whose nodes and weights
:func:`polar_rule` gives (Duffy, SIAM J. Numer. Anal. 19 (1982) 1260-1262).
The saddle backend's four blocks all use that rule directly, with
:func:`polar_images` on indices into one coordinate vector.

Integrands must be numpy-vectorized: they are called with broadcasted
complex arrays and must evaluate elementwise (a batched single integrand
also gets the integral index of each row of points).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GeometryError",
    "AccuracyWarning",
    "QuadOptions",
    "StraightArc",
    "Ray",
    "Contour",
    "truncate_rays",
    "refine_panels",
    "integrate_single",
    "integrate_double",
    "integrate_cauchy",
    "gl_unit",
    "polar_rule",
    "polar_images",
    "polar_cell",
]


class GeometryError(Exception):
    """Raised for ill-posed contours and integrands: untruncated rays,
    non-decaying envelopes, contours that cross, broken chains, non-finite
    integrand values."""


class AccuracyWarning(UserWarning):
    """Issued when refinement (depth, or rule doublings) is exhausted before
    reaching tolerance.

    The warning's ``estimate`` attribute carries the best error estimate and
    ``index`` the integral of a batch it belongs to (0 for a single one).
    """

    def __init__(self, message: str, estimate: float, index: int = 0):
        super().__init__(message)
        self.estimate = estimate
        self.index = index


@dataclass(frozen=True)
class QuadOptions:
    """The quadrature settings a caller may vary, one field per flag of the
    CLI's quadrature options: the relative and absolute tolerance, and the
    rule size ``n`` per panel.  An evaluation takes one value for its whole
    batch.  The refinement depth (:data:`_MAX_REFINE_DEPTH`) and the ray
    truncation budget of the kernels are module constants."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    nodes_per_panel: int = 32

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "nodes_per_panel"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ValueError(f"QuadOptions.{name} must be finite and positive, "
                                 f"got {value!r}")
        n = self.nodes_per_panel
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ValueError(f"QuadOptions.nodes_per_panel must be an integer, got {n!r}")


@dataclass(frozen=True)
class StraightArc:
    """Directed straight panel from ``za`` to ``zb``."""

    za: complex
    zb: complex

    @property
    def length(self) -> float:
        return abs(self.zb - self.za)

    def point(self, t):
        return self.za + np.asarray(t) * (self.zb - self.za)

    def split(self, t: float) -> tuple["StraightArc", "StraightArc"]:
        zm = complex(self.point(t))
        return StraightArc(self.za, zm), StraightArc(zm, self.zb)


@dataclass(frozen=True)
class Ray:
    """Infinite straight panel: ``vertex`` to/from ``vertex + inf*direction``.

    ``incoming=True`` means the contour travels from infinity toward the
    vertex; otherwise away from it.  Rays cannot be integrated directly and
    must be clipped by :func:`truncate_rays` first.
    """

    vertex: complex
    direction: complex
    incoming: bool = False

    def __post_init__(self):
        d = abs(self.direction)
        if not np.isfinite(d) or d == 0:
            raise GeometryError("ray direction must be nonzero and finite")
        object.__setattr__(self, "direction", self.direction / d)


@dataclass(frozen=True)
class Contour:
    """Oriented chain of panels."""

    panels: tuple
    truncation_radii: tuple = ()

    def __post_init__(self):
        panels = tuple(self.panels)
        object.__setattr__(self, "panels", panels)
        # Chain continuity.
        for p, q in zip(panels[:-1], panels[1:]):
            pe = p.vertex if isinstance(p, Ray) and p.incoming else getattr(p, "zb", None)
            qs = q.vertex if isinstance(q, Ray) and not q.incoming else getattr(q, "za", None)
            if pe is None or qs is None:
                raise GeometryError("interior ray panels must point outward at chain ends")
            if abs(pe - qs) > 1e-12 * max(1.0, abs(pe)):
                raise GeometryError(f"contour chain broken between {pe} and {qs}")

    @classmethod
    def polyline(cls, points) -> "Contour":
        pts = [complex(z) for z in points]
        panels = tuple(StraightArc(a, b) for a, b in zip(pts[:-1], pts[1:]))
        return cls(panels=panels)

    @classmethod
    def vee(cls, vertex, dir_in, dir_out) -> "Contour":
        """V-shaped contour: in from infinity along ``dir_in``, out along
        ``dir_out`` (both directions point away from the vertex)."""
        return cls(panels=(Ray(vertex, dir_in, incoming=True),
                           Ray(vertex, dir_out, incoming=False)))

    @property
    def is_finite(self) -> bool:
        return all(isinstance(p, StraightArc) for p in self.panels)


# ---------------------------------------------------------------------------
# Ray truncation and panel refinement
# ---------------------------------------------------------------------------


def _ray_radius(envelope, vertex, direction, budget) -> float:
    """Radius along ``vertex + r*direction`` at which the envelope has
    dropped ``budget`` below its running maximum."""
    rs = 0.25 * 1.2 ** np.arange(0, 60)  # up to ~1e4
    env = np.asarray(envelope(vertex + rs * direction), dtype=float)
    env0 = float(np.asarray(envelope(np.array([vertex], dtype=complex))).ravel()[0])
    running = np.maximum.accumulate(np.concatenate([[env0], env]))[1:]
    ok = env <= running - budget
    if not ok.any():
        raise GeometryError(
            "phase envelope does not decay by the requested budget along a ray"
        )
    return float(rs[np.argmax(ok)])


def truncate_rays(contour: Contour, phase_envelope, budget: float) -> Contour:
    """Clip infinite rays where ``phase_envelope`` (the Re of the
    exponential exponent, as a vectorized function of the point) drops
    ``budget`` below its running maximum along the ray.

    Returns a finite contour with the clip radii recorded in
    ``truncation_radii``.  Raises :class:`GeometryError` if the envelope
    fails to decay or the budget is not positive.
    """
    if budget <= 0:
        raise GeometryError("truncation budget must be positive")
    panels = []
    radii = []
    for p in contour.panels:
        if isinstance(p, Ray):
            r = _ray_radius(phase_envelope, p.vertex, p.direction, budget)
            radii.append(r)
            tip = p.vertex + r * p.direction
            panels.append(StraightArc(tip, p.vertex) if p.incoming
                          else StraightArc(p.vertex, tip))
        else:
            panels.append(p)
    return Contour(panels=tuple(panels), truncation_radii=tuple(radii))


_MAX_PANEL_LEN = 1.0


def refine_panels(contour: Contour) -> Contour:
    """Cut each panel of a finite contour into ``ceil(L / _MAX_PANEL_LEN)``
    equal pieces, ``L`` its length; the chain's endpoints and truncation
    radii are kept.  Accuracy beyond that is the integrators' business:
    they refine where the integrand needs it."""
    if not contour.is_finite:
        raise GeometryError("refine_panels requires a finite contour")
    out = []
    for p in contour.panels:
        m = max(1, math.ceil(p.length / _MAX_PANEL_LEN))
        ts = np.linspace(0.0, 1.0, m + 1)
        zs = [p.za, *(complex(z) for z in p.point(ts[1:-1])), p.zb]
        out.extend(StraightArc(a, b) for a, b in zip(zs[:-1], zs[1:]))
    return Contour(panels=tuple(out), truncation_radii=contour.truncation_radii)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules and level-by-level refinement
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def gl_unit(n: int):
    """The ``n``-node Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _kronrod_recurrence(g: int) -> np.ndarray:
    """The ``b`` coefficients ``b_0 .. b_2g`` of the Jacobi-Kronrod matrix of
    the ``(2g + 1)``-node Gauss-Kronrod rule for the Legendre weight on
    [-1, 1], by Laurie's algorithm (Math. Comp. 66 (1997) 1133-1145).

    The weight is symmetric, so every diagonal coefficient ``a_k`` is 0 and
    the terms of the algorithm that carry them vanish.  ``b_0 .. b_⌈3g/2⌉``
    are Legendre's own (``b_0`` the total weight 2); the mixed moments
    ``s`` and ``t`` then give the rest.
    """
    b = np.zeros(2 * g + 1)
    k = np.arange(1, -(-3 * g // 2) + 1)
    b[0] = 2.0
    b[k] = k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(g // 2 + 2), np.zeros(g // 2 + 2)
    t[1] = b[g + 1]
    for m in range(g - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            u += b[k + g + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(g - 1, 2 * g - 2):
        u = 0.0
        for k in range(m + 1 - g, (m - 1) // 2 + 1):
            j = g - 1 - m + k
            u += b[m - k] * s[j + 2] - b[k + g + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + g + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=32)
def _kronrod_unit(g: int):
    """The ``(2g + 1)``-node Gauss-Kronrod rule on [0, 1] and its embedded
    ``g``-node Gauss rule: arrays ``(x, wk, wg)`` of nodes, the g Gauss
    nodes first, their Kronrod weights, and the Gauss weights of the first
    g nodes.

    The nodes are the eigenvalues of the Jacobi-Kronrod matrix and the
    Kronrod weights ``b_0`` times the squared first components of its
    eigenvectors (Golub-Welsch); sorted, the Gauss nodes are every second
    one, since the Kronrod nodes interlace them.
    """
    off = np.sqrt(_kronrod_recurrence(g)[1:])
    x, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    order = np.concatenate([np.arange(1, 2 * g, 2), np.arange(0, 2 * g + 1, 2)])
    return 0.5 * (x[order] + 1.0), V[0, order] ** 2, gl_unit(g)[1]


# Two-level differences cannot resolve below roundoff of the magnitude
# integral; descending further than this floor only multiplies work, and
# every reported estimate includes it.
_EPS = np.finfo(float).eps
_ROUNDOFF = 200.0 * _EPS
# Levels of splitting after which :func:`_refine` accepts the items still
# over tolerance and warns.
_MAX_REFINE_DEPTH = 12

# Integrand points per call of the single and double rules, whatever the
# number of panels or panel pairs: bounds the node and value arrays held.
_CHUNK = 1 << 13


def _refine(items, owner, n_int: int, measure, split, opts: QuadOptions,
            label: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-integral sums of ``items`` (panels or panel pairs), refined level
    by level.

    ``owner[k]`` numbers the integral, 0 to ``n_int - 1``, that item ``k``
    belongs to.  ``measure(items, owner)`` gives arrays ``(coarse, fine,
    mag)``: two rules per item and the integral of ``|f|`` behind ``fine``.
    An item is accepted once ``|fine - coarse|`` is within its share of its
    integral's tolerance or below its round-off floor ``_ROUNDOFF * mag``;
    otherwise ``split(item)`` replaces it by children that split its share
    evenly.
    Each integral keeps its own books: its level-0 coarse total and item
    count set its tolerance, and neither depends on the other integrals.
    The estimate adds the accepted items' differences, which bound their
    truncation error, plus their floors in quadrature, since the round-off
    of separate items is independent.  Returns arrays ``(values, errors)``
    of length ``n_int``.
    """
    coarse, fine, mag = measure(items, owner)
    # The signed total is what the caller receives; the floor term admits
    # that cancellation across items caps achievable accuracy at ~eps times
    # the largest contributions.
    level0, spread = np.zeros(n_int, dtype=complex), np.zeros(n_int)
    np.add.at(level0, owner, coarse)
    np.add.at(spread, owner, np.abs(coarse))
    scale = np.maximum(np.abs(level0), 1e-12 * spread)
    count = np.maximum(np.bincount(owner, minlength=n_int), 1)
    tol = np.maximum(opts.abs_tol, opts.rel_tol * scale) / np.sqrt(count)
    share = np.ones(len(items))
    total = np.zeros(n_int, dtype=complex)
    err, floors, worst = np.zeros(n_int), np.zeros(n_int), np.zeros(n_int)
    missed = np.zeros(n_int, dtype=int)
    depth = 0
    while True:
        floor = _ROUNDOFF * mag
        diff = np.abs(fine - coarse)
        ok = diff <= np.maximum(tol[owner] * share, floor)
        if depth >= _MAX_REFINE_DEPTH and not ok.all():
            np.add.at(missed, owner[~ok], 1)
            np.maximum.at(worst, owner[~ok], diff[~ok])
            ok[:] = True
        np.add.at(total, owner[ok], fine[ok])
        np.add.at(err, owner[ok], diff[ok])
        np.hypot.at(floors, owner[ok], floor[ok])
        parents = np.flatnonzero(~ok)
        if parents.size == 0:
            break
        items = [child for i in parents for child in split(items[i])]
        fan = len(items) // parents.size
        share = np.repeat(share[parents] / fan, fan)
        owner = np.repeat(owner[parents], fan)
        coarse, fine, mag = measure(items, owner)
        depth += 1
    for b in np.flatnonzero(missed):
        where = label if n_int == 1 else f"{label} (integral {b} of {n_int})"
        warnings.warn(AccuracyWarning(
            f"{where}: refinement depth exhausted on {missed[b]} panel(s); "
            f"worst residual estimate {worst[b]:.3e}", float(worst[b]), int(b)),
            stacklevel=3)
    return total, err + floors


# ---------------------------------------------------------------------------
# Single contour integrals
# ---------------------------------------------------------------------------


def _nodes(panels, t):
    """Rows of points ``za + t (zb - za)`` per panel, and the ``zb - za``."""
    za = np.array([p.za for p in panels], dtype=complex)
    d = np.array([p.zb - p.za for p in panels], dtype=complex)
    return za[:, None] + t * d[:, None], d


def _panel_rule(f, panels, owner, n: int):
    """Per panel: the ``n``-node Gauss-Legendre value (coarse), the sum of
    the same rule over its two halves (fine) and the halves' integral of
    ``|f|``, from one integrand evaluation.  ``f(z, i)`` sees the points of
    at most ``_CHUNK // (3 n)`` panels per call, with the integral index of
    each panel's row of points."""
    xu, wu = gl_unit(n)
    t = np.concatenate([xu, 0.5 * xu, 0.5 + 0.5 * xu])
    w_halves = 0.5 * np.concatenate([wu, wu])
    coarse = np.empty(len(panels), dtype=complex)
    fine = np.empty(len(panels), dtype=complex)
    mag = np.empty(len(panels))
    step = max(1, _CHUNK // t.size)
    for k in range(0, len(panels), step):
        z, d = _nodes(panels[k:k + step], t)
        # An overflowing integrand is reported below, not by numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(z, owner[k:k + step, None]))
        if not np.isfinite(vals).all():
            raise GeometryError("non-finite integrand value on a panel")
        halves = vals[:, n:]
        coarse[k:k + step] = d * (vals[:, :n] @ wu)
        fine[k:k + step] = d * (halves @ w_halves)
        mag[k:k + step] = np.abs(d) * (np.abs(halves) @ w_halves)
    return coarse, fine, mag


def integrate_single(f, contour: Contour, opts: QuadOptions = QuadOptions(),
                     batch: int | None = None):
    """Integrate a vectorized integrand along a finite contour.

    Returns ``(value, error_estimate)`` as Python ``complex`` and ``float``.
    With ``batch=B`` it integrates B integrands on the one contour: ``f(z,
    i)`` gets rows of points ``z`` and the index ``i`` (0 to B - 1, shape
    ``(rows, 1)``) of the integral each row belongs to, and the result is
    arrays ``(values, errors)`` of length B.  Every integral is refined and
    estimated on its own (see :func:`_refine`); a single integral is the
    batch of one.  The estimate sums the last two-rule differences per panel
    plus the panels' round-off floors.  A non-finite integrand value raises
    :class:`GeometryError` for the whole call.  Exhausted refinement issues
    one :class:`AccuracyWarning` per integral, carrying its worst panel
    estimate.
    """
    if not contour.is_finite:
        raise GeometryError("integrate_single requires a truncated contour")
    n = opts.nodes_per_panel
    n_int = 1 if batch is None else batch
    g = f if batch is not None else (lambda z, i: f(z))
    owner = np.repeat(np.arange(n_int), len(contour.panels))
    vals, errs = _refine(list(contour.panels) * n_int, owner, n_int,
                         lambda items, own: _panel_rule(g, items, own, n),
                         lambda p: p.split(0.5), opts, "integrate_single")
    if batch is not None:
        return vals, errs
    return complex(vals[0]), float(errs[0])


# ---------------------------------------------------------------------------
# Double contour integrals
# ---------------------------------------------------------------------------


def _check_explosion(mags: np.ndarray, za, zb, len_a, len_b) -> None:
    """Reject a chunk of panel pairs (``mags[p]`` is ``|F|`` on the tensor
    grid of pair ``p``) with a non-finite value, or whose peak on some pair
    exceeds 1e8 times its median where the two panels nearly touch."""
    if not np.isfinite(mags.max()):
        raise GeometryError("non-finite integrand value on a panel pair")
    flat = mags.reshape(len(mags), -1)
    peak = flat.max(axis=1)
    # The median is never below the minimum, so only pairs this wide can
    # peak above 1e8 times their median.
    wide = np.flatnonzero(peak > 1e8 * (flat.min(axis=1) + 1e-300))
    for p in [p for p in wide if peak[p] > 1e8 * (np.median(flat[p]) + 1e-300)]:
        # Large dynamic range alone is legitimate (steep exponentials); an
        # undeclared singularity additionally peaks where the two contours
        # nearly touch.
        dist = np.abs(za[p][:, None] - zb[p][None, :])
        i, j = np.unravel_index(np.argmax(flat[p]), dist.shape)
        if (dist[i, j] < 1e-2 * max(len_a[p], len_b[p])
                and dist[i, j] <= 2.0 * dist.min() + 1e-300):
            raise GeometryError(
                "integrand magnitude explosion near "
                f"zeta={za[p][i]:.4g}, omega={zb[p][j]:.4g}; "
                "likely an undeclared contour crossing"
            )


def _pair_rule(F, pairs, n: int, with_mag: bool):
    """Per panel pair: the ``n``-node tensor Gauss-Legendre value of ``F``
    and, if ``with_mag``, the same rule's integral of ``|F|`` (else None).
    ``F`` sees at most ``_CHUNK`` points per call, and each chunk is checked
    by :func:`_check_explosion`."""
    xu, wu = gl_unit(n)
    w2 = np.outer(wu, wu).ravel()
    val = np.empty(len(pairs), dtype=complex)
    mag = np.empty(len(pairs)) if with_mag else None
    step = max(1, _CHUNK // (n * n))
    for k in range(0, len(pairs), step):
        za, da = _nodes([pa for pa, _ in pairs[k:k + step]], xu)
        zb, db = _nodes([pb for _, pb in pairs[k:k + step]], xu)
        vals = np.asarray(F(za[:, :, None], zb[:, None, :]))
        mags = np.abs(vals)
        _check_explosion(mags, za, zb, np.abs(da), np.abs(db))
        val[k:k + step] = da * db * (vals.reshape(len(da), -1) @ w2)
        if with_mag:
            mag[k:k + step] = np.abs(da * db) * (mags.reshape(len(da), -1) @ w2)
    return val, mag


def polar_rule(r: float, n: int, radial=None):
    """The polar rule on the first octant ``0 <= t <= s <= r`` of the square
    ``[-r, r]**2``, a Duffy triangle with its corner at the origin.

    With ``s = rho*cos(theta)``, ``t = rho*sin(theta)`` and ``n``
    Gauss-Legendre nodes ``theta_j`` on [0, pi/4], the radial limit is
    ``R_j = r / cos(theta_j)`` and the nodes are ``p_i = r*rhat_i`` and
    ``q_ij = p_i*tan(theta_j)``, with weights
    ``W_ij = (pi/4) w_j R_j**2 rw_i rhat_i``.  ``radial`` gives the nodes
    ``rhat`` and weights ``rw`` for ``rho / R`` on [0, 1]; the default is
    one ``n``-node panel.  Returns ``(p, q, W)`` of shapes ``(m,)``,
    ``(m, n)`` and ``(m, n)``.
    """
    xu, wu = gl_unit(n)
    th = xu * (np.pi / 4)
    R = r / np.cos(th)
    ru, rw = radial if radial is not None else (xu, wu)
    p = r * ru
    return p, p[:, None] * np.tan(th), (np.pi / 4) * np.outer(rw * ru, wu * R * R)


def polar_images(p, q, neg=np.negative):
    """The eight images ``(±p, ±q)`` and ``(±q, ±p)`` of the first-octant
    nodes of :func:`polar_rule` that tile the square, as arrays ``(x, y)``
    stacked on a leading axis of 8.  ``neg`` negates a coordinate: the
    default for values, or an index shift for indices into a vector of
    coordinates followed by their negatives."""
    p = np.broadcast_to(np.asarray(p)[:, None], np.shape(q))
    mp, mq = neg(p), neg(q)
    return np.stack([p, q, mq, mp, mp, mq, q, p]), np.stack([q, p, p, q, mq, mp, mp, mq])


def polar_cell(g, r: float, n: int, radial=None) -> complex:
    """Integral of ``g(s, t)`` over the square ``[-r, r]**2`` by the polar
    substitution ``s = rho*cos(theta)``, ``t = rho*sin(theta)``.

    The Jacobian ``rho`` turns an integrable ``1/(s - c*t)``-type
    singularity at the origin into a bounded smooth integrand.  The square
    is the eight signed or swapped images of one octant, each integrated by
    :func:`polar_rule` (so the radial limit is smooth on each piece), and
    all eight go to ``g`` in one vectorized call.
    """
    p, q, W = polar_rule(r, n, radial)
    return complex(np.sum(W * np.asarray(g(*polar_images(p, q)))))


def integrate_double(F, cA: Contour, cB: Contour,
                     opts: QuadOptions = QuadOptions()):
    """Tensor-product quadrature of ``F(zeta, omega)`` over two contours.

    Every panel pair is adaptive tensor Gauss-Legendre, ``n`` against
    ``n + n//2 + 1`` nodes (see :func:`_refine`).  The contours must not
    meet; an integrand that explodes where they nearly touch raises
    :class:`GeometryError` (see :func:`_check_explosion`).  Returns
    ``(value, error_estimate)`` as Python ``complex`` and ``float``.
    """
    if not (cA.is_finite and cB.is_finite):
        raise GeometryError("integrate_double requires truncated contours")
    n = opts.nodes_per_panel
    m = n + n // 2 + 1

    def measure(pairs, owner):
        coarse, _ = _pair_rule(F, pairs, n, with_mag=False)
        return (coarse, *_pair_rule(F, pairs, m, with_mag=True))

    def split(pair):
        return [(qa, qb) for qa in pair[0].split(0.5) for qb in pair[1].split(0.5)]

    pairs = [(pa, pb) for pa in cA.panels for pb in cB.panels]
    vals, errs = _refine(pairs, np.zeros(len(pairs), dtype=int), 1, measure,
                         split, opts, "integrate_double")
    return complex(vals[0]), float(errs[0])


# ---------------------------------------------------------------------------
# Cauchy bilinear forms
# ---------------------------------------------------------------------------

# Bytes of each row block of the Cauchy matrix (and of A) held at once.
_BLOCK_BYTES = 1 << 18

# Times integrate_cauchy doubles the rule for columns that miss their
# tolerance before it warns.
_DOUBLINGS = 3


def _node_set(contours, g: int):
    """Points and weights of the ``(2g + 1)``-node Gauss-Kronrod rule on
    every panel of one or more contours, the g Gauss nodes of every panel
    first, and the Gauss weights of those leading points."""
    panels = [p for c in contours for p in c.panels]
    xu, wk, wg = _kronrod_unit(g)
    z, d = _nodes(panels, xu)
    w = d[:, None] * wk
    gauss_first = lambda m: np.concatenate([m[:, :g].ravel(), m[:, g:].ravel()])
    return gauss_first(z), gauss_first(w), (d[:, None] * wg).ravel()


def _cauchy_rule(exp_a, exp_b, cA, cB, g: int, cols):
    """``colsum(A ⊙ (C B))`` on the ``(2g + 1)``-node Gauss-Kronrod rule, the
    same form on its embedded g-node Gauss rule, ``colsum(|A| ⊙ (|C| |B|))``
    and the Kronrod node count, for the columns ``cols`` of the exponents.

    Both node sets hold their Gauss points first, so the Gauss rule's
    Cauchy matrix is the leading block ``C[:K_g, :L_g]`` of the one formed,
    and its ``A`` and ``B`` are the same exponentials under Gauss weights.
    Each column of ``A`` and ``B`` is scaled by its largest Re exponent and
    the logs are added back at the end; ``A``'s scale is kept as a running
    maximum over the row blocks, rescaling the partial sums as it grows.
    """
    za, wa, ga = _node_set(cA, g)
    zb, wb, gb = _node_set(cB, g)
    B = np.asarray(exp_b(zb[:, None]), dtype=complex)[:, cols]
    sb = B.real.max(axis=0)
    B -= sb
    np.exp(B, out=B)
    B_g = gb[:, None] * B[:len(gb)]
    B *= wb[:, None]
    abs_B = np.abs(B)
    rows = max(1, _BLOCK_BYTES // (16 * max(B.shape)))
    sa = np.full(B.shape[1], -np.inf)
    val = np.zeros(B.shape[1], dtype=complex)
    val_g = np.zeros(B.shape[1], dtype=complex)
    mag = np.zeros(B.shape[1])
    for k in range(0, len(za), rows):
        ea = np.asarray(exp_a(za[k:k + rows, None]))[:, cols]
        top = np.maximum(sa, ea.real.max(axis=0))
        shrink = np.exp(sa - top)
        val *= shrink
        val_g *= shrink
        mag *= shrink
        sa = top
        E = np.exp(ea - sa)
        A = wa[k:k + rows, None] * E
        C = 1.0 / (za[k:k + rows, None] - zb)
        val += np.einsum("kj,kj->j", A, C @ B)
        mag += np.einsum("kj,kj->j", np.abs(A), np.abs(C) @ abs_B)
        m = min(rows, len(ga) - k)
        if m > 0:
            val_g += np.einsum("kj,kj->j", ga[k:k + m, None] * E[:m],
                               C[:m, :len(gb)] @ B_g)
    scale = np.exp(sa + sb)
    return val * scale, val_g * scale, mag * scale, len(za) + len(zb)


def integrate_cauchy(exp_a, exp_b, contour_a, contour_b,
                     opts: QuadOptions = QuadOptions()):
    """B double integrals ``∬ exp(exp_a(ζ)_j) exp(exp_b(ω)_j) / (ζ - ω) dζ dω``
    over two contours that do not meet, as one bilinear form.

    ``exp_a(z)`` and ``exp_b(z)`` get a column of points (shape ``(P, 1)``)
    and return the exponents of all B integrands (shape ``(P, B)``); the
    array ``exp_b`` returns is overwritten.  Either contour may also be a
    tuple of contours, whose node sets are concatenated.  With quadrature
    nodes and weights on each contour, ``A_kj = w_k exp(exp_a(ζ_k)_j)``,
    ``B_lj = w_l exp(exp_b(ω_l)_j)`` and the Cauchy matrix
    ``C_kl = 1/(ζ_k - ω_l)``, column j's value is ``colsum(A ⊙ (C B))_j``;
    ``C`` and ``A`` are formed in row blocks of about ``_BLOCK_BYTES``.  The
    rule is the ``(2g + 1)``-node Gauss-Kronrod rule per panel, ``g = max(1,
    n // 2)`` for ``n = nodes_per_panel``, and is compared with its embedded
    g-node Gauss rule, whose form ``colsum(A_g ⊙ (C[:K_g, :L_g] B_g))`` uses
    the leading block of the same ``C`` (each node set holds its Gauss nodes
    first).  The estimate is that difference plus the round-off floor
    ``eps sqrt(K + L) Σ|A||C||B|`` of the ``K + L`` Kronrod nodes.  A column
    whose difference exceeds both its floor and its tolerance
    ``max(abs_tol, rel_tol |value|)`` has g doubled on the whole contour
    pair, at most ``_DOUBLINGS`` times, then gets one
    :class:`AccuracyWarning` carrying its index and estimate.  A non-finite
    value or estimate raises :class:`GeometryError` for the whole call.
    Returns arrays ``(values, errors)`` of length B.
    """
    ca = contour_a if isinstance(contour_a, tuple) else (contour_a,)
    cb = contour_b if isinstance(contour_b, tuple) else (contour_b,)
    if not all(c.is_finite for c in ca + cb):
        raise GeometryError("integrate_cauchy requires truncated contours")
    g = max(1, opts.nodes_per_panel // 2)
    cols, vals, errs = slice(None), None, None
    for _ in range(_DOUBLINGS + 1):
        # An overflowing column is reported below, not by numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            hi, lo, mag, nodes = _cauchy_rule(exp_a, exp_b, ca, cb, g, cols)
            diff = np.abs(hi - lo)
            floor = _EPS * np.sqrt(nodes) * mag
        if not (np.isfinite(hi).all() and np.isfinite(diff + floor).all()):
            raise GeometryError("non-finite value or estimate in integrate_cauchy")
        if vals is None:
            vals, errs, cols = hi, diff + floor, np.arange(len(hi))
        else:
            vals[cols], errs[cols] = hi, diff + floor
        tol = np.maximum(opts.abs_tol, opts.rel_tol * np.abs(hi))
        cols = cols[diff > np.maximum(tol, floor)]
        if cols.size == 0:
            break
        g *= 2
    for j in cols:
        where = ("integrate_cauchy" if len(vals) == 1
                 else f"integrate_cauchy (integral {j} of {len(vals)})")
        warnings.warn(AccuracyWarning(
            f"{where}: tolerance missed after {_DOUBLINGS} rule doublings; "
            f"estimate {errs[j]:.3e}", float(errs[j]), int(j)), stacklevel=2)
    return vals, errs
