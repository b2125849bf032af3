"""Panelized complex contour quadrature.

Contours are oriented chains of straight panels (infinite rays are clipped
to finite panels before integration by :func:`truncate_rays`).  Single and
double contour integrals are evaluated by Gauss-Legendre panels refined
level by level, one batched integrand call per level (:func:`_refine`), with
error estimates that include a round-off floor.  :func:`integrate_single`
also takes a batch of B integrands on one contour and keeps every
integral's tolerance, refinement, estimate and warning its own.  Either
integrator calls the integrand on at most ``_CHUNK`` points at a time.  A
double integral is a tensor rule over every panel pair, so the two contours
must not meet: an integrand that explodes where they nearly touch is
rejected as an undeclared contour crossing.  :func:`polar_cell` integrates an integrable
``1/(s - c*t)``-type singularity over a square; the saddle backend's
coincident-saddle blocks use it.

Integrands must be numpy-vectorized: they are called with broadcasted
complex arrays and must evaluate elementwise (a batched single integrand
also gets the integral index of each row of points).
"""

from __future__ import annotations

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
    "gl_unit",
    "polar_cell",
]


class GeometryError(Exception):
    """Raised for ill-posed contours and integrands: untruncated rays,
    non-decaying envelopes, contours that cross, broken chains, non-finite
    integrand values."""


class AccuracyWarning(UserWarning):
    """Issued when refinement depth is exhausted before reaching tolerance.

    The warning's ``estimate`` attribute carries the best error estimate and
    ``index`` the integral of a batch it belongs to (0 for a single one).
    """

    def __init__(self, message: str, estimate: float, index: int = 0):
        super().__init__(message)
        self.estimate = estimate
        self.index = index


@dataclass(frozen=True)
class QuadOptions:
    """Tuning knobs shared by all integration routines."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    nodes_per_panel: int = 32
    max_refine_depth: int = 12
    ray_truncation_budget: float = 60.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "nodes_per_panel",
                     "max_refine_depth", "ray_truncation_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"QuadOptions.{name} must be positive")


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


def refine_panels(contour: Contour, envelope=None, *, max_len: float = 1.0,
                  max_env_var: float = 8.0) -> Contour:
    """Pre-split panels for quadrature efficiency.

    Panels are subdivided to length at most ``max_len`` and, when an
    envelope function is supplied, further until the envelope variation
    across each panel is at most ``max_env_var`` (so the integrand changes
    by at most ``e**max_env_var`` per panel).
    """
    if not contour.is_finite:
        raise GeometryError("refine_panels requires a finite contour")

    def need_split(p: StraightArc) -> bool:
        if p.length > max_len:
            return True
        if envelope is not None and p.length > 1e-3:
            ts = np.linspace(0.0, 1.0, 9)
            e = np.asarray(envelope(p.point(ts)), dtype=float)
            if np.max(e) - np.min(e) > max_env_var:
                return True
        return False

    out = []
    for p in contour.panels:
        stack = [(p, 0)]
        while stack:
            q, depth = stack.pop()
            if depth < 24 and need_split(q):
                a, b = q.split(0.5)
                stack.extend([(b, depth + 1), (a, depth + 1)])
            else:
                out.append(q)
    return Contour(panels=tuple(out), truncation_radii=contour.truncation_radii)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules and level-by-level refinement
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def gl_unit(n: int):
    """The ``n``-node Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# Two-level differences cannot resolve below roundoff of the magnitude
# integral; descending further than this floor only multiplies work, and
# every reported estimate includes it.
_ROUNDOFF = 200.0 * np.finfo(float).eps

# Integrand points per call of the double rule, whatever the number of panel
# pairs: bounds the node and value arrays held at once.
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
        if depth >= opts.max_refine_depth and not ok.all():
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


def polar_cell(g, r: float, n: int, radial=None) -> complex:
    """Integral of ``g(s, t)`` over the square ``[-r, r]**2`` by the polar
    substitution ``s = rho*cos(theta)``, ``t = rho*sin(theta)``.

    The Jacobian ``rho`` turns an integrable ``1/(s - c*t)``-type
    singularity at the origin into a bounded smooth integrand.  ``theta`` is
    integrated per octant with ``n`` Gauss-Legendre nodes, so the radial
    limit ``R(theta)`` is smooth on each piece, and all eight octants go to
    ``g`` in one vectorized call.  ``radial`` gives nodes and weights for
    ``rho / R(theta)`` on [0, 1]; the default is one ``n``-node panel.
    """
    xu, wu = gl_unit(n)
    th = ((np.arange(8)[:, None] + xu[None, :]) * (np.pi / 4)).ravel()
    wth = np.tile(wu * (np.pi / 4), 8)
    R = r / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
    ru, rw = radial if radial is not None else (xu, wu)
    rho = ru[:, None] * R[None, :]
    vals = np.asarray(g(rho * np.cos(th), rho * np.sin(th)))
    return complex(np.sum(wth * R * (rw @ (vals * rho))))


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
