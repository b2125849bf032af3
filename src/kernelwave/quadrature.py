"""Panelized complex contour quadrature.

Contours are oriented chains of straight panels (infinite rays are clipped
to finite panels before integration by :func:`truncate_rays`).  Single and
double contour integrals are evaluated by Gauss-Legendre panels refined
level by level, one batched integrand call per level (:func:`_refine`), with
error estimates that include a round-off floor.  Double integrals support
declared *crossings*: points where the two contours intersect transversally
and the integrand carries an integrable ``1/(zeta - omega)``-type
singularity.  A polar substitution centered at each crossing (a Duffy-type
cell) removes the singularity analytically (:func:`polar_cell`, which the
saddle backend's coincident-saddle blocks share); all remaining panel pairs
are regular tensor products.

Integrands must be numpy-vectorized: they are called with broadcasted
complex arrays and must evaluate elementwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
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
    """Raised for ill-posed contours: untruncated rays, non-decaying
    envelopes, tangential or undeclared crossings, broken chains."""


class AccuracyWarning(UserWarning):
    """Issued when refinement depth is exhausted before reaching tolerance.

    The warning's ``estimate`` attribute carries the best error estimate.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadOptions:
    """Tuning knobs shared by all integration routines."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    nodes_per_panel: int = 32
    max_refine_depth: int = 12
    ray_truncation_budget: float = 60.0
    duffy_radius: float = 0.3

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "nodes_per_panel",
                     "max_refine_depth", "ray_truncation_budget", "duffy_radius"):
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
    """Oriented chain of panels with optionally declared crossing points.

    ``crossings`` lists points where *another* contour is known to
    intersect this one; panels are split so every crossing sits exactly on
    a panel boundary (see :meth:`crossing_markers`).
    """

    panels: tuple
    crossings: tuple = ()
    truncation_radii: tuple = ()

    def __post_init__(self):
        panels = tuple(self.panels)
        # Split straight panels so each declared crossing is a boundary.
        for zc in self.crossings:
            new = []
            for p in panels:
                if isinstance(p, StraightArc) and p.length > 0:
                    d = p.zb - p.za
                    t = ((zc - p.za) / d).real
                    off = abs(p.point(t) - zc)
                    if 1e-12 < t < 1 - 1e-12 and off < 1e-9 * max(1.0, p.length):
                        a, b = p.split(t)
                        new.extend([a, b])
                        continue
                new.append(p)
            panels = tuple(new)
        object.__setattr__(self, "panels", panels)
        object.__setattr__(self, "crossings", tuple(complex(z) for z in self.crossings))
        # Chain continuity.
        for p, q in zip(panels[:-1], panels[1:]):
            pe = p.vertex if isinstance(p, Ray) and p.incoming else getattr(p, "zb", None)
            qs = q.vertex if isinstance(q, Ray) and not q.incoming else getattr(q, "za", None)
            if pe is None or qs is None:
                raise GeometryError("interior ray panels must point outward at chain ends")
            if abs(pe - qs) > 1e-12 * max(1.0, abs(pe)):
                raise GeometryError(f"contour chain broken between {pe} and {qs}")

    @classmethod
    def polyline(cls, points, crossings=()) -> "Contour":
        pts = [complex(z) for z in points]
        panels = tuple(StraightArc(a, b) for a, b in zip(pts[:-1], pts[1:]))
        return cls(panels=panels, crossings=tuple(crossings))

    @classmethod
    def vee(cls, vertex, dir_in, dir_out) -> "Contour":
        """V-shaped contour: in from infinity along ``dir_in``, out along
        ``dir_out`` (both directions point away from the vertex)."""
        return cls(panels=(Ray(vertex, dir_in, incoming=True),
                           Ray(vertex, dir_out, incoming=False)))

    @property
    def is_finite(self) -> bool:
        return all(isinstance(p, StraightArc) for p in self.panels)

    def crossing_markers(self) -> tuple:
        """(panel_index, parameter) of each declared crossing; parameter is
        0.0 (panel start) or 1.0 (end of last panel) -- crossings always sit
        on panel boundaries by construction."""
        markers = []
        for zc in self.crossings:
            hit = None
            for j, p in enumerate(self.panels):
                if isinstance(p, StraightArc):
                    if abs(p.za - zc) < 1e-9:
                        hit = (j, 0.0)
                        break
                    if abs(p.zb - zc) < 1e-9:
                        hit = (j, 1.0)
            if hit is None:
                raise GeometryError(f"declared crossing {zc} not on contour")
            markers.append(hit)
        return tuple(markers)

    def tangents_at(self, zc: complex) -> tuple[complex, complex]:
        """Unit in/out travel directions at a declared boundary point."""
        t_in = t_out = None
        for p in self.panels:
            if isinstance(p, StraightArc) and p.length > 0:
                d = (p.zb - p.za) / p.length
                if abs(p.zb - zc) < 1e-9:
                    t_in = d
                if abs(p.za - zc) < 1e-9:
                    t_out = d
        if t_in is None or t_out is None:
            raise GeometryError(f"point {zc} is not an interior panel boundary")
        return t_in, t_out


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
    return Contour(panels=tuple(panels), crossings=contour.crossings,
                   truncation_radii=tuple(radii))


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
    return Contour(panels=tuple(out), crossings=contour.crossings,
                   truncation_radii=contour.truncation_radii)


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


def _refine(items, measure, split, opts: QuadOptions, label: str,
            offset: complex = 0.0) -> tuple[complex, float]:
    """Sum of ``items`` (panels or panel pairs), refined level by level.

    ``measure(items)`` gives arrays ``(coarse, fine, mag)``: two rules per
    item and the integral of ``|f|`` behind ``fine``.  An item is accepted
    once ``|fine - coarse|`` is within its share of the tolerance or below
    its round-off floor ``_ROUNDOFF * mag``; otherwise ``split(item)``
    replaces it by children that split its share evenly.  Level 0's coarse
    total plus ``offset`` (the part computed elsewhere) sets the tolerance.
    The estimate adds the accepted items' differences, which bound their
    truncation error, plus their floors in quadrature, since the round-off
    of separate items is independent.
    """
    coarse, fine, mag = measure(items)
    # The signed total is what the caller receives; the floor term admits
    # that cancellation across items caps achievable accuracy at ~eps times
    # the largest contributions.
    scale = max(abs(coarse.sum() + offset),
                1e-12 * (np.abs(coarse).sum() + abs(offset)))
    tol = max(opts.abs_tol, opts.rel_tol * scale) / max(1.0, np.sqrt(len(items)))
    share = np.ones(len(items))
    total, err, floors = 0j, 0.0, 0.0
    depth, missed, worst = 0, 0, 0.0
    while True:
        floor = _ROUNDOFF * mag
        diff = np.abs(fine - coarse)
        ok = diff <= np.maximum(tol * share, floor)
        if depth >= opts.max_refine_depth and not ok.all():
            missed, worst = int(np.count_nonzero(~ok)), float(diff[~ok].max())
            ok[:] = True
        total += fine[ok].sum()
        err += diff[ok].sum()
        floors = math.hypot(floors, *floor[ok])
        parents = np.flatnonzero(~ok)
        if parents.size == 0:
            break
        items = [child for i in parents for child in split(items[i])]
        fan = len(items) // parents.size
        share = np.repeat(share[parents] / fan, fan)
        coarse, fine, mag = measure(items)
        depth += 1
    if missed:
        warnings.warn(AccuracyWarning(
            f"{label}: refinement depth exhausted on {missed} panel(s); "
            f"worst residual estimate {worst:.3e}", worst), stacklevel=3)
    return complex(total), float(err + floors)


# ---------------------------------------------------------------------------
# Single contour integrals
# ---------------------------------------------------------------------------


def _nodes(panels, t):
    """Rows of points ``za + t (zb - za)`` per panel, and the ``zb - za``."""
    za = np.array([p.za for p in panels], dtype=complex)
    d = np.array([p.zb - p.za for p in panels], dtype=complex)
    return za[:, None] + t * d[:, None], d


def _panel_rule(f, panels, n: int):
    """Per panel: the ``n``-node Gauss-Legendre value (coarse), the sum of
    the same rule over its two halves (fine) and the halves' integral of
    ``|f|``, from one integrand call."""
    xu, wu = gl_unit(n)
    t = np.concatenate([xu, 0.5 * xu, 0.5 + 0.5 * xu])
    w_halves = 0.5 * np.concatenate([wu, wu])
    z, d = _nodes(panels, t)
    vals = np.asarray(f(z))
    if not np.isfinite(vals).all():
        raise GeometryError("non-finite integrand value on a panel")
    halves = vals[:, n:]
    return (d * (vals[:, :n] @ wu), d * (halves @ w_halves),
            np.abs(d) * (np.abs(halves) @ w_halves))


def integrate_single(f, contour: Contour, opts: QuadOptions = QuadOptions()):
    """Integrate a vectorized integrand along a finite contour.

    Returns ``(value, error_estimate)`` as Python ``complex`` and ``float``.
    The estimate sums the last two-rule differences per panel plus the
    panels' round-off floors (see :func:`_refine`).  A non-finite integrand
    value raises :class:`GeometryError`.  Exhausted refinement issues an
    :class:`AccuracyWarning` carrying the worst panel estimate.
    """
    if not contour.is_finite:
        raise GeometryError("integrate_single requires a truncated contour")
    n = opts.nodes_per_panel
    return _refine(contour.panels, lambda panels: _panel_rule(f, panels, n),
                   lambda p: p.split(0.5), opts, "integrate_single")


# ---------------------------------------------------------------------------
# Double contour integrals with optional crossing regularization
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


def _pair_rule(F, pairs, n: int):
    """Per panel pair: the ``n``-node tensor Gauss-Legendre value of ``F``
    and the same rule's integral of ``|F|``.  ``F`` sees at most ``_CHUNK``
    points per call, and each chunk is checked by :func:`_check_explosion`."""
    xu, wu = gl_unit(n)
    w2 = np.outer(wu, wu).ravel()
    val = np.empty(len(pairs), dtype=complex)
    mag = np.empty(len(pairs))
    step = max(1, _CHUNK // (n * n))
    for k in range(0, len(pairs), step):
        za, da = _nodes([pa for pa, _ in pairs[k:k + step]], xu)
        zb, db = _nodes([pb for _, pb in pairs[k:k + step]], xu)
        vals = np.asarray(F(za[:, :, None], zb[:, None, :]))
        mags = np.abs(vals)
        _check_explosion(mags, za, zb, np.abs(da), np.abs(db))
        val[k:k + step] = da * db * (vals.reshape(len(da), -1) @ w2)
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


def _duffy_cell(F, zc, ea, eb, r, n: int) -> complex:
    """Polar cell of F over the local square s,t in [-r,r]^2 where
    zeta = zc + s*ea, omega = zc + t*eb; returns the contour-measure value
    (already includes the ea*eb direction factors)."""

    def g(s, t):
        vals = np.asarray(F(zc + s * ea, zc + t * eb))
        if not np.all(np.isfinite(vals)):
            raise GeometryError("non-finite integrand inside a crossing cell")
        return vals

    return complex(polar_cell(g, r, n) * ea * eb)


def _split_near_crossing(panels, zc: complex, r: float):
    """Partition panels into (near, far) lists around ``zc``: near is the
    pair of arclength-``r`` stretches through the crossing on its own line,
    far is everything else.  Panels are split as needed."""
    near, far = [], []
    for p in panels:
        d = p.zb - p.za
        L = abs(d)
        if L < 1e-15:
            continue
        e = d / L
        s0 = ((zc - p.za) / e).real  # signed position of zc on the axis
        perp = abs(((zc - p.za) / e).imag)
        if perp > 1e-9 * max(1.0, L):
            far.append(p)  # panel's line does not pass through the crossing
            continue
        cuts = sorted({s for s in (s0 - r, s0, s0 + r) if 1e-12 * L < s < L * (1 - 1e-12)})
        zs = [p.za] + [p.za + s * e for s in cuts] + [p.zb]
        for a, b in zip(zs[:-1], zs[1:]):
            q = StraightArc(a, b)
            if abs(q.point(0.5) - zc) <= r * (1 + 1e-9):
                near.append(q)
            else:
                far.append(q)
    return near, far


def integrate_double(F, cA: Contour, cB: Contour,
                     opts: QuadOptions = QuadOptions()):
    """Tensor-product quadrature of ``F(zeta, omega)`` over two contours.

    Crossings declared on *both* contours (same point) are handled by a
    polar cell that regularizes an integrable ``1/(zeta-omega)``
    singularity; every other panel pair is adaptive tensor Gauss-Legendre,
    ``n`` against ``n + n//2 + 1`` nodes (see :func:`_refine`).  Returns
    ``(value, error_estimate)`` as Python ``complex`` and ``float``.
    """
    if not (cA.is_finite and cB.is_finite):
        raise GeometryError("integrate_double requires truncated contours")
    shared = [za for za in cA.crossings
              if any(abs(za - zb) < 1e-9 for zb in cB.crossings)]

    total = 0.0 + 0.0j
    err = 0.0
    a_far = list(cA.panels)
    b_far = list(cB.panels)
    near_a_blocks: list[list] = []
    near_b_blocks: list[list] = []
    duffy_jobs = []
    for zc in shared:
        r = opts.duffy_radius
        tin_a, tout_a = cA.tangents_at(zc)
        tin_b, tout_b = cB.tangents_at(zc)
        if abs(tin_a - tout_a) > 1e-6 or abs(tin_b - tout_b) > 1e-6:
            raise GeometryError("crossing must lie on locally straight panels")
        ea, eb = tout_a, tout_b
        if abs(np.imag(np.conj(ea) * eb)) < 0.05:
            raise GeometryError("tangential (non-transversal) crossing")
        near_a, a_far = _split_near_crossing(a_far, zc, r)
        near_b, b_far = _split_near_crossing(b_far, zc, r)
        if (sum(p.length for p in near_a) < 2 * r * (1 - 1e-6)
                or sum(p.length for p in near_b) < 2 * r * (1 - 1e-6)):
            raise GeometryError("contour too short for the crossing cell radius")
        near_a_blocks.append(near_a)
        near_b_blocks.append(near_b)
        duffy_jobs.append((zc, ea, eb, r))

    n = opts.nodes_per_panel
    # Partition of all panel pairs: the near_a[j] x near_b[j] square goes to
    # the polar cell; every other combination is a regular tensor product.
    pair_jobs = [(pa, pb) for pa in a_far for pb in b_far]
    for j, na in enumerate(near_a_blocks):
        others = b_far + [pb for k, nb in enumerate(near_b_blocks) if k != j for pb in nb]
        pair_jobs.extend((pa, pb) for pa in na for pb in others)
    for nb in near_b_blocks:
        pair_jobs.extend((pa, pb) for pa in a_far for pb in nb)
    m = n + n // 2 + 1
    for zc, ea, eb, r in duffy_jobs:
        v1 = _duffy_cell(F, zc, ea, eb, r, n)
        v2 = _duffy_cell(F, zc, ea, eb, r, m)
        total += v2
        err += abs(v2 - v1)

    def measure(pairs):
        coarse, _ = _pair_rule(F, pairs, n)
        return (coarse, *_pair_rule(F, pairs, m))

    def split(pair):
        return [(qa, qb) for qa in pair[0].split(0.5) for qb in pair[1].split(0.5)]

    pairs_val, pairs_err = _refine(pair_jobs, measure, split, opts,
                                   "integrate_double", total)
    return total + pairs_val, err + pairs_err
