"""Phase functions, saddle data, and steepest-descent path machinery.

A *phase* is a polynomial ``f`` whose exponential ``exp(±s f(z))`` drives the
contour integrals evaluated elsewhere in the package.  This module knows how
to

* describe the two built-in phases (cubic and quartic) together with their
  saddle points,
* sample a level set of ``Im f`` for plotting,
* construct *branch paths*: analytic reparameterizations ``x -> zeta(x)`` of
  a descent curve defined by ``f(zeta(x)) - f(saddle) = sigma * x**2``,
  continued globally in the real parameter ``x`` by dense Newton marching
  seeded from a truncated power series at the saddle.  The march runs in
  Python scalar arithmetic: Horner on derivative coefficients that each
  :class:`PhaseSpec` derives once.  Evaluation returns ``zeta`` and, in the
  same pass, ``zeta'``,
* state, in one table (:data:`TRANSITION_TABLE`), the constants of the two
  transitions that more than one module reads.

The branch paths are what the saddle-point integrators consume: they turn
oscillatory contour integrals into real-line Gaussian integrals with smooth
amplitudes.  They are the steepest descent/ascent curves through a saddle,
so ``kernelwave trace`` samples them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .cseries import (
    BranchError,
    TruncatedSeries1,
    solve_branch,
)

__all__ = [
    "PhaseSpec",
    "make_phase",
    "export_level_curve",
    "BranchPath",
    "make_branch_path",
    "Transition",
    "TRANSITION_TABLE",
    "airy_branch_paths",
    "pearcey_branch_paths",
]


# ---------------------------------------------------------------------------
# Phase descriptors
# ---------------------------------------------------------------------------


def _horner(c, z):
    """``sum(c[k] * z**k)`` by the recurrence of numpy's ``polyval``.

    Python scalars stay Python scalars, which keeps scalar loops cheap."""
    if not isinstance(z, (int, float, complex)):
        z = np.asarray(z)
    acc = c[-1] + 0 * z
    for a in c[-2::-1]:
        acc = a + acc * z
    return acc


def _derivative(c: tuple) -> tuple:
    return tuple(k * c[k] for k in range(1, len(c))) or (0.0,)


@dataclass(frozen=True)
class PhaseSpec:
    """A polynomial phase together with its saddle data.

    Attributes
    ----------
    coeffs:
        Ascending coefficients of ``f``.
    saddles:
        Roots of ``f'`` relevant to the steepest-descent decomposition.

    The coefficients of ``f'`` and ``f''`` are derived once, so ``f``,
    ``df`` and ``ddf`` are plain Horner evaluations.
    """

    coeffs: tuple[complex, ...]
    saddles: tuple[complex, ...]
    dcoeffs: tuple = field(init=False, repr=False, compare=False)
    ddcoeffs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dcoeffs", _derivative(self.coeffs))
        object.__setattr__(self, "ddcoeffs", _derivative(self.dcoeffs))

    def f(self, z):
        return _horner(self.coeffs, z)

    def df(self, z):
        return _horner(self.dcoeffs, z)

    def ddf(self, z):
        return _horner(self.ddcoeffs, z)


def make_phase(kind: str) -> PhaseSpec:
    """Build the :class:`PhaseSpec` of one of the two built-in phases.

    ``"airy-cubic"`` is ``f(z) = z**3/3 + z`` with saddles ``±i``;
    ``"pearcey-quartic"`` is ``f(z) = z**4/4 + z`` with saddles
    ``exp(±i*pi/3)`` and ``-1``.
    """
    if kind == "airy-cubic":
        c = (0.0, 1.0, 0.0, 1.0 / 3.0)
        saddles = (1j, -1j)
    elif kind == "pearcey-quartic":
        c = (0.0, 1.0, 0.0, 0.0, 0.25)
        saddles = (np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3), -1.0 + 0j)
    else:
        raise ValueError(f"unknown phase kind {kind!r}")
    return PhaseSpec(coeffs=c, saddles=tuple(map(complex, saddles)))


# ---------------------------------------------------------------------------
# Level curves
# ---------------------------------------------------------------------------


_LEVEL_GRID = 400  # grid points per side of export_level_curve's window


def export_level_curve(
    phase: PhaseSpec,
    level_im: float,
    *,
    window: tuple[float, float, float, float] = (-4.0, 4.0, -4.0, 4.0),
) -> list[np.ndarray]:
    """Sample the level set ``Im f(z) = level_im`` inside a window.

    Returns a list of point arrays, one per grid column that the curve
    crosses.  Each point sits between two vertical neighbours of the
    ``_LEVEL_GRID``-by-``_LEVEL_GRID`` (400) grid where ``Im f - level_im``
    changes sign, placed by one linear interpolation.  Intended for
    plotting, not for quadrature.
    """
    x0, x1, y0, y1 = window
    xs = np.linspace(x0, x1, _LEVEL_GRID)
    ys = np.linspace(y0, y1, _LEVEL_GRID)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    G = np.imag(phase.f(Z)) - level_im
    segments: list[np.ndarray] = []
    sign_flip = np.signbit(G[:-1, :]) != np.signbit(G[1:, :])
    for j in range(_LEVEL_GRID):
        rows = np.nonzero(sign_flip[:, j])[0]
        if rows.size == 0:
            continue
        pts = []
        for i in rows:
            za, zb = Z[i, j], Z[i + 1, j]
            ga, gb = G[i, j], G[i + 1, j]
            zm = za + (zb - za) * (0.0 - ga) / (gb - ga)
            pts.append(zm)
        segments.append(np.asarray(pts, dtype=complex))
    return segments


# ---------------------------------------------------------------------------
# Branch paths: analytic descent parameterizations continued globally
# ---------------------------------------------------------------------------


@dataclass
class BranchPath:
    """Global solution ``zeta(x)`` of ``f(zeta(x)) - level = sigma * x**2``.

    ``zeta`` is pinned at ``zeta(0) = center`` (a saddle of ``f``) with
    prescribed first derivative ``first_coeff`` fixing the branch.  Near the
    saddle the map is evaluated from a truncated power series; beyond a small
    switch radius it is continued by dense Newton marching along the real
    axis (a tangent predictor and four Newton steps per node, in Python
    scalar Horner arithmetic on the phase's cached derivative coefficients)
    and evaluated from the cached table by Newton steps off the nearest node
    (the quadratic defining equation makes each step contractive far from
    coincident saddles).

    :meth:`zeta` evaluates the map, and with ``with_derivative=True`` also
    ``zeta'(x)`` in the same pass: ``2*sigma*x / f'(zeta(x))`` away from the
    saddle and the series derivative near it.  :meth:`dzeta` returns the
    derivative alone.
    """

    phase: PhaseSpec
    center: complex
    sigma: int
    first_coeff: complex
    series: TruncatedSeries1
    x_max: float = 40.0
    _table_x: np.ndarray = field(init=False, repr=False)
    _table_pos: np.ndarray = field(init=False, repr=False)
    _table_neg: np.ndarray = field(init=False, repr=False)

    x_switch: ClassVar[float] = 0.12  # series radius: the table starts here
    dx: ClassVar[float] = 0.01  # table spacing in x

    def __post_init__(self):
        self.level = complex(self.phase.f(self.center))
        self._dseries = np.polynomial.polynomial.polyder(self.series.coeffs)
        self._build_table()

    # -- construction ------------------------------------------------------

    def _newton_refine(self, x, z, iters: int = 4):
        target = self.level + self.sigma * x**2
        for _ in range(iters):
            fz = self.phase.f(z)
            dfz = self.phase.df(z)
            z = z - (fz - target) / dfz
        return z

    def _march(self, direction: int) -> np.ndarray:
        """March from the series edge outwards in steps of ``dx``."""
        n = int(np.ceil((self.x_max - self.x_switch) / self.dx))
        xs = (self.x_switch * direction + direction * self.dx * np.arange(n + 1)).tolist()
        df = self.phase.df
        z = self._newton_refine(xs[0], complex(self.series.eval(xs[0])))
        out = [z]
        for x_prev, x in zip(xs[:-1], xs[1:]):
            # Predictor: tangent step using zeta' = 2 sigma x / f'(zeta).
            pred = z + (2.0 * self.sigma * x_prev / df(z)) * (x - x_prev)
            z = self._newton_refine(x, pred)
            out.append(z)
        return np.asarray(out, dtype=complex)

    def _build_table(self) -> None:
        n = int(np.ceil((self.x_max - self.x_switch) / self.dx))
        self._table_x = self.x_switch + self.dx * np.arange(n + 1)
        self._table_pos = self._march(+1)
        self._table_neg = self._march(-1)

    # -- evaluation --------------------------------------------------------

    def zeta(self, x, with_derivative: bool = False):
        """Evaluate ``zeta(x)`` for real array ``x`` (vectorized); with
        ``with_derivative`` return ``(zeta(x), zeta'(x))`` from one pass."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        z = np.empty(x.shape, dtype=complex)
        dz = np.empty(x.shape, dtype=complex) if with_derivative else None
        inner = np.abs(x) <= self.x_switch
        if inner.any():
            # The truncated series is contractive well inside its radius of
            # convergence, so it is already at machine accuracy here; Newton
            # would divide by f'(center) = 0 at the saddle itself.
            xi = x[inner]
            z[inner] = self.series.eval(xi)
            if with_derivative:
                dz[inner] = np.polynomial.polynomial.polyval(xi, self._dseries)
        outer = ~inner
        if outer.any():
            xo = x[outer]
            ax = np.abs(xo)
            if np.any(ax > self._table_x[-1]):
                raise BranchError(
                    f"branch path evaluated beyond table range {self._table_x[-1]:.1f}"
                )
            idx = np.clip(
                np.round((ax - self.x_switch) / self.dx).astype(int),
                0,
                len(self._table_x) - 1,
            )
            seed = np.where(xo >= 0, self._table_pos[idx], self._table_neg[idx])
            zo = self._newton_refine(xo, seed, iters=3)
            z[outer] = zo
            if with_derivative:
                dz[outer] = 2.0 * self.sigma * xo / self.phase.df(zo)
        if scalar:
            z, dz = z[0], dz if dz is None else dz[0]
        return (z, dz) if with_derivative else z

    def dzeta(self, x) -> np.ndarray:
        """Evaluate ``zeta'(x)`` (vectorized).

        Away from the saddle this is ``2*sigma*x / f'(zeta(x))``; inside the
        series radius the differentiated series is used (regular limit
        ``zeta'(0) = first_coeff``).
        """
        return self.zeta(x, with_derivative=True)[1]

    def residual(self, x) -> np.ndarray:
        """Defining-equation residual ``f(zeta(x)) - level - sigma x**2``."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.phase.f(self.zeta(x)) - self.level - self.sigma * x**2


# Order of the branch series at the saddle, which serves |x| <= x_switch.
_BRANCH_ORDER = 16


def make_branch_path(
    phase: PhaseSpec,
    center: complex,
    sigma: int,
    first_coeff: complex,
    *,
    x_max: float = 40.0,
) -> BranchPath:
    """Solve the branch series at ``center`` to order ``_BRANCH_ORDER`` (16)
    and wrap it in a BranchPath."""
    level = complex(phase.f(center))
    series = solve_branch(phase, center, sigma, level, first_coeff, _BRANCH_ORDER)
    return BranchPath(
        phase=phase,
        center=complex(center),
        sigma=sigma,
        first_coeff=complex(first_coeff),
        series=series,
        x_max=x_max,
    )


# ---------------------------------------------------------------------------
# The two transitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    """The constants of one transition that more than one module reads.

    The rescaled kernel approaches the segment kernel ``kernel`` with
    corrections that decay like ``a**(-beta*nu)``.  ``s = a**beta`` is the
    Gaussian scale of the saddle blocks, and the mixed saddle pairing carries
    the phase ``exp(i*sign*theta*s)``.  ``S`` and ``T`` are the ``(sigma,
    first coefficient)`` of the two branch paths through the governing
    saddle, the first saddle of ``phase``.
    """

    kernel: str
    phase: PhaseSpec
    S: tuple[int, complex]
    T: tuple[int, complex]
    beta: float
    theta: float
    sign: int

    @property
    def saddle(self) -> complex:
        return self.phase.saddles[0]

    def scale(self, a):
        """``s = a**beta``, checked: a ValueError names ``a`` unless ``s``
        (each ``s``, for an array) is a finite, positive, normal float."""
        try:
            s = a ** self.beta
        except OverflowError:
            s = np.inf
        # A float a gives a bool and skips np.all: every correction term calls this.
        ok = (s >= _TINY) & (s < np.inf)
        if not (ok is True or np.all(ok)):
            raise ValueError(f"a={a!r} puts a**{self.beta:g} outside the normal floats")
        return s

    def oscillation(self, a):
        """``exp(i*sign*theta*a**beta)``, the mixed pairing's phase factor."""
        return np.exp(1j * self.sign * self.theta * self.scale(a))


_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_PEARCEY_A1 = np.sqrt(2.0 / 3.0) * np.exp(2j * np.pi / 3)

TRANSITION_TABLE = {
    "airy-to-s1": Transition(
        "s1", make_phase("airy-cubic"), (-1, np.exp(1j * np.pi / 4)),
        (+1, np.exp(3j * np.pi / 4)), 1.5, 4.0 / 3.0, +1),
    "pearcey-to-s2": Transition(
        "s2", make_phase("pearcey-quartic"), (+1, _PEARCEY_A1),
        (-1, 1j * _PEARCEY_A1), 4.0 / 3.0, 0.75 * np.sqrt(3.0), -1),
}


def _branch_paths(transition: str) -> dict[str, BranchPath]:
    t = TRANSITION_TABLE[transition]
    return {name: make_branch_path(t.phase, t.saddle, *getattr(t, name))
            for name in ("S", "T")}


@lru_cache(maxsize=4)
def airy_branch_paths() -> dict[str, BranchPath]:
    """The two cubic-phase branch paths used by the saddle integrators.

    ``P_S`` is the descent parameterization through the upper saddle ``i``,
    running from ``-infinity`` up to ``infinity * exp(i*pi/3)`` as ``x``
    goes ``-inf -> +inf``.  ``P_T`` is the same analytic branch evaluated on
    the imaginary axis of the parameter, realized as its own real-parameter
    (ascent) path; it runs from ``+infinity`` to ``infinity * exp(2i*pi/3)``.
    """
    return _branch_paths("airy-to-s1")


@lru_cache(maxsize=4)
def pearcey_branch_paths() -> dict[str, BranchPath]:
    """The two quartic-phase branch paths through the saddle exp(i*pi/3).

    ``P_S`` is the ascent parameterization, running from ``+infinity`` to
    ``i*infinity``; ``P_T`` the descent one, running from ``infinity *
    exp(i*pi/4)`` to ``infinity * exp(3i*pi/4)``.  Conjugate-saddle paths
    are obtained from these by reflection, not stored separately.
    """
    return _branch_paths("pearcey-to-s2")
