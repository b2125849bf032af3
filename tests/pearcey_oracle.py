"""The equal-time extended Pearcey kernel by scipy quadrature: a test-only
oracle for ``pearcey-ext`` values that shares no code with kernelwave.

kernelwave's ``pearcey-ext`` at ``tau1 = tau2 = tau`` is the double integral
``(2 pi i)**-2 int int exp(p(z) + q(w)) / (z - w) dz dw`` with
``p(z) = -z**4/4 - tau z**2/2 - v z`` and ``q(w) = w**4/4 + tau w**2/2 + u w``.
Since ``u - v = p'(z) + q'(w) + (z - w)(z**2 + z w + w**2 + tau)`` and the
``p'`` and ``q'`` terms integrate to 0 by parts (``(d/dz + d/dw) 1/(z - w)
= 0``), the double integral splits into single ones (Tracy & Widom, *The
Pearcey process*, Commun. Math. Phys. 263 (2006) 381-400)::

    K(u, v) = (P2 Q0 + P1 Q1 + P0 Q2 + tau P0 Q0) / ((2 pi i)**2 (u - v))

for ``u != v``, with ``P_k = int z**k exp(p(z)) dz`` up the imaginary axis
and ``Q_k = int w**k exp(q(w)) dw`` over four rays from 0: in along
``e^{i pi/4}``, out along ``e^{-i pi/4}``, in along ``e^{-3i pi/4}`` and out
along ``e^{3i pi/4}``.
"""

from __future__ import annotations

import cmath
import math

from scipy.integrate import quad

# Every integral is cut at 12, where its integrand is below e**-5000 for
# |tau| <= 1 and |u|, |v| <= 3 (the quartic term alone is -5184).
_CUT = 12.0
_TOL = dict(epsabs=1e-14, epsrel=1e-12, limit=400)
# (direction, +1 for out along it or -1 for in) of the four omega rays.
_RAYS = [(cmath.exp(1j * math.pi / 4), -1), (cmath.exp(-1j * math.pi / 4), 1),
         (cmath.exp(-3j * math.pi / 4), -1), (cmath.exp(3j * math.pi / 4), 1)]


def _p(k: int, tau: float, v: float) -> tuple[complex, float]:
    """``P_k`` on ``z = i s`` and quad's estimate:
    ``i**(k+1) 2 int_0^inf s**k exp(-s**4/4 + tau s**2/2) c_k(v s) ds`` with
    ``c_k = cos`` for even ``k`` and ``-i sin`` for odd ``k`` (the other half
    of ``exp(-i v s)`` is odd in ``s``)."""
    weight, factor = ("cos", 1.0) if k % 2 == 0 else ("sin", -1j)
    val, err = quad(lambda s: s ** k * math.exp(-s ** 4 / 4 + tau * s * s / 2), 0.0, _CUT,
                    weight=weight, wvar=v, **_TOL)
    scale = 2 * 1j ** (k + 1) * factor
    return scale * val, 2 * err


def _q(k: int, tau: float, u: float) -> tuple[complex, float]:
    """``Q_k`` and quad's estimate, as the sum over the four rays, each
    ``+/- int_0^inf (r d)**k exp(q(r d)) d dr`` for its direction ``d``."""
    total, bound = 0j, 0.0
    for d, sign in _RAYS:
        def f(r, d=d, sign=sign):
            w = r * d
            return sign * d * w ** k * cmath.exp(w ** 4 / 4 + tau * w * w / 2 + u * w)

        re, re_err = quad(lambda r: f(r).real, 0.0, _CUT, **_TOL)
        im, im_err = quad(lambda r: f(r).imag, 0.0, _CUT, **_TOL)
        total += re + 1j * im
        bound += re_err + im_err
    return total, bound


def pearcey_ext_oracle(tau: float, u: float, v: float) -> tuple[complex, float]:
    """kernelwave's ``pearcey-ext`` at ``(tau, tau, u, v)``, ``u != v``, and
    a bound on its error: quad's estimates propagated to first order.  The
    value is complex as computed; its imaginary part should vanish to
    within the bound."""
    P = [_p(k, tau, v) for k in range(3)]
    Q = [_q(k, tau, u) for k in range(3)]
    terms = [(1.0, 2, 0), (1.0, 1, 1), (1.0, 0, 2), (tau, 0, 0)]
    num = sum(c * P[i][0] * Q[j][0] for c, i, j in terms)
    num_err = sum(abs(c) * (abs(P[i][0]) * Q[j][1] + P[i][1] * abs(Q[j][0]))
                  for c, i, j in terms)
    den = (2j * math.pi) ** 2 * (u - v)
    return num / den, num_err / abs(den)
