"""Johansson's extended Airy kernel by scipy quadrature: a test-only oracle
for cross-time ``airy-ext`` values that shares no code with kernelwave.

For ``T1 >= T2``::

    K_J(T1, x; T2, y) = int_0^inf exp(-lam (T1 - T2)) Ai(x + lam) Ai(y + lam) dlam

and for ``T1 < T2`` minus the same integral over ``(-inf, 0]`` (Johansson,
Commun. Math. Phys. 242 (2003) 277-329).  kernelwave's ``airy-ext`` is
``exp(tau1 u - tau2 v + (2/3)(tau1**3 - tau2**3)) K_J(-tau1, u + tau1**2;
-tau2, v + tau2**2)``.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.special import airy

# The integral is cut off where its exponential weight falls below e**-_CUT.
_CUT = 40.0


def johansson_kernel(T1: float, x: float, T2: float, y: float) -> tuple[float, float]:
    """``(K_J(T1, x; T2, y), error bound)``.

    For ``T1 >= T2`` the cut is where both Airy factors have decayed, so
    that ``Ai(x + lam) Ai(y + lam) <= e**-40`` beyond it; for ``T1 < T2`` it
    is where ``exp(-lam (T1 - T2))`` reaches ``e**-40`` (``|Ai| < 0.54``
    bounds the rest).  The bound adds quad's estimate and a bound on the
    tail beyond the cut.
    """
    d = T1 - T2

    def f(lam):
        return math.exp(-lam * d) * airy(x + lam)[0] * airy(y + lam)[0]

    if d >= 0:
        lo, hi, sign = 0.0, max(0.0, (0.75 * _CUT) ** (2 / 3) - min(x, y)), 1.0
        tail = math.exp(-_CUT)
    else:
        lo, hi, sign = _CUT / d, 0.0, -1.0
        tail = 0.54 ** 2 * math.exp(-_CUT) / -d
    val, err = quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)
    return sign * val, err + tail


def airy_ext_oracle(tau1: float, tau2: float, u: float, v: float) -> tuple[float, float]:
    """kernelwave's ``airy-ext`` at ``(tau1, tau2, u, v)`` and its error
    bound, from :func:`johansson_kernel`."""
    scale = math.exp(tau1 * u - tau2 * v + (2 / 3) * (tau1 ** 3 - tau2 ** 3))
    val, err = johansson_kernel(-tau1, u + tau1 ** 2, -tau2, v + tau2 ** 2)
    return scale * val, scale * err
