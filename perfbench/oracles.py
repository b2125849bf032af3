"""Independent reference values, computed with mpmath at 30 digits.

Imported only after the measured process has read its peak memory, so the
oracle library stays out of ``peak_rss_mb``.  None of these formulas calls
kernelwave.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

EPS = 2.220446049250313e-16


def airy_equal_time(tau: float, u: float, v: float) -> float:
    """Extended Airy kernel at equal times:
    ``exp(tau (u - v)) * K_Ai(u + tau^2, v + tau^2)``."""
    t, x, y = mp.mpf(tau), mp.mpf(u), mp.mpf(v)
    g = mp.exp(t * (x - y))
    x, y = x + t * t, y + t * t
    if x == y:
        k = mp.airyai(x, 1) ** 2 - x * mp.airyai(x) ** 2
    else:
        k = (mp.airyai(x) * mp.airyai(y, 1) - mp.airyai(x, 1) * mp.airyai(y)) / (x - y)
    return float(g * k)


def sine_equal_time(u: float, v: float) -> float:
    """Extended sine kernel at equal times: ``sin(pi d) / (pi d)``, d = u - v."""
    d = mp.mpf(u) - mp.mpf(v)
    return 1.0 if d == 0 else float(mp.sin(mp.pi * d) / (mp.pi * d))


def sine_cross_time(tau1: float, tau2: float, u: float, v: float) -> tuple[float, float]:
    """Extended sine kernel and the magnitude integral behind it.

    The kernel is ``(1/2pi) int_{-pi}^{pi} exp(-dt w^2/2 + i dx w) dw``
    minus the heat term ``(2 pi dt)^-1/2 exp(-dx^2/(2 dt))`` for dt > 0.
    The magnitude is the same expression with the integrand replaced by its
    modulus and the heat term added: the scale that bounds double-precision
    round-off of the kernel.
    """
    dt, dx = mp.mpf(tau1) - mp.mpf(tau2), mp.mpf(u) - mp.mpf(v)
    val = mp.quad(lambda w: mp.exp(-dt * w * w / 2) * mp.cos(dx * w), [0, mp.pi]) / mp.pi
    mag = mp.quad(lambda w: mp.exp(-dt * w * w / 2), [0, mp.pi]) / mp.pi
    if dt > 0:
        heat = mp.exp(-dx * dx / (2 * dt)) / mp.sqrt(2 * mp.pi * dt)
        val -= heat
        mag += heat
    return float(val), float(mag)


def fluctuation(transition: str, u: float, v: float, tau1: float, tau2: float,
                a: float) -> tuple[float, float]:
    """Closed-form leading correction of the rescaled kernel around S1 (Airy)
    or S2 (quartic), the nu = 1 term of the expansion, and its condition
    scale: the sum of |coefficient| * (1 + |argument|) over its trigonometric
    terms, which bounds round-off of a double-precision evaluation."""
    u, v, t1, t2, a = (mp.mpf(x) for x in (u, v, tau1, tau2, a))
    if transition == "airy-to-s1":
        terms = ((u + v, mp.cos, u - v), (-2 * (t1 + t2), mp.sin, u - v),
                 (1, mp.cos, mp.mpf(4) / 3 * a ** mp.mpf(1.5) - (u + v)))
        scale = -mp.exp(-(t1 - t2)) / (4 * mp.pi * a ** mp.mpf(1.5))
    else:
        s3 = mp.sqrt(3)
        psi = s3 / 2 * (u - v + t1 - t2)
        terms = (((u + v) / 2 - (t1 + t2), mp.sin, psi),
                 (s3 * ((u + v) / 2 + (t1 + t2)), mp.cos, psi),
                 (-2 / s3, mp.cos, 3 * s3 / 4 * a ** (mp.mpf(4) / 3) + s3 / 2 * (u + v + t1 + t2)))
        scale = mp.exp((u - v) / 2 - (t1 - t2) / 2) / (6 * mp.pi * a ** (mp.mpf(4) / 3))
    value = scale * sum(c * trig(x) for c, trig, x in terms)
    cond = abs(scale) * sum(abs(c) * (1 + abs(x)) for c, _, x in terms)
    return float(value), float(cond)
