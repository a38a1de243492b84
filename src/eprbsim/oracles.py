"""Analytic and quadrature reference values used to validate the simulator.

``gamma_limit`` is the small-window limit of the same-bin coincidence
frequency, ``<(1 - min(c1^2, c2^2))^(-d/2)>`` over hidden spins ``s`` with
``c_i = s . a_i``.  By parts in ``t`` it is ``1 + int g'(t) P(min(c1^2, c2^2)
> t) dt``, ``g(t) = (1 - t)^(-d/2)``, and the event is four disjoint lenses
of polar caps of radius ``acos(sqrt(t))``, two with centres ``theta`` apart
and two ``pi - theta`` apart.  Lens areas have a closed form, so one 1-D
integral remains.  The coefficient diverges exactly for colinear settings at
``d >= 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .errors import QuadratureError
from .model import Setting, check_exponent

_COLINEAR_TOL = 1e-9


def quantum_E(a1: Setting, a2: Setting) -> float:
    """Two-particle expectation of the ideal spin singlet: ``-a1 . a2``."""
    return -a1.dot(a2)


def raw_sign_E(theta: float) -> float:
    """Correlation of the bare sign outcomes with no window selection.

    For ``s`` uniform on the sphere, ``sign(s . a1) * sign(-s . a2)``
    averages to ``-(1 - 2*theta/pi)``; this is the simulator's limit when
    every trial is accepted.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    return -(1.0 - 2.0 * theta / math.pi)


@dataclass(frozen=True)
class QuantumMax:
    """The quantum maximum and a planar angle quadruple attaining it."""

    value: float
    angles: tuple[float, float, float, float]  # (a, b, c, d) polar angles


def smax_quantum() -> QuantumMax:
    """Quantum maximum of the combination with its maximizing quadruple.

    At the returned angles the singlet correlations give a combination of
    magnitude ``2*sqrt(2)``; perturbing any single angle strictly decreases
    that magnitude.
    """
    return QuantumMax(value=2.0 * math.sqrt(2.0),
                      angles=(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4))


def _half_lens(r: float, h: float) -> float:
    """Half the lens of two caps of radius ``r`` ``2 h`` apart: one cap beyond their bisector.

    ``sin(r - h) sin(r + h)`` for ``sin^2 r - sin^2 h``, ``2 sin^2(r / 2)`` for
    ``1 - cos r`` and ``atan2`` keep full precision near tangency and for small caps.
    """
    if h >= r:
        return 0.0
    q = math.sqrt(math.sin(r - h) * math.sin(r + h))
    sh, cr, vers = math.sin(h), math.cos(r), 2.0 * math.sin(r / 2) ** 2
    return 2.0 * (vers * math.atan2(q, sh) - cr * math.atan2(q * sh * vers, q * q + sh * sh * cr))


def gamma_limit(theta: float, d: float) -> float:
    """Small-window limit of ``Gamma * T0 / W`` for settings ``theta`` apart.

    ``math.inf`` where it diverges (colinear settings with ``d >= 2``).
    Raises ValueError for ``theta`` outside ``[0, pi]`` or ``d`` not a finite
    real >= 0, and :class:`QuadratureError` naming ``theta`` and ``d`` if the
    lens quadrature does not converge or the coefficient overflows float64.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    check_exponent(d)
    psi = min(theta, math.pi - theta)
    if psi < _COLINEAR_TOL and d < 2.0:
        # c1^2 = c2^2, c uniform on [-1, 1]: int_0^1 (1-c^2)^(-d/2) dc
        return math.sqrt(math.pi) / 2 * math.gamma(1 - d / 2) / math.gamma(1.5 - d / 2)
    if psi == 0.0:  # that integral diverges at d >= 2
        return math.inf

    def integrand(u: float) -> float:
        # g'(t) P(min(c1^2, c2^2) > t) dt, at t = cos^2(alpha), alpha = e^u
        alpha = math.exp(u)
        p = (_half_lens(alpha, theta / 2) + _half_lens(alpha, (math.pi - theta) / 2)) / math.pi
        return d * alpha * math.cos(alpha) * math.sin(alpha) ** (-d - 1.0) * p

    try:
        # the lenses vanish for alpha <= psi / 2
        val, err, _, *rest = integrate.quad(
            integrand, math.log(psi / 2), math.log(math.pi / 2),
            epsabs=0.0, epsrel=1e-11, full_output=True)
    except (OverflowError, ValueError):  # ValueError: psi / 2 underflows to 0
        raise QuadratureError(f"limit overflows float64 at theta={theta!r}, d={d!r}") from None
    val += 1.0
    if rest or not math.isfinite(val) or err > 1e-4 * val:  # rest: quad's own warning
        raise QuadratureError(f"quadrature did not converge at theta={theta!r}, d={d!r} "
                              f"(value {val!r}, error {err!r})")
    return val
