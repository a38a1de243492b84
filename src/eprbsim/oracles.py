"""Analytic and quadrature reference values used to validate the simulator.

``gamma_limit`` integrates the small-window limit of the coincidence
frequency over the sphere of hidden spin directions:

    lim_{W/T0 -> 0} Gamma * T0 / W  =  <1 / max(r1, r2)>,
    r_i = (1 - (s . a_i)^2)^(d/2),

for the same-bin window.  The integrand's only non-integrable locus is a
common zero of r1 and r2, which exists exactly when the settings are
colinear; there the coefficient diverges for d >= 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import QuadratureError
from .model import Setting

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


def _limit_integrand_factory(theta: float, d: float):
    st, ct = math.sin(theta), math.cos(theta)
    half = d / 2.0

    def inner(u: float) -> float:
        ss = math.sqrt(max(0.0, 1.0 - u * u))

        def f(phi: float) -> float:
            c1 = u
            c2 = st * ss * math.cos(phi) + ct * u
            r1 = max(0.0, 1.0 - c1 * c1) ** half
            r2 = max(0.0, 1.0 - c2 * c2) ** half
            return 1.0 / max(r1, r2)

        # integrand is even in phi: integrate half the period and double
        val, _ = integrate.quad(f, 0.0, math.pi, limit=300,
                                epsabs=1e-12, epsrel=1e-10)
        return 2.0 * val

    return inner


@functools.lru_cache(maxsize=1024)
def gamma_limit(theta: float, d: float) -> float:
    """Small-window limit coefficient of the coincidence frequency.

    Returns ``<1 / max(r1, r2)>`` over the sphere for settings separated by
    ``theta``, i.e. the limit of ``Gamma * T0 / W`` for the same-bin window.
    Returns ``math.inf`` where the coefficient diverges (colinear settings
    with ``d >= 2``).  Raises :class:`QuadratureError` if the adaptive rule
    does not converge.  Values are memoized per ``(theta, d)``.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    if d < 0:
        raise ValueError("d must be >= 0")
    colinear = theta < _COLINEAR_TOL or math.pi - theta < _COLINEAR_TOL
    if colinear and d >= 2.0:
        return math.inf

    inner = _limit_integrand_factory(theta, d)
    with np.errstate(all="ignore"):
        val, err, info, *rest = integrate.quad(
            inner, -1.0, 1.0, limit=300, epsabs=1e-10, epsrel=1e-8,
            full_output=True,
        )
    if rest:  # an explanation string accompanies non-convergence
        raise QuadratureError(f"sphere quadrature did not converge: {rest[-1]}")
    val /= 4.0 * math.pi
    if not math.isfinite(val) or (err / max(abs(val), 1.0)) > 1e-4:
        raise QuadratureError(
            f"sphere quadrature unreliable at theta={theta:.6g}, d={d:.6g} "
            f"(value {val!r}, error {err!r})")
    return val

