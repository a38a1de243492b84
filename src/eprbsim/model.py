"""Source and station model: hidden pair variables, local outcomes, time tags.

A trial emits a pair with opposite unit spins ``+s`` / ``-s`` and one delay
fraction per station.  Each station sees only its own setting, its own
particle and its own delay fraction:

* outcome ``x = sign(s_local . a)`` with ``sign(0) := +1``;
* the maximum delay is ``t0_ratio * (1 - (s_local . a)^2)^(d/2)`` in units of
  the tag resolution, which spans ``m = max(1, ceil(...))`` whole resolution
  bins, and the integer time tag is drawn uniformly over those bins as
  ``k = floor(lambda * m)``.

Both laws read only local arguments, so the station-1 event stream is
bit-identical under any change of the station-2 setting and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import uniform_block

#: Draws consumed per trial: s_z, azimuth, lambda_1, lambda_2 (in this order).
DRAWS_PER_TRIAL = 4

_UNIT_TOL = 1e-12
_PRODUCT_D = 8  # largest integer delay exponent the station law takes by products


def _integer(name: str, value, low: int = 1) -> int:
    """``value`` as an ``int``; ValueError naming ``name`` unless an integer >= ``low``.

    Infinities, NaN and ``bool`` are refused (``rng.check_trials`` refuses a
    ``bool`` too).
    """
    try:
        integral = int(value) == value and not isinstance(value, (bool, np.bool_))
    except (OverflowError, ValueError):
        integral = False
    if not integral or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_window(w_bins) -> int:
    """The coincidence window ``w_bins`` as an ``int``; ValueError unless an integer >= 1."""
    return _integer("w_bins", w_bins)


def check_exponent(d) -> float:
    """The delay exponent ``d``; ValueError unless a finite real >= 0."""
    if not (d >= 0 and math.isfinite(d)):
        raise ValueError(f"d must be a finite real >= 0, got {d!r}")
    return d


@dataclass(frozen=True)
class SimParams:
    """The four model parameters plus the master seed.

    w_bins    coincidence window in units of the tag resolution (W/tau >= 1)
    t0_ratio  maximum delay in units of the tag resolution (0 < T0/tau <= 2**53)
    d         delay exponent shaping the angle dependence (real, >= 0)
    n_trials  number of emitted pairs
    seed      64-bit master seed; all randomness derives from it
    """

    w_bins: int
    t0_ratio: float
    d: float
    n_trials: int
    seed: int = 1

    def __post_init__(self):
        # the integer fields are stored as ``int``, whatever integral type came in
        object.__setattr__(self, "w_bins", check_window(self.w_bins))
        # the station law takes bins as float64, exact only up to 2**53
        if not 0 < self.t0_ratio <= 2.0**53:
            raise ValueError(f"t0_ratio must lie in (0, 2**53], got {self.t0_ratio!r}")
        check_exponent(self.d)
        object.__setattr__(self, "n_trials", _integer("n_trials", self.n_trials))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if self.seed >= 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    @property
    def max_tag(self) -> int:
        """Largest time-tag bin any event can occupy."""
        return int(math.ceil(self.t0_ratio))


@dataclass(frozen=True, eq=False)
class Setting:
    """A detector orientation, normalized to a unit 3-vector on construction."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=np.float64).reshape(3)
        norm = float(np.sqrt(v @ v))
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("setting vector must be non-zero and finite")
        v = v / norm
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)
        assert abs(float(np.sqrt(self.vec @ self.vec)) - 1.0) < _UNIT_TOL

    @classmethod
    def from_polar(cls, theta: float) -> "Setting":
        """Unit vector at angle ``theta`` from z-hat in the xz-plane."""
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
        return cls(np.array([math.sin(theta), 0.0, math.cos(theta)]))

    def dot(self, other: "Setting") -> float:
        return float(self.vec @ other.vec)


def _half_power(u, d, tmp=None) -> None:
    """``u ** (d / 2)`` in place on ``u``, for ``u`` in ``[0, 1]``.

    An integer ``d`` up to ``_PRODUCT_D`` is taken as ``sqrt`` and products
    (``u * sqrt(u)`` at ``d = 3``), two to three times faster than
    ``np.power``; ``tmp``, a float buffer of ``u``'s shape, takes the
    partial product, or a new one does.  A product differs from ``np.power``
    in the last ulp of a quarter of the values at ``d = 3``, yet no event
    moved in 10^8 seeded trials at ``d = 3`` and 6 x 10^7 at ``d = 5``
    (``t0_ratio`` 1000 and 1.025).
    """
    if d != int(d) or d > _PRODUCT_D:
        np.power(u, d / 2.0, out=u)
        return
    half, odd = divmod(int(d), 2)
    if half == 0:  # d = 0 or 1
        if odd:
            np.sqrt(u, out=u)
        else:
            u.fill(1.0)
        return
    if half == 1 and not odd:  # d = 2: u itself
        return
    acc = np.empty_like(u) if tmp is None else tmp
    if odd:  # acc = sqrt(u) * u ** (half - 1)
        np.sqrt(u, out=acc)
    else:  # acc = u ** (half - 1)
        np.copyto(acc, u)
        half -= 1
    for _ in range(half - 1):
        acc *= u
    u *= acc


def _station_kernel(c, lam, t0_ratio, d, out=None, tmp=None):
    """Vectorized station law on the projection ``c = s_local . a``; every input local.

    Returns ``(x, k)`` as int8 / int64 arrays.  With ``out = (neg, k)``, a
    bool and an int64 buffer of ``c``'s length, it writes ``[x < 0]`` and
    the tag into them and returns them instead: a tally reads only the sign
    of the outcome.  The delay law runs in place on ``c``, so a caller passes
    a buffer it no longer needs, and ``tmp``, another such float buffer, is
    passed on to ``_half_power``.  Only the value of ``c`` matters, not the
    sign of a zero: neither ``c >= 0``, ``c < 0`` nor ``c * c`` reads it, so
    a projection that drops terms which are ``+-0`` gives the same events.
    """
    if out is None:
        x = (c >= 0.0).view(np.int8) * 2 - 1
        k = np.empty(len(c), dtype=np.int64)
    else:
        x, k = out
        np.less(c, 0.0, out=x)
    c *= c
    np.subtract(1.0, c, out=c)
    np.maximum(c, 0.0, out=c)
    _half_power(c, d, tmp)
    c *= t0_ratio  # max delay, units of tau
    np.ceil(c, out=c)
    np.maximum(c, 1.0, out=c)  # m: whole resolution bins spanned
    c *= lam  # >= 0, so the cast's truncation is the floor
    np.copyto(k, c, casting="unsafe")
    return x, k


def _hidden_arrays(seed: int, first: int, last: int, y: bool = True, out=None, work=None):
    """``(sx, sy, sz, lam1, lam2)`` of trials ``first..last-1``; ``s`` uniform on the sphere.

    The transform runs in place on the draw block: ``sx``, ``sz``, ``lam1``
    and ``lam2`` are its four rows.  ``out``, a float64 array of shape
    ``(DRAWS_PER_TRIAL + 1, last - first)``, holds the block and, in its last
    row, ``rho``; without it both are new arrays.  ``work`` is passed on to
    ``uniform_block``.  ``sy`` is an array of its own, or None when ``y`` is
    false, for a caller whose settings lie in the xz-plane; that caller never
    evaluates ``sin``.
    """
    draws, rho = (None, None) if out is None else (out[:DRAWS_PER_TRIAL], out[DRAWS_PER_TRIAL])
    z, phi, lam1, lam2 = uniform_block(seed, first, last, DRAWS_PER_TRIAL, draws, work)
    z *= 2.0
    z -= 1.0
    phi *= 2.0 * np.pi
    rho = np.multiply(z, z, out=rho)
    np.subtract(1.0, rho, out=rho)
    np.maximum(0.0, rho, out=rho)
    np.sqrt(rho, out=rho)
    sy = None
    if y:
        sy = np.sin(phi)
        sy *= rho
    np.cos(phi, out=phi)
    phi *= rho
    return phi, sy, z, lam1, lam2


class TrialBlock:
    """Both stations' events of one setting pair as read-only columns.

    Trial ``n`` is row ``n`` of ``x1``, ``k1``, ``x2`` and ``k2``.
    """

    def __init__(self, params, x1, k1, x2, k2, hidden=None):
        self.params = params
        self.x1 = x1
        self.k1 = k1
        self.x2 = x2
        self.k2 = k2
        self.hidden = hidden  # (sx, sy, sz, lam1, lam2) or None
        for arr in (x1, k1, x2, k2):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.x1)


def run_pairs(a1: Setting, a2: Setting, params: SimParams,
              keep_hidden: bool = False) -> TrialBlock:
    """Simulate all ``params.n_trials`` emissions for one setting pair.

    Trial ``n`` consumes the substream ``(params.seed, n)``; station 1
    receives ``(+s, lambda1, a1)`` and station 2 ``(-s, lambda2, a2)``.
    Output is bit-identical across runs with equal params, and the station-1
    columns are bit-identical under any change of ``a2`` (and symmetrically).
    """
    n = params.n_trials
    sx, sy, sz, lam1, lam2 = _hidden_arrays(params.seed, 0, n)
    a1x, a1y, a1z = (float(v) for v in a1.vec)
    a2x, a2y, a2z = (float(v) for v in a2.vec)
    x1, k1 = _station_kernel(sx * a1x + sy * a1y + sz * a1z, lam1,
                             params.t0_ratio, params.d)
    x2, k2 = _station_kernel(-sx * a2x + -sy * a2y + -sz * a2z, lam2,
                             params.t0_ratio, params.d)
    hidden = (sx, sy, sz, lam1, lam2) if keep_hidden else None
    return TrialBlock(params, x1, k1, x2, k2, hidden=hidden)
