"""Per-trial scalar oracle for the library's array path.

The library simulates trials only in bulk: ``uniform_block`` ->
``_hidden_arrays`` -> ``_station_kernel`` -> ``add_cells``.  This module
replays one trial at a time, as the model is stated:

* SplitMix64 in plain Python integers, sharing no code with ``eprbsim.rng``;
* the hidden transform, with ``math``;
* the station law, as ``model._station_kernel`` on a length-1 array of
  the three-term projection ``s . a``, formed here in Python floats (a
  pure-``math`` law may differ from numpy's vectorised ``power`` in the last
  ulp);
* a tally over ``(x1, k1, x2, k2)`` rows;
* the delete-one-block jackknife, one block at a time in Python integers;
* greedy stream matching, one event at a time;
* a TTAG-CSV file, written by one ``%`` format over every field and read
  one line at a time with ``int()``;
* the small-window limit coefficient, by nested adaptive quadrature over the
  sphere rather than the library's one integral over cap lenses.
"""

import math

import numpy as np
from scipy import integrate

from eprbsim.coincidence import CoincidenceCounts
from eprbsim.errors import QuadratureError, TtagFormatError
from eprbsim.model import _station_kernel

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x632BE59BD9B4E019


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def uniforms(seed: int, trial: int, count: int) -> list[float]:
    """Draws ``0 .. count-1`` of one trial's substream, as [0, 1) doubles."""
    state = _mix64((trial + _STREAM_SALT) & _MASK) ^ _mix64(seed)
    return [(_mix64((state + (j + 1) * _GOLDEN) & _MASK) >> 11) / 2**53
            for j in range(count)]


def hidden(seed: int, trial: int):
    """``(s, lambda1, lambda2)`` of one trial, from its first four draws."""
    u = uniforms(seed, trial, 4)
    z = 2.0 * u[0] - 1.0
    phi = 2.0 * math.pi * u[1]
    rho = math.sqrt(max(0.0, 1.0 - z * z))
    return (rho * math.cos(phi), rho * math.sin(phi), z), u[2], u[3]


def station(a, s_local, lam: float, params) -> tuple[int, int]:
    """``(x, k)`` of one particle with spin ``s_local`` at setting ``a``."""
    ax, ay, az = (float(v) for v in a.vec)
    sx, sy, sz = (float(v) for v in s_local)
    x, k = _station_kernel(np.array([sx * ax + sy * ay + sz * az]),
                           np.array([lam]), params.t0_ratio, params.d)
    return int(x[0]), int(k[0])


def tally(rows, w_bins: int) -> CoincidenceCounts:
    """Cell counts of ``(x1, k1, x2, k2)`` rows, one trial at a time."""
    cells = [0, 0, 0, 0]
    n_total = 0
    for x1, k1, x2, k2 in rows:
        n_total += 1
        if abs(k1 - k2) < w_bins:
            cells[2 * (x1 < 0) + (x2 < 0)] += 1
    return CoincidenceCounts(*cells, n_total=n_total)


def jackknife_stderr_e(cells) -> float | None:
    """Jackknife error of ``e`` from per-block ``(n_pp, n_pm, n_mp, n_mm)`` rows."""
    rows = [[int(v) for v in row] for row in cells]
    total = [sum(col) for col in zip(*rows)]
    if len(rows) < 2 or sum(total) == 0:
        return None
    loo = []
    for row in rows:
        pp, pm, mp, mm = (t - r for t, r in zip(total, row))
        if pp + pm + mp + mm == 0:
            return None  # a block holds every coincidence
        loo.append((pp + mm - pm - mp) / (pp + pm + mp + mm))
    loo = np.asarray(loo)
    nb = len(loo)
    return float(np.sqrt((nb - 1) / nb * np.sum((loo - loo.mean()) ** 2)))


def match_pairs(ka, kb, w_bins: int) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` of the greedy nearest-tag match of two sorted tag lists.

    Walk both lists in time order and pair the two current events when their
    tags differ by less than ``w_bins``, unless the earlier event's partner
    has a successor strictly closer to it; every event is used at most once.
    """
    pairs = []
    i = j = 0
    while i < len(ka) and j < len(kb):
        delta = kb[j] - ka[i]
        if delta <= -w_bins:
            j += 1
            continue
        if delta >= w_bins:
            i += 1
            continue
        if ka[i] <= kb[j]:
            if i + 1 < len(ka) and abs(ka[i + 1] - kb[j]) < abs(delta):
                i += 1
                continue
        else:
            if j + 1 < len(kb) and abs(kb[j + 1] - ka[i]) < abs(delta):
                j += 1
                continue
        pairs.append((i, j))
        i += 1
        j += 1
    return pairs


def ttag_file(stream) -> bytes:
    """The bytes of ``stream`` as a TTAG-CSV v1 file, one ``%`` format for all fields."""
    rows = np.stack([stream.k, stream.setting_index, stream.x], axis=1)
    text = ("# ttag-csv 1\n" + "%s,%s,%s\n" * len(stream)) % tuple(rows.ravel().tolist())
    return text.encode("ascii")


def ttag_rows(path, text: str) -> list[tuple[int, int, int]]:
    """The ``(k, setting_index, x)`` rows of a TTAG-CSV v1 body, one line at a time.

    ``text`` is the file after its header line.  The first bad line raises
    ``TtagFormatError`` with the message ``eprbsim.read_events`` gives it; a
    field outside the int64 range is a non-integer field.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    rows = []
    for lineno, line in enumerate(lines, start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise TtagFormatError(f"{path}:{lineno}: expected 'k,setting_index,x'")
        try:
            k, s, x = (int(v) for v in parts)
            if not all(-2**63 <= v < 2**63 for v in (k, s, x)):
                raise ValueError("outside int64")
        except ValueError:
            raise TtagFormatError(f"{path}:{lineno}: non-integer field") from None
        if k < 0 or s < 0 or x not in (-1, 1):
            raise TtagFormatError(f"{path}:{lineno}: field out of range")
        if rows and k < rows[-1][0]:
            raise TtagFormatError(f"{path}:{lineno}: tags must be non-decreasing")
        rows.append((k, s, x))
    return rows


def gamma_limit(theta: float, d: float) -> float:
    """``<1 / max(r1, r2)>`` over the sphere, ``r_i = (1 - (s . a_i)^2)^(d/2)``.

    Nested adaptive quadrature over ``u = s . a1`` and the azimuth about
    ``a1``; raises ``QuadratureError`` if the outer rule does not converge.
    Not for colinear settings at ``d >= 2``, where the average diverges.
    """
    # both integrands are even (in phi, and under s -> -s in u): integrate
    # half of each range and double
    st, ct = math.sin(theta), math.cos(theta)
    half = d / 2.0

    def inner(u: float) -> float:
        ss = math.sqrt(max(0.0, 1.0 - u * u))

        def f(phi: float) -> float:
            c2 = st * ss * math.cos(phi) + ct * u
            r1 = max(0.0, 1.0 - u * u) ** half
            r2 = max(0.0, 1.0 - c2 * c2) ** half
            return 1.0 / max(r1, r2)

        val, _ = integrate.quad(f, 0.0, math.pi, limit=300, epsabs=1e-12, epsrel=1e-10)
        return 2.0 * val

    val, err, _, *rest = integrate.quad(inner, 0.0, 1.0, limit=300, epsabs=1e-10,
                                        epsrel=1e-8, full_output=True)
    if rest:  # an explanation string accompanies non-convergence
        raise QuadratureError(f"sphere quadrature did not converge: {rest[-1]}")
    val /= 2.0 * math.pi
    if not math.isfinite(val) or err / max(abs(val), 1.0) > 1e-4:
        raise QuadratureError(f"sphere quadrature unreliable (value {val!r}, error {err!r})")
    return val
