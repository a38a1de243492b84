"""Reference values for the binned time-tag model, computed apart from eprbsim.

The model: a pair carries spin ``+s`` to station 1 and ``-s`` to station 2,
with ``s`` uniform on the sphere.  A station at setting ``a`` sees
``c = s_local . a``, answers ``x = +1`` if ``c >= 0`` else ``-1``, and tags
its event with a bin ``k`` uniform on ``[0, m)``, where
``m = max(1, ceil(T0/tau * (1 - c^2)^(d/2)))``.  Two events coincide when
``|k1 - k2| < w``.

The tags are summed out in closed form: the weight of a spin direction is
the share of tag pairs in ``[0, m1) x [0, m2)`` that coincide.  The spin is
integrated on a deterministic midpoint grid in ``(z, phi)``; both are uniform
for a uniform direction, so every grid cell has the same weight.  Station 1
sits at z-hat and station 2 at z-hat turned by ``theta`` in the xz-plane, so
only ``cos(phi)`` matters and ``phi`` covers ``(0, pi)``.

Only numpy is used; nothing here calls eprbsim.  ``python3 benchmark/reference.py``
writes ``reference.json``, the table the output checks read.
"""

from __future__ import annotations

import argparse
import json
import math
import re
from pathlib import Path

import numpy as np

T0_RATIO = 1000.0
D_EXP = 3.0
#: windows whose curves the output checks read: the figure windows 1, 16
#: and 285, and every window a bisection for S = 2.73 visits
WINDOWS = (1, 16, 17, 18, 20, 24, 32, 63, 125, 250, 285, 500, 1000)
#: relative-angle grid of the stored curves: 0 to pi in steps of pi/360
N_THETA = 361
#: sphere grid used for the stored table, and the coarser one it is checked against
GRID = (2400, 1200)
CHECK_GRID = (1200, 600)

TABLE_PATH = Path(__file__).resolve().with_name("reference.json")


def coincident_share(m1, m2, w: int):
    """Share of tag pairs ``(k1, k2)`` in ``[0, m1) x [0, m2)`` with ``|k1 - k2| < w``."""
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)

    def beyond(mx, my):
        # pairs with k_y - k_x >= w: sum over k_x of max(0, my - w - k_x)
        t = my - w
        p = np.clip(t, 0.0, mx)
        return p * t - p * (p - 1.0) / 2.0

    total = m1 * m2
    return (total - beyond(m1, m2) - beyond(m2, m1)) / total


def _bins(c, t0_ratio: float, d: float):
    q = np.maximum(0.0, 1.0 - c * c)
    return np.maximum(1.0, np.ceil(t0_ratio * q ** (d / 2.0)))


def curves(windows, thetas, t0_ratio: float = T0_RATIO, d: float = D_EXP,
           grid=GRID) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """``{w: (E(theta), gamma(theta))}`` for every window, on the given angles."""
    n_z, n_phi = grid
    z = -1.0 + (np.arange(n_z) + 0.5) * (2.0 / n_z)
    cos_phi = np.cos((np.arange(n_phi) + 0.5) * (math.pi / n_phi))
    rho = np.sqrt(1.0 - z * z)
    m1 = _bins(z, t0_ratio, d)[:, None]
    x1 = np.where(z >= 0.0, 1.0, -1.0)[:, None]
    sx = rho[:, None] * cos_phi[None, :]
    out = {w: (np.empty(len(thetas)), np.empty(len(thetas))) for w in windows}
    for i, theta in enumerate(thetas):
        c2 = -(sx * math.sin(theta) + z[:, None] * math.cos(theta))
        m2 = _bins(c2, t0_ratio, d)
        prod = x1 * np.where(c2 >= 0.0, 1.0, -1.0)
        for w in windows:
            f = coincident_share(m1, m2, w)
            mass = f.sum()
            out[w][0][i] = float((prod * f).sum() / mass)
            out[w][1][i] = float(mass / f.size)
    return out


def fold(delta):
    """Map an angle difference to the relative angle in [0, pi]."""
    r = np.mod(np.asarray(delta, dtype=np.float64), 2.0 * math.pi)
    return np.where(r > math.pi, 2.0 * math.pi - r, r)


class Curve:
    """E(theta) and gamma(theta) of one window, linearly interpolated."""

    def __init__(self, thetas, e, gamma):
        self.thetas = np.asarray(thetas, dtype=np.float64)
        self.e_values = np.asarray(e, dtype=np.float64)
        self.gammas = np.asarray(gamma, dtype=np.float64)

    def e(self, theta):
        return np.interp(fold(theta), self.thetas, self.e_values)

    def gamma(self, theta):
        return np.interp(fold(theta), self.thetas, self.gammas)

    def s_at(self, a, b, c, d) -> float:
        """``E(a-c) - E(a-d) + E(b-c) + E(b-d)`` at a planar quadruple."""
        return float(self.e(a - c) - self.e(a - d) + self.e(b - c) + self.e(b - d))

    def gamma_min(self) -> float:
        return float(self.gammas.min())

    def s_max(self) -> float:
        """Largest combination over planar quadruples (``a`` pinned to 0).

        A full grid over ``(b, c, d)`` at a step of 2 pi/120, then grids of
        21 points a side around the best point, each a quarter as wide as the
        last, down to a step below 1e-6 rad.
        """
        m = 120
        step = 2.0 * math.pi / m
        table = self.e(np.arange(m) * step)
        b = np.arange(m)[:, None, None]
        c = np.arange(m)[None, :, None]
        d = np.arange(m)[None, None, :]
        s = (table[(-c) % m] - table[(-d) % m]
             + table[(b - c) % m] + table[(b - d) % m])
        best = np.array(np.unravel_index(int(np.argmax(s)), s.shape), float) * step
        best_s = float(s.max())
        offsets = np.linspace(-1.0, 1.0, 21)
        half = step
        while half > 1e-6:
            bb = best[0] + half * offsets[:, None, None]
            cc = best[1] + half * offsets[None, :, None]
            dd = best[2] + half * offsets[None, None, :]
            s = self.e(-cc) - self.e(-dd) + self.e(bb - cc) + self.e(bb - dd)
            i = np.unravel_index(int(np.argmax(s)), s.shape)
            if float(s[i]) > best_s:
                best_s = float(s[i])
                best = np.array([bb[i[0], 0, 0], cc[0, i[1], 0], dd[0, 0, i[2]]])
            half /= 4.0
        return best_s


def load_table(path=TABLE_PATH) -> dict[int, Curve]:
    """The stored curves, keyed by window."""
    data = json.loads(Path(path).read_text())
    thetas = np.linspace(0.0, math.pi, data["n_theta"])
    return {int(w): Curve(thetas, c["e"], c["gamma"]) for w, c in data["curves"].items()}


def _build(grid) -> dict[int, Curve]:
    thetas = np.linspace(0.0, math.pi, N_THETA)
    return {w: Curve(thetas, e, g) for w, (e, g) in curves(WINDOWS, thetas, grid=grid).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(TABLE_PATH))
    args = parser.parse_args(argv)
    fine, coarse = _build(GRID), _build(CHECK_GRID)
    quad = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
    summary = {}
    for w in WINDOWS:
        row = {}
        for name, curve in (("fine", fine[w]), ("coarse", coarse[w])):
            row[name] = {"s_pi4": abs(curve.s_at(*quad)),
                         "gamma_pi2": float(curve.gamma(math.pi / 2)),
                         "gamma_min": curve.gamma_min(), "s_max": curve.s_max()}
        summary[str(w)] = row
        print(f"w={w}: " + "  ".join(
            f"{k} fine {row['fine'][k]:.6f} coarse {row['coarse'][k]:.6f}"
            for k in row["fine"]))
    table = {
        "model": {"t0_ratio": T0_RATIO, "d": D_EXP},
        "grid": list(GRID),
        "check_grid": list(CHECK_GRID),
        "n_theta": N_THETA,
        "command": "python3 benchmark/reference.py",
        "summary": summary,
        "curves": {str(w): {"e": fine[w].e_values.tolist(),
                            "gamma": fine[w].gammas.tolist()} for w in WINDOWS},
    }
    write_table(table, args.out)
    return 0


def write_table(table: dict, path) -> None:
    """JSON with every number list on one line; curve values to 10 digits."""
    for curve in table["curves"].values():
        for key in ("e", "gamma"):
            curve[key] = [float(f"{v:.10g}") for v in curve[key]]
    text = json.dumps(table, indent=1)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    Path(path).write_text(text + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
