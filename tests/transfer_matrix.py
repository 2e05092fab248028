"""Slab-mode effective index by the multilayer transfer matrix.

An independent oracle for the finite-difference mode solver of
``iongrating.fdtd``: it solves the continuous dispersion relation of the
untoothed stack, so the two agree up to the grid's discretization error.
"""

import numpy as np
from scipy.optimize import brentq


class NoGuidedModeError(ValueError):
    """The requested slab structure supports no guided mode."""


def _dispersion(beta: float, k0: float, ns, ds, cladding_index: float,
                polarization: str) -> float:
    """Guided-mode dispersion function; zero at a guided mode.

    Launches a decaying field in the bottom cladding and propagates
    (field, scaled derivative) through the inner layers; the return value is
    the mismatch against a decaying field in the top cladding.
    """
    tm = polarization == "TM"
    gamma = np.sqrt(complex(beta**2 - (k0 * cladding_index) ** 2))
    g = gamma / cladding_index**2 if tm else gamma
    u, v = 1.0 + 0j, g
    for n, d in zip(ns, ds):
        k = np.sqrt(complex((k0 * n) ** 2 - beta**2))
        q = k / n**2 if tm else k
        c = np.cos(k * d)
        s_over_q = d if abs(q) < 1e-30 else np.sin(k * d) / q
        u, v = c * u + s_over_q * v, -q * np.sin(k * d) * u + c * v
    return (v + g * u).real


def effective_index(stack, wavelength: float,
                    polarization: str = "TE") -> float:
    """Fundamental slab-mode effective index of the stack.

    Scans the dispersion function between the cladding and peak core index
    and bisects the highest-index sign change (the fundamental mode) to
    1e-10 in index.

    Raises NoGuidedModeError if no guided mode exists.
    """
    if polarization not in ("TE", "TM"):
        raise ValueError("polarization must be 'TE' or 'TM'")
    k0 = 2 * np.pi / wavelength
    ns = np.array([l.refractive_index for l in stack.layers])
    ds = np.array([l.thickness for l in stack.layers])
    n_max = float(ns.max(initial=stack.cladding_index))
    if n_max <= stack.cladding_index:
        raise NoGuidedModeError("no index contrast above cladding")

    lo = k0 * stack.cladding_index * (1 + 1e-9)
    hi = k0 * n_max * (1 - 1e-9)
    grid = np.linspace(hi, lo, 2048)
    f = [_dispersion(b, k0, ns, ds, stack.cladding_index, polarization)
         for b in grid]
    for i in range(len(grid) - 1):
        if f[i] == 0.0:
            return grid[i] / k0
        if f[i] * f[i + 1] < 0:
            a, b = grid[i + 1], grid[i]
            beta = brentq(
                _dispersion, a, b,
                args=(k0, ns, ds, stack.cladding_index, polarization),
                xtol=1e-10 * k0)
            return beta / k0
    raise NoGuidedModeError(
        f"no guided {polarization} mode (contrast too low or layers too thin)")
