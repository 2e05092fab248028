"""Chip layer stack, grating aperture, emitter pose, and derived geometry.

The stack, aperture and pose dataclasses are defined in ``config``, which
loads no numpy, and re-exported here.

Provides the refracted ion-to-plane ray: a ray leaves the ion in vacuum,
bends at the cladding surface and reaches the grating plane at horizontal
distance rho.
:func:`_horizontal_reach` maps its vacuum angle to rho, and
:func:`ray_vacuum_angle` is the one inverse of that map.  On it rest the
direction-space density of :func:`refracted_ray` (the emission the grating
sees), the solid-angle fraction subtended by the aperture, and the
designer's diffraction angles and focusing curvature.
"""

import numpy as np

from . import constants
from .config import (GratingFootprint, IonPose, Layer, LayerStack,
                     default_stack)


def wavelength_in_medium(wavelength: float, n_medium: float) -> float:
    """Optical wavelength inside a medium of index ``n_medium``."""
    if n_medium < 1:
        raise ValueError("n_medium must be >= 1")
    return wavelength / n_medium


# ---------------------------------------------------------------------------
# Solid angle through the refracting cladding

def _horizontal_reach(theta, height: float, cladding_thickness: float,
                      n_clad: float):
    """Horizontal run of a ray leaving a point ``height`` above the
    cladding/vacuum interface at vacuum polar angle ``theta``, down through
    ``cladding_thickness`` of cladding to the grating plane (Snell at the
    interface).  Vectorized over ``theta``."""
    s = np.sin(theta) / n_clad
    return (height * np.tan(theta)
            + cladding_thickness * s / np.sqrt(1.0 - s * s))


def _reach_slope(theta, height: float, cladding_thickness: float,
                 n_clad: float):
    """Derivative of :func:`_horizontal_reach` with respect to theta."""
    s = np.sin(theta) / n_clad
    return (height / np.cos(theta) ** 2
            + cladding_thickness * (np.cos(theta) / n_clad)
            / (1.0 - s * s) ** 1.5)


def ray_vacuum_angle(rho, height: float, cladding_thickness: float,
                     n_clad: float):
    """Inverse of :func:`_horizontal_reach`: the vacuum polar angle of the
    refracted ray whose horizontal run is ``rho`` (>= 0).

    Vectorized over ``rho``.  The reach increases monotonically with theta;
    Newton's method starts at the paraxial angle and converges
    quadratically, and a step leaving the shrinking bracket falls back to
    bisection.  Iterates until the largest step, Newton or bisection, is
    below 1e-15 rad.
    """
    rho = np.asarray(rho, dtype=float)
    z_eff = height + cladding_thickness / n_clad
    theta = np.arctan(rho / z_eff)
    lo, hi = np.zeros_like(theta), np.full_like(theta, np.pi / 2)
    for _ in range(100):
        f = _horizontal_reach(theta, height, cladding_thickness, n_clad) - rho
        slope = _reach_slope(theta, height, cladding_thickness, n_clad)
        lo = np.where(f < 0.0, theta, lo)
        hi = np.where(f > 0.0, theta, hi)
        nxt = theta - f / slope
        outside = (nxt < lo) | (nxt > hi)
        if outside.any():
            # once the bracket is an ulp wide, Newton leaves it and the
            # bisection step is the one that must meet the tolerance
            nxt = np.where(outside, 0.5 * (lo + hi), nxt)
        if np.max(np.abs(nxt - theta)) <= 1e-15:
            return nxt
        theta = nxt
    return theta


def refracted_ray(rho, height: float, cladding_thickness: float,
                  n_clad: float):
    """The refracted ray from the emitter to horizontal distance ``rho`` on
    the grating plane: its vacuum polar angle theta and the direction-space
    density dOmega/dA = sin(theta) / (rho dRho/dTheta) there.

    Vectorized over ``rho``; at rho = 0 the density takes its limit
    1 / z_eff^2, with z_eff = height + cladding_thickness / n_clad.  With no
    cladding the density is the familiar z / r^3 projection.
    """
    rho = np.asarray(rho, dtype=float)
    theta = ray_vacuum_angle(rho, height, cladding_thickness, n_clad)
    slope = _reach_slope(theta, height, cladding_thickness, n_clad)
    z_eff = height + cladding_thickness / n_clad
    weight = np.divide(np.sin(theta), rho * slope,
                       out=np.full_like(rho, 1.0 / z_eff**2), where=rho > 0)
    return theta, weight


def solid_angle_fraction(footprint: GratingFootprint, pose: IonPose,
                         n_cladding: float = constants.N_SIO2) -> float:
    """Fraction of total emission solid angle subtended by the footprint.

    Integrates the direction-space measure over the aperture, to 1e-5 of
    the full sphere, accounting for refraction at the vacuum/cladding
    interface (the grating appears closer than its physical standoff).
    """
    # no stage calls this reference, so scipy.integrate stays off the
    # package import
    from scipy import integrate

    if footprint.area == 0:
        return 0.0

    def integrand(y, x):
        rho = np.hypot(x - pose.x_ion, y - pose.y_ion)
        return refracted_ray(rho, pose.height_above_surface,
                             pose.cladding_thickness, n_cladding)[1]

    omega, _ = integrate.dblquad(
        integrand, 0.0, footprint.x_extent,
        -footprint.y_extent / 2, footprint.y_extent / 2,
        epsabs=1e-5 * 4 * np.pi, epsrel=1e-7)
    return omega / (4 * np.pi)
