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
                      n_clad: float, out=None):
    """Horizontal run of a ray leaving a point ``height`` above the
    cladding/vacuum interface at vacuum polar angle ``theta``, down through
    ``cladding_thickness`` of cladding to the grating plane (Snell at the
    interface).  Vectorized over ``theta``; as in numpy, ``out`` receives
    the result, and one more array of theta's shape is scratch."""
    s = np.sin(theta, out=out)
    s /= n_clad
    root = np.multiply(s, s, out=np.empty_like(theta))
    np.sqrt(np.subtract(1.0, root, out=root), out=root)
    s *= cladding_thickness
    s /= root
    tan = np.tan(theta, out=root)
    tan *= height
    s += tan
    return s


def _reach_slope(theta, height: float, cladding_thickness: float,
                 n_clad: float, out=None):
    """Derivative of :func:`_horizontal_reach` with respect to theta, with
    ``out`` and one scratch array as there."""
    q = np.sin(theta, out=np.empty_like(theta))
    q /= n_clad
    np.multiply(q, q, out=q)
    np.power(np.subtract(1.0, q, out=q), 1.5, out=q)
    slope = np.cos(theta, out=out)
    slope /= n_clad
    slope *= cladding_thickness
    slope /= q
    cos2 = np.square(np.cos(theta, out=q), out=q)
    slope += np.divide(height, cos2, out=cos2)
    return slope


def ray_vacuum_angle(rho, height: float, cladding_thickness: float,
                     n_clad: float):
    """Inverse of :func:`_horizontal_reach`: the vacuum polar angle of the
    refracted ray whose horizontal run is ``rho`` (>= 0).

    Vectorized over ``rho``.  The reach increases monotonically with theta;
    Newton's method starts at the paraxial angle and converges
    quadratically, and a step leaving the shrinking bracket falls back to
    bisection.  Iterates until the largest step, Newton or bisection, is
    below 1e-15 rad.  The iteration holds six arrays of rho's shape, rho
    among them, and one scratch array at a time.
    """
    rho = np.asarray(rho, dtype=float)
    z_eff = height + cladding_thickness / n_clad
    theta = np.empty_like(rho)
    np.arctan(np.divide(rho, z_eff, out=theta), out=theta)
    lo, hi = np.zeros_like(theta), np.full_like(theta, np.pi / 2)
    f, slope = np.empty_like(theta), np.empty_like(theta)
    for _ in range(100):
        _horizontal_reach(theta, height, cladding_thickness, n_clad, f)
        f -= rho
        _reach_slope(theta, height, cladding_thickness, n_clad, slope)
        np.copyto(lo, theta, where=f < 0.0)
        np.copyto(hi, theta, where=f > 0.0)
        # the Newton step overwrites f
        nxt = np.subtract(theta, np.divide(f, slope, out=f), out=f)
        outside = (nxt < lo) | (nxt > hi)
        if outside.any():
            # once the bracket is an ulp wide, Newton leaves it and the
            # bisection step is the one that must meet the tolerance
            mid = np.multiply(np.add(lo, hi, out=slope), 0.5, out=slope)
            np.copyto(nxt, mid, where=outside)
        step = np.abs(np.subtract(nxt, theta, out=slope), out=slope)
        if np.max(step) <= 1e-15:
            return nxt
        theta, f = nxt, theta
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
    slope *= rho
    z_eff = height + cladding_thickness / n_clad
    weight = np.divide(np.sin(theta), slope,
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
