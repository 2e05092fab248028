"""The ion's fluorescence on the grating aperture: the longitudinal target
intensity profile used by the grating designer, and the aperture's
solid-angle fraction and sigma share from the same trace of the rays.

The 256-node Gauss-Legendre rule on [-1, 1] ships as nodes and weights in
``gauss_legendre_256.npy``, written once by ``np.save(path,
np.stack(np.polynomial.legendre.leggauss(256)))``.
"""

import os
from typing import NamedTuple

import numpy as np

from . import constants
from .geometry import GratingFootprint, IonPose, refracted_ray

GAUSS_LEGENDRE_256 = os.path.join(os.path.dirname(__file__),
                                  "gauss_legendre_256.npy")


class EmissionProfile(NamedTuple):
    """The ion's emission on the aperture.

    ``intensity`` [1/m] is the y-integrated intensity at ``x`` [m],
    normalized to unit integral over the footprint.
    ``solid_angle_fraction`` is the share of the total emission that
    reaches the aperture, and ``sigma_share`` the share of that carried by
    the two sigma channels about a quantization axis along z.
    """
    x: np.ndarray
    intensity: np.ndarray
    solid_angle_fraction: float
    sigma_share: float


def ion_intensity_profile(footprint: GratingFootprint, pose: IonPose,
                          n_points: int,
                          n_cladding: float = constants.N_SIO2
                          ) -> EmissionProfile:
    """Marginal (y-integrated) aperture-plane fluorescence intensity vs x.

    Summed over the decay channels the emission is isotropic (pi gives
    sin^2/8pi and each sigma (1 + cos^2)/16pi, 1/4pi in total about any
    quantization axis), so the intensity on the aperture is the refracted
    ray density dOmega/dA alone.  Integrates it across the aperture width
    at each x sample (256 Gauss-Legendre nodes) and normalizes to unit
    integral over the footprint.

    The integral before normalization is the subtended solid angle.  About
    z the sigma channels together emit (1 + cos^2 theta)/8pi, so their
    share of it is (1 + <cos^2 theta>)/2, the mean taken over the aperture
    with weight dOmega/dA.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if footprint.area == 0:
        raise ValueError(f"footprint {footprint.x_extent:g} m x "
                         f"{footprint.y_extent:g} m has no area")
    xs = np.linspace(0.0, footprint.x_extent, n_points)
    gy, wy = np.load(GAUSS_LEGENDRE_256)
    hy = footprint.y_extent / 2
    ys = hy * gy
    # (x, y) distances broadcast from the two axes, without a mesh
    rho = np.hypot((xs - pose.x_ion)[:, None], (ys - pose.y_ion)[None, :])
    theta, dens = refracted_ray(rho, pose.height_above_surface,
                                pose.cladding_thickness, n_cladding)
    w = hy * wy
    profile = dens @ w
    norm = np.trapezoid(profile, xs)
    cos2 = np.trapezoid((dens * np.cos(theta) ** 2) @ w, xs) / norm
    return EmissionProfile(xs, profile / norm, float(norm / (4 * np.pi)),
                           float((1.0 + cos2) / 2.0))
