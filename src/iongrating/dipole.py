"""Dipole radiation patterns of pi and sigma decay channels, their
polarization decomposition on the grating aperture, and the longitudinal
target intensity profile used by the grating designer."""

from dataclasses import dataclass

import numpy as np

from . import constants
from .geometry import GratingFootprint, IonPose, refracted_ray

PI = "pi"
SIGMA_PLUS = "sigma+"
SIGMA_MINUS = "sigma-"
COMPONENTS = (PI, SIGMA_PLUS, SIGMA_MINUS)

# Branching: 1/3 pi, 1/3 each sigma channel.
BRANCHING = {PI: 1.0 / 3.0, SIGMA_PLUS: 1.0 / 3.0, SIGMA_MINUS: 1.0 / 3.0}

# Pattern normalizations so each channel's intensity integrates over the
# sphere to its branching weight:
#   pi:    |E|^2 = N^2 sin^2(theta),     integral 8 pi / 3
#   sigma: |E|^2 = N^2 (cos^2(theta)+1), integral 16 pi / 3
_NORM2 = {PI: 1.0 / (8 * np.pi),
          SIGMA_PLUS: 1.0 / (16 * np.pi),
          SIGMA_MINUS: 1.0 / (16 * np.pi)}


class QuadratureError(RuntimeError):
    """Aperture quadrature failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class QuantizationAxis:
    """Unit direction of the quantizing magnetic field."""
    direction: tuple[float, float, float]

    def __post_init__(self):
        n = np.linalg.norm(self.direction)
        if abs(n - 1.0) > 1e-12:
            raise ValueError("quantization axis must be unit norm")

    @classmethod
    def x(cls):
        return cls((1.0, 0.0, 0.0))

    @classmethod
    def y(cls):
        return cls((0.0, 1.0, 0.0))

    @classmethod
    def z(cls):
        return cls((0.0, 0.0, 1.0))


@dataclass(frozen=True)
class DipoleComponent:
    kind: str

    def __post_init__(self):
        if self.kind not in COMPONENTS:
            raise ValueError(f"unknown dipole component {self.kind!r}")

    @property
    def branching_weight(self) -> float:
        return BRANCHING[self.kind]


@dataclass(frozen=True)
class ApertureDecomposition:
    """Aperture-incident share of one dipole channel and its TE/TM split.

    ``fraction_incident`` is normalized to the channel's own total emission;
    ``fraction_of_total`` to the total fluorescence (both are reported since
    either normalization is of interest).  TE is the field component along
    y-hat in the grating frame, TM the orthogonal in-plane component.
    """
    fraction_incident: float
    te_fraction: float
    tm_fraction: float
    fraction_of_total: float


def dipole_field(component: DipoleComponent, theta):
    """Complex (theta-hat, phi-hat) field of one decay channel.

    Angles are measured from the quantization axis.  Normalized so the
    channel's radiated power integrates to its branching weight.
    """
    theta = np.asarray(theta, dtype=float)
    n = np.sqrt(_NORM2[component.kind])
    if component.kind == PI:
        e_th = n * np.sin(theta) + 0j
        e_ph = np.zeros_like(e_th)
    else:
        sign = 1.0 if component.kind == SIGMA_PLUS else -1.0
        e_th = n * np.cos(theta) + 0j
        e_ph = sign * 1j * n * np.ones_like(theta)
    return e_th, e_ph


def dipole_intensity(component: DipoleComponent, theta):
    """|E|^2 of one channel versus polar angle from the quantization axis."""
    e_th, e_ph = dipole_field(component, theta)
    return np.abs(e_th) ** 2 + np.abs(e_ph) ** 2


def dipole_field_cartesian(component: DipoleComponent, axis: QuantizationAxis,
                           directions):
    """Complex cartesian field of a channel along unit ``directions`` (...,3).

    The (theta-hat, phi-hat) pattern is defined about the quantization axis
    and rotated into the lab frame; at the poles the basis is taken by limit
    using a fixed reference perpendicular.
    """
    u = np.asarray(directions, dtype=float)
    a = np.asarray(axis.direction, dtype=float)
    ct = np.clip(u @ a, -1.0, 1.0)
    # azimuthal basis: phi-hat = (a x u)/|a x u|, theta-hat = phi-hat x u
    cross = np.cross(np.broadcast_to(a, u.shape), u)
    norm = np.linalg.norm(cross, axis=-1, keepdims=True)
    # near the poles pick any perpendicular to the axis as phi-hat
    ref = np.array([1.0, 0.0, 0.0])
    if abs(abs(a @ ref) - 1.0) < 1e-9:
        ref = np.array([0.0, 1.0, 0.0])
    fallback = np.cross(a, ref)
    fallback /= np.linalg.norm(fallback)
    small = norm < 1e-12
    phi_hat = np.where(small, fallback, cross / np.where(small, 1.0, norm))
    theta_hat = np.cross(phi_hat, u)

    theta = np.arccos(ct)
    e_th, e_ph = dipole_field(component, theta)
    return (e_th[..., None] * theta_hat + e_ph[..., None] * phi_hat)


# ---------------------------------------------------------------------------
# Aperture integrals

def _aperture_directions(xs, ys, pose: IonPose, n_cladding: float):
    """Unit emission directions (ion frame) reaching aperture points and the
    direction-space density dOmega/dA at those points."""
    dx = xs - pose.x_ion
    dy = ys - pose.y_ion
    theta, density = refracted_ray(np.hypot(dx, dy), pose.height_above_surface,
                                   pose.cladding_thickness, n_cladding)
    phi = np.arctan2(dy, dx)
    st, ct = np.sin(theta), np.cos(theta)
    u = np.stack([st * np.cos(phi), st * np.sin(phi), -ct], axis=-1)
    return u, density


def _decompose_once(axis, footprint, pose, n_quad):
    gx, wx = np.polynomial.legendre.leggauss(n_quad)
    gy, wy = np.polynomial.legendre.leggauss(n_quad)
    hx, hy = footprint.x_extent / 2, footprint.y_extent / 2
    xs = hx * (gx + 1.0)
    ys = hy * gy
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    W = hx * hy * np.outer(wx, wy)

    u, dens = _aperture_directions(X, Y, pose, constants.N_SIO2)

    # local TE/TM basis in the transverse plane of each direction
    yhat = np.array([0.0, 1.0, 0.0])
    te = yhat - (u @ yhat)[..., None] * u
    te /= np.linalg.norm(te, axis=-1, keepdims=True)
    tm = np.cross(u, te)

    out = {}
    for kind in COMPONENTS:
        comp = DipoleComponent(kind)
        field = dipole_field_cartesian(comp, axis, u)
        inten = np.sum(np.abs(field) ** 2, axis=-1)
        te_i = np.abs(np.einsum("...k,...k->...", field, te)) ** 2
        tm_i = np.abs(np.einsum("...k,...k->...", field, tm)) ** 2
        w_c = comp.branching_weight
        total = float(np.sum(inten * dens * W)) / w_c
        te_f = float(np.sum(te_i * dens * W)) / w_c
        tm_f = float(np.sum(tm_i * dens * W)) / w_c
        out[kind] = ApertureDecomposition(
            fraction_incident=total, te_fraction=te_f, tm_fraction=tm_f,
            fraction_of_total=total * w_c)
    return out


def fraction_on_aperture(axis: QuantizationAxis, footprint: GratingFootprint,
                         pose: IonPose):
    """Per-channel aperture-incident fraction and TE/TM split, through the
    default oxide cladding.

    Tensor-product Gauss-Legendre quadrature over the aperture on 128 and
    192 nodes per axis; raises QuadratureError if the refinement moves any
    fraction by more than 1e-3 (absolute).
    """
    if footprint.area == 0:
        zero = ApertureDecomposition(0.0, 0.0, 0.0, 0.0)
        return {kind: zero for kind in COMPONENTS}
    coarse = _decompose_once(axis, footprint, pose, 128)
    fine = _decompose_once(axis, footprint, pose, 192)
    for kind in COMPONENTS:
        if abs(coarse[kind].fraction_incident
               - fine[kind].fraction_incident) > 1e-3:
            raise QuadratureError(
                f"aperture quadrature not converged for {kind}")
    return fine


def sigma_share(decomposition) -> float:
    """Sigma share of the aperture-incident fluorescence."""
    tot = {k: d.fraction_of_total for k, d in decomposition.items()}
    sig = tot[SIGMA_PLUS] + tot[SIGMA_MINUS]
    return sig / (sig + tot[PI])


def ion_intensity_profile(footprint: GratingFootprint, pose: IonPose,
                          n_points: int,
                          n_cladding: float = constants.N_SIO2):
    """Marginal (y-integrated) aperture-plane fluorescence intensity vs x.

    Summed over the decay channels the emission is isotropic (pi gives
    sin^2/8pi and each sigma (1 + cos^2)/16pi, 1/4pi in total about any
    quantization axis), so the intensity on the aperture is the refracted
    ray density dOmega/dA alone.  Integrates it across the aperture width
    at each x sample (256 Gauss-Legendre nodes) and normalizes to unit
    integral over the footprint.  Returns (x, intensity) with intensity in
    1/m.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    xs = np.linspace(0.0, footprint.x_extent, n_points)
    gy, wy = np.polynomial.legendre.leggauss(256)
    hy = footprint.y_extent / 2
    ys = hy * gy
    X, Y = np.meshgrid(xs, ys, indexing="ij")

    _, dens = refracted_ray(np.hypot(X - pose.x_ion, Y - pose.y_ion),
                            pose.height_above_surface,
                            pose.cladding_thickness, n_cladding)
    profile = dens @ (hy * wy)
    norm = np.trapezoid(profile, xs)
    return xs, profile / norm
