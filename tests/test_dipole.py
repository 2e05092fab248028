import tracemalloc

import numpy as np
import pytest

from iongrating import constants, dipole
from iongrating.dipole import ion_intensity_profile
from iongrating.geometry import (GratingFootprint, IonPose, refracted_ray,
                                 solid_angle_fraction)
from iongrating.overlap import dipole_moment_scale

# Reference model of the three decay channels, the oracle for the profile
# and the sigma share: intensity per steradian as a function of the cosine
# of the angle to the quantization axis, each channel normalized to its
# branching weight 1/3.
CHANNELS = ("pi", "sigma+", "sigma-")

_OBLIQUE = np.array([0.3, -0.5, 0.81])
OBLIQUE_AXIS = tuple(_OBLIQUE / np.linalg.norm(_OBLIQUE))
AXES = pytest.mark.parametrize("axis", [
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), OBLIQUE_AXIS],
    ids=["x", "y", "z", "oblique"])

# high-precision evaluation of sqrt(3 lam^4 / (4 pi^3 c^3 mu0)) at 422 nm,
# frozen as a regression constant
P0_422NM = 4.759866125443094e-24


def channel_intensity(kind, cos_theta):
    c2 = np.asarray(cos_theta, dtype=float) ** 2
    if kind == "pi":
        return (1.0 - c2) / (8 * np.pi)
    return (1.0 + c2) / (16 * np.pi)


def channel_profiles(axis, footprint, pose):
    """(x, per-channel y-integrated intensity on the aperture): each
    channel's pattern about ``axis`` times dOmega/dA, on the nodes of
    ion_intensity_profile."""
    xs = np.linspace(0.0, footprint.x_extent, 512)
    gy, wy = np.polynomial.legendre.leggauss(256)
    hy = footprint.y_extent / 2
    X, Y = np.meshgrid(xs, hy * gy, indexing="ij")
    dx, dy = X - pose.x_ion, Y - pose.y_ion
    theta, dens = refracted_ray(np.hypot(dx, dy), pose.height_above_surface,
                                pose.cladding_thickness, constants.N_SIO2)
    phi = np.arctan2(dy, dx)
    u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                  -np.cos(theta)], axis=-1)
    cos_axis = u @ np.asarray(axis)
    return xs, {kind: (channel_intensity(kind, cos_axis) * dens) @ (hy * wy)
                for kind in CHANNELS}


@pytest.fixture(scope="module")
def nominal():
    return ion_intensity_profile(GratingFootprint(), IonPose(), 512)


class TestPatterns:
    """The reference channel patterns behind the oracle."""

    def test_pi_null_on_axis(self):
        assert channel_intensity("pi", 1.0) == 0
        assert channel_intensity("pi", -1.0) == 0

    def test_pi_max_at_equator(self):
        theta = np.linspace(0, np.pi, 1001)
        assert np.argmax(channel_intensity("pi", np.cos(theta))) == 500

    def test_sigma_axis_twice_equator(self):
        assert channel_intensity("sigma+", 1.0) == pytest.approx(
            2 * channel_intensity("sigma+", 0.0), rel=1e-12)

    @pytest.mark.parametrize("kind", CHANNELS)
    def test_power_normalization(self, kind):
        ct, w = np.polynomial.legendre.leggauss(128)
        total = 2 * np.pi * np.sum(channel_intensity(kind, ct) * w)
        assert total == pytest.approx(1.0 / 3.0, abs=1e-12)

    @AXES
    def test_summed_pattern_isotropic(self, axis):
        rng = np.random.Generator(np.random.Philox(key=7))
        u = rng.normal(size=(10**4, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        total = sum(channel_intensity(kind, u @ np.asarray(axis))
                    for kind in CHANNELS)
        assert np.max(np.abs(total * 4 * np.pi - 1.0)) < 1e-12


def test_emission_rule_is_leggauss_bit_for_bit():
    # the shipped table, read where the profile reads it
    x, w = np.load(dipole.GAUSS_LEGENDRE_256)
    gx, gw = np.polynomial.legendre.leggauss(256)
    # the same bits, signs of zeros included
    assert np.array_equal(x.view(np.int64), gx.view(np.int64))
    assert np.array_equal(w.view(np.int64), gw.view(np.int64))
    assert np.array_equal(np.signbit(x), np.signbit(gx))


def test_emission_needs_no_dense_eigensolve(monkeypatch, nominal):
    # the dense eigvalsh inside leggauss ran on every BLAS thread and
    # cost 0.1-0.6 CPU-s per fresh process
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigvalsh called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    got = ion_intensity_profile(GratingFootprint(), IonPose(), 512)
    assert np.array_equal(got.intensity, nominal.intensity)
    assert got.solid_angle_fraction == nominal.solid_angle_fraction


def test_emission_allocates_under_eight_megabytes(nominal):
    # 512 x 256 quadrature nodes, 1.05 MB per array: the ray solve's six
    # arrays, the distances among them, and one scratch; no (x, y) mesh
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        got = ion_intensity_profile(GratingFootprint(), IonPose(), 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 8e6
    assert np.array_equal(got.intensity, nominal.intensity)


class TestFractionOnAperture:
    def test_sigma_dominance(self, nominal):
        assert nominal.sigma_share == pytest.approx(0.956, abs=0.005)
        # the channel patterns about z, integrated on the same nodes
        xs, inten = channel_profiles((0.0, 0.0, 1.0), GratingFootprint(),
                                     IonPose())
        frac = {k: np.trapezoid(v, xs) for k, v in inten.items()}
        sigma = frac["sigma+"] + frac["sigma-"]
        assert nominal.sigma_share == pytest.approx(
            sigma / (sigma + frac["pi"]), rel=1e-12)

    def test_zero_area(self):
        for footprint in (GratingFootprint(0.0, 30e-6),
                          GratingFootprint(30e-6, 0.0)):
            with pytest.raises(ValueError, match="footprint .* no area"):
                ion_intensity_profile(footprint, IonPose(), 512)

    @AXES
    def test_sum_matches_solid_angle(self, axis, nominal):
        # the channels' patterns sum to the isotropic 1/4pi about any axis
        xs, inten = channel_profiles(axis, GratingFootprint(), IonPose())
        total = sum(np.trapezoid(v, xs) for v in inten.values())
        assert total == pytest.approx(nominal.solid_angle_fraction,
                                      rel=1e-12)

    def test_y_reflection_symmetry(self):
        # mirror images of the ion in y see the same aperture
        fp = GratingFootprint()
        a = ion_intensity_profile(fp, IonPose(y_ion=5e-6), 512)
        b = ion_intensity_profile(fp, IonPose(y_ion=-5e-6), 512)
        assert a.solid_angle_fraction == pytest.approx(
            b.solid_angle_fraction, rel=1e-12)
        assert a.sigma_share == pytest.approx(b.sigma_share, rel=1e-12)
        assert np.allclose(a.intensity, b.intensity, rtol=1e-12, atol=0)

    # (x_ion, height, y_ion) in um; sigma share frozen from a rotated
    # three-channel field sum on 192^2 Gauss-Legendre nodes
    @pytest.mark.parametrize("pose_um, sigma", [
        ((28, 50, 0), 0.9556081666),
        ((15, 50, 0), 0.9760953364),
        ((28, 40, 5), 0.9352366822),
    ], ids=["nominal", "x15", "h40-y5"])
    def test_matches_frozen_sigma_share_and_dblquad(self, pose_um, sigma):
        x_ion, height, y_ion = (v * 1e-6 for v in pose_um)
        pose = IonPose(x_ion=x_ion, y_ion=y_ion,
                       height_above_surface=height)
        emission = ion_intensity_profile(GratingFootprint(), pose, 512)
        assert emission.sigma_share == pytest.approx(sigma, abs=1e-6)
        assert emission.solid_angle_fraction == pytest.approx(
            solid_angle_fraction(GratingFootprint(), pose), rel=1e-6)


class TestIntensityProfile:
    def test_unit_integral(self, nominal):
        assert np.trapezoid(nominal.intensity, nominal.x) == pytest.approx(
            1.0, abs=1e-6)

    def test_peak_at_ion(self):
        e = ion_intensity_profile(GratingFootprint(), IonPose(), 1024)
        dx = e.x[1] - e.x[0]
        assert abs(e.x[np.argmax(e.intensity)] - 28e-6) <= dx

    def test_translation_covariance(self):
        fp = GratingFootprint()
        a = ion_intensity_profile(fp, IonPose(x_ion=24e-6), 512)
        b = ion_intensity_profile(fp, IonPose(x_ion=26e-6), 512)
        dx = a.x[1] - a.x[0]
        shift = b.x[np.argmax(b.intensity)] - a.x[np.argmax(a.intensity)]
        assert abs(shift - 2e-6) <= dx

    def test_matches_three_channel_dipole_sum(self, nominal):
        # oracle: the branching-weighted sum of the channel patterns on the
        # same nodes, about an oblique axis
        xs, inten = channel_profiles(OBLIQUE_AXIS, GratingFootprint(),
                                     IonPose())
        oracle = sum(inten.values())
        oracle /= np.trapezoid(oracle, xs)
        assert np.max(np.abs(nominal.intensity - oracle)) <= (
            1e-12 * np.max(oracle))


class TestDipoleNorm:
    def test_wavelength_scaling(self):
        assert dipole_moment_scale(844e-9) == pytest.approx(
            4 * dipole_moment_scale(422e-9), rel=1e-12)

    def test_frozen_value(self):
        assert dipole_moment_scale(422e-9) == pytest.approx(P0_422NM,
                                                            rel=1e-12)

    def test_positive(self):
        for lam in (1e-9, 422e-9, 1e-3):
            assert dipole_moment_scale(lam) > 0
        for lam in (0.0, -422e-9):
            with pytest.raises(ValueError, match="wavelength"):
                dipole_moment_scale(lam)
