import numpy as np
import pytest

from iongrating import constants, dipole
from iongrating.dipole import (
    COMPONENTS,
    PI,
    SIGMA_MINUS,
    SIGMA_PLUS,
    ApertureDecomposition,
    DipoleComponent,
    QuantizationAxis,
    dipole_field,
    dipole_field_cartesian,
    dipole_intensity,
    fraction_on_aperture,
    ion_intensity_profile,
    sigma_share,
)
from iongrating.geometry import GratingFootprint, IonPose, solid_angle_fraction
from iongrating.overlap import dipole_moment_scale

_OBLIQUE = np.array([0.3, -0.5, 0.81])
OBLIQUE_AXIS = QuantizationAxis(tuple(_OBLIQUE / np.linalg.norm(_OBLIQUE)))
AXES = pytest.mark.parametrize("axis", [
    QuantizationAxis.x(), QuantizationAxis.y(), QuantizationAxis.z(),
    OBLIQUE_AXIS], ids=["x", "y", "z", "oblique"])

# high-precision evaluation of sqrt(3 lam^4 / (4 pi^3 c^3 mu0)) at 422 nm,
# frozen as a regression constant
P0_422NM = 4.759866125443094e-24


def sphere_integral(component):
    """Quadrature oracle: integral of |E|^2 over the full sphere."""
    ct, w = np.polynomial.legendre.leggauss(128)
    theta = np.arccos(ct)
    return 2 * np.pi * np.sum(dipole_intensity(component, theta) * w)


class TestPatterns:
    def test_pi_null_on_axis(self):
        e_th, e_ph = dipole_field(DipoleComponent(PI), 0.0)
        assert abs(e_th) == 0 and abs(e_ph) == 0

    def test_pi_max_at_equator(self):
        theta = np.linspace(0, np.pi, 1001)
        inten = dipole_intensity(DipoleComponent(PI), theta)
        assert np.argmax(inten) == 500

    def test_sigma_axis_twice_equator(self):
        comp = DipoleComponent(SIGMA_PLUS)
        # quadrature-normalized pattern: |cos|^2 + 1 evaluated at the poles
        # and the equator, 2 vs 1
        assert dipole_intensity(comp, 0.0) == pytest.approx(
            2 * dipole_intensity(comp, np.pi / 2), rel=1e-12)

    @pytest.mark.parametrize("kind", COMPONENTS)
    def test_power_normalization(self, kind):
        comp = DipoleComponent(kind)
        assert sphere_integral(comp) == pytest.approx(comp.branching_weight,
                                                      abs=1e-6)

    @AXES
    def test_summed_pattern_isotropic(self, axis):
        rng = np.random.Generator(np.random.Philox(key=7))
        u = rng.normal(size=(10**4, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        total = np.zeros(len(u))
        for kind in COMPONENTS:
            f = dipole_field_cartesian(DipoleComponent(kind), axis, u)
            total += np.sum(np.abs(f) ** 2, axis=-1)
        assert np.var(total) < 1e-10 * np.mean(total)

    def test_transversality(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        u = rng.normal(size=(200, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = np.array([0.3, -0.5, 0.81])
        axis = QuantizationAxis(tuple(v / np.linalg.norm(v)))
        for kind in COMPONENTS:
            f = dipole_field_cartesian(DipoleComponent(kind), axis, u)
            radial = np.einsum("ik,ik->i", f, u)
            assert np.max(np.abs(radial)) < 1e-12


@pytest.fixture(scope="module")
def default_decomposition():
    return fraction_on_aperture(QuantizationAxis.z(), GratingFootprint(),
                                IonPose())


class TestFractionOnAperture:
    def test_sigma_dominance(self, default_decomposition):
        assert sigma_share(default_decomposition) == pytest.approx(0.956,
                                                                   abs=0.005)

    def test_zero_area(self):
        dec = fraction_on_aperture(QuantizationAxis.z(),
                                   GratingFootprint(0.0, 0.0), IonPose())
        for d in dec.values():
            assert d == ApertureDecomposition(0.0, 0.0, 0.0, 0.0)

    @AXES
    def test_sum_matches_solid_angle(self, axis):
        # the channels' patterns sum to the isotropic 1/4pi about any axis
        dec = fraction_on_aperture(axis, GratingFootprint(), IonPose())
        total = sum(d.fraction_of_total for d in dec.values())
        frac = solid_angle_fraction(GratingFootprint(), IonPose())
        assert total == pytest.approx(frac, rel=1e-9)

    def test_te_tm_sum(self, default_decomposition):
        for d in default_decomposition.values():
            assert d.te_fraction + d.tm_fraction == pytest.approx(
                d.fraction_incident, rel=1e-9)

    def test_y_reflection_symmetry(self, default_decomposition):
        # mirror-symmetric geometry: the two sigma channels are images of
        # each other under y -> -y
        p = default_decomposition[SIGMA_PLUS]
        m = default_decomposition[SIGMA_MINUS]
        assert p.fraction_incident == pytest.approx(m.fraction_incident,
                                                    rel=1e-9)
        assert p.te_fraction == pytest.approx(m.te_fraction, rel=1e-9)


class TestIntensityProfile:
    def test_unit_integral(self):
        xs, prof = ion_intensity_profile(GratingFootprint(), IonPose(), 512)
        assert np.trapezoid(prof, xs) == pytest.approx(1.0, abs=1e-6)

    def test_peak_at_ion(self):
        xs, prof = ion_intensity_profile(GratingFootprint(), IonPose(), 1024)
        dx = xs[1] - xs[0]
        assert abs(xs[np.argmax(prof)] - 28e-6) <= dx

    def test_translation_covariance(self):
        fp = GratingFootprint()
        xs, a = ion_intensity_profile(fp, IonPose(x_ion=24e-6), 512)
        _, b = ion_intensity_profile(fp, IonPose(x_ion=26e-6), 512)
        dx = xs[1] - xs[0]
        shift = xs[np.argmax(b)] - xs[np.argmax(a)]
        assert abs(shift - 2e-6) <= dx

    def test_matches_three_channel_dipole_sum(self):
        # oracle: the branching-weighted sum of the rotated channel
        # patterns on the same nodes, about an oblique axis
        fp, pose = GratingFootprint(), IonPose()
        xs, prof = ion_intensity_profile(fp, pose, 512)
        gy, wy = np.polynomial.legendre.leggauss(256)
        hy = fp.y_extent / 2
        X, Y = np.meshgrid(xs, hy * gy, indexing="ij")
        u, dens = dipole._aperture_directions(X, Y, pose, constants.N_SIO2)
        inten = sum(np.sum(np.abs(dipole_field_cartesian(
            DipoleComponent(kind), OBLIQUE_AXIS, u)) ** 2, axis=-1)
            for kind in COMPONENTS)
        oracle = (inten * dens) @ (hy * wy)
        oracle /= np.trapezoid(oracle, xs)
        assert np.max(np.abs(prof - oracle)) <= 1e-12 * np.max(oracle)


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
