import numpy as np
import pytest
from scipy.optimize import brentq

from iongrating import geometry
from iongrating.geometry import (
    GratingFootprint,
    IonPose,
    Layer,
    LayerStack,
    default_stack,
    _horizontal_reach,
    ray_vacuum_angle,
    refracted_ray,
    solid_angle_fraction,
    wavelength_in_medium,
)
from transfer_matrix import NoGuidedModeError, effective_index


def single_layer_stack(thickness=100e-9, n_core=2.0, n_clad=1.45):
    return LayerStack(
        layers=(Layer("core", thickness, n_core),),
        cladding_index=n_clad, guiding=("core",))


def symmetric_slab_neff_oracle(thickness, n_core, n_clad, lam):
    """Fundamental TE mode of a symmetric slab from the textbook dispersion
    relation tan(k d / 2) = gamma / k, solved by bisection."""
    k0 = 2 * np.pi / lam

    def f(neff):
        k = k0 * np.sqrt(n_core**2 - neff**2)
        g = k0 * np.sqrt(neff**2 - n_clad**2)
        return np.tan(k * thickness / 2) - g / k

    return brentq(f, n_clad + 1e-9, n_core - 1e-9, xtol=1e-10)


class TestEffectiveIndex:
    def test_zero_contrast_no_mode(self):
        stack = single_layer_stack(n_core=1.45, n_clad=1.45)
        with pytest.raises(NoGuidedModeError):
            effective_index(stack, 422e-9)

    def test_single_layer_matches_symmetric_slab_oracle(self):
        stack = single_layer_stack()
        neff = effective_index(stack, 422e-9, "TE")
        oracle = symmetric_slab_neff_oracle(100e-9, 2.0, 1.45, 422e-9)
        assert 1.45 < neff < 2.0
        assert neff == pytest.approx(oracle, abs=1e-8)

    def test_monotone_in_thickness(self):
        prev = 0.0
        for t in np.linspace(50e-9, 200e-9, 7):
            neff = effective_index(single_layer_stack(thickness=t), 422e-9)
            assert neff > prev
            prev = neff

    def test_te_tm_within_bounds(self):
        stack = default_stack()
        for pol in ("TE", "TM"):
            neff = effective_index(stack, 422e-9, pol)
            assert stack.cladding_index < neff < 2.05

    def test_tm_below_te(self):
        stack = default_stack()
        assert effective_index(stack, 422e-9, "TM") < \
            effective_index(stack, 422e-9, "TE")


class TestWavelengthInMedium:
    def test_vacuum(self):
        assert wavelength_in_medium(422e-9, 1.0) == 422e-9

    def test_exact_division(self):
        assert wavelength_in_medium(422e-9, 2.0) == pytest.approx(211e-9)

    def test_red_in_oxide(self):
        assert wavelength_in_medium(674e-9, 1.45) == pytest.approx(464.83e-9,
                                                                   abs=1e-11)


def montecarlo_fraction(footprint, pose, n_clad, n_rays, seed):
    """Independent oracle: isotropic ray sampling with refraction tracing."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    costh = rng.uniform(-1.0, 1.0, n_rays)   # full sphere
    phi = rng.uniform(0.0, 2 * np.pi, n_rays)
    down = costh < 0.0
    st = np.sqrt(1.0 - costh[down] ** 2)
    theta = np.arctan2(st, -costh[down])     # polar angle from straight down
    s = np.sin(theta) / n_clad
    rho = (pose.height_above_surface * np.tan(theta)
           + pose.cladding_thickness * s / np.sqrt(1.0 - s * s))
    x = pose.x_ion + rho * np.cos(phi[down])
    y = pose.y_ion + rho * np.sin(phi[down])
    hits = ((x >= 0) & (x <= footprint.x_extent)
            & (np.abs(y) <= footprint.y_extent / 2))
    return hits.sum() / n_rays, hits.sum()


class TestSolidAngle:
    def test_paper_default_geometry(self):
        frac = solid_angle_fraction(GratingFootprint(), IonPose())
        assert frac == pytest.approx(0.0218, abs=0.0005)

    def test_zero_area(self):
        assert solid_angle_fraction(GratingFootprint(0.0, 0.0), IonPose()) == 0

    def test_monte_carlo_agreement(self):
        footprint, pose = GratingFootprint(), IonPose()
        frac = solid_angle_fraction(footprint, pose)
        n = 10**7
        est, k = montecarlo_fraction(footprint, pose, 1.47, n, seed=20240422)
        sigma = np.sqrt(est * (1 - est) / n)
        assert abs(est - frac) < 3 * sigma

    def test_monotone_in_extents(self):
        pose = IonPose()
        vals = [solid_angle_fraction(GratingFootprint(x, 30e-6), pose)
                for x in (10e-6, 20e-6, 30e-6)]
        assert vals[0] < vals[1] < vals[2]
        vals = [solid_angle_fraction(GratingFootprint(30e-6, y), pose)
                for y in (10e-6, 20e-6, 30e-6)]
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_standoff(self):
        fp = GratingFootprint()
        vals = [solid_angle_fraction(fp, IonPose(height_above_surface=h))
                for h in (40e-6, 50e-6, 60e-6)]
        assert vals[0] > vals[1] > vals[2]

    def test_scale_invariance(self):
        a = solid_angle_fraction(GratingFootprint(), IonPose())
        b = solid_angle_fraction(
            GratingFootprint(60e-6, 60e-6),
            IonPose(x_ion=56e-6, height_above_surface=100e-6,
                    cladding_thickness=10e-6))
        assert a == pytest.approx(b, rel=1e-4)

    def test_zero_cladding_reduces_to_projection(self):
        # with no cladding the density must equal z dA / r^3 exactly
        z = 50e-6
        rho = np.array([0.0, 5e-6, 20e-6, 40e-6])
        _, weight = refracted_ray(rho, z, 0.0, 1.47)
        expected = z / (rho**2 + z**2) ** 1.5
        assert weight == pytest.approx(expected, rel=1e-12)

    def test_density_continuous_at_the_foot_of_the_ion(self):
        pose = IonPose()
        _, weight = refracted_ray(np.array([0.0, 1e-12]),
                                  pose.height_above_surface,
                                  pose.cladding_thickness, 1.47)
        assert weight[1] == pytest.approx(weight[0], rel=1e-9)


class TestDomainTypes:
    def test_layer_validation(self):
        with pytest.raises(ValueError):
            Layer("bad", -1e-9, 1.5)
        with pytest.raises(ValueError):
            Layer("bad", 1e-9, 0.5)

    def test_stack_guiding_validation(self):
        with pytest.raises(ValueError):
            LayerStack(layers=(Layer("a", 1e-7, 2.0),), guiding=("missing",))

    def test_pose_standoff(self):
        pose = IonPose()
        assert pose.z_ion == pytest.approx(55e-6)


# ---------------------------------------------------------------------------
# Refracted ion-to-plane ray

@pytest.mark.parametrize("height, cladding, n_clad", [
    (50e-6, 5e-6, 1.47),    # nominal pose
    (50e-6, 0.0, 1.47),     # no cladding: theta = arctan(rho / h)
    (2e-6, 40e-6, 2.0),     # cladding-dominated reach
])
def test_ray_inverse_matches_brentq(height, cladding, n_clad):
    rho = np.concatenate([[0.0, 1e-12], np.linspace(0.1e-6, 300e-6, 97)])

    def reach(theta):
        s = np.sin(theta) / n_clad
        return height * np.tan(theta) + cladding * s / np.sqrt(1.0 - s * s)

    oracle = [0.0 if r == 0.0 else
              brentq(lambda t: reach(t) - r, 0.0, np.pi / 2 - 1e-9,
                     xtol=1e-15) for r in rho]
    theta = ray_vacuum_angle(rho, height, cladding, n_clad)
    assert theta[0] == 0.0
    assert np.max(np.abs(theta - oracle)) <= 1e-12
    # and it inverts the forward map
    back = _horizontal_reach(theta, height, cladding, n_clad)
    assert np.allclose(back, rho, rtol=1e-12, atol=1e-18)


def _ray_vacuum_angle_reference(rho, height, cladding_thickness, n_clad):
    """The Newton-bisection solve with fresh arrays at every step, as
    written out before the solve reused its buffers: its oracle."""
    def reach(theta):
        s = np.sin(theta) / n_clad
        return (height * np.tan(theta)
                + cladding_thickness * s / np.sqrt(1.0 - s * s))

    def slope(theta):
        s = np.sin(theta) / n_clad
        return (height / np.cos(theta) ** 2
                + cladding_thickness * (np.cos(theta) / n_clad)
                / (1.0 - s * s) ** 1.5)

    rho = np.asarray(rho, dtype=float)
    theta = np.arctan(rho / (height + cladding_thickness / n_clad))
    lo, hi = np.zeros_like(theta), np.full_like(theta, np.pi / 2)
    for _ in range(100):
        f = reach(theta) - rho
        lo = np.where(f < 0.0, theta, lo)
        hi = np.where(f > 0.0, theta, hi)
        nxt = theta - f / slope(theta)
        outside = (nxt < lo) | (nxt > hi)
        nxt = np.where(outside, 0.5 * (lo + hi), nxt)
        if np.max(np.abs(nxt - theta)) <= 1e-15:
            return nxt
        theta = nxt
    return theta


@pytest.mark.parametrize("height, cladding, n_clad", [
    (60e-6, 10e-6, 1.47), (30e-6, 0.0, 1.47), (45e-6, 8e-6, 1.0)])
def test_ray_inverse_in_reused_buffers_is_the_fresh_array_solve(
        height, cladding, n_clad):
    pose, footprint = IonPose(), GratingFootprint()
    gy, _ = np.polynomial.legendre.leggauss(256)
    x, y = np.meshgrid(np.linspace(0.0, footprint.x_extent, 512),
                       footprint.y_extent / 2 * gy, indexing="ij")
    rho = np.hypot(x - pose.x_ion, y - pose.y_ion)
    rho[0, :3] = 0.0, 1e-12, 1e-30
    for r in (rho, 12e-6):
        got = ray_vacuum_angle(r, height, cladding, n_clad)
        ref = _ray_vacuum_angle_reference(r, height, cladding, n_clad)
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(ref).view(np.int64))


def test_ray_inverse_stops_once_converged(monkeypatch):
    # the 512 x 256 emission grid of the nominal pose: the bisection step
    # taken once the bracket is an ulp wide must end the iteration
    pose, footprint = IonPose(), GratingFootprint()
    gy, _ = np.polynomial.legendre.leggauss(256)
    x, y = np.meshgrid(np.linspace(0.0, footprint.x_extent, 512),
                       footprint.y_extent / 2 * gy, indexing="ij")
    rho = np.hypot(x - pose.x_ion, y - pose.y_ion)
    steps = []
    slope = geometry._reach_slope

    def counted(*args):
        steps.append(1)
        return slope(*args)

    monkeypatch.setattr(geometry, "_reach_slope", counted)
    theta = ray_vacuum_angle(rho, pose.height_above_surface,
                             pose.cladding_thickness, 1.47)
    assert len(steps) <= 8
    back = _horizontal_reach(theta, pose.height_above_surface,
                             pose.cladding_thickness, 1.47)
    assert np.allclose(back, rho, rtol=1e-12, atol=1e-18)
