"""Acceptance tests: the headline numbers and properties of the toolkit.

Each test pins one end-user-facing claim at its stated tolerance; module
test files cover the finer-grained behavior.
"""

import time

import numpy as np
import pytest

from iongrating import constants, detection, dipole, fdtd, geometry, overlap
from iongrating.designer import fit_kappa
from iongrating.detection import DetectionConfig
from iongrating.geometry import GratingFootprint, IonPose, default_stack
from iongrating.library import UnitCellParams
from iongrating.propagation import (FieldGrid, angular_spectrum_propagate,
                                    beam_cross_section, gaussian_field,
                                    propagate_to_height)

WAVELENGTH = 422e-9
STACK = default_stack()
FOOTPRINT = GratingFootprint()
POSE = IonPose()


def _mc_solid_angle(footprint, pose, n_clad, n_rays, seed):
    """Isotropic ray sampling with flat-interface refraction tracing."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    costh = rng.uniform(-1.0, 1.0, n_rays)
    phi = rng.uniform(0.0, 2 * np.pi, n_rays)
    down = costh < 0.0
    st = np.sqrt(1.0 - costh[down] ** 2)
    theta = np.arctan2(st, -costh[down])
    s = np.sin(theta) / n_clad
    rho = (pose.height_above_surface * np.tan(theta)
           + pose.cladding_thickness * s / np.sqrt(1.0 - s * s))
    x = pose.x_ion + rho * np.cos(phi[down])
    y = pose.y_ion + rho * np.sin(phi[down])
    hits = ((x >= 0) & (x <= footprint.x_extent)
            & (np.abs(y) <= footprint.y_extent / 2))
    return hits.sum() / n_rays


def test_01_solid_angle():
    t0 = time.perf_counter()
    frac = geometry.solid_angle_fraction(FOOTPRINT, POSE)
    assert frac == pytest.approx(0.0218, abs=0.0005)
    n = 10**7
    est = _mc_solid_angle(FOOTPRINT, POSE, 1.47, n, seed=422)
    sigma = np.sqrt(est * (1 - est) / n)
    assert abs(est - frac) < 3 * sigma
    assert time.perf_counter() - t0 < 5.0


def test_02_sigma_dominance():
    t0 = time.perf_counter()
    emission = dipole.ion_intensity_profile(FOOTPRINT, POSE, 512)
    assert emission.sigma_share == pytest.approx(0.956, abs=0.005)
    assert time.perf_counter() - t0 < 30.0


def test_03_bright_state_fidelity():
    config = DetectionConfig(bright_rate=2.372 / 0.008)
    assert config.poisson_mean == pytest.approx(2.372)
    analytic = detection.bright_fidelity_analytic(config)
    assert analytic == pytest.approx(0.9067, abs=0.0005)
    trials = 10**5
    hist = detection.histogram_sim(config, "bright", trials, seed=3)
    mc = 1.0 - hist[: config.threshold].sum() / trials
    sigma = np.sqrt(analytic * (1 - analytic) / trials)
    assert abs(mc - analytic) < 3 * sigma


def test_04_dark_state_fidelity():
    fidelity, _ = detection.dark_fidelity_mc(DetectionConfig(), 10**6,
                                             seed=4)
    assert fidelity == pytest.approx(0.925, abs=0.010)
    decay_prob = 1.0 - np.exp(-0.008 / 0.39)
    assert decay_prob == pytest.approx(0.0203, abs=0.0003)


def test_05_adaptive_timing():
    t0 = time.perf_counter()
    t_bright, t_mixed = detection.adaptive_timing(DetectionConfig(), 10**6,
                                                  seed=5)
    assert t_bright == pytest.approx(2.66e-3, abs=0.15e-3)
    assert t_mixed == pytest.approx(5.33e-3, abs=0.1e-3)
    assert time.perf_counter() - t0 < 60.0


def test_06_loss_ledger_totals():
    total, sigma = detection.measured_loss_ledger().total()
    assert total == pytest.approx(-47.68, abs=1e-12)
    assert round(sigma, 2) == 0.11
    total, sigma = detection.emission_loss_ledger().total()
    assert total == pytest.approx(-47.9, abs=1e-12)
    assert sigma == pytest.approx(0.7, abs=0.005)
    total, _ = detection.improved_loss_ledger().total()
    assert total == pytest.approx(-28.1, abs=1e-12)


def test_07_ratio_calibration():
    value, sigma = detection.ratio_method(9.24e-3, 0.22e-3,
                                          1.85e-3, 0.02e-3)
    assert value == pytest.approx(1.71e-5, abs=0.005e-5)
    assert sigma == pytest.approx(0.04e-5, abs=0.01e-5)


def test_08_overlap_paths_agree(focused_design):
    # field-overlap (dipole x field) and intensity-formula efficiencies on
    # a sigma-dominant synthesized field
    at_ion = propagate_to_height(focused_design, POSE.z_ion,
                                 POSE.cladding_thickness).normalize()
    comb = overlap.combine_intensity_profiles(at_ion, at_ion)
    j, i = np.unravel_index(np.argmax(comb), comb.shape)
    eta_field = overlap.coupling_at_point(at_ion, at_ion, at_ion.x[i],
                                          at_ion.y[j]).eta
    eta_formula = overlap.efficiency_from_intensity(comb[j, i],
                                                    at_ion.pixel_size)
    assert eta_field == pytest.approx(eta_formula, rel=0.02)


@pytest.fixture(scope="module")
def kappa_vs_delta():
    cell = fdtd.default_cell_size(STACK, WAVELENGTH, 16)
    pitch = 0.30e-6
    results = []
    for frac in (0.0, 0.25, 0.5):
        params = UnitCellParams(pitch=pitch, dcu=0.5, dcl=0.5, dx=0.0,
                                delta=frac * pitch)
        results.append(fdtd.run_unit_cell(params, 8, WAVELENGTH, STACK,
                                          "TE", cell_size=cell))
    return results


def test_09_apodization_by_zone_shift(kappa_vs_delta):
    kappas = [fdtd.extract_kappa_alpha(r)[0] for r in kappa_vs_delta]
    assert all(a >= b for a, b in zip(kappas, kappas[1:]))
    assert kappas[-1] <= 0.05 * kappas[0]


def test_10_longitudinal_fit():
    emission = dipole.ion_intensity_profile(FOOTPRINT, POSE, 512)
    x, prof = emission.x, emission.intensity
    _, free = fit_kappa(prof, x, alpha=0.0)
    assert free.relative_l2 < 0.05
    _, constrained = fit_kappa(prof, x, alpha=0.0, kappa_max=0.25e6)
    assert constrained.residual_power < 0.10


def test_11_propagation_oracles(kappa_vs_delta):
    # Gaussian beam: waist grows by sqrt(2) over one Rayleigh range
    w0 = 2e-6
    out = angular_spectrum_propagate(gaussian_field(w0),
                                     np.pi * w0**2 / WAVELENGTH)
    intensity, _, idx = beam_cross_section(out)
    row, x = intensity[idx[0], :], out.x
    mean = np.sum(row * x) / np.sum(row)
    w = 2 * np.sqrt(np.sum(row * (x - mean) ** 2) / np.sum(row))
    assert w == pytest.approx(w0 * np.sqrt(2), rel=0.01)

    # slit diffraction vs the Fresnel-integral solution
    from scipy.special import fresnel
    s, nx, ny, z = 0.05e-6, 4096, 512, 50e-6
    xs = -nx * s / 2 + s * np.arange(nx)
    mask = np.abs(xs) <= 2e-6
    data = np.zeros((ny, nx), dtype=complex)
    data[:, mask] = 1.0
    out = angular_spectrum_propagate(
        FieldGrid(data, s, x0=xs[0], y0=-ny * s / 2), z)
    row = np.abs(out.data[ny // 2, :]) ** 2
    a = np.sqrt(2 / (WAVELENGTH * z))
    lo, hi = xs[mask][0] - s / 2, xs[mask][-1] + s / 2
    s2, c2 = fresnel(a * (hi - xs))
    s1, c1 = fresnel(a * (lo - xs))
    oracle = 0.5 * ((c2 - c1) ** 2 + (s2 - s1) ** 2)
    rms = np.sqrt(np.mean((row - oracle) ** 2))
    assert rms < 0.02 * np.sqrt(np.mean(oracle**2))

    # unit-cell solver conserves energy on every zone shift: the cells
    # close within 7e-4 (up to 0.027 with the in-plane field dated a step
    # late, which skews the reflected flux where waves meet)
    for result in kappa_vs_delta:
        total = (result.p_trans + result.p_reflected + result.p_up
                 + result.p_down)
        assert total == pytest.approx(1.0, abs=1e-3)


def test_12_end_to_end_focus(focused_design):
    # brightest point within +-2 um of the ion both transversely and in
    # height (z measured from the grating plane; the ion sits above 5 um
    # of cladding plus 50 um of vacuum)
    best = (-np.inf, None, None)
    for z in np.arange(50e-6, 60.5e-6, 0.5e-6):
        field = propagate_to_height(focused_design, z,
                                    POSE.cladding_thickness)
        _, i_max, idx = beam_cross_section(field)
        if i_max > best[0]:
            best = (i_max, z, field.x[idx[1]])
    _, z_best, x_best = best
    assert abs(z_best - POSE.cladding_thickness - 50e-6) <= 2e-6
    assert abs(x_best - 28e-6) <= 2e-6

    # peak per-polarization coupling stays below the solid-angle bound
    at_ion = propagate_to_height(focused_design, POSE.z_ion,
                                 POSE.cladding_thickness).normalize()
    per_mode = overlap.collection_map(
        at_ion, at_ion, (POSE.x_ion - 3e-6, POSE.x_ion + 3e-6),
        (-3e-6, 3e-6), 0.2e-6,
        projection_sq=(overlap.SIGMA_MODE_PROJECTION_SQ, 0.0))
    assert per_mode.eta.max() <= 0.0109


def test_13_measured_device_numbers_are_reference_only():
    refs = {
        constants.MEASURED_COLLECTION_EFFICIENCY: 4.3e-4,
        constants.EMISSION_PROFILE_COLLECTION_EFFICIENCY: 4.1e-4,
        constants.MEASURED_TM_CROSSTALK_DB: -5.3,
        constants.FAB_DELTA_ITO_DB: -0.3,
        constants.FAB_DELTA_DIVOT_DB: -2.9,
        constants.FAB_DELTA_TRIANGULAR_DB: -2.3,
        constants.FAB_DELTA_ELLIPSOIDAL_DB: -4.7,
    }
    for ref, value in refs.items():
        assert ref.value == value
        assert ref.label  # provenance text, not a bare number
