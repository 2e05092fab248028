"""Tests for coupling efficiency, collection maps, and crosstalk."""

import numpy as np
import pytest

from iongrating.geometry import GratingFootprint, IonPose, default_stack
from iongrating.overlap import (SIGMA_MODE_PROJECTION_SQ, CouplingResult,
                                collection_map, combine_intensity_profiles,
                                coupling_at_point, crosstalk_metrics,
                                dipole_moment_scale,
                                efficiency_from_intensity)
from iongrating.propagation import FieldGrid, propagate_to_height

WAVELENGTH = 422e-9
PER_MODE_BOUND = 0.0109


def _random_field_pair(seed=2, n=32, s=0.1e-6):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    te = FieldGrid(a, s, polarization="TE").normalize()
    tm = FieldGrid(b, s, polarization="TM").normalize()
    return te, tm


# ---------------------------------------------------------------------------
# Formula-level operations

def test_dipole_moment_scale_value():
    # frozen from p0 = sqrt(3 lambda^4 / (4 pi^3 c^3 mu0)) at 422 nm
    assert dipole_moment_scale(WAVELENGTH) == pytest.approx(
        4.7598661254430944e-24, rel=1e-12)


def test_efficiency_from_intensity_arithmetic():
    s = 0.1e-6
    eta = efficiency_from_intensity(0.01, s, WAVELENGTH)
    assert eta == pytest.approx(WAVELENGTH**2 / (4 * np.pi) * 0.01 / s**2)


def test_efficiency_from_intensity_validation():
    with pytest.raises(ValueError):
        efficiency_from_intensity(-0.1, 0.1e-6)
    with pytest.raises(ValueError):
        efficiency_from_intensity(1.5, 0.1e-6)  # not a normalized profile
    with pytest.raises(ValueError):
        efficiency_from_intensity(1.0, 1e-9)  # eta > 1, unphysical


def test_efficiency_resolution_independent():
    # splitting each pixel into four preserves the physical field: the
    # per-pixel fraction quarters while the pixel area quarters too
    s, i_max = 0.1e-6, 0.004
    coarse = efficiency_from_intensity(i_max, s)
    fine = efficiency_from_intensity(i_max / 4, s / 2)
    assert fine == pytest.approx(coarse, rel=1e-12)


# ---------------------------------------------------------------------------
# Grid-level coupling

def test_combined_profile_unit_total():
    te, tm = _random_field_pair()
    comb = combine_intensity_profiles(te, tm)
    assert comb.sum() == pytest.approx(1.0, abs=1e-12)


def test_combined_profile_rejects_empty_mode():
    te, tm = _random_field_pair()
    dead = FieldGrid(np.zeros_like(tm.data), tm.pixel_size,
                     polarization="TM")
    with pytest.raises(ValueError):
        combine_intensity_profiles(te, dead)


def test_eq3_matches_eq5_exactly():
    # with the sigma projection (2/3)(1/2) per mode, the field-overlap
    # route and the brightest-pixel shortcut agree identically on the
    # equal-weight combined profile
    te, tm = _random_field_pair()
    comb = combine_intensity_profiles(te, tm)
    j, i = np.unravel_index(np.argmax(comb), comb.shape)
    eta5 = efficiency_from_intensity(comb[j, i], te.pixel_size, WAVELENGTH)
    x = te.x0 + i * te.pixel_size
    y = te.y0 + j * te.pixel_size
    eta3 = coupling_at_point(te, tm, x, y).eta
    assert eta3 == pytest.approx(eta5, rel=1e-9)
    assert abs(eta3 - eta5) <= 0.02 * eta5


def test_point_coupling_reports_its_te_part():
    te, tm = _random_field_pair()
    x, y = te.x[7], te.y[5]
    both = coupling_at_point(te, tm, x, y)
    te_only = coupling_at_point(te, tm, x, y,
                                projection_sq=(SIGMA_MODE_PROJECTION_SQ, 0.0))
    assert both.eta_te == te_only.eta == te_only.eta_te
    assert 0.0 < both.eta_te < both.eta


def test_coupling_requires_normalized_fields():
    te, tm = _random_field_pair()
    raw = FieldGrid(te.data * 3.0, te.pixel_size, polarization="TE")
    with pytest.raises(ValueError):
        coupling_at_point(raw, tm, 0.0, 0.0)


def test_coupling_requires_one_wavelength():
    te, tm = _random_field_pair()
    tm.wavelength = 2 * te.wavelength
    with pytest.raises(ValueError, match="wavelength"):
        coupling_at_point(te, tm, te.x[0], te.y[0])
    with pytest.raises(ValueError, match="wavelength"):
        collection_map(te, tm, (te.x[0], te.x[1]), (te.y[0], te.y[1]),
                       te.pixel_size)


def test_coupling_outside_grid():
    te, tm = _random_field_pair()
    with pytest.raises(ValueError):
        coupling_at_point(te, tm, 1.0, 0.0)


def test_coupling_result_range_check():
    with pytest.raises(ValueError):
        CouplingResult(1.2)
    with pytest.raises(ValueError):
        CouplingResult(-0.1)


# ---------------------------------------------------------------------------
# Collection maps and crosstalk

def test_map_maximum_matches_point_coupling():
    te, tm = _random_field_pair()
    ext = (te.x[2], te.x[-3])
    m = collection_map(te, tm, ext, ext, te.pixel_size)
    single = coupling_at_point(te, tm, m.peak[0], m.peak[1])
    assert m.eta.max() == pytest.approx(single.eta, rel=1e-12)
    assert np.all(m.eta >= 0)
    assert np.all(m.eta == m.eta_te + m.eta_tm)


def test_map_raster_exceeding_grid():
    te, tm = _random_field_pair()
    with pytest.raises(ValueError):
        collection_map(te, tm, (-1e-3, 1e-3), (0.0, 1e-6), 0.1e-6)


def test_te_tm_argmax_offset():
    s = 0.1e-6
    base = np.full((32, 32), 0.01, dtype=complex)
    a, b = base.copy(), base.copy()
    a[16, 10] = 1.0
    b[16, 14] = 1.0
    te = FieldGrid(a, s, polarization="TE").normalize()
    tm = FieldGrid(b, s, polarization="TM").normalize()
    ext = (te.x[2], te.x[-3])
    m = collection_map(te, tm, ext, ext, te.pixel_size)
    j_te = np.unravel_index(np.argmax(m.eta_te), m.eta_te.shape)
    j_tm = np.unravel_index(np.argmax(m.eta_tm), m.eta_tm.shape)
    assert j_tm[1] - j_te[1] == 4
    report = crosstalk_metrics(m.eta_te, m.eta_tm, m.x, m.y)
    assert report.offset == pytest.approx(4 * te.pixel_size, rel=1e-9)


def test_crosstalk_identical_maps():
    te, _ = _random_field_pair()
    m = np.abs(te.data) ** 2
    report = crosstalk_metrics(m, m, te.x, te.y)
    assert report.suppression_db == pytest.approx(0.0, abs=1e-12)
    assert report.offset == 0.0
    assert report.power_ratio == pytest.approx(1.0, rel=1e-12)


def test_crosstalk_scaled_map():
    te, _ = _random_field_pair()
    m = np.abs(te.data) ** 2
    report = crosstalk_metrics(m, 0.05 * m, te.x, te.y)
    assert report.suppression_db == pytest.approx(10 * np.log10(0.05),
                                                  rel=1e-9)
    assert report.power_ratio == pytest.approx(0.05, rel=1e-12)


def test_crosstalk_zero_te():
    xy = np.arange(5.0)
    with pytest.raises(ValueError):
        crosstalk_metrics(np.zeros((4, 4)), np.ones((4, 4)), xy, xy)
    with pytest.raises(ValueError):
        crosstalk_metrics(np.ones((4, 4)), np.ones((5, 5)), xy, xy)


# ---------------------------------------------------------------------------
# Synthesized design stays below the solid-angle bound

def test_focused_design_below_per_mode_bound(focused_design):
    pose = IonPose()
    stack = default_stack()
    z_ion = pose.cladding_thickness + pose.height_above_surface
    at_ion = propagate_to_height(focused_design, z_ion,
                                 pose.cladding_thickness,
                                 stack.cladding_index)
    at_ion = at_ion.normalize()
    res = coupling_at_point(at_ion, at_ion, pose.x_ion, 0.0,
                            projection_sq=(SIGMA_MODE_PROJECTION_SQ, 0.0))
    assert 0.0 < res.eta <= PER_MODE_BOUND
    # and the total with both modes stays below twice the bound
    both = coupling_at_point(at_ion, at_ion, pose.x_ion, 0.0)
    assert both.eta <= 2 * PER_MODE_BOUND


def test_focused_design_map_peaks_at_ion(focused_design):
    pose = IonPose()
    stack = default_stack()
    z_ion = pose.cladding_thickness + pose.height_above_surface
    at_ion = propagate_to_height(focused_design, z_ion,
                                 pose.cladding_thickness,
                                 stack.cladding_index).normalize()
    m = collection_map(at_ion, at_ion,
                       (pose.x_ion - 5e-6, pose.x_ion + 5e-6),
                       (-5e-6, 5e-6), 0.2e-6)
    assert m.peak[0] == pytest.approx(pose.x_ion, abs=2e-6)
    assert abs(m.peak[1]) < 1e-6
    assert np.all(m.eta <= 2 * PER_MODE_BOUND)
