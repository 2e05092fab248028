"""Tests for the 2D unit-cell FDTD solver and observable extraction."""

import dataclasses

import numpy as np
import pytest

from iongrating import constants, fdtd, geometry
from iongrating.library import UnitCellParams

WAVELENGTH = 422e-9
STACK = geometry.default_stack()
CELL = fdtd.default_cell_size(STACK, WAVELENGTH, 16)


def params(pitch=0.30e-6, dcu=0.5, dcl=0.5, dx=0.0, delta=0.0):
    return UnitCellParams(pitch=pitch, dcu=dcu, dcl=dcl, dx=dx, delta=delta)


@pytest.fixture(scope="module")
def symmetric_cell():
    """Both layers toothed identically: an up/down symmetric radiator."""
    return fdtd.run_unit_cell(params(), 8, WAVELENGTH, STACK, "TE",
                              cell_size=CELL)


# ---------------------------------------------------------------------------
# Validation and cheap unit-level checks

def test_grid_rejects_courant_violation():
    dt_max = CELL / (constants.C0 * np.sqrt(2.0))
    with pytest.raises(ValueError):
        fdtd.SimulationGrid(cell_size=CELL, time_step=1.01 * dt_max,
                            nx=50, nz=50)


def test_grid_rejects_thin_pml():
    dt = 0.5 * CELL / (constants.C0 * np.sqrt(2.0))
    with pytest.raises(ValueError):
        fdtd.SimulationGrid(cell_size=CELL, time_step=dt, nx=50, nz=50,
                            pml_cells=4)


def test_unresolved_feature_raises():
    with pytest.raises(fdtd.ResolutionError):
        fdtd.run_unit_cell(params(dcu=0.9), 6, WAVELENGTH, STACK, "TE",
                           cell_size=CELL)


def test_too_few_periods_rejected():
    with pytest.raises(ValueError):
        fdtd.run_unit_cell(params(), 2, WAVELENGTH, STACK, "TE",
                           cell_size=CELL)


def test_mode_solver_matches_transfer_matrix():
    # the finite-difference eigenmode index should agree with the
    # semi-analytic transfer-matrix dispersion up to discretization error
    material = fdtd.unit_cell_material_map(STACK, None, 0, CELL)
    col = material.n[5, :]
    for pol in ("TE", "TM"):
        n_fd, profile = fdtd.slab_mode_profile(col, CELL, WAVELENGTH, pol)
        n_tmm = geometry.effective_index(STACK, WAVELENGTH, pol)
        assert abs(n_fd - n_tmm) < 1.5e-2
        # fundamental mode profile: single-signed dominant lobe, decayed tails
        assert abs(profile[0]) < 1e-3 and abs(profile[-1]) < 1e-3
        assert np.max(profile) == pytest.approx(1.0)


def test_zone_average_row_limits():
    # sample off the exact tooth edges to avoid mod-boundary ties
    x = np.linspace(0.0, 3e-6, 4001) + 1e-10 * np.sqrt(2.0)
    pitch, n_t, n_g = 0.3e-6, 2.05, 1.47
    # delta = 0 reproduces the binary tooth profile
    row0 = fdtd._zone_averaged_index_row(x, 0.0, 3e-6, pitch, 0.5, 0.0, 0.0,
                                         n_t, n_g)
    assert set(np.round(row0, 6)) <= {round(n_t, 6), round(n_g, 6)}
    # delta = pitch/2 at 50% duty averages to a uniform permittivity
    row_h = fdtd._zone_averaged_index_row(x, 0.0, 3e-6, pitch, 0.5, 0.0,
                                          pitch / 2, n_t, n_g)
    inside = (x >= 0) & (x < 3e-6)
    expected = np.sqrt(0.5 * (n_t**2 + n_g**2))
    assert np.allclose(row_h[inside], expected, atol=1e-9)


def test_cross_section_teeth_follow_guiding():
    p = params(dcu=0.5, dcl=0.4, dx=0.05e-6)
    teeth = [t for _, _, t in fdtd._cross_section(STACK, p)]
    # the spacer is guiding but cladding-index, so it carries no teeth
    assert teeth == [(0.4, 0.05e-6), None, (0.5, 0.0)]
    lower_only = dataclasses.replace(STACK, guiding=("lower_nitride",))
    assert [t for _, _, t in fdtd._cross_section(lower_only, p)] == [
        (0.5, 0.0), None, None]
    assert all(t is None for _, _, t in fdtd._cross_section(STACK, None))
    bottoms = [zb for _, zb, _ in fdtd._cross_section(STACK, p)]
    assert bottoms == pytest.approx([0.0, 100e-9, 190e-9])


def test_grating_map_first_column_is_tooth_free():
    # run_unit_cell builds its reference from this column
    grating = fdtd.unit_cell_material_map(STACK, params(), 8, CELL)
    plain = fdtd.unit_cell_material_map(STACK, None, 8, CELL)
    assert np.array_equal(grating.n[0], plain.n[0])
    assert np.array_equal(plain.n, np.repeat(plain.n[:1], plain.n.shape[0],
                                             axis=0))
    assert not np.array_equal(grating.n, np.repeat(
        grating.n[:1], grating.n.shape[0], axis=0))


def test_extract_kappa_alpha_formulas():
    # synthetic result with known exponential depletion
    length = 1e-6
    p_t = 1.0 - np.exp(-2.0)
    res = fdtd.CellResult(p_in=1.0, p_t=p_t, p_d=0.25 * p_t, p_up=0.3,
                          p_down=0.3, p_trans=1 - p_t, p_reflected=0.0,
                          length=length, peak_angle=0.0, target_angle=0.0,
                          angular_window=0.3, n_cladding=1.47,
                          wavelength=WAVELENGTH, cell_size=CELL,
                          top_field=np.zeros(4), top_x=np.zeros(4))
    kappa, alpha = fdtd.extract_kappa_alpha(res)
    assert kappa + alpha == pytest.approx(2.0 / length, rel=1e-12)
    assert kappa == pytest.approx(0.25 * 2.0 / length, rel=1e-12)


def test_extract_kappa_alpha_depletion_error():
    res = fdtd.CellResult(p_in=1.0, p_t=1.0, p_d=0.5, p_up=0.5, p_down=0.0,
                          p_trans=0.0, p_reflected=0.0, length=1e-6,
                          peak_angle=0.0, target_angle=0.0,
                          angular_window=0.3, n_cladding=1.47,
                          wavelength=WAVELENGTH, cell_size=CELL,
                          top_field=np.zeros(4), top_x=np.zeros(4))
    with pytest.raises(fdtd.DepletionError):
        fdtd.extract_kappa_alpha(res)


def test_directivity_undefined_without_radiation():
    res = fdtd.CellResult(p_in=1.0, p_t=0.0, p_d=0.0, p_up=0.0, p_down=0.0,
                          p_trans=1.0, p_reflected=0.0, length=1e-6,
                          peak_angle=0.0, target_angle=0.0,
                          angular_window=0.3, n_cladding=1.47,
                          wavelength=WAVELENGTH, cell_size=CELL,
                          top_field=np.zeros(4), top_x=np.zeros(4))
    with pytest.raises(fdtd.DirectivityUndefinedError):
        fdtd.directivity(res)


def test_far_field_plane_wave_oracle():
    # a windowed plane wave should peak at its own propagation angle
    n_clad = 1.47
    theta0 = np.deg2rad(12.0)
    kx = 2 * np.pi / WAVELENGTH * n_clad * np.sin(theta0)
    x = np.arange(1200) * CELL
    window = np.hanning(len(x))
    field = window * np.exp(1j * kx * x)
    res = fdtd.CellResult(p_in=1.0, p_t=0.0, p_d=0.0, p_up=0.0, p_down=0.0,
                          p_trans=0.0, p_reflected=0.0, length=1e-6,
                          peak_angle=np.nan, target_angle=np.nan,
                          angular_window=0.3, n_cladding=n_clad,
                          wavelength=WAVELENGTH, cell_size=CELL,
                          top_field=field, top_x=x)
    spec = fdtd.far_field_angle_spectrum(res)
    assert abs(spec.peak_angle - theta0) < np.deg2rad(0.5)
    assert not spec.truncation_warning


# ---------------------------------------------------------------------------
# Full simulation behavior

def test_uniform_waveguide_transmits():
    # raw (unnormalized) propagation through a tooth-free section:
    # nearly all launched guided power crosses the output monitor, and
    # stray launch radiation stays below a couple of percent
    material = fdtd.unit_cell_material_map(STACK, None, 0, CELL,
                                           margin_out=3.0e-6)
    col = material.n[material.meta["i_in"] - 2, :]
    _, profile = fdtd.slab_mode_profile(col, CELL, WAVELENGTH, "TE")
    sim, monitors, _ = fdtd._simulate(material, WAVELENGTH, "TE", profile,
                                      12, 400)
    p_in = monitors[0].flux(sim)
    p_out = monitors[1].flux(sim)
    assert p_out / p_in > 0.97
    assert abs(monitors[2].flux(sim)) / p_in < 0.02
    # closed-box energy balance of the raw run
    balance = (p_out + monitors[2].flux(sim) - monitors[3].flux(sim)) / p_in
    assert balance == pytest.approx(1.0, abs=0.01)


def test_symmetric_grating_radiates_evenly(symmetric_cell):
    assert fdtd.directivity(symmetric_cell) == pytest.approx(0.5, abs=0.02)


def test_energy_conservation_within_one_percent(symmetric_cell):
    r = symmetric_cell
    total = r.p_trans + r.p_reflected + r.p_up + r.p_down
    assert total == pytest.approx(1.0, abs=0.01)


def test_peak_angle_matches_grating_equation(symmetric_cell):
    # outcoupling angle set by the duty-averaged local effective index
    assert abs(symmetric_cell.peak_angle
               - symmetric_cell.target_angle) < np.deg2rad(1.0)


def test_desired_order_carries_most_upward_power(symmetric_cell):
    assert symmetric_cell.p_d / symmetric_cell.p_up > 0.85


def test_spectrum_total_consistent_with_monitor_flux(symmetric_cell):
    spec = fdtd.far_field_angle_spectrum(symmetric_cell)
    assert spec.total == pytest.approx(symmetric_cell.p_up, rel=0.12)


def test_kappa_independent_of_section_length(symmetric_cell):
    k8, _ = fdtd.extract_kappa_alpha(symmetric_cell)
    r12 = fdtd.run_unit_cell(params(), 12, WAVELENGTH, STACK, "TE",
                             cell_size=CELL)
    k12, _ = fdtd.extract_kappa_alpha(r12)
    assert abs(k12 - k8) / k8 < 0.10


def test_layer_offset_breaks_updown_symmetry(symmetric_cell):
    # quarter-guided-wavelength offset between the layers steers power up
    lam_g = WAVELENGTH / geometry.effective_index(STACK, WAVELENGTH, "TE")
    r = fdtd.run_unit_cell(params(dx=lam_g / 4), 8, WAVELENGTH, STACK,
                           "TE", cell_size=CELL)
    assert fdtd.directivity(r) > 0.75
    assert r.p_up > symmetric_cell.p_up


def test_half_pitch_zone_shift_suppresses_kappa(symmetric_cell):
    k0, _ = fdtd.extract_kappa_alpha(symmetric_cell)
    r = fdtd.run_unit_cell(params(delta=0.15e-6), 8, WAVELENGTH, STACK,
                           "TE", cell_size=CELL)
    k_half, _ = fdtd.extract_kappa_alpha(r)
    assert k_half <= 0.05 * k0


def test_tm_polarization_runs(symmetric_cell):
    r = fdtd.run_unit_cell(params(pitch=0.32e-6), 6, WAVELENGTH, STACK,
                           "TM", cell_size=CELL)
    total = r.p_trans + r.p_reflected + r.p_up + r.p_down
    assert total == pytest.approx(1.0, abs=0.015)
    assert fdtd.directivity(r) == pytest.approx(0.5, abs=0.05)
    # TM coupling to these thin high-index layers is far weaker than TE
    k_tm, _ = fdtd.extract_kappa_alpha(r)
    k_te, _ = fdtd.extract_kappa_alpha(symmetric_cell)
    assert k_tm < 0.5 * k_te


def test_runs_are_deterministic(symmetric_cell):
    r = fdtd.run_unit_cell(params(), 8, WAVELENGTH, STACK, "TE",
                           cell_size=CELL)
    assert r.p_t == symmetric_cell.p_t
    assert r.p_up == symmetric_cell.p_up
    assert np.array_equal(r.top_field, symmetric_cell.top_field)
