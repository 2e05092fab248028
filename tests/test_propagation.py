"""Tests for scalar field synthesis, propagation, and field I/O."""

import io
import tracemalloc
import zipfile

import numpy as np
import pytest
from scipy.special import fresnel

from iongrating.constants import N_SIO2
from iongrating.designer import ToothSpec
from iongrating.geometry import GratingFootprint, IonPose, default_stack
from iongrating.library import UnitCellParams
from iongrating.propagation import (FieldGrid, PaddingError,
                                    angular_spectrum_propagate,
                                    beam_cross_section, gaussian_field,
                                    load_field, propagate_to_height,
                                    save_field, synthesize_near_field)

WAVELENGTH = 422e-9
STACK = default_stack()
POSE = IonPose()
FOOTPRINT = GratingFootprint()


# ---------------------------------------------------------------------------
# FieldGrid basics

def test_fieldgrid_validation():
    with pytest.raises(ValueError):
        FieldGrid(np.zeros(8, dtype=complex), 0.1e-6)
    with pytest.raises(ValueError):
        FieldGrid(np.zeros((4, 4), dtype=complex), 0.0)


def test_normalize_unit_power():
    g = gaussian_field(2e-6)
    assert g.power() == pytest.approx(1.0, abs=1e-9)
    assert g.normalized


def test_normalize_into_own_grid_is_the_copy():
    g = FieldGrid(2.0 * gaussian_field(2e-6, shape=(64, 64)).data, 0.1e-6)
    copy = g.normalize()
    data = g.data
    into = g.normalize(out=data)
    assert into.data is data and into.normalized
    assert np.array_equal(into.data.view(np.float64),
                          copy.data.view(np.float64))


def test_normalize_zero_field_rejected():
    g = FieldGrid(np.zeros((8, 8), dtype=complex), 0.1e-6)
    with pytest.raises(ValueError):
        g.normalize()


# ---------------------------------------------------------------------------
# Angular-spectrum propagation

def test_zero_distance_identity():
    g = gaussian_field(2e-6)
    out = angular_spectrum_propagate(g, 0.0)
    assert np.array_equal(out.data, g.data)
    assert out.data is not g.data


def test_gaussian_rayleigh_range_waist():
    w0 = 2e-6
    z_r = np.pi * w0**2 / WAVELENGTH
    g = gaussian_field(w0)
    out = angular_spectrum_propagate(g, z_r)
    intensity, _, idx = beam_cross_section(out)
    row = intensity[idx[0], :]
    x = out.x
    mean = np.sum(row * x) / np.sum(row)
    w = 2 * np.sqrt(np.sum(row * (x - mean) ** 2) / np.sum(row))
    assert w == pytest.approx(w0 * np.sqrt(2), rel=0.01)


def test_energy_conserved_propagating_field():
    g = gaussian_field(2e-6)  # bandlimited: no evanescent content
    out = angular_spectrum_propagate(g, 30e-6)
    assert abs(out.power() - g.power()) < 1e-6 * g.power()


def test_forward_backward_round_trip():
    g = gaussian_field(2e-6)
    out = angular_spectrum_propagate(
        angular_spectrum_propagate(g, 20e-6), -20e-6)
    rms = np.sqrt(np.mean(np.abs(out.data - g.data) ** 2))
    scale = np.sqrt(np.mean(np.abs(g.data) ** 2))
    assert rms < 1e-9 * scale
    assert out.z == pytest.approx(0.0, abs=1e-20)


def test_linearity():
    rng = np.random.Generator(np.random.Philox(11))
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    f = gaussian_field(2e-6)
    g_data = f.data * np.exp(1j * 2e5 * f.x)[None, :]
    g = FieldGrid(g_data, f.pixel_size, x0=f.x0, y0=f.y0)
    combo = FieldGrid(a * f.data + b * g.data, f.pixel_size,
                      x0=f.x0, y0=f.y0)
    lhs = angular_spectrum_propagate(combo, 15e-6).data
    rhs = (a * angular_spectrum_propagate(f, 15e-6).data
           + b * angular_spectrum_propagate(g, 15e-6).data)
    rms = np.sqrt(np.mean(np.abs(lhs - rhs) ** 2))
    assert rms < 1e-9 * np.sqrt(np.mean(np.abs(lhs) ** 2))
    del rng  # determinism: no randomness actually needed above


def test_evanescent_components_decay_both_directions():
    # a 2-pixel-wide spot carries spatial frequencies beyond k0
    data = np.zeros((64, 64), dtype=complex)
    data[31:33, 31:33] = 1.0
    g = FieldGrid(data, 0.1e-6)
    for dz in (0.2e-6, -0.2e-6):
        out = angular_spectrum_propagate(g, dz)
        assert out.power() < g.power()


def _out_of_place_propagate(g, dz, medium_index):
    """The out-of-place product with the transfer on the whole (ky, kx)
    grid, which the in-place, distinct-frequency propagation replaced,
    kept as its oracle."""
    ny, nx = g.data.shape
    k = 2 * np.pi * medium_index / g.wavelength
    kx = 2 * np.pi * np.fft.fftfreq(nx, d=g.pixel_size)
    ky = 2 * np.pi * np.fft.fftfreq(ny, d=g.pixel_size)
    kz_sq = k**2 - kx[None, :] ** 2 - ky[:, None] ** 2
    prop = kz_sq >= 0.0
    kz = np.sqrt(np.abs(kz_sq))
    transfer = np.where(prop, np.exp(1j * kz * dz),
                        np.exp(-kz * abs(dz)))
    return np.fft.ifft2(np.fft.fft2(g.data) * transfer)


def _spot(shape):
    # a 2-pixel-wide spot carries spatial frequencies beyond k0
    data = np.zeros(shape, dtype=complex)
    data[31:33, 31:33] = 1.0
    return FieldGrid(data, 0.1e-6)


def _speckle(shape):
    """Seeded complex noise 8 pixels clear of the edges: energy in every
    spatial-frequency band, the evanescent ones included."""
    rng = np.random.default_rng(34)
    inner = (shape[0] - 16, shape[1] - 16)
    data = np.zeros(shape, dtype=complex)
    data[8:-8, 8:-8] = (rng.standard_normal(inner)
                        + 1j * rng.standard_normal(inner))
    return FieldGrid(data, 0.1e-6)


# the transfer is evaluated once per distinct (ky^2, kx^2) and read row by
# row: the speckle cases hold the full-grid bits for even and odd sides,
# both directions and the evanescent bands
@pytest.mark.parametrize("grid, dz, medium_index", [
    (lambda: gaussian_field(2e-6, shape=(128, 128)), 20e-6, 1.0),
    (lambda: gaussian_field(2e-6, shape=(96, 128)), -7.3e-6, N_SIO2),
    (lambda: _spot((64, 80)), 0.2e-6, 1.0),
    (lambda: _spot((64, 80)), -0.2e-6, N_SIO2),
    (lambda: _speckle((512, 512)), 5e-6, N_SIO2),
    (lambda: _speckle((512, 512)), -3e-6, 1.0),
    (lambda: _speckle((255, 257)), 0.2e-6, 1.0),
    (lambda: _speckle((255, 257)), -5e-6, N_SIO2),
    (lambda: _speckle((96, 64)), 3e-6, 1.0),
    (lambda: _speckle((96, 64)), -0.2e-6, N_SIO2),
], ids=["forward", "backward-cladding", "evanescent-forward",
        "evanescent-backward", "speckle-512-forward",
        "speckle-512-backward", "speckle-odd-forward",
        "speckle-odd-backward", "speckle-96x64-forward",
        "speckle-96x64-backward"])
def test_in_place_propagation_matches_out_of_place_bit_for_bit(
        grid, dz, medium_index):
    g = grid()
    before = g.data.copy()
    out = angular_spectrum_propagate(g, dz, medium_index)
    expected = _out_of_place_propagate(g, dz, medium_index)
    # the same bits, signs of zeros included
    assert np.array_equal(out.data.view(np.float64),
                          expected.view(np.float64))
    assert np.array_equal(g.data.view(np.float64),
                          before.view(np.float64))
    assert not np.shares_memory(out.data, g.data)


def test_undersampled_grid_rejected():
    data = np.zeros((32, 32), dtype=complex)
    data[16, 16] = 1.0
    g = FieldGrid(data, 0.15e-6)
    # 150 nm sampling resolves vacuum (lambda/2 = 211 nm) ...
    angular_spectrum_propagate(g, 1e-6)
    # ... but not silica (lambda_m/2 = 143 nm)
    with pytest.raises(ValueError):
        angular_spectrum_propagate(g, 1e-6, medium_index=1.47)


def test_edge_energy_triggers_padding_error():
    data = np.zeros((64, 64), dtype=complex)
    data[0, :] = 1.0
    g = FieldGrid(data, 0.1e-6)
    with pytest.raises(PaddingError):
        angular_spectrum_propagate(g, 1e-6)


def test_fresnel_slit_oracle():
    # 4 um slit propagated 50 um vs. the Fresnel-integral solution
    s, nx, ny, z = 0.05e-6, 4096, 512, 50e-6
    x = -nx * s / 2 + s * np.arange(nx)
    mask = np.abs(x) <= 2e-6
    data = np.zeros((ny, nx), dtype=complex)
    data[:, mask] = 1.0
    g = FieldGrid(data, s, x0=x[0], y0=-ny * s / 2)
    out = angular_spectrum_propagate(g, z)
    row = np.abs(out.data[ny // 2, :]) ** 2
    a = np.sqrt(2 / (WAVELENGTH * z))
    lo, hi = x[mask][0] - s / 2, x[mask][-1] + s / 2
    s2, c2 = fresnel(a * (hi - x))
    s1, c1 = fresnel(a * (lo - x))
    oracle = 0.5 * ((c2 - c1) ** 2 + (s2 - s1) ** 2)
    rms = np.sqrt(np.mean((row - oracle) ** 2))
    assert rms < 0.02 * np.sqrt(np.mean(oracle**2))


def test_one_transfer_matches_the_cladding_then_vacuum_steps():
    # a 2 um waist carries nothing beyond k0 (its spectrum there is
    # e^-222), so dropping that band leaves the two steps' product; the
    # one transfer differs from them by rounding (2e-14 measured)
    g = gaussian_field(2e-6)
    out = propagate_to_height(g, 12e-6, cladding_thickness=5e-6,
                              n_cladding=1.47)
    manual = angular_spectrum_propagate(
        angular_spectrum_propagate(g, 5e-6, 1.47), 7e-6, 1.0)
    err = np.linalg.norm(out.data - manual.data)
    assert err < 1e-12 * np.linalg.norm(manual.data)
    assert out.z == pytest.approx(12e-6)
    assert (out.x0, out.y0) == (g.x0, g.y0)
    with pytest.raises(ValueError):
        propagate_to_height(out, 1e-6, 5e-6)


def test_one_transfer_drops_what_cannot_reach_vacuum():
    # the 2-pixel spot spreads over every band; only |k_t| <= k0 crosses
    # into vacuum, and the total reflection beyond it is not modelled
    g = _spot((64, 64))
    out = propagate_to_height(g, 0.5e-6, cladding_thickness=0.2e-6,
                              n_cladding=1.47)
    spec = np.fft.fft2(out.data)
    kx = 2 * np.pi * np.fft.fftfreq(64, d=g.pixel_size)
    kt2 = kx[None, :] ** 2 + kx[:, None] ** 2
    k0 = 2 * np.pi / g.wavelength
    assert np.abs(spec[kt2 > k0**2]).max() < 1e-12 * np.abs(spec).max()
    # inside the band it is the two steps' product
    manual = np.fft.fft2(angular_spectrum_propagate(
        angular_spectrum_propagate(g, 0.2e-6, 1.47), 0.3e-6, 1.0).data)
    band = kt2 <= k0**2
    assert np.allclose(spec[band], manual[band], rtol=0.0,
                       atol=1e-12 * np.abs(manual).max())


def test_one_transfer_samples_the_vacuum_band():
    # a 0.2 um pixel resolves the vacuum band (lambda/2 = 211 nm), not
    # the cladding's (143 nm); a target inside the cladding keys on it
    g = FieldGrid(_spot((64, 64)).data, 0.2e-6)
    propagate_to_height(g, 12e-6, cladding_thickness=5e-6)
    with pytest.raises(ValueError, match="undersamples"):
        angular_spectrum_propagate(g, 5e-6, N_SIO2)
    with pytest.raises(ValueError, match="undersamples"):
        propagate_to_height(g, 4e-6, cladding_thickness=5e-6)
    with pytest.raises(ValueError, match="undersamples"):
        propagate_to_height(FieldGrid(g.data, 0.22e-6), 12e-6, 5e-6)


def test_one_transfer_keeps_the_edge_check():
    data = np.zeros((64, 64), dtype=complex)
    data[0, :] = 1.0
    with pytest.raises(PaddingError):
        propagate_to_height(FieldGrid(data, 0.1e-6), 12e-6, 5e-6)


@pytest.mark.parametrize("point", [(0.37e-6, -0.61e-6), (-0.05e-6, 0.0),
                                   (2.0e-6, 1.0e-6)])
def test_sample_at_puts_the_point_on_a_pixel_centre(point):
    # a Gaussian centred off the raster at the point: the shifted raster
    # holds its peak on the point's pixel, mirror-symmetric about it
    s, n, w0 = 0.1e-6, 256, 1.5e-6
    x = -n * s / 2 + s * np.arange(n)
    r2 = (x[None, :] - point[0]) ** 2 + (x[:, None] - point[1]) ** 2
    g = FieldGrid(np.exp(-r2 / w0**2).astype(complex), s, x0=x[0],
                  y0=x[0]).normalize()
    out = propagate_to_height(g, 8e-6, 3e-6, sample_at=point)
    i = int(round((point[0] - out.x0) / s))
    j = int(round((point[1] - out.y0) / s))
    assert out.x[i] == pytest.approx(point[0], abs=1e-6 * s)
    assert out.y[j] == pytest.approx(point[1], abs=1e-6 * s)
    assert abs(out.x0 - g.x0) <= s / 2 and abs(out.y0 - g.y0) <= s / 2
    intensity = np.abs(out.data) ** 2
    assert np.unravel_index(np.argmax(intensity), intensity.shape) == (j, i)
    peak = intensity[j, i]
    for a, b in ((intensity[j, i + 1], intensity[j, i - 1]),
                 (intensity[j + 1, i], intensity[j - 1, i]),
                 (intensity[j, i + 5], intensity[j, i - 5])):
        assert a == pytest.approx(b, abs=1e-9 * peak)
    # the shift is a phase ramp: the power and the unshifted run agree
    plain = propagate_to_height(g, 8e-6, 3e-6)
    assert out.power() == pytest.approx(plain.power(), rel=1e-12)


def test_propagate_to_height_holds_at_most_three_grids():
    g = gaussian_field(2e-6, shape=(512, 512))
    before = g.data.copy()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        out = propagate_to_height(g, 12e-6, cladding_thickness=5e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result's grid and a quarter-grid transfer: 1.28
    assert peak - start <= 1.4 * g.data.nbytes
    assert np.array_equal(g.data, before)
    assert not np.shares_memory(out.data, g.data)
    # into the input's own data: the same bits, and the edge check's float
    # grid, 0.52
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        into = propagate_to_height(g, 12e-6, cladding_thickness=5e-6,
                                   out=g.data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 0.6 * g.data.nbytes
    assert into.data is g.data and into.z == out.z
    assert np.array_equal(into.data.view(np.float64),
                          out.data.view(np.float64))


# ---------------------------------------------------------------------------
# Cross sections

def test_cross_section_single_pixel():
    data = np.zeros((16, 16), dtype=complex)
    data[3, 5] = 2.7j
    g = FieldGrid(data, 0.1e-6)
    intensity, i_max, idx = beam_cross_section(g)
    assert idx == (3, 5)
    assert i_max == pytest.approx(1.0 / g.pixel_size**2)
    assert intensity.sum() * g.pixel_size**2 == pytest.approx(1.0)


def test_cross_section_uniform_field():
    n = 16
    g = FieldGrid(np.full((n, n), 0.3 + 0.1j), 0.1e-6)
    _, i_max, _ = beam_cross_section(g)
    assert i_max == pytest.approx(1.0 / (n * n * g.pixel_size**2))


def test_cross_section_zero_field():
    g = FieldGrid(np.zeros((8, 8), dtype=complex), 0.1e-6)
    with pytest.raises(ValueError):
        beam_cross_section(g)


# ---------------------------------------------------------------------------
# Near-field synthesis

def _uniform_teeth(n=40, pitch=0.3e-6, angle=0.2, kappa=0.2e6):
    params = UnitCellParams(pitch, 0.5, 0.5, 0.0, 0.0)
    return [ToothSpec(x=i * pitch, params=params, angle=angle, kappa=kappa,
                      alpha=0.0) for i in range(n)]


def test_synthesize_requires_teeth():
    with pytest.raises(ValueError):
        synthesize_near_field([], FOOTPRINT, STACK)


def test_synthesize_rejects_missing_angle():
    teeth = _uniform_teeth(3)
    teeth[1].angle = np.nan
    with pytest.raises(ValueError):
        synthesize_near_field(teeth, FOOTPRINT, STACK)


def test_single_tooth_normal_emission_flat_phase():
    teeth = _uniform_teeth(1, angle=0.0)
    f = synthesize_near_field(teeth, FOOTPRINT, STACK)
    nz = f.data[np.abs(f.data) > 0]
    assert nz.size > 0
    assert np.ptp(np.angle(nz)) < 1e-12
    assert f.power() == pytest.approx(1.0, abs=1e-9)


def test_uniform_design_exponential_envelope():
    kappa, pitch = 0.2e6, 0.3e-6
    teeth = _uniform_teeth(kappa=kappa, pitch=pitch)
    f = synthesize_near_field(teeth, FOOTPRINT, STACK)
    mid = np.abs(f.data[f.data.shape[0] // 2, :])
    amps = []
    for t in teeth:
        cols = (f.x >= t.x) & (f.x < t.x + t.pitch)
        amps.append(mid[cols].max())
    ratios = np.array(amps[1:]) / np.array(amps[:-1])
    assert np.allclose(ratios, np.exp(-kappa * pitch / 2), rtol=1e-9)


def _looped_near_field(teeth, footprint, stack, wavelength=WAVELENGTH,
                       shape=(512, 512), pixel_size=0.1e-6):
    """Reference synthesis: one tooth and one in-width row at a time."""
    ny, nx = shape
    n_clad = stack.cladding_index
    k0 = 2 * np.pi / wavelength
    grid = np.zeros((ny, nx), dtype=complex)
    x0 = footprint.x_extent / 2 - nx * pixel_size / 2
    y0 = -ny * pixel_size / 2
    x = x0 + pixel_size * np.arange(nx)
    y = y0 + pixel_size * np.arange(ny)
    in_width = np.abs(y) <= footprint.y_extent / 2
    residual, phase_acc = 1.0, 0.0
    for t in teeth:
        frac = 1.0 - np.exp(-(t.kappa + t.alpha) * t.pitch)
        share = t.kappa / (t.kappa + t.alpha) if t.kappa + t.alpha else 0.0
        drained = residual * frac * share
        residual *= 1.0 - frac
        kx = k0 * n_clad * np.sin(t.angle)
        n_slab = n_clad * np.sin(t.angle) + wavelength / t.pitch
        if drained > 0.0:
            amp = np.sqrt(drained / t.pitch)
            if t.curvature:
                ys = np.array([s[0] for s in t.curvature])
                us = np.array([s[1] for s in t.curvature])
                u = np.interp(y, ys, us)
            else:
                u = np.zeros_like(y)
            for j in np.nonzero(in_width)[0]:
                lo, hi = t.x + u[j], t.x + u[j] + t.pitch
                cols = (x >= lo) & (x < hi)
                phase = (phase_acc + kx * (x[cols] - lo)
                         + k0 * n_slab * u[j])
                grid[j, cols] = amp * np.exp(1j * phase)
        phase_acc += kx * t.pitch
    return grid / np.sqrt(np.sum(np.abs(grid) ** 2) * pixel_size**2)


def test_synthesis_equals_looped_reference(focused_teeth):
    f = synthesize_near_field(focused_teeth, FOOTPRINT, STACK)
    assert np.array_equal(f.data, _looped_near_field(focused_teeth,
                                                     FOOTPRINT, STACK))
    # uncurved teeth that overlap their neighbours: later teeth overwrite
    teeth = _uniform_teeth(pitch=0.35e-6)
    for i, t in enumerate(teeth):
        t.x = i * 0.25e-6
    f = synthesize_near_field(teeth, FOOTPRINT, STACK)
    assert np.array_equal(f.data, _looped_near_field(teeth, FOOTPRINT,
                                                     STACK))


def test_focus_lands_at_ion(focused_design):
    z_ion = POSE.cladding_thickness + POSE.height_above_surface
    out = propagate_to_height(focused_design, z_ion,
                              POSE.cladding_thickness, STACK.cladding_index)
    _, _, idx = beam_cross_section(out)
    assert out.x[idx[1]] == pytest.approx(POSE.x_ion, abs=2e-6)
    assert abs(out.y[idx[0]]) < 1e-6


def test_brightest_plane_near_ion_height(focused_design):
    best_z, best_i = None, -np.inf
    for z in np.arange(45e-6, 65e-6, 0.5e-6):
        out = propagate_to_height(focused_design, z,
                                  POSE.cladding_thickness,
                                  STACK.cladding_index)
        _, i_max, _ = beam_cross_section(out)
        if i_max > best_i:
            best_z, best_i = z, i_max
    target = POSE.cladding_thickness + POSE.height_above_surface
    assert abs(best_z - target) < 2.5e-6


# ---------------------------------------------------------------------------
# Field I/O

def test_field_io_round_trip(tmp_path):
    g = angular_spectrum_propagate(gaussian_field(1e-6, shape=(64, 64)),
                                   2e-6)
    path = tmp_path / "field.npz"
    save_field(g, path)
    back = load_field(path)
    assert np.array_equal(back.data, g.data)
    assert back.data.dtype == np.complex128
    for key in ("pixel_size", "z", "polarization", "x0", "y0",
                "wavelength", "normalized"):
        assert getattr(back, key) == getattr(g, key), key


def test_field_io_rejects_intensity_only_file(tmp_path):
    # the intensity-only variant (float64 |E|^2 data flagged by an
    # intensity_only member) is no longer a field file
    path = tmp_path / "field.npz"
    save_field(gaussian_field(1e-6, shape=(8, 8)), path)
    bad = tmp_path / "meas.npz"
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(bad, "w") as dst:
        for info in src.infolist():
            if info.filename == "data.npy":
                with dst.open(info, "w") as fh:
                    np.lib.format.write_array(fh, np.ones((8, 8)))
            else:
                dst.writestr(info, src.read(info))
        with dst.open(zipfile.ZipInfo("intensity_only.npy"), "w") as fh:
            np.lib.format.write_array(fh, np.asarray(True))
    with pytest.raises(ValueError, match=r"meas\.npz: data is float64"):
        load_field(bad)


@pytest.mark.parametrize("transposed", [False, True],
                         ids=["c-contiguous", "transposed"])
def test_field_io_data_member_is_write_array_bytes(tmp_path, transposed):
    data = angular_spectrum_propagate(
        gaussian_field(1e-6, shape=(48, 64)), 2e-6).data
    data = data.T if transposed else data
    assert data.flags.c_contiguous != transposed
    path = tmp_path / "field.npz"
    save_field(FieldGrid(data, 0.1e-6), path)
    expected = io.BytesIO()
    np.lib.format.write_array(expected, data, allow_pickle=False)
    with zipfile.ZipFile(path) as archive:
        assert archive.read("data.npy") == expected.getvalue()
    assert np.array_equal(load_field(path).data, data)


def test_field_io_rewrite_is_byte_identical(tmp_path):
    g = gaussian_field(1e-6, shape=(16, 16))
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    save_field(g, first)
    save_field(g, second)
    assert first.read_bytes() == second.read_bytes()


def test_field_io_keeps_the_given_path(tmp_path):
    path = tmp_path / "field.dat"
    save_field(gaussian_field(1e-6, shape=(8, 8)), path)
    assert [p.name for p in tmp_path.iterdir()] == ["field.dat"]
    assert load_field(path).data.shape == (8, 8)


def test_field_io_rejects_text_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(ValueError, match="junk.csv"):
        load_field(path)


def test_field_io_rejects_bare_npy(tmp_path):
    path = tmp_path / "bare.npy"
    np.save(path, np.zeros((8, 8), dtype=complex))
    with pytest.raises(ValueError, match="bare.npy"):
        load_field(path)


def test_field_io_truncated_file(tmp_path):
    path = tmp_path / "field.npz"
    save_field(gaussian_field(1e-6, shape=(8, 8)), path)
    blob = path.read_bytes()
    bad = tmp_path / "cut.npz"
    bad.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ValueError, match="cut.npz"):
        load_field(bad)


def test_field_io_missing_header_key(tmp_path):
    path = tmp_path / "field.npz"
    save_field(gaussian_field(1e-6, shape=(8, 8)), path)
    bad = tmp_path / "nopix.npz"
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(bad, "w") as dst:
        for info in src.infolist():
            if info.filename != "pixel_size.npy":
                dst.writestr(info, src.read(info))
    with pytest.raises(ValueError, match=r"nopix\.npz.*pixel_size"):
        load_field(bad)


@pytest.mark.parametrize("member, array", [
    ("polarization", np.array("TE", dtype=object)),    # pickled
    ("data", np.zeros((8, 8))),                         # real, not complex
    ("data", np.zeros(8, dtype=complex)),               # not 2-D
    ("pixel_size", np.array(-1.0)),                     # not positive
])
def test_field_io_rejects_bad_member(tmp_path, member, array):
    path = tmp_path / "field.npz"
    save_field(gaussian_field(1e-6, shape=(8, 8)), path)
    bad = tmp_path / "edited.npz"
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(bad, "w") as dst:
        for info in src.infolist():
            if info.filename == f"{member}.npy":
                with dst.open(info, "w") as fh:
                    np.lib.format.write_array(fh, array)
            else:
                dst.writestr(info, src.read(info))
    with pytest.raises(ValueError, match="edited.npz"):
        load_field(bad)
