"""Tests for the 2D unit-cell FDTD solver and observable extraction."""

import dataclasses
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from iongrating import constants, fdtd, geometry
from iongrating.library import UnitCellParams, pitch_for_angle
from transfer_matrix import effective_index

WAVELENGTH = 422e-9
STACK = geometry.default_stack()
CELL = fdtd.default_cell_size(STACK, WAVELENGTH, 16)
# the polarizations the kernel steps: TE only (the TM update was last in
# commit 552d0b1); the kernel tests run over each
KERNEL_POLARIZATIONS = ["TE"]


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
    # the limit is its own medium's: a step past the vacuum limit passes
    # in the cladding, and 1.01 times the cladding's limit does not
    n_clad = STACK.cladding_index
    limit = n_clad * CELL / (constants.C0 * np.sqrt(2.0))
    assert fdtd.courant_limit(CELL, n_clad) == limit
    fdtd.SimulationGrid(cell_size=CELL, time_step=limit, nx=50, nz=50,
                        n_min=n_clad)
    fdtd.SimulationGrid(cell_size=CELL, time_step=1.01 * limit / n_clad,
                        nx=50, nz=50, n_min=n_clad)
    with pytest.raises(ValueError, match="Courant"):
        fdtd.SimulationGrid(cell_size=CELL, time_step=1.01 * limit,
                            nx=50, nz=50, n_min=n_clad)
    with pytest.raises(ValueError, match="Courant"):
        fdtd.SimulationGrid(cell_size=CELL, time_step=limit, nx=50, nz=50,
                            n_min=1.0)


@pytest.mark.parametrize("ppw, steps", [(12, 24), (16, 32)])
def test_default_stack_steps_at_the_cladding_limit(ppw, steps):
    # the cladding (1.47) is the cell's lowest index, so a period takes
    # 1.47 times fewer steps than at the vacuum limit (36 and 47)
    cell = fdtd.default_cell_size(STACK, WAVELENGTH, ppw)
    material = fdtd.unit_cell_material_map(STACK, params(), 4, cell)
    assert np.min(material.n) == STACK.cladding_index
    sim = fdtd.Fdtd2D(material, WAVELENGTH)
    assert sim.steps_per_period == steps
    assert (sim.steps_per_period, sim.grid.time_step) == fdtd.time_step(
        material.n, cell, WAVELENGTH)
    period = WAVELENGTH / constants.C0
    assert sim.grid.time_step == period / steps
    limit = fdtd.courant_limit(cell, STACK.cladding_index)
    assert (fdtd.COURANT * limit * (steps - 1) / steps < sim.grid.time_step
            <= fdtd.COURANT * limit)


def test_vacuum_region_keeps_the_vacuum_step():
    cell = fdtd.default_cell_size(STACK, WAVELENGTH, 12)
    material = fdtd.unit_cell_material_map(STACK, params(), 4, cell)
    material.n[20:30, 5:10] = 1.0
    sim = fdtd.Fdtd2D(material, WAVELENGTH)
    assert sim.steps_per_period == 36
    assert sim.grid.n_min == 1.0


def test_unresolved_feature_raises():
    with pytest.raises(fdtd.ResolutionError):
        fdtd.run_unit_cell(params(dcu=0.9), 6, WAVELENGTH, STACK, "TE",
                           cell_size=CELL)


def test_too_few_periods_rejected():
    with pytest.raises(ValueError):
        fdtd.run_unit_cell(params(), 2, WAVELENGTH, STACK, "TE",
                           cell_size=CELL)


@pytest.mark.parametrize("polarization", ["TM", "te"])
def test_unit_cell_rejects_any_polarization_but_te(polarization):
    # the kernel steps TE only; a TM cell is refused before any solve
    with pytest.raises(ValueError, match="TE only"):
        fdtd.run_unit_cell(params(), 8, WAVELENGTH, STACK, polarization,
                           cell_size=CELL)


def test_mode_solver_matches_transfer_matrix():
    # the finite-difference eigenmode index should agree with the
    # semi-analytic transfer-matrix dispersion up to discretization error
    material = fdtd.unit_cell_material_map(STACK, None, 0, CELL)
    col = material.n[5, :]
    for pol in ("TE", "TM"):
        n_fd, profile = fdtd.slab_mode_profile(col, CELL, WAVELENGTH, pol)
        n_tmm = effective_index(STACK, WAVELENGTH, pol)
        assert abs(n_fd - n_tmm) < 1.5e-2
        # fundamental mode profile: single-signed dominant lobe, decayed tails
        assert abs(profile[0]) < 1e-3 and abs(profile[-1]) < 1e-3
        assert np.max(profile) == pytest.approx(1.0)


@pytest.mark.parametrize("polarization", ["te", "xyz"])
def test_unknown_polarization_is_rejected(polarization):
    # the mode solver and the grating-equation pitch built on it name the
    # fault instead of solving the TM problem
    col = fdtd.unit_cell_material_map(STACK, None, 0, CELL).n[5, :]
    with pytest.raises(ValueError, match="polarization must be"):
        fdtd.slab_mode_profile(col, CELL, WAVELENGTH, polarization)
    with pytest.raises(ValueError, match="polarization must be"):
        pitch_for_angle(np.deg2rad(12.0), 0.5, 0.5, STACK, WAVELENGTH,
                        polarization, CELL)


def _lapack_top_eigenpair(diag, off):
    """The largest eigenpair from LAPACK's tridiagonal bisection."""
    from scipy.linalg import eigh_tridiagonal
    n = len(diag)
    vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(n - 1, n - 1))
    return vals[0], vecs[:, 0]


def _pitch_column(cell, duty, pol):
    """The duty-averaged index column whose slab mode sets a pitch."""
    seen = []
    solve = fdtd.slab_mode_profile

    def keep(col, *args):
        seen.append(col)
        return solve(col, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fdtd, "slab_mode_profile", keep)
        fdtd.grating_effective_index.__wrapped__(STACK, duty, duty, cell,
                                                 WAVELENGTH, pol)
    return seen[0]


@pytest.mark.parametrize("duty", [0.3, 0.5, 1.0, None])
@pytest.mark.parametrize("ppw", [10, 12, 16, 24])
@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_slab_mode_matches_lapack(pol, ppw, duty, monkeypatch):
    # the grating columns of the pitch, and the tooth-free column of the
    # FDTD source (None), against LAPACK's eigenpair on the same matrix
    cell = fdtd.default_cell_size(STACK, WAVELENGTH, ppw)
    if duty is None:
        col = fdtd.unit_cell_material_map(STACK, None, 0, cell).n[5, :]
    else:
        col = _pitch_column(cell, duty, pol)
    n_eff, profile = fdtd.slab_mode_profile(col, cell, WAVELENGTH, pol)
    monkeypatch.setattr(fdtd, "_top_eigenpair", _lapack_top_eigenpair)
    n_ref, ref = fdtd.slab_mode_profile(col, cell, WAVELENGTH, pol)
    assert n_eff == pytest.approx(n_ref, rel=1e-14, abs=0.0)
    assert np.max(np.abs(profile - ref)) < 1e-12


def test_top_eigenpair_of_a_known_spectrum():
    # tridiag(1, 3, 1) has eigenvalues 3 + 2 cos(k pi / (n + 1)) with
    # eigenvectors sin(j k pi / (n + 1)); the largest is k = 1
    n = 60
    value, vec = fdtd._top_eigenpair(np.full(n, 3.0), np.ones(n - 1))
    theta = np.pi / (n + 1)
    assert value == pytest.approx(3.0 + 2.0 * np.cos(theta), rel=1e-15)
    exact = np.sin(np.arange(1, n + 1) * theta)
    assert np.allclose(vec / np.max(np.abs(vec)), exact / np.max(exact),
                       rtol=0.0, atol=1e-13)
    # the symmetric Kac matrix: zero diagonal, off-diagonal sqrt(k (n-k)),
    # eigenvalues -(n-1), -(n-3), ..., n-1, the top one far above the
    # largest diagonal entry, with eigenvector sqrt(binomial(n-1, j))
    n = 21
    k = np.arange(1, n)
    value, vec = fdtd._top_eigenpair(np.zeros(n), np.sqrt(k * (n - k)))
    assert value == pytest.approx(n - 1, rel=1e-14)
    binom = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
    exact = np.sqrt(binom / binom.max())
    assert np.allclose(vec / np.max(np.abs(vec)), exact, rtol=0.0,
                       atol=1e-13)


def test_effective_index_cache_is_exact():
    # a tooth's index depends on its stack, duty cycles and grid alone:
    # the cached value equals a fresh solve bit for bit, whatever the
    # cell's pitch, offset or zone shift
    cell = fdtd.default_cell_size(STACK, WAVELENGTH, 12)
    fresh = fdtd.grating_effective_index.__wrapped__(STACK, 0.45, 0.55, cell,
                                                     WAVELENGTH, "TM")
    for p in (params(dcu=0.45, dcl=0.55),
              params(pitch=0.27e-6, dcu=0.45, dcl=0.55, dx=0.06e-6,
                     delta=0.1e-6)):
        n = fdtd.grating_effective_index(STACK, p.dcu, p.dcl, cell,
                                         WAVELENGTH, "TM")
        assert n == fresh


def test_zone_average_row_limits():
    d, pitch, n_t, n_g = 0.01e-6, 0.3e-6, 2.05, 1.47
    x = (np.arange(400) - 12) * d
    # the section starts on the left edge of node i's pixel, and its teeth
    # of 0.135 um start a quarter pixel later
    i = 92
    x0, length = x[i] - d / 2, 8 * pitch
    duty, offset = 0.45, 0.25 * d
    row0 = fdtd._zone_averaged_index_row(x, x0, length, pitch, duty, offset,
                                         0.0, n_t, n_g)
    eps = row0**2
    # pixels wholly inside a tooth or a gap keep the binary index
    assert row0[i + 3] == pytest.approx(n_t, abs=1e-12)
    assert row0[i + 20] == pytest.approx(n_g, abs=1e-12)
    # the pixel a tooth's leading edge crosses takes the fill blend:
    # 0.75 of it is tooth
    assert eps[i] == pytest.approx(0.25 * n_g**2 + 0.75 * n_t**2, rel=1e-12)
    # and the trailing edge, 13.75 pixels on, leaves 0.75 of its pixel
    assert eps[i + 13] == pytest.approx(0.25 * n_g**2 + 0.75 * n_t**2,
                                        rel=1e-12)
    # outside the section the layer is solid
    assert row0[i - 1] == pytest.approx(n_t, abs=1e-12)
    # over whole periods the row holds the duty-weighted permittivity of
    # grating_effective_index, for any zone shift
    solid = x.size * d - length
    expected = solid * n_t**2 + length * (duty * n_t**2
                                          + (1 - duty) * n_g**2)
    for delta in (0.0, 0.037e-6, pitch / 2):
        row = fdtd._zone_averaged_index_row(x, x0, length, pitch, duty,
                                            offset, delta, n_t, n_g)
        assert np.sum(row**2) * d == pytest.approx(expected, rel=1e-13)
    # delta = pitch/2 at 50% duty averages to a uniform permittivity
    row_h = fdtd._zone_averaged_index_row(x, x0, length, pitch, 0.5, 0.0,
                                          pitch / 2, n_t, n_g)
    inside = (x - d / 2 >= x0) & (x + d / 2 <= x0 + length)
    expected = np.sqrt(0.5 * (n_t**2 + n_g**2))
    assert np.allclose(row_h[inside], expected, atol=1e-9)


def test_kappa_is_continuous_in_the_duty_cycle():
    # a cell near 12 deg at 12 points per wavelength, its upper teeth
    # widened by 1/10 of a pixel at a time.  The pitch is 20 pixels, so on
    # a staircase every tooth edge crosses a node at the same step, and
    # kappa sits on a plateau in between
    cell = fdtd.default_cell_size(STACK, WAVELENGTH, 12)
    pitch = 20 * cell
    kappas = []
    for i in range(4):
        p = params(pitch=pitch, dcu=0.5 + i * 0.1 / 20, dx=0.25 * pitch)
        result = fdtd.run_unit_cell(p, 6, WAVELENGTH, STACK, "TE",
                                    cell_size=cell)
        kappas.append(fdtd.extract_kappa_alpha(result)[0])
    steps = np.diff(kappas)
    # monotone with no plateau, and no step near the several-percent jump
    # of a whole-pixel edge move
    assert np.all(steps < 0) or np.all(steps > 0)
    assert np.max(np.abs(steps)) < 0.01 * kappas[0]


def test_cross_section_teeth_follow_guiding():
    p = (0.5, 0.0), (0.4, 0.05e-6)   # (duty, offset) upper, lower
    teeth = [t for _, _, t in fdtd._cross_section(STACK, *p)]
    # the spacer is guiding but cladding-index, so it carries no teeth
    assert teeth == [(0.4, 0.05e-6), None, (0.5, 0.0)]
    lower_only = dataclasses.replace(STACK, guiding=("lower_nitride",))
    assert [t for _, _, t in fdtd._cross_section(lower_only, *p)] == [
        (0.5, 0.0), None, None]
    assert all(t is None
               for _, _, t in fdtd._cross_section(STACK, None, None))
    bottoms = [zb for _, zb, _ in fdtd._cross_section(STACK, *p)]
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


def _interior_and_positions(p, pml, monkeypatch):
    """The index map inside the absorbers of ``pml`` cells, and the x and
    z of the source and the monitors, m."""
    monkeypatch.setattr(fdtd, "PML_CELLS", pml)
    m = fdtd.unit_cell_material_map(STACK, p, 8, CELL)
    nx, nz = m.n.shape
    x = {k: (m.meta[k] - pml) * CELL for k in ("i_src", "i_in", "i_out")}
    z = {k: (m.meta[k] - pml) * CELL - fdtd.CLAD_PAD
         for k in ("j_bot", "j_top")}
    return m.n.shape, m.n[pml:nx - pml, pml:nz - pml], x, z


@pytest.mark.parametrize("p", [None, params(), params(delta=0.15e-6)],
                         ids=["reference", "grating", "half-pitch"])
def test_absorbers_lie_outside_the_interior(p, monkeypatch):
    # the absorbers are added outside x = 0 and z = -CLAD_PAD, so the
    # interior staircase and the physical positions of the source and the
    # monitors do not depend on their thickness
    shape, interior, x, z = _interior_and_positions(p, 8, monkeypatch)
    shape12, interior12, x12, z12 = _interior_and_positions(p, 12,
                                                            monkeypatch)
    assert shape12 == (shape[0] + 8, shape[1] + 8)
    assert np.array_equal(interior, interior12)
    assert x == x12 and z == z12


def test_extract_kappa_alpha_formulas():
    # synthetic result with known exponential depletion
    length = 1e-6
    p_t = 1.0 - np.exp(-2.0)
    res = fdtd.CellResult(p_t=p_t, p_d=0.25 * p_t, p_up=0.3,
                          p_down=0.3, p_trans=1 - p_t, p_reflected=0.0,
                          length=length, peak_angle=0.0, target_angle=0.0,
                          n_cladding=1.47,
                          wavelength=WAVELENGTH, cell_size=CELL,
                          top_field=np.zeros(4))
    kappa, alpha = fdtd.extract_kappa_alpha(res)
    assert kappa + alpha == pytest.approx(2.0 / length, rel=1e-12)
    assert kappa == pytest.approx(0.25 * 2.0 / length, rel=1e-12)


def test_extract_kappa_alpha_depletion_error():
    res = fdtd.CellResult(p_t=1.0, p_d=0.5, p_up=0.5, p_down=0.0,
                          p_trans=0.0, p_reflected=0.0, length=1e-6,
                          peak_angle=0.0, target_angle=0.0,
                          n_cladding=1.47,
                          wavelength=WAVELENGTH, cell_size=CELL,
                          top_field=np.zeros(4))
    with pytest.raises(fdtd.DepletionError):
        fdtd.extract_kappa_alpha(res)


def test_far_field_plane_wave_oracle():
    # a windowed plane wave should peak at its own propagation angle
    n_clad = 1.47
    theta0 = np.deg2rad(12.0)
    kx = 2 * np.pi / WAVELENGTH * n_clad * np.sin(theta0)
    x = np.arange(1200) * CELL
    window = np.hanning(len(x))
    field = window * np.exp(1j * kx * x)
    res = fdtd.CellResult(p_t=0.0, p_d=0.0, p_up=0.0, p_down=0.0,
                          p_trans=0.0, p_reflected=0.0, length=1e-6,
                          peak_angle=np.nan, target_angle=np.nan,
                          n_cladding=n_clad,
                          wavelength=WAVELENGTH, cell_size=CELL,
                          top_field=field)
    spec = fdtd.far_field_angle_spectrum(res)
    assert abs(spec.peak_angle - theta0) < np.deg2rad(0.5)


def test_grid_rejects_overlapping_absorbing_layers():
    # the two absorbers need four interior nodes between them
    dt = 0.5 * CELL / (constants.C0 * np.sqrt(2.0))
    least = 2 * fdtd.PML_CELLS + 4
    fdtd.SimulationGrid(cell_size=CELL, time_step=dt, nx=least, nz=50,
                        n_min=1.0)
    with pytest.raises(ValueError, match="absorbing layers"):
        fdtd.SimulationGrid(cell_size=CELL, time_step=dt, nx=least - 1,
                            nz=50, n_min=1.0)


def _full_grid_cpml(sim, prescaled=True):
    """Coefficients, CPML profiles and psi arrays over the whole grid, as
    the full-grid update kept them, in the dtype of the fields.

    ``prescaled``, as the kernel steps, Ga and Gb hold H divided by
    dt / (mu0 d), which F's coefficient then carries.  Unscaled, it is
    the update on H itself.
    """
    nx, nz = sim.grid.nx, sim.grid.nz
    d, dt = sim.grid.cell_size, sim.grid.time_step
    cF = dt / (constants.EPS0 * sim.material.n**2 * d)
    cGa = cGb = dt / (constants.MU0 * d)
    if prescaled:
        cF, cGa, cGb = cF * cGa, 1.0, 1.0
    (bex, aex), (bhx, ahx) = fdtd._pml_profiles(nx, d, dt)
    (bez, aez), (bhz, ahz) = fdtd._pml_profiles(nz, d, dt)
    state = dict(
        cF=cF, cGa=cGa, cGb=cGb,
        bex=bex[1:-1, None], aex=aex[1:-1, None],
        bez=bez[None, 1:-1], aez=aez[None, 1:-1],
        bhx=bhx[:, None], ahx=ahx[:, None],
        bhz=bhz[None, :], ahz=ahz[None, :],
        psi_Ga=np.zeros((nx, nz - 1)), psi_Gb=np.zeros((nx - 1, nz)),
        psi_Fx=np.zeros((nx - 2, nz)), psi_Fz=np.zeros((nx, nz - 2)))
    return {k: np.asarray(v, sim.F.dtype) for k, v in state.items()}


def _full_grid_step(sim, c):
    """One step of the full-grid CPML update, psi carried everywhere."""
    F, Ga, Gb = sim.F, sim.Ga, sim.Gb

    dFz = F[:, 1:] - F[:, :-1]
    c["psi_Ga"] *= c["bhz"]
    c["psi_Ga"] += c["ahz"] * dFz
    Ga += c["cGa"] * (dFz + c["psi_Ga"])

    dFx = F[1:, :] - F[:-1, :]
    c["psi_Gb"] *= c["bhx"]
    c["psi_Gb"] += c["ahx"] * dFx
    Gb -= c["cGb"] * (dFx + c["psi_Gb"])

    dGbx = Gb[1:, :] - Gb[:-1, :]
    c["psi_Fx"] *= c["bex"]
    c["psi_Fx"] += c["aex"] * dGbx
    dGaz = Ga[:, 1:] - Ga[:, :-1]
    c["psi_Fz"] *= c["bez"]
    c["psi_Fz"] += c["aez"] * dGaz
    F[1:-1, 1:-1] += c["cF"][1:-1, 1:-1] * (
        (dGaz + c["psi_Fz"])[1:-1, :] - (dGbx + c["psi_Fx"])[:, 1:-1])

    sim.step_index += 1
    i, profile = sim.source
    F[i, :] += profile * fdtd._drive(sim.step_index * sim.grid.time_step,
                                     sim.omega)


@pytest.mark.parametrize("pol", KERNEL_POLARIZATIONS)
def test_slab_cpml_step_matches_full_grid_update(pol):
    # bit for bit, in the kernel's prescaled arithmetic: this pins the
    # CPML slabs and bands, not the scaling
    # a coarse grating cell whose source sits 0.35 um from the left PML
    cell = 3 * CELL
    material = fdtd.unit_cell_material_map(STACK, params(), 4, cell)
    col = material.n[material.meta["i_in"] - 2, :]
    _, profile = fdtd.slab_mode_profile(col, cell, WAVELENGTH, pol)
    lean, full = (fdtd.Fdtd2D(material, WAVELENGTH) for _ in range(2))
    for sim in (lean, full):
        sim.add_line_source(material.meta["i_src"], profile)
    state = _full_grid_cpml(full)
    for _ in range(150):
        lean._step()
        _full_grid_step(full, state)
    assert np.array_equal(lean.F, full.F)
    assert np.array_equal(lean.Ga, full.Ga)
    assert np.array_equal(lean.Gb, full.Gb)
    # the absorbing layers were reached, and psi stayed 0 outside them
    w = fdtd.PML_CELLS + 1
    assert np.any(state["psi_Gb"][:w] != 0)
    assert np.any(state["psi_Ga"][:, -w:] != 0)
    assert not np.any(state["psi_Gb"][w:-w])
    assert not np.any(state["psi_Ga"][:, w:-w])
    assert not np.any(state["psi_Fx"][w:-w])
    assert not np.any(state["psi_Fz"][:, w:-w])


def test_prescaled_te_step_tracks_the_unscaled_update():
    # the same 150 steps on H itself: F and H agree within 32 float32
    # epsilons of each field's peak (the two round differently)
    lean, full = _coarse_sim("TE"), _coarse_sim("TE")
    state = _full_grid_cpml(full, prescaled=False)
    for _ in range(150):
        lean._step()
        _full_grid_step(full, state)
    g = lean.g_scale
    assert g == pytest.approx(lean.grid.time_step
                              / (constants.MU0 * lean.grid.cell_size))
    tol = 32 * np.finfo(np.float32).eps
    for new, old in ((lean.F, full.F), (g * lean.Ga.astype(float), full.Ga),
                     (g * lean.Gb.astype(float), full.Gb)):
        peak = np.max(np.abs(old))
        assert peak > 0
        assert np.max(np.abs(new - old.astype(float))) <= tol * peak


def test_coarse_te_cell_keeps_the_unscaled_results():
    # first pinned from the kernel that stepped H unscaled, with the
    # in-plane phasors dated half a step before F, re-pinned at the
    # cladding's Courant step (periods 54 -> 43), with the 8-cell cubic
    # absorbers (43 -> 49) and with the stop rule scaled by the largest
    # flux (49 -> 39; kappa +2.3e-5, alpha -1.3e-4, p_up +4.1e-5); the run
    # stops at a flux change of 1e-5 of the input per period, so its
    # results are defined to that
    r = fdtd.run_unit_cell(params(pitch=0.32e-6), 4, WAVELENGTH, STACK, "TE",
                           cell_size=2 * CELL)
    kappa, alpha = fdtd.extract_kappa_alpha(r)
    assert r.periods_run == 39
    assert kappa == pytest.approx(221202.28594085865, rel=1e-5)
    assert alpha == pytest.approx(279902.7859773283, rel=1e-5)
    assert r.p_up == pytest.approx(0.23780312593239575, rel=1e-5)


def _driven_sim(pol, cell):
    """A driven simulation of the 4-period grating cell of the slab test."""
    material = fdtd.unit_cell_material_map(STACK, params(), 4, cell)
    col = material.n[material.meta["i_in"] - 2, :]
    _, profile = fdtd.slab_mode_profile(col, cell, WAVELENGTH, pol)
    sim = fdtd.Fdtd2D(material, WAVELENGTH)
    sim.add_line_source(material.meta["i_src"], profile)
    return sim


def _coarse_sim(pol):
    """A driven simulation of the coarse grating cell of the slab test."""
    return _driven_sim(pol, 3 * CELL)


def _address(a):
    return a.__array_interface__["data"][0]


@pytest.mark.parametrize("pol", KERNEL_POLARIZATIONS)
@pytest.mark.parametrize("cells, nx", [(2, 136 + 2 * fdtd.PML_CELLS),
                                       (3, 91 + 2 * fdtd.PML_CELLS)])
def test_step_outputs_start_on_a_cache_line(pol, cells, nx):
    # numpy stores a float32 ufunc output about twice as fast when it
    # starts on a 64-byte line; every out of the step except the strided
    # CPML difference views is grid-sized, or a CPML psi or scratch array.
    # The two grids' rows are 136 and 91 interior nodes plus the absorbers
    sim = _driven_sim(pol, cells * CELL)
    assert sim.grid.nx == nx
    cpml = [sim._psi_Ga, sim._psi_Gb, sim._psi_Fx, sim._psi_Fz]
    views = [c[0] for c in cpml]
    outs = [out for *_, out in sim._ops
            if not any(out is v for v in views)]
    assert len(outs) == len(sim._ops) - 4
    grid = [o for o in outs if o.size >= (sim.grid.nz - 2) * nx]
    assert len(grid) == 9
    for a in outs + [c[i] for c in cpml for i in (1, 4)]:
        assert _address(a) % fdtd.LINE == 0


def _misaligned(aligned_zeros):
    """``aligned_zeros`` with its aligned element moved 4 bytes past the
    line."""
    def zeros(shape, first=0):
        flat = aligned_zeros((math.prod(shape) + 1,), first)
        return flat[1:].reshape(shape)
    return zeros


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("pol", KERNEL_POLARIZATIONS)
def test_step_results_do_not_depend_on_the_layout(pol, monkeypatch):
    aligned = _coarse_sim(pol)
    monkeypatch.setattr(fdtd, "_aligned_zeros",
                        _misaligned(fdtd._aligned_zeros))
    shifted = _coarse_sim(pol)
    assert _address(shifted._dFz) % fdtd.LINE == 4
    for _ in range(150):
        aligned._step()
        shifted._step()
    for name in ("F", "Ga", "Gb"):
        assert np.any(getattr(aligned, name))
        assert _same_bits(getattr(aligned, name), getattr(shifted, name))


def test_unit_cell_results_do_not_depend_on_the_layout(monkeypatch):
    # a last-bit change can move the stop rule's periods_run by one
    def run():
        monkeypatch.setattr(fdtd, "_reference_cache", {})
        return fdtd.run_unit_cell(params(pitch=0.32e-6), 4, WAVELENGTH,
                                  STACK, "TE", cell_size=2 * CELL)
    aligned = run()
    monkeypatch.setattr(fdtd, "_aligned_zeros",
                        _misaligned(fdtd._aligned_zeros))
    shifted = run()
    assert shifted.periods_run == aligned.periods_run
    for f in dataclasses.fields(fdtd.CellResult):
        assert _same_bits(getattr(aligned, f.name),
                          getattr(shifted, f.name)), f.name


def _absorbed_pair(pml, grading):
    """(kappa, alpha) at delta = 0 and pitch/2 of the -4 deg cell of the
    search box's centre (duties 0.5, dx a quarter pitch) at 12 points per
    wavelength, inside absorbers of ``pml`` cells graded by ``grading``."""
    cell = fdtd.default_cell_size(STACK, WAVELENGTH, 12)
    pitch = pitch_for_angle(np.deg2rad(-4.0), 0.5, 0.5, STACK, WAVELENGTH,
                            "TE", cell)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fdtd, "PML_CELLS", pml)
        mp.setattr(fdtd, "PML_GRADING", grading)
        mp.setattr(fdtd, "_reference_cache", {})
        return np.array([fdtd.extract_kappa_alpha(fdtd.run_unit_cell(
            params(pitch=pitch, dx=pitch / 4, delta=delta), 8, WAVELENGTH,
            STACK, "TE", cell_size=cell)) for delta in (0.0, pitch / 2)])


@pytest.fixture(scope="module")
def thick_absorber_pair():
    return _absorbed_pair(24, 4)


@pytest.mark.parametrize("pml, grading, within", [
    (fdtd.PML_CELLS, fdtd.PML_GRADING, True), (8, 4, False)])
def test_thin_absorber_matches_a_thick_one(pml, grading, within,
                                           thick_absorber_pair):
    # against 24 quartic cells, kappa within 5e-4 and alpha within 1e-3
    # (relative) of both cells; the half-pitch cell, whose kappa is 1/130
    # of the other's, is the harder.  8 quartic cells miss in kappa.  The
    # grid is the library's coarsest in use: at 8 points per wavelength
    # a half-pitch cell misses by 1e-3 (ROADMAP item 6)
    error = np.abs(_absorbed_pair(pml, grading) / thick_absorber_pair - 1)
    inside = np.all(error[:, 0] <= 5e-4) and np.all(error[:, 1] <= 1e-3)
    assert inside == within, error


def test_cpml_bands_are_zero_off_the_slabs():
    sim = _coarse_sim("TE")
    nx, nz = sim.grid.nx, sim.grid.nz
    w = fdtd.PML_CELLS + 1
    (be, ae), (bh, ah) = fdtd._pml_profiles(nx, sim.grid.cell_size,
                                            sim.grid.time_step)
    # Gb's x differences sit at the nx - 1 half nodes, F's at the nx - 2
    # inner integer nodes
    bands = [(sim._psi_Gb, nz, 1, bh, ah),
             (sim._psi_Fx, nz - 2, 2, be[1:-1], ae[1:-1])]
    for band, rows, pad, b_x, a_x in bands:
        _, _, b, a, _ = band
        assert b.shape == a.shape == (rows + 1, 2 * w + pad)
        for c, c_x in ((b, b_x), (a, a_x)):
            # padding columns, row -1 and the row past the last
            assert not np.any(c[:, w:w + pad])
            assert not np.any(c[0, :w])
            assert not np.any(c[-1, w + pad:])
            # the profile's ends on every row that exists
            c_x = c_x.astype(np.float32)
            assert np.all(c[1:, :w] == c_x[-w:])
            assert np.all(c[:-1, w + pad:] == c_x[:w])
    for _ in range(150):
        sim._step()
    for (_, psi, _, _, _), _, pad, _, _ in bands:
        assert not np.any(psi[:, w:w + pad])
        assert not np.any(psi[0, :w])
        assert not np.any(psi[-1, w + pad:])
        assert np.any(psi[1:, :w]) and np.any(psi[:-1, w + pad:])
    # chunk k views the right slab of z-row k - 1, the padding and the
    # left slab of z-row k
    d_gb, d_fx = sim._psi_Gb[0], sim._psi_Fx[0]
    dFx, dGbx = sim._dFx, sim._dGbx
    assert np.array_equal(d_gb[1:, :w], dFx[:, nx - 1 - w:nx - 1])
    assert np.array_equal(d_gb[1:, w], dFx[:, nx - 1])
    assert np.array_equal(d_gb[:-1, w + 1:], dFx[:, :w])
    assert np.array_equal(d_fx[1:, :w], dGbx[:, nx - 1 - w:nx - 1])
    assert np.array_equal(d_fx[:-1, w + 2:], dGbx[:, 1:w + 1])
    # the z slabs are one two-block view of the first and last w rows
    for (d, _, _, _, _), diff in ((sim._psi_Ga, sim._dFz),
                                  (sim._psi_Fz, sim._dGaz)):
        assert np.shares_memory(d, diff)
        assert np.array_equal(d[0], diff[:w])
        assert np.array_equal(d[1], diff[-w:])


class _StepwiseMonitor:
    """The per-step phasor accumulation that LineMonitor's period buffer
    replaces: each step widens the lines and adds them at its phase."""

    def __init__(self, orientation, index, span):
        self.orientation, self.index, self.span = orientation, index, span
        self._f, self._g, self._n = 0.0, 0.0, 0

    def accumulate(self, sim, ph_f, ph_g):
        i, s = self.index, self.span
        if self.orientation == "v":
            f = sim.F[i, s].astype(float)
            g = sim.Gb[i - 1, s].astype(float) + sim.Gb[i, s]
        else:
            f = sim.F[s, i].astype(float)
            g = sim.Ga[s, i - 1].astype(float) + sim.Ga[s, i]
        # G is stored divided by the simulation's g_scale
        g *= 0.5 * sim.g_scale
        self._f = self._f + f * ph_f
        self._g = self._g + g * ph_g
        self._n += 1

    def phasors(self):
        return 2.0 * self._f / self._n, 2.0 * self._g / self._n


@pytest.mark.parametrize("pol", KERNEL_POLARIZATIONS)
def test_buffered_monitor_matches_stepwise_accumulation(pol):
    # four lines of four lengths, each folded through its own work rows
    buffered_sim, stepwise_sim = _coarse_sim(pol), _coarse_sim(pol)
    meta = buffered_sim.material.meta
    j0, j1, i0, i1 = meta["j_bot"], meta["j_top"], meta["i_in"], meta["i_out"]
    lines = [("v", i0, slice(j0, j1 + 1)), ("v", i1, slice(j0 + 3, j1 + 1)),
             ("h", j1, slice(i0, i1 + 1)), ("h", j0, slice(i0 + 5, i1 + 1))]
    assert len({s.stop - s.start for _, _, s in lines}) == 4
    buffered = [fdtd.LineMonitor(buffered_sim, *l) for l in lines]
    stepwise = [_StepwiseMonitor(*l) for l in lines]
    warm = 12
    buffered_sim.run_periods(warm)
    buffered_sim.run_periods(1, accumulators=buffered)
    sim = stepwise_sim
    sim.run_periods(warm)
    for _ in range(sim.steps_per_period):
        sim._step()
        t = sim.step_index * sim.grid.time_step
        ph_f = np.exp(1j * sim.omega * t)
        # the in-plane field lags F by half a step
        ph_g = np.exp(1j * sim.omega * (t - 0.5 * sim.grid.time_step))
        for m in stepwise:
            m.accumulate(sim, ph_f, ph_g)
    assert np.array_equal(buffered_sim.F, sim.F)
    for new, old in zip(buffered, stepwise):
        (f_new, g_new), (f_old, g_old) = new.phasors(), old.phasors()
        assert np.any(f_new != 0) and np.any(g_new != 0)
        assert np.array_equal(f_new, f_old)
        assert np.array_equal(g_new, g_old)
        assert new.flux(buffered_sim) == fdtd.LineMonitor.flux(old, sim)


def test_monitored_periods_allocate_no_grid_array():
    sim = _coarse_sim("TE")
    meta = sim.material.meta
    zspan = slice(meta["j_bot"], meta["j_top"] + 1)
    xspan = slice(meta["i_in"], meta["i_out"] + 1)
    monitors = [fdtd.LineMonitor(sim, "v", meta["i_in"], zspan),
                fdtd.LineMonitor(sim, "h", meta["j_top"], xspan)]
    sim.run_periods(1, accumulators=monitors)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sim.run_periods(2, accumulators=monitors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < sim.grid.nx * sim.grid.nz * 4


def test_simulation_setup_peaks_below_one_float32_grid_above_its_arrays():
    # F's update coefficient is built a block of rows at a time, straight
    # into float32: a float64 copy of the index map alone would peak two
    # float32 grids above what the simulation keeps
    material = fdtd.unit_cell_material_map(STACK, params(), 8, CELL)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sim = fdtd.Fdtd2D(material, WAVELENGTH)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid = sim.grid.nx * sim.grid.nz * 4
    # F, Ga, Gb, the two difference buffers and cF are six float32 grids
    assert kept - start > 6 * grid
    assert peak - kept <= grid


class _ScriptedRun:
    """A simulation and monitor in one whose flux after each optical period
    follows a script."""

    def __init__(self, fluxes):
        self.fluxes = fluxes
        self.periods = 0

    def run_periods(self, n_periods, accumulators=None):
        self.periods += n_periods

    def flux(self, sim):
        return self.fluxes[self.periods - 1]


def test_steady_state_needs_three_quiet_periods_in_a_row():
    # relative changes per period: 0.1, 5e-6, 2e-5, then 1e-6 three times
    fluxes = [1.0, 1.1, 1.1 + 5.5e-6, 1.1 + 2.75e-5,
              1.1 + 2.86e-5, 1.1 + 2.97e-5, 1.1 + 3.08e-5, 2.0]
    run = _ScriptedRun(fluxes)
    assert fdtd._run_to_steady_state(run, [run], 0, 20) == 7
    short = _ScriptedRun(fluxes)
    with pytest.raises(fdtd.ConvergenceError, match="change 1e-06"):
        fdtd._run_to_steady_state(short, [short], 0, 6)


class _ScriptedLine:
    """A monitor whose flux after each optical period of ``run`` follows
    a script."""

    def __init__(self, run, fluxes):
        self.run = run
        self.fluxes = fluxes

    def flux(self, sim):
        return self.fluxes[self.run.periods - 1]


def test_steady_state_scales_every_change_by_the_largest_flux():
    # the small flux moves by 5e-5 of itself per period, but by 5e-7 of
    # the large one: steady from the second period on
    run = _ScriptedRun([1.0] * 10)
    small = _ScriptedLine(run, [0.01 + 5e-7 * k for k in range(10)])
    assert fdtd._run_to_steady_state(run, [run, small], 0, 10) == 4


def test_unsteady_run_reports_its_last_change(monkeypatch):
    # a coarse grating cell stopped two periods past the one-transit guard
    cell = 3 * CELL
    material = fdtd.unit_cell_material_map(STACK, params(), 4, cell)
    col = material.n[material.meta["i_in"] - 2, :]
    _, profile = fdtd.slab_mode_profile(col, cell, WAVELENGTH, "TE")
    nx = material.n.shape[0]
    transit = nx * cell * float(np.max(material.n)) / WAVELENGTH
    guard = int(np.ceil(transit + fdtd.RAMP_PERIODS))
    monkeypatch.setattr(fdtd, "MAX_PERIODS", guard + 2)
    with pytest.raises(fdtd.ConvergenceError) as exc:
        fdtd._simulate(material, WAVELENGTH, profile)
    match = re.search(r"after (\d+) optical periods: last relative flux "
                      r"change (\S+) per period, tolerance 1e-05",
                      str(exc.value))
    assert match and int(match.group(1)) == guard + 2
    assert np.isfinite(float(match.group(2)))


# ---------------------------------------------------------------------------
# Full simulation behavior

def test_uniform_waveguide_transmits():
    # raw (unnormalized) propagation through a tooth-free section:
    # nearly all launched guided power crosses the output monitor, and
    # stray launch radiation stays below a couple of percent; the section
    # is 2 um of solid (duty 1) layers
    material = fdtd.unit_cell_material_map(
        STACK, params(pitch=0.25e-6, dcu=1.0, dcl=1.0), 8, CELL)
    col = material.n[material.meta["i_in"] - 2, :]
    _, profile = fdtd.slab_mode_profile(col, CELL, WAVELENGTH, "TE")
    sim, monitors, _ = fdtd._simulate(material, WAVELENGTH, profile)
    p_in = monitors[0].flux(sim)
    p_out = monitors[1].flux(sim)
    assert p_out / p_in > 0.97
    assert abs(monitors[2].flux(sim)) / p_in < 0.02
    # closed-box energy balance of the raw run
    balance = (p_out + monitors[2].flux(sim) - monitors[3].flux(sim)) / p_in
    assert balance == pytest.approx(1.0, abs=0.01)


def _upward_share(r):
    """Fraction of the diffracted power leaving the grating upward."""
    return r.p_up / (r.p_up + r.p_down)


def test_symmetric_grating_radiates_evenly(symmetric_cell):
    assert _upward_share(symmetric_cell) == pytest.approx(0.5, abs=0.02)


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
    lam_g = WAVELENGTH / effective_index(STACK, WAVELENGTH, "TE")
    r = fdtd.run_unit_cell(params(dx=lam_g / 4), 8, WAVELENGTH, STACK,
                           "TE", cell_size=CELL)
    assert _upward_share(r) > 0.75
    assert r.p_up > symmetric_cell.p_up


def test_half_pitch_zone_shift_suppresses_kappa(symmetric_cell):
    k0, _ = fdtd.extract_kappa_alpha(symmetric_cell)
    r = fdtd.run_unit_cell(params(delta=0.15e-6), 8, WAVELENGTH, STACK,
                           "TE", cell_size=CELL)
    k_half, _ = fdtd.extract_kappa_alpha(r)
    assert k_half <= 0.05 * k0


def test_runs_are_deterministic(symmetric_cell):
    r = fdtd.run_unit_cell(params(), 8, WAVELENGTH, STACK, "TE",
                           cell_size=CELL)
    assert r.p_t == symmetric_cell.p_t
    assert r.p_up == symmetric_cell.p_up
    assert np.array_equal(r.top_field, symmetric_cell.top_field)


def test_reference_and_grating_runs_share_the_time_step(monkeypatch):
    # the reference map is the grating map's first column repeated, whose
    # lowest index is the grating map's
    monkeypatch.setattr(fdtd, "_reference_cache", {})
    grids = []

    class Recorded(fdtd.Fdtd2D):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            grids.append((np.min(self.material.n), self.grid,
                          self.steps_per_period))

    monkeypatch.setattr(fdtd, "Fdtd2D", Recorded)
    fdtd.run_unit_cell(params(pitch=0.32e-6, delta=0.16e-6), 4, WAVELENGTH,
                       STACK, "TE", cell_size=2 * CELL)
    (n_ref, ref, spp_ref), (n_grating, grating, spp) = grids
    assert n_ref == n_grating == STACK.cladding_index
    assert ref.time_step == grating.time_step
    assert spp_ref == spp


@pytest.mark.parametrize("pol", KERNEL_POLARIZATIONS)
def test_long_step_stays_stable_for_max_periods(pol):
    # a driven coarse cell for MAX_PERIODS at the cladding's step: the
    # field is finite, and its peak over the last 100 periods is that of
    # periods 100-200, where the run is long steady
    sim = _driven_sim(pol, 2 * CELL)
    peaks = np.empty(fdtd.MAX_PERIODS)
    for k in range(fdtd.MAX_PERIODS):
        peak = 0.0
        for _ in range(sim.steps_per_period):
            sim._step()
            peak = max(peak, float(np.max(np.abs(sim.F))))
        peaks[k] = peak
    assert np.all(np.isfinite(peaks))
    steady = np.max(peaks[100:200])
    assert steady > 0
    assert np.max(peaks[-100:]) == pytest.approx(steady, rel=1e-3)


def test_reference_simulation_is_freed_before_the_grating_run(monkeypatch):
    # the cached reference keeps its fluxes, index and profile, not its
    # simulation
    monkeypatch.setattr(fdtd, "_reference_cache", {})
    built, alive = [], []

    class Recorded(fdtd.Fdtd2D):
        def __init__(self, *args, **kwargs):
            alive.append([ref() is not None for ref in built])
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(fdtd, "Fdtd2D", Recorded)
    fdtd.run_unit_cell(params(pitch=0.32e-6), 4, WAVELENGTH, STACK, "TE",
                       cell_size=2 * CELL)
    assert alive == [[], [False]]


def _traced_simulation_size(p, n_periods, cell):
    """Traced bytes of one simulation of the unit cell ``p``: its index
    map, fields, CPML arrays and four monitors."""
    tracemalloc.start()
    try:
        material = fdtd.unit_cell_material_map(STACK, p, n_periods, cell)
        meta = material.meta
        col = material.n[meta["i_in"] - 2, :]
        _, profile = fdtd.slab_mode_profile(col, cell, WAVELENGTH, "TE")
        sim = fdtd.Fdtd2D(material, WAVELENGTH)
        zspan = slice(meta["j_bot"], meta["j_top"] + 1)
        xspan = slice(meta["i_in"], meta["i_out"] + 1)
        monitors = [fdtd.LineMonitor(sim, "v", meta[i], zspan)
                    for i in ("i_in", "i_out")]
        monitors += [fdtd.LineMonitor(sim, "h", meta[j], xspan)
                     for j in ("j_top", "j_bot")]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size


def test_unit_cell_run_holds_one_simulation_at_a_time(monkeypatch):
    # a run that makes its reference peaks at the grating's index map, one
    # simulation and its set-up's row blocks: the reference map is a
    # view of the grating map's first column
    p, cell = params(pitch=0.32e-6), 2 * CELL
    # the effective-index cache outlives the run, so fill it beforehand
    fdtd.grating_angle(STACK, p, cell, WAVELENGTH, "TE")
    one = _traced_simulation_size(p, 4, cell)
    monkeypatch.setattr(fdtd, "_reference_cache", {})
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        fdtd.run_unit_cell(p, 4, WAVELENGTH, STACK, "TE", cell_size=cell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 1.5 * one


def test_reference_cache_keeps_one_reference_per_wavelength(monkeypatch):
    # same cell size and grid at two wavelengths: the second run must not
    # be normalized by the first wavelength's tooth-free reference
    p = params()
    monkeypatch.setattr(fdtd, "_reference_cache", {})
    alone = fdtd.run_unit_cell(p, 4, 440e-9, STACK, "TE", cell_size=CELL)
    monkeypatch.setattr(fdtd, "_reference_cache", {})
    fdtd.run_unit_cell(p, 4, WAVELENGTH, STACK, "TE", cell_size=CELL)
    after = fdtd.run_unit_cell(p, 4, 440e-9, STACK, "TE", cell_size=CELL)
    assert len(fdtd._reference_cache) == 2
    assert after.p_trans == alone.p_trans
    assert after.p_up == alone.p_up
    assert after.p_reflected == alone.p_reflected
    assert np.array_equal(after.top_field, alone.top_field)
