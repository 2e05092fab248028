"""Tests for unit-cell optimization and the interpolation library."""

from dataclasses import fields, replace

import numpy as np
import pytest

from iongrating import fdtd, library
from iongrating.geometry import default_stack
from iongrating.library import (
    ExtrapolationError, FigureOfMeritUndefinedError, KernelConfig,
    LibraryEntry, LibraryError, ParamLibrary, UnitCellParams, build_library,
    feature_check, figure_of_merit, interpolate, load_library,
    optimize_cell, pitch_for_angle, save_library, search_bounds,
)


# ---------------------------------------------------------------------------
# Scalar helpers

def test_fom_limits():
    assert figure_of_merit(1.0, 0.0) == 1.0
    assert figure_of_merit(2.0, 2.0) == 0.5


def test_fom_undefined():
    with pytest.raises(FigureOfMeritUndefinedError):
        figure_of_merit(0.0, 0.0)


def test_feature_check_boundary_cases():
    # both features exactly at the minimum: manufacturable
    assert feature_check(UnitCellParams(0.24e-6, 0.5, 0.5, 0, 0)) == []
    # 40% duty at minimum pitch: 0.096 um tooth violates
    bad = feature_check(UnitCellParams(0.24e-6, 0.4, 0.5, 0, 0))
    assert len(bad) == 1
    assert bad[0][:2] == ("upper", "tooth")
    assert bad[0][2] == pytest.approx(0.096e-6)
    # wide pitch, asymmetric duty: 0.12/0.28 um both fine
    assert feature_check(UnitCellParams(0.4e-6, 0.3, 0.5, 0, 0)) == []


def test_feature_check_ignores_absent_features():
    # duty 1 (solid) and duty 0 (removed) have no sub-minimum feature
    assert feature_check(UnitCellParams(0.1e-6, 1.0, 0.0, 0, 0)) == []


def test_params_validation():
    with pytest.raises(ValueError):
        UnitCellParams(-1e-6, 0.5, 0.5, 0, 0)
    with pytest.raises(ValueError):
        UnitCellParams(0.3e-6, 1.5, 0.5, 0, 0)
    with pytest.raises(ValueError):
        UnitCellParams(0.3e-6, 0.5, 0.5, 0, 0.2e-6)  # delta > pitch/2


def test_pitch_for_angle_monotone_and_consistent():
    stack = default_stack()
    angles = np.deg2rad([2.0, 8.0, 14.0])
    cell = fdtd.default_cell_size(stack, 422e-9, 20)
    pitches = [pitch_for_angle(a, 0.5, 0.5, stack, 422e-9, "TE", cell)
               for a in angles]
    # steeper forward angles need longer pitch
    assert pitches[0] < pitches[1] < pitches[2]
    # round trip through the grating equation
    n_loc = fdtd.grating_effective_index(stack, 0.5, 0.5, cell, 422e-9, "TE")
    sin_back = (n_loc - 422e-9 / pitches[1]) / stack.cladding_index
    assert np.arcsin(sin_back) == pytest.approx(angles[1], abs=1e-9)


def test_pitch_for_angle_rejects_a_duty_outside_the_unit_interval():
    # duty -5 would average a layer to a negative permittivity
    stack = default_stack()
    cell = fdtd.default_cell_size(stack, 422e-9, 20)
    for dcu, dcl, name in ((-5.0, 0.5, "dcu"), (0.5, 1.5, "dcl")):
        with pytest.raises(ValueError, match=rf"^{name} outside \[0, 1\]$"):
            pitch_for_angle(0.1, dcu, dcl, stack, 422e-9, "TE", cell)


def test_cell_evaluation_loads_no_heavy_scipy(heavy_after):
    # the pitch's slab mode and the FDTD kernel need no scipy solver, so
    # setting up and evaluating a unit cell imports none
    setup = ("import numpy as np\n"
             "from iongrating import library\n"
             "k = library.KernelConfig(n_periods=6)\n"
             "a = np.deg2rad(8.5)\n"
             "p = library.pitch_for_angle(a, 0.5, 0.5, k.stack, "
             "k.wavelength, k.polarization, k.cell_size)")
    assert heavy_after(setup) == ["numpy"]
    cell = ("\nlibrary.evaluate_cell(library.UnitCellParams("
            "p, 0.5, 0.5, 0.0, 0.25 * p), a, k)")
    assert heavy_after(setup + cell) == ["numpy"]


# ---------------------------------------------------------------------------
# The geometry search on stand-in cells

def _uncoupled(params, angle):
    """What evaluate_cell reports for a cell that neither couples nor
    loses light."""
    return LibraryEntry(angle=angle, delta_frac=0.0, params=params,
                        kappa=0.0, alpha=0.0, fom=float("nan"))


def _smooth_cell(calls):
    """A stand-in for evaluate_cell: kappa peaks smoothly at a geometry
    that moves with the angle, and the corner of large dcu and small dcl
    just past the 20 deg peak neither couples nor loses light."""
    def cell(params, angle, config):
        dx_frac = params.dx / params.pitch
        calls.append((params.dcu, params.dcl, dx_frac))
        if params.dcu > 0.62 and params.dcl < 0.44:
            return _uncoupled(params, angle)
        shift = 0.1 * np.rad2deg(angle) / 20.0
        kappa = 1e5 * np.exp(-((params.dcu - 0.5 - shift) ** 2
                               + (params.dcl - 0.5 + 0.5 * shift) ** 2
                               + (dx_frac - 0.3) ** 2) / 0.02)
        return LibraryEntry(angle=angle, delta_frac=0.0, params=params,
                            kappa=kappa, alpha=1e4,
                            fom=figure_of_merit(kappa, 1e4))
    return cell


def test_search_is_deterministic_bounded_and_warm_started(monkeypatch):
    calls = []
    monkeypatch.setattr(library, "evaluate_cell", _smooth_cell(calls))
    monkeypatch.setattr(library, "MAX_SEARCH_NFEV", 400)
    config = KernelConfig()
    centre = (0.5, 0.5, 0.25)

    def search(deg, start):
        calls.clear()
        entry = optimize_cell(np.deg2rad(deg), config, start)
        bounds = search_bounds(np.deg2rad(deg), config)
        for point in calls:
            assert all(lo <= v <= hi for v, (lo, hi) in zip(point, bounds))
        assert entry.search_nfev == len(calls)
        assert entry.search_status == 0        # converged under the cap
        entry.uncoupled = sum(u > 0.62 and l < 0.44 for u, l, _ in calls)
        return entry

    first = search(16.0, centre)
    again = search(16.0, centre)
    assert again.params == first.params and again.fom == first.fom
    assert again.search_nfev == first.search_nfev
    # 16 deg puts the optimum at dcu = 0.58, dcl = 0.46, dx = 0.3 pitch
    assert first.params.dcu == pytest.approx(0.58, abs=0.01)
    assert first.params.dcl == pytest.approx(0.46, abs=0.01)
    assert first.params.dx / first.params.pitch == pytest.approx(0.3,
                                                                 abs=0.01)
    p = first.params
    warm = search(20.0, (p.dcu, p.dcl, p.dx / p.pitch))
    cold = search(20.0, centre)
    assert warm.fom >= cold.fom - 1e-6
    assert warm.search_nfev < cold.search_nfev
    # both met the uncoupled corner on the way and went on
    assert warm.uncoupled > 0 and cold.uncoupled > 0


def test_search_box_is_manufacturable():
    config = KernelConfig()
    for deg in (-4.0, 8.0, 20.0):
        angle = np.deg2rad(deg)
        bounds = search_bounds(angle, config)
        (lo, hi), dx = bounds[0], bounds[2]
        assert bounds[1] == (lo, hi) and dx == (0.0, 0.5)
        assert library.DUTY_BOUNDS[0] <= lo < 0.5 < hi <= 0.7
        for dcu in (lo, hi):
            for dcl in (lo, hi):
                cell = library._candidate_params((dcu, dcl, 0.0), angle,
                                                 config)
                assert feature_check(cell, config.min_feature) == []
    # at -4 deg the pitch leaves only a sliver around half duty
    assert search_bounds(np.deg2rad(-4.0), config)[0][1] < 0.51


def test_search_rejects_an_unmanufacturable_angle(monkeypatch):
    monkeypatch.setattr(KernelConfig, "min_feature", 0.2e-6)
    with pytest.raises(LibraryError, match="no manufacturable duty cycle"):
        search_bounds(np.deg2rad(-4.0), KernelConfig())


@pytest.mark.parametrize("constant", ["polarization", "min_feature"])
def test_kernel_constants_are_not_settings(constant):
    # the solver steps TE only and the feature minimum is MIN_FEATURE:
    # both stay readable on every config, and neither can be set
    config = KernelConfig()
    assert (config.polarization, config.min_feature) == (
        "TE", library.MIN_FEATURE)
    assert constant not in {f.name for f in fields(config)}
    with pytest.raises(TypeError):
        KernelConfig(**{constant: getattr(config, constant)})


def test_search_scores_uncoupled_cells_as_infeasible(monkeypatch):
    # cells with dcu < 0.5 neither couple nor lose light; the search must
    # skip them rather than abort the angle
    def fake_cell(params, angle, config):
        if params.dcu < 0.5:
            return _uncoupled(params, angle)
        return LibraryEntry(angle=angle, delta_frac=0.0, params=params,
                            kappa=params.dcu, alpha=0.1,
                            fom=figure_of_merit(params.dcu - 0.5, 0.1))

    monkeypatch.setattr(library, "evaluate_cell", fake_cell)
    entry = optimize_cell(np.deg2rad(8.0), KernelConfig(), (0.5, 0.5, 0.25))
    assert entry.params.dcu >= 0.5
    assert np.isfinite(entry.fom)


def test_search_skips_cells_with_an_energy_balance_error(monkeypatch):
    # past dcu = 0.55 the stand-in's top monitor catches more than the
    # guide loses: alpha clamps to 0 and the figure of merit to 1
    def fake_cell(params, angle, config):
        clamped = params.dcu > 0.55
        alpha = 0.0 if clamped else 0.1
        return LibraryEntry(angle=angle, delta_frac=0.0, params=params,
                            kappa=params.dcu, alpha=alpha,
                            fom=figure_of_merit(params.dcu, alpha))

    monkeypatch.setattr(library, "evaluate_cell", fake_cell)
    entry = optimize_cell(np.deg2rad(8.0), KernelConfig(), (0.5, 0.5, 0.25))
    assert 0.5 <= entry.params.dcu <= 0.55
    assert entry.alpha > 0 and entry.fom < 1


def test_cell_without_measured_loss_has_no_figure_of_merit(monkeypatch):
    # a half-pitch cell whose transmitted and reflected power sum to one:
    # kappa = alpha = 0 is a measurement, and the entry stays usable
    def lossless(params, n_periods, wavelength, stack, polarization,
                 cell_size):
        return fdtd.CellResult(
            p_t=0.0, p_d=0.0, p_up=0.0, p_down=0.0, p_trans=0.99,
            p_reflected=0.01, length=n_periods * params.pitch,
            peak_angle=np.nan, target_angle=0.0, n_cladding=1.47,
            wavelength=wavelength, cell_size=cell_size,
            top_field=np.zeros(4), periods_run=43)

    monkeypatch.setattr(fdtd, "run_unit_cell", lossless)
    params = UnitCellParams(0.3e-6, 0.5, 0.5, 0.0, 0.15e-6)
    entry = library.evaluate_cell(params, 0.0, KernelConfig())
    assert (entry.kappa, entry.alpha) == (0.0, 0.0)
    assert np.isnan(entry.fom)
    assert entry.periods_run == 43


# ---------------------------------------------------------------------------
# Interpolation on a synthetic library (closed-form kappa surface)

def _synthetic_library():
    angles = list(np.deg2rad([4.0, 8.0, 12.0]))
    fracs = [0.0, 0.5, 1.0]
    entries = {}
    for i, a in enumerate(angles):
        k0 = 1e5 * (1 + i)  # kappa_max grows with angle index
        for j, f in enumerate(fracs):
            kappa = k0 * (1 - f)  # linear decay to zero at delta = pitch/2
            pitch = 0.3e-6 + 0.01e-6 * i
            params = UnitCellParams(pitch, 0.5, 0.5, 0.05e-6 * i,
                                    f * pitch / 2)
            entries[(i, j)] = LibraryEntry(
                angle=a, delta_frac=f, params=params, kappa=kappa,
                alpha=0.2 * k0, fom=figure_of_merit(kappa, 0.2 * k0)
                if kappa + 0.2 * k0 > 0 else 0.0)
    return ParamLibrary(angles=angles, delta_fracs=fracs, entries=entries,
                        provenance={"ppw": 16})


def test_interpolate_node_identity():
    lib = _synthetic_library()
    res = interpolate(lib, np.deg2rad(8.0), 2e5 * 0.5)
    assert res.kappa == pytest.approx(1e5, rel=1e-12)
    # the cell at unit pitch: dx and delta are fractions of the pitch
    assert res.params.pitch == 1.0
    assert res.params.delta == pytest.approx(0.5 / 2, rel=1e-12)
    assert res.params.dx == pytest.approx(0.05e-6 / 0.31e-6, rel=1e-12)
    assert not res.clamped


def test_interpolate_zero_target_returns_max_suppression():
    lib = _synthetic_library()
    res = interpolate(lib, np.deg2rad(4.0), 0.0)
    assert res.kappa == pytest.approx(0.0, abs=1e-9)
    assert res.params.delta == pytest.approx(1.0 / 2, rel=1e-12)


def test_interpolate_clamps_above_maximum():
    lib = _synthetic_library()
    res = interpolate(lib, np.deg2rad(12.0), 10e5)
    assert res.clamped
    assert res.kappa == pytest.approx(3e5, rel=1e-12)
    assert res.params.delta == 0.0


def test_interpolate_bilinear_between_angles():
    lib = _synthetic_library()
    # halfway between 4 and 8 degrees, kappa_max = 1.5e5
    assert interpolate(lib, np.deg2rad(6.0), 10e5).kappa == pytest.approx(
        1.5e5, rel=1e-12)
    res = interpolate(lib, np.deg2rad(6.0), 0.75e5)
    assert res.kappa == pytest.approx(0.75e5, rel=1e-12)


def _blend_fractions(a, b, t):
    """Two cells blended at unit pitch: duty cycles, and dx and delta as
    fractions of each cell's pitch."""
    def fractions(p):
        return p.dcu, p.dcl, p.dx / p.pitch, p.delta / p.pitch
    return UnitCellParams(1.0, *(library._lerp(u, v, t) for u, v in
                                 zip(fractions(a), fractions(b))))


def _interpolate_every_column(lib, angle, kappa_target):
    """The lookup that blended all delta columns, each with its own
    angle weights: the oracle of one that blends only those returned."""
    def column(j):
        i0, i1, t = lib._angle_weights(angle)
        e0, e1 = lib.entries[(i0, j)], lib.entries[(i1, j)]
        return (library._lerp(e0.kappa, e1.kappa, t),
                library._lerp(e0.alpha, e1.alpha, t),
                _blend_fractions(e0.params, e1.params, t))

    cols = [column(j) for j in range(len(lib.delta_fracs))]
    kappas = np.array([c[0] for c in cols])
    if kappa_target >= kappas[0]:
        kappa, alpha, params = cols[0]
        return library.InterpolationResult(
            params, kappa, alpha, clamped=bool(kappa_target > kappas[0]))
    j = int(np.searchsorted(-kappas, -kappa_target, side="left"))
    j = min(max(j, 1), len(kappas) - 1)
    k_hi, k_lo = kappas[j - 1], kappas[j]
    s = 0.0 if k_hi == k_lo else (k_hi - kappa_target) / (k_hi - k_lo)
    s = float(np.clip(s, 0.0, 1.0))
    _, a_hi, p_hi = cols[j - 1]
    _, a_lo, p_lo = cols[j]
    return library.InterpolationResult(
        _blend_fractions(p_hi, p_lo, s),
        float(library._lerp(k_hi, k_lo, s)),
        float(library._lerp(a_hi, a_lo, s)), clamped=False)


def test_interpolate_blends_only_returned_columns_exactly():
    lib = _synthetic_library()
    for angle in np.deg2rad([4.0, 5.3, 8.0, 9.99, 12.0]):
        for target in (0.0, 1234.5, 0.6e5, 1e5, 2.2e5, 10e5):
            got = interpolate(lib, angle, target)
            ref = _interpolate_every_column(lib, angle, target)
            assert got == ref
            assert type(got.kappa) is type(ref.kappa)


def test_interpolate_outside_hull_raises():
    lib = _synthetic_library()
    with pytest.raises(ExtrapolationError):
        interpolate(lib, np.deg2rad(20.0), 1e4)


def test_save_load_round_trip(tmp_path):
    lib = _synthetic_library()
    path = tmp_path / "lib.json"
    save_library(lib, path)
    back = load_library(path)
    assert back.provenance == lib.provenance
    assert back.angles == lib.angles
    assert back.delta_fracs == lib.delta_fracs
    for key, e in lib.entries.items():
        b = back.entries[key]
        assert b.kappa == e.kappa and b.params == e.params


def test_library_fields_are_pinned_to_the_schema():
    # a library.json entry is asdict(LibraryEntry) with its UnitCellParams:
    # changing either field list without bumping SCHEMA_VERSION fails here
    assert library.SCHEMA_VERSION == 2
    assert [f.name for f in fields(LibraryEntry)] == [
        "angle", "delta_frac", "params", "kappa", "alpha", "fom",
        "peak_angle", "periods_run", "closure", "search_status",
        "search_nfev", "error"]
    assert [f.name for f in fields(UnitCellParams)] == [
        "pitch", "dcu", "dcl", "dx", "delta"]


def test_entry_key_covers_the_whole_stack():
    stack = default_stack()
    upper_only = replace(stack, guiding=("upper_nitride",))
    start = (0.5, 0.5, 0.25)
    keys = {library._entry_key(0.1, 0.0, KernelConfig(stack=s), start)
            for s in (stack, upper_only,
                      replace(stack, cladding_index=1.45))}
    assert len(keys) == 3
    # an optimum found from another start is another entry
    assert library._entry_key(0.1, 0.0, KernelConfig(), (0.5, 0.5, 0.3)) \
        not in keys


def test_entry_cache_does_not_serve_another_version(tmp_path, monkeypatch):
    calls = []

    def fake_cell(params, angle, config):
        calls.append(params)
        return LibraryEntry(angle=angle, delta_frac=0.0, params=params,
                            kappa=params.dcu, alpha=0.1,
                            fom=figure_of_merit(params.dcu, 0.1))

    monkeypatch.setattr(library, "evaluate_cell", fake_cell)
    # at 20 deg the pitch leaves every duty cycle of the box manufacturable
    angle = np.deg2rad(20.0)
    config, start = KernelConfig(), (0.5, 0.5, 0.25)
    key = library._entry_key(angle, 0.0, config, start)

    def build():
        calls.clear()
        lib = build_library([angle], [0.0], config, cache_dir=str(tmp_path))
        assert lib.complete
        return len(calls)

    assert build() > 0
    assert build() == 0               # served from the entry cache
    monkeypatch.setattr(library, "__version__", "0.0.0")
    assert library._entry_key(angle, 0.0, config, start) != key
    assert build() > 0                # another solver version recomputes


# ---------------------------------------------------------------------------
# End-to-end optimization through the solver (capped search, shared cache)

ANGLE = np.deg2rad(8.5)
SMALL_NFEV = 6
SMALL_KERNEL = KernelConfig(n_periods=6)


@pytest.fixture(scope="module")
def built_library(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("libcache"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(library, "MAX_SEARCH_NFEV", SMALL_NFEV)
        lib = build_library([ANGLE], delta_fracs=[0.0, 1.0],
                            config=SMALL_KERNEL, cache_dir=cache)
        yield lib, cache


def test_build_library_entries_valid(built_library):
    lib, _ = built_library
    assert lib.complete
    e0 = lib.entries[(0, 0)]
    assert 0.0 < e0.fom <= 1.0
    assert e0.kappa > 0 and e0.alpha >= 0
    assert feature_check(e0.params, lib.min_feature) == []
    # the solver diagnostics travel with each entry
    for e in lib.entries.values():
        assert 0 < e.periods_run < 400
        assert 0.0 <= e.closure <= 0.05
    # the search stopped at its cap
    assert (e0.search_status, e0.search_nfev) == (1, SMALL_NFEV)
    assert lib.entries[(0, 1)].search_nfev == 0
    # average duty cycle of optimized cells stays near one half
    assert 0.5 * (e0.params.dcu + e0.params.dcl) == pytest.approx(0.5,
                                                                  abs=0.1)


def test_half_pitch_entry_suppressed(built_library):
    lib, _ = built_library
    assert lib.entries[(0, 1)].kappa <= 0.05 * lib.entries[(0, 0)].kappa


def test_build_is_resumable_and_matches_single_optimization(built_library):
    lib, cache = built_library
    # resumed build reads every entry from cache and reproduces the library
    again = build_library([ANGLE], delta_fracs=[0.0, 1.0],
                          config=SMALL_KERNEL, cache_dir=cache)
    assert again.entries[(0, 0)].kappa == lib.entries[(0, 0)].kappa
    assert again.entries[(0, 0)].params == lib.entries[(0, 0)].params
    # a 1x1 grid is exactly the single-cell optimization
    one = build_library([ANGLE], delta_fracs=[0.0], config=SMALL_KERNEL,
                        cache_dir=cache)
    assert one.entries[(0, 0)].kappa == lib.entries[(0, 0)].kappa
