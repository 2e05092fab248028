"""Tests for unit-cell optimization and the interpolation library."""

from dataclasses import replace

import numpy as np
import pytest

from iongrating import fdtd, library
from iongrating.geometry import default_stack
from iongrating.library import (
    InfeasibleSwarmError, ExtrapolationError, FigureOfMeritUndefinedError,
    KernelConfig, LibraryEntry, ParamLibrary, SwarmConfig, UnitCellParams,
    build_library, feature_check, figure_of_merit, interpolate, load_library,
    pitch_for_angle, pso_minimize, pso_optimize, save_library,
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
    pitches = [pitch_for_angle(a, 0.5, 0.5, stack, 422e-9) for a in angles]
    # steeper forward angles need longer pitch
    assert pitches[0] < pitches[1] < pitches[2]
    # round trip through the grating equation
    cell = fdtd.default_cell_size(stack, 422e-9)
    p = UnitCellParams(pitches[1], 0.5, 0.5, 0, 0)
    n_loc = fdtd.grating_effective_index(stack, p, cell, 422e-9, "TE")
    sin_back = (n_loc - 422e-9 / pitches[1]) / stack.cladding_index
    assert np.arcsin(sin_back) == pytest.approx(angles[1], abs=1e-9)


# ---------------------------------------------------------------------------
# Swarm optimizer on closed-form objectives

def test_pso_finds_sphere_minimum():
    target = np.array([0.3, -0.7, 0.1])

    def sphere(x):
        return float(np.sum((x - target) ** 2))

    cfg = SwarmConfig(n_particles=24, iterations=200, seed=3)
    best, val = pso_minimize(sphere, [(-1, 1)] * 3, cfg)
    assert np.all(np.abs(best - target) < 1e-3)
    assert val < 1e-6


def test_pso_deterministic_and_seed_robust():
    def bowl(x):
        return float((x[0] - 0.2) ** 2 + 0.5 * (x[1] + 0.4) ** 2)

    cfg = SwarmConfig(n_particles=12, iterations=80, seed=11)
    b1, v1 = pso_minimize(bowl, [(-1, 1)] * 2, cfg)
    b2, v2 = pso_minimize(bowl, [(-1, 1)] * 2, cfg)
    assert np.array_equal(b1, b2) and v1 == v2
    _, v3 = pso_minimize(bowl, [(-1, 1)] * 2,
                         SwarmConfig(n_particles=12, iterations=80, seed=12))
    # different seeds land on objective values within 5% of the range scale
    assert abs(v3 - v1) < 0.05


def test_pso_degenerate_infeasible_bounds():
    with pytest.raises(InfeasibleSwarmError):
        pso_minimize(lambda x: np.inf, [(0.5, 0.5)], SwarmConfig(4, 3))


def test_pso_scores_uncoupled_cells_as_infeasible(monkeypatch):
    # cells with dcu < 0.5 neither couple nor lose light; the swarm must
    # skip them rather than abort the angle
    def fake_cell(params, angle, config):
        fom = figure_of_merit(params.dcu - 0.5 if params.dcu >= 0.5 else 0.0,
                              0.1 if params.dcu >= 0.5 else 0.0)
        return LibraryEntry(angle=angle, delta_frac=0.0, params=params,
                            kappa=params.dcu, alpha=0.1, fom=fom)

    monkeypatch.setattr(library, "evaluate_cell", fake_cell)
    entry = pso_optimize(np.deg2rad(8.0), 0.0, KernelConfig(),
                         SwarmConfig(n_particles=6, iterations=4, seed=3))
    assert entry.params.dcu >= 0.5
    assert np.isfinite(entry.fom)


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
    return ParamLibrary(angles=angles, delta_fracs=fracs, entries=entries)


def test_interpolate_node_identity():
    lib = _synthetic_library()
    res = interpolate(lib, np.deg2rad(8.0), 2e5 * 0.5)
    assert res.kappa == pytest.approx(1e5, rel=1e-12)
    assert res.params.delta == pytest.approx(0.5 * 0.31e-6 / 2, rel=1e-12)
    assert not res.clamped


def test_interpolate_zero_target_returns_max_suppression():
    lib = _synthetic_library()
    res = interpolate(lib, np.deg2rad(4.0), 0.0)
    assert res.kappa == pytest.approx(0.0, abs=1e-9)
    assert res.params.delta == pytest.approx(0.3e-6 / 2, rel=1e-12)


def test_interpolate_clamps_above_maximum():
    lib = _synthetic_library()
    res = interpolate(lib, np.deg2rad(12.0), 10e5)
    assert res.clamped
    assert res.kappa == pytest.approx(3e5, rel=1e-12)
    assert res.params.delta == 0.0


def test_interpolate_bilinear_between_angles():
    lib = _synthetic_library()
    # halfway between 4 and 8 degrees, kappa_max = 1.5e5
    assert lib.kappa_max(np.deg2rad(6.0)) == pytest.approx(1.5e5, rel=1e-12)
    res = interpolate(lib, np.deg2rad(6.0), 0.75e5)
    assert res.kappa == pytest.approx(0.75e5, rel=1e-12)


def test_interpolate_outside_hull_raises():
    lib = _synthetic_library()
    with pytest.raises(ExtrapolationError):
        interpolate(lib, np.deg2rad(20.0), 1e4)


def test_save_load_round_trip(tmp_path):
    lib = _synthetic_library()
    path = tmp_path / "lib.json"
    save_library(lib, path)
    back = load_library(path)
    assert back.angles == lib.angles
    assert back.delta_fracs == lib.delta_fracs
    for key, e in lib.entries.items():
        b = back.entries[key]
        assert b.kappa == e.kappa and b.params == e.params


def test_entry_key_covers_the_whole_stack():
    stack = default_stack()
    upper_only = replace(stack, guiding=("upper_nitride",))
    swarm = SwarmConfig()
    keys = {library._entry_key(0.1, 0.0, KernelConfig(stack=s), swarm)
            for s in (stack, upper_only,
                      replace(stack, cladding_index=1.45),
                      replace(stack, design_wavelength=400e-9))}
    assert len(keys) == 4


# ---------------------------------------------------------------------------
# End-to-end optimization through the solver (small swarm, shared cache)

ANGLE = np.deg2rad(8.5)
SMALL_SWARM = SwarmConfig(n_particles=4, iterations=1, seed=7)
SMALL_KERNEL = KernelConfig(n_periods=6)


@pytest.fixture(scope="module")
def built_library(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("libcache"))
    lib = build_library([ANGLE], delta_fracs=[0.0, 1.0],
                        config=SMALL_KERNEL, swarm=SMALL_SWARM,
                        cache_dir=cache)
    return lib, cache


def test_build_library_entries_valid(built_library):
    lib, _ = built_library
    assert lib.complete
    e0 = lib.entry(0, 0)
    assert 0.0 < e0.fom <= 1.0
    assert e0.kappa > 0 and e0.alpha >= 0
    assert feature_check(e0.params, lib.min_feature) == []
    # average duty cycle of optimized cells stays near one half
    assert 0.5 * (e0.params.dcu + e0.params.dcl) == pytest.approx(0.5,
                                                                  abs=0.1)


def test_half_pitch_entry_suppressed(built_library):
    lib, _ = built_library
    assert lib.entry(0, 1).kappa <= 0.05 * lib.entry(0, 0).kappa


def test_build_is_resumable_and_matches_single_optimization(built_library):
    lib, cache = built_library
    # resumed build reads every entry from cache and reproduces the library
    again = build_library([ANGLE], delta_fracs=[0.0, 1.0],
                          config=SMALL_KERNEL, swarm=SMALL_SWARM,
                          cache_dir=cache)
    assert again.entry(0, 0).kappa == lib.entry(0, 0).kappa
    assert again.entry(0, 0).params == lib.entry(0, 0).params
    # a 1x1 grid is exactly the single-cell optimization
    one = build_library([ANGLE], delta_fracs=[0.0], config=SMALL_KERNEL,
                        swarm=SMALL_SWARM, cache_dir=cache)
    assert one.entry(0, 0).kappa == lib.entry(0, 0).kappa
