"""Tests for the longitudinal design chain: fit, discretize, curve, export."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from iongrating import designer, dipole, fdtd
from iongrating.designer import (
    GratingLayout, LayoutError, ToothSpec, curve_tooth,
    default_zone_period, diffracted_intensity, diffraction_angle_at,
    discretize, emit_layout, export_layout, fit_kappa, ideal_kappa,
    residual_power, slab_index, tooth_power_accounting,
)
from iongrating.geometry import (GratingFootprint, IonPose, default_stack,
                                 wavelength_in_medium)
from iongrating.library import (MIN_FEATURE, LibraryEntry, ParamLibrary,
                                UnitCellParams, feature_check,
                                figure_of_merit, pitch_for_angle)

WAVELENGTH = 422e-9
STACK = default_stack()
POSE = IonPose()
FOOTPRINT = GratingFootprint()


@pytest.fixture(scope="module")
def ion_profile():
    emission = dipole.ion_intensity_profile(FOOTPRINT, POSE, 512)
    return emission.x, emission.intensity


# ---------------------------------------------------------------------------
# Required diffraction angle

def test_angle_zero_with_ion_overhead():
    pose = IonPose(cladding_thickness=0.0)
    assert diffraction_angle_at(pose.x_ion, pose, STACK) == 0.0


def test_angle_matches_fermat_minimization():
    # independent oracle: minimize total optical time over the interface
    # crossing point with a golden-section-quality bounded search
    t_c = POSE.cladding_thickness
    h_v = POSE.height_above_surface
    rho = POSE.x_ion  # ray from x = 0
    n_c = STACK.cladding_index

    def optical_path(xi):
        return n_c * np.hypot(xi, t_c) + np.hypot(rho - xi, h_v)

    res = minimize_scalar(optical_path, bounds=(0.0, rho), method="bounded",
                          options={"xatol": 1e-12})
    oracle = np.arctan2(res.x, t_c)
    assert diffraction_angle_at(0.0, POSE, STACK) == pytest.approx(
        oracle, abs=1e-6)


def test_angle_strictly_decreasing_toward_ion():
    xs = np.linspace(0.0, POSE.x_ion, 40)
    angles = [diffraction_angle_at(x, POSE, STACK) for x in xs]
    assert np.all(np.diff(angles) < 0)


def test_angle_signed_past_ion():
    assert diffraction_angle_at(POSE.x_ion + 2e-6, POSE, STACK) < 0


# ---------------------------------------------------------------------------
# Intensity bookkeeping

def test_constant_kappa_closed_form():
    x = np.linspace(0.0, 30e-6, 200)
    k = 0.1e6
    i = diffracted_intensity(k, 0.0, x)
    assert np.allclose(i, k * np.exp(-k * x), rtol=1e-10)


def test_zero_kappa_zero_intensity():
    x = np.linspace(0.0, 30e-6, 50)
    assert np.all(diffracted_intensity(0.0, 0.05e6, x) == 0.0)


def test_cumulative_trapezoid_matches_scipy_bit_for_bit():
    from scipy import integrate
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 30e-6, 512))
    y = rng.normal(size=512) * 1e5
    assert np.array_equal(designer.cumulative_trapezoid(y, x),
                          integrate.cumulative_trapezoid(y, x, initial=0.0))


def test_negative_kappa_rejected():
    x = np.linspace(0.0, 1e-6, 10)
    with pytest.raises(ValueError):
        diffracted_intensity(-np.ones_like(x), 0.0, x)


def test_integral_form_power_balance(ion_profile):
    # drained + residual = 1 exactly for the integral form of Eq. style
    x, prof = ion_profile
    kappa, _ = fit_kappa(prof, x, alpha=0.0)
    k = kappa(x)
    i = diffracted_intensity(k, 0.0, x)
    drained = np.trapezoid(i, x)
    assert drained + residual_power(k, 0.0, x) == pytest.approx(1.0,
                                                                abs=1e-3)
    assert drained <= 1.0 + 1e-12


def test_ideal_kappa_reconstruction():
    # push a known kappa through the forward model, invert, compare
    x = np.linspace(0.0, 30e-6, 2000)
    for k_true in (0.05e6 + 0.2e6 * (x / x[-1]) ** 2,
                   np.full_like(x, 0.1e6)):
        i = diffracted_intensity(k_true, 0.0, x)
        k_back = ideal_kappa(i, x, 0.0)
        assert np.allclose(k_back, k_true, rtol=1e-3)


# ---------------------------------------------------------------------------
# The kappa(x) fit

def test_fit_recovers_constant_kappa():
    # the floor is the trapezoid mismatch between ideal_kappa's inversion
    # and diffracted_intensity: relative L2 1.37e-6, kappa within 2.7e-5
    x = np.linspace(0.0, 30e-6, 512)
    k = 0.1e6
    target = k * np.exp(-k * x)
    kappa, report = fit_kappa(target, x, alpha=0.0)
    assert report.relative_l2 < 2e-6
    assert np.allclose(kappa(x), k, rtol=5e-5)


def test_fit_matches_default_profile(ion_profile):
    x, prof = ion_profile
    kappa, report = fit_kappa(prof, x, alpha=0.0)
    assert report.relative_l2 < 0.05
    # nonnegative over the whole section
    xs = np.linspace(0.0, x[-1], 1024)
    assert np.all(kappa(xs) >= 0.0)
    # small at the leading edge, largest at the grating end, where it
    # stays at the cap over the last samples
    k = kappa(x)
    assert k[0] < 0.2 * k[-1]
    assert k[-1] == k.max()


def test_fit_flags_infeasible_cap(ion_profile):
    x, prof = ion_profile
    _, report = fit_kappa(prof, x, alpha=0.0, kappa_max=0.02e6)
    assert report.infeasible
    assert report.residual_power > 0.10


def test_constrained_fit_drains_guide(ion_profile):
    x, prof = ion_profile
    _, report = fit_kappa(prof, x, alpha=0.0, kappa_max=0.25e6)
    assert report.residual_power < 0.10
    assert not report.infeasible


def test_nominal_fit_relative_l2(ion_profile):
    # the pipeline's default cap (measured 0.0496)
    x, prof = ion_profile
    kappa, report = fit_kappa(prof, x, alpha=0.0, kappa_max=0.6e6)
    assert report.relative_l2 <= 0.0500
    assert 0.0 < report.drain_target <= 1.0
    assert np.max(kappa(x)) == 0.6e6


# the golden section over (0, 1] to xatol 1e-6 takes the same number of
# cost evaluations whatever the cost
FIT_EVALUATIONS = 31


@pytest.mark.parametrize("kappa_max", [0.6e6, 1e6, 2e6, np.inf])
def test_fit_evaluation_count_is_fixed(ion_profile, kappa_max):
    x, prof = ion_profile
    _, report = fit_kappa(prof, x, alpha=0.0, kappa_max=kappa_max)
    assert report.n_evaluations == FIT_EVALUATIONS
    assert report.residual_power < 0.05


def test_fit_is_stable_under_one_ulp_of_height():
    # a capped fit must not depend on rounding (measured: 2e-16 in L2)
    fits = []
    for height in (60e-6, np.nextafter(60e-6, 1.0)):
        emission = dipole.ion_intensity_profile(
            FOOTPRINT, IonPose(x_ion=26e-6, height_above_surface=height),
            512, n_cladding=STACK.cladding_index)
        kappa, report = fit_kappa(emission.intensity, emission.x,
                                  alpha=0.0, kappa_max=0.4e6)
        fits.append((report.relative_l2, kappa(emission.x)))
    (l2_a, k_a), (l2_b, k_b) = fits
    assert abs(l2_a - l2_b) < 1e-12
    assert np.max(np.abs(k_a - k_b)) < 1e-12 * 0.4e6


# (x_ion, height above surface, kappa_max, alpha): two capped off-nominal
# poses, an uncapped fit and a lossy one
FIT_ORACLE_GRID = [(26e-6, 60e-6, 0.4e6, 0.0), (28e-6, 40e-6, 0.25e6, 0.0),
                   (28e-6, 50e-6, np.inf, 0.0), (28e-6, 50e-6, 0.6e6, 5e4)]


def test_fit_solvers_agree_with_scipy(monkeypatch):
    # scipy.optimize is the oracle: each golden-section drain target lies
    # within xatol of bounded minimize_scalar's on the same cost
    def bounded(f, lo, hi, xatol):
        return minimize_scalar(f, bounds=(lo, hi), method="bounded",
                               options={"xatol": xatol}).x

    golden = designer._golden_minimum
    targets = []

    def checked_golden(f, lo, hi, xatol):
        s = golden(f, lo, hi, xatol)
        assert abs(s - bounded(f, lo, hi, xatol)) <= xatol
        targets.append(s)
        return s

    monkeypatch.setattr(designer, "_golden_minimum", checked_golden)
    for x_ion, height, kappa_max, alpha in FIT_ORACLE_GRID:
        emission = dipole.ion_intensity_profile(
            FOOTPRINT, IonPose(x_ion=x_ion, height_above_surface=height),
            512, n_cladding=STACK.cladding_index)
        _, report = fit_kappa(emission.intensity, emission.x, alpha=alpha,
                              kappa_max=kappa_max)
        assert report.drain_target == targets[-1]
    assert len(targets) == len(FIT_ORACLE_GRID)


# ---------------------------------------------------------------------------
# Discretization against a synthetic library

def _linear_library(pitch0=0.36e-6):
    """kappa_max generous; the cells' pitches only scale dx and delta,
    since the grating equation sets each tooth's pitch."""
    angles = list(np.deg2rad(np.linspace(-4.0, 22.0, 14)))
    fracs = [0.0, 0.5, 1.0]
    entries = {}
    for i, a in enumerate(angles):
        pitch = pitch0 * (1 + 0.4 * np.sin(a))  # grating-equation-like
        for j, f in enumerate(fracs):
            kappa = 1.2e6 * (1 - f)
            entries[(i, j)] = LibraryEntry(
                angle=a, delta_frac=f,
                params=UnitCellParams(pitch, 0.5, 0.5, 0.06e-6,
                                      f * pitch / 2),
                kappa=kappa, alpha=0.1e6,
                fom=figure_of_merit(max(kappa, 1.0), 0.1e6))
    return ParamLibrary(angles=angles, delta_fracs=fracs, entries=entries,
                        provenance={"ppw": 16})


@pytest.fixture(scope="module")
def design(ion_profile):
    x, prof = ion_profile
    lib = _linear_library()
    kappa, _ = fit_kappa(prof, x, alpha=0.0, kappa_max=1.0e6)
    teeth = discretize(kappa, lib, FOOTPRINT, POSE, STACK)
    return lib, kappa, teeth


def test_discretize_constant_angle_uniform_pitch():
    # an effectively infinitely distant emitter sees one angle everywhere
    far_pose = IonPose(x_ion=15e-6, height_above_surface=1.0,
                       cladding_thickness=0.0)
    lib = _linear_library()
    teeth = discretize(lambda x: np.full_like(x, 0.1e6), lib, FOOTPRINT,
                       far_pose, STACK)
    pitches = np.array([t.pitch for t in teeth])
    assert np.ptp(pitches) < 1e-4 * pitches[0]


def test_tooth_pitch_is_its_cell_pitch(design):
    _, _, teeth = design
    assert all(t.pitch == t.params.pitch for t in teeth)
    # the pitch is stored once, in the cell geometry
    assert "pitch" not in dataclasses.asdict(teeth[0])
    tooth = teeth[0]
    moved = dataclasses.replace(tooth, params=dataclasses.replace(
        tooth.params, pitch=2 * tooth.params.pitch))
    assert moved.pitch == 2 * tooth.pitch


def test_discretize_pitch_monotone(design):
    _, _, teeth = design
    pitches = np.array([t.pitch for t in teeth])
    # the required angle decreases along x, so the pitch shrinks
    assert np.all(np.diff(pitches) < 0)


def test_discretize_tooth_count(design):
    _, _, teeth = design
    mean_pitch = np.mean([t.pitch for t in teeth])
    expected = FOOTPRINT.x_extent / mean_pitch
    assert abs(len(teeth) - expected) <= 1.0


def test_discretize_teeth_non_overlapping(design):
    _, _, teeth = design
    for prev, nxt in zip(teeth, teeth[1:]):
        assert nxt.x >= prev.x + prev.pitch - 1e-15


def test_discretize_rejects_a_cell_below_min_feature(design, monkeypatch):
    # cells of 0.3 upper duty below 6 degrees: 0.3 * pitch < 0.12 um
    lib, kappa, _ = design
    narrow = {key: dataclasses.replace(e, params=dataclasses.replace(
                  e.params, dcu=0.3))
              if e.angle < np.deg2rad(6.0) else e
              for key, e in lib.entries.items()}
    bad_lib = dataclasses.replace(lib, entries=narrow)
    checked = []

    def spy(params, min_feature):
        checked.append(params)
        return feature_check(params, min_feature)

    monkeypatch.setattr(designer, "feature_check", spy)
    with pytest.raises(LayoutError) as exc:
        discretize(kappa, bad_lib, FOOTPRINT, POSE, STACK)
    # x advances by each checked cell's pitch, and only the last one fails
    *good, bad = checked
    assert good and not any(feature_check(p, lib.min_feature) for p in good)
    assert feature_check(bad, lib.min_feature)
    x = sum(p.pitch for p in good)
    assert str(exc.value).startswith(
        f"tooth at x={x * 1e6:.3f} um violates feature constraints: "
        "[('upper', 'tooth', ")


def _two_angle_library(cell):
    """Cells at -4 and 20 degrees only, of two duty pairs, each at its
    grating-equation pitch on the unit-cell grid ``cell``."""
    angles = list(np.deg2rad([-4.0, 20.0]))
    fracs = [0.0, 1.0]
    entries = {}
    for i, (a, duties) in enumerate(zip(angles, [(0.5, 0.5), (0.55, 0.45)])):
        pitch = pitch_for_angle(a, *duties, STACK, WAVELENGTH, "TE", cell)
        for j, f in enumerate(fracs):
            kappa = 4e5 * (1 - f)
            entries[(i, j)] = LibraryEntry(
                angle=a, delta_frac=f,
                params=UnitCellParams(pitch, *duties, 0.2 * pitch,
                                      f * pitch / 2),
                kappa=kappa, alpha=1e4,
                fom=figure_of_merit(max(kappa, 1.0), 1e4))
    return ParamLibrary(angles=angles, delta_fracs=fracs, entries=entries,
                        provenance={"ppw": 16})


def test_teeth_aim_where_the_design_says(ion_profile):
    # a pitch blended between these cells aims a tooth up to 2.3 degrees
    # off; the grating equation aims every tooth at the ion
    x, prof = ion_profile
    cell = fdtd.default_cell_size(STACK, WAVELENGTH, 16)
    kappa, _ = fit_kappa(prof, x, alpha=0.0, kappa_max=4e5)
    teeth = discretize(kappa, _two_angle_library(cell), FOOTPRINT, POSE,
                       STACK)
    assert len(teeth) > 90
    errors = [fdtd.grating_angle(STACK, t.params, cell, WAVELENGTH, "TE")
              - diffraction_angle_at(t.x, POSE, STACK) for t in teeth]
    assert np.max(np.abs(errors)) < 1e-9


def test_power_accounting_matches_continuous(design):
    _, _, teeth = design
    drained, residual = tooth_power_accounting(teeth)
    x_end = teeth[-1].x + teeth[-1].pitch
    x = np.linspace(0.0, x_end, 262144)
    k = np.array([t.kappa for t in teeth])
    a = np.array([t.alpha for t in teeth])
    edges = np.array([t.x for t in teeth] + [x_end])
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0,
                  len(teeth) - 1)
    i_cont = diffracted_intensity(k[idx], a[idx], x)
    assert np.sum(drained) == pytest.approx(np.trapezoid(i_cont, x),
                                            rel=0.02)


def test_fom_grows_with_kappa_target(design):
    # alpha is flat in the synthetic library, so the figure of merit must
    # track the ramping kappa target along the grating
    _, _, teeth = design
    foms = [figure_of_merit(t.kappa, t.alpha) for t in teeth if t.kappa > 0]
    assert foms[-1] > 2 * foms[0]
    assert max(foms) > 0.5


# ---------------------------------------------------------------------------
# Tooth curvature

def _plain_tooth(x=10e-6, pitch=0.3e-6):
    return ToothSpec(x=x,
                     params=UnitCellParams(pitch, 0.5, 0.5, 0.0, 0.0),
                     angle=0.1, kappa=1e5, alpha=1e4)


def test_curve_tooth_zero_offset_on_axis():
    tooth = _plain_tooth()
    curve_tooth([tooth], FOOTPRINT, STACK, POSE)
    y, u = min(tooth.curvature, key=lambda s: abs(s[0]))
    assert y == pytest.approx(0.0, abs=1e-18)
    assert u == pytest.approx(0.0, abs=1e-9)


def test_curve_tooth_samples_the_footprint_width():
    # 0.5 um apart from edge to edge, the default 30 um the same 61 floats
    # as an explicit grid
    tooth = _plain_tooth()
    curve_tooth([tooth], FOOTPRINT, STACK, POSE)
    ys = [y for y, _ in tooth.curvature]
    assert ys == np.linspace(-15e-6, 15e-6, 61).tolist()
    curve_tooth([tooth], GratingFootprint(y_extent=7e-6), STACK, POSE)
    assert [y for y, _ in tooth.curvature] == pytest.approx(
        np.arange(-3.5e-6, 3.6e-6, 0.5e-6), abs=1e-18)


def test_curve_tooth_even_in_y():
    tooth = _plain_tooth()
    curve_tooth([tooth], GratingFootprint(y_extent=16e-6), STACK, POSE)
    ys, us = np.array(tooth.curvature).T
    assert len(ys) == 33
    assert ys[[0, 10, -11, -1]] == pytest.approx(
        [-8e-6, -3e-6, 3e-6, 8e-6], abs=1e-18)
    assert us == pytest.approx(us[::-1], abs=1e-12)
    assert us[0] < us[10] < 0.0


def test_curve_tooth_analytic_oracle():
    # zero cladding, collimated slab light, ion right above the tooth:
    # n u + sqrt(u^2 + y^2 + zf^2) = zf has the closed-form negative root;
    # the tooth's pitch sets its grating-equation slab index n
    n_slab = 1.8
    zf = 50e-6
    pitch = 422e-9 / (n_slab - STACK.cladding_index * np.sin(0.1))
    tooth = _plain_tooth(x=12e-6, pitch=pitch)
    assert slab_index(tooth, STACK.cladding_index, 422e-9) == pytest.approx(
        n_slab, rel=1e-14)
    pose = IonPose(x_ion=tooth.x, height_above_surface=zf,
                   cladding_thickness=0.0)
    curve_tooth([tooth], GratingFootprint(y_extent=20e-6), STACK, pose)
    samples = tooth.curvature
    assert len(samples) == 41
    for y, u in samples:
        expected = (n_slab * zf
                    - np.sqrt(n_slab**2 * zf**2 + (n_slab**2 - 1) * y**2)
                    ) / (n_slab**2 - 1)
        assert u == pytest.approx(expected, abs=2e-10)


# ---------------------------------------------------------------------------
# Layout emission and export

def test_default_zone_period_constraints():
    period = default_zone_period(STACK)
    lam_m = wavelength_in_medium(422e-9, STACK.cladding_index)
    assert period == 0.9 * lam_m
    assert period / 2 >= 0.12e-6


def test_default_zone_period_clamps_to_the_feature_minimum():
    # 0.9 of 422 nm / 1.65 leaves half-zones narrower than 0.12 um; twice
    # the minimum, 0.24 um, is still below the 256 nm in the cladding
    stack = dataclasses.replace(STACK, cladding_index=1.65)
    assert default_zone_period(stack) == 2 * MIN_FEATURE
    assert default_zone_period(stack) == pytest.approx(0.24e-6, abs=1e-18)
    # at 1.8 the wavelength in the cladding, 234 nm, is below 0.24 um
    with pytest.raises(LayoutError, match="sub-wavelength"):
        default_zone_period(dataclasses.replace(STACK, cladding_index=1.8))


def _tiny_teeth(delta=0.0):
    teeth = []
    for i in range(3):
        pitch = 0.3e-6
        teeth.append(ToothSpec(
            x=i * pitch,
            params=UnitCellParams(pitch, 0.5, 0.5, 0.07e-6, delta),
            angle=0.1, kappa=1e5, alpha=1e4))
    return teeth


def test_emit_layout_zone_b_shift():
    period = default_zone_period(STACK)
    fp = GratingFootprint(x_extent=1e-6, y_extent=4 * period)
    plain = emit_layout(_tiny_teeth(0.0), fp, STACK)
    shifted = emit_layout(_tiny_teeth(0.15e-6), fp, STACK)
    # with delta = 0, A and B stripes carry identical x spans
    xs = sorted({p[0][0] for p in plain.upper})
    assert len(xs) == 3
    # with delta = pitch/2, B stripes are offset by half the pitch
    xs_b = sorted({p[0][0] for p in shifted.upper})
    assert len(xs_b) == 6
    offsets = np.diff(xs_b)[::2]
    assert np.allclose(offsets, 0.15e-6, atol=1e-9)


def polygon_is_simple(poly) -> bool:
    """Axis-aligned rectangles are simple iff they have positive area."""
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return len(poly) >= 3 and max(xs) > min(xs) and max(ys) > min(ys)


def test_emit_layout_polygons_pass_audits():
    fp = GratingFootprint(x_extent=1e-6, y_extent=3e-6)
    layout = emit_layout(_tiny_teeth(0.1e-6), fp, STACK)
    assert len(layout.upper) and len(layout.lower)
    # concatenate: on arrays, upper + lower adds vertex by vertex
    for poly in np.concatenate([layout.upper, layout.lower]):
        assert polygon_is_simple(poly)
        xs = [p[0] for p in poly]
        assert max(xs) - min(xs) >= 0.12e-6 - 1e-9


def _per_stripe_layout(teeth, zone_period, footprint, min_feature=0.12e-6):
    """Reference layout: curvature interpolated per (stripe, tooth)."""
    snap = lambda v: round(v * 1e9) * 1e-9
    half_w = footprint.y_extent / 2
    n_stripes = int(np.ceil(footprint.y_extent / (zone_period / 2)))
    upper, lower = [], []
    for s in range(n_stripes):
        y0 = -half_w + s * zone_period / 2
        y1 = min(y0 + zone_period / 2, half_w)
        if y1 <= y0:
            continue
        yc = 0.5 * (y0 + y1)
        for tooth in teeth:
            offset = 0.0
            if tooth.curvature:
                ys = np.array([c[0] for c in tooth.curvature])
                us = np.array([c[1] for c in tooth.curvature])
                offset = float(np.interp(yc, ys, us))
            shift = tooth.params.delta if s % 2 == 1 else 0.0
            base = tooth.x + offset + shift
            for polys, duty, dx in ((upper, tooth.params.dcu, 0.0),
                                    (lower, tooth.params.dcl,
                                     tooth.params.dx)):
                width = duty * tooth.pitch
                if width <= 0.0:
                    continue
                assert width >= min_feature
                xa, xb = snap(base + dx), snap(base + dx + width)
                ya, yb = snap(y0), snap(y1)
                polys.append([(xa, ya), (xb, ya), (xb, yb), (xa, yb)])
    return upper, lower


def test_emit_layout_matches_per_stripe_reference(focused_teeth):
    period = default_zone_period(STACK)
    teeth = [ToothSpec(x=t.x, angle=t.angle, kappa=t.kappa,
                       alpha=t.alpha, curvature=t.curvature,
                       params=UnitCellParams(t.pitch, 0.5, 0.6, t.params.dx,
                                             0.3 * t.pitch))
             for t in focused_teeth]
    teeth[3].curvature = []          # an uncurved tooth among curved ones
    layout = emit_layout(teeth, FOOTPRINT, STACK)
    upper, lower = _per_stripe_layout(teeth, period, FOOTPRINT)
    assert layout.upper.shape == (len(upper), 4, 2)
    assert layout.lower.shape == (len(lower), 4, 2)
    assert np.array_equal(layout.upper, np.array(upper))
    assert np.array_equal(layout.lower, np.array(lower))
    # identical floats, not merely equal ones (no negative zeros)
    both = np.concatenate([layout.upper, layout.lower])
    assert np.array_equal(np.signbit(both), np.signbit(
        np.concatenate([np.array(upper), np.array(lower)])))
    assert not np.any(np.signbit(both) & (both == 0.0))


def import_layout(path) -> GratingLayout:
    """Parse the rectangle table that export_layout writes."""
    upper, lower = [], []
    zone_period = 0.0
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                zone_period = float(line.split("=")[1]) * 1e-9
                continue
            parts = line.split()
            layer, vals = parts[0], [int(v) * 1e-9 for v in parts[2:]]
            poly = list(zip(vals[0::2], vals[1::2]))
            (upper if layer == "upper" else lower).append(poly)
    return GratingLayout(upper=np.array(upper).reshape(-1, 4, 2),
                         lower=np.array(lower).reshape(-1, 4, 2),
                         zone_period=zone_period)


def test_export_import_round_trip(tmp_path):
    fp = GratingFootprint(x_extent=1e-6, y_extent=2e-6)
    layout = emit_layout(_tiny_teeth(0.1e-6), fp, STACK)
    path = tmp_path / "layout.txt"
    export_layout(layout, path)
    back = import_layout(path)
    assert len(back.upper) and len(back.lower)
    assert np.array_equal(back.upper, layout.upper)
    assert np.array_equal(back.lower, layout.lower)
    # identical floats: a zero coordinate keeps its sign through the table
    both = np.concatenate([layout.upper, layout.lower])
    assert np.any(both == 0.0)
    assert np.array_equal(np.signbit(both), np.signbit(
        np.concatenate([back.upper, back.lower])))
    # and the re-export is byte-identical
    path2 = tmp_path / "layout2.txt"
    export_layout(back, path2)
    assert path.read_text() == path2.read_text()


def _per_vertex_table(layout):
    """Byte-for-byte reference: the table written one vertex at a time."""
    lines = [f"# grating layout, zone_period_nm="
             f"{round(layout.zone_period * 1e9)}"]
    for layer_id, polys in (("upper", layout.upper),
                            ("lower", layout.lower)):
        for i, poly in enumerate(polys):
            coords = " ".join(f"{round(x * 1e9)} {round(y * 1e9)}"
                              for x, y in poly)
            lines.append(f"{layer_id} {i} {coords}")
    return "\n".join(lines) + "\n"


def test_export_matches_per_vertex_writer(tmp_path, focused_teeth,
                                          monkeypatch):
    layout = emit_layout(focused_teeth, FOOTPRINT, STACK)
    # more rows than one block in each layer
    assert min(len(layout.upper), len(layout.lower)) > \
        designer._LAYOUT_BLOCK_ROWS
    path = tmp_path / "layout.txt"
    export_layout(layout, path)
    assert path.read_text(encoding="utf-8") == _per_vertex_table(layout)
    # a block that ends inside each layer, and an empty layer
    monkeypatch.setattr(designer, "_LAYOUT_BLOCK_ROWS", 7)
    one_layer = GratingLayout(upper=layout.upper[:30],
                              lower=np.empty((0, 4, 2)),
                              zone_period=layout.zone_period)
    for case in (layout, one_layer):
        export_layout(case, path)
        assert path.read_text(encoding="utf-8") == _per_vertex_table(case)


def test_export_empty_layout(tmp_path):
    empty = np.empty((0, 4, 2))
    layout = GratingLayout(upper=empty, lower=empty, zone_period=0.25e-6)
    path = tmp_path / "empty.txt"
    export_layout(layout, path)
    back = import_layout(path)
    assert back.upper.shape == back.lower.shape == (0, 4, 2)
