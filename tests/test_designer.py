"""Tests for the longitudinal design chain: fit, discretize, curve, export."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from iongrating import designer, dipole
from iongrating.designer import (
    GratingLayout, KappaAnsatz, LayoutError, ToothSpec, curve_tooth,
    default_zone_period, diffracted_intensity, diffraction_angle_at,
    discretize, emit_layout, export_layout, fit_kappa, ideal_kappa,
    import_layout, polygon_is_simple, residual_power, slab_phase_map,
    tooth_power_accounting,
)
from iongrating.geometry import (GratingFootprint, IonPose, default_stack,
                                 wavelength_in_medium)
from iongrating.library import (LibraryEntry, ParamLibrary, UnitCellParams,
                                feature_check, figure_of_merit)

STACK = default_stack()
POSE = IonPose()
FOOTPRINT = GratingFootprint()


@pytest.fixture(scope="module")
def ion_profile():
    x, prof = dipole.ion_intensity_profile(dipole.QuantizationAxis.z(),
                                           FOOTPRINT, POSE, 512)
    return x, prof


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
    for form in ("integral", "literal"):
        i = diffracted_intensity(k, 0.0, x, form=form)
        assert np.allclose(i, k * np.exp(-k * x), rtol=1e-10)


def test_zero_kappa_zero_intensity():
    x = np.linspace(0.0, 30e-6, 50)
    assert np.all(diffracted_intensity(0.0, 0.05e6, x) == 0.0)


def test_negative_kappa_rejected():
    x = np.linspace(0.0, 1e-6, 10)
    with pytest.raises(ValueError):
        diffracted_intensity(lambda s: -np.ones_like(s), 0.0, x)


def test_integral_form_power_balance(ion_profile):
    # drained + residual = 1 exactly for the integral form of Eq. style
    x, prof = ion_profile
    ansatz, _ = fit_kappa(prof, x, alpha=0.0)
    k = np.clip(ansatz(x), 0.0, None)
    i = diffracted_intensity(k, 0.0, x)
    drained = np.trapezoid(i, x)
    assert drained + residual_power(k, 0.0, x) == pytest.approx(1.0,
                                                                abs=1e-3)
    assert drained <= 1.0 + 1e-12


def test_ideal_kappa_reconstruction():
    # push a known kappa through the forward model, invert, compare
    x = np.linspace(0.0, 30e-6, 2000)
    k_true = 0.05e6 + 0.2e6 * (x / x[-1]) ** 2
    i = diffracted_intensity(k_true, 0.0, x)
    k_back = ideal_kappa(i, x, 0.0)
    assert np.allclose(k_back, k_true, rtol=1e-3)


# ---------------------------------------------------------------------------
# Ansatz fitting

def test_fit_recovers_constant_kappa():
    x = np.linspace(0.0, 30e-6, 512)
    k = 0.1e6
    target = k * np.exp(-k * x)
    ansatz, report = fit_kappa(target, x, alpha=0.0)
    assert report.relative_l2 < 1e-6
    assert ansatz.d == pytest.approx(k, rel=1e-3)
    # remaining coefficients contribute negligibly across the domain
    spurious = ansatz(x) - ansatz.d
    assert np.max(np.abs(spurious)) < 1e-3 * k


def test_fit_matches_default_profile(ion_profile):
    x, prof = ion_profile
    ansatz, report = fit_kappa(prof, x, alpha=0.0)
    assert report.relative_l2 < 0.05
    assert ansatz.is_nonnegative()
    # small at the leading edge, largest at the grating end
    k = ansatz(x)
    assert k[0] < 0.2 * k[-1]
    assert np.argmax(k) == len(x) - 1


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


def test_fit_reports_every_start(ion_profile):
    # the pipeline's default cap: both starts converge, and the fit stays
    # within 1e-3 of the five-start finite-difference fit (0.05405)
    x, prof = ion_profile
    _, report = fit_kappa(prof, x, alpha=0.0, kappa_max=0.6e6)
    assert len(report.starts) == 2
    assert all(s.status > 0 for s in report.starts)
    assert report.relative_l2 <= 0.05505
    assert report.relative_l2 == pytest.approx(
        min(s.relative_l2 for s in report.starts), rel=1e-12)
    # residual and Jacobian calls both count
    assert report.n_evaluations > sum(s.nfev for s in report.starts)
    assert report.n_evaluations < 2000


@pytest.mark.parametrize("form", ["integral", "literal"])
def test_fit_jacobian_matches_central_differences(monkeypatch, ion_profile,
                                                  form):
    x, prof = ion_profile
    kappa_max = 0.1e6
    # a start that dips below zero near x = 0, exceeds the cap past
    # x ~ 21 um, and leaves enough light in the guide that the
    # residual-power penalty is active
    init = KappaAnsatz(0.0, 0.0, 0.17e6 / 30e-6, -0.03e6, 0.01e6,
                       2.0 / 30e-6, 30e-6)
    calls = []
    real = designer.least_squares

    def spy(fun, x0, jac, **kwargs):
        calls.append((fun, np.array(x0), jac))
        return real(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(designer, "least_squares", spy)
    fit_kappa(prof, x, alpha=0.0, kappa_max=kappa_max, init=init, form=form)
    fun, z0, jac = calls[0]
    analytic = jac(z0)
    numeric = np.empty_like(analytic)
    pattern = fun(z0) != 0.0
    for j in range(len(z0)):
        h = 1e-6 * max(abs(z0[j]), 1.0)
        up, down = z0.copy(), z0.copy()
        up[j] += h
        down[j] -= h
        f_up, f_down = fun(up), fun(down)
        # no sample crosses a clip boundary within the step: the active
        # penalty rows (kappa < 0, kappa > cap, residual power) stay put
        assert np.array_equal(f_up != 0.0, pattern)
        assert np.array_equal(f_down != 0.0, pattern)
        numeric[:, j] = (f_up - f_down) / (2 * h)
    n = len(x)
    assert pattern[n:2 * n].any() and pattern[2 * n:3 * n].any()
    assert pattern[-1]
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6,
                               atol=1e-6 * np.abs(analytic).max())


# ---------------------------------------------------------------------------
# Discretization against a synthetic library

def _linear_library(pitch0=0.36e-6, slope=-4e-6):
    """kappa_max generous; pitch varies linearly with angle."""
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
    return ParamLibrary(angles=angles, delta_fracs=fracs, entries=entries)


@pytest.fixture(scope="module")
def design(ion_profile):
    x, prof = ion_profile
    lib = _linear_library()
    ansatz, _ = fit_kappa(prof, x, alpha=0.0, kappa_max=1.0e6)
    teeth = discretize(ansatz, lib, FOOTPRINT, POSE, STACK)
    return lib, ansatz, teeth


def test_discretize_constant_angle_uniform_pitch():
    # an effectively infinitely distant emitter sees one angle everywhere
    far_pose = IonPose(x_ion=15e-6, height_above_surface=1.0,
                       cladding_thickness=0.0)
    lib = _linear_library()
    ansatz = KappaAnsatz(0, 0, 0, 0.1e6, 0, 1.0, FOOTPRINT.x_extent)
    teeth = discretize(ansatz, lib, FOOTPRINT, far_pose, STACK)
    pitches = np.array([t.pitch for t in teeth])
    assert np.ptp(pitches) < 1e-4 * pitches[0]


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


def test_power_accounting_matches_continuous(design):
    _, ansatz, teeth = design
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
# Phase maps and tooth curvature

def test_collimated_phase_y_invariant():
    phi = slab_phase_map(0.0, 1.8, mode="collimated")
    ys = np.linspace(-10e-6, 10e-6, 7)
    vals = phi(np.full_like(ys, 5e-6), ys)
    assert np.ptp(vals) == 0.0


def test_cylindrical_equals_collimated_on_axis():
    cyl = slab_phase_map(-3e-6, 1.8, mode="cylindrical")
    col = slab_phase_map(-3e-6, 1.8, mode="collimated")
    x = np.linspace(0.0, 20e-6, 11)
    assert np.allclose(cyl(x, np.zeros_like(x)), col(x, np.zeros_like(x)))


def test_phase_map_unwrapped_continuity():
    phi = slab_phase_map(0.0, 1.8, mode="cylindrical")
    x = np.arange(0.0, 30e-6, 0.05e-6)
    vals = phi(x, np.full_like(x, 4e-6))
    assert np.max(np.abs(np.diff(vals))) < np.pi


def _plain_tooth(x=10e-6):
    return ToothSpec(x=x, pitch=0.3e-6,
                     params=UnitCellParams(0.3e-6, 0.5, 0.5, 0.0, 0.0),
                     angle=0.1, kappa=1e5, alpha=1e4)


def test_curve_tooth_zero_offset_on_axis():
    pose = IonPose()
    phi = slab_phase_map(0.0, 1.8, mode="collimated")
    focus = (POSE.x_ion, 0.0, POSE.height_above_surface)
    tooth = _plain_tooth()
    samples = curve_tooth(tooth, focus, phi, STACK, pose,
                          y_samples=np.array([0.0]))
    assert samples[0] == (0.0, pytest.approx(0.0, abs=1e-9))


def test_curve_tooth_even_in_y():
    phi = slab_phase_map(0.0, 1.8, mode="collimated")
    focus = (POSE.x_ion, 0.0, POSE.height_above_surface)
    ys = np.array([-8e-6, -3e-6, 3e-6, 8e-6])
    samples = curve_tooth(_plain_tooth(), focus, phi, STACK, POSE,
                          y_samples=ys)
    d = dict(samples)
    assert d[-8e-6] == pytest.approx(d[8e-6], abs=1e-12)
    assert d[-3e-6] == pytest.approx(d[3e-6], abs=1e-12)


def test_curve_tooth_analytic_oracle():
    # zero cladding, collimated slab light, focus right above the tooth:
    # n u + sqrt(u^2 + y^2 + zf^2) = zf has the closed-form negative root
    n_slab = 1.8
    zf = 50e-6
    pose = IonPose(cladding_thickness=0.0)
    tooth = _plain_tooth(x=12e-6)
    phi = slab_phase_map(0.0, n_slab, mode="collimated")
    focus = (tooth.x, 0.0, zf)
    ys = np.linspace(-10e-6, 10e-6, 9)
    samples = curve_tooth(tooth, focus, phi, STACK, pose, y_samples=ys)
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
    assert period < lam_m
    assert period / 2 >= 0.12e-6


def _tiny_teeth(delta=0.0):
    teeth = []
    for i in range(3):
        pitch = 0.3e-6
        teeth.append(ToothSpec(
            x=i * pitch, pitch=pitch,
            params=UnitCellParams(pitch, 0.5, 0.5, 0.07e-6, delta),
            angle=0.1, kappa=1e5, alpha=1e4))
    return teeth


def test_emit_layout_zone_b_shift():
    period = default_zone_period(STACK)
    fp = GratingFootprint(x_extent=1e-6, y_extent=4 * period)
    plain = emit_layout(_tiny_teeth(0.0), period, fp, STACK)
    shifted = emit_layout(_tiny_teeth(0.15e-6), period, fp, STACK)
    # with delta = 0, A and B stripes carry identical x spans
    xs = sorted({p[0][0] for p in plain.upper})
    assert len(xs) == 3
    # with delta = pitch/2, B stripes are offset by half the pitch
    xs_b = sorted({p[0][0] for p in shifted.upper})
    assert len(xs_b) == 6
    offsets = np.diff(xs_b)[::2]
    assert np.allclose(offsets, 0.15e-6, atol=1e-9)


def test_emit_layout_polygons_pass_audits():
    period = default_zone_period(STACK)
    fp = GratingFootprint(x_extent=1e-6, y_extent=3e-6)
    layout = emit_layout(_tiny_teeth(0.1e-6), period, fp, STACK)
    assert layout.upper and layout.lower
    for poly in layout.upper + layout.lower:
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
    teeth = [ToothSpec(x=t.x, pitch=t.pitch, angle=t.angle, kappa=t.kappa,
                       alpha=t.alpha, curvature=t.curvature,
                       params=UnitCellParams(t.pitch, 0.5, 0.6, t.params.dx,
                                             0.3 * t.pitch))
             for t in focused_teeth]
    teeth[3].curvature = []          # an uncurved tooth among curved ones
    layout = emit_layout(teeth, period, FOOTPRINT, STACK)
    upper, lower = _per_stripe_layout(teeth, period, FOOTPRINT)
    assert layout.upper == upper and layout.lower == lower
    # identical floats, not merely equal ones (no negative zeros)
    flat = lambda polys: [v for p in polys for xy in p for v in xy]
    assert ([repr(v) for v in flat(layout.upper + layout.lower)]
            == [repr(v) for v in flat(upper + lower)])


def test_emit_layout_rejects_bad_zone_period():
    fp = GratingFootprint(x_extent=1e-6, y_extent=2e-6)
    lam_m = wavelength_in_medium(422e-9, STACK.cladding_index)
    with pytest.raises(LayoutError):
        emit_layout(_tiny_teeth(), 1.1 * lam_m, fp, STACK)
    with pytest.raises(LayoutError):
        emit_layout(_tiny_teeth(), 0.2e-6, fp, STACK)


def test_export_import_round_trip(tmp_path):
    period = default_zone_period(STACK)
    fp = GratingFootprint(x_extent=1e-6, y_extent=2e-6)
    layout = emit_layout(_tiny_teeth(0.1e-6), period, fp, STACK)
    path = tmp_path / "layout.txt"
    export_layout(layout, path)
    back = import_layout(path)
    assert back.upper == layout.upper
    assert back.lower == layout.lower
    # and the re-export is byte-identical
    path2 = tmp_path / "layout2.txt"
    export_layout(back, path2)
    assert path.read_text() == path2.read_text()


def test_export_empty_layout(tmp_path):
    layout = GratingLayout(upper=[], lower=[], zone_period=0.25e-6)
    path = tmp_path / "empty.txt"
    export_layout(layout, path)
    assert import_layout(path).upper == []
