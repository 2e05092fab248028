"""Longitudinal grating design: from a target intensity profile to a layout.

The design chain: derive the scattering-strength profile kappa(x) whose
diffracted intensity replicates the target, discretize it tooth by tooth
against the unit-cell library, curve each tooth for transverse focusing by
the equal-optical-path rule, and emit/export the two-layer polygon layout
with phase-shift apodization zones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fdtd
from .constants import DESIGN_WAVELENGTH
from .geometry import (GratingFootprint, IonPose, LayerStack,
                       ray_vacuum_angle, wavelength_in_medium)
from .library import (MIN_FEATURE, ParamLibrary, UnitCellParams,
                      feature_check, interpolate, pitch_for_angle)


class LayoutError(Exception):
    """Raised for layouts violating feature or zone-period constraints."""


# ---------------------------------------------------------------------------
# Scattering strength and intensity bookkeeping

def cumulative_trapezoid(y, x):
    """Running trapezoid integral of ``y`` over ``x``, starting at 0:
    ``scipy.integrate.cumulative_trapezoid(y, x, initial=0)`` with the same
    arithmetic, without loading ``scipy.integrate``."""
    res = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return np.concatenate([np.zeros(1, res.dtype), res])


def _as_profile(f, x):
    """A scalar or sampled profile as an array over ``x``."""
    out = np.asarray(f, dtype=float)
    if out.ndim == 0:
        return np.full_like(np.asarray(x, dtype=float), float(out))
    return out


def diffracted_intensity(kappa, alpha, x):
    """Intensity leaving the grating per unit length.

    I = kappa(x) exp(-int_0^x [kappa+alpha] dx'), which conserves power
    exactly (1 - int I dx equals the residual guided power when
    alpha = 0).
    """
    x = np.asarray(x, dtype=float)
    k = _as_profile(kappa, x)
    a = _as_profile(alpha, x)
    if np.any(k < 0) or np.any(a < 0):
        raise ValueError("kappa and alpha must be nonnegative")
    return k * np.exp(-cumulative_trapezoid(k + a, x))


def residual_power(kappa, alpha, x) -> float:
    """Guided power remaining at the end of the sampled domain."""
    x = np.asarray(x, dtype=float)
    k = _as_profile(kappa, x)
    a = _as_profile(alpha, x)
    return float(np.exp(-np.trapezoid(k + a, x)))


def ideal_kappa(i_ion, x, alpha=0.0, kappa_cap: float = 1e8):
    """Pointwise-exact kappa(x) reproducing a normalized target intensity.

    Solves R' = -alpha R - I for the residual guided power R and returns
    kappa = I / R; where R approaches zero the result is capped.
    """
    x = np.asarray(x, dtype=float)
    i = _as_profile(i_ion, x)
    a = _as_profile(alpha, x)
    # integrating factor: R = e^{-G} (1 - int I e^{G}), G = int alpha
    g = cumulative_trapezoid(a, x)
    drained = cumulative_trapezoid(i * np.exp(g), x)
    r = np.exp(-g) * (1.0 - drained)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(r > i / kappa_cap, i / np.maximum(r, 1e-300), kappa_cap)
    return np.minimum(k, kappa_cap)


@dataclass
class FitReport:
    relative_l2: float       # ||I_fit - I_ion|| / ||I_ion||
    residual_power: float    # guided power left at the grating end
    infeasible: bool         # kappa_max too small to deplete the guide
    n_evaluations: int       # cost evaluations of the drain-target search
    drain_target: float      # s: kappa(x) is exact for the target s I_ion


def _golden_minimum(f, lo, hi, xatol):
    """The minimizer of a unimodal ``f`` on [lo, hi] to within ``xatol``:
    the better inner point of a golden-section bracket ``xatol`` wide."""
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xatol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return c if fc <= fd else d


def fit_kappa(i_ion, x, alpha=0.0, kappa_max: float = np.inf):
    """The scattering strength kappa(x) whose diffracted intensity follows
    a normalized target profile, sampled on ``x``, under kappa <= kappa_max.

    kappa is :func:`ideal_kappa` of the target scaled by a drain target s
    in (0, 1], capped at kappa_max: exact for s I_ion until it meets the
    cap, constant after.  A golden-section search picks s on the relative
    L2 mismatch of the diffracted intensity to I_ion, combined by hypot,
    when capped, with a penalty on guided power left beyond 5 % at the end.
    Uncapped, the cap is 50 / length, at which a uniform kappa would leave
    e^-50 of the light.

    Returns (kappa, FitReport), kappa as a callable interpolating the
    samples.
    """
    x = np.asarray(x, dtype=float)
    i_target = _as_profile(i_ion, x)
    capped = bool(np.isfinite(kappa_max))
    cap = kappa_max if capped else 50.0 / float(x[-1])
    i_norm = float(np.linalg.norm(i_target))
    evaluations = 0

    def profile(s):
        return ideal_kappa(s * i_target, x, alpha, kappa_cap=cap)

    def mismatch(k):
        i_fit = diffracted_intensity(k, alpha, x)
        return float(np.linalg.norm(i_fit - i_target) / i_norm)

    def cost(s):
        nonlocal evaluations
        evaluations += 1
        k = profile(s)
        if not capped:
            return mismatch(k)
        drain = 10.0 * max(residual_power(k, alpha, x) - 0.05, 0.0)
        return math.hypot(mismatch(k), drain)

    s = _golden_minimum(cost, 0.0, 1.0, xatol=1e-6)
    k = profile(s)
    res_power = residual_power(k, alpha, x)
    # the constraint is hopeless when even constant kappa_max leaves more
    # than 10% of the light in the guide
    infeasible = bool(capped and np.exp(-kappa_max * x[-1]) > 0.10
                      and res_power > 0.10)
    report = FitReport(relative_l2=mismatch(k), residual_power=res_power,
                       infeasible=infeasible, n_evaluations=evaluations,
                       drain_target=s)
    return functools.partial(np.interp, xp=x, fp=k), report


# ---------------------------------------------------------------------------
# Geometry: required diffraction angle along the grating

def diffraction_angle_at(x: float, pose: IonPose,
                         stack: LayerStack) -> float:
    """Cladding-frame polar angle of the ray from (x, grating plane) to the
    ion, refracted at the cladding/vacuum interface (Fermat path).

    Positive angles tilt toward +x.  The ion sits at pose.x_ion, a cladding
    thickness below vacuum, pose.height above the interface.
    """
    rho = pose.x_ion - x
    theta_v = ray_vacuum_angle(abs(rho), pose.height_above_surface,
                               pose.cladding_thickness, stack.cladding_index)
    theta_c = float(np.arcsin(np.sin(theta_v) / stack.cladding_index))
    return float(np.copysign(theta_c, rho))


# ---------------------------------------------------------------------------
# Discretization

@dataclass
class ToothSpec:
    x: float                 # leading-edge position, m
    params: UnitCellParams
    angle: float             # cladding-frame diffraction angle, rad
    kappa: float
    alpha: float
    clamped: bool = False
    truncated: bool = False
    curvature: list = field(default_factory=list)  # (y, x-offset) samples

    @property
    def pitch(self) -> float:
        return self.params.pitch


def discretize(kappa, library: ParamLibrary,
               footprint: GratingFootprint, pose: IonPose,
               stack: LayerStack,
               wavelength: float = DESIGN_WAVELENGTH) -> list:
    """March along the grating, assigning one library cell per tooth.

    At each position ``kappa(x)`` fixes the kappa target, met by choosing
    the phase shift, and the required diffraction angle fixes the pitch by
    the TE grating equation on the library's grid; x advances by it.
    """
    teeth = []
    x = 0.0
    cell = fdtd.default_cell_size(stack, wavelength, library.provenance["ppw"])
    # a library (a file's, say) may tighten the process minimum, not relax it
    min_feature = max(library.min_feature, MIN_FEATURE)
    guard = int(footprint.x_extent / (min_feature * 2)) + 10
    while x < footprint.x_extent and len(teeth) < guard:
        angle = diffraction_angle_at(x, pose, stack)
        res = interpolate(library, angle, float(kappa(np.array([x]))[0]))
        u = res.params
        pitch = pitch_for_angle(angle, u.dcu, u.dcl, stack, wavelength, "TE",
                                cell)
        params = UnitCellParams(pitch, u.dcu, u.dcl, u.dx * pitch,
                                u.delta * pitch)
        bad = feature_check(params, min_feature)
        if bad:
            raise LayoutError(f"tooth at x={x * 1e6:.3f} um violates "
                              f"feature constraints: {bad}")
        teeth.append(ToothSpec(x=x, params=params, angle=angle,
                               kappa=res.kappa, alpha=res.alpha,
                               clamped=res.clamped))
        x += pitch
    # non-overlap by construction: each tooth advances by its own pitch
    return teeth


def tooth_power_accounting(teeth):
    """Per-tooth drained power vs. the continuous-intensity integral.

    Returns (drained array, residual after last tooth).  Power removed by
    tooth i is kappa_i * pitch_i * residual power entering it.
    """
    residual = 1.0
    drained = []
    for t in teeth:
        frac = 1.0 - np.exp(-(t.kappa + t.alpha) * t.pitch)
        removed = residual * frac * (t.kappa / (t.kappa + t.alpha)
                                     if t.kappa + t.alpha > 0 else 0.0)
        drained.append(removed)
        residual *= 1.0 - frac
    return np.asarray(drained), residual


# ---------------------------------------------------------------------------
# Slab light and tooth curvature

def slab_index(tooth: ToothSpec, n_clad: float, wavelength: float) -> float:
    """Index of the slab light under a tooth, from its grating equation:
    n_clad sin(angle) + wavelength / pitch.

    The slab light is collimated along +x, so its phase at a tooth
    shifted by u along x advances by k0 * slab_index * u: the index of the
    polarization whose angle the tooth carries (:func:`emitting_teeth`).
    """
    return n_clad * np.sin(tooth.angle) + wavelength / tooth.pitch


def emitting_teeth(teeth, polarization: str, stack: LayerStack,
                   cell_size: float, wavelength: float) -> list:
    """The teeth that outcouple the ``polarization`` slab mode, each at its
    ``fdtd.grating_angle`` (TM's is shallower); ValueError if none does."""
    angles = [fdtd.grating_angle(stack, t.params, cell_size, wavelength,
                                 polarization) for t in teeth]
    out = [replace(t, angle=a) for t, a in zip(teeth, angles)
           if not np.isnan(a)]
    if not out:
        raise ValueError(f"no tooth outcouples the {polarization} mode")
    return out


# curve_tooth's Newton tolerance (m), step cap and sample spacing (m)
_CURVE_TOL = 1e-10
_CURVE_STEPS = 50
_CURVE_SAMPLE_SPACING = 0.5e-6


def curve_tooth(teeth, footprint: GratingFootprint, stack: LayerStack,
                pose: IonPose, wavelength: float = DESIGN_WAVELENGTH) -> None:
    """Curve every tooth in place so that slab light reaches the ion in
    phase, sampled every 0.5 um across the footprint's width.

    For a tooth at x and each y the offset u solves n u + exit(x + u, y) =
    exit(x, 0), with n the tooth's :func:`slab_index` and exit the
    refracted (Fermat) optical path up to the ion.  The left side has
    slope n - sin(theta_v) cos(phi) >= n - 1 > 0 and is convex in u, so
    Newton from u = 0 needs no bracket; all teeth and samples step
    together, one ray solve per step, until every step is below 1e-10 m.
    A sample still stepping, or not finite, at the step cap is dropped and
    its tooth flagged ``truncated``.
    """
    w = footprint.y_extent
    ys = np.linspace(-w / 2, w / 2, round(w / _CURVE_SAMPLE_SPACING) + 1)
    n_clad, t_c = stack.cladding_index, pose.cladding_thickness
    fx, fy, fz = pose.x_ion, pose.y_ion, pose.height_above_surface
    x = np.array([t.x for t in teeth])[:, None]
    n = np.array([slab_index(t, n_clad, wavelength) for t in teeth])[:, None]

    def exit_path(u, y):
        """The exit path from (x + u, y) and its slope in u."""
        dx = fx - (x + u)
        rho = np.hypot(dx, fy - y)
        theta_v = ray_vacuum_angle(rho, fz, t_c, n_clad)
        s = np.sin(theta_v) / n_clad
        path = n_clad * t_c / np.sqrt(1.0 - s * s) + fz / np.cos(theta_v)
        # d path / d rho is the ray invariant sin(theta_v)
        slope = -np.divide(np.sin(theta_v) * dx, rho,
                           out=np.zeros_like(rho), where=rho > 0)
        return path, slope

    ref = exit_path(0.0, 0.0)[0]
    u = np.zeros((len(teeth), len(ys)))
    for _ in range(_CURVE_STEPS):
        path, slope = exit_path(u, ys)
        step = (n * u + path - ref) / (n + slope)
        u = u - step
        done = np.abs(step) < _CURVE_TOL
        if done.all():
            break
    for tooth, row, ok in zip(teeth, u, done):
        tooth.curvature = [(float(y), float(v))
                           for y, v in zip(ys[ok], row[ok])]
        tooth.truncated = not ok.all()


# ---------------------------------------------------------------------------
# Layout assembly and export

@dataclass
class GratingLayout:
    """Two layers of rectangles plus the transverse zone period."""
    upper: np.ndarray        # (n, 4, 2): n rectangles of (x, y) vertices, m
    lower: np.ndarray
    zone_period: float       # Lambda_y


def default_zone_period(stack: LayerStack,
                        wavelength: float = DESIGN_WAVELENGTH) -> float:
    """Largest comfortable sub-wavelength A/B zone period.

    0.9x the wavelength in the cladding, raised so that each half-period
    zone clears the fabrication minimum; LayoutError if that is not
    sub-wavelength.
    """
    lam_m = wavelength_in_medium(wavelength, stack.cladding_index)
    period = max(0.9 * lam_m, 2 * MIN_FEATURE)
    if period >= lam_m:
        raise LayoutError("no zone period satisfies both the sub-wavelength "
                          "and minimum-feature constraints")
    return period


def _snap(v):
    """Round to integer nanometers (vectorized; -0.0 comes out as 0.0)."""
    return (np.rint(np.asarray(v) * 1e9) + 0.0) * 1e-9


def curvature_offsets(tooth: ToothSpec, y) -> np.ndarray:
    """Longitudinal offsets of a curved tooth at transverse positions y,
    linearly interpolated between its curvature samples (zero if it has
    none)."""
    y = np.asarray(y, dtype=float)
    if not tooth.curvature:
        return np.zeros_like(y)
    ys, us = np.array(tooth.curvature).T
    return np.interp(y, ys, us)


def emit_layout(teeth, footprint: GratingFootprint, stack: LayerStack,
                wavelength: float = DESIGN_WAVELENGTH) -> GratingLayout:
    """Stripe the footprint into A/B zones of :func:`default_zone_period`
    and emit per-layer polygons.

    Zone A carries each tooth as designed; zone B repeats it shifted
    longitudinally by the tooth's phase shift delta.  Vertices snap to
    integer nanometers so exports round-trip exactly.  Each layer is one
    (n, 4, 2) array of rectangles, listed stripe by stripe, tooth by tooth
    within a stripe.
    """
    zone_period = default_zone_period(stack, wavelength)
    half_w = footprint.y_extent / 2
    n_stripes = int(np.ceil(footprint.y_extent / (zone_period / 2)))
    stripe = np.arange(n_stripes)
    y0 = -half_w + stripe * zone_period / 2
    y1 = np.minimum(y0 + zone_period / 2, half_w)
    stripe, y0, y1 = stripe[y1 > y0], y0[y1 > y0], y1[y1 > y0]
    upper = lower = np.empty((0, 4, 2))
    if teeth and len(stripe):
        x_lead, pitch, dcu, dcl, dx, delta = np.array(
            [(t.x, t.pitch, t.params.dcu, t.params.dcl, t.params.dx,
              t.params.delta) for t in teeth]).T
        # (stripe, tooth) leading edges: curvature offset at the stripe
        # centre, plus the phase shift in zone-B stripes
        offsets = np.column_stack([curvature_offsets(t, 0.5 * (y0 + y1))
                                   for t in teeth])
        base = (x_lead + offsets) + np.where(stripe[:, None] % 2 == 1,
                                             delta, 0.0)
        ya, yb = _snap(y0)[:, None], _snap(y1)[:, None]

        def rectangles(width, shift):
            cols = width > 0.0
            xa = _snap(base[:, cols] + shift[cols])
            xb = _snap(base[:, cols] + shift[cols] + width[cols])
            xa, xb, y_lo, y_hi = np.broadcast_arrays(xa, xb, ya, yb)
            return np.stack([xa, y_lo, xb, y_lo, xb, y_hi, xa, y_hi],
                            axis=-1).reshape(-1, 4, 2)

        upper = rectangles(dcu * pitch, np.zeros_like(dx))
        lower = rectangles(dcl * pitch, dx)
    return GratingLayout(upper=upper, lower=lower, zone_period=zone_period)


# polygons that export_layout rounds and formats in one call: their
# vertices are integer arrays and Python ints only a block at a time
_LAYOUT_BLOCK_ROWS = 4096


def export_layout(layout: GratingLayout, path) -> None:
    """Write the layout as a lossless polygon table.

    Schema: one line per polygon, ``layer index x0 y0 x1 y1 ...`` with
    vertices in integer nanometers.  Each layer is rounded, formatted and
    written a block of polygons at a time.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# grating layout, zone_period_nm="
                f"{round(layout.zone_period * 1e9)}\n")
        for layer_id, polys in (("upper", layout.upper),
                                ("lower", layout.lower)):
            for start in range(0, len(polys), _LAYOUT_BLOCK_ROWS):
                nm = np.rint(polys[start:start + _LAYOUT_BLOCK_ROWS] * 1e9)
                block = np.column_stack([
                    np.arange(start, start + len(nm)),
                    nm.astype(np.int64).reshape(len(nm), -1)])
                row = layer_id + " %d" * block.shape[1] + "\n"
                f.write(row * len(block) % tuple(block.ravel().tolist()))
