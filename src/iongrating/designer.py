"""Longitudinal grating design: from a target intensity profile to a layout.

The design chain: fit a smooth scattering-strength profile kappa(x) whose
diffracted intensity replicates the target, discretize it tooth by tooth
against the unit-cell library, curve each tooth for transverse focusing by
the equal-optical-path rule, and emit/export the two-layer polygon layout
with phase-shift apodization zones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import least_squares, minimize_scalar

from .constants import DESIGN_WAVELENGTH
from .geometry import (GratingFootprint, IonPose, LayerStack,
                       ray_vacuum_angle, wavelength_in_medium)
from .library import (ExtrapolationError, ParamLibrary, UnitCellParams,
                      feature_check, interpolate)


class FitDivergenceError(Exception):
    """Raised when the coefficient search fails to produce a usable fit."""


class LayoutError(Exception):
    """Raised for layouts violating feature or zone-period constraints."""


# ---------------------------------------------------------------------------
# Scattering-strength ansatz and intensity bookkeeping

@dataclass
class KappaAnsatz:
    """kappa(x) = a x^3 + b x^2 + c x + d + A exp(B x), valid on [0, length].

    Coefficients carry the units that make kappa come out in 1/m with x in
    meters.
    """
    a: float
    b: float
    c: float
    d: float
    A: float
    B: float
    length: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (self.a * x**3 + self.b * x**2 + self.c * x + self.d
                + self.A * np.exp(self.B * x))

    def coefficients(self):
        return np.array([self.a, self.b, self.c, self.d, self.A, self.B])

    def is_nonnegative(self, n_check: int = 1024) -> bool:
        x = np.linspace(0.0, self.length, n_check)
        return bool(np.all(self(x) >= -1e-9 * max(1.0, np.max(np.abs(self(x))))))


def _as_profile(f, x):
    if callable(f):
        return np.asarray(f(x), dtype=float)
    out = np.asarray(f, dtype=float)
    if out.ndim == 0:
        return np.full_like(np.asarray(x, dtype=float), float(out))
    return out


def diffracted_intensity(kappa, alpha, x, form: str = "integral"):
    """Intensity leaving the grating per unit length.

    form="integral": I = kappa(x) exp(-int_0^x [kappa+alpha] dx'), which
    conserves power exactly (1 - int I dx equals the residual guided power
    when alpha = 0).  form="literal": I = kappa(x) exp(-[kappa(x)+alpha(x)] x),
    the small-variation approximation of the same expression.
    """
    x = np.asarray(x, dtype=float)
    k = _as_profile(kappa, x)
    a = _as_profile(alpha, x)
    if np.any(k < 0) or np.any(a < 0):
        raise ValueError("kappa and alpha must be nonnegative")
    return k * _guided_fraction(k, a, x, form)


def _guided_fraction(k, a, x, form: str):
    """Guided power left at each x: exp(-int_0^x [k+a] dx') for the
    integral form, exp(-[k(x)+a(x)] x) for the literal one."""
    if form == "literal":
        return np.exp(-(k + a) * x)
    if form != "integral":
        raise ValueError(f"unknown form {form!r}")
    return np.exp(-cumulative_trapezoid(k + a, x, initial=0.0))


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
    g = cumulative_trapezoid(a, x, initial=0.0)
    drained = cumulative_trapezoid(i * np.exp(g), x, initial=0.0)
    r = np.exp(-g) * (1.0 - drained)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(r > i / kappa_cap, i / np.maximum(r, 1e-300), kappa_cap)
    return np.minimum(k, kappa_cap)


@dataclass
class FitStart:
    """Outcome of one least-squares start of :func:`fit_kappa`."""
    status: int              # least_squares status: 0 = max_nfev hit,
                             # -1 = start raised (no usable residual)
    nfev: int                # residual evaluations of this start
    relative_l2: float       # ||I_fit - I_ion|| / ||I_ion|| at its optimum


@dataclass
class FitReport:
    residual: float          # sum of squared intensity mismatch
    relative_l2: float       # ||I_fit - I_ion|| / ||I_ion||
    residual_power: float    # guided power left at the grating end
    infeasible: bool         # kappa_max too small to deplete the guide
    n_evaluations: int       # residual plus Jacobian evaluations
    starts: list = field(default_factory=list)  # FitStart per start


def _fit_ansatz_to_curve(x, target, length):
    """Least-squares ansatz coefficients for a sampled kappa curve.

    Linear in (a, b, c, d, A) for fixed exponential rate B; the rate is
    found by a bounded scalar search.
    """
    basis = np.column_stack([x**3, x**2, x, np.ones_like(x)])

    def solve(bexp):
        m = np.column_stack([basis, np.exp(bexp * x)])
        coef, *_ = np.linalg.lstsq(m, target, rcond=None)
        resid = float(np.sum((m @ coef - target) ** 2))
        return coef, resid

    def cost(bexp):
        return solve(bexp)[1]

    res = minimize_scalar(cost, bounds=(0.0, 30.0 / length),
                          method="bounded",
                          options={"xatol": 1e-4 / length})
    coef, _ = solve(res.x)
    return KappaAnsatz(*coef, B=float(res.x), length=float(length))


def fit_kappa(i_ion, x, alpha=0.0, kappa_max: float = np.inf,
              init: KappaAnsatz | None = None, form: str = "integral"):
    """Fit the smooth kappa(x) ansatz so its diffracted intensity matches
    a normalized target profile.

    The pointwise-ideal kappa is computed and the ansatz fit to that curve
    directly; from there, and from a slow-exponential start, the
    coefficients are refined by least squares on the intensity mismatch
    with penalties enforcing 0 <= kappa <= kappa_max.  The residual is
    closed-form in kappa exp(-int kappa), so its Jacobian is analytic.

    Returns (KappaAnsatz, FitReport).
    """
    x = np.asarray(x, dtype=float)
    i_target = _as_profile(i_ion, x)
    a_prof = _as_profile(alpha, x)
    length = float(x[-1])
    capped = bool(np.isfinite(kappa_max))
    cap = kappa_max if capped else 50.0 / length
    k_ideal = ideal_kappa(i_target, x, alpha, kappa_cap=cap)
    start = init or _fit_ansatz_to_curve(x, k_ideal, length)

    k_scale = max(float(np.median(k_ideal)), 1.0)
    scale = np.array([length**-3, length**-2, length**-1, 1.0,
                      1.0, np.nan]) * k_scale
    scale[5] = 1.0 / length
    i_norm = float(np.linalg.norm(i_target))
    evaluations = 0

    def unpack(z):
        return KappaAnsatz(*(z * scale)[:5], B=float(z[5] * scale[5]),
                           length=length)

    def forward(z):
        """Raw and clipped kappa, and the diffracted intensity with the
        attenuation factor it carries."""
        k_raw = unpack(z)(x)
        k = np.clip(k_raw, 0.0, kappa_max if capped else None)
        atten = _guided_fraction(k, a_prof, x, form)
        return k_raw, k, k * atten, atten

    def residuals(z):
        nonlocal evaluations
        evaluations += 1
        k_raw, k, i_fit, _ = forward(z)
        # soft walls keep kappa inside [0, kappa_max]
        rows = [(i_fit - i_target) / i_norm,
                100.0 * np.minimum(k_raw / k_scale, 0.0)]
        if capped:
            rows.append(100.0 * np.maximum((k_raw - kappa_max) / kappa_max,
                                           0.0))
            # when the profile match is capped, still drain the guide:
            # penalize residual power beyond a few percent at the end
            r_end = residual_power(k, alpha, x)
            rows.append(np.array([10.0 * max(r_end - 0.05, 0.0)]))
        return np.concatenate(rows)

    def jacobian(z):
        nonlocal evaluations
        evaluations += 1
        k_raw, k, _, atten = forward(z)
        c = z * scale
        grow = np.exp(c[5] * x)
        # d kappa_raw / d z_j for the six scaled coefficients
        dk_raw = np.column_stack([x**3, x**2, x, np.ones_like(x), grow,
                                  c[4] * x * grow]) * scale
        inside = (k_raw > 0.0) & (k_raw < kappa_max)
        dk = dk_raw * inside[:, None]
        if form == "literal":
            d_atten = x[:, None] * dk
        else:
            d_atten = cumulative_trapezoid(dk, x, axis=0, initial=0.0)
        d_i = (dk - k[:, None] * d_atten) * atten[:, None]
        rows = [d_i / i_norm,
                (100.0 / k_scale) * dk_raw * (k_raw < 0.0)[:, None]]
        if capped:
            rows.append((100.0 / kappa_max) * dk_raw
                        * (k_raw > kappa_max)[:, None])
            r_end = residual_power(k, alpha, x)
            d_end = -10.0 * r_end * np.trapezoid(dk, x, axis=0)
            rows.append(d_end[None, :] * (r_end > 0.05))
        return np.concatenate(rows)

    n_match = len(x)
    starts = [start.coefficients() / scale,
              np.array([0.0, 0.0, 0.0, 0.5, 1e-3, 3.0])]
    best_z, best_val = None, np.inf
    outcomes = []
    for z_init in starts:
        try:
            # converging starts need well under 200 evaluations; the cap
            # bounds the cost of a stuck one, which reports status 0
            res = least_squares(residuals, z_init, jac=jacobian,
                                max_nfev=1000)
        except (ValueError, FloatingPointError):
            outcomes.append(FitStart(status=-1, nfev=0, relative_l2=np.nan))
            continue
        val = float(np.linalg.norm(res.fun[:n_match]))
        outcomes.append(FitStart(status=int(res.status), nfev=int(res.nfev),
                                 relative_l2=val))
        if np.isfinite(val) and val < best_val:
            best_val, best_z = val, res.x
    if best_z is None:
        raise FitDivergenceError("no coefficient start converged")

    ansatz = unpack(best_z)
    k_fit = np.clip(ansatz(x), 0.0, kappa_max if capped else None)
    i_fit = diffracted_intensity(k_fit, alpha, x, form=form)
    rel_l2 = float(np.linalg.norm(i_fit - i_target) / i_norm)
    res_power = residual_power(k_fit, alpha, x)
    # the constraint is hopeless when even constant kappa_max leaves more
    # than 10% of the light in the guide
    infeasible = (capped and np.exp(-kappa_max * length) > 0.10
                  and res_power > 0.10)
    report = FitReport(residual=best_val, relative_l2=rel_l2,
                       residual_power=res_power, infeasible=infeasible,
                       n_evaluations=evaluations, starts=outcomes)
    return ansatz, report


# ---------------------------------------------------------------------------
# Geometry: required diffraction angle along the grating

def diffraction_angle_at(x: float, pose: IonPose, stack: LayerStack,
                         signed: bool = True) -> float:
    """Cladding-frame polar angle of the ray from (x, grating plane) to the
    ion, refracted at the cladding/vacuum interface (Fermat path).

    Positive angles tilt toward +x.  The ion sits at pose.x_ion, a cladding
    thickness below vacuum, pose.height above the interface.
    """
    rho = pose.x_ion - x
    theta_v = ray_vacuum_angle(abs(rho), pose.height_above_surface,
                               pose.cladding_thickness, stack.cladding_index)
    theta_c = float(np.arcsin(np.sin(theta_v) / stack.cladding_index))
    return float(np.copysign(theta_c, rho)) if signed else theta_c


# ---------------------------------------------------------------------------
# Discretization

@dataclass
class ToothSpec:
    x: float                 # leading-edge position, m
    pitch: float
    params: UnitCellParams
    angle: float             # cladding-frame diffraction angle, rad
    kappa: float
    alpha: float
    clamped: bool = False
    truncated: bool = False
    curvature: list = field(default_factory=list)  # (y, x-offset) samples


def discretize(ansatz: KappaAnsatz, library: ParamLibrary,
               footprint: GratingFootprint, pose: IonPose,
               stack: LayerStack) -> list:
    """March along the grating, assigning one library cell per tooth.

    At each position the required diffraction angle fixes the pitch (via
    the library's grating-equation cells) and the ansatz fixes the kappa
    target, met by choosing the phase shift; x advances by the local pitch.
    """
    teeth = []
    x = 0.0
    guard = int(footprint.x_extent / (library.min_feature * 2)) + 10
    while x < footprint.x_extent and len(teeth) < guard:
        angle = diffraction_angle_at(x, pose, stack)
        res = interpolate(library, angle, float(ansatz(np.array([x]))[0]))
        bad = feature_check(res.params, library.min_feature)
        if bad:
            raise LayoutError(f"tooth at x={x * 1e6:.3f} um violates "
                              f"feature constraints: {bad}")
        pitch = res.params.pitch
        teeth.append(ToothSpec(x=x, pitch=pitch, params=res.params,
                               angle=angle, kappa=res.kappa,
                               alpha=res.alpha, clamped=res.clamped))
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
# In-plane phase and tooth curvature

def slab_phase_map(x_source: float, n_slab: float,
                   wavelength: float = DESIGN_WAVELENGTH,
                   mode: str = "cylindrical"):
    """Unwrapped in-plane phase of slab light launched at (x_source, 0).

    "cylindrical": a narrow aperture radiating a cylindrical wave,
    phi = k0 n_slab r.  "collimated": y-invariant plane wave,
    phi = k0 n_slab (x - x_source).  Returns phi(x, y) as a callable; both
    models are analytic and hence continuous (already unwrapped).
    """
    k = 2 * np.pi / wavelength * n_slab
    if mode == "cylindrical":
        return lambda x, y: k * np.hypot(np.asarray(x) - x_source,
                                         np.asarray(y))
    if mode == "collimated":
        return lambda x, y: k * (np.asarray(x) - x_source) * np.ones_like(
            np.asarray(y, dtype=float))
    raise ValueError(f"unknown phase-map mode {mode!r}")


def _exit_path_length(x, y, focus, cladding_thickness: float,
                      n_clad: float):
    """Optical path from grating-plane points up to the focal point, with
    one refraction at the cladding/vacuum interface (Fermat).  Vectorized
    over ``x`` and ``y``."""
    fx, fy, fz = focus  # fz measured above the cladding/vacuum interface
    rho = np.hypot(fx - x, fy - y)
    theta_v = ray_vacuum_angle(rho, fz, cladding_thickness, n_clad)
    s = np.sin(theta_v) / n_clad
    return n_clad * cladding_thickness / np.sqrt(1.0 - s * s) \
        + fz / np.cos(theta_v)


def curve_tooth(tooth: ToothSpec, focus, phase_map, stack: LayerStack,
                pose: IonPose, wavelength: float = DESIGN_WAVELENGTH,
                y_samples=None, tol: float = 1e-10,
                max_offset: float = 5e-6) -> list:
    """Per-y longitudinal offsets making the total optical path constant.

    For each y the offset u solves phase(x+u, y)/k0 + exit path(x+u, y) =
    (value at y=0, u=0), for all y at once, by bracketed false position
    (Illinois variant) to ``tol`` meters.  Samples that fail to bracket a
    root within ``max_offset`` truncate the tooth (flag set).
    """
    if y_samples is None:
        y_samples = np.linspace(-15e-6, 15e-6, 61)
    k0 = 2 * np.pi / wavelength
    n_clad = stack.cladding_index
    t_c = pose.cladding_thickness
    ys = np.atleast_1d(np.asarray(y_samples, dtype=float))

    def total(u, y):
        x = tooth.x + u
        return (phase_map(x, y) / k0
                + _exit_path_length(x, y, focus, t_c, n_clad))

    # the y = 0 reference and both bracket ends in one evaluation
    n = len(ys)
    ends = total(np.concatenate([[0.0], np.full(n, -max_offset),
                                 np.full(n, max_offset)]),
                 np.concatenate([[0.0], ys, ys]))
    f_lo, f_hi = ends[1:n + 1] - ends[0], ends[n + 1:] - ends[0]
    bracketed = f_lo * f_hi <= 0
    if not np.all(bracketed):
        tooth.truncated = True
    ys, f_lo, f_hi = ys[bracketed], f_lo[bracketed], f_hi[bracketed]
    lo = np.full_like(ys, -max_offset)
    hi = np.full_like(ys, max_offset)
    u = np.where(f_lo == 0.0, lo, hi)
    side = np.zeros(ys.shape, dtype=int)   # endpoint kept last step
    for _ in range(200):
        denom = np.where(f_hi != f_lo, f_hi - f_lo, 1.0)
        nxt = np.clip(hi - f_hi * (hi - lo) / denom, lo, hi)
        if np.all(np.abs(nxt - u) < tol):
            u = nxt
            break
        u = nxt
        f_u = total(u, ys) - ends[0]
        left = f_u * f_lo > 0      # root lies in [u, hi]
        # Illinois: halve the function value at an endpoint kept twice
        f_hi = np.where(left & (side == 1), 0.5 * f_hi, f_hi)
        f_lo = np.where(~left & (side == -1), 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(left, u, lo), np.where(left, f_u, f_lo)
        hi, f_hi = np.where(left, hi, u), np.where(left, f_hi, f_u)
        side = np.where(left, 1, -1)
    samples = [(float(y), float(v)) for y, v in zip(ys, u)]
    tooth.curvature = samples
    return samples


# ---------------------------------------------------------------------------
# Layout assembly and export

@dataclass
class GratingLayout:
    """Two layers of closed polygons plus the transverse zone period."""
    upper: list              # list of polygons; polygon = [(x, y), ...] in m
    lower: list
    zone_period: float       # Lambda_y
    metadata: dict = field(default_factory=dict)


def default_zone_period(stack: LayerStack,
                        wavelength: float = DESIGN_WAVELENGTH,
                        min_feature: float = 0.12e-6) -> float:
    """Largest comfortable sub-wavelength A/B zone period.

    0.9x the wavelength in the cladding, provided each half-period zone
    still clears the fabrication minimum.
    """
    lam_m = wavelength_in_medium(wavelength, stack.cladding_index)
    period = 0.9 * lam_m
    if period / 2 < min_feature:
        period = 2 * min_feature
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


def emit_layout(teeth, zone_period: float, footprint: GratingFootprint,
                stack: LayerStack, wavelength: float = DESIGN_WAVELENGTH,
                min_feature: float = 0.12e-6,
                metadata: dict | None = None) -> GratingLayout:
    """Stripe the footprint into A/B zones and emit per-layer polygons.

    Zone A carries each tooth as designed; zone B repeats it shifted
    longitudinally by the tooth's phase shift delta.  Vertices snap to
    integer nanometers so exports round-trip exactly.  Polygons are listed
    stripe by stripe, tooth by tooth within a stripe.
    """
    lam_m = wavelength_in_medium(wavelength, stack.cladding_index)
    if not zone_period < lam_m:
        raise LayoutError(f"zone period {zone_period * 1e9:.0f} nm is not "
                          f"sub-wavelength ({lam_m * 1e9:.0f} nm)")
    if zone_period / 2 < min_feature:
        raise LayoutError("zone width below the fabrication minimum")
    half_w = footprint.y_extent / 2
    n_stripes = int(np.ceil(footprint.y_extent / (zone_period / 2)))
    stripe = np.arange(n_stripes)
    y0 = -half_w + stripe * zone_period / 2
    y1 = np.minimum(y0 + zone_period / 2, half_w)
    stripe, y0, y1 = stripe[y1 > y0], y0[y1 > y0], y1[y1 > y0]
    upper, lower = [], []
    if teeth and len(stripe):
        for tooth in teeth:
            for duty in (tooth.params.dcu, tooth.params.dcl):
                width = duty * tooth.pitch
                if 0.0 < width < min_feature:
                    raise LayoutError(
                        f"tooth at x={tooth.x * 1e6:.3f} um emits a "
                        f"{width * 1e9:.0f} nm feature after curvature")
        x_lead, pitch, dcu, dcl, dx, delta = np.array(
            [(t.x, t.pitch, t.params.dcu, t.params.dcl, t.params.dx,
              t.params.delta) for t in teeth]).T
        # (stripe, tooth) leading edges: curvature offset at the stripe
        # centre, plus the phase shift in zone-B stripes
        offsets = np.column_stack([curvature_offsets(t, 0.5 * (y0 + y1))
                                   for t in teeth])
        base = (x_lead + offsets) + np.where(stripe[:, None] % 2 == 1,
                                             delta, 0.0)
        ya, yb = _snap(y0).tolist(), _snap(y1).tolist()
        for polys, width, shift in ((upper, dcu * pitch, np.zeros_like(dx)),
                                    (lower, dcl * pitch, dx)):
            cols = width > 0.0
            xa = _snap(base[:, cols] + shift[cols])
            xb = _snap(base[:, cols] + shift[cols] + width[cols])
            for row_a, row_b, y_lo, y_hi in zip(xa.tolist(), xb.tolist(),
                                                ya, yb):
                polys.extend([(a, y_lo), (b, y_lo), (b, y_hi), (a, y_hi)]
                             for a, b in zip(row_a, row_b))
    return GratingLayout(upper=upper, lower=lower, zone_period=zone_period,
                         metadata=metadata or {})


def polygon_is_simple(poly) -> bool:
    """Axis-aligned rectangles are simple iff they have positive area."""
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return len(poly) >= 3 and max(xs) > min(xs) and max(ys) > min(ys)


def export_layout(layout: GratingLayout, path) -> None:
    """Write the layout as a lossless polygon table.

    Schema: one line per polygon, ``layer index x0 y0 x1 y1 ...`` with
    vertices in integer nanometers.
    """
    lines = [f"# grating layout, zone_period_nm="
             f"{round(layout.zone_period * 1e9)}"]
    for layer_id, polys in (("upper", layout.upper),
                            ("lower", layout.lower)):
        for i, poly in enumerate(polys):
            coords = " ".join(f"{round(x * 1e9)} {round(y * 1e9)}"
                              for x, y in poly)
            lines.append(f"{layer_id} {i} {coords}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def import_layout(path) -> GratingLayout:
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
    return GratingLayout(upper=upper, lower=lower, zone_period=zone_period)
