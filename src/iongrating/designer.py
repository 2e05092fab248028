"""Longitudinal grating design: from a target intensity profile to a layout.

The design chain: fit a smooth scattering-strength profile kappa(x) whose
diffracted intensity replicates the target, discretize it tooth by tooth
against the unit-cell library, curve each tooth for transverse focusing by
the equal-optical-path rule, and emit/export the two-layer polygon layout
with phase-shift apodization zones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DESIGN_WAVELENGTH
from .geometry import (GratingFootprint, IonPose, LayerStack,
                       ray_vacuum_angle, wavelength_in_medium)
from .library import (MIN_FEATURE, ParamLibrary, UnitCellParams,
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


def cumulative_trapezoid(y, x):
    """Running trapezoid integral of ``y`` over ``x`` along the first axis,
    starting at 0: ``scipy.integrate.cumulative_trapezoid(y, x, axis=0,
    initial=0)`` with the same arithmetic, without loading
    ``scipy.integrate``."""
    y = np.asarray(y)
    d = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    res = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros((1,) + res.shape[1:], res.dtype), res])


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
    return k * _guided_fraction(k, a, x)


def _guided_fraction(k, a, x):
    """Guided power left at each x: exp(-int_0^x [k+a] dx')."""
    return np.exp(-cumulative_trapezoid(k + a, x))


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
class FitStart:
    """Outcome of one least-squares start of :func:`fit_kappa`."""
    status: int              # 0 = the evaluation cap, 1 = gtol, 2 = ftol,
                             # 3 = xtol, -1 = raised (no usable residual)
    nfev: int                # residual evaluations of this start
    relative_l2: float       # ||I_fit - I_ion|| / ||I_ion|| at its optimum


@dataclass
class FitReport:
    relative_l2: float       # ||I_fit - I_ion|| / ||I_ion||
    residual_power: float    # guided power left at the grating end
    infeasible: bool         # kappa_max too small to deplete the guide
    n_evaluations: int       # residual plus Jacobian evaluations
    starts: list             # FitStart per start


# ---------------------------------------------------------------------------
# The fit's two solvers, plain numpy so that a design run does not load
# scipy.optimize: a trust-region least squares whose step is exact, from one
# SVD per iterate, and a golden-section search for the start's rate.

_GTOL = _FTOL = _XTOL = 1e-8  # _least_squares' gradient, cost, step tolerances


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


def _trust_region_step(s, uf, vt, delta):
    """The p minimizing ||J p + f|| subject to ||p|| <= delta, from the SVD
    J = U diag(s) vt cut to its rank, uf = U^T f (More 1977): Gauss-Newton
    if it fits, else p(lam) = -(J^T J + lam)^-1 J^T f at 1/||p(lam)|| =
    1/delta.  That function of lam is concave and increasing, so Newton
    from lam = 0 climbs to the root without overshooting it."""
    suf = s * uf
    lam = 0.0
    for _ in range(20):
        d = s * s + lam
        q = suf / d
        q_norm = np.linalg.norm(q)
        if lam == 0.0 and q_norm <= delta:
            return -vt.T.dot(q)
        lam += (q_norm - delta) / delta * q_norm**2 / np.sum(q * q / d)
        if abs(q_norm - delta) <= 1e-6 * delta:
            break
    q = suf / (s * s + lam)
    return -vt.T.dot(q * (delta / np.linalg.norm(q)))


def _least_squares(fun, x0, jac, max_nfev):
    """Minimize 0.5 ||fun(x)||^2 from ``x0`` given the Jacobian ``jac``.

    The trust radius starts at norm(x0) (1 if 0), falls to a quarter of
    the step below a reduction ratio of 0.25 and doubles above 0.75 on a
    step that reaches it.  Returns (x, fun(x), status, nfev) with the
    codes of :class:`FitStart`; raises ValueError when the residuals at
    ``x0`` or a Jacobian are not finite.
    """
    norm = np.linalg.norm
    x = np.array(x0, dtype=float)
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the start")
    nfev = 1
    cost = 0.5 * np.dot(f, f)
    delta = norm(x) or 1.0
    while True:
        J = jac(x)
        if not np.all(np.isfinite(J)):
            raise ValueError("the Jacobian is not finite")
        g = J.T.dot(f)
        if norm(g, ord=np.inf) < _GTOL:
            return x, f, 1, nfev
        u, s, vt = np.linalg.svd(J, full_matrices=False)
        uf = u.T.dot(f)
        rank = s > np.finfo(float).eps * max(J.shape) * s[0]
        s, uf, vt = s[rank], uf[rank], vt[rank]
        status, actual = 0, 0.0
        while not (status or actual > 0):
            if nfev == max_nfev:
                return x, f, 0, nfev
            step = _trust_region_step(s, uf, vt, delta)
            step_norm = norm(step)
            f_new = fun(x + step)
            nfev += 1
            if not np.all(np.isfinite(f_new)):
                delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual = cost - cost_new
            js = J.dot(step)
            predicted = -(0.5 * np.dot(js, js) + np.dot(step, g))
            ratio = actual / predicted if predicted > 0 else 0.0
            if ratio < 0.25:
                delta = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * delta:
                delta *= 2.0
            if actual < _FTOL * cost and ratio > 0.25:
                status = 2
            elif step_norm < _XTOL * (_XTOL + norm(x)):
                status = 3
        if actual > 0:
            x, f, cost = x + step, f_new, cost_new
        if status:
            return x, f, status, nfev


def _fit_ansatz_to_curve(x, target, length, cap):
    """Least-squares ansatz coefficients for a sampled kappa curve, lowered
    by its overshoot of ``cap`` so that it starts inside the cap wall.

    Linear in (a, b, c, d, A) for fixed exponential rate B; the rate is
    found by a golden-section search.  A start above the cap begins deep
    in the wall penalty, which the least squares first clears by switching
    the exponential off, and then stalls.
    """
    basis = np.column_stack([x**3, x**2, x, np.ones_like(x)])

    def solve(bexp):
        m = np.column_stack([basis, np.exp(bexp * x)])
        coef, *_ = np.linalg.lstsq(m, target, rcond=None)
        return coef, float(np.sum((m @ coef - target) ** 2))

    bexp = _golden_minimum(lambda b: solve(b)[1], 0.0, 30.0 / length,
                           xatol=1e-4 / length)
    coef, _ = solve(bexp)
    ansatz = KappaAnsatz(*coef, B=float(bexp), length=float(length))
    ansatz.d -= max(float(np.max(ansatz(x))) - cap, 0.0)
    return ansatz


def fit_kappa(i_ion, x, alpha=0.0, kappa_max: float = np.inf):
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
    start = _fit_ansatz_to_curve(x, k_ideal, length, cap)

    # the median as np.median takes it, the mean of the middle one or two
    # values, from a sort: np.median would import numpy.ma
    k_sorted, n = np.sort(k_ideal), len(k_ideal)
    k_scale = max(float(np.mean(k_sorted[(n - 1) // 2:n // 2 + 1])), 1.0)
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
        atten = _guided_fraction(k, a_prof, x)
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
        d_atten = cumulative_trapezoid(dk, x)
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
            z, f, status, nfev = _least_squares(residuals, z_init, jacobian,
                                                max_nfev=1000)
        except (ValueError, FloatingPointError):
            outcomes.append(FitStart(status=-1, nfev=0, relative_l2=np.nan))
            continue
        val = float(np.linalg.norm(f[:n_match]))
        outcomes.append(FitStart(status=status, nfev=nfev, relative_l2=val))
        if np.isfinite(val) and val < best_val:
            best_val, best_z = val, z
    if best_z is None:
        raise FitDivergenceError("no coefficient start converged")

    ansatz = unpack(best_z)
    k_fit = np.clip(ansatz(x), 0.0, kappa_max if capped else None)
    i_fit = diffracted_intensity(k_fit, alpha, x)
    rel_l2 = float(np.linalg.norm(i_fit - i_target) / i_norm)
    res_power = residual_power(k_fit, alpha, x)
    # the constraint is hopeless when even constant kappa_max leaves more
    # than 10% of the light in the guide
    infeasible = (capped and np.exp(-kappa_max * length) > 0.10
                  and res_power > 0.10)
    report = FitReport(relative_l2=rel_l2, residual_power=res_power,
                       infeasible=infeasible, n_evaluations=evaluations,
                       starts=outcomes)
    return ansatz, report


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
    # a library (a file's, say) may tighten the process minimum, not relax it
    min_feature = max(library.min_feature, MIN_FEATURE)
    guard = int(footprint.x_extent / (min_feature * 2)) + 10
    while x < footprint.x_extent and len(teeth) < guard:
        angle = diffraction_angle_at(x, pose, stack)
        res = interpolate(library, angle, float(ansatz(np.array([x]))[0]))
        bad = feature_check(res.params, min_feature)
        if bad:
            raise LayoutError(f"tooth at x={x * 1e6:.3f} um violates "
                              f"feature constraints: {bad}")
        teeth.append(ToothSpec(x=x, params=res.params, angle=angle,
                               kappa=res.kappa, alpha=res.alpha,
                               clamped=res.clamped))
        x += res.params.pitch
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
    shifted by u along x advances by k0 * slab_index * u.  TM teeth carry
    the angle the TM index gives (``pipeline._tm_teeth``), so they get
    that index back.
    """
    return n_clad * np.sin(tooth.angle) + wavelength / tooth.pitch


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
