"""Unit-cell geometry optimization and the (angle, phase-shift) lookup library.

A grating design needs, at every longitudinal position, a unit cell that
diffracts at the locally-required angle with a chosen scattering strength.
This module searches unit-cell geometries with one deterministic bounded
local search per angle, evaluates them with the 2D solver, and assembles
the results into a rectangular (angle x phase-shift) library that the
designer interpolates.

Angles are measured in the cladding medium, consistent with the grating
equation  pitch * (n_eff - n_clad * sin(theta)) = wavelength.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, asdict, replace
from typing import ClassVar

import numpy as np

from . import __version__, fdtd
from .geometry import LayerStack, default_stack

MIN_FEATURE = 0.12e-6

SCHEMA_VERSION = 2


class LibraryError(Exception):
    """Raised for malformed or incomplete library operations."""


class FigureOfMeritUndefinedError(LibraryError):
    """Raised when kappa and alpha are both zero."""


class ExtrapolationError(LibraryError):
    """Raised when a lookup falls outside the library's angle hull."""


@dataclass(frozen=True)
class UnitCellParams:
    """Geometry of one grating period.

    pitch: longitudinal period (m); dcu/dcl: duty cycles of the upper and
    lower layer; dx: longitudinal offset of the lower layer's teeth; delta:
    phase-shift zone offset in [0, pitch/2].
    """
    pitch: float
    dcu: float
    dcl: float
    dx: float
    delta: float

    def __post_init__(self):
        if self.pitch <= 0:
            raise ValueError("pitch must be positive")
        fdtd.check_duty(dcu=self.dcu, dcl=self.dcl)
        if not 0.0 <= self.delta <= self.pitch / 2 + 1e-15:
            raise ValueError("delta outside [0, pitch/2]")


@dataclass
class LibraryEntry:
    angle: float            # cladding-frame diffraction angle, rad
    delta_frac: float       # delta as fraction of pitch/2
    params: UnitCellParams
    kappa: float            # 1/m
    alpha: float            # 1/m
    fom: float
    peak_angle: float = float("nan")
    periods_run: int = 0    # optical periods the solver ran the cell for
    closure: float = float("nan")  # |1 - sum of the four monitor powers|
    # the delta = 0 entry's geometry search: scipy.optimize.minimize status
    # and cell evaluations; None and 0 for the cells it was shifted to
    search_status: int | None = None
    search_nfev: int = 0
    error: str | None = None


def figure_of_merit(kappa: float, alpha: float) -> float:
    """Fraction of the total guided-power decay that goes into the desired
    diffraction order: kappa / (kappa + alpha)."""
    total = kappa + alpha
    if total <= 0:
        raise FigureOfMeritUndefinedError("kappa + alpha must be positive")
    return kappa / total


def feature_check(params: UnitCellParams,
                  min_feature: float = MIN_FEATURE) -> list:
    """(layer, kind, width) of every tooth/gap feature below the
    fabrication minimum.

    An empty list means the cell is manufacturable.
    """
    return [f for f in fdtd.feature_widths(params) if f[2] < min_feature]


def pitch_for_angle(angle: float, dcu: float, dcl: float,
                    stack: LayerStack, wavelength: float, polarization: str,
                    cell_size: float) -> float:
    """Grating-equation pitch for a cladding-frame diffraction angle.

    Uses the duty-averaged local effective index of the toothed section on
    the unit-cell grid of ``cell_size``, solved self-consistently (the
    index itself is pitch-independent in the zone-averaged model, so a
    single pass suffices).
    """
    n_local = fdtd.grating_effective_index(stack, dcu, dcl, cell_size,
                                           wavelength, polarization)
    denom = n_local - stack.cladding_index * np.sin(angle)
    if denom <= 0:
        raise LibraryError("angle unreachable: effective index too low")
    return float(wavelength / denom)


@dataclass
class KernelConfig:
    """Settings forwarded to the unit-cell solver for library evaluation.

    ``polarization`` and ``min_feature`` are constants, not settings: the
    solver steps TE cells only, and every library built from a config
    keeps the fabrication minimum MIN_FEATURE."""
    polarization: ClassVar[str] = "TE"
    min_feature: ClassVar[float] = MIN_FEATURE
    wavelength: float = 422e-9
    stack: LayerStack = field(default_factory=default_stack)
    n_periods: int = 8
    points_per_wavelength: int = 16

    @property
    def cell_size(self) -> float:
        return fdtd.default_cell_size(self.stack, self.wavelength,
                                      self.points_per_wavelength)


def evaluate_cell(params: UnitCellParams, angle: float,
                  config: KernelConfig) -> LibraryEntry:
    """Run the solver on one unit cell and package the observables."""
    result = fdtd.run_unit_cell(params, config.n_periods, config.wavelength,
                                config.stack, config.polarization,
                                cell_size=config.cell_size)
    kappa, alpha = fdtd.extract_kappa_alpha(result)
    try:
        fom = figure_of_merit(kappa, alpha)
    except FigureOfMeritUndefinedError:
        # no measured loss, as in a well-suppressed half-pitch cell
        fom = float("nan")
    return LibraryEntry(angle=angle,
                        delta_frac=params.delta / (params.pitch / 2),
                        params=params, kappa=kappa, alpha=alpha, fom=fom,
                        peak_angle=result.peak_angle,
                        periods_run=result.periods_run,
                        closure=abs(1.0 - (result.p_trans
                                           + result.p_reflected
                                           + result.p_up + result.p_down)))


# the search box, symmetric about duty 0.5: duty cycles, and the lower
# layer's offset as a fraction of the pitch
DUTY_BOUNDS = (0.3, 0.7)
DX_BOUNDS = (0.0, 0.5)
SEARCH_METHOD = "Nelder-Mead"
MAX_SEARCH_NFEV = 48          # cell evaluations of one angle's search


def _candidate_params(x, angle: float, config: KernelConfig):
    """Map a search point (dcu, dcl, dx_frac) to concrete cell geometry
    without a phase shift."""
    dcu, dcl, dx_frac = x
    pitch = pitch_for_angle(angle, dcu, dcl, config.stack, config.wavelength,
                            config.polarization, config.cell_size)
    return UnitCellParams(pitch=pitch, dcu=dcu, dcl=dcl,
                          dx=dx_frac * pitch, delta=0.0)


def search_bounds(angle: float, config: KernelConfig) -> list:
    """The manufacturable part of the search box at one angle.

    Higher duty cycles shorten the pitch, so duties in [1 - h, h] all pass
    the feature check when dcu = dcl = h leaves a gap of min_feature.
    """
    # scipy.optimize loads at first use, off the package import
    from scipy import optimize

    def gap_margin(h):
        return (1.0 - h) * pitch_for_angle(
            angle, h, h, config.stack, config.wavelength,
            config.polarization, config.cell_size) - config.min_feature

    if gap_margin(0.5) < 0:
        raise LibraryError(f"no manufacturable duty cycle at "
                           f"{np.rad2deg(angle):.2f} deg")
    hi = DUTY_BOUNDS[1]
    if gap_margin(hi) < 0:
        # a hair inside the root, so the box edge clears the check
        hi = optimize.brentq(gap_margin, 0.5, hi) - 1e-9
    return [(1.0 - hi, hi)] * 2 + [DX_BOUNDS]


def optimize_cell(angle: float, config: KernelConfig,
                  start) -> LibraryEntry:
    """Search (DCU, DCL, dx) for the best figure of merit at one angle,
    without a phase shift, by one bounded local search from ``start``.

    The pitch is tied to the target angle through the grating equation, so
    only the duty cycles and the bilayer offset are free.  Infeasible
    geometries score infinity.
    """
    from scipy import optimize

    bounds = search_bounds(angle, config)
    best = [np.inf, None]

    def objective(x):
        params = _candidate_params(x, angle, config)
        if feature_check(params, config.min_feature):
            return np.inf
        try:
            entry = evaluate_cell(params, angle, config)
        except (fdtd.ResolutionError, fdtd.DepletionError,
                fdtd.ConvergenceError, ValueError) as exc:
            raise type(exc)(f"{exc} (cell {tuple(x)})") from exc
        if not entry.alpha > 0:
            # no measured parasitic loss: the cell neither couples nor
            # loses light, or its top monitor caught more than the guide
            # lost, which clamps the figure of merit to 1
            return np.inf
        score = -entry.fom
        if score < best[0]:
            best[:] = score, entry
        return score

    x0 = np.clip(start, *zip(*bounds))
    with np.errstate(invalid="ignore"):  # a simplex of infeasible cells
        res = optimize.minimize(objective, x0, method=SEARCH_METHOD,
                                bounds=bounds,
                                options={"maxfev": MAX_SEARCH_NFEV})
    entry = best[1]
    if entry is None:
        raise LibraryError(f"no feasible cell at {np.rad2deg(angle):.2f} "
                           f"deg in {res.nfev} evaluations")
    entry.search_status, entry.search_nfev = int(res.status), int(res.nfev)
    return entry


# ---------------------------------------------------------------------------
# Library assembly

def _lerp(a, b, t):
    """The linear blend every library lookup uses."""
    return (1 - t) * a + t * b


def _blend_params(a: UnitCellParams, b: UnitCellParams,
                  t: float) -> UnitCellParams:
    """:func:`_lerp` of two cells at unit pitch: the duty cycles, and dx and
    delta as fractions of the pitch, which the grating equation sets."""
    return UnitCellParams(1.0, _lerp(a.dcu, b.dcu, t), _lerp(a.dcl, b.dcl, t),
                          _lerp(a.dx / a.pitch, b.dx / b.pitch, t),
                          _lerp(a.delta / a.pitch, b.delta / b.pitch, t))


@dataclass
class ParamLibrary:
    """Rectangular (angle x relative-phase-shift) table of optimized cells."""
    angles: list            # rad, ascending
    delta_fracs: list       # fractions of pitch/2, ascending, starts at 0
    entries: dict           # (i_angle, i_delta) -> LibraryEntry
    min_feature: float = MIN_FEATURE
    complete: bool = True
    provenance: dict = field(default_factory=dict)

    def kappa_grid(self) -> np.ndarray:
        k = np.full((len(self.angles), len(self.delta_fracs)), np.nan)
        for (i, j), e in self.entries.items():
            if e.error is None:
                k[i, j] = e.kappa
        return k

    def _angle_weights(self, angle: float):
        a = np.asarray(self.angles)
        if angle < a[0] - 1e-12 or angle > a[-1] + 1e-12:
            raise ExtrapolationError(
                f"angle {np.rad2deg(angle):.2f} deg outside library hull "
                f"[{np.rad2deg(a[0]):.2f}, {np.rad2deg(a[-1]):.2f}]")
        if len(a) == 1:
            return 0, 0, 0.0
        i = int(np.clip(np.searchsorted(a, angle) - 1, 0, len(a) - 2))
        t = (angle - a[i]) / (a[i + 1] - a[i])
        return i, i + 1, float(np.clip(t, 0.0, 1.0))


@dataclass
class InterpolationResult:
    params: UnitCellParams   # at unit pitch: see _blend_params
    kappa: float
    alpha: float
    clamped: bool


def interpolate(library: ParamLibrary, angle: float,
                kappa_target: float) -> InterpolationResult:
    """Cell geometry achieving ``kappa_target`` at ``angle``, at unit pitch.

    Bilinear in (angle, delta); the phase shift is solved so the
    interpolated kappa matches the target, clamping at the angle's maximum
    (delta = 0, s = 0 below) with the ``clamped`` flag set.
    """
    if kappa_target < 0:
        raise ValueError("kappa_target must be nonnegative")
    if not library.complete:
        raise LibraryError("library has failed entries; rebuild first")
    # the angle's weights once; every delta column's kappa, and the
    # alpha and geometry of only the one or two columns returned
    i0, i1, t = library._angle_weights(angle)
    pairs = [(library.entries[(i0, j)], library.entries[(i1, j)])
             for j in range(len(library.delta_fracs))]
    kappas = np.array([_lerp(e0.kappa, e1.kappa, t) for e0, e1 in pairs])

    def column(j):
        e0, e1 = pairs[j]
        return (_lerp(e0.alpha, e1.alpha, t),
                _blend_params(e0.params, e1.params, t))

    # kappa decreases with delta; find the bracketing delta interval
    j = int(np.searchsorted(-kappas, -kappa_target, side="left"))
    j = min(max(j, 1), len(kappas) - 1)
    k_hi, k_lo = kappas[j - 1], kappas[j]
    s = 0.0 if k_hi == k_lo else (k_hi - kappa_target) / (k_hi - k_lo)
    s = float(np.clip(s, 0.0, 1.0))
    a_hi, p_hi = column(j - 1)
    a_lo, p_lo = column(j)
    return InterpolationResult(_blend_params(p_hi, p_lo, s),
                               float(_lerp(k_hi, k_lo, s)),
                               float(_lerp(a_hi, a_lo, s)),
                               clamped=bool(kappa_target > kappas[0]))


def sorted_grids(angles, delta_fracs):
    """The (angles, delta_fracs) grids of a library in the order
    :class:`ParamLibrary` reads them: ascending, nonempty, and the delta
    grid starting at 0."""
    angles = sorted(float(a) for a in angles)
    delta_fracs = sorted(float(f) for f in delta_fracs)
    if not angles or not delta_fracs:
        raise ValueError("angle and delta grids must be nonempty")
    if delta_fracs[0] != 0.0:
        raise ValueError("delta grid must start at 0")
    return angles, delta_fracs


def _entry_key(angle: float, delta_frac: float, config: KernelConfig,
               start) -> str:
    payload = {
        "angle": round(angle, 12), "delta_frac": round(delta_frac, 12),
        "wavelength": config.wavelength,
        "stack": asdict(config.stack),
        "polarization": config.polarization,
        "n_periods": config.n_periods,
        "ppw": config.points_per_wavelength,
        # the search's start and cap decide the geometry of the entry
        "start": [round(float(v), 12) for v in start],
        "search_nfev_cap": MAX_SEARCH_NFEV,
        "schema": SCHEMA_VERSION,
        "version": __version__,
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _entry_from_dict(d: dict) -> LibraryEntry:
    d = dict(d)
    d["params"] = UnitCellParams(**d["params"])
    return LibraryEntry(**d)


def build_library(angles, delta_fracs, config: KernelConfig,
                  cache_dir=None) -> ParamLibrary:
    """Assemble the (angle x phase-shift) library.

    The search runs once per angle at zero phase shift and the winning
    geometry is re-simulated at each phase-shift grid point; this keeps
    kappa(delta) on a single geometry family and the build at desk
    scale.  The first angle's search starts at the centre of its box and
    every later one at the last optimum found, which moves smoothly with
    the angle.  Entries are cached by a content hash of their full inputs,
    the search's start included, so builds are resumable.
    """
    angles, delta_fracs = sorted_grids(angles, delta_fracs)

    def cached(key, compute):
        if cache_dir is None:
            return compute()
        path = os.path.join(cache_dir, key + ".json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return _entry_from_dict(json.load(f))
        entry = compute()
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + f".tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(asdict(entry), f)
        os.replace(tmp, path)  # atomic insert-if-absent
        return entry

    entries = {}
    complete = True
    # the centre of the search box, which every manufacturable box shares
    start = tuple(np.mean([DUTY_BOUNDS, DUTY_BOUNDS, DX_BOUNDS], axis=1))
    for i, angle in enumerate(angles):
        base: LibraryEntry | None = None
        for j, frac in enumerate(delta_fracs):
            key = _entry_key(angle, frac, config, start)

            def compute(angle=angle, frac=frac, start=start):
                if frac == 0.0:
                    return optimize_cell(angle, config, start)
                params = replace(base.params,
                                 delta=frac * base.params.pitch / 2)
                return evaluate_cell(params, angle, config)

            try:
                if frac > 0.0 and base is None:
                    raise LibraryError(
                        f"the delta = 0 entry at {np.rad2deg(angle):.2f} "
                        f"deg failed, so there is no geometry to shift")
                entry = cached(key, compute)
                entry.delta_frac = frac
            except Exception as exc:  # record failure, keep building
                entry = LibraryEntry(angle=angle, delta_frac=frac,
                                     params=UnitCellParams(1e-6, .5, .5, 0, 0),
                                     kappa=np.nan, alpha=np.nan, fom=np.nan,
                                     error=f"{type(exc).__name__}: {exc}")
                complete = False
            if frac == 0.0 and entry.error is None:
                # the next angle starts here, and the shifted cells of this
                # one key on it: it is the geometry they shift
                base = entry
                p = entry.params
                start = (p.dcu, p.dcl, p.dx / p.pitch)
            entries[(i, j)] = entry

    return ParamLibrary(angles=angles, delta_fracs=delta_fracs,
                        entries=entries, min_feature=config.min_feature,
                        complete=complete,
                        provenance={"schema": SCHEMA_VERSION,
                                    "n_periods": config.n_periods,
                                    "ppw": config.points_per_wavelength,
                                    "polarization": config.polarization,
                                    "wavelength": config.wavelength})


# ---------------------------------------------------------------------------
# Persistence

def save_library(library: ParamLibrary, path) -> None:
    doc = {
        "schema": SCHEMA_VERSION,
        "angles": library.angles,
        "delta_fracs": library.delta_fracs,
        "min_feature": library.min_feature,
        "complete": library.complete,
        "provenance": library.provenance,
        "entries": [{"i": i, "j": j, **asdict(e)}
                    for (i, j), e in sorted(library.entries.items())],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


def load_library(path) -> ParamLibrary:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA_VERSION:
        raise LibraryError(f"unsupported library schema {doc.get('schema')}")
    if "ppw" not in doc.get("provenance", {}):
        raise LibraryError("library provenance lacks 'ppw', its cell grid")
    entries = {}
    for rec in doc["entries"]:
        i, j = rec.pop("i"), rec.pop("j")
        entries[(i, j)] = _entry_from_dict(rec)
    return ParamLibrary(angles=doc["angles"], delta_fracs=doc["delta_fracs"],
                        entries=entries, min_feature=doc["min_feature"],
                        complete=doc["complete"],
                        provenance=doc.get("provenance", {}))
