"""Unit-cell geometry optimization and the (angle, phase-shift) lookup library.

A grating design needs, at every longitudinal position, a unit cell that
diffracts at the locally-required angle with a chosen scattering strength.
This module searches unit-cell geometries with a particle swarm, evaluates
them with the 2D solver, and assembles the results into a rectangular
(angle x phase-shift) library that the designer interpolates.

Angles are measured in the cladding medium, consistent with the grating
equation  pitch * (n_eff - n_clad * sin(theta)) = wavelength.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from . import constants
from . import fdtd
from .geometry import LayerStack, default_stack

MIN_FEATURE = 0.12e-6

SCHEMA_VERSION = 1


class LibraryError(Exception):
    """Raised for malformed or incomplete library operations."""


class FigureOfMeritUndefinedError(LibraryError):
    """Raised when kappa and alpha are both zero."""


class ExtrapolationError(LibraryError):
    """Raised when a lookup falls outside the library's angle hull."""


class InfeasibleSwarmError(LibraryError):
    """Raised when no particle satisfies the fabrication constraints."""


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
        for name in ("dcu", "dcl"):
            d = getattr(self, name)
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"{name} outside [0, 1]")
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
    directivity: float = float("nan")
    peak_angle: float = float("nan")
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
    """Widths of every tooth/gap feature below the fabrication minimum.

    An empty list means the cell is manufacturable.
    """
    violations = []
    for layer, duty in (("upper", params.dcu), ("lower", params.dcl)):
        if duty in (0.0, 1.0):
            # a removed or solid layer has no edges, hence no feature
            continue
        for kind, width in (("tooth", duty * params.pitch),
                            ("gap", (1.0 - duty) * params.pitch)):
            if width < min_feature:
                violations.append((layer, kind, width))
    return violations


def pitch_for_angle(angle: float, dcu: float, dcl: float,
                    stack: LayerStack, wavelength: float,
                    polarization: str = "TE",
                    cell_size: float | None = None) -> float:
    """Grating-equation pitch for a cladding-frame diffraction angle.

    Uses the duty-averaged local effective index of the toothed section,
    solved self-consistently (the index itself is pitch-independent in the
    zone-averaged model, so a single pass suffices).
    """
    if cell_size is None:
        cell_size = fdtd.default_cell_size(stack, wavelength)
    probe = UnitCellParams(pitch=1e-6, dcu=dcu, dcl=dcl, dx=0.0, delta=0.0)
    n_local = fdtd.grating_effective_index(stack, probe, cell_size,
                                           wavelength, polarization)
    denom = n_local - stack.cladding_index * np.sin(angle)
    if denom <= 0:
        raise LibraryError("angle unreachable: effective index too low")
    return wavelength / denom


@dataclass
class KernelConfig:
    """Settings forwarded to the unit-cell solver for library evaluation."""
    wavelength: float = 422e-9
    stack: LayerStack = field(default_factory=default_stack)
    polarization: str = "TE"
    n_periods: int = 8
    points_per_wavelength: int = 16
    min_feature: float = MIN_FEATURE

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
        direct = fdtd.directivity(result)
    except fdtd.DirectivityUndefinedError:
        direct = float("nan")
    return LibraryEntry(angle=angle,
                        delta_frac=params.delta / (params.pitch / 2),
                        params=params, kappa=kappa, alpha=alpha,
                        fom=figure_of_merit(kappa, alpha),
                        directivity=direct, peak_angle=result.peak_angle)


@dataclass
class SwarmConfig:
    n_particles: int = 24
    iterations: int = 60
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    seed: int = 0


def pso_minimize(objective, bounds, config: SwarmConfig):
    """Plain particle-swarm minimizer over a box.

    Deterministic for a fixed seed; returns (best position, best value).
    """
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    ndim = len(bounds)
    rng = np.random.Generator(np.random.Philox(config.seed))
    pos = lo + (hi - lo) * rng.random((config.n_particles, ndim))
    vel = (hi - lo) * (rng.random((config.n_particles, ndim)) - 0.5) * 0.2
    pbest = pos.copy()
    pbest_val = np.array([objective(p) for p in pos])
    g = int(np.argmin(pbest_val))
    gbest, gbest_val = pbest[g].copy(), pbest_val[g]
    if not np.isfinite(gbest_val):
        # all particles may still recover through the velocity update, but
        # a fully infeasible start with zero extent cannot
        if np.all(hi == lo):
            raise InfeasibleSwarmError("degenerate bounds, no feasible point")
    for _ in range(config.iterations):
        r1 = rng.random((config.n_particles, ndim))
        r2 = rng.random((config.n_particles, ndim))
        vel = (config.inertia * vel
               + config.cognitive * r1 * (pbest - pos)
               + config.social * r2 * (gbest - pos))
        pos = np.clip(pos + vel, lo, hi)
        for i in range(config.n_particles):
            v = objective(pos[i])
            if v < pbest_val[i]:
                pbest_val[i] = v
                pbest[i] = pos[i]
        g = int(np.argmin(pbest_val))
        if pbest_val[g] < gbest_val:
            gbest_val = pbest_val[g]
            gbest = pbest[g].copy()
    if not np.isfinite(gbest_val):
        raise InfeasibleSwarmError("no feasible particle found")
    return gbest, float(gbest_val)


# duty-cycle and offset search box used by the optimizer
DUTY_BOUNDS = (0.3, 0.7)


def _candidate_params(x, angle: float, delta_frac: float,
                      config: KernelConfig):
    """Map a swarm position (dcu, dcl, dx_frac) to concrete cell geometry."""
    dcu, dcl, dx_frac = x
    pitch = pitch_for_angle(angle, dcu, dcl, config.stack, config.wavelength,
                            config.polarization, config.cell_size)
    return UnitCellParams(pitch=pitch, dcu=dcu, dcl=dcl,
                          dx=dx_frac * pitch,
                          delta=delta_frac * pitch / 2)


def pso_optimize(angle: float, delta_frac: float = 0.0,
                 config: KernelConfig | None = None,
                 swarm: SwarmConfig | None = None) -> LibraryEntry:
    """Search (DCU, DCL, dx) for the best figure of merit at one angle.

    The pitch is tied to the target angle through the grating equation, so
    only the duty cycles and the bilayer offset are free.  Infeasible
    geometries (sub-minimum features) score zero.  Ties in figure of merit
    are broken toward larger kappa.
    """
    config = config or KernelConfig()
    swarm = swarm or SwarmConfig()
    cache: dict = {}

    def objective(x):
        key = tuple(np.round(x, 6))
        if key in cache:
            return cache[key][0]
        try:
            params = _candidate_params(key, angle, delta_frac, config)
        except LibraryError:
            cache[key] = (np.inf, None)
            return np.inf
        if feature_check(params, config.min_feature):
            cache[key] = (np.inf, None)
            return np.inf
        try:
            entry = evaluate_cell(params, angle, config)
        except FigureOfMeritUndefinedError:
            # a cell that neither couples nor loses light scores like an
            # infeasible one instead of aborting the angle
            cache[key] = (np.inf, None)
            return np.inf
        except (fdtd.ResolutionError, fdtd.DepletionError,
                fdtd.ConvergenceError, ValueError) as exc:
            raise type(exc)(f"{exc} (particle {key})") from exc
        # minimize -(fom + tiny * kappa): kappa breaks exact-fom ties
        score = -(entry.fom + 1e-12 * entry.kappa)
        cache[key] = (score, entry)
        return score

    bounds = [DUTY_BOUNDS, DUTY_BOUNDS, (0.0, 0.5)]
    best_x, _ = pso_minimize(objective, bounds, swarm)
    entry = cache[tuple(np.round(best_x, 6))][1]
    return entry


# ---------------------------------------------------------------------------
# Library assembly

def _lerp(a, b, t):
    """The linear blend every library lookup uses."""
    return (1 - t) * a + t * b


def _blend_params(a: UnitCellParams, b: UnitCellParams,
                  t: float) -> UnitCellParams:
    """Field-by-field :func:`_lerp` of two cell geometries."""
    return UnitCellParams(**{f.name: _lerp(getattr(a, f.name),
                                           getattr(b, f.name), t)
                             for f in fields(UnitCellParams)})


@dataclass
class ParamLibrary:
    """Rectangular (angle x relative-phase-shift) table of optimized cells."""
    angles: list            # rad, ascending
    delta_fracs: list       # fractions of pitch/2, ascending, starts at 0
    entries: dict           # (i_angle, i_delta) -> LibraryEntry
    min_feature: float = MIN_FEATURE
    complete: bool = True
    provenance: dict = field(default_factory=dict)

    def entry(self, i: int, j: int) -> LibraryEntry:
        return self.entries[(i, j)]

    def kappa_grid(self) -> np.ndarray:
        k = np.full((len(self.angles), len(self.delta_fracs)), np.nan)
        for (i, j), e in self.entries.items():
            if e.error is None:
                k[i, j] = e.kappa
        return k

    def kappa_max(self, angle: float) -> float:
        return self._interp_column(angle, 0)[0]

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

    def _interp_column(self, angle: float, j: int):
        i0, i1, t = self._angle_weights(angle)
        e0, e1 = self.entries[(i0, j)], self.entries[(i1, j)]
        return (_lerp(e0.kappa, e1.kappa, t), _lerp(e0.alpha, e1.alpha, t),
                _blend_params(e0.params, e1.params, t))


@dataclass
class InterpolationResult:
    params: UnitCellParams
    kappa: float
    alpha: float
    clamped: bool


def interpolate(library: ParamLibrary, angle: float,
                kappa_target: float) -> InterpolationResult:
    """Cell geometry achieving ``kappa_target`` at ``angle``.

    Bilinear in (angle, delta); the phase shift is solved so the
    interpolated kappa matches the target, clamping at the angle's maximum
    (delta = 0) with the ``clamped`` flag set.
    """
    if kappa_target < 0:
        raise ValueError("kappa_target must be nonnegative")
    if not library.complete:
        raise LibraryError("library has failed entries; rebuild first")
    cols = [library._interp_column(angle, j)
            for j in range(len(library.delta_fracs))]
    kappas = np.array([c[0] for c in cols])
    if kappa_target >= kappas[0]:
        kappa, alpha, params = cols[0]
        return InterpolationResult(params, kappa, alpha,
                                   clamped=kappa_target > kappas[0])
    # kappa decreases with delta; find the bracketing delta interval
    j = int(np.searchsorted(-kappas, -kappa_target, side="left"))
    j = min(max(j, 1), len(kappas) - 1)
    k_hi, k_lo = kappas[j - 1], kappas[j]
    s = 0.0 if k_hi == k_lo else (k_hi - kappa_target) / (k_hi - k_lo)
    s = float(np.clip(s, 0.0, 1.0))
    _, a_hi, p_hi = cols[j - 1]
    _, a_lo, p_lo = cols[j]
    return InterpolationResult(_blend_params(p_hi, p_lo, s),
                               float(_lerp(k_hi, k_lo, s)),
                               float(_lerp(a_hi, a_lo, s)), clamped=False)


def _entry_key(angle: float, delta_frac: float, config: KernelConfig,
               swarm: SwarmConfig) -> str:
    payload = {
        "angle": round(angle, 12), "delta_frac": round(delta_frac, 12),
        "wavelength": config.wavelength,
        "stack": asdict(config.stack),
        "polarization": config.polarization,
        "n_periods": config.n_periods,
        "ppw": config.points_per_wavelength,
        "swarm": (swarm.n_particles, swarm.iterations, swarm.inertia,
                  swarm.cognitive, swarm.social, swarm.seed),
        "schema": SCHEMA_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _entry_from_dict(d: dict) -> LibraryEntry:
    d = dict(d)
    d["params"] = UnitCellParams(**d["params"])
    return LibraryEntry(**d)


def build_library(angles, delta_fracs=None, config: KernelConfig | None = None,
                  swarm: SwarmConfig | None = None,
                  cache_dir=None) -> ParamLibrary:
    """Assemble the (angle x phase-shift) library.

    The swarm runs once per angle at zero phase shift and the winning
    geometry is re-simulated at each phase-shift grid point; this keeps
    kappa(delta) on a single geometry family and the build at desk
    scale.  Entries are cached by a content hash of their full inputs, so
    builds are resumable and independent of job order.
    """
    config = config or KernelConfig()
    swarm = swarm or SwarmConfig()
    angles = sorted(float(a) for a in angles)
    if delta_fracs is None:
        delta_fracs = list(np.linspace(0.0, 1.0, 6))
    delta_fracs = sorted(float(f) for f in delta_fracs)
    if not angles or not delta_fracs:
        raise ValueError("angle and delta grids must be nonempty")
    if delta_fracs[0] != 0.0:
        raise ValueError("delta grid must start at 0")

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
    for i, angle in enumerate(angles):
        base: LibraryEntry | None = None
        for j, frac in enumerate(delta_fracs):
            key = _entry_key(angle, frac, config, swarm)

            def compute(angle=angle, frac=frac):
                nonlocal base
                if frac == 0.0:
                    return pso_optimize(angle, frac, config, swarm)
                params = replace(base.params,
                                 delta=frac * base.params.pitch / 2)
                return evaluate_cell(params, angle, config)

            try:
                entry = cached(key, compute)
                entry.delta_frac = frac
            except Exception as exc:  # record failure, keep building
                entry = LibraryEntry(angle=angle, delta_frac=frac,
                                     params=UnitCellParams(1e-6, .5, .5, 0, 0),
                                     kappa=np.nan, alpha=np.nan, fom=np.nan,
                                     error=f"{type(exc).__name__}: {exc}")
                complete = False
            if frac == 0.0 and entry.error is None:
                base = entry
            entries[(i, j)] = entry

    return ParamLibrary(angles=angles, delta_fracs=delta_fracs,
                        entries=entries, min_feature=config.min_feature,
                        complete=complete,
                        provenance={"schema": SCHEMA_VERSION,
                                    "seed": swarm.seed,
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
    entries = {}
    for rec in doc["entries"]:
        i, j = rec.pop("i"), rec.pop("j")
        entries[(i, j)] = _entry_from_dict(rec)
    return ParamLibrary(angles=doc["angles"], delta_fracs=doc["delta_fracs"],
                        entries=entries, min_feature=doc["min_feature"],
                        complete=doc["complete"],
                        provenance=doc.get("provenance", {}))
