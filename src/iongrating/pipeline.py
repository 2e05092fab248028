"""Stage orchestration: dependency-ordered execution with content caching.

Each stage hashes its configuration slice together with the keys of the
stages it depends on; a stage whose key and artifact checksums are
unchanged from the previous run is not recomputed.  Each stage declares
the files it writes, and reads those of the stages it depends on, whether
they ran now or earlier, so a fully cached run parses no artifact.  The
run manifest lists every artifact with its checksum (an entry listing
other files than its stage writes is recomputed) and is rewritten after
each recomputed stage; ``artifact_stats.json`` beside it lets a rerun
take an unchanged artifact's checksum from its stat signature, so a
fully cached run reads no artifact byte and writes no file.
"""

import dataclasses
import hashlib
import json
import os
import warnings

import numpy as np
import scipy

from . import __version__, designer, detection, dipole, fdtd, \
    library as liblib, overlap, propagation
from .config import PipelineConfig

__all__ = ["StageError", "STAGES", "analytic_library", "report",
           "run_pipeline"]

class StageError(Exception):
    """A pipeline stage failed; carries the stage name and cause."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


# ---------------------------------------------------------------------------
# Helpers

def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _stage_key(name: str, cfg_slice, upstream_keys) -> str:
    # the package version is part of every key, so artifacts written by
    # another release are recomputed rather than served from cache
    blob = json.dumps({"stage": name, "config": cfg_slice,
                       "upstream": upstream_keys, "version": __version__},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _write_json(path, payload) -> None:
    """Write through a temporary file and rename, so an interrupted write
    never leaves a truncated file behind."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _stat_signature(path) -> list:
    st = os.stat(path)
    return [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino]


class _ArtifactStats:
    """Stat signatures of hashed artifacts, kept in ``artifact_stats.json``
    beside the manifest so that a rerun need not read unchanged artifacts.

    An artifact is taken to hold its recorded checksum without being read
    when its stat signature (size, mtime, ctime, inode) equals the record
    and the recorded mtime is strictly older than the file holding the
    records.  That last rule is git's "racy clean" test: a file rewritten
    in the same timestamp granule as its record keeps its signature, so it
    is hashed instead.  ctime cannot be set from user space, so a restored
    old copy is hashed too.  A missing, unreadable or malformed record
    file only means every artifact is hashed.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "artifact_stats.json")
        self.loaded, self.mtime_ns = {}, 0
        try:
            with open(self.path) as fh:
                self.mtime_ns = os.fstat(fh.fileno()).st_mtime_ns
                records = json.load(fh)
            if isinstance(records, dict):
                self.loaded = records
        except (OSError, ValueError):
            pass
        self.records = dict(self.loaded)
        self.hashed = False

    def checksum(self, rel, before=None) -> str:
        """sha256 of an artifact; its stat signature is recorded unless it
        moved while the file was read."""
        path = os.path.join(self.out_dir, rel)
        before = before or _stat_signature(path)
        digest = _sha256_file(path)
        self.hashed = True
        if _stat_signature(path) == before:
            self.records[rel] = {"sha256": digest, "stat": before}
        else:
            self.records.pop(rel, None)
        return digest

    def mismatch(self, rel, digest):
        """None when the artifact holds ``digest``, else the cache reason
        ``artifact-missing`` or ``checksum-mismatch``."""
        try:
            sig = _stat_signature(os.path.join(self.out_dir, rel))
        except OSError:
            return "artifact-missing"
        rec = self.loaded.get(rel)
        if (isinstance(rec, dict) and rec.get("sha256") == digest
                and rec.get("stat") == sig
                and sig[1] < self.mtime_ns):
            return None
        if self.checksum(rel, sig) == digest:
            return None
        return "checksum-mismatch"

    def save(self, stages) -> None:
        """Write the records of the artifacts of ``stages`` when this run
        hashed an artifact or dropped a record.  A record hashed again only
        because it was racy is unchanged, but it needs a newer file."""
        keep = {rel: self.records[rel] for entry in stages.values()
                for rel in entry["artifacts"] if rel in self.records}
        if self.hashed or keep != self.loaded:
            _write_json(self.path, keep)


def _usable_entry(name, entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("key"), str)
            and isinstance(entry.get("artifacts"), dict)
            and entry["artifacts"].keys() == _artifacts(name).keys())


def _read_previous_stages(manifest_path):
    """The parsed manifest of an earlier run (None if there is none), its
    usable stage entries, and the names of the stages whose entries are
    not usable.  An unreadable manifest counts as no earlier run, and a
    malformed stage entry as a stage that has not run, each with a
    warning; every stage of an unreadable manifest counts as malformed,
    and entries of stages this release does not run are not checked."""
    if not os.path.exists(manifest_path):
        return None, {}, set()
    try:
        with open(manifest_path) as fh:
            document = json.load(fh)
        stages = document.get("stages", {})
        if not isinstance(stages, dict):
            raise ValueError("'stages' is not a mapping")
    except (OSError, ValueError, AttributeError) as exc:
        warnings.warn(f"ignoring unreadable manifest {manifest_path}: {exc}",
                      RuntimeWarning, stacklevel=3)
        return None, {}, set(STAGES)
    usable, malformed = {}, set()
    for name in filter(stages.__contains__, STAGES):
        if _usable_entry(name, stages[name]):
            usable[name] = stages[name]
        else:
            malformed.add(name)
            warnings.warn(f"ignoring malformed stage {name!r} in manifest "
                          f"{manifest_path}", RuntimeWarning, stacklevel=3)
    return document, usable, malformed


def _config_slices(config: PipelineConfig) -> dict:
    # the ion-to-aperture ray geometry: all that emission reads of the
    # device
    rays = {"cladding_index": config.stack.cladding_index,
            "footprint": (config.footprint.x_extent,
                          config.footprint.y_extent),
            "pose": (config.pose.x_ion, config.pose.y_ion,
                     config.pose.height_above_surface,
                     config.pose.cladding_thickness)}
    base = {"wavelength": config.wavelength,
            "stack": dataclasses.asdict(config.stack),
            "footprint": rays["footprint"], "pose": rays["pose"]}
    det = {k: getattr(config.detection, k)
           for k in ("bright_rate", "dark_rate", "window", "threshold",
                     "bins", "d_lifetime", "shelving_failure")}
    # entry caches key on their own content, so the cache directory never
    # changes a result
    lib = {**base, **{k: v for k, v in config.library.items()
                      if k != "cache_dir"}}
    path = config.library.get("path")
    if config.library["mode"] == "file" and path and os.path.isfile(path):
        # a rewritten library file must recompute the stage
        lib["file_sha256"] = _sha256_file(path)
    return {
        "emission": rays,
        "library": lib,
        "design": {**base, **config.designer},
        "propagate": {**base, **config.propagation},
        "overlap": base,
        "detect": {**det, "trials": config.detection_trials,
                   "seed_detection": config.seeds["detection"],
                   "seed_timing": config.seeds["timing"]},
    }


# ---------------------------------------------------------------------------
# Library construction

def _cell_size(config: PipelineConfig) -> float:
    """The unit-cell grid spacing every effective index is taken on, TE
    and TM alike."""
    return fdtd.default_cell_size(config.stack, config.wavelength,
                                  config.library["points_per_wavelength"])


def analytic_library(config: PipelineConfig) -> liblib.ParamLibrary:
    """Design-grade library from the grating equation, no field solver.

    Pitches come from the duty-averaged local effective index on the
    unit-cell grid of ``library.points_per_wavelength``; the coupling
    strength follows the two-zone interference model
    kappa(delta) = kappa0 cos^2(pi delta / pitch), which vanishes at the
    half-pitch shift.  Labeled analytic in the provenance.
    """
    lib_cfg = config.library
    angles, fracs = liblib.sorted_grids(
        [np.deg2rad(a) for a in lib_cfg["angles_deg"]],
        lib_cfg["delta_fracs"])
    dcu, dcl = lib_cfg["duty_upper"], lib_cfg["duty_lower"]
    cell = _cell_size(config)
    entries = {}
    for i, angle in enumerate(angles):
        pitch = liblib.pitch_for_angle(angle, dcu, dcl, config.stack,
                                       config.wavelength, "TE", cell)
        for j, frac in enumerate(fracs):
            delta = frac * pitch / 2.0
            kappa = lib_cfg["kappa0"] * np.cos(np.pi * delta / pitch) ** 2
            alpha = lib_cfg["alpha0"]
            params = liblib.UnitCellParams(pitch, dcu, dcl,
                                           lib_cfg["layer_offset"], delta)
            entries[(i, j)] = liblib.LibraryEntry(
                angle=angle, delta_frac=frac, params=params, kappa=kappa,
                alpha=alpha, fom=liblib.figure_of_merit(max(kappa, 1e-12),
                                                        alpha))
    return liblib.ParamLibrary(angles=angles, delta_fracs=fracs,
                               entries=entries,
                               provenance={"mode": "analytic"})


def _build_library(config: PipelineConfig) -> liblib.ParamLibrary:
    mode = config.library["mode"]
    if mode == "analytic":
        return analytic_library(config)
    if mode == "file":
        path = config.library.get("path")
        if not path or not os.path.exists(path):
            raise StageError("library", "library required: no unit-cell "
                             "library file at "
                             f"{path!r}; build one with the library verb")
        return liblib.load_library(path)
    kernel = liblib.KernelConfig(
        wavelength=config.wavelength, stack=config.stack,
        n_periods=config.library["n_periods"],
        points_per_wavelength=config.library["points_per_wavelength"])
    return liblib.build_library(
        [np.deg2rad(a) for a in config.library["angles_deg"]],
        config.library["delta_fracs"], kernel,
        cache_dir=config.library.get("cache_dir"))


# ---------------------------------------------------------------------------
# Stage bodies: each finds the files of the stages it depends on and the
# files it writes itself, as declared in ``_STAGES``, in ``path`` (file
# name -> path), and returns its summary dict.

def _run_emission(config, path):
    emission = dipole.ion_intensity_profile(
        config.footprint, config.pose, 512,
        n_cladding=config.stack.cladding_index)
    np.savetxt(path["emission_profile.csv"],
               np.column_stack([emission.x, emission.intensity]),
               delimiter=",", header="x_m,intensity_per_m", fmt="%.17g")
    fraction = emission.solid_angle_fraction
    return {"solid_angle_fraction": fraction,
            "per_mode_bound": fraction / 2.0,
            "sigma_share": emission.sigma_share,
            "peak_intensity_per_m": float(emission.intensity.max())}


def _run_library(config, path):
    lib = _build_library(config)
    if not lib.complete:
        failed = [e for e in lib.entries.values() if e.error is not None]
        first = failed[0] if failed else None
        detail = (f"; first at {np.rad2deg(first.angle):.2f} deg, delta "
                  f"fraction {first.delta_frac:g}: {first.error}"
                  if first else "")
        raise StageError("library", f"{len(failed)} of {len(lib.entries)} "
                         f"unit-cell entries failed{detail}")
    liblib.save_library(lib, path["library.json"])
    kappas = lib.kappa_grid()
    summary = {"mode": config.library["mode"],
               "n_angles": len(lib.angles),
               "n_delta_fracs": len(lib.delta_fracs),
               "kappa_peak": float(np.nanmax(kappas))}
    if config.library["mode"] == "fdtd":
        # diagnostics of the solver runs; analytic entries have none, and
        # their NaN closure must stay out of the manifest
        entries = lib.entries.values()
        summary["max_periods_run"] = max(e.periods_run for e in entries)
        summary["max_closure"] = float(max(e.closure for e in entries))
        # each delta = 0 entry stores its search's evaluations, and each
        # shifted entry is one more cell, so cached builds count the same
        summary["cells_evaluated"] = sum(
            e.search_nfev if e.delta_frac == 0.0 else 1 for e in entries)
        summary["max_search_nfev"] = max(e.search_nfev for e in entries)
    return summary


def _run_design(config, path):
    x, profile = np.loadtxt(path["emission_profile.csv"], delimiter=",",
                            unpack=True)
    lib = liblib.load_library(path["library.json"])
    dz_cfg = config.designer
    ansatz, fit = designer.fit_kappa(
        profile, x, alpha=dz_cfg["alpha"], kappa_max=dz_cfg["kappa_max"])
    teeth = designer.discretize(ansatz, lib, config.footprint, config.pose,
                                config.stack)
    focus = (config.pose.x_ion, config.pose.y_ion,
             config.pose.height_above_surface)
    for tooth in teeth:
        designer.curve_tooth(tooth, focus, config.stack, config.pose,
                             config.wavelength)
    zone_period = designer.default_zone_period(config.stack,
                                               config.wavelength)
    layout = designer.emit_layout(teeth, zone_period, config.footprint,
                                  config.stack, config.wavelength)
    designer.export_layout(layout, path["layout.txt"])
    _write_json(path["teeth.json"], [dataclasses.asdict(t) for t in teeth])
    drained, residual = designer.tooth_power_accounting(teeth)
    return {"n_teeth": len(teeth),
            "n_clamped": sum(bool(t.clamped) for t in teeth),
            "n_truncated": sum(bool(t.truncated) for t in teeth),
            "fit_relative_l2": fit.relative_l2,
            "fit_residual_power": fit.residual_power,
            "fit_infeasible": bool(fit.infeasible),
            "fit_status": [s.status for s in fit.starts],
            "fit_nfev": [s.nfev for s in fit.starts],
            "drained_power": float(np.sum(drained)),
            "undiffracted_power": residual,
            "zone_period": zone_period}


def _read_teeth(path) -> list:
    """The teeth that ``_run_design`` wrote to ``teeth.json``."""
    with open(path) as fh:
        rows = json.load(fh)
    return [designer.ToothSpec(**{
        **row, "params": liblib.UnitCellParams(**row["params"]),
        "curvature": [tuple(s) for s in row["curvature"]]}) for row in rows]


def _tm_teeth(config, teeth):
    """Teeth reinterpreted for the TM slab mode.

    The pitch is fixed by the TE design, so the lower TM effective index
    steers TM emission to a shallower angle via the grating equation; this
    is the source of the TE/TM focal displacement.  Each tooth takes the
    TM index of its own duty cycles.
    """
    cell = _cell_size(config)
    out = []
    for t in teeth:
        s = fdtd.grating_angle_sine(config.stack, t.params, cell,
                                    config.wavelength, "TM")
        if not -1.0 < s < 1.0:
            continue  # this period does not outcouple the TM mode
        out.append(dataclasses.replace(t, angle=float(np.arcsin(s))))
    if not out:
        raise ValueError("no tooth outcouples the TM mode")
    return out


def _run_propagate(config, path):
    shape = tuple(config.propagation["shape"])
    s = config.propagation["pixel_size"]
    teeth = _read_teeth(path["teeth.json"])
    summary = {}
    for pol, pol_teeth in (("TE", teeth), ("TM", _tm_teeth(config, teeth))):
        near = propagation.synthesize_near_field(
            pol_teeth, config.footprint, config.stack, config.wavelength,
            polarization=pol, shape=shape, pixel_size=s)
        at_ion = propagation.propagate_to_height(
            near, config.pose.z_ion, config.pose.cladding_thickness,
            config.stack.cladding_index).normalize()
        propagation.save_field(at_ion, path[f"ion_plane_{pol.lower()}.npz"])
        x, y = _peak_position(at_ion, (config.pose.x_ion, config.pose.y_ion))
        summary[f"peak_x_{pol.lower()}"] = x
        summary[f"peak_y_{pol.lower()}"] = y
    return summary


def _peak_position(fieldgrid, ion_xy):
    """(x, y) of the brightest pixel nearest the ion.

    Pixels within a relative 1e-9 of the maximum count as tied, so last-bit
    noise cannot choose the side of a mirror-symmetric field; an exact
    distance tie goes to +y."""
    intensity, i_max, _ = propagation.beam_cross_section(fieldgrid)
    rows, cols = np.nonzero(intensity >= i_max * (1.0 - 1e-9))
    x, y = fieldgrid.x[cols], fieldgrid.y[rows]
    dist2 = (x - ion_xy[0]) ** 2 + (y - ion_xy[1]) ** 2
    k = np.lexsort((-y, dist2))[0]
    return float(x[k]), float(y[k])


def _run_overlap(config, path):
    te, tm = (propagation.load_field(path[f"ion_plane_{pol}.npz"])
              for pol in ("te", "tm"))
    pose = config.pose
    full = overlap.collection_map(
        te, tm, (pose.x_ion - 8e-6, pose.x_ion + 8e-6),
        (pose.y_ion - 8e-6, pose.y_ion + 8e-6), 0.1e-6)
    # the +-5 um map at 0.2 um is the stride-2 window of that raster
    w = slice(30, -30, 2)
    m = overlap.CollectionMap(full.x[w], full.y[w], full.eta[w, w],
                              full.eta_te[w, w], full.eta_tm[w, w],
                              z=full.z)
    at_ion = overlap.coupling_at_point(te, tm, pose.x_ion, pose.y_ion)
    rep = overlap.crosstalk_metrics(full.eta_te, full.eta_tm, full.x,
                                    full.y)
    np.savetxt(path["collection_map.csv"], m.eta, delimiter=",",
               fmt="%.17g")
    return {"eta_at_ion": at_ion.eta,
            "eta_peak": float(m.eta.max()),
            "eta_peak_te": float(m.eta_te.max()),
            "eta_peak_tm": float(m.eta_tm.max()),
            "peak_x": m.peak[0], "peak_y": m.peak[1], "z": m.z,
            "tm_te_power_ratio": rep.power_ratio,
            "tm_suppression_db": rep.suppression_db,
            "maxima_offset": rep.offset}


def _run_detect(config, path):
    cfg = config.detection
    trials = config.detection_trials
    bright = detection.bright_fidelity_analytic(cfg)
    dark, dark_sigma = detection.dark_fidelity_mc(
        cfg, trials, seed=config.seeds["detection"])
    t_bright, t_mixed = detection.adaptive_timing(
        cfg, trials, seed=config.seeds["timing"])
    ledgers = {"measured": detection.measured_loss_ledger(),
               "emission_based": detection.emission_loss_ledger(),
               "improved": detection.improved_loss_ledger()}
    summary = {"bright_fidelity": bright,
               "dark_fidelity": dark,
               "dark_fidelity_sigma": dark_sigma,
               "bright_mean_time": t_bright,
               "mixed_mean_time": t_mixed,
               "signal_to_background": cfg.signal_to_background,
               "ledgers": {name: dict(zip(("db", "sigma_db"), l.total()))
                           for name, l in ledgers.items()}}
    for name, ledger in ledgers.items():
        detection.save_ledger(ledger, path[f"ledger_{name}.csv"])
    return summary


# name -> (upstream stages, files the runner writes, runner), in run order
_STAGES = {
    "emission": ((), ("emission_profile.csv",), _run_emission),
    "library": ((), ("library.json",), _run_library),
    "design": (("emission", "library"), ("layout.txt", "teeth.json"),
               _run_design),
    "propagate": (("design",), ("ion_plane_te.npz", "ion_plane_tm.npz"),
                  _run_propagate),
    "overlap": (("propagate",), ("collection_map.csv",), _run_overlap),
    "detect": ((), ("ledger_measured.csv", "ledger_emission_based.csv",
                    "ledger_improved.csv"), _run_detect),
}
STAGES = tuple(_STAGES)


def _artifacts(name) -> dict:
    """Manifest key -> file name of each file stage ``name`` writes."""
    return {os.path.join(name, f): f for f in _STAGES[name][1]}


def _closure(names) -> tuple:
    wanted = set()

    def visit(n):
        if n not in wanted:
            for dep in _STAGES[n][0]:
                visit(dep)
            wanted.add(n)

    for n in names:
        visit(n)
    return tuple(s for s in STAGES if s in wanted)


def run_pipeline(config: PipelineConfig, out_dir=None,
                 stages=None) -> dict:
    """Execute stages in dependency order and write the manifest.

    ``stages`` limits the run to the named stages plus their
    dependencies; by default everything runs.  Stages whose configuration
    slice, upstream keys, and artifact checksums are unchanged are not
    recomputed; an artifact whose stat signature matches its record in
    ``<out_dir>/artifact_stats.json`` is not read (see ``_ArtifactStats``).
    The manifest is written to ``<out_dir>/manifest.json`` after each
    recomputed stage, so a failure keeps the stages before it cached, and
    at the end if it differs from the one read at the start.  Returns the
    manifest dict with ``cached_stages`` and ``cache_reasons``, which maps
    each selected stage to ``hit``, ``key-changed`` (also for a stage with
    no earlier entry), ``artifact-missing``, ``checksum-mismatch`` or
    ``entry-malformed``.
    """
    for name in stages or ():
        if name not in STAGES:
            raise StageError(name, "unknown stage")
    selected = _closure(stages) if stages else STAGES
    out_dir = out_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    slices = _config_slices(config)
    manifest_path = os.path.join(out_dir, "manifest.json")
    document, previous, malformed = _read_previous_stages(manifest_path)
    artifact_stats = _ArtifactStats(out_dir)
    header = {"config_hash": _stage_key("config", config.raw, {}),
              "versions": {"iongrating": __version__,
                           "numpy": np.__version__,
                           "scipy": scipy.__version__}}
    entries, cached, keys, reasons = {}, [], {}, {}

    def write_manifest():
        nonlocal document
        merged = {**previous, **entries}
        manifest = {**header,
                    "stages": {n: merged[n] for n in STAGES if n in merged}}
        if manifest != document:
            _write_json(manifest_path, manifest)
            document = manifest
        return manifest

    for name in selected:
        depends, _, runner = _STAGES[name]
        keys[name] = _stage_key(name, slices[name],
                                {d: keys[d] for d in depends})
        prev = previous.get(name)
        if prev is None:
            reason = ("entry-malformed" if name in malformed
                      else "key-changed")
        elif prev["key"] != keys[name]:
            reason = "key-changed"
        else:
            # the first artifact that fails decides; the rest are not read
            reason = next(filter(None, (
                artifact_stats.mismatch(p, c)
                for p, c in prev["artifacts"].items())), "hit")
        reasons[name] = reason
        if reason == "hit":
            entries[name] = prev
            cached.append(name)
            continue
        # the upstream entries' files, all verified, and the stage's own
        path = {f: os.path.join(out_dir, rel) for d in (*depends, name)
                for rel, f in _artifacts(d).items()}
        os.makedirs(os.path.join(out_dir, name), exist_ok=True)
        try:
            summary = runner(config, path)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc
        entries[name] = {
            "key": keys[name],
            "summary": summary,
            "artifacts": {rel: artifact_stats.checksum(rel)
                          for rel in _artifacts(name)},
        }
        write_manifest()

    manifest = write_manifest()
    artifact_stats.save(manifest["stages"])
    manifest["cached_stages"] = cached
    manifest["cache_reasons"] = reasons
    return manifest


# ---------------------------------------------------------------------------
# Reporting

_float = "{:.4g}".format


def _list(values) -> str:
    return " ".join(map(str, values)) or "n/a"


# (title, stage, rows); each row is (label, summary keys, format), and a
# row without keys is a heading.  A section is printed when its stage's
# summary holds any of its keys: analytic libraries carry no solver
# diagnostics.
_REPORT = (
    ("geometry", "emission", (
        ("solid-angle fraction", ("solid_angle_fraction",), _float),
        ("per-mode bound", ("per_mode_bound",), _float),
        ("sigma share", ("sigma_share",), _float))),
    ("unit-cell solver", "library", (
        ("max periods run", ("max_periods_run",), str),
        ("max energy closure", ("max_closure",), _float),
        ("cells evaluated", ("cells_evaluated",), str),
        ("max search evaluations", ("max_search_nfev",), str))),
    ("design", "design", (
        ("teeth", ("n_teeth",), str),
        ("clamped / truncated teeth", ("n_clamped", "n_truncated"), str),
        ("fit relative L2", ("fit_relative_l2",), _float),
        ("fit status per start", ("fit_status",), _list),
        ("fit evaluations per start", ("fit_nfev",), _list),
        ("undiffracted power", ("undiffracted_power",), _float))),
    ("collection", "overlap", (
        ("eta at ion (field)", ("eta_at_ion",), _float),
        ("map peak at x", ("peak_x",), _float),
        ("crosstalk", (), None),
        ("TM/TE power ratio", ("tm_te_power_ratio",), _float),
        ("TM suppression (dB)", ("tm_suppression_db",), _float),
        ("maxima offset (m)", ("maxima_offset",), _float))),
    ("detection", "detect", (
        ("bright fidelity", ("bright_fidelity",), _float),
        ("dark fidelity", ("dark_fidelity",), _float),
        ("mean bright readout (s)", ("bright_mean_time",), _float))),
)


def report(manifest: dict) -> str:
    """One-page text summary of a run manifest.  Values missing from the
    manifest of an earlier release print as n/a."""
    stages = manifest.get("stages", {})
    if not stages:
        return "no stages have run\n"
    missing = [n for n in STAGES if n not in stages]
    lines = ["run summary", "==========="]
    if missing:
        lines.append("incomplete manifest; missing stages: "
                     + ", ".join(missing))
    for title, stage, rows in _REPORT:
        summary = stages.get(stage, {}).get("summary", {})
        if not any(k in summary for _, keys, _ in rows for k in keys):
            continue
        lines += ["", title]
        for label, keys, fmt in rows:
            if not keys:
                lines += ["", label]
                continue
            values = ("n/a" if summary.get(k) is None else fmt(summary[k])
                      for k in keys)
            lines.append(f"  {label:<25} {' / '.join(values)}")
        if stage == "detect":
            lines.append("  loss ledgers (dB):")
            ledgers = summary.get("ledgers") or {}
            for name in sorted(ledgers):
                entry = ledgers[name]
                lines.append(f"    {name:<16} {entry['db']:+.2f} "
                             f"± {entry['sigma_db']:.2f}")
    lines.append("")
    return "\n".join(lines)
