"""Stage orchestration: dependency-ordered execution with content caching.

Each stage hashes its configuration slice together with the keys of the
stages it depends on; a stage whose key and artifact checksums are
unchanged from the previous run is not recomputed.  A stage reads its
inputs from the artifacts of the stages it depends on, whether those ran
now or earlier, so a fully cached run parses no artifact.  The run
manifest lists every artifact with its checksum and is rewritten after
each recomputed stage.
"""

import dataclasses
import hashlib
import json
import os
import warnings
from importlib import metadata

import numpy as np

from . import __version__, designer, detection, dipole, fdtd, geometry, \
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


def _read_previous_stages(manifest_path) -> dict:
    """Stage entries of an earlier run; an unreadable manifest counts as
    no earlier run, and a malformed stage entry as a stage that has not
    run, each with a warning."""
    if not os.path.exists(manifest_path):
        return {}
    try:
        with open(manifest_path) as fh:
            stages = json.load(fh).get("stages", {})
        if not isinstance(stages, dict):
            raise ValueError("'stages' is not a mapping")
    except (OSError, ValueError, AttributeError) as exc:
        warnings.warn(f"ignoring unreadable manifest {manifest_path}: {exc}",
                      RuntimeWarning, stacklevel=3)
        return {}
    usable = {}
    for name, entry in stages.items():
        if (isinstance(entry, dict) and isinstance(entry.get("key"), str)
                and isinstance(entry.get("artifacts"), dict)
                and isinstance(entry.get("artifact_names"), dict)):
            usable[name] = entry
        else:
            warnings.warn(f"ignoring malformed stage {name!r} in manifest "
                          f"{manifest_path}", RuntimeWarning, stacklevel=3)
    return usable


def _config_slices(config: PipelineConfig) -> dict:
    base = {"wavelength": config.wavelength,
            "stack": dataclasses.asdict(config.stack),
            "footprint": (config.footprint.x_extent,
                          config.footprint.y_extent),
            "pose": (config.pose.x_ion, config.pose.y_ion,
                     config.pose.height_above_surface,
                     config.pose.cladding_thickness)}
    det = {k: getattr(config.detection, k)
           for k in ("bright_rate", "dark_rate", "window", "threshold",
                     "bins", "d_lifetime", "shelving_failure")}
    lib = {**base, **config.library, "seed": config.seeds["library"]}
    path = config.library.get("path")
    if config.library["mode"] == "file" and path and os.path.isfile(path):
        # a rewritten library file must recompute the stage
        lib["file_sha256"] = _sha256_file(path)
    return {
        "solid_angle": base,
        "emission": {**base, "axis": config.designer["quantization_axis"]},
        "library": lib,
        "design": {**base, **config.designer},
        "synthesize": {**base, **config.propagation},
        "propagate": base,
        "overlap": base,
        "crosstalk": base,
        "detect": {**det, "trials": config.detection_trials,
                   "seed_detection": config.seeds["detection"],
                   "seed_timing": config.seeds["timing"]},
    }


# ---------------------------------------------------------------------------
# Library construction

def analytic_library(config: PipelineConfig) -> liblib.ParamLibrary:
    """Design-grade library from the grating equation, no field solver.

    Pitches come from the duty-averaged local effective index; the
    coupling strength follows the two-zone interference model
    kappa(delta) = kappa0 cos^2(pi delta / pitch), which vanishes at the
    half-pitch shift.  Labeled analytic in the provenance.
    """
    lib_cfg = config.library
    angles = [np.deg2rad(a) for a in lib_cfg["angles_deg"]]
    fracs = list(lib_cfg["delta_fracs"])
    dcu, dcl = lib_cfg["duty_upper"], lib_cfg["duty_lower"]
    entries = {}
    for i, angle in enumerate(angles):
        pitch = liblib.pitch_for_angle(angle, dcu, dcl, config.stack,
                                       config.wavelength)
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
    swarm_cfg = config.library.get("swarm", {})
    kernel = liblib.KernelConfig(
        wavelength=config.wavelength, stack=config.stack,
        n_periods=config.library["n_periods"],
        points_per_wavelength=config.library["points_per_wavelength"])
    swarm = liblib.SwarmConfig(seed=config.seeds["library"], **swarm_cfg)
    return liblib.build_library(
        [np.deg2rad(a) for a in config.library["angles_deg"]],
        config.library["delta_fracs"], kernel, swarm,
        cache_dir=config.library.get("cache_dir"))


# ---------------------------------------------------------------------------
# Stage bodies: each reads the artifacts of the stages it depends on from
# ``inputs`` (artifact name -> path) and returns (summary dict, artifacts
# dict name->path).

def _axis(config: PipelineConfig) -> dipole.QuantizationAxis:
    name = config.designer["quantization_axis"]
    try:
        return getattr(dipole.QuantizationAxis, name)()
    except AttributeError:
        raise StageError("emission", f"unknown quantization axis {name!r}")


def _run_solid_angle(config, inputs, stage_dir):
    fraction = geometry.solid_angle_fraction(
        config.footprint, config.pose, config.stack.cladding_index)
    summary = {"solid_angle_fraction": fraction,
               "per_mode_bound": fraction / 2.0}
    path = os.path.join(stage_dir, "solid_angle.json")
    _write_json(path, summary)
    return summary, {"solid_angle": path}


def _run_emission(config, inputs, stage_dir):
    x, profile = dipole.ion_intensity_profile(
        _axis(config), config.footprint, config.pose, 512,
        n_cladding=config.stack.cladding_index)
    path = os.path.join(stage_dir, "emission_profile.csv")
    np.savetxt(path, np.column_stack([x, profile]), delimiter=",",
               header="x_m,intensity_per_m", fmt="%.17g")
    total = float(np.trapezoid(profile, x))
    return {"profile_integral": total,
            "peak_intensity_per_m": float(profile.max())}, \
        {"emission_profile": path}


def _run_library(config, inputs, stage_dir):
    lib = _build_library(config)
    if not lib.complete:
        failed = [e for e in lib.entries.values() if e.error is not None]
        first = failed[0] if failed else None
        detail = (f"; first at {np.rad2deg(first.angle):.2f} deg, delta "
                  f"fraction {first.delta_frac:g}: {first.error}"
                  if first else "")
        raise StageError("library", f"{len(failed)} of {len(lib.entries)} "
                         f"unit-cell entries failed{detail}")
    path = os.path.join(stage_dir, "library.json")
    liblib.save_library(lib, path)
    kappas = lib.kappa_grid()
    return {"mode": config.library["mode"],
            "n_angles": len(lib.angles),
            "n_delta_fracs": len(lib.delta_fracs),
            "kappa_peak": float(np.nanmax(kappas))}, {"library": path}


def _run_design(config, inputs, stage_dir):
    x, profile = np.loadtxt(inputs["emission_profile"], delimiter=",",
                            unpack=True)
    lib = liblib.load_library(inputs["library"])
    dz_cfg = config.designer
    ansatz, fit = designer.fit_kappa(
        profile, x, alpha=dz_cfg["alpha"], kappa_max=dz_cfg["kappa_max"],
        form=dz_cfg["form"])
    teeth = designer.discretize(ansatz, lib, config.footprint, config.pose,
                                config.stack)
    n_slab = geometry.effective_index(config.stack, config.wavelength)
    phase = designer.slab_phase_map(0.0, n_slab, config.wavelength,
                                    mode=dz_cfg["phase_mode"])
    focus = (config.pose.x_ion, config.pose.y_ion,
             config.pose.height_above_surface)
    for tooth in teeth:
        designer.curve_tooth(tooth, focus, phase, config.stack, config.pose,
                             config.wavelength)
    zone_period = designer.default_zone_period(config.stack,
                                               config.wavelength)
    layout = designer.emit_layout(teeth, zone_period, config.footprint,
                                  config.stack, config.wavelength)
    layout_path = os.path.join(stage_dir, "layout.txt")
    designer.export_layout(layout, layout_path)
    teeth_path = os.path.join(stage_dir, "teeth.json")
    _write_json(teeth_path, [dataclasses.asdict(t) for t in teeth])
    drained, residual = designer.tooth_power_accounting(teeth)
    summary = {"n_teeth": len(teeth),
               "fit_relative_l2": fit.relative_l2,
               "fit_residual_power": fit.residual_power,
               "fit_infeasible": bool(fit.infeasible),
               "fit_status": [s.status for s in fit.starts],
               "fit_nfev": [s.nfev for s in fit.starts],
               "drained_power": float(np.sum(drained)),
               "undiffracted_power": residual,
               "zone_period": zone_period}
    summary_path = os.path.join(stage_dir, "design.json")
    _write_json(summary_path, summary)
    return summary, {"layout": layout_path, "teeth": teeth_path,
                     "design": summary_path}


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
    is the source of the TE/TM focal displacement.
    """
    cell = fdtd.default_cell_size(config.stack, config.wavelength,
                                  config.library["points_per_wavelength"])
    n_tm = fdtd.grating_effective_index(config.stack, teeth[0].params, cell,
                                        config.wavelength, "TM")
    n_clad = config.stack.cladding_index
    out = []
    for t in teeth:
        s = (n_tm - config.wavelength / t.pitch) / n_clad
        if not -1.0 < s < 1.0:
            continue  # this period does not outcouple the TM mode
        out.append(dataclasses.replace(t, angle=float(np.arcsin(s))))
    if not out:
        raise StageError("synthesize", "no tooth outcouples the TM mode")
    return out


def _run_synthesize(config, inputs, stage_dir):
    shape = tuple(config.propagation["shape"])
    s = config.propagation["pixel_size"]
    teeth = _read_teeth(inputs["teeth"])
    artifacts, summary = {}, {}
    for pol, pol_teeth in (("TE", teeth), ("TM", _tm_teeth(config, teeth))):
        field = propagation.synthesize_near_field(
            pol_teeth, config.footprint, config.stack, config.wavelength,
            polarization=pol, shape=shape, pixel_size=s)
        path = os.path.join(stage_dir, f"near_field_{pol.lower()}.npz")
        propagation.save_field(field, path)
        artifacts[f"near_{pol.lower()}"] = path
        summary[f"power_{pol.lower()}"] = field.power()
    return summary, artifacts


def _run_propagate(config, inputs, stage_dir):
    z_ion = config.pose.z_ion
    artifacts, summary = {}, {}
    for pol in ("TE", "TM"):
        near = propagation.load_field(inputs[f"near_{pol.lower()}"])
        at_ion = propagation.propagate_to_height(
            near, z_ion, config.pose.cladding_thickness,
            config.stack.cladding_index).normalize()
        path = os.path.join(stage_dir, f"ion_plane_{pol.lower()}.npz")
        propagation.save_field(at_ion, path)
        artifacts[f"ion_{pol.lower()}"] = path
        _, i_max, idx = propagation.beam_cross_section(at_ion)
        summary[f"peak_x_{pol.lower()}"] = float(at_ion.x[idx[1]])
        summary[f"peak_y_{pol.lower()}"] = float(at_ion.y[idx[0]])
    return summary, artifacts


def _run_overlap(config, inputs, stage_dir):
    te, tm = (propagation.load_field(inputs[n])
              for n in ("ion_te", "ion_tm"))
    pose = config.pose
    m = overlap.collection_map(
        te, tm, (pose.x_ion - 5e-6, pose.x_ion + 5e-6),
        (pose.y_ion - 5e-6, pose.y_ion + 5e-6), 0.2e-6,
        wavelength=config.wavelength)
    at_ion = overlap.coupling_at_point(te, tm, pose.x_ion, pose.y_ion,
                                       wavelength=config.wavelength)
    comb = overlap.combine_intensity_profiles(te, tm)
    j, i = np.unravel_index(np.argmax(comb), comb.shape)
    eta5 = overlap.efficiency_from_intensity(comb[j, i], te.pixel_size,
                                             config.wavelength)
    map_path = os.path.join(stage_dir, "collection_map.csv")
    np.savetxt(map_path, m.eta, delimiter=",", fmt="%.17g")
    meta_path = os.path.join(stage_dir, "collection_map_meta.json")
    summary = {"eta_at_ion": at_ion.eta,
               "eta_peak": float(m.eta.max()),
               "eta_peak_te": float(m.eta_te.max()),
               "eta_peak_tm": float(m.eta_tm.max()),
               "peak_x": m.peak[0], "peak_y": m.peak[1],
               "eta_intensity_formula": eta5, "z": m.z}
    _write_json(meta_path, summary)
    return summary, {"collection_map": map_path,
                     "collection_map_meta": meta_path}


def _run_crosstalk(config, inputs, stage_dir):
    te, tm = (propagation.load_field(inputs[n])
              for n in ("ion_te", "ion_tm"))
    pose = config.pose
    extent_x = (pose.x_ion - 8e-6, pose.x_ion + 8e-6)
    extent_y = (pose.y_ion - 8e-6, pose.y_ion + 8e-6)
    m = overlap.collection_map(te, tm, extent_x, extent_y, 0.1e-6,
                               wavelength=config.wavelength)
    rep = overlap.crosstalk_metrics(m.eta_te, m.eta_tm, m.x, m.y)
    summary = {"tm_te_power_ratio": rep.power_ratio,
               "tm_suppression_db": rep.suppression_db,
               "maxima_offset": rep.offset}
    path = os.path.join(stage_dir, "crosstalk.json")
    _write_json(path, summary)
    return summary, {"crosstalk": path}


def _run_detect(config, inputs, stage_dir):
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
    artifacts = {}
    for name, ledger in ledgers.items():
        path = os.path.join(stage_dir, f"ledger_{name}.csv")
        detection.save_ledger(ledger, path)
        artifacts[f"ledger_{name}"] = path
    path = os.path.join(stage_dir, "detection.json")
    _write_json(path, summary)
    artifacts["detection"] = path
    return summary, artifacts


# name -> (stages whose artifacts the runner reads, runner), in run order
_STAGES = {
    "solid_angle": ((), _run_solid_angle),
    "emission": ((), _run_emission),
    "library": ((), _run_library),
    "design": (("emission", "library"), _run_design),
    "synthesize": (("design",), _run_synthesize),
    "propagate": (("synthesize",), _run_propagate),
    "overlap": (("propagate",), _run_overlap),
    "crosstalk": (("propagate",), _run_crosstalk),
    "detect": ((), _run_detect),
}
STAGES = tuple(_STAGES)


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
    recomputed.  The manifest is written to ``<out_dir>/manifest.json``
    after each recomputed stage, so a failure keeps the stages before it
    cached, and once more at the end.  Returns the manifest dict.
    """
    for name in stages or ():
        if name not in STAGES:
            raise StageError(name, "unknown stage")
    selected = _closure(stages) if stages else STAGES
    out_dir = out_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    slices = _config_slices(config)
    manifest_path = os.path.join(out_dir, "manifest.json")
    previous = _read_previous_stages(manifest_path)
    header = {"config_hash": _stage_key("config", config.raw, {}),
              "versions": {"iongrating": __version__,
                           "numpy": metadata.version("numpy"),
                           "scipy": metadata.version("scipy")}}
    entries, cached, keys = {}, [], {}

    def write_manifest():
        merged = {**previous, **entries}
        manifest = {**header,
                    "stages": {n: merged[n] for n in STAGES if n in merged}}
        _write_json(manifest_path, manifest)
        return manifest

    for name in selected:
        depends, runner = _STAGES[name]
        keys[name] = _stage_key(name, slices[name],
                                {d: keys[d] for d in depends})
        prev = previous.get(name)
        if (prev and prev.get("key") == keys[name]
                and all(os.path.exists(os.path.join(out_dir, p))
                        and _sha256_file(os.path.join(out_dir, p)) == c
                        for p, c in prev["artifacts"].items())):
            entries[name] = prev
            cached.append(name)
            continue
        inputs = {n: os.path.join(out_dir, p) for d in depends
                  for n, p in entries[d]["artifact_names"].items()}
        stage_dir = os.path.join(out_dir, name)
        os.makedirs(stage_dir, exist_ok=True)
        try:
            summary, artifacts = runner(config, inputs, stage_dir)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc
        rel = {n: os.path.relpath(p, out_dir) for n, p in artifacts.items()}
        entries[name] = {
            "key": keys[name],
            "summary": summary,
            "artifact_names": rel,
            "artifacts": {p: _sha256_file(os.path.join(out_dir, p))
                          for p in rel.values()},
        }
        write_manifest()

    manifest = write_manifest()
    manifest["cached_stages"] = cached
    return manifest


# ---------------------------------------------------------------------------
# Reporting

def _fmt(value, digits=4):
    return f"{value:.{digits}g}"


def _fmt_list(values):
    """Space-separated list; manifests from before per-start diagnostics
    have none."""
    return " ".join(str(v) for v in values) if values else "n/a"


def report(manifest: dict) -> str:
    """One-page text summary of a run manifest."""
    stages = manifest.get("stages", {})
    if not stages:
        return "no stages have run\n"
    missing = [n for n in STAGES if n not in stages]
    lines = ["run summary", "==========="]
    if missing:
        lines.append("incomplete manifest; missing stages: "
                     + ", ".join(missing))
    get = lambda stage, key: stages.get(stage, {}).get(
        "summary", {}).get(key)
    if "solid_angle" in stages:
        lines += ["",
                  "geometry",
                  f"  solid-angle fraction      "
                  f"{_fmt(get('solid_angle', 'solid_angle_fraction'))}",
                  f"  per-mode bound            "
                  f"{_fmt(get('solid_angle', 'per_mode_bound'))}"]
    if "design" in stages:
        lines += ["",
                  "design",
                  f"  teeth                     {get('design', 'n_teeth')}",
                  f"  fit relative L2           "
                  f"{_fmt(get('design', 'fit_relative_l2'))}",
                  f"  fit status per start      "
                  f"{_fmt_list(get('design', 'fit_status'))}",
                  f"  fit evaluations per start "
                  f"{_fmt_list(get('design', 'fit_nfev'))}",
                  f"  undiffracted power        "
                  f"{_fmt(get('design', 'undiffracted_power'))}"]
    if "overlap" in stages:
        lines += ["",
                  "collection",
                  f"  eta at ion (field)        "
                  f"{_fmt(get('overlap', 'eta_at_ion'))}",
                  f"  eta (intensity formula)   "
                  f"{_fmt(get('overlap', 'eta_intensity_formula'))}",
                  f"  map peak at x             "
                  f"{_fmt(get('overlap', 'peak_x'))}"]
    if "crosstalk" in stages:
        lines += ["",
                  "crosstalk",
                  f"  TM/TE power ratio         "
                  f"{_fmt(get('crosstalk', 'tm_te_power_ratio'))}",
                  f"  TM suppression (dB)       "
                  f"{_fmt(get('crosstalk', 'tm_suppression_db'))}",
                  f"  maxima offset (m)         "
                  f"{_fmt(get('crosstalk', 'maxima_offset'))}"]
    if "detect" in stages:
        ledgers = get("detect", "ledgers") or {}
        lines += ["",
                  "detection",
                  f"  bright fidelity           "
                  f"{_fmt(get('detect', 'bright_fidelity'))}",
                  f"  dark fidelity             "
                  f"{_fmt(get('detect', 'dark_fidelity'))}",
                  f"  mean bright readout (s)   "
                  f"{_fmt(get('detect', 'bright_mean_time'))}",
                  "  loss ledgers (dB):"]
        for name in sorted(ledgers):
            entry = ledgers[name]
            lines.append(f"    {name:<16} {entry['db']:+.2f} "
                         f"± {entry['sigma_db']:.2f}")
    lines.append("")
    return "\n".join(lines)
