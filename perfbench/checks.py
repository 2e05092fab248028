"""Output checks for every benchmark operation.

Each check returns a list of failure messages; an empty list means the
output is correct.  A failed check counts the operation as failed; the
benchmark never drops or retries it.
"""

import hashlib
import math
import os

FOCUS_TOL_M = 2e-6            # TE ion-plane peak to the ion, per axis
FIT_L2_MAX = 0.10             # nominal pose: 0.05405
FIT_RESIDUAL_POWER_MAX = 0.10
CLOSURE_MAX = 0.09            # |1 - (p_trans + p_reflected + p_up + p_down)|
HALF_PITCH_RATIO_MAX = 0.05   # kappa(delta = pitch/2) / kappa(delta = 0)
PEAK_TOL_DEG = 1.0            # peak_angle to target_angle; seen: <= 0.42


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_cold(manifest, out_dir, x_ion, y_ion, stages):
    """A run_pipeline into an empty directory: every stage computed, the
    focus on the ion, the fit within bounds and every checksum valid."""
    fails = []
    if manifest.get("cached_stages"):
        fails.append(f"cold run served {manifest['cached_stages']} "
                     f"from cache")
    missing = [s for s in stages if s not in manifest["stages"]]
    if missing:
        fails.append(f"stages missing from manifest: {missing}")
        return fails
    prop = manifest["stages"]["propagate"]["summary"]
    for axis, ion in (("x", x_ion), ("y", y_ion)):
        err = abs(prop[f"peak_{axis}_te"] - ion)
        if not err <= FOCUS_TOL_M:
            fails.append(f"TE focus {axis} off the ion by {err * 1e6:.2f} um")
    design = manifest["stages"]["design"]["summary"]
    if not design["fit_relative_l2"] <= FIT_L2_MAX:
        fails.append(f"fit relative L2 {design['fit_relative_l2']:.4g} "
                     f"> {FIT_L2_MAX}")
    if not design["fit_residual_power"] <= FIT_RESIDUAL_POWER_MAX:
        fails.append(f"fit residual power {design['fit_residual_power']:.4g}"
                     f" > {FIT_RESIDUAL_POWER_MAX}")
    if design["fit_infeasible"]:
        fails.append("fit reported infeasible")
    for name, stage in manifest["stages"].items():
        for rel, digest in stage["artifacts"].items():
            path = os.path.join(out_dir, rel)
            if not os.path.exists(path):
                fails.append(f"{name}: artifact {rel} missing")
            elif _sha256(path) != digest:
                fails.append(f"{name}: checksum of {rel} does not verify")
    return fails


def check_warm(manifest, stages, manifest_before, manifest_after):
    """A rerun on a filled directory: all stages cached, manifest bytes
    unchanged."""
    fails = []
    uncached = [s for s in stages if s not in manifest["cached_stages"]]
    if uncached:
        fails.append(f"rerun recomputed {uncached}")
    if manifest_before != manifest_after:
        fails.append("manifest.json changed on a cached rerun")
    return fails


def closure_error(cell):
    """|1 - (p_trans + p_reflected + p_up + p_down)| of a CellResult."""
    return abs(1.0 - (cell.p_trans + cell.p_reflected + cell.p_up
                      + cell.p_down))


def check_cell(entry, cell, shifted):
    """One library entry and the solver result behind it."""
    fails = []
    if not math.isfinite(entry.kappa) or entry.kappa < 0:
        fails.append(f"kappa {entry.kappa!r} not finite and >= 0")
    elif not shifted and entry.kappa == 0:
        fails.append("unshifted cell has kappa 0")
    err = closure_error(cell)
    if not err <= CLOSURE_MAX:
        fails.append(f"energy closure off by {err:.4f} > {CLOSURE_MAX}")
    if not shifted:
        off = math.degrees(abs(cell.peak_angle - cell.target_angle))
        if not off <= PEAK_TOL_DEG:
            fails.append(f"peak angle {math.degrees(cell.peak_angle):.2f} "
                         f"deg more than {PEAK_TOL_DEG} deg off the target "
                         f"{math.degrees(cell.target_angle):.2f} deg")
    return fails


def check_half_pitch(kappa0, kappa_half):
    """The half-pitch zone shift suppresses coupling."""
    ratio = kappa_half / kappa0 if kappa0 > 0 else math.inf
    if not ratio <= HALF_PITCH_RATIO_MAX:
        return [f"half-pitch kappa ratio {ratio:.4g} "
                f"> {HALF_PITCH_RATIO_MAX}"]
    return []
