"""Configuration layering, stage orchestration/caching, and the CLI."""

import dataclasses
import hashlib
import json
import os
import re
import shutil
import time
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from iongrating import config, designer, fdtd, library as liblib, \
    overlap, pipeline, propagation
from iongrating.cli import main
from iongrating.config import (PipelineConfig, default_config_dict,
                               load_config, write_default_config)
from iongrating.geometry import default_stack

FAST = {"detection": {"trials": 20000}}


# ---------------------------------------------------------------------------
# configuration

def test_default_config_loads():
    cfg = load_config()
    assert cfg.wavelength == pytest.approx(422e-9)
    assert cfg.stack.layers == default_stack().layers
    assert cfg.seeds == {"library": 0, "detection": 1, "timing": 2}
    assert cfg.library["mode"] == "analytic"


def test_unknown_key_rejected():
    with pytest.raises(KeyError, match="wavelenght"):
        PipelineConfig.from_dict({"wavelenght": 400e-9})
    with pytest.raises(KeyError, match="modee"):
        PipelineConfig.from_dict({"library": {"modee": "file"}})


def test_config_validation():
    with pytest.raises(ValueError, match="library mode"):
        PipelineConfig.from_dict({"library": {"mode": "oracle"}})
    with pytest.raises(ValueError, match="seed"):
        PipelineConfig.from_dict({"seeds": {"timing": None}})
    with pytest.raises(ValueError, match="trials"):
        PipelineConfig.from_dict({"detection": {"trials": 100}})


@pytest.mark.parametrize("entry, message", [
    ({"shape": [512.5, 512]},
     "propagation.shape: expected two positive integers, got [512.5, 512]"),
    ({"shape": [512]},
     "propagation.shape: expected two positive integers, got [512]"),
    ({"shape": [0, 512]},
     "propagation.shape: expected two positive integers, got [0, 512]"),
    ({"pixel_size": -1e-7},
     "propagation.pixel_size must be positive, got -1e-07"),
], ids=["shape-fraction", "shape-one-int", "shape-zero",
        "pixel-size-negative"])
def test_cli_propagation_raster_is_checked_at_load(tmp_path, entry,
                                                   message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"propagation": entry}))
    out = tmp_path / "run"
    result = CliRunner().invoke(main, ["propagate", "--config", str(bad),
                                       "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"config-error: {message}"]
    assert not out.exists()  # no stage ran


def test_propagation_shape_takes_integral_numbers():
    cfg = load_config(overrides={"propagation": {"shape": [256.0, 256]}})
    assert cfg.propagation["shape"] == [256, 256]
    assert all(type(n) is int for n in cfg.propagation["shape"])
    assert pipeline._config_slices(cfg) == pipeline._config_slices(
        load_config())


def test_override_layering(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"pose": {"x_ion": 30e-6}}))
    cfg = load_config(path, overrides={"pose": {"y_ion": 1e-6}})
    assert cfg.pose.x_ion == pytest.approx(30e-6)   # from file
    assert cfg.pose.y_ion == pytest.approx(1e-6)    # from override
    # untouched defaults survive the merge
    assert cfg.pose.height_above_surface == pytest.approx(50e-6)


def test_default_yaml_round_trip(tmp_path):
    path = tmp_path / "default.yaml"
    write_default_config(path)
    cfg = load_config(path)
    assert cfg.raw == default_config_dict()


def test_custom_stack_entry():
    cfg = PipelineConfig.from_dict({"stack": {
        "layers": [{"name": "core", "thickness": 0.2e-6,
                    "refractive_index": 2.0}],
        "cladding_index": 1.45,
    }})
    assert len(cfg.stack.layers) == 1
    assert cfg.stack.cladding_index == pytest.approx(1.45)
    assert cfg.stack.guiding == ("core",)


# ---------------------------------------------------------------------------
# pipeline

@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = load_config(overrides={**FAST, "output_dir": str(out)})
    manifest = pipeline.run_pipeline(cfg)
    return out, cfg, manifest


def test_config_slices_cover_the_stages():
    # a slice left behind for a deleted stage, or a stage without one
    assert set(pipeline._config_slices(load_config())) == set(
        pipeline.STAGES)


def test_manifest_covers_all_stages(run_dir):
    out, _, manifest = run_dir
    assert set(manifest["stages"]) == set(pipeline.STAGES)
    for name, stage in manifest["stages"].items():
        for rel, checksum in stage["artifacts"].items():
            path = out / rel
            assert path.exists(), f"{name}: missing {rel}"
            assert len(checksum) == 64


def test_manifest_versions_are_the_imported_modules(run_dir):
    import scipy
    from iongrating import __version__
    assert run_dir[2]["versions"] == {"iongrating": __version__,
                                      "numpy": np.__version__,
                                      "scipy": scipy.__version__}


def test_package_version_is_the_project_version():
    # every stage key holds __version__, so the two must move together
    from iongrating import __version__
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "pyproject.toml")
    with open(path, encoding="utf-8") as fh:
        versions = re.findall(r'^version = "([^"]*)"$', fh.read(), re.M)
    assert versions == [__version__]


@pytest.mark.parametrize("preload", ["", "import numpy"],
                         ids=["without-numpy", "with-numpy"])
def test_manifest_versions_in_a_fresh_process(run_dir, tmp_path,
                                              heavy_after, preload):
    # a warm run keeps the versions of the manifest it read, so it loads
    # neither numpy nor importlib.metadata to look them up
    import scipy
    from iongrating import __version__
    out, cfg, _ = run_dir
    pipeline.run_pipeline(cfg)
    dump = tmp_path / "versions.json"
    overrides = {**FAST, "output_dir": str(out)}
    code = (f"{preload}\nimport json, sys\n"
            "from iongrating import config, pipeline\n"
            "m = pipeline.run_pipeline(config.load_config(overrides="
            f"{overrides!r}))\n"
            f"open({str(dump)!r}, 'w').write(json.dumps(m['versions']))\n"
            "assert 'importlib.metadata' not in sys.modules")
    assert heavy_after(code) == (["numpy"] if preload else [])
    assert json.loads(dump.read_text()) == {"iongrating": __version__,
                                            "numpy": np.__version__,
                                            "scipy": scipy.__version__}


def test_a_run_that_recomputes_nothing_keeps_the_versions_it_read(tmp_path):
    import scipy
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    pipeline.run_pipeline(cfg, stages=["detect"])
    path = tmp_path / "manifest.json"
    document = json.loads(path.read_text())
    document["versions"]["numpy"] = "0.0"
    path.write_text(json.dumps(document))
    kept = pipeline.run_pipeline(cfg, stages=["detect"])
    assert kept["cached_stages"] == ["detect"]
    assert kept["versions"]["numpy"] == "0.0"
    # without a usable entry, the modules' versions
    del document["versions"]
    path.write_text(json.dumps(document))
    rewritten = pipeline.run_pipeline(cfg, stages=["detect"])
    assert rewritten["cached_stages"] == ["detect"]
    assert json.loads(path.read_text())["versions"] == {
        "iongrating": pipeline.__version__, "numpy": np.__version__,
        "scipy": scipy.__version__}


def test_pyproject_version_is_the_package_version():
    # only __version__ reaches the stage keys, and both are bumped by hand;
    # a regex reads the file, since Python 3.10 has no tomllib
    import re
    from pathlib import Path
    from iongrating import __version__
    text = (Path(__file__).resolve().parents[1]
            / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text,
                        re.M | re.S).group(1)
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
    assert version and version.group(1) == __version__


def test_rerun_is_fully_cached(run_dir):
    out, cfg, _ = run_dir
    before = (out / "manifest.json").read_text()
    manifest = pipeline.run_pipeline(cfg)
    assert set(manifest["cached_stages"]) == set(pipeline.STAGES)
    assert manifest["cache_reasons"] == dict.fromkeys(pipeline.STAGES, "hit")
    assert (out / "manifest.json").read_text() == before


def test_seed_change_recomputes_only_detection(run_dir, tmp_path):
    out, _, _ = run_dir
    cfg = load_config(overrides={**FAST, "output_dir": str(out),
                                 "seeds": {"detection": 99}})
    manifest = pipeline.run_pipeline(cfg)
    assert "detect" not in manifest["cached_stages"]
    assert set(manifest["cached_stages"]) == set(pipeline.STAGES) - {
        "detect"}
    assert manifest["cache_reasons"]["detect"] == "key-changed"


def test_library_seed_change_recomputes_nothing(tmp_path):
    # the library stage has no randomness; its old seed is still accepted
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    pipeline.run_pipeline(cfg, stages=["design"])
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path),
                                 "seeds": {"library": 99}})
    manifest = pipeline.run_pipeline(cfg, stages=["design"])
    assert set(manifest["cached_stages"]) == {"emission", "library",
                                              "design"}


def test_moving_the_ion_keeps_the_library(tmp_path):
    # the unit cells depend on the stack and the wavelength, not the pose
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    pipeline.run_pipeline(cfg, stages=["design"])
    manifest = pipeline.run_pipeline(_move_ion(cfg, None), stages=["design"])
    assert manifest["cache_reasons"] == {
        "emission": "key-changed", "library": "hit", "design": "key-changed"}


def test_version_change_recomputes_every_stage(run_dir, tmp_path,
                                               monkeypatch):
    out, _, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    cfg = load_config(overrides={**FAST, "output_dir": str(copy)})
    monkeypatch.setattr(pipeline, "__version__", "0.0.0+other")
    manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == []


def test_run_from_csv_field_release_recomputes(run_dir, tmp_path,
                                              monkeypatch):
    """Release 0.2.0 stored fields as CSV, which load_field refuses; its
    stage keys differ, so such a run recomputes instead of loading them."""
    out, _, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    cfg = load_config(overrides={**FAST, "output_dir": str(copy)})
    with monkeypatch.context() as m:
        m.setattr(pipeline, "__version__", "0.2.0")
        pipeline.run_pipeline(cfg)
    manifest_path = copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["stages"]["propagate"]
    for rel in list(entry["artifacts"]):
        csv = rel.replace(".npz", ".csv")
        os.remove(copy / rel)
        (copy / csv).write_text("# field grid v1\n")
        del entry["artifacts"][rel]
        entry["artifacts"][csv] = pipeline._sha256_file(copy / csv)
    manifest_path.write_text(json.dumps(manifest))
    # the CSV names are not the files propagate writes
    with pytest.warns(RuntimeWarning, match="malformed stage 'propagate'"):
        manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == []
    assert manifest["cache_reasons"]["propagate"] == "entry-malformed"


def test_truncated_manifest_is_treated_as_empty(run_dir, tmp_path):
    out, _, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "manifest.json"
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    cfg = load_config(overrides={**FAST, "output_dir": str(copy)})
    with pytest.warns(RuntimeWarning, match="unreadable manifest"):
        manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == []
    assert manifest["cache_reasons"] == dict.fromkeys(pipeline.STAGES,
                                                      "entry-malformed")
    # the rewritten manifest is whole again, and no temporary is left
    assert json.loads(path.read_text())["stages"].keys() == set(
        pipeline.STAGES)
    assert [p for p in os.listdir(copy) if ".tmp" in p] == []


def test_design_summary_reports_fit_starts(run_dir):
    # one drain-target search, where the ansatz fit reported two starts
    _, _, manifest = run_dir
    design = manifest["stages"]["design"]["summary"]
    assert "fit_status" not in design
    assert 0.0 < design["fit_drain_target"] <= 1.0
    assert type(design["fit_nfev"]) is int and design["fit_nfev"] > 0
    assert design["fit_relative_l2"] <= 0.0500
    text = pipeline.report(manifest)
    assert (f"fit drain target          "
            f"{design['fit_drain_target']:.4g}\n") in text
    assert f"fit evaluations           {design['fit_nfev']}\n" in text


@pytest.fixture(scope="module")
def offaxis_run(tmp_path_factory):
    # an ion 25 um off axis needs curve offsets beyond 5 um, and a weak
    # library cannot meet every fitted kappa
    out = tmp_path_factory.mktemp("offaxis")
    cfg = load_config(overrides={**FAST, "output_dir": str(out),
                                 "pose": {"y_ion": 25e-6},
                                 "library": {"kappa0": 0.2e6}})
    return out, cfg, pipeline.run_pipeline(cfg, stages=["design"])


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    # a footprint 40 um wide: the curvature must reach its +-20 um edges
    out = tmp_path_factory.mktemp("wide")
    cfg = load_config(overrides={**FAST, "output_dir": str(out),
                                 "footprint": {"y_extent": 40e-6}})
    return out, cfg, pipeline.run_pipeline(cfg, stages=["overlap"])


def test_design_summary_counts_clamped_and_truncated_teeth(offaxis_run):
    out, _, manifest = offaxis_run
    summary = manifest["stages"]["design"]["summary"]
    teeth = json.loads((out / "design" / "teeth.json").read_text())
    # both flags are JSON bools, also where the library clamped the tooth
    assert all(type(t["clamped"]) is bool and type(t["truncated"]) is bool
               for t in teeth)
    n_clamped = sum(t["clamped"] for t in teeth)
    n_truncated = sum(t["truncated"] for t in teeth)
    assert n_clamped == 14
    # every curve sample converges, however far off axis
    assert n_truncated == 0 and n_clamped < len(teeth)
    assert all(len(t["curvature"]) == 61 for t in teeth)
    assert (summary["n_clamped"], summary["n_truncated"]) == (
        n_clamped, n_truncated)
    assert (f"clamped / truncated teeth {n_clamped} / {n_truncated}"
            in pipeline.report(manifest))


def _exit_path(x, y, focus, pose, n_clad):
    """Optical path from grating points (x, y) up to ``focus``, found apart
    from the designer's ray solve: Fermat's minimum over the horizontal
    run r of the refraction point, by bisection of its slope on [0, rho]."""
    fx, fy, fz = focus
    t_c = pose.cladding_thickness
    rho = np.hypot(fx - np.asarray(x), fy - np.asarray(y))
    lo, hi = np.zeros_like(rho), rho.copy()
    for _ in range(200):
        r = 0.5 * (lo + hi)
        rising = (n_clad * r / np.hypot(r, t_c)
                  - (rho - r) / np.hypot(rho - r, fz)) > 0
        lo, hi = np.where(rising, lo, r), np.where(rising, r, hi)
    r = 0.5 * (lo + hi)
    return n_clad * np.hypot(r, t_c) + np.hypot(rho - r, fz)


@pytest.mark.parametrize("run", ["run_dir", "offaxis_run", "wide_run"])
def test_curved_teeth_meet_the_equal_path_rule(run, request):
    # n u + exit(x + u, y) = exit(x, 0) at every sample of every tooth,
    # and the samples span the footprint's width 0.5 um apart
    out, cfg, _ = request.getfixturevalue(run)
    teeth = pipeline._read_teeth(out / "design" / "teeth.json")
    pose, n_clad = cfg.pose, cfg.stack.cladding_index
    focus = (pose.x_ion, pose.y_ion, pose.height_above_surface)
    half_w = cfg.footprint.y_extent / 2
    offsets = []
    for t in teeth:
        y, u = np.array(t.curvature).T
        assert len(y) == round(2 * half_w / 0.5e-6) + 1 and not t.truncated
        assert (y[0], y[-1]) == (-half_w, half_w)
        n = designer.slab_index(t, n_clad, cfg.wavelength)
        residual = (n * u + _exit_path(t.x + u, y, focus, pose, n_clad)
                    - _exit_path(t.x, 0.0, focus, pose, n_clad))
        assert np.max(np.abs(residual)) <= 1e-12
        offsets.append(u)
    if pose.y_ion:
        # offsets beyond 5 um are solved, not cut off
        assert np.max(np.abs(offsets)) > 5e-6


def test_a_wide_footprint_is_curved_to_its_edges(wide_run, run_dir):
    # the layout's outer stripes take offsets interpolated between samples
    # 0.5 um apart, so they meet the rule to the interpolation error
    # (2.3e-10 m); offsets held at their +-15 um values miss it by 1.5e-6 m
    out, cfg, manifest = wide_run
    teeth = pipeline._read_teeth(out / "design" / "teeth.json")
    pose, n_clad = cfg.pose, cfg.stack.cladding_index
    focus = (pose.x_ion, pose.y_ion, pose.height_above_surface)
    half_w = cfg.footprint.y_extent / 2
    half_zone = manifest["stages"]["design"]["summary"]["zone_period"] / 2
    y0 = -half_w + np.arange(int(np.ceil(2 * half_w / half_zone))) * half_zone
    y1 = np.minimum(y0 + half_zone, half_w)
    outer = 0.5 * (y0 + y1)[[0, -1]]
    assert np.all(np.abs(outer) > 19.9e-6)
    for t in teeth:
        u = designer.curvature_offsets(t, outer)
        n = designer.slab_index(t, n_clad, cfg.wavelength)
        residual = (n * u + _exit_path(t.x + u, outer, focus, pose, n_clad)
                    - _exit_path(t.x, 0.0, focus, pose, n_clad))
        assert np.max(np.abs(residual)) <= 1e-9
    # so the wider aperture collects more at the ion than the nominal one
    eta = manifest["stages"]["overlap"]["summary"]["eta_at_ion"]
    assert eta > run_dir[2]["stages"]["overlap"]["summary"]["eta_at_ion"]


def test_teeth_read_back_alike_from_compact_and_indented_files(run_dir,
                                                              tmp_path):
    # teeth.json is written compact; the indented form that earlier
    # runs wrote reads back as the same teeth
    out, _, _ = run_dir
    compact = out / "design" / "teeth.json"
    assert "\n " not in compact.read_text()
    indented = tmp_path / "teeth.json"
    indented.write_text(json.dumps(json.loads(compact.read_text()),
                                   indent=2, sort_keys=True) + "\n")
    teeth = pipeline._read_teeth(compact)
    assert len(teeth) == 99
    assert pipeline._read_teeth(indented) == teeth


def test_curve_tooth_solves_all_teeth_together(run_dir, monkeypatch):
    # one ray solve per Newton step for the whole design, not per tooth
    out, cfg, _ = run_dir
    teeth = pipeline._read_teeth(out / "design" / "teeth.json")
    stored = [t.curvature for t in teeth]
    solve, calls = designer.ray_vacuum_angle, []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(designer, "ray_vacuum_angle", counted)
    designer.curve_tooth(teeth, cfg.footprint, cfg.stack, cfg.pose,
                         cfg.wavelength)
    assert len(teeth) == 99 and len(calls) <= 8
    assert [t.curvature for t in teeth] == stored


def test_unconverged_curve_samples_truncate_their_teeth(tmp_path,
                                                         monkeypatch):
    # a single Newton step leaves every off-axis sample unconverged: it is
    # dropped, and the tooth is flagged and counted
    monkeypatch.setattr(designer, "_CURVE_STEPS", 1)
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    manifest = pipeline.run_pipeline(cfg, stages=["design"])
    summary = manifest["stages"]["design"]["summary"]
    teeth = json.loads((tmp_path / "design" / "teeth.json").read_text())
    assert all(t["truncated"] for t in teeth)
    assert all(len(t["curvature"]) == 1 for t in teeth)
    assert all(abs(y) < 1e-18 and abs(u) < 1e-18
               for t in teeth for y, u in t["curvature"])
    assert summary["n_truncated"] == len(teeth) == 99
    assert (f"clamped / truncated teeth {summary['n_clamped']} / 99"
            in pipeline.report(manifest))


def test_peak_position_ignores_last_bit_ties():
    # a plane mirrored in y about the ion, peaked at y = +-0.8 um
    s = 0.1e-6
    y = -1.6e-6 + s * np.arange(33)
    x = -1.0e-6 + s * np.arange(21)
    half = (np.exp(-((y - 0.8e-6) / 0.5e-6) ** 2)[:, None]
            * np.exp(-(x / 0.5e-6) ** 2)[None, :])
    data = half + half[::-1]
    assert np.array_equal(data, data[::-1])
    peaks, rows = set(), set()
    for nudged in (None, 8, 24):
        d = data.copy()
        if nudged is not None:
            d[nudged, 10] = np.nextafter(d[nudged, 10], np.inf)
        field = propagation.FieldGrid(d, s, x0=-1.0e-6, y0=-1.6e-6)
        rows.add(propagation.beam_cross_section(field)[2][0])
        peaks.add(pipeline._peak_position(field, (0.0, 0.0)))
    assert rows == {8, 24}          # a bare argmax flips with one ulp
    assert len(peaks) == 1
    x_peak, y_peak = peaks.pop()
    assert x_peak == pytest.approx(0.0, abs=1e-12)
    assert y_peak == pytest.approx(0.8e-6)


def test_fit_infeasible_is_a_json_bool(run_dir):
    out, _, _ = run_dir
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"]["design"]["summary"]["fit_infeasible"] is False


def test_field_artifacts_are_npz(run_dir):
    out, _, manifest = run_dir
    paths = manifest["stages"]["propagate"]["artifacts"]
    assert sorted(paths) == [os.path.join("propagate", "ion_plane_te.npz"),
                             os.path.join("propagate", "ion_plane_tm.npz")]
    for rel in paths:
        assert propagation.load_field(out / rel).data.shape == (256, 256)


def test_cold_runs_record_identical_checksums(run_dir, tmp_path):
    _, _, manifest = run_dir
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    again = pipeline.run_pipeline(cfg)
    assert again["cached_stages"] == []
    for name, stage in manifest["stages"].items():
        assert again["stages"][name]["artifacts"] == stage["artifacts"], name


def test_cold_run_writes_each_fact_once(tmp_path):
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    manifest = pipeline.run_pipeline(cfg)
    artifacts = sorted(os.path.join(*p) for p in (
        ("emission", "emission_profile.csv"), ("library", "library.json"),
        ("design", "layout.txt"), ("design", "teeth.json"),
        ("propagate", "ion_plane_te.npz"), ("propagate", "ion_plane_tm.npz"),
        ("overlap", "collection_map.csv"),
        ("detect", "ledger_measured.csv"),
        ("detect", "ledger_emission_based.csv"),
        ("detect", "ledger_improved.csv")))
    written = sorted(os.path.relpath(os.path.join(d, f), tmp_path)
                     for d, _, files in os.walk(tmp_path) for f in files)
    # the summaries live in the manifest, not in files of their own
    assert written == sorted(artifacts + ["artifact_stats.json",
                                          "manifest.json"])
    assert _artifact_paths(tmp_path) == artifacts
    for name, entry in manifest["stages"].items():
        assert set(entry) == {"key", "summary", "artifacts"}, name
    # a tooth's pitch is its cell's, stored once
    teeth = json.loads((tmp_path / "design" / "teeth.json").read_text())
    assert len(teeth) == manifest["stages"]["design"]["summary"]["n_teeth"]
    assert all("pitch" not in t and t["params"]["pitch"] > 0 for t in teeth)


def test_cold_run_solves_two_slab_modes(tmp_path, monkeypatch):
    # every pitch and every TM tooth angle of the default design shares
    # one duty pair: one TE and one TM slab solve in all
    solve, calls = fdtd.slab_mode_profile, []

    def counted(*args):
        calls.append(args[3])
        return solve(*args)

    fdtd.grating_effective_index.cache_clear()
    monkeypatch.setattr(fdtd, "slab_mode_profile", counted)
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    pipeline.run_pipeline(cfg)
    assert sorted(calls) == ["TE", "TM"]


def _failing_fdtd_config(tmp_path):
    return load_config(overrides={
        **FAST, "output_dir": str(tmp_path),
        "library": {"mode": "fdtd", "angles_deg": [8.0],
                    "delta_fracs": [0.0, 1.0]}})


def test_fdtd_library_summary_reports_solver_diagnostics(tmp_path,
                                                        monkeypatch):
    def fake_cell(params, angle, config):
        frac = params.delta / (params.pitch / 2)
        return liblib.LibraryEntry(
            angle=angle, delta_frac=frac, params=params,
            kappa=1e5 * (1.0 - frac) + 1e3, alpha=1e4,
            fom=liblib.figure_of_merit(1e5 * (1.0 - frac) + 1e3, 1e4),
            periods_run=40 + int(20 * frac), closure=0.01 + 0.02 * frac)

    monkeypatch.setattr(liblib, "evaluate_cell", fake_cell)
    monkeypatch.setattr(liblib, "MAX_SEARCH_NFEV", 5)
    cfg = load_config(overrides={
        **FAST, "output_dir": str(tmp_path),
        "library": {"mode": "fdtd", "angles_deg": [16.0, 20.0],
                    "delta_fracs": [0.0, 0.5, 1.0]}})
    manifest = pipeline.run_pipeline(cfg, stages=["library"])
    summary = manifest["stages"]["library"]["summary"]
    # the step of every unit cell at the library's grid: a period is 32
    # steps at the default 16 points per wavelength
    assert cfg.library["points_per_wavelength"] == 16
    cell = liblib.KernelConfig(wavelength=cfg.wavelength,
                               stack=cfg.stack).cell_size
    sim = fdtd.Fdtd2D(fdtd.unit_cell_material_map(
        cfg.stack, liblib.UnitCellParams(0.3e-6, 0.5, 0.5, 0.0, 0.0), 4,
        cell), cfg.wavelength)
    assert summary["steps_per_period"] == sim.steps_per_period == 32
    assert summary["max_periods_run"] == 60
    assert summary["max_closure"] == pytest.approx(0.03)
    # two capped searches and four shifted cells
    assert summary["max_search_nfev"] == 5
    assert summary["cells_evaluated"] == 2 * 5 + 4
    assert summary["searches_at_cap"] == 2
    text = pipeline.report(manifest)
    assert "steps per period          32" in text
    assert "max periods run           60" in text
    assert "max energy closure        0.03" in text
    assert "cells evaluated           14" in text
    assert "max search evaluations    5" in text
    assert "searches at their cap     2" in text
    # entries served from the entry cache count their cells the same
    cached = dataclasses.replace(cfg, output_dir=str(tmp_path / "again"),
                                 library={**cfg.library,
                                          "cache_dir": str(tmp_path / "c")})
    for _ in range(2):
        again = pipeline.run_pipeline(cached, stages=["library"])
        assert again["stages"]["library"]["summary"] == summary
        shutil.rmtree(tmp_path / "again")


def test_analytic_manifest_has_no_solver_diagnostics(run_dir):
    out, _, manifest = run_dir
    summary = manifest["stages"]["library"]["summary"]
    for key in ("steps_per_period", "max_periods_run", "max_closure",
                "cells_evaluated", "max_search_nfev", "searches_at_cap"):
        assert key not in summary
    assert "NaN" not in (out / "manifest.json").read_text()
    assert "unit-cell solver" not in pipeline.report(manifest)


def test_failed_library_entries_fail_the_stage(tmp_path, monkeypatch):
    calls = []

    def no_coupling(params, angle, config):
        calls.append(params)
        return liblib.LibraryEntry(angle=angle, delta_frac=0.0,
                                   params=params, kappa=0.0, alpha=0.0,
                                   fom=float("nan"))

    monkeypatch.setattr(liblib, "evaluate_cell", no_coupling)
    cfg = _failing_fdtd_config(tmp_path)
    with pytest.raises(pipeline.StageError, match="2 of 2 unit-cell entries "
                       "failed.*LibraryError: no feasible cell at 8.00 deg"):
        pipeline.run_pipeline(cfg, stages=["library"])
    # the shifted entry names the failed search and runs no cell
    calls.clear()
    lib = pipeline._build_library(cfg)
    assert len(calls) == liblib.MAX_SEARCH_NFEV
    assert lib.entries[(0, 1)].error == (
        "LibraryError: the delta = 0 entry at 8.00 deg failed, so there is "
        "no geometry to shift")
    # and the CLI turns it into a single error line
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg.raw))
    result = CliRunner().invoke(main, ["library", "--config",
                                       str(cfg_path)])
    assert result.exit_code == 1
    assert result.output.startswith("stage-error: library: ")
    assert len(result.output.strip().splitlines()) == 1


def test_stage_subset_runs_dependencies(tmp_path):
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    manifest = pipeline.run_pipeline(cfg, stages=["design"])
    assert set(manifest["stages"]) == {"emission", "library", "design"}
    with pytest.raises(pipeline.StageError, match="unknown stage"):
        pipeline.run_pipeline(cfg, stages=["fabricate"])


def test_missing_library_file_fails_before_solver(tmp_path):
    cfg = load_config(overrides={
        **FAST, "output_dir": str(tmp_path),
        "library": {"mode": "file", "path": str(tmp_path / "absent.json")},
    })
    with pytest.raises(pipeline.StageError, match="library required") as exc:
        pipeline.run_pipeline(cfg)
    assert exc.value.stage == "library"


def test_schema_1_library_file_is_one_stage_error_line(tmp_path):
    # a library written before its entries lost ``directivity``
    lib_path = tmp_path / "lib.json"
    liblib.save_library(pipeline.analytic_library(load_config()), lib_path)
    doc = json.loads(lib_path.read_text())
    doc["schema"] = 1
    for entry in doc["entries"]:
        entry["directivity"] = float("nan")
    lib_path.write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({
        **FAST, "library": {"mode": "file", "path": str(lib_path)}}))
    result = CliRunner().invoke(main, ["library", "--config", str(cfg_path),
                                       "--out", str(tmp_path / "run")])
    _assert_one_error_line(result, "stage-error")
    assert result.stderr == ("stage-error: library: unsupported library "
                             "schema 1\n")


def test_library_file_without_its_grid_is_one_stage_error_line(tmp_path):
    lib_path = tmp_path / "lib.json"
    liblib.save_library(pipeline.analytic_library(load_config()), lib_path)
    doc = json.loads(lib_path.read_text())
    del doc["provenance"]["ppw"]
    lib_path.write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({
        **FAST, "library": {"mode": "file", "path": str(lib_path)}}))
    result = CliRunner().invoke(main, ["library", "--config", str(cfg_path),
                                       "--out", str(tmp_path / "run")])
    _assert_one_error_line(result, "stage-error")
    assert result.stderr == ("stage-error: library: library provenance "
                             "lacks 'ppw', its cell grid\n")


def test_library_file_designs_on_its_own_grid(tmp_path):
    # a file written at 12 points per wavelength designs and emits as the
    # analytic mode does at 12, under the config's default of 16
    coarse = load_config(overrides={
        **FAST, "output_dir": str(tmp_path / "analytic"),
        "library": {"points_per_wavelength": 12}})
    lib_path = tmp_path / "lib.json"
    liblib.save_library(pipeline.analytic_library(coarse), lib_path)
    from_file = load_config(overrides={
        **FAST, "output_dir": str(tmp_path / "file"),
        "library": {"mode": "file", "path": str(lib_path)}})
    runs = [pipeline.run_pipeline(cfg, stages=["propagate"])["stages"]
            for cfg in (coarse, from_file)]
    assert runs[0]["propagate"]["summary"] == runs[1]["propagate"]["summary"]
    teeth = [(tmp_path / run / "design" / "teeth.json").read_bytes()
             for run in ("analytic", "file")]
    assert teeth[0] == teeth[1]
    fields = [propagation.load_field(tmp_path / run / "propagate"
                                     / "ion_plane_tm.npz").data
              for run in ("analytic", "file")]
    np.testing.assert_array_equal(*fields)


def test_library_file_cannot_relax_the_process_minimum_feature(tmp_path):
    # upper teeth of 0.3 duty are 112 nm at the first tooth: below the
    # process's 0.12 um, above the 0.05 um the file declares
    lib = pipeline.analytic_library(load_config(overrides={
        "library": {"duty_upper": 0.3}}))
    lib_path = tmp_path / "lib.json"
    liblib.save_library(dataclasses.replace(lib, min_feature=0.05e-6),
                        lib_path)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({
        **FAST, "library": {"mode": "file", "path": str(lib_path)}}))
    result = CliRunner().invoke(main, ["design", "--config", str(cfg_path),
                                       "--out", str(tmp_path / "run")])
    _assert_one_error_line(result, "stage-error")
    assert result.stderr.startswith(
        "stage-error: design: tooth at x=0.000 um violates feature "
        "constraints: [('upper', 'tooth', 1.1")
    assert not list((tmp_path / "run").rglob("layout.txt"))


def test_rewritten_library_file_recomputes(tmp_path):
    lib_path = tmp_path / "lib.json"
    base = load_config()
    liblib.save_library(pipeline.analytic_library(base), lib_path)
    cfg = load_config(overrides={
        **FAST, "output_dir": str(tmp_path / "run"),
        "library": {"mode": "file", "path": str(lib_path)}})
    first = pipeline.run_pipeline(cfg, stages=["design"])
    again = pipeline.run_pipeline(cfg, stages=["design"])
    assert again["cached_stages"] == ["emission", "library", "design"]
    # same path and configuration, new contents
    stronger = load_config(overrides={"library": {
        "kappa0": 1.1 * base.library["kappa0"]}})
    liblib.save_library(pipeline.analytic_library(stronger), lib_path)
    after = pipeline.run_pipeline(cfg, stages=["design"])
    assert after["cached_stages"] == ["emission"]
    assert after["stages"]["library"]["summary"]["kappa_peak"] == \
        pytest.approx(1.1 * first["stages"]["library"]["summary"]
                      ["kappa_peak"])


def test_guiding_change_recomputes_library_and_design(tmp_path):
    # the 24 um aperture needs no angle whose single-layer pitch falls
    # below the feature limit
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path / "run"),
                                 "footprint": {"x_extent": 24e-6}})
    first = pipeline.run_pipeline(cfg, stages=["design"])
    # only the upper nitride carries teeth: new pitches, same layers
    upper_only = dataclasses.replace(cfg, stack=dataclasses.replace(
        cfg.stack, guiding=("upper_nitride",)))
    after = pipeline.run_pipeline(upper_only, stages=["design"])
    # every stage that reads the stack's layers keys on the whole stack;
    # emission reads only the cladding index
    assert after["cached_stages"] == ["emission"]
    fresh = pipeline.run_pipeline(upper_only, out_dir=str(tmp_path / "new"),
                                  stages=["design"])
    rel = os.path.join("library", "library.json")
    checksum = lambda m: m["stages"]["library"]["artifacts"][rel]
    assert checksum(after) == checksum(fresh) != checksum(first)


def test_layer_change_keeps_ray_geometry_stages_cached(tmp_path):
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    stages = ["emission", "library"]
    pipeline.run_pipeline(cfg, stages=stages)
    layers = list(cfg.stack.layers)
    layers[1] = dataclasses.replace(layers[1], thickness=120e-9)
    thicker = dataclasses.replace(cfg, stack=dataclasses.replace(
        cfg.stack, layers=tuple(layers)))
    after = pipeline.run_pipeline(thicker, stages=stages)
    assert after["cached_stages"] == ["emission"]


_MALFORMED_ENTRIES = pytest.mark.parametrize("malform", [
    lambda entry: 3,
    lambda entry: {k: v for k, v in entry.items() if k != "artifacts"},
    lambda entry: {**entry, "artifacts": {**entry["artifacts"],
                                          "notes.txt": "0" * 64}},
], ids=["not-a-mapping", "no-artifacts", "unwritten-file"])


def _malform_stage(out, stage, malform):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["stages"][stage] = malform(manifest["stages"][stage])
    path.write_text(json.dumps(manifest))


@_MALFORMED_ENTRIES
def test_malformed_stage_entry_recomputes(tmp_path, malform):
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    first = pipeline.run_pipeline(cfg, stages=["emission"])
    _malform_stage(tmp_path, "emission", malform)
    with pytest.warns(RuntimeWarning, match="malformed stage 'emission'"):
        again = pipeline.run_pipeline(cfg, stages=["emission"])
    assert again["cached_stages"] == []
    assert again["cache_reasons"] == {"emission": "entry-malformed"}
    assert again["stages"] == first["stages"]
    assert json.loads((tmp_path / "manifest.json").read_text())[
        "stages"] == first["stages"]


@_MALFORMED_ENTRIES
def test_cli_malformed_stage_entry_recomputes(tmp_path, malform):
    runner = CliRunner()
    args = ["library", "--out", str(tmp_path)]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    _malform_stage(tmp_path, "library", malform)
    with pytest.warns(RuntimeWarning, match="malformed stage 'library'"):
        result = runner.invoke(main, args)
    # an uncaught exception would print a traceback
    assert result.exception is None and result.exit_code == 0, result.output
    assert json.loads(result.output) == json.loads(first.output)


def test_entry_missing_a_file_its_stage_writes_heals(run_dir, tmp_path):
    """A hand-edited upstream entry that no longer lists one of its files
    is recomputed before the stage that reads the file runs."""
    copy, cfg = _settled_copy(run_dir, tmp_path)
    path = copy / "manifest.json"
    stages = json.loads(path.read_text())["stages"]
    manifest = json.loads(path.read_text())
    del manifest["stages"]["design"]["artifacts"][
        os.path.join("design", "teeth.json")]
    manifest["stages"]["propagate"]["key"] = "0" * 24
    path.write_text(json.dumps(manifest))
    with pytest.warns(RuntimeWarning, match="malformed stage 'design'"):
        healed = pipeline.run_pipeline(cfg)
    assert healed["cache_reasons"] == {
        "emission": "hit", "library": "hit", "design": "entry-malformed",
        "propagate": "key-changed", "overlap": "hit", "detect": "hit"}
    assert healed["stages"] == stages
    again = pipeline.run_pipeline(cfg)
    assert again["cache_reasons"] == dict.fromkeys(pipeline.STAGES, "hit")


@pytest.mark.parametrize("entry", [
    # the shape a 0.5.1 run wrote
    {"key": "0" * 24, "summary": {"power_ratio": 0.0},
     "artifact_names": {"crosstalk": "crosstalk/crosstalk.json"},
     "artifacts": {"crosstalk/crosstalk.json": "0" * 64}},
    3], ids=["0.5.1-entry", "not-a-mapping"])
def test_retired_stage_entry_is_dropped_without_warning(run_dir, tmp_path,
                                                        entry):
    copy, cfg = _settled_copy(run_dir, tmp_path)
    path = copy / "manifest.json"
    manifest = json.loads(path.read_text())
    stages = dict(manifest["stages"])
    manifest["stages"]["crosstalk"] = entry
    path.write_text(json.dumps(manifest))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = pipeline.run_pipeline(cfg)
    assert again["cache_reasons"] == dict.fromkeys(pipeline.STAGES, "hit")
    assert json.loads(path.read_text())["stages"] == stages


def test_failure_keeps_earlier_stages_cached(tmp_path, monkeypatch):
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})

    def broken(*args, **kwargs):
        raise RuntimeError("propagation failed")

    with monkeypatch.context() as m:
        m.setattr(propagation, "propagate_to_height", broken)
        with pytest.raises(pipeline.StageError,
                           match="propagate: propagation failed"):
            pipeline.run_pipeline(cfg)
    manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == ["emission", "library", "design"]


def test_propagation_change_recomputes_only_the_field_stages(run_dir,
                                                             tmp_path):
    # the near fields stay in memory, so the propagate stage keys on the
    # synthesis raster; a wider raster still holds the +-8 um overlap
    # raster around the ion
    out, _, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    # brings back any stage another test recomputed under other settings
    pipeline.run_pipeline(load_config(overrides={**FAST,
                                                 "output_dir": str(copy)}))
    cfg = load_config(overrides={**FAST, "output_dir": str(copy),
                                 "propagation": {"shape": [512, 544]}})
    manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == ["emission", "library", "design",
                                         "detect"]
    field = propagation.load_field(copy / "propagate" / "ion_plane_te.npz")
    assert field.data.shape == (512, 544)


def test_no_tm_tooth_is_a_propagate_stage_error(tmp_path, monkeypatch):
    # the emitting teeth are built inside the propagate stage, which the
    # error line names; the TE teeth still emit
    grating_angle = fdtd.grating_angle
    monkeypatch.setattr(fdtd, "grating_angle", lambda *a: (
        np.nan if a[-1] == "TM" else grating_angle(*a)))
    result = CliRunner().invoke(main, ["propagate", "--out",
                                       str(tmp_path)])
    _assert_one_error_line(result, "stage-error")
    assert result.stderr == ("stage-error: propagate: no tooth outcouples "
                             "the TM mode\n")


def test_rejected_cached_artifact_is_a_stage_error(run_dir, tmp_path):
    """A cached upstream artifact whose checksum verifies but whose
    content its reader rejects fails the stage that reads it."""
    out, _, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    rel = os.path.join("propagate", "ion_plane_te.npz")
    (copy / rel).write_bytes(b"not a field file")
    manifest_path = copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["stages"]["propagate"]["artifacts"][rel] = \
        pipeline._sha256_file(copy / rel)
    del manifest["stages"]["overlap"]
    manifest_path.write_text(json.dumps(manifest))
    cfg = load_config(overrides={**FAST, "output_dir": str(copy)})
    with pytest.raises(pipeline.StageError,
                       match="not an .npz field file") as exc:
        pipeline.run_pipeline(cfg)
    assert exc.value.stage == "overlap"

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST, "output_dir": str(copy)}))
    result = CliRunner().invoke(main, ["pipeline", "--config",
                                       str(cfg_path)])
    assert result.exit_code == 1
    lines = [l for l in result.output.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith("stage-error: overlap: ")


def _move_ion(cfg, csv):
    return dataclasses.replace(cfg, pose=dataclasses.replace(
        cfg.pose, x_ion=cfg.pose.x_ion + 1e-6))


def _delete(cfg, csv):
    csv.unlink()
    return cfg


def _rewrite(cfg, csv):
    csv.write_text("0,0\n")
    return cfg


@pytest.mark.parametrize("reason, change", [
    ("key-changed", _move_ion), ("artifact-missing", _delete),
    ("checksum-mismatch", _rewrite)])
def test_cache_reason_names_why_a_stage_ran(tmp_path, reason, change):
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    first = pipeline.run_pipeline(cfg, stages=["emission"])
    # a stage with no earlier entry has no key to match
    assert first["cache_reasons"] == {"emission": "key-changed"}
    again = pipeline.run_pipeline(cfg, stages=["emission"])
    assert again["cache_reasons"] == {"emission": "hit"}
    csv = tmp_path / "emission" / "emission_profile.csv"
    after = pipeline.run_pipeline(change(cfg, csv), stages=["emission"])
    assert after["cached_stages"] == []
    assert after["cache_reasons"] == {"emission": reason}


def _settled_copy(run_dir, tmp_path, name="run"):
    """A copy of the shared run whose every artifact has a trusted stat
    record.  The first rerun brings back any stage another test recomputed
    under other settings; what it writes may share a timestamp granule
    with the record file, so a rerun once the clock has moved on hashes
    those files again and rewrites the records."""
    copy = tmp_path / name
    shutil.copytree(run_dir[0], copy)
    cfg = load_config(overrides={**FAST, "output_dir": str(copy)})
    pipeline.run_pipeline(cfg)
    time.sleep(0.05)
    pipeline.run_pipeline(cfg)
    return copy, cfg


def _hash_log(monkeypatch, root):
    """The paths under ``root`` that run_pipeline hashes from now on."""
    hashed, real = [], pipeline._sha256_file

    def logged(path):
        hashed.append(os.path.relpath(path, root))
        return real(path)

    monkeypatch.setattr(pipeline, "_sha256_file", logged)
    return hashed


def _artifact_paths(out):
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    return sorted(rel for entry in stages.values()
                  for rel in entry["artifacts"])


def _file_states(out):
    return {os.path.relpath(os.path.join(d, f), out):
            (os.stat(os.path.join(d, f)).st_ino,
             os.stat(os.path.join(d, f)).st_mtime_ns)
            for d, _, files in os.walk(out) for f in files}


LAYOUT = os.path.join("design", "layout.txt")


def test_cached_rerun_reads_no_artifact(run_dir, tmp_path, monkeypatch):
    copy, cfg = _settled_copy(run_dir, tmp_path)
    manifest_bytes = (copy / "manifest.json").read_bytes()
    before = _file_states(copy)

    def refuse(*args, **kwargs):
        raise AssertionError("a cached rerun read an artifact")

    monkeypatch.setattr(propagation, "load_field", refuse)
    monkeypatch.setattr(liblib, "load_library", refuse)
    monkeypatch.setattr(pipeline, "_read_teeth", refuse)
    # nor hashes one
    monkeypatch.setattr(pipeline, "_sha256_file", refuse)
    manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == list(pipeline.STAGES)
    assert manifest["cache_reasons"] == dict.fromkeys(pipeline.STAGES, "hit")
    assert (copy / "manifest.json").read_bytes() == manifest_bytes
    # manifest.json's inode and mtime among them: no file was rewritten
    assert _file_states(copy) == before


def test_same_size_rewrite_with_restored_mtime_recomputes(run_dir,
                                                          tmp_path):
    copy, cfg = _settled_copy(run_dir, tmp_path)
    stages = json.loads((copy / "manifest.json").read_text())["stages"]
    path = copy / LAYOUT
    original = path.read_bytes()
    st = os.stat(path)
    i = next(i for i, b in enumerate(original) if chr(b).isdigit())
    edited = bytearray(original)
    edited[i] = ord("2") if edited[i] != ord("2") else ord("3")
    with open(path, "r+b") as fh:
        fh.write(edited)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    moved = os.stat(path)
    assert (moved.st_size, moved.st_mtime_ns, moved.st_ino) == (
        st.st_size, st.st_mtime_ns, st.st_ino)
    manifest = pipeline.run_pipeline(cfg)
    assert manifest["cache_reasons"]["design"] == "checksum-mismatch"
    # the stages after design read only teeth.json, which still verifies,
    # and design writes layout.txt back as it was
    assert manifest["cached_stages"] == [s for s in pipeline.STAGES
                                         if s != "design"]
    assert path.read_bytes() == original
    assert manifest["stages"] == stages


def test_record_not_older_than_its_file_is_hashed(run_dir, tmp_path,
                                                  monkeypatch):
    copy, cfg = _settled_copy(run_dir, tmp_path)
    stats_path = copy / "artifact_stats.json"
    records = json.loads(stats_path.read_text())
    granule = records[LAYOUT]["stat"][1]
    os.utime(stats_path, ns=(granule, granule))
    racy = sorted(rel for rel, rec in records.items()
                  if rec["stat"][1] >= granule)
    assert LAYOUT in racy
    hashed = _hash_log(monkeypatch, copy)
    manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == list(pipeline.STAGES)
    assert sorted(hashed) == racy
    # the records are written again, now newer than every artifact
    hashed.clear()
    pipeline.run_pipeline(cfg)
    assert hashed == []


@pytest.mark.parametrize("damage", ["missing", "truncated",
                                    "other-sha256"])
def test_damaged_artifact_stats_only_mean_hashing(run_dir, tmp_path,
                                                  monkeypatch, damage):
    copy, cfg = _settled_copy(run_dir, tmp_path)
    stats_path = copy / "artifact_stats.json"
    text = stats_path.read_text()
    expected = _artifact_paths(copy)
    if damage == "missing":
        stats_path.unlink()
    elif damage == "truncated":
        stats_path.write_text(text[:len(text) // 2])
    else:
        records = json.loads(text)
        records[LAYOUT]["sha256"] = "0" * 64
        stats_path.write_text(json.dumps(records))
        expected = [LAYOUT]
    hashed = _hash_log(monkeypatch, copy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == list(pipeline.STAGES)
    assert sorted(hashed) == expected


def test_copied_run_hashes_each_artifact_once(run_dir, tmp_path,
                                              monkeypatch):
    src, _ = _settled_copy(run_dir, tmp_path, "src")
    copy = tmp_path / "copy"
    shutil.copytree(src, copy)
    cfg = load_config(overrides={**FAST, "output_dir": str(copy)})
    hashed = _hash_log(monkeypatch, copy)
    first = pipeline.run_pipeline(cfg)
    assert first["cached_stages"] == list(pipeline.STAGES)
    # copies keep their mtime but not their inode or ctime
    assert sorted(hashed) == _artifact_paths(copy)
    hashed.clear()
    again = pipeline.run_pipeline(cfg)
    assert again["cached_stages"] == list(pipeline.STAGES)
    assert hashed == []


def test_new_cache_dir_keeps_every_stage_cached(run_dir, tmp_path):
    # library entries key on their own content, so the directory they are
    # cached in never changes a result
    copy, cfg = _settled_copy(run_dir, tmp_path)
    moved = dataclasses.replace(cfg, library={
        **cfg.library, "cache_dir": str(tmp_path / "elsewhere")})
    manifest = pipeline.run_pipeline(moved)
    assert manifest["cache_reasons"] == dict.fromkeys(pipeline.STAGES, "hit")


@pytest.mark.parametrize("order", [
    lambda grid: grid[::-1],
    lambda grid: [grid[0], grid[2], grid[1]] + grid[3:]],
    ids=["reversed", "swapped"])
def test_library_grids_are_taken_in_any_order(tmp_path, order):
    lib = load_config().library
    for name, angles, fracs in (
            ("sorted", lib["angles_deg"], lib["delta_fracs"]),
            ("shuffled", order(lib["angles_deg"]),
             order(lib["delta_fracs"]))):
        cfg = load_config(overrides={
            **FAST, "output_dir": str(tmp_path / name),
            "library": {"angles_deg": angles, "delta_fracs": fracs}})
        pipeline.run_pipeline(cfg, stages=["library"])
    assert (tmp_path / "sorted" / "library" / "library.json").read_bytes() \
        == (tmp_path / "shuffled" / "library" / "library.json").read_bytes()


@pytest.mark.parametrize("mode", ["analytic", "fdtd"])
def test_delta_grid_without_zero_is_a_library_error(tmp_path, mode):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"library": {
        "mode": mode, "delta_fracs": [0.25, 0.5, 1.0]}}))
    result = CliRunner().invoke(main, ["library", "--config", str(cfg_path),
                                       "--out", str(tmp_path / "run")])
    _assert_one_error_line(result, "stage-error")
    assert result.stderr == ("stage-error: library: delta grid must start "
                             "at 0\n")


def test_analytic_library_apodization():
    cfg = load_config()
    lib = pipeline.analytic_library(cfg)
    kappas = [lib.entries[(0, j)].kappa for j in range(len(lib.delta_fracs))]
    assert kappas[0] == pytest.approx(cfg.library["kappa0"])
    assert all(a > b for a, b in zip(kappas, kappas[1:]))
    assert kappas[-1] == pytest.approx(0.0, abs=1e-6 * kappas[0])


def _grating_equation_setup():
    """The default config, its library's unit-cell grid, duty pair and
    angle grid."""
    cfg = load_config()
    lib = cfg.library
    cell = fdtd.default_cell_size(
        cfg.stack, cfg.wavelength,
        pipeline.analytic_library(cfg).provenance["ppw"])
    return (cfg, cell, lib["duty_upper"], lib["duty_lower"],
            np.deg2rad(lib["angles_deg"]))


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_grating_equation_forward_inverts_pitch_for_angle(pol):
    cfg, cell, dcu, dcl, angles = _grating_equation_setup()

    def angle_of(pitch):
        return fdtd.grating_angle(
            cfg.stack, liblib.UnitCellParams(pitch, dcu, dcl, 0.0, 0.0),
            cell, cfg.wavelength, pol)

    def pitch_of(angle):
        return liblib.pitch_for_angle(angle, dcu, dcl, cfg.stack,
                                      cfg.wavelength, pol, cell)

    # round trips land within 1e-14 rad; they measure below 2e-16
    for angle in angles:
        assert angle_of(pitch_of(angle)) == pytest.approx(angle, rel=0.0,
                                                          abs=1e-14)
    # pitches beyond the grazing ones diffract no propagating first order
    assert np.isnan(angle_of(1.01 * pitch_of(np.pi / 2)))
    assert np.isnan(angle_of(0.99 * pitch_of(-np.pi / 2)))


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_emitting_teeth_drop_exactly_the_teeth_without_an_angle(pol):
    cfg, cell, dcu, dcl, angles = _grating_equation_setup()

    def pitch_of(angle, pol):
        return liblib.pitch_for_angle(angle, dcu, dcl, cfg.stack,
                                      cfg.wavelength, pol, cell)

    # the TE pitches of the default grid, then: a pitch between the TE
    # and TM backward cut-offs (outcouples TE only), one between their
    # forward cut-offs (TM only) and one beyond both
    pitches = [pitch_of(a, "TE") for a in angles] + [
        0.5 * (pitch_of(-np.pi / 2, "TE") + pitch_of(-np.pi / 2, "TM")),
        0.5 * (pitch_of(np.pi / 2, "TE") + pitch_of(np.pi / 2, "TM")),
        1.01 * pitch_of(np.pi / 2, "TM")]
    teeth = [designer.ToothSpec(
        x=i * 1e-6, params=liblib.UnitCellParams(p, dcu, dcl, 0.0, 0.0),
        angle=0.0, kappa=1e5, alpha=0.0) for i, p in enumerate(pitches)]
    angles_out = [fdtd.grating_angle(cfg.stack, t.params, cell,
                                     cfg.wavelength, pol) for t in teeth]
    emitting = designer.emitting_teeth(teeth, pol, cfg.stack, cell,
                                       cfg.wavelength)
    kept = [(t.x, a) for t, a in zip(teeth, angles_out) if not np.isnan(a)]
    assert [(t.x, t.angle) for t in emitting] == kept
    assert len(kept) == len(teeth) - 2
    # the default grid's TE pitches emit TE at their own angles
    if pol == "TE":
        assert [t.angle for t in emitting[:len(angles)]] == pytest.approx(
            angles, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_emitting_teeth_take_their_own_duty_cycles(pol):
    cfg, cell, *_ = _grating_equation_setup()
    teeth = []
    for duty in (0.4, 0.6):
        pitch = liblib.pitch_for_angle(np.deg2rad(8.0), 0.5, 0.5,
                                       cfg.stack, cfg.wavelength, "TE", cell)
        params = liblib.UnitCellParams(pitch, duty, duty, 0.06e-6, 0.0)
        teeth.append(designer.ToothSpec(x=0.0, params=params,
                                        angle=np.deg2rad(8.0), kappa=1e5,
                                        alpha=0.0))
    emitting = designer.emitting_teeth(teeth, pol, cfg.stack, cell,
                                       cfg.wavelength)
    assert len(emitting) == 2
    for t, t_out in zip(teeth, emitting):
        n_eff = fdtd.grating_effective_index(cfg.stack, t.params.dcu,
                                             t.params.dcl, cell,
                                             cfg.wavelength, pol)
        expected = np.arcsin((n_eff - cfg.wavelength / t.pitch)
                             / cfg.stack.cladding_index)
        assert t_out.angle == expected
    # the two duty pairs differ in index by far more than the last bit
    assert abs(emitting[0].angle - emitting[1].angle) > np.deg2rad(0.1)


def test_run_summaries_are_physical(run_dir):
    _, cfg, manifest = run_dir
    s = {n: manifest["stages"][n]["summary"] for n in pipeline.STAGES}
    assert s["emission"]["solid_angle_fraction"] == pytest.approx(
        0.0218, abs=5e-4)
    assert s["emission"]["sigma_share"] == pytest.approx(0.956, abs=0.005)
    assert s["design"]["n_teeth"] > 50
    assert not s["design"]["fit_infeasible"]
    # the focus lands at the ion's transverse position
    assert s["propagate"]["peak_x_te"] == pytest.approx(cfg.pose.x_ion,
                                                        abs=2e-6)
    # per-polarization map peaks stay below the per-mode solid-angle bound
    bound = s["emission"]["per_mode_bound"]
    assert 0 < s["overlap"]["eta_peak_te"] <= 2 * bound
    # the TM focus is displaced from the TE focus
    assert s["overlap"]["maxima_offset"] > 0.5e-6
    assert s["overlap"]["tm_suppression_db"] < -10.0
    assert s["detect"]["bright_fidelity"] == pytest.approx(0.907, abs=2e-3)


def test_overlap_reads_each_field_pixel_once(tmp_path, monkeypatch):
    # at a 0.16 um pixel, a 0.1 um ion raster read 41 field pixels per
    # axis once and 60 twice, so the crosstalk sums weighted them unequally
    maps = []
    collection_map = overlap.collection_map

    def recorded(*args, **kwargs):
        maps.append(collection_map(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(overlap, "collection_map", recorded)
    s = 0.16e-6
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path),
                                 "propagation": {"shape": [320, 320],
                                                 "pixel_size": s}})
    pipeline.run_pipeline(cfg, stages=["overlap"])
    te = propagation.load_field(tmp_path / "propagate" / "ion_plane_te.npz")
    (full,) = maps
    for raster, grid, ion in ((full.x, te.x, cfg.pose.x_ion),
                              (full.y, te.y, cfg.pose.y_ion)):
        # 50 pixels either side of the ion's: every one within +-8 um, once
        pixels = np.rint((raster - grid[0]) / s).astype(int)
        assert np.array_equal(pixels, pixels[0] + np.arange(101))
        assert np.allclose(raster, grid[pixels], rtol=0.0, atol=1e-6 * s)
        assert raster[50] == pytest.approx(ion, abs=1e-6 * s)
    # the saved map is the +-5 um window of the same pixels
    saved = np.loadtxt(tmp_path / "overlap" / "collection_map.csv",
                       delimiter=",")
    assert np.array_equal(saved, full.eta[19:82, 19:82])


def test_off_grid_ion_is_read_on_a_pixel_centre(tmp_path):
    # x_ion 28.07 um lies 0.35 of a pixel off the default raster, on the
    # TE focus's flank: read at the nearest pixel of a 0.1 um raster, eta
    # at the ion was 4.1 % above the 0.05 um reference; on the shifted
    # raster it is 0.08 % above
    etas = {}
    for raster in ({}, {"shape": [1024, 1024], "pixel_size": 0.05e-6}):
        cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path),
                                     "pose": {"x_ion": 28.07e-6},
                                     "propagation": raster})
        manifest = pipeline.run_pipeline(cfg, stages=["overlap"])
        s = cfg.propagation["pixel_size"]
        etas[s] = manifest["stages"]["overlap"]["summary"]["eta_at_ion"]
        for pol in ("te", "tm"):
            field = propagation.load_field(
                tmp_path / "propagate" / f"ion_plane_{pol}.npz")
            assert np.abs(field.x - 28.07e-6).min() < 1e-6 * s
            assert np.abs(field.y - 0.0).min() < 1e-6 * s
    assert etas[0.2e-6] == pytest.approx(etas[0.05e-6], rel=5e-3)


def test_collection_map_is_the_window_of_the_crosstalk_raster(run_dir):
    # the stage rasters +-8 um once; its saved +-5 um map must equal a
    # direct raster at the map's own extent and step
    out, cfg, _ = run_dir
    te, tm = (propagation.load_field(out / "propagate" /
                                     f"ion_plane_{pol}.npz")
              for pol in ("te", "tm"))
    x, y = cfg.pose.x_ion, cfg.pose.y_ion
    direct = overlap.collection_map(te, tm, (x - 5e-6, x + 5e-6),
                                    (y - 5e-6, y + 5e-6), 0.2e-6)
    saved = np.loadtxt(out / "overlap" / "collection_map.csv",
                       delimiter=",")
    assert saved.shape == direct.eta.shape
    assert np.array_equal(saved, direct.eta)


def test_default_design_reaches_the_per_mode_bound(run_dir):
    # design and synthesis share one slab-light model, so the curved teeth
    # focus the TE light at the ion close to the solid-angle limit
    _, cfg, manifest = run_dir
    s = {n: manifest["stages"][n]["summary"] for n in pipeline.STAGES}
    assert s["design"]["n_teeth"] == 99
    assert s["design"]["n_truncated"] == 0
    bound = s["emission"]["per_mode_bound"]
    assert 0.8 * bound <= s["overlap"]["eta_peak_te"] <= bound
    assert np.hypot(s["propagate"]["peak_x_te"] - cfg.pose.x_ion,
                    s["propagate"]["peak_y_te"] - cfg.pose.y_ion) <= 2e-6


def test_report_contents_and_determinism(run_dir):
    _, cfg, manifest = run_dir
    text = pipeline.report(manifest)
    assert text == pipeline.report(manifest)
    assert "solid-angle fraction" in text and "sigma share" in text
    assert "-47.68" in text and "0.11" in text   # measured ledger total
    assert "-47.90" in text and "-28.10" in text
    assert len(text.splitlines()) < 60
    # each polarization's focus, and the summed map's peak labelled so
    prop = manifest["stages"]["propagate"]["summary"]
    for pol in ("te", "tm"):
        assert (f"  {pol.upper()} focus x / y            "
                f"{prop[f'peak_x_{pol}']:.4g} / {prop[f'peak_y_{pol}']:.4g}\n"
                ) in text
    assert "  TE+TM map peak at x       " in text
    # each focus less the ion, and the raster the fields are on
    pose = cfg.pose
    for pol in ("te", "tm"):
        assert (f"  {pol.upper()} focus - ion x / y      "
                f"{prop[f'peak_x_{pol}'] - pose.x_ion:.4g} / "
                f"{prop[f'peak_y_{pol}'] - pose.y_ion:.4g}\n") in text
    assert "  TE focus - ion x / y      2e-07 / 0\n" in text
    assert "  ion-plane raster          256 x 256 x 2e-07 m\n" in text
    over = manifest["stages"]["overlap"]["summary"]
    assert (f"  eta at ion / TE map peak  "
            f"{over['eta_at_ion_te'] / over['eta_peak_te']:.3f}\n") in text


def test_share_of_te_peak_compares_te_with_te(run_dir):
    # the TE eta at the ion is part of the TE map, so it cannot exceed
    # the map's peak; the TE+TM eta at the ion can
    _, _, manifest = run_dir
    over = manifest["stages"]["overlap"]["summary"]
    assert 0.0 < over["eta_at_ion_te"] < over["eta_at_ion"]
    assert over["eta_at_ion_te"] <= over["eta_peak_te"]
    # a summary whose TE+TM eta at the ion exceeds the TE map's peak
    summary = {"eta_at_ion": 0.0064, "eta_at_ion_te": 0.0052,
               "eta_peak_te": 0.0055}
    text = pipeline.report({"stages": {"overlap": {"summary": summary}}})
    assert "  eta at ion / TE map peak  0.945\n" in text


def test_report_empty_and_partial():
    assert "no stages" in pipeline.report({})
    partial = {"stages": {"detect": {"summary": {
        "bright_fidelity": 0.9, "dark_fidelity": 0.92,
        "bright_mean_time": 2.7e-3, "ledgers": {}}}}}
    text = pipeline.report(partial)
    assert "missing stages" in text and "emission" in text
    # an emission summary written before the sigma share was reported
    older = {"stages": {"emission": {"summary": {
        "solid_angle_fraction": 0.02, "per_mode_bound": 0.01}}}}
    assert "sigma share               n/a" in pipeline.report(older)
    # an overlap summary written before it reported the crosstalk
    older = {"stages": {"overlap": {"summary": {
        "eta_at_ion": 0.0089, "eta_peak": 0.0099, "peak_x": 2.6e-5}}}}
    assert "TM/TE power ratio         n/a" in pipeline.report(older)
    assert "eta at ion / TE map peak  n/a" in pipeline.report(older)
    # a propagate summary without the TM focus
    older = {"stages": {"propagate": {"summary": {
        "peak_x_te": 2.8e-5, "peak_y_te": 0.0}}}}
    text = pipeline.report(older)
    assert "  TE focus x / y            2.8e-05 / 0\n" in text
    assert "  TM focus x / y            n/a / n/a\n" in text
    # nor the ion or the raster, which 0.5.15 added
    assert "  TE focus - ion x / y      n/a / n/a\n" in text
    assert "  TM focus - ion x / y      n/a / n/a\n" in text
    assert "  ion-plane raster          n/a\n" in text
    # a count missing from a design summary prints as n/a, as values do,
    # and so do the per-start fit counts written before 0.5.12
    older = {"stages": {"design": {"summary": {
        "n_clamped": 2, "fit_relative_l2": 0.05, "fit_status": [1, 2],
        "fit_nfev": [40, 31], "undiffracted_power": 0.01}}}}
    text = pipeline.report(older)
    assert "  teeth                     n/a\n" in text
    assert "  clamped / truncated teeth 2 / n/a\n" in text
    assert "  fit drain target          n/a\n" in text
    assert "  fit evaluations           n/a\n" in text
    assert "fit status" not in text


# ---------------------------------------------------------------------------
# CLI

def test_cli_init_config(tmp_path):
    runner = CliRunner()
    path = tmp_path / "cfg.yaml"
    result = runner.invoke(main, ["init-config", str(path)])
    assert result.exit_code == 0
    assert load_config(path).raw == default_config_dict()


def test_cli_stage_verb_uses_cache(run_dir):
    out, _, _ = run_dir
    cfg_path = out / "fast.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST,
                                        "output_dir": str(out)}))
    runner = CliRunner()
    result = runner.invoke(main, ["design", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["n_teeth"] > 50


def test_cli_report_and_ledger(run_dir):
    out, _, _ = run_dir
    runner = CliRunner()
    result = runner.invoke(main, ["report", "--out", str(out)])
    assert result.exit_code == 0
    assert "run summary" in result.output
    result = runner.invoke(main, ["ledger", "--which", "measured"])
    assert result.exit_code == 0
    assert "-47.68" in result.output


def test_cold_propagate_makes_one_fft_pair_per_field(tmp_path,
                                                     monkeypatch):
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _name=name, _fft=getattr(np.fft, name),
                    **kwargs):
            calls.append((_name, args[0].shape))
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    pipeline.run_pipeline(cfg, stages=["propagate"])
    # the cladding and the vacuum are one transfer: TE's pair, then TM's
    assert calls == [("fftn", (256, 256)), ("ifftn", (256, 256))] * 2


def test_cli_report_takes_no_seed(run_dir):
    # only detect and pipeline run a stage that draws random numbers
    out, _, _ = run_dir
    runner = CliRunner()
    for verb in ("report", "library", "design", "propagate", "overlap"):
        result = runner.invoke(main, [verb, "--out", str(out),
                                      "--seed", "1"])
        assert result.exit_code == 2 and "--seed" in result.output, verb
    result = runner.invoke(main, ["report", "--out", str(out)])
    assert result.exit_code == 0 and "run summary" in result.output


def test_cli_errors_are_single_line(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["report", "--out", str(tmp_path)])
    assert result.exit_code == 1
    lines = [l for l in result.output.splitlines() if l]
    assert len(lines) == 1
    code, _, message = lines[0].partition(": ")
    assert code == "manifest-missing" and message

    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"library": {"mode": "oracle"}}))
    result = runner.invoke(main, ["design", "--config", str(bad),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.output.startswith("config-error: ")


def test_cli_malformed_yaml_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("library: {mode: fdtd\n")
    result = CliRunner().invoke(main, ["library", "--config", str(bad),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 1
    lines = [l for l in result.output.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith(f"config-error: {bad}: malformed YAML: ")


@pytest.mark.parametrize("entry, message", [
    ({"library": 5}, "library: expected a mapping, got int"),
    ({"detection": {"threshold": "a"}},
     "detection.threshold: expected a number, got 'a'"),
    ({"footprint": [1, 2]}, "footprint: expected a mapping, got list"),
    ({"pose": {"height_above_surface": "a"}},
     "pose.height_above_surface: expected a number, got 'a'"),
    ({"library": {"kappa0": "strong"}},
     "library.kappa0: expected a number, got 'strong'"),
    ({"library": {"kappa0": -5}}, "library.kappa0 must be positive"),
    ({"library": {"kappa0": 0}}, "library.kappa0 must be positive"),
    ({"library": {"alpha0": -1e4}}, "library.alpha0 must not be negative"),
    ({"pose": {"height_above_surface": float("nan")}},
     "pose.height_above_surface: expected a number, got nan"),
    ({"library": {"alpha0": float("nan")}},
     "library.alpha0: expected a number, got nan"),
    ({"designer": {"kappa_max": "nan"}},
     "designer.kappa_max: expected a number, got nan"),
    ({"detection": {"threshold": float("nan")}},
     "detection.threshold: expected a number, got nan"),
    ({"seeds": {"detection": float("nan")}},
     "seeds.detection: expected a number, got nan"),
    ({"library": {"angles_deg": [-4.0, float("nan"), 4.0]}},
     "library.angles_deg[1]: expected a number, got nan"),
    ({"library": {"delta_fracs": [0.0, 0.5, float("nan")]}},
     "library.delta_fracs[2]: expected a number, got nan"),
    ({"stack": {"layers": [{"name": "core", "thickness": float("nan"),
                            "refractive_index": 2.0}],
                "cladding_index": 1.45}},
     "stack.layers[0].thickness: expected a number, got nan"),
    ({"library": {"angles_deg": [-4.0, float("inf"), 4.0]}},
     "library.angles_deg[1]: expected a finite number, got inf"),
    ({"library": {"delta_fracs": [0.0, float("inf")]}},
     "library.delta_fracs[1]: expected a finite number, got inf"),
    ({"pose": {"height_above_surface": float("inf")}},
     "pose.height_above_surface: expected a finite number, got inf"),
    ({"designer": {"kappa_max": float("-inf")}},
     "designer.kappa_max: expected a finite number, got -inf"),
    ({"designer": {"kappa_max": 0.0}}, "designer.kappa_max must be positive"),
    ({"designer": {"kappa_max": -1e5}},
     "designer.kappa_max must be positive"),
    ({"designer": {"alpha": -1e3}}, "designer.alpha must not be negative"),
    ({"wavelength": 0.0}, "wavelength must be positive"),
    ({"wavelength": -422e-9}, "wavelength must be positive"),
    ({"library": {"points_per_wavelength": 0}},
     "library.points_per_wavelength must be positive"),
    ({"library": {"mode": "fdtd", "n_periods": 3}},
     "library.n_periods must be at least 4"),
    ({"designer": {"kappa_max": True}},
     "designer.kappa_max: expected a number, got True"),
    ({"wavelength": True}, "wavelength: expected a number, got True"),
    ({"designer": {"alpha": [1]}},
     "designer.alpha: expected a number, got [1]"),
    ({"pose": {"height_above_surface": [1]}},
     "pose.height_above_surface: expected a number, got [1]"),
    ({"designer": {"alpha": {"a": 1}}},
     "designer.alpha: expected a number, got {'a': 1}"),
    ({"wavelength": 10**400}, "wavelength: expected a finite number, got inf"),
    ({"stack": 5}, "stack: expected a mapping or null, got int"),
    ({"stack": {"layers": []}}, "stack: missing key 'cladding_index'"),
    ({"library": {"angles_deg": "abc"}},
     "library.angles_deg: expected a non-empty list of numbers, got 'abc'"),
    ({"library": {"angles_deg": []}},
     "library.angles_deg: expected a non-empty list of numbers, got []"),
    ({"library": {"delta_fracs": [0, True]}},
     "library.delta_fracs[1]: expected a number, got True"),
    ({"seeds": {"detection": -1}},
     "seeds.detection must not be negative, got -1"),
    ({"library": {"mode": "fdtd", "cache_dir": 5}},
     "library.cache_dir: expected a string or null, got int"),
    ({"library": {"mode": "file", "path": 5}},
     "library.path: expected a string or null, got int"),
    ({"library": {"n_periods": 9}},
     "library.n_periods: not read in analytic mode"),
    ({"library": {"mode": "fdtd", "kappa0": 2.0e6}},
     "library.kappa0: not read in fdtd mode"),
    ({"library": {"mode": "file", "path": "X", "angles_deg": [0.0]}},
     "library.angles_deg: not read in file mode"),
    # typed by its row, not by the --out override laid over it
    ({"output_dir": 5}, "output_dir: expected a string, got int"),
    ({"library": {"duty_upper": 2.0}},
     "library.duty_upper must lie in [0, 1], got 2.0"),
    ({"library": {"duty_lower": -0.1}},
     "library.duty_lower must lie in [0, 1], got -0.1"),
    ({"library": {"delta_fracs": [0.0, 3.0]}},
     "library.delta_fracs[1] must lie in [0, 1], got 3.0"),
], ids=["library-not-a-mapping", "threshold-not-a-number",
        "footprint-a-list", "pose-height-not-a-number",
        "kappa0-not-a-number", "kappa0-negative", "kappa0-zero",
        "alpha0-negative", "pose-height-nan", "alpha0-nan",
        "kappa-max-nan-string", "threshold-nan", "seed-nan",
        "angles-deg-nan", "delta-fracs-nan", "layer-thickness-nan",
        "angles-deg-inf", "delta-fracs-inf", "pose-height-inf",
        "kappa-max-minus-inf", "kappa-max-zero", "kappa-max-negative",
        "alpha-negative", "wavelength-zero", "wavelength-negative",
        "points-per-wavelength-zero", "n-periods-below-4", "kappa-max-bool",
        "wavelength-bool", "alpha-list", "height-list", "alpha-mapping",
        "wavelength-overflow", "stack-int", "stack-no-cladding",
        "angles-deg-string", "angles-deg-empty", "delta-fracs-bool",
        "seed-negative", "cache-dir-int", "path-int",
        "analytic-n-periods", "fdtd-kappa0", "file-angles-deg",
        "output-dir-int", "duty-upper-above-1", "duty-lower-negative",
        "delta-frac-above-1"])
def test_cli_config_value_of_wrong_type_is_a_config_error(tmp_path, entry,
                                                          message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(entry))
    result = CliRunner().invoke(main, ["detect", "--config", str(bad),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config-error: {message}")


def test_exponent_numbers_are_floats(tmp_path):
    # PyYAML reads an exponent without a dot or a sign as a string
    path = tmp_path / "cfg.yaml"
    path.write_text("wavelength: 422e-9\nlibrary: {kappa0: 1e6}\n"
                    "designer: {kappa_max: 6.0e5}\n")
    assert yaml.safe_load(path.read_text())["library"]["kappa0"] == "1e6"
    cfg = load_config(path)
    assert type(cfg.library["kappa0"]) is float
    assert cfg.designer["kappa_max"] == 6.0e5
    # the same values as the defaults give the same stage keys
    assert pipeline._config_slices(cfg) == pipeline._config_slices(
        load_config())
    result = CliRunner().invoke(main, ["library", "--config", str(path),
                                       "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["kappa_peak"] == pytest.approx(1e6)


@pytest.mark.parametrize("text, message", [
    ("detection: {threshold: 2.5}\n",
     "detection.threshold: expected an integer, got 2.5"),
    ("detection: {threshold: true}\n",
     "detection.threshold: expected an integer, got True"),
    ("detection: {bins: 2.5}\n",
     "detection.bins: expected an integer, got 2.5"),
    ("detection: {threshold: '2.5'}\n",
     "detection.threshold: expected an integer, got 2.5"),
], ids=["threshold-fraction", "threshold-bool", "bins-fraction",
        "threshold-fraction-string"])
def test_integer_key_rejects_a_non_integer(tmp_path, text, message):
    # a fractional threshold once meant N >= 2 to the analytic fidelity and
    # N >= 3 to the Monte Carlo
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    result = CliRunner().invoke(main, ["detect", "--config", str(bad),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"config-error: {message}"]


def test_integer_key_takes_an_integral_exponent(tmp_path):
    # PyYAML reads 2e5 as a string; an integral value becomes an int
    path = tmp_path / "cfg.yaml"
    path.write_text("detection: {trials: 2e5, threshold: 2.0}\n")
    cfg = load_config(path)
    assert type(cfg.detection_trials) is int
    assert cfg.detection_trials == 200000
    assert type(cfg.detection.threshold) is int
    assert cfg.detection.threshold == 2
    # the same values as the defaults give the same stage keys
    path.write_text("detection: {trials: 2e5, threshold: 1.0}\n")
    assert pipeline._config_slices(load_config(path)) == \
        pipeline._config_slices(load_config())
    # an integer literal is not rounded through a float beyond 2**53
    path.write_text("seeds: {detection: '12345678901234567891'}\n")
    assert load_config(path).seeds["detection"] == 12345678901234567891


def test_infinite_float_stays_a_number(tmp_path):
    # an uncapped fit is kappa_max: inf, as YAML's .inf or as a string
    for text in ("designer: {kappa_max: .inf}\n",
                 "designer: {kappa_max: inf}\n"):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert load_config(path).designer["kappa_max"] == np.inf


def test_overrides_are_typed_against_the_defaults(tmp_path):
    # a float key that a file sets to an integer still takes a float
    # override, and a float list stores floats
    path = tmp_path / "cfg.yaml"
    path.write_text("pose: {y_ion: 0}\nlibrary: {delta_fracs: [0, 1]}\n")
    cfg = load_config(path, {"pose": {"y_ion": 1e-6}})
    assert cfg.pose.y_ion == 1e-6
    raw = load_config(path).raw
    assert type(raw["pose"]["y_ion"]) is float
    assert [type(v) for v in raw["library"]["delta_fracs"]] == [float] * 2


def test_cli_negative_seed_is_a_config_error(tmp_path):
    out = tmp_path / "run"
    result = CliRunner().invoke(main, ["pipeline", "--seed", "-1",
                                       "--out", str(out)])
    _assert_one_error_line(result, "config-error")
    assert result.stderr == ("config-error: seeds.detection must not be "
                             "negative, got -1\n")
    assert not out.exists()  # no stage ran


def test_init_config_bytes_are_pinned(tmp_path):
    # the template as 0.5.12 wrote it, with 0.5.15's 256 x 256 raster of
    # 0.2 um pixels
    path = tmp_path / "default.yaml"
    write_default_config(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7432e1d7b32c7ee9a542914a8443ceba5718c035321a0f4e8332c6dc74bb5322")


def test_every_default_passes_its_own_kind_and_bound():
    for key, (comment, body) in config._TABLE.items():
        assert comment
        section = body if isinstance(body, dict) else {None: body}
        for sub, row in section.items():
            name = key if sub is None else f"{key}.{sub}"
            default, kind = row[:2]
            typed = config._typed(name, kind, default)
            assert typed == default and type(typed) is type(default), name
    # every bound holds at the defaults
    config._check(default_config_dict())
    assert PipelineConfig.from_dict(default_config_dict()).raw == \
        default_config_dict()


# the library keys each mode reads, written out here rather than taken
# from the configuration table
MODE_READS = {
    "analytic": {"angles_deg", "delta_fracs", "points_per_wavelength",
                 "kappa0", "alpha0", "duty_upper", "duty_lower",
                 "layer_offset"},
    "fdtd": {"angles_deg", "delta_fracs", "n_periods",
             "points_per_wavelength", "cache_dir"},
    # a library file names its own unit-cell grid
    "file": {"path"},
}
LIBRARY_CHANGES = {
    "path": "other.json", "angles_deg": [0.0, 8.0],
    "delta_fracs": [0.0, 1.0], "n_periods": 9, "points_per_wavelength": 12,
    "kappa0": 2.0e6, "alpha0": 1.0e4, "duty_upper": 0.4, "duty_lower": 0.4,
    "layer_offset": 0.1e-6, "cache_dir": "cells"}


def _stage_keys(cfg) -> dict:
    """Every stage's key, as ``run_pipeline`` derives it."""
    slices, keys = pipeline._config_slices(cfg), {}
    for name in pipeline.STAGES:
        keys[name] = pipeline._stage_key(
            name, slices[name],
            {d: keys[d] for d in pipeline._STAGES[name][0]})
    return keys


@pytest.mark.parametrize("mode", sorted(MODE_READS))
def test_each_mode_takes_only_the_library_keys_it_reads(mode):
    assert set(LIBRARY_CHANGES) == set(default_config_dict()["library"]) - {
        "mode"}
    base = {"mode": mode, "path": "lib.json" if mode == "file" else None}
    before = _stage_keys(load_config(overrides={"library": base}))
    for key, value in LIBRARY_CHANGES.items():
        overrides = {"library": {**base, key: value}}
        if key not in MODE_READS[mode]:
            with pytest.raises(ValueError, match=(
                    rf"^library\.{key}: not read in {mode} mode")):
                load_config(overrides=overrides)
            continue
        after = _stage_keys(load_config(overrides=overrides))
        # entry caches key on their own content, so no stage key holds
        # the cache directory
        moved = key != "cache_dir"
        assert (after["library"] != before["library"]) is moved, key
        assert (after["propagate"] != before["propagate"]) is moved, key


def test_analytic_run_with_n_periods_at_its_default_is_cached(run_dir,
                                                              tmp_path):
    # a key the mode does not read can only hold its default
    copy, _ = _settled_copy(run_dir, tmp_path)
    cfg = load_config(overrides={**FAST, "output_dir": str(copy),
                                 "library": {"n_periods": 8}})
    manifest = pipeline.run_pipeline(cfg)
    assert manifest["cache_reasons"] == dict.fromkeys(pipeline.STAGES, "hit")


def test_null_output_dir_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({**FAST, "output_dir": None}))
    result = CliRunner().invoke(main, ["detect", "--config", str(bad)])
    _assert_one_error_line(result, "config-error")
    assert result.stderr == ("config-error: output_dir: expected a string, "
                             "got NoneType\n")
    # nothing was written, also not into ./None
    assert os.listdir(tmp_path) == ["bad.yaml"]


def test_quantization_axis_key_is_rejected(tmp_path):
    # the decay channels sum to isotropic emission, so no stage reads an
    # axis
    with pytest.raises(KeyError, match="'quantization_axis'"):
        PipelineConfig.from_dict({"designer": {"quantization_axis": "z"}})
    bad = tmp_path / "axis.yaml"
    bad.write_text(yaml.safe_dump({"designer": {"quantization_axis": "z"}}))
    result = CliRunner().invoke(main, ["detect", "--config", str(bad),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr == ("config-error: \"unknown configuration key "
                             "'quantization_axis'\"\n")


@pytest.mark.parametrize("key, value", [("phase_mode", "cylindrical"),
                                        ("form", "literal")])
def test_removed_designer_keys_are_rejected(tmp_path, key, value):
    # synthesis models the slab light as collimated at each tooth's own
    # grating-equation index, and the fit drains by the integral form, so
    # neither model has a switch
    with pytest.raises(KeyError, match=f"'{key}'"):
        PipelineConfig.from_dict({"designer": {key: value}})
    bad = tmp_path / "designer.yaml"
    bad.write_text(yaml.safe_dump({"designer": {key: value}}))
    result = CliRunner().invoke(main, ["detect", "--config", str(bad),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr == (f"config-error: \"unknown configuration key "
                             f"'{key}'\"\n")


def test_cli_report_on_truncated_manifest(run_dir, tmp_path):
    out, _, _ = run_dir
    text = (out / "manifest.json").read_text()
    # a whole manifest whose ledger entry lacks its total
    malformed = json.loads(text)
    malformed["stages"]["detect"]["summary"]["ledgers"] = {"measured": {}}
    for bad in (text[:len(text) // 2], json.dumps(malformed)):
        (tmp_path / "manifest.json").write_text(bad)
        result = CliRunner().invoke(main, ["report", "--out",
                                           str(tmp_path)])
        assert result.exit_code == 1
        lines = [l for l in result.output.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("manifest-unreadable: ")


def _assert_one_error_line(result, code):
    assert result.exit_code == 1
    lines = [l for l in result.output.splitlines() if l]
    assert len(lines) == 1 and lines == result.stderr.splitlines()
    assert lines[0].startswith(f"{code}: ")


@pytest.mark.parametrize("verb", ["detect", "pipeline"])
def test_cli_out_under_a_file_is_an_io_error(tmp_path, verb):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = CliRunner().invoke(main, [verb, "--out", str(blocker / "run")])
    _assert_one_error_line(result, "io-error")


@pytest.mark.parametrize("extent", ["x_extent", "y_extent"])
def test_cli_zero_area_footprint_fails_at_emission(tmp_path, extent):
    cfg_path = tmp_path / "flat.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST,
                                        "footprint": {extent: 0.0}}))
    result = CliRunner().invoke(main, ["pipeline", "--config",
                                       str(cfg_path), "--out",
                                       str(tmp_path / "run")])
    _assert_one_error_line(result, "stage-error")
    assert result.stderr.startswith("stage-error: emission: footprint ")
    assert "has no area" in result.stderr
    assert not (tmp_path / "run" / "emission" /
                "emission_profile.csv").exists()


def test_cli_init_config_into_missing_dir_is_an_io_error(tmp_path):
    result = CliRunner().invoke(main, ["init-config",
                                       str(tmp_path / "missing" / "x.yaml")])
    _assert_one_error_line(result, "io-error")


def test_cli_rabi_out_into_missing_dir_is_an_io_error(tmp_path):
    result = CliRunner().invoke(main, ["rabi", "--omega0", "1e6",
                                       "--t-max", "1e-5", "--points", "3",
                                       "--out",
                                       str(tmp_path / "missing" / "r.csv")])
    _assert_one_error_line(result, "io-error")


def test_cli_propagate_dz_write_failure_is_an_io_error(run_dir, tmp_path):
    out, _, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    # a directory where the propagated field would be written
    (copy / "propagate" / "field_dz_2e-06.npz").mkdir()
    cfg_path = tmp_path / "fast.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST, "output_dir": str(copy)}))
    result = CliRunner().invoke(main, ["propagate", "--config",
                                       str(cfg_path), "--dz", "2e-06"])
    _assert_one_error_line(result, "io-error")


def test_cli_rabi_verb(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["rabi", "--omega0", "1e6",
                                  "--t-max", "1e-5", "--points", "3"])
    assert result.exit_code == 0
    rows = [line.split(",") for line in result.output.splitlines()]
    assert len(rows) == 3
    assert float(rows[0][1]) == pytest.approx(1.0)

    out_path = tmp_path / "rabi.csv"
    result = runner.invoke(main, ["rabi", "--omega0", "1e6",
                                  "--t-max", "1e-5", "--points", "3",
                                  "--out", str(out_path)])
    assert result.exit_code == 0
    data = np.loadtxt(out_path, delimiter=",")
    assert data.shape == (3, 2)


def test_cli_propagate_dz_writes_a_loadable_field(run_dir):
    out, _, _ = run_dir
    cfg_path = out / "fast.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST, "output_dir": str(out)}))
    result = CliRunner().invoke(main, ["propagate", "--config",
                                       str(cfg_path), "--dz", "2e-06"])
    assert result.exit_code == 0, result.output
    path = json.loads(result.output)["path"]
    assert os.path.basename(path) == "field_dz_2e-06.npz"
    assert os.path.dirname(path) == str(out / "propagate")
    field = propagation.load_field(path)
    ion = propagation.load_field(out / "propagate" / "ion_plane_te.npz")
    assert field.z == ion.z + 2e-6
    assert field.data.shape == ion.data.shape
    # no extra distance leaves the ion-plane field as it is
    result = CliRunner().invoke(main, ["propagate", "--config",
                                       str(cfg_path), "--dz", "0"])
    assert result.exit_code == 0, result.output
    same = propagation.load_field(json.loads(result.output)["path"])
    assert same.z == ion.z
    assert np.array_equal(same.data, ion.data)


def test_cli_propagate_dz_through_the_chip_is_an_error(tmp_path):
    # the ion sits 50 um above the surface; the field would cross it
    result = CliRunner().invoke(main, ["propagate", "--out", str(tmp_path),
                                       "--dz", "-6e-5"])
    _assert_one_error_line(result, "propagation-error")


@pytest.mark.parametrize("dz", ["nan", "inf", "-inf"])
def test_cli_propagate_nonfinite_dz_is_an_error(run_dir, tmp_path, dz):
    out, _, _ = run_dir
    before = sorted(os.listdir(out / "propagate"))
    cfg_path = tmp_path / "fast.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST, "output_dir": str(out)}))
    result = CliRunner().invoke(main, ["propagate", "--config",
                                       str(cfg_path), "--dz", dz])
    _assert_one_error_line(result, "propagation-error")
    assert result.stderr == f"propagation-error: dz must be finite, got {dz}\n"
    assert sorted(os.listdir(out / "propagate")) == before


def test_cli_propagate_negative_zero_dz_names_the_zero_field(run_dir,
                                                             tmp_path):
    out, _, _ = run_dir
    cfg_path = tmp_path / "fast.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST, "output_dir": str(out)}))
    result = CliRunner().invoke(main, ["propagate", "--config",
                                       str(cfg_path), "--dz", "-0"])
    assert result.exit_code == 0, result.output
    path = json.loads(result.output)["path"]
    assert os.path.basename(path) == "field_dz_0.npz"
    assert not (out / "propagate" / "field_dz_-0.npz").exists()


@pytest.mark.parametrize("option", ["--omega0", "--eta-ld", "--n-bar",
                                    "--t-max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rabi_nonfinite_parameter_is_an_error(option, value):
    args = {"--omega0": "1e6", "--t-max": "1e-5", option: value}
    result = CliRunner().invoke(main, ["rabi", *sum(args.items(), ()),
                                       "--points", "3"])
    _assert_one_error_line(result, "rabi-error")
    assert result.stdout == ""


def test_warm_cli_run_loads_only_scipy_core(run_dir, tmp_path,
                                             heavy_after):
    # a warm pipeline and its report compute nothing, so they import no
    # stage module and no numpy: that was most of a warm CLI run's
    # start-up.  Reading the YAML file loads yaml, and nothing else does
    out, cfg, _ = run_dir
    # undo any other test's stage keys, so every stage below is a hit
    pipeline.run_pipeline(cfg)
    cfg_path = tmp_path / "fast.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST, "output_dir": str(out)}))
    code = ("from iongrating.cli import main\n"
            "for verb in ('pipeline', 'report'):\n"
            f"    main([verb, '--config', {str(cfg_path)!r}], "
            "standalone_mode=False)")
    assert heavy_after(code) == ["yaml"]


def test_cold_default_run_loads_no_heavy_scipy(tmp_path, heavy_after):
    # the design fit solves in-package, the emission quadrature is a
    # shipped table and the Poisson tail is summed in math, so a cold
    # default run loads none of the heavy subpackages
    code = ("from iongrating import config, pipeline\n"
            "pipeline.run_pipeline(config.load_config(overrides="
            f"{{'output_dir': {str(tmp_path)!r}}}))")
    assert heavy_after(code) == ["numpy"]


@pytest.mark.parametrize("module", ["config", "pipeline"])
def test_import_loads_no_numpy(heavy_after, module):
    # numpy alone is most of a fresh interpreter's import time; the stage
    # modules load it when a stage runs
    assert heavy_after(f"import iongrating.{module}") == []


@pytest.mark.parametrize("verb", ["design", "detect"])
def test_cold_design_and_detect_verbs_load_no_heavy_scipy(
        tmp_path, heavy_after, verb):
    code = ("from iongrating.cli import main\n"
            f"main([{verb!r}, '--out', {str(tmp_path)!r}], "
            "standalone_mode=False)")
    assert heavy_after(code) == ["numpy"]
    assert (tmp_path / "manifest.json").exists()


def test_cli_has_no_jobs_option_or_map_verb():
    runner = CliRunner()
    result = runner.invoke(main, ["design", "--jobs", "2"])
    assert result.exit_code == 2 and "--jobs" in result.output
    assert "map" not in main.commands
    # a verb for each stage but emission, and none for a deleted stage
    assert set(pipeline.STAGES) - {"emission"} <= set(main.commands)
    assert "crosstalk" not in pipeline.STAGES
    assert "crosstalk" not in main.commands
    assert "synthesize" not in pipeline.STAGES
    assert "synthesize" not in main.commands


def test_cli_writes_only_under_out(run_dir, tmp_path, monkeypatch):
    out, _, _ = run_dir
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST, "output_dir": str(out)}))
    runner = CliRunner()
    result = runner.invoke(main, ["overlap", "--config", str(cfg_path)])
    assert result.exit_code == 0
    leftovers = [p for p in os.listdir(tmp_path) if p != "cfg.yaml"]
    assert leftovers == []
