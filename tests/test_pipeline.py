"""Configuration layering, stage orchestration/caching, and the CLI."""

import dataclasses
import json
import os
import shutil
import time
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from iongrating import designer, fdtd, library as liblib, overlap, \
    pipeline, propagation
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
    _, _, manifest = run_dir
    design = manifest["stages"]["design"]["summary"]
    assert len(design["fit_status"]) == len(design["fit_nfev"]) == 2
    assert all(status > 0 for status in design["fit_status"])
    assert design["fit_relative_l2"] <= 0.05505
    text = pipeline.report(manifest)
    statuses = " ".join(str(v) for v in design["fit_status"])
    assert f"fit status per start      {statuses}" in text


def test_design_summary_counts_clamped_and_truncated_teeth(tmp_path):
    # an ion 25 um off axis puts the outer curve samples of some teeth
    # beyond the offset bracket, and a weak library cannot meet every
    # fitted kappa
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path),
                                 "pose": {"y_ion": 25e-6},
                                 "library": {"kappa0": 0.2e6}})
    manifest = pipeline.run_pipeline(cfg, stages=["design"])
    entry = manifest["stages"]["design"]
    summary = entry["summary"]
    teeth = json.loads((tmp_path / "design" / "teeth.json").read_text())
    # both flags are JSON bools, also where the library clamped the tooth
    assert all(type(t["clamped"]) is bool and type(t["truncated"]) is bool
               for t in teeth)
    n_clamped = sum(t["clamped"] for t in teeth)
    n_truncated = sum(t["truncated"] for t in teeth)
    assert n_clamped == 14
    assert 0 < n_truncated < len(teeth) and n_clamped < len(teeth)
    assert (summary["n_clamped"], summary["n_truncated"]) == (
        n_clamped, n_truncated)
    assert (f"clamped / truncated teeth {n_clamped} / {n_truncated}"
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
        assert propagation.load_field(out / rel).data.shape == (512, 512)


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
    assert summary["max_periods_run"] == 60
    assert summary["max_closure"] == pytest.approx(0.03)
    # two capped searches and four shifted cells
    assert summary["max_search_nfev"] == 5
    assert summary["cells_evaluated"] == 2 * 5 + 4
    text = pipeline.report(manifest)
    assert "max periods run           60" in text
    assert "max energy closure        0.03" in text
    assert "cells evaluated           14" in text
    assert "max search evaluations    5" in text
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
    for key in ("max_periods_run", "max_closure", "cells_evaluated",
                "max_search_nfev"):
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
    assert lib.entry(0, 1).error == (
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
    # the TM teeth are built inside the propagate stage, which the error
    # line names
    monkeypatch.setattr(fdtd, "grating_angle_sine", lambda *a, **k: 2.0)
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


def test_tm_teeth_take_their_own_duty_cycles():
    cfg = load_config()
    cell = pipeline._cell_size(cfg)
    teeth = []
    for duty in (0.4, 0.6):
        pitch = liblib.pitch_for_angle(np.deg2rad(8.0), duty, duty,
                                       cfg.stack, cfg.wavelength, "TE", cell)
        params = liblib.UnitCellParams(pitch, duty, duty, 0.06e-6, 0.0)
        teeth.append(designer.ToothSpec(x=0.0, params=params,
                                        angle=np.deg2rad(8.0), kappa=1e5,
                                        alpha=0.0))
    tm = pipeline._tm_teeth(cfg, teeth)
    assert len(tm) == 2
    for t, t_tm in zip(teeth, tm):
        n_tm = fdtd.grating_effective_index(cfg.stack, t.params, cell,
                                            cfg.wavelength, "TM")
        expected = np.arcsin((n_tm - cfg.wavelength / t.pitch)
                             / cfg.stack.cladding_index)
        assert t_tm.angle == expected
    # the two duty pairs differ in TM index by far more than the last bit
    assert abs(tm[0].angle - tm[1].angle) > np.deg2rad(0.1)


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
    _, _, manifest = run_dir
    text = pipeline.report(manifest)
    assert text == pipeline.report(manifest)
    assert "solid-angle fraction" in text and "sigma share" in text
    assert "-47.68" in text and "0.11" in text   # measured ledger total
    assert "-47.90" in text and "-28.10" in text
    assert len(text.splitlines()) < 60


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
    # a count missing from a design summary prints as n/a, as values do
    older = {"stages": {"design": {"summary": {
        "n_clamped": 2, "fit_relative_l2": 0.05, "fit_status": [1, 2],
        "fit_nfev": [], "undiffracted_power": 0.01}}}}
    text = pipeline.report(older)
    assert "  teeth                     n/a\n" in text
    assert "  clamped / truncated teeth 2 / n/a\n" in text
    assert "  fit status per start      1 2\n" in text
    assert "  fit evaluations per start n/a\n" in text


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


def test_cli_report_takes_no_seed(run_dir):
    out, _, _ = run_dir
    runner = CliRunner()
    result = runner.invoke(main, ["report", "--out", str(out),
                                  "--seed", "1"])
    assert result.exit_code == 2 and "--seed" in result.output
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
    ({"detection": {"threshold": "a"}}, "detection: '<' not supported"),
    ({"footprint": [1, 2]}, "footprint: expected a mapping, got list"),
    ({"pose": {"height_above_surface": "a"}},
     "pose.height_above_surface: expected a number, got 'a'"),
    ({"library": {"kappa0": "strong"}},
     "library.kappa0: expected a number, got 'strong'"),
    ({"library": {"kappa0": -5}}, "library.kappa0 must be positive"),
    ({"library": {"kappa0": 0}}, "library.kappa0 must be positive"),
    ({"library": {"alpha0": -1e4}}, "library.alpha0 must not be negative"),
], ids=["library-not-a-mapping", "threshold-not-a-number",
        "footprint-a-list", "pose-height-not-a-number",
        "kappa0-not-a-number", "kappa0-negative", "kappa0-zero",
        "alpha0-negative"])
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
