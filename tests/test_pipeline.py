"""Configuration layering, stage orchestration/caching, and the CLI."""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from iongrating import library as liblib, pipeline, propagation
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


def test_manifest_covers_all_stages(run_dir):
    out, _, manifest = run_dir
    assert set(manifest["stages"]) == set(pipeline.STAGES)
    for name, stage in manifest["stages"].items():
        for rel, checksum in stage["artifacts"].items():
            path = out / rel
            assert path.exists(), f"{name}: missing {rel}"
            assert len(checksum) == 64


def test_rerun_is_fully_cached(run_dir):
    out, cfg, _ = run_dir
    before = (out / "manifest.json").read_text()
    manifest = pipeline.run_pipeline(cfg)
    assert set(manifest["cached_stages"]) == set(pipeline.STAGES)
    assert (out / "manifest.json").read_text() == before


def test_seed_change_recomputes_only_detection(run_dir, tmp_path):
    out, _, _ = run_dir
    cfg = load_config(overrides={**FAST, "output_dir": str(out),
                                 "seeds": {"detection": 99}})
    manifest = pipeline.run_pipeline(cfg)
    assert "detect" not in manifest["cached_stages"]
    assert set(manifest["cached_stages"]) == set(pipeline.STAGES) - {
        "detect"}


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
    for stage in ("synthesize", "propagate"):
        entry = manifest["stages"][stage]
        for name, rel in entry["artifact_names"].items():
            csv = rel.replace(".npz", ".csv")
            os.remove(copy / rel)
            (copy / csv).write_text("# field grid v1\n")
            entry["artifact_names"][name] = csv
            del entry["artifacts"][rel]
            entry["artifacts"][csv] = pipeline._sha256_file(copy / csv)
    manifest_path.write_text(json.dumps(manifest))
    manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == []


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


def test_fit_infeasible_is_a_json_bool(run_dir):
    out, _, _ = run_dir
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"]["design"]["summary"]["fit_infeasible"] is False


def test_field_artifacts_are_npz(run_dir):
    out, _, manifest = run_dir
    names = {**manifest["stages"]["synthesize"]["artifact_names"],
             **manifest["stages"]["propagate"]["artifact_names"]}
    assert sorted(os.path.basename(p) for p in names.values()) == [
        "ion_plane_te.npz", "ion_plane_tm.npz",
        "near_field_te.npz", "near_field_tm.npz"]
    for rel in names.values():
        assert propagation.load_field(out / rel).data.shape == (512, 512)


def test_cold_runs_record_identical_checksums(run_dir, tmp_path):
    _, _, manifest = run_dir
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    again = pipeline.run_pipeline(cfg)
    assert again["cached_stages"] == []
    for name, stage in manifest["stages"].items():
        assert again["stages"][name]["artifacts"] == stage["artifacts"], name


def _failing_fdtd_config(tmp_path):
    return load_config(overrides={
        **FAST, "output_dir": str(tmp_path),
        "library": {"mode": "fdtd", "angles_deg": [8.0],
                    "delta_fracs": [0.0, 1.0],
                    "swarm": {"n_particles": 2, "iterations": 1}}})


def test_failed_library_entries_fail_the_stage(tmp_path, monkeypatch):
    def no_coupling(params, angle, config):
        liblib.figure_of_merit(0.0, 0.0)

    monkeypatch.setattr(liblib, "evaluate_cell", no_coupling)
    cfg = _failing_fdtd_config(tmp_path)
    with pytest.raises(pipeline.StageError, match="2 of 2 unit-cell entries "
                       "failed.*InfeasibleSwarmError"):
        pipeline.run_pipeline(cfg, stages=["library"])
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
    # every stage keys on the whole stack
    assert after["cached_stages"] == []
    fresh = pipeline.run_pipeline(upper_only, out_dir=str(tmp_path / "new"),
                                  stages=["design"])
    rel = os.path.join("library", "library.json")
    checksum = lambda m: m["stages"]["library"]["artifacts"][rel]
    assert checksum(after) == checksum(fresh) != checksum(first)


_MALFORMED_ENTRIES = pytest.mark.parametrize("malform", [
    lambda entry: 3,
    lambda entry: {k: v for k, v in entry.items() if k != "artifacts"},
    lambda entry: {k: v for k, v in entry.items() if k != "artifact_names"},
], ids=["not-a-mapping", "no-artifacts", "no-artifact-names"])


def _malform_stage(out, stage, malform):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["stages"][stage] = malform(manifest["stages"][stage])
    path.write_text(json.dumps(manifest))


@_MALFORMED_ENTRIES
def test_malformed_stage_entry_recomputes(tmp_path, malform):
    cfg = load_config(overrides={**FAST, "output_dir": str(tmp_path)})
    first = pipeline.run_pipeline(cfg, stages=["solid_angle"])
    _malform_stage(tmp_path, "solid_angle", malform)
    with pytest.warns(RuntimeWarning, match="malformed stage 'solid_angle'"):
        again = pipeline.run_pipeline(cfg, stages=["solid_angle"])
    assert again["cached_stages"] == []
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
    assert manifest["cached_stages"] == [
        "solid_angle", "emission", "library", "design", "synthesize"]


def test_rejected_cached_artifact_is_a_stage_error(run_dir, tmp_path):
    """A cached upstream artifact whose checksum verifies but whose
    content its reader rejects fails the stage that reads it."""
    out, _, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    rel = os.path.join("synthesize", "near_field_te.npz")
    (copy / rel).write_bytes(b"not a field file")
    manifest_path = copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["stages"]["synthesize"]["artifacts"][rel] = \
        pipeline._sha256_file(copy / rel)
    del manifest["stages"]["propagate"]
    manifest_path.write_text(json.dumps(manifest))
    cfg = load_config(overrides={**FAST, "output_dir": str(copy)})
    with pytest.raises(pipeline.StageError,
                       match="not an .npz field file") as exc:
        pipeline.run_pipeline(cfg)
    assert exc.value.stage == "propagate"

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST, "output_dir": str(copy)}))
    result = CliRunner().invoke(main, ["pipeline", "--config",
                                       str(cfg_path)])
    assert result.exit_code == 1
    lines = [l for l in result.output.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith("stage-error: propagate: ")


def test_cached_rerun_reads_no_artifact(run_dir, tmp_path, monkeypatch):
    out, _, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    cfg = load_config(overrides={**FAST, "output_dir": str(copy)})
    # brings back any stage another test recomputed under other settings
    pipeline.run_pipeline(cfg)
    before = (copy / "manifest.json").read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("a cached rerun read an artifact")

    monkeypatch.setattr(propagation, "load_field", refuse)
    monkeypatch.setattr(liblib, "load_library", refuse)
    monkeypatch.setattr(pipeline, "_read_teeth", refuse)
    manifest = pipeline.run_pipeline(cfg)
    assert manifest["cached_stages"] == list(pipeline.STAGES)
    assert (copy / "manifest.json").read_bytes() == before


def test_analytic_library_apodization():
    cfg = load_config()
    lib = pipeline.analytic_library(cfg)
    kappas = [lib.entries[(0, j)].kappa for j in range(len(lib.delta_fracs))]
    assert kappas[0] == pytest.approx(cfg.library["kappa0"])
    assert all(a > b for a, b in zip(kappas, kappas[1:]))
    assert kappas[-1] == pytest.approx(0.0, abs=1e-6 * kappas[0])


def test_run_summaries_are_physical(run_dir):
    _, cfg, manifest = run_dir
    s = {n: manifest["stages"][n]["summary"] for n in pipeline.STAGES}
    assert s["solid_angle"]["solid_angle_fraction"] == pytest.approx(
        0.0218, abs=5e-4)
    assert s["design"]["n_teeth"] > 50
    assert not s["design"]["fit_infeasible"]
    # the focus lands at the ion's transverse position
    assert s["propagate"]["peak_x_te"] == pytest.approx(cfg.pose.x_ion,
                                                        abs=2e-6)
    # per-polarization map peaks stay below the per-mode solid-angle bound
    bound = s["solid_angle"]["per_mode_bound"]
    assert 0 < s["overlap"]["eta_peak_te"] <= 2 * bound
    # the TM focus is displaced from the TE focus
    assert s["crosstalk"]["maxima_offset"] > 0.5e-6
    assert s["crosstalk"]["tm_suppression_db"] < -10.0
    assert s["detect"]["bright_fidelity"] == pytest.approx(0.907, abs=2e-3)


def test_report_contents_and_determinism(run_dir):
    _, _, manifest = run_dir
    text = pipeline.report(manifest)
    assert text == pipeline.report(manifest)
    assert "solid-angle fraction" in text
    assert "-47.68" in text and "0.11" in text   # measured ledger total
    assert "-47.90" in text and "-28.10" in text
    assert len(text.splitlines()) < 60


def test_report_empty_and_partial():
    assert "no stages" in pipeline.report({})
    partial = {"stages": {"detect": {"summary": {
        "bright_fidelity": 0.9, "dark_fidelity": 0.92,
        "bright_mean_time": 2.7e-3, "ledgers": {}}}}}
    text = pipeline.report(partial)
    assert "missing stages" in text and "solid_angle" in text


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


def test_cli_report_on_truncated_manifest(run_dir, tmp_path):
    out, _, _ = run_dir
    text = (out / "manifest.json").read_text()
    (tmp_path / "manifest.json").write_text(text[:len(text) // 2])
    result = CliRunner().invoke(main, ["report", "--out", str(tmp_path)])
    assert result.exit_code == 1
    lines = [l for l in result.output.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith("manifest-unreadable: ")


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
    field = propagation.load_field(path)
    near = propagation.load_field(out / "synthesize" / "near_field_te.npz")
    assert field.z == pytest.approx(near.z + 2e-6)
    assert field.data.shape == near.data.shape


def test_cli_has_no_jobs_option_or_map_verb():
    runner = CliRunner()
    result = runner.invoke(main, ["design", "--jobs", "2"])
    assert result.exit_code == 2 and "--jobs" in result.output
    assert "map" not in main.commands


def test_cli_writes_only_under_out(run_dir, tmp_path, monkeypatch):
    out, _, _ = run_dir
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({**FAST, "output_dir": str(out)}))
    runner = CliRunner()
    result = runner.invoke(main, ["crosstalk", "--config", str(cfg_path)])
    assert result.exit_code == 0
    leftovers = [p for p in os.listdir(tmp_path) if p != "cfg.yaml"]
    assert leftovers == []
