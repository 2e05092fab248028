"""Tests of the benchmark's own checks, tracer and result contract.

Each output check must accept the real output of the nominal seed (0) and
reject a corrupted copy of it.  The real outputs come from one cold
pipeline run and one unit-cell pair, so this module takes about a minute:

    python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NOMINAL_SEED = 0


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    from iongrating import config, pipeline
    out = str(tmp_path_factory.mktemp("warm"))
    cfg = config.load_config(
        overrides=workloads.pipeline_overrides(NOMINAL_SEED, out))
    cold = pipeline.run_pipeline(cfg)
    with open(os.path.join(out, "manifest.json"), "rb") as fh:
        before = fh.read()
    warm = pipeline.run_pipeline(cfg)
    with open(os.path.join(out, "manifest.json"), "rb") as fh:
        after = fh.read()
    return cfg, out, cold, warm, before, after


@pytest.fixture(scope="module")
def cell_pair():
    kernel = workloads.kernel_config()
    angle, cells = workloads.unit_cells(NOMINAL_SEED, kernel)
    return [workloads.evaluate_with_result(p, angle, kernel) for p in cells]


def _cold(cfg, out, manifest):
    from iongrating import pipeline
    return checks.check_cold(manifest, out, cfg.pose.x_ion, cfg.pose.y_ion,
                             pipeline.STAGES)


# ---------------------------------------------------------------------------
# cold pipeline (the priming run of warm-rerun)

def test_cold_check_accepts_nominal_output(pipeline_run):
    cfg, out, cold, *_ = pipeline_run
    assert _cold(cfg, out, cold) == []


def test_cold_check_rejects_focus_shifted_5um(pipeline_run):
    cfg, out, cold, *_ = pipeline_run
    bad = copy.deepcopy(cold)
    bad["stages"]["propagate"]["summary"]["peak_x_te"] += 5e-6
    assert any("focus x" in f for f in _cold(cfg, out, bad))


def test_cold_check_rejects_poor_fit(pipeline_run):
    cfg, out, cold, *_ = pipeline_run
    bad = copy.deepcopy(cold)
    bad["stages"]["design"]["summary"]["fit_relative_l2"] = 0.2
    assert any("relative L2" in f for f in _cold(cfg, out, bad))


def test_cold_check_rejects_corrupted_artifact(pipeline_run, tmp_path):
    cfg, out, cold, *_ = pipeline_run
    copy = str(tmp_path / "run")
    shutil.copytree(out, copy)
    rel = next(iter(cold["stages"]["design"]["artifacts"]))
    with open(os.path.join(copy, rel), "ab") as fh:
        fh.write(b" ")
    fails = _cold(cfg, copy, cold)
    assert fails == [f"design: checksum of {rel} does not verify"]


# ---------------------------------------------------------------------------
# cached rerun

def test_warm_check_accepts_nominal_rerun(pipeline_run):
    from iongrating import pipeline
    *_, warm, before, after = pipeline_run
    assert checks.check_warm(warm, pipeline.STAGES, before, after) == []


def test_warm_check_rejects_changed_manifest(pipeline_run):
    from iongrating import pipeline
    *_, warm, before, after = pipeline_run
    digest = json.loads(after)["config_hash"].encode()
    changed = after.replace(digest, digest[::-1])
    assert changed != after and len(changed) == len(after)
    assert checks.check_warm(warm, pipeline.STAGES, before, changed) == [
        "manifest.json changed on a cached rerun"]


def test_warm_check_rejects_recomputed_stage(pipeline_run):
    from iongrating import pipeline
    *_, warm, before, after = pipeline_run
    bad = dict(warm, cached_stages=warm["cached_stages"][1:])
    assert checks.check_warm(bad, pipeline.STAGES, before, after)


# ---------------------------------------------------------------------------
# unit cells

def test_cell_checks_accept_nominal_pair(cell_pair):
    (e0, c0), (e1, c1) = cell_pair
    assert checks.check_cell(e0, c0, shifted=False) == []
    assert checks.check_cell(e1, c1, shifted=True) == []
    assert checks.check_half_pitch(e0.kappa, e1.kappa) == []


@pytest.mark.parametrize("total", [0.9, 1.1])
def test_cell_check_rejects_closure_off_by_10_percent(cell_pair, total):
    for (entry, cell), shifted in zip(cell_pair, (False, True)):
        p_sum = cell.p_trans + cell.p_reflected + cell.p_up + cell.p_down
        bad = dataclasses.replace(cell, p_up=cell.p_up + total - p_sum)
        fails = checks.check_cell(entry, bad, shifted)
        assert any("energy closure" in f for f in fails)


@pytest.mark.parametrize("off_deg", [-3.0, 2.0])
def test_cell_check_rejects_peak_degrees_off(cell_pair, off_deg):
    entry, cell = cell_pair[0]
    bad = dataclasses.replace(
        cell, peak_angle=cell.target_angle + math.radians(off_deg))
    assert any("peak angle" in f
               for f in checks.check_cell(entry, bad, shifted=False))


def test_cell_check_rejects_nonfinite_kappa(cell_pair):
    entry, cell = cell_pair[0]
    bad = dataclasses.replace(entry, kappa=float("nan"))
    assert checks.check_cell(bad, cell, shifted=False)


def test_half_pitch_check_rejects_weak_suppression(cell_pair):
    (e0, _), _ = cell_pair
    assert checks.check_half_pitch(e0.kappa, 0.2 * e0.kappa)


# ---------------------------------------------------------------------------
# tracer, statistics and the result contract

def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    t.spans = [["outer", 0.0, 10.0, None, "op0"],
               ["child", 1.0, 4.0, 0, "op0"],
               ["grandchild", 2.0, 3.0, 1, "op0"],
               ["child", 5.0, 6.0, 0, "op0"]]
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_per_op_means_measured_ops_and_keeps_setup_totals():
    t = tracing.Tracer()
    t.spans = [["fit", 0.0, 8.0, None, "setup"],
               ["load", 8.0, 9.0, None, "op0"],
               ["load", 9.0, 12.0, None, "op1"]]
    v = t.per_op(["op0", "op1"])
    assert v["fit.s"] == 8.0
    assert v["load.s"] == 2.0


def test_tracer_restores_wrapped_functions():
    import types
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    t = tracing.Tracer()
    t.wrap(mod, "f", "mod.f")
    assert mod.f(1) == 2 and t.spans[0][0] == "mod.f"
    t.restore()
    assert mod.f is original


@pytest.mark.parametrize("kind", ["python", "memory"])
def test_calibration_scales_to_reference_speed(kind):
    cal = speed.Calibrator(kind)
    cal.ticks = [[t, cal.ref_s] for t in (0.0, 0.5, 1.0, 1.5)] + [
        [t, 2 * cal.ref_s] for t in (5.0, 5.5, 6.0, 6.5)]
    assert cal.scale(0.0, 1.5) == 1.0
    # a host running the kernel at half speed halves the scale factor
    assert cal.scale(5.0, 6.5) == 0.5
    # a stretch with too few ticks inside uses the nearest ones
    assert cal.scale(6.9, 7.0) == 0.5


def test_calibrator_ticks_and_leaves_its_kernel_out():
    cal = speed.Calibrator("python")
    cal.every_s = 0.2
    cal.start()
    try:
        cpu0, clock0 = time.process_time(), cal.clock()
        while cal.clock() - clock0 < 1.0:
            sum(range(1000))
    finally:
        cal.stop()
    assert len(cal.ticks) >= 3
    kernel_s = sum(k for _, k in cal.ticks)
    assert kernel_s > 0
    process_s = time.process_time() - cpu0
    assert cal.clock() - clock0 == pytest.approx(process_s - kernel_s,
                                                 abs=1e-3)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    t = run.tail([float(i) for i in range(20)])
    assert t == {"value": 9.0, "percentile": 50.0, "samples": 20}


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["end_to_end"]} == {
        n: (u, b) for n, (u, b, _) in run.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["per_layer"]} == tracing.LAYER_METRICS


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fdtd-cells",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
