"""What the benchmark harness in ``perfbench/`` relies on in the package.

The harness is imported as it is and run against the live package: the
names its tracer wraps, the inputs its workloads build and the stages its
checks read.  A name the package no longer has makes a traced benchmark
run fail as a whole, so a change that breaks one fails here first.
"""

import math
import os
import sys

import pytest

from iongrating import config, fdtd, geometry, pipeline, propagation

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench")
sys.path.insert(0, os.path.abspath(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_wraps_every_listed_name_and_restore_undoes_it():
    tracer = tracing.Tracer()
    try:
        # getattr on each listed name raises if the package lacks it
        tracing.install(tracer)
        patches = list(tracer._patches)
        wrapped = [getattr(owner, attr) for owner, attr, _ in patches]
    finally:
        tracer.restore()
    assert patches
    for (owner, attr, original), traced in zip(patches, wrapped):
        assert traced is not original and traced.__wrapped__ is original
        assert getattr(owner, attr) is original, attr


def test_traced_kernels_feed_their_counters():
    # the counters read their wrapped call's positional arguments: the
    # simulation and its periods, the field and its step
    stack = geometry.default_stack()
    cell = 3 * fdtd.default_cell_size(stack, 422e-9, 16)
    material = fdtd.unit_cell_material_map(stack, None, 4, cell)
    field = propagation.gaussian_field(0.6e-6, shape=(32, 32))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        sim = fdtd.Fdtd2D(material, 422e-9)
        sim.run_periods(1)
        propagation.angular_spectrum_propagate(field, 1e-6)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names == ["fdtd.Fdtd2D", "fdtd.run_periods",
                     "propagation.angular_spectrum_propagate"]
    counts = {name: v for (name, _), v in tracer.counts.items()}
    nx, nz = sim.grid.nx, sim.grid.nz
    assert counts["fdtd.cell_steps"] == nx * nz * sim.steps_per_period
    n = 32 * 32
    assert counts["propagation.fft_flops_computed"] == pytest.approx(
        2 * 5 * n * math.log2(n))


def test_fdtd_cells_builds_its_cell_pair():
    kernel = workloads.kernel_config()
    angle, (cell, half) = workloads.unit_cells(1, kernel)
    lo, hi = workloads.ANGLE_BAND_DEG
    assert lo <= math.degrees(angle) <= hi
    assert cell.pitch == half.pitch and cell.delta == 0.0
    assert half.delta == pytest.approx(half.pitch / 2, rel=1e-15)


def test_warm_rerun_overrides_load(tmp_path):
    overrides = workloads.pipeline_overrides(1, str(tmp_path))
    cfg = config.load_config(overrides=overrides)
    assert cfg.output_dir == str(tmp_path)


def test_pipeline_has_the_stages_the_checks_read():
    # perfbench/run.py and checks.py read the summaries of these stages
    assert {"design", "propagate", "overlap"} <= set(pipeline.STAGES)
