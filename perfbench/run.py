#!/usr/bin/env python3
"""Benchmark of the iongrating design tool.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload warm-rerun --seed 1 --seconds 8 \\
        --trace 0

One process, one operation at a time (a closed loop with one client, as a
single designer works).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` repeats the workload with the package's public functions
wrapped and prints the per-layer metrics instead.  The last line of
standard output is one JSON object; the lines before it are a readable
report.  The exit code is 1 when any operation's output fails its check.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# the benchmark's own modules import nothing heavy at module level, so the
# thread pinning in main() still precedes numpy's import
import checks
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("warm-rerun", "fdtd-cells")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads(nproc):
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_revision():
    """HEAD of the checkout, read without starting git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    i = n - 11
    return {"value": sorted(values)[i], "percentile": 100.0 * (i + 1) / n,
            "samples": n}


def fresh_import_cpu_s():
    """CPU seconds a fresh interpreter spends starting and importing the
    package, as the child measures them."""
    code = ("import time, iongrating.pipeline; "
            "print(time.process_time())")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def input_hash(inputs):
    blob = json.dumps(inputs, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# Workloads

class Outcome:
    """What one run measured and checked.

    Times come from the calibrator's clocks, which leave its kernel out;
    each operation's CPU time is scaled to the reference host speed by the
    kernel ticks during it once the run is over (``finish``).
    """

    def __init__(self, tracer, cal):
        self.tracer = tracer
        self.cal = cal
        self.op_ids = []
        self.op_spans = []      # [begin, end] on cal.clock()
        self.op_scaled = []     # CPU s at the reference host speed
        self.op_cpu = []
        self.op_sys = []
        self.op_wall = []
        self.attempted = 0
        self.failures = []      # (operation id, message)
        self.quality = {}
        self.info = {}

    def end_setup(self):
        """Mark the end of set-up; returns the wall clock there."""
        self.setup_end = (self.cal.clock(), self.cal.wall())
        return self.setup_end[1]

    def measure(self, fn, *args):
        """Run and time one operation.  Returns its result, or None when it
        raised; the failure is then recorded, never retried."""
        op_id = f"op{len(self.op_ids)}"
        if self.tracer:
            self.tracer.op = op_id
        wall, cpu, sys0 = self.cal.wall(), self.cal.clock(), os.times()[1]
        error = None
        try:
            result = fn(*args)
        except Exception as exc:  # an operation's failure is a result
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.op_wall.append(self.cal.wall() - wall)
        self.op_spans.append([cpu, self.cal.clock()])
        self.op_cpu.append(self.op_spans[-1][1] - cpu)
        self.op_sys.append(os.times()[1] - sys0)
        self.op_ids.append(op_id)
        if error:
            self.record(op_id, [error])
        return result

    def finish(self):
        """Scale every operation's CPU time, now that the ticks after it
        are in."""
        self.op_scaled = [cpu * self.cal.scale(*span)
                          for cpu, span in zip(self.op_cpu, self.op_spans)]

    def record(self, op_id, fails):
        self.attempted += 1
        for msg in fails:
            self.failures.append((op_id, msg))

    @property
    def failed(self):
        return len({op for op, _ in self.failures})


def run_warm_rerun(args, out):
    """Prime a run directory with one cold pipeline, then time reruns.

    Returns the median rerun's reference-speed CPU seconds, and a dict of
    the unscaled figures."""
    from iongrating import config, pipeline

    out_dir = workloads.fresh_dir(os.path.join(
        WORK, f"warm-rerun-seed{args.seed}"))
    out.info["run_dir"] = out_dir
    overrides = workloads.pipeline_overrides(args.seed, out_dir)
    cfg = config.load_config(overrides=overrides)
    wall = out.cal.wall()
    manifest = pipeline.run_pipeline(cfg)
    out.quality["cold_pipeline_s"] = out.cal.wall() - wall
    out.info.update(config_hash=manifest["config_hash"],
                    input_hash=input_hash({**overrides, "output_dir": None}))
    out.record("setup", checks.check_cold(manifest, out_dir, cfg.pose.x_ion,
                                           cfg.pose.y_ion, pipeline.STAGES))
    out.quality.update(workload_quality_pipeline(manifest, cfg, out_dir))
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "rb") as fh:
        before = fh.read()

    begin = out.end_setup()
    while not out.op_ids or out.cal.wall() - begin < args.seconds:
        rerun = out.measure(pipeline.run_pipeline, cfg)
        if rerun is None:
            continue
        with open(manifest_path, "rb") as fh:
            after = fh.read()
        out.record(out.op_ids[-1], checks.check_warm(
            rerun, pipeline.STAGES, before, after))
    out.finish()
    med = statistics.median
    return med(out.op_scaled), {"op_cpu_unscaled_s": med(out.op_cpu),
                                "op_wall_s": med(out.op_wall)}


def workload_quality_pipeline(manifest, cfg, out_dir):
    stages = manifest["stages"]
    prop = stages["propagate"]["summary"]
    with open(os.path.join(out_dir, "design", "teeth.json")) as fh:
        teeth = json.load(fh)
    size = sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out_dir) for f in files)
    return {
        "fit_relative_l2": stages["design"]["summary"]["fit_relative_l2"],
        "focus_error_um": 1e6 * math.hypot(prop["peak_x_te"] - cfg.pose.x_ion,
                                           prop["peak_y_te"] - cfg.pose.y_ion),
        "eta_at_ion": stages["overlap"]["summary"]["eta_at_ion"],
        "artifact_mb": size / 1e6,
        "truncated_ratio": (sum(t["truncated"] for t in teeth) / len(teeth)
                            if teeth else 0.0),
    }


def run_fdtd_cells(args, out):
    """Evaluate seeded unit cells, delta = 0 then pitch/2 at each angle.

    Returns reference-speed CPU seconds per library entry, with the
    reference runs spread over the entries that share them, and a dict of
    the unscaled figures."""
    kernel = workloads.kernel_config()
    workloads.unit_cells(args.seed, kernel, 0)
    inputs, closure, ratios = [], [], []
    begin = out.end_setup()
    while not inputs or out.cal.wall() - begin < args.seconds:
        angle, cells = workloads.unit_cells(args.seed, kernel, len(inputs))
        inputs.append((math.degrees(angle), [vars(c) for c in cells]))
        kappa0 = math.nan
        for params in cells:
            res = out.measure(workloads.evaluate_with_result, params, angle,
                              kernel)
            if res is None:
                continue
            entry, cell = res
            shifted = params.delta > 0
            closure.append(checks.closure_error(cell))
            fails = checks.check_cell(entry, cell, shifted)
            if not shifted:
                kappa0 = entry.kappa
            else:
                fails += checks.check_half_pitch(kappa0, entry.kappa)
                if kappa0 > 0:
                    ratios.append(entry.kappa / kappa0)
            out.record(out.op_ids[-1], fails)
    out.quality.update(energy_closure_err=max(closure, default=math.nan),
                       half_pitch_kappa_ratio=max(ratios, default=math.nan))
    out.info["input_hash"] = input_hash(
        {"points_per_wavelength": kernel.points_per_wavelength,
         "n_periods": kernel.n_periods, "cells": inputs})
    out.finish()
    n = len(out.op_ids)
    return sum(out.op_scaled) / n, {"op_cpu_unscaled_s": sum(out.op_cpu) / n,
                                    "op_wall_s": sum(out.op_wall) / n}


RUNNERS = {"warm-rerun": run_warm_rerun, "fdtd-cells": run_fdtd_cells}
# the calibration kernel whose drift follows each workload's work
CAL_KERNEL = {"warm-rerun": "python", "fdtd-cells": "memory"}

# name -> (unit, better, meaning); the end-to-end metrics of BENCHMARK.json
END_TO_END = {
    "op_cpu_s": ("s", "lower",
                 "CPU s of one operation at the reference host speed: the "
                 "median cached run_pipeline (warm-rerun), or per library "
                 "entry (fdtd-cells)"),
    "setup_s": ("s", "lower",
                "CPU s before the measured loop at the reference host "
                "speed: median of 3 imports, config, and on warm-rerun the "
                "priming cold pipeline"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the process"),
}
# printed with every untraced result, not gated
REPORTED = {
    "op_cpu_unscaled_s": ("s", "lower"),
    "op_wall_s": ("s", "lower"),
    "setup_cpu_unscaled_s": ("s", "lower"),
    "setup_wall_s": ("s", "lower"),
    "host_speed": ("1", "higher"),
    "cold_pipeline_s": ("s", "lower"),
    "artifact_mb": ("MB", "lower"),
    "fit_relative_l2": ("1", "lower"),
    "focus_error_um": ("um", "lower"),
    "eta_at_ion": ("1", "higher"),
    "energy_closure_err": ("1", "lower"),
    "half_pitch_kappa_ratio": ("1", "lower"),
    "failed_frac": ("1", "lower"),
}


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = pin_threads(nproc)
    if not os.path.isdir(os.path.join(ROOT, "src", "iongrating")):
        print(f"perfbench: no package source at {ROOT}/src/iongrating",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = time.perf_counter()
    import numpy
    import scipy
    import iongrating
    from iongrating import pipeline  # noqa: F401  (imports every module)
    import_s = time.perf_counter() - t0
    import_cpu_s = time.process_time()  # interpreter start-up included

    cal = speed.Calibrator(CAL_KERNEL[args.workload])
    cal.start()
    setup_begin = cal.clock()
    setup_wall = cal.wall()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(clock=cal.wall)
        tracing.install(tracer)
    # set-up is repeated where it can be: two more imports in fresh
    # interpreters, and the median of the three counts
    setup_import_cpu_s = statistics.median(
        [import_cpu_s, fresh_import_cpu_s(), fresh_import_cpu_s()])

    out = Outcome(tracer, cal)
    try:
        op_cpu_s, other = RUNNERS[args.workload](args, out)
    finally:
        cal.stop()
        if tracer:
            tracer.restore()
        if "run_dir" in out.info:
            shutil.rmtree(out.info.pop("run_dir"), ignore_errors=True)
    setup_end, setup_wall_end = out.setup_end
    setup_cpu_s = setup_import_cpu_s + setup_end - setup_begin
    e2e = {"op_cpu_s": op_cpu_s,
           "setup_s": setup_cpu_s * cal.scale(setup_begin, setup_end),
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    out.quality.update(
        other, setup_cpu_unscaled_s=setup_cpu_s,
        setup_wall_s=import_s + setup_wall_end - setup_wall,
        host_speed=cal.host_speed(),
        failed_frac=out.failed / out.attempted)

    provenance = {
        "git_revision": git_revision(),
        "config_hash": out.info.get("config_hash"),
        "input_hash": out.info.get("input_hash"),
        "nproc": nproc, "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "iongrating": iongrating.__version__,
        "threads": threads,
    }
    timing = {"op_ids": out.op_ids, "op_cpu_s": out.op_scaled,
              "op_cpu_unscaled_s": out.op_cpu, "op_sys_s": out.op_sys,
              "op_wall_s": out.op_wall,
              "calibration_ticks": cal.ticks,
              "op_cpu_s_tail": tail(out.op_scaled),
              "op_wall_s_tail": tail(out.op_wall)}
    result_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"seconds {args.seconds:g}  trace {args.trace}",
             "provenance " + json.dumps(provenance, sort_keys=True)]
    if args.trace:
        metrics = tracing.layer_metrics(
            tracer, out.op_ids,
            {"import_s": import_s, "op_cpu_s": op_cpu_s,
             "truncated_ratio": out.quality.get("truncated_ratio", 0.0)})
        units = {n: tracing.LAYER_METRICS[n][0] for n in metrics}
        trace_path = os.path.join(WORK, f"trace-{args.workload}-"
                                        f"seed{args.seed}.json")
        tracer.write(trace_path, {"provenance": provenance})
        lines.append(f"spans written to {os.path.relpath(trace_path)}")
        lines.append(tracing_overhead(result_name, op_cpu_s))
        lines.append("per-layer metrics")
        for name, value in metrics.items():
            lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    else:
        metrics = e2e
        units = {n: END_TO_END[n][0] for n in metrics}
        lines.append("end-to-end metrics")
        for name, (unit, better, what) in END_TO_END.items():
            lines.append(f"  {name:<22} {metrics[name]:>12.6g} {unit:<3} "
                         f"{better:<6} {what}")
        for key in ("op_cpu_s_tail", "op_wall_s_tail"):
            t = timing[key]
            lines.append(
                f"  {key:<22} " + (
                    f"{t['value']:>12.6g} s   lower  p{t['percentile']:.1f} "
                    f"of {t['samples']} operations" if t else
                    f"{'n/a':>12} s   lower  needs 11 operations, ran "
                    f"{len(out.op_ids)}"))
        lines.append("reported, not gated")
        for name, (unit, better) in REPORTED.items():
            if name in out.quality:
                lines.append(f"  {name:<22} {out.quality[name]:>12.6g} "
                             f"{unit:<3} {better}")
    lines.append(f"attempted {out.attempted}  failed {out.failed}")
    for op_id, msg in out.failures:
        lines.append(f"  FAILED {op_id}: {msg}")

    result = {"correct": out.failed == 0, "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {n: {"value": float(v), "unit": units[n]}
                          for n, v in metrics.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", result_name + ".json"),
              "w") as fh:
        json.dump({**result, "provenance": provenance, "timing": timing,
                   "quality": out.quality, "failures": out.failures},
                  fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def tracing_overhead(result_name, traced_s):
    """Traced minus untraced op_cpu_s, when the untraced result of the same
    workload and seed is in .perfbench/results."""
    path = os.path.join(WORK, "results", result_name[:-1] + "0.json")
    if not os.path.exists(path):
        return "tracing overhead: no untraced result of this seed to compare"
    with open(path) as fh:
        base = json.load(fh)["metrics"]["op_cpu_s"]["value"]
    return (f"tracing overhead: op_cpu_s traced {traced_s:.6g} s - "
            f"untraced {base:.6g} s = {traced_s - base:+.6g} s "
            f"({100 * (traced_s / base - 1):+.2f} %)")


if __name__ == "__main__":
    sys.exit(main())
