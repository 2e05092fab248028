"""In-memory span tracing of the program's public functions.

A traced run rebinds module attributes (``designer.fit_kappa``,
``fdtd.Fdtd2D.run_periods``, ...) to wrappers that record one span per
call: name, start, end, parent span and operation id.  Nothing inside the
package changes; the originals are restored on exit.  Spans stay in memory
and are written out once, when the run ends.
"""

import functools
import json
import math
import os
import time
from collections import defaultdict

# bytes moved per Yee cell per TE FDTD step, counted from Fdtd2D._step:
# each numpy expression there reads every float64 array operand once and
# writes its result once, temporaries included; the 17 expressions touch
# 73 arrays in all.  A computed figure, not a measurement.
FDTD_BYTES_PER_CELL_STEP = 8 * 73


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent, op]
        self.counts = defaultdict(float)
        self.op = "setup"
        self._stack = []
        self._patches = []

    # -- recording --------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name, value=1.0):
        self.counts[(name, self.op)] += value

    def wrap(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(idx)
            self.count(name + ".calls")
            if on_result is not None:
                on_result(self, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derived numbers --------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its direct children cover.

        Spans come from one thread and nest properly, so children of one
        parent never overlap and their durations simply add.
        """
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def per_op(self, measured_ops):
        """Span times and counters folded to one number per name.

        A name that occurred in a measured operation reports its mean per
        measured operation; a name seen only during set-up (the priming
        run of warm-rerun) reports its set-up total.
        """
        totals = defaultdict(lambda: defaultdict(float))
        selfs = self.self_times()
        for (name, start, end, _, op), self_s in zip(self.spans, selfs):
            totals[name + ".s"][op] += end - start
            totals[name + ".self_s"][op] += self_s
        for (name, op), value in self.counts.items():
            totals[name][op] += value
        out = {}
        n = max(len(measured_ops), 1)
        for name, by_op in totals.items():
            in_ops = [by_op[o] for o in measured_ops if o in by_op]
            out[name] = sum(in_ops) / n if in_ops else by_op.get("setup", 0.0)
        return out

    def write(self, path, extra=None):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        selfs = self.self_times()
        doc = {"spans": [{"name": n, "start": s, "end": e, "parent": p,
                          "op": o, "self_s": st}
                         for (n, s, e, p, o), st in zip(self.spans, selfs)],
               **(extra or {})}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# What a traced run wraps, and the counters taken at each boundary

def _fit_nfev(tracer, args, result):
    tracer.count("designer.fit_kappa.nfev", result[1].n_evaluations)


def _fft_flops(tracer, args, result):
    if args[1] == 0.0:
        return  # a zero step returns a copy without transforming
    ny, nx = args[0].data.shape
    n = nx * ny
    # one forward and one inverse 2D transform, 5 N log2 N each
    tracer.count("propagation.fft_flops_computed", 2 * 5 * n * math.log2(n))


def _saved_bytes(tracer, args, result):
    tracer.count("propagation.save_field.bytes", os.path.getsize(args[1]))


def _loaded_bytes(tracer, args, result):
    tracer.count("propagation.load_field.bytes", os.path.getsize(args[0]))


def _pipeline_counts(tracer, args, result):
    from iongrating import pipeline
    out_dir = args[1] if len(args) > 1 and args[1] else args[0].output_dir
    hits = len(result["cached_stages"])
    tracer.count("pipeline.cache_hits", hits)
    tracer.count("pipeline.cache_misses", len(pipeline.STAGES) - hits)
    size = sum(os.path.getsize(os.path.join(out_dir, rel))
               for stage in result["stages"].values()
               for rel in stage["artifacts"])
    tracer.count("pipeline.artifact_bytes", size)
    # every artifact of every stage is hashed once per call: verified when
    # the stage is cached, recorded when it is recomputed
    tracer.count("pipeline.bytes_hashed_computed", size)


def _fdtd_steps(tracer, args, result):
    sim, n_periods = args[0], args[1]
    steps = n_periods * sim.steps_per_period
    tracer.count("fdtd.cell_steps", sim.grid.nx * sim.grid.nz * steps)
    tracer.count("fdtd.periods_stepped", n_periods)


def install(tracer):
    """Wrap every traced boundary of the package."""
    from iongrating import (designer, detection, dipole, fdtd, geometry,
                            library, overlap, pipeline, propagation)
    w = tracer.wrap
    w(pipeline, "run_pipeline", "pipeline.run_pipeline", _pipeline_counts)
    w(designer, "fit_kappa", "designer.fit_kappa", _fit_nfev)
    for fn in ("curve_tooth", "discretize", "emit_layout", "export_layout"):
        w(designer, fn, "designer." + fn)
    w(propagation, "synthesize_near_field",
      "propagation.synthesize_near_field")
    w(propagation, "angular_spectrum_propagate",
      "propagation.angular_spectrum_propagate", _fft_flops)
    w(propagation, "save_field", "propagation.save_field", _saved_bytes)
    w(propagation, "load_field", "propagation.load_field", _loaded_bytes)
    w(library, "evaluate_cell", "library.evaluate_cell")
    w(library, "load_library", "library.load_library")
    w(fdtd, "run_unit_cell", "fdtd.run_unit_cell")
    w(fdtd.Fdtd2D, "run_periods", "fdtd.run_periods", _fdtd_steps)
    w(fdtd.Fdtd2D, "__init__", "fdtd.Fdtd2D")
    w(dipole, "ion_intensity_profile", "dipole.ion_intensity_profile")
    w(geometry, "solid_angle_fraction", "geometry.solid_angle_fraction")
    w(overlap, "collection_map", "overlap.collection_map")
    w(overlap, "coupling_at_point", "overlap.coupling_at_point")
    w(detection, "dark_fidelity_mc", "detection.dark_fidelity_mc")
    w(detection, "adaptive_timing", "detection.adaptive_timing")


# per-layer metric -> (unit, better); BENCHMARK.json lists the same table
LAYER_METRICS = {
    "designer.fit_kappa.s": ("s", "lower"),
    "designer.fit_kappa.nfev": ("count", "lower"),
    "designer.curve_tooth.s": ("s", "lower"),
    "designer.curve_tooth.calls": ("count", "lower"),
    "designer.discretize.s": ("s", "lower"),
    "designer.emit_layout.s": ("s", "lower"),
    "designer.export_layout.s": ("s", "lower"),
    "designer.truncated_ratio": ("1", "lower"),
    "propagation.synthesize_near_field.s": ("s", "lower"),
    "propagation.angular_spectrum_propagate.s": ("s", "lower"),
    "propagation.angular_spectrum_propagate.calls": ("count", "lower"),
    "propagation.fft_flops_computed": ("flop", "lower"),
    "propagation.save_field.s": ("s", "lower"),
    "propagation.save_field.bytes": ("B", "lower"),
    "propagation.load_field.s": ("s", "lower"),
    "propagation.load_field.bytes": ("B", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.cache_hits": ("count", "higher"),
    "pipeline.cache_misses": ("count", "lower"),
    "pipeline.artifact_bytes": ("B", "lower"),
    "pipeline.bytes_hashed_computed": ("B", "lower"),
    "fdtd.run_unit_cell.s": ("s", "lower"),
    "fdtd.run_periods.s": ("s", "lower"),
    "fdtd.simulations": ("count", "lower"),
    "fdtd.cell_steps": ("count", "lower"),
    "fdtd.us_per_cell_step": ("us", "lower"),
    "fdtd.periods_run": ("count", "lower"),
    "fdtd.bytes_per_cell_step_computed": ("B", "lower"),
    "library.evaluate_cell.s": ("s", "lower"),
    "library.evaluate_cell.calls": ("count", "lower"),
    "library.load_library.s": ("s", "lower"),
    "dipole.ion_intensity_profile.s": ("s", "lower"),
    "geometry.solid_angle_fraction.s": ("s", "lower"),
    "overlap.collection_map.s": ("s", "lower"),
    "overlap.collection_map.calls": ("count", "lower"),
    "overlap.coupling_at_point.s": ("s", "lower"),
    "detection.dark_fidelity_mc.s": ("s", "lower"),
    "detection.adaptive_timing.s": ("s", "lower"),
    "process.import_s": ("s", "lower"),
    "trace.op_cpu_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def layer_metrics(tracer, measured_ops, extra):
    """The per-layer metrics of one traced run, in LAYER_METRICS order.

    Times and counts are per measured operation, or set-up totals for
    layers that only ran during set-up (see Tracer.per_op).
    """
    v = tracer.per_op(measured_ops)
    sims = v.get("fdtd.Fdtd2D.calls", 0.0)
    steps = v.get("fdtd.cell_steps", 0.0)
    derived = {
        "designer.truncated_ratio": extra["truncated_ratio"],
        # run_pipeline time not covered by any traced child span
        "pipeline.self_s": v.get("pipeline.run_pipeline.self_s", 0.0),
        "fdtd.simulations": sims,
        "fdtd.us_per_cell_step": (1e6 * v.get("fdtd.run_periods.s", 0.0)
                                  / steps if steps else 0.0),
        "fdtd.periods_run": (v.get("fdtd.periods_stepped", 0.0) / sims
                             if sims else 0.0),
        "fdtd.bytes_per_cell_step_computed": (
            FDTD_BYTES_PER_CELL_STEP if steps else 0.0),
        "process.import_s": extra["import_s"],
        "trace.op_cpu_s": extra["op_cpu_s"],
        "trace.spans": float(len(tracer.spans)),
    }
    return {name: derived[name] if name in derived else v.get(name, 0.0)
            for name in LAYER_METRICS}
