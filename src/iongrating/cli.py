"""Command-line interface.

Every verb reads a layered YAML configuration (defaults overridden by
``--config``), writes only inside the output directory, and exits nonzero
on error with a single-line ``error-code: message`` diagnostic on stderr.
numpy and the stage modules are imported by the verbs that compute, so a
verb that finds its work done starts without them.
"""

import json
import math
import os
import sys

import click

from . import pipeline
from .config import load_config, write_default_config


def _fail(code: str, message: str):
    click.echo(f"{code}: {message}".replace("\n", " "), err=True)
    sys.exit(1)


_config_option = click.option(
    "--config", "config_path", type=click.Path(exists=True), default=None,
    help="YAML configuration overriding the built-in defaults.")
_seed_option = click.option(
    "--seed", type=int, default=None,
    help="Override the detection and timing seeds with this value, a "
    "non-negative integer.")
_out_option = click.option("--out", "out_dir", type=click.Path(),
                           default=None,
                           help="Output directory (default from config).")


def _common(fn):
    return _config_option(_out_option(fn))


def _load(config_path, seed, out_dir):
    overrides = {}
    if seed is not None:
        overrides["seeds"] = {"detection": seed, "timing": seed}
    if out_dir is not None:
        overrides["output_dir"] = out_dir
    try:
        return load_config(config_path, overrides)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        _fail("config-error", str(exc))


def _run_stages(cfg, stages=None):
    """Run ``stages`` (and their dependencies), by default every stage."""
    try:
        return pipeline.run_pipeline(cfg, stages=stages)
    except pipeline.StageError as exc:
        _fail("stage-error", str(exc))
    except OSError as exc:
        _fail("io-error", str(exc))


def _echo_stage(manifest, stage):
    click.echo(json.dumps(manifest["stages"][stage]["summary"],
                          indent=2, sort_keys=True, default=float))


@click.group()
def main():
    """Design and analysis tools for ion-fluorescence collection
    gratings."""


@main.command("init-config")
@click.argument("path", type=click.Path())
def init_config(path):
    """Write the fully-commented default configuration to PATH."""
    try:
        write_default_config(path)
    except OSError as exc:
        _fail("io-error", str(exc))
    click.echo(f"wrote {path}")


def _stage_verb(stage, seeded=False):
    """The verb that runs ``stage``; only a verb whose stages draw random
    numbers takes ``--seed``."""
    def verb(config_path, out_dir, seed=None):
        cfg = _load(config_path, seed, out_dir)
        manifest = _run_stages(cfg, [stage])
        _echo_stage(manifest, stage)
    verb.__doc__ = f"Run the pipeline through the {stage} stage."
    if seeded:
        verb = _seed_option(verb)
    return main.command(stage)(_common(verb))


library = _stage_verb("library")
design = _stage_verb("design")
overlap_cmd = _stage_verb("overlap")
detect = _stage_verb("detect", seeded=True)


@main.command()
@_common
@click.option("--dz", type=float, default=None,
              help="Propagate the stored TE ion-plane field by this extra "
              "distance (m) in vacuum.")
def propagate(config_path, out_dir, dz):
    """Synthesize the near fields of the teeth and propagate them to the
    ion plane (or the TE ion-plane field further by --dz)."""
    cfg = _load(config_path, None, out_dir)
    if dz is not None and not math.isfinite(dz):
        _fail("propagation-error", f"dz must be finite, got {dz:g}")
    if dz is not None and dz <= -cfg.pose.height_above_surface:
        _fail("propagation-error", f"dz {dz:g} m reaches the chip surface, "
              f"{cfg.pose.height_above_surface:g} m below the ion plane")
    manifest = _run_stages(cfg, ["propagate"])
    if dz is not None:
        from .propagation import (angular_spectrum_propagate,
                                  beam_cross_section, load_field, save_field)
        base = os.path.join(cfg.output_dir, "propagate", "ion_plane_te.npz")
        try:
            field = angular_spectrum_propagate(load_field(base), dz)
        except Exception as exc:
            _fail("propagation-error", str(exc))
        # + 0.0 turns -0.0 into 0.0: one file name for no extra distance
        path = os.path.join(os.path.dirname(base),
                            f"field_dz_{dz + 0.0:g}.npz")
        try:
            save_field(field, path)
        except OSError as exc:
            _fail("io-error", str(exc))
        _, i_max, idx = beam_cross_section(field)
        click.echo(json.dumps({"path": path, "peak_intensity": i_max,
                               "peak_x": float(field.x[idx[1]]),
                               "peak_y": float(field.y[idx[0]])},
                              indent=2))
        return
    _echo_stage(manifest, "propagate")


@main.command()
@_common
@_seed_option
def pipeline_cmd(config_path, out_dir, seed):
    """Run every stage and print the report."""
    cfg = _load(config_path, seed, out_dir)
    click.echo(pipeline.report(_run_stages(cfg)))


main.add_command(pipeline_cmd, "pipeline")


@main.command("report")
@_common
def report_cmd(config_path, out_dir):
    """Render the report for an existing run manifest."""
    cfg = _load(config_path, None, out_dir)
    path = os.path.join(cfg.output_dir, "manifest.json")
    if not os.path.exists(path):
        _fail("manifest-missing", f"no manifest at {path}")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        text = pipeline.report(manifest)
    except (OSError, ValueError, AttributeError, TypeError,
            KeyError) as exc:
        _fail("manifest-unreadable", f"{path}: {exc}")
    click.echo(text)


@main.command()
@click.option("--which", type=click.Choice(["measured", "emission",
                                            "improved"]),
              default="measured", show_default=True)
def ledger(which):
    """Print a photon-loss ledger and its total."""
    from . import detection
    builders = {"measured": detection.measured_loss_ledger,
                "emission": detection.emission_loss_ledger,
                "improved": detection.improved_loss_ledger}
    led = builders[which]()
    for entry in led.entries:
        click.echo(f"{entry.label:<40} {entry.db:+8.2f} "
                   f"± {entry.sigma_db:.2f} dB")
    total, sigma = led.total()
    click.echo(f"{'total':<40} {total:+8.2f} ± {sigma:.2f} dB")


@main.command()
@click.option("--omega0", type=float, required=True,
              help="Carrier Rabi frequency (rad/s).")
@click.option("--eta-ld", type=float, default=0.0, show_default=True,
              help="Lamb-Dicke parameter.")
@click.option("--n-bar", type=float, default=0.0, show_default=True,
              help="Mean thermal phonon number.")
@click.option("--t-max", type=float, required=True,
              help="Maximum evolution time (s).")
@click.option("--points", type=int, default=200, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write t,P(ground) CSV here instead of stdout.")
def rabi(omega0, eta_ld, n_bar, t_max, points, out_path):
    """Tabulate thermally-damped Rabi oscillations."""
    import numpy as np
    from . import detection
    try:
        model = detection.RabiModel(omega0=omega0, eta_ld=eta_ld,
                                    n_bar=n_bar)
        if not np.isfinite(t_max):
            # np.linspace would spread an infinite span as nan with a warning
            raise ValueError("time must be finite")
        t = np.linspace(0.0, t_max, points)
        p = detection.rabi_thermal(t, model)
    except ValueError as exc:
        _fail("rabi-error", str(exc))
    rows = np.column_stack([t, p])
    if out_path:
        try:
            np.savetxt(out_path, rows, delimiter=",",
                       header="t_s,p_ground", fmt="%.17g")
        except OSError as exc:
            _fail("io-error", str(exc))
        click.echo(f"wrote {out_path}")
    else:
        for t_i, p_i in rows:
            click.echo(f"{t_i:.9g},{p_i:.9g}")


if __name__ == "__main__":
    main()
