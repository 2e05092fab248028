"""Shared fixtures: a footprint-spanning focused design field, and a
probe of the heavy modules a fresh interpreter loads."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from iongrating import dipole, fdtd, propagation
from iongrating.designer import (ToothSpec, curve_tooth, diffraction_angle_at,
                                 fit_kappa)
from iongrating.geometry import GratingFootprint, IonPose, default_stack
from iongrating.library import UnitCellParams, pitch_for_angle

WAVELENGTH = 422e-9
HEAVY = ("numpy", "numpy.ma", "scipy.optimize", "scipy.linalg",
         "scipy.special", "scipy.stats", "scipy.integrate", "yaml")


def _heavy_after(code: str) -> list:
    """The modules of ``HEAVY`` that a fresh interpreter holds after
    running ``code`` against this tree's ``src``, sorted."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted("
             f"m for m in {HEAVY!r} if m in sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def heavy_after():
    """``_heavy_after``: every CLI verb pays its imports at start-up, so
    the tests pin which code loads numpy and which scipy subpackage."""
    return _heavy_after


@pytest.fixture(scope="session")
def focused_teeth():
    """Curved teeth of a design aimed at the nominal ion position."""
    stack = default_stack()
    pose = IonPose()
    footprint = GratingFootprint()
    emission = dipole.ion_intensity_profile(footprint, pose, 512)
    kappa, _ = fit_kappa(emission.intensity, emission.x, alpha=0.0,
                         kappa_max=0.6e6)
    cell = fdtd.default_cell_size(stack, WAVELENGTH, 20)
    teeth, xx = [], 0.0
    while xx < footprint.x_extent:
        angle = diffraction_angle_at(xx, pose, stack)
        pitch = pitch_for_angle(angle, 0.5, 0.5, stack, WAVELENGTH, "TE",
                                cell)
        k = float(kappa(np.array([xx]))[0])
        teeth.append(ToothSpec(
            x=xx,
            params=UnitCellParams(pitch, 0.5, 0.5, 0.06e-6, 0.0),
            angle=angle, kappa=k, alpha=0.05e6))
        xx += pitch
    curve_tooth(teeth, footprint, stack, pose)
    return teeth


@pytest.fixture(scope="session")
def focused_design(focused_teeth):
    """Near field of a design aimed at the nominal ion position."""
    return propagation.synthesize_near_field(
        focused_teeth, GratingFootprint(), default_stack())
