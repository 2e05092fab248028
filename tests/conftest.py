"""Shared fixtures: a footprint-spanning focused design field."""

import numpy as np
import pytest

from iongrating import dipole, fdtd, propagation
from iongrating.designer import (ToothSpec, curve_tooth, diffraction_angle_at,
                                 fit_kappa)
from iongrating.geometry import GratingFootprint, IonPose, default_stack
from iongrating.library import UnitCellParams, pitch_for_angle

WAVELENGTH = 422e-9


@pytest.fixture(scope="session")
def focused_teeth():
    """Curved teeth of a design aimed at the nominal ion position."""
    stack = default_stack()
    pose = IonPose()
    footprint = GratingFootprint()
    emission = dipole.ion_intensity_profile(footprint, pose, 512)
    ansatz, _ = fit_kappa(emission.intensity, emission.x, alpha=0.0,
                          kappa_max=0.6e6)
    cell = fdtd.default_cell_size(stack, WAVELENGTH, 20)
    teeth, xx = [], 0.0
    while xx < footprint.x_extent:
        angle = diffraction_angle_at(xx, pose, stack)
        pitch = pitch_for_angle(angle, 0.5, 0.5, stack, WAVELENGTH, "TE",
                                cell)
        k = max(float(ansatz(np.array([xx]))[0]), 0.0)
        teeth.append(ToothSpec(
            x=xx,
            params=UnitCellParams(pitch, 0.5, 0.5, 0.06e-6, 0.0),
            angle=angle, kappa=k, alpha=0.05e6))
        xx += pitch
    focus = (pose.x_ion, 0.0, pose.height_above_surface)
    for t in teeth:
        curve_tooth(t, focus, stack, pose,
                    y_samples=np.linspace(-15e-6, 15e-6, 31))
    return teeth


@pytest.fixture(scope="session")
def focused_design(focused_teeth):
    """Near field of a design aimed at the nominal ion position."""
    return propagation.synthesize_near_field(
        focused_teeth, GratingFootprint(), default_stack())
