"""Seeded inputs and the operations each workload runs.

The generators turn a workload seed into the inputs the program sees: a
pipeline configuration, or a list of unit cells.  The program never sees
the seed itself.  Every operation returns what its check needs; the
checks live in ``checks.py``.
"""

import math
import os
import random
import shutil

# Unit-cell angle band (deg, cladding frame): the middle of the default
# library hull of 4-20 deg.  A cell's cost grows with its angle, through
# the pitch and the periods to steady state, but slowly near 12 deg: one
# angle (reference and two cells) cost 24.4 CPU-s at 11 deg and 24.6 at
# 13 deg, against 22.7 at 4 deg and 34.9 at 20 deg.
ANGLE_BAND_DEG = (11.0, 13.0)

# The unit-cell geometry (dcu, dcl, dx/pitch): the centre of the swarm's
# search box.  Seeded geometries moved the cost per cell through the
# periods each needed to reach steady state; a fixed one leaves only the
# angle to the seed.
CELL_GEOMETRY = (0.5, 0.5, 0.25)

# Solver resolution for fdtd-cells.  The library default is 16 points per
# wavelength; at that resolution one angle (reference and two cells) takes
# 70-95 s on a 2-core VM, which does not fit the run budget.  At 10 points
# the energy closure of seeded cells reached 0.08, and a half-pitch cell
# measured no guided-power loss at all (see README.md).  At 12 points the
# seeded cells closed within 0.054, and the fixed cell of this band within
# 0.013.
POINTS_PER_WAVELENGTH = 12


def pipeline_overrides(seed: int, out_dir: str) -> dict:
    """Default analytic configuration, nominal pose, seeded stage seeds.

    The pose stays nominal: fit_kappa's cost varies by about 5x over the
    pose range, which would hide any change to the cold pipeline that
    setup_s is meant to show.
    """
    rng = random.Random(seed)
    return {
        "seeds": {"library": rng.randrange(2**31),
                  "detection": rng.randrange(2**31),
                  "timing": rng.randrange(2**31)},
        "output_dir": out_dir,
    }


def kernel_config():
    from iongrating import library
    return library.KernelConfig(points_per_wavelength=POINTS_PER_WAVELENGTH)


def unit_cells(seed: int, kernel, index: int = 0):
    """The index-th seeded angle of a run and its cells: (angle, [cell at
    delta = 0, cell at delta = pitch/2]), for the half-pitch oracle.  The
    pitch follows from the grating equation."""
    from iongrating import library
    angle = math.radians(
        random.Random(f"{seed}/{index}").uniform(*ANGLE_BAND_DEG))
    dcu, dcl, dx_frac = CELL_GEOMETRY
    pitch = library.pitch_for_angle(angle, dcu, dcl, kernel.stack,
                                    kernel.wavelength, kernel.polarization,
                                    kernel.cell_size)
    cells = [library.UnitCellParams(pitch, dcu, dcl, dx_frac * pitch,
                                    frac * pitch / 2) for frac in (0.0, 1.0)]
    too_small = library.feature_check(cells[0], kernel.min_feature)
    if too_small:
        raise ValueError(f"cell at {math.degrees(angle):.2f} deg fails the "
                         f"feature check: {too_small}")
    return angle, cells


def evaluate_with_result(params, angle, kernel):
    """``library.evaluate_cell`` plus the solver result behind the entry.

    The energy-closure and angle checks need the solver's powers, which
    the library entry does not carry.
    """
    from iongrating import fdtd, library
    run_unit_cell = fdtd.run_unit_cell
    seen = []

    def keep(*args, **kwargs):
        seen.append(run_unit_cell(*args, **kwargs))
        return seen[-1]

    fdtd.run_unit_cell = keep
    try:
        entry = library.evaluate_cell(params, angle, kernel)
    finally:
        fdtd.run_unit_cell = run_unit_cell
    return entry, seen[-1]


def fresh_dir(path: str) -> str:
    if os.path.exists(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path
