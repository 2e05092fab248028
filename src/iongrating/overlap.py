"""Ion-grating coupling efficiency from fields or intensity profiles.

Two routes to the coupling efficiency eta:

* the mode-overlap formula eta = (1/16) w0^2 |p . E_g*(r0)|^2 with the
  dipole moment scaled to emit unit power and the grating field normalized
  to unit power, and
* the intensity shortcut eta = lambda^2 I_max / (4 pi s^2) applied to the
  brightest pixel of the combined (equal-weight, unit-total-power) TE/TM
  intensity profile.

With the sigma-dominant projection (2/3 branching times 1/2 per
polarization mode, applied as a squared projection) the two routes agree
identically: (1/16) w0^2 p0^2 * 2 c mu0 = 3 lambda^2 / (8 pi), and
summing 1/3 of that over both modes reproduces the 1/(4 pi) prefactor.
"""

from dataclasses import dataclass, field

import numpy as np

from .constants import C0, DESIGN_WAVELENGTH, MU0
from .propagation import FieldGrid

__all__ = [
    "SIGMA_MODE_PROJECTION_SQ", "CollectionMap", "CouplingResult",
    "CrosstalkReport", "collection_map", "combine_intensity_profiles",
    "coupling_at_point", "crosstalk_metrics", "dipole_moment_scale",
    "efficiency_from_intensity",
]

# squared projection of a sigma-emission dipole onto one waveguide mode:
# 2/3 branching into sigma times 1/2 into either linear polarization
SIGMA_MODE_PROJECTION_SQ = (2.0 / 3.0) * (1.0 / 2.0)


@dataclass
class CouplingResult:
    eta: float               # total TE + TM field-overlap coupling
    eta_te: float = float("nan")  # its TE part; NaN when not given

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"coupling efficiency {self.eta} outside [0, 1]")


@dataclass
class CollectionMap:
    x: np.ndarray            # ion x offsets, m
    y: np.ndarray
    eta: np.ndarray          # (ny, nx) total coupling efficiency
    eta_te: np.ndarray
    eta_tm: np.ndarray
    z: float
    peak: tuple = field(init=False)  # (x, y) of the map maximum

    def __post_init__(self):
        if np.any(self.eta < 0):
            raise ValueError("collection map must be nonnegative")
        j, i = np.unravel_index(np.argmax(self.eta), self.eta.shape)
        self.peak = (float(self.x[i]), float(self.y[j]))


@dataclass
class CrosstalkReport:
    power_ratio: float       # total TM / total TE
    suppression_db: float    # TM vs TE at the TE maximum
    offset: float            # |TE argmax - TM argmax|, m


def dipole_moment_scale(wavelength: float = DESIGN_WAVELENGTH) -> float:
    """Dipole moment p0 emitting unit power, sqrt(3 lambda^4/(4 pi^3 c^3 mu0))."""
    if wavelength <= 0:
        raise ValueError("wavelength must be > 0")
    return np.sqrt(3.0 * wavelength**4 / (4.0 * np.pi**3 * C0**3 * MU0))


def efficiency_from_intensity(i_max: float, pixel_size: float,
                              wavelength: float = DESIGN_WAVELENGTH) -> float:
    """Intensity-shortcut efficiency lambda^2 I_max / (4 pi s^2).

    ``i_max`` is the unit-less brightest-pixel value of a combined profile
    whose pixel values sum to one.
    """
    if i_max < 0:
        raise ValueError("intensity must be nonnegative")
    if i_max > 1.0 + 1e-12:
        raise ValueError("brightest pixel exceeds the total power; the "
                         "profile is not normalized")
    eta = wavelength**2 / (4.0 * np.pi) * i_max / pixel_size**2
    if eta > 1.0:
        raise ValueError(f"unphysical efficiency {eta:.3g}; check the "
                         f"profile normalization and pixel size")
    return float(eta)


def combine_intensity_profiles(field_te: FieldGrid,
                               field_tm: FieldGrid) -> np.ndarray:
    """Unit-total-power combination of per-mode intensity profiles.

    Each field's |E|^2 is normalized to unit total and the two are summed
    with equal weight.  Returns the unit-less per-pixel profile used by
    :func:`efficiency_from_intensity`.
    """
    _check_grids_match(field_te, field_tm)
    out = np.zeros(field_te.data.shape, dtype=float)
    for f in (field_te, field_tm):
        intensity = np.abs(f.data) ** 2
        total = intensity.sum()
        if total <= 0.0:
            raise ValueError(f"{f.polarization} field carries no power")
        out += 0.5 * intensity / total
    return out


def _check_grids_match(a: FieldGrid, b: FieldGrid) -> None:
    if (a.data.shape != b.data.shape or a.pixel_size != b.pixel_size
            or a.x0 != b.x0 or a.y0 != b.y0):
        raise ValueError("TE and TM grids do not share a raster")
    if a.wavelength != b.wavelength:
        raise ValueError("TE and TM fields do not share a wavelength")


def _mode_etas(field_te: FieldGrid, field_tm: FieldGrid, index,
               projection_sq):
    """Per-mode field-overlap coupling (TE, TM) at the pixels ``index``,
    at the fields' wavelength.

    Eq. 3 with the scalar per-mode field: |p . E*|^2 =
    p0^2 * projection_sq * 2 c mu0 * I_density.
    """
    wavelength = field_te.wavelength
    omega0 = 2.0 * np.pi * C0 / wavelength
    scale = (omega0**2 / 16.0 * dipole_moment_scale(wavelength) ** 2
             * 2.0 * C0 * MU0)
    return tuple(scale * q * np.abs(f.data[index]) ** 2
                 for f, q in zip((field_te, field_tm), projection_sq))


def coupling_at_point(field_te: FieldGrid, field_tm: FieldGrid,
                      x: float, y: float,
                      projection_sq=(SIGMA_MODE_PROJECTION_SQ,
                                     SIGMA_MODE_PROJECTION_SQ)
                      ) -> CouplingResult:
    """Field-overlap coupling for an ion at (x, y) on the field plane."""
    _check_grids_match(field_te, field_tm)
    if not (field_te.normalized and field_tm.normalized):
        raise ValueError("fields must be normalized to unit power")
    i = int(round((x - field_te.x0) / field_te.pixel_size))
    j = int(round((y - field_te.y0) / field_te.pixel_size))
    ny, nx = field_te.data.shape
    if not (0 <= i < nx and 0 <= j < ny):
        raise ValueError(f"ion position ({x * 1e6:.2f}, {y * 1e6:.2f}) um "
                         f"outside the field grid")
    eta_te, eta_tm = _mode_etas(field_te, field_tm, (j, i), projection_sq)
    return CouplingResult(float(eta_te + eta_tm), float(eta_te))


def collection_map(field_te: FieldGrid, field_tm: FieldGrid,
                   x_extent, y_extent, step: float,
                   projection_sq=(SIGMA_MODE_PROJECTION_SQ,
                                  SIGMA_MODE_PROJECTION_SQ)
                   ) -> CollectionMap:
    """Raster the ion position over the plane and map the coupling.

    ``x_extent`` and ``y_extent`` are (min, max) offsets in meters; the
    raster must stay inside the field grids.
    """
    _check_grids_match(field_te, field_tm)
    if not (field_te.normalized and field_tm.normalized):
        raise ValueError("fields must be normalized to unit power")
    xs = np.arange(x_extent[0], x_extent[1] + step / 2, step)
    ys = np.arange(y_extent[0], y_extent[1] + step / 2, step)
    gx, gy = field_te.x, field_te.y
    if (xs[0] < gx[0] or xs[-1] > gx[-1] or ys[0] < gy[0]
            or ys[-1] > gy[-1]):
        raise ValueError("raster extent exceeds the field grid")
    s = field_te.pixel_size
    ii = np.rint((xs - field_te.x0) / s).astype(int)
    jj = np.rint((ys - field_te.y0) / s).astype(int)
    eta_te, eta_tm = _mode_etas(field_te, field_tm, np.ix_(jj, ii),
                                projection_sq)
    return CollectionMap(xs, ys, eta_te + eta_tm, eta_te, eta_tm,
                         z=field_te.z)


def crosstalk_metrics(te_map: np.ndarray, tm_map: np.ndarray,
                      x, y) -> CrosstalkReport:
    """TM-into-TE crosstalk figures from two per-mode maps on one grid.

    ``x`` and ``y`` are the grid's column and row coordinates.  Suppression
    is 10 log10(TM/TE) evaluated at the TE maximum (negative when TM sits
    below TE there); the offset is the distance between the two maxima.
    """
    te = np.asarray(te_map, dtype=float)
    tm = np.asarray(tm_map, dtype=float)
    if te.shape != tm.shape:
        raise ValueError("maps do not share a grid")
    te_total = te.sum()
    if te_total <= 0.0:
        raise ValueError("TE map carries no power")
    ratio = float(tm.sum() / te_total)
    j_te = np.unravel_index(np.argmax(te), te.shape)
    j_tm = np.unravel_index(np.argmax(tm), tm.shape)
    at_te_max = tm[j_te] / te[j_te]
    suppression = float(10.0 * np.log10(at_te_max)) if at_te_max > 0 \
        else -np.inf
    dx = x[j_te[1]] - x[j_tm[1]]
    dy = y[j_te[0]] - y[j_tm[0]]
    return CrosstalkReport(ratio, suppression, float(np.hypot(dx, dy)))
