"""Scalar beam synthesis and angular-spectrum propagation.

The emitted beam is modeled as two decoupled scalar fields (one per
polarization) on a uniform (x, y) grid.  ``synthesize_near_field`` builds
the field at the grating plane from the per-tooth design solution with a
local-plane-wave model; ``angular_spectrum_propagate`` moves a sampled
field between parallel planes exactly (within the scalar approximation),
attenuating evanescent components.  The cladding traversal uses the
cladding index for its thickness, then vacuum above.
"""

import zipfile
from dataclasses import dataclass, replace

import numpy as np

from .constants import DESIGN_WAVELENGTH, N_SIO2
from .designer import curvature_offsets, slab_index, tooth_power_accounting

__all__ = [
    "FieldGrid", "PaddingError", "angular_spectrum_propagate",
    "beam_cross_section", "gaussian_field", "load_field",
    "propagate_to_height", "synthesize_near_field", "save_field",
]


class PaddingError(Exception):
    """Field energy too close to the grid edge for an alias-free transform."""


@dataclass
class FieldGrid:
    """Complex scalar field samples on a uniform (x, y) grid.

    ``data[j, i]`` is the sample at ``(x0 + i * pixel_size,
    y0 + j * pixel_size)``.  ``z`` is the plane height above the grating
    plane.
    """
    data: np.ndarray
    pixel_size: float
    z: float = 0.0
    polarization: str = "TE"
    x0: float = 0.0
    y0: float = 0.0
    wavelength: float = DESIGN_WAVELENGTH
    normalized: bool = False

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 2:
            raise ValueError("field data must be a 2-D array")
        if self.pixel_size <= 0:
            raise ValueError("pixel size must be positive")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.pixel_size * np.arange(self.data.shape[1])

    @property
    def y(self) -> np.ndarray:
        return self.y0 + self.pixel_size * np.arange(self.data.shape[0])

    def power(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2) * self.pixel_size**2)

    def normalize(self) -> "FieldGrid":
        """Scaled copy with unit power (sum |E|^2 s^2 = 1)."""
        p = self.power()
        if p <= 0.0:
            raise ValueError("cannot normalize an all-zero field")
        return replace(self, data=self.data / np.sqrt(p), normalized=True)


# ---------------------------------------------------------------------------
# Near-field synthesis

def synthesize_near_field(teeth, footprint, stack,
                          wavelength: float = DESIGN_WAVELENGTH,
                          polarization: str = "TE",
                          shape=(512, 512),
                          pixel_size: float = 0.1e-6) -> FieldGrid:
    """Local-plane-wave near field of a tooth-by-tooth design.

    Each tooth radiates its drained power fraction uniformly over its
    pitch and the footprint width, with phase equal to the accumulated
    emitted-wavefront phase plus the local tilt ``k n sin(theta) x`` and
    the phase ``k0 n_slab u`` the collimated slab light gains over the
    curvature offset u sampled from ``curve_tooth``, with n_slab the
    tooth's ``slab_index``.  The plane-wave tilt uses the cladding index
    since the grating plane sits at the bottom of the cladding.
    """
    if not teeth:
        raise ValueError("cannot synthesize a field from an empty design")
    for t in teeth:
        if not np.isfinite(t.angle):
            raise ValueError(f"tooth at x={t.x * 1e6:.3f} um has no angle")

    ny, nx = shape
    n_clad = stack.cladding_index
    k0 = 2 * np.pi / wavelength
    grid = np.zeros((ny, nx), dtype=complex)
    # center the grid on the footprint
    x0 = footprint.x_extent / 2 - nx * pixel_size / 2
    y0 = -ny * pixel_size / 2
    x = x0 + pixel_size * np.arange(nx)
    y = y0 + pixel_size * np.arange(ny)
    in_width = np.abs(y) <= footprint.y_extent / 2

    rows = np.nonzero(in_width)[0]
    drained, _ = tooth_power_accounting(teeth)
    # emitted-wavefront phase accumulated up to each tooth
    phase_acc = 0.0
    for t, power in zip(teeth, drained):
        kx = k0 * n_clad * np.sin(t.angle)
        n_slab = slab_index(t, n_clad, wavelength)
        if power > 0.0:
            amp = np.sqrt(power / t.pitch)
            u = curvature_offsets(t, y)[rows]
            lo = t.x + u
            hi = lo + t.pitch
            # (row, column) pairs this tooth covers, searched only within
            # the columns spanned by any row; later teeth overwrite
            c0, c1 = np.searchsorted(x, [lo.min(), hi.max()])
            span = x[c0:c1]
            r, c = np.nonzero((span >= lo[:, None]) & (span < hi[:, None]))
            c += c0
            phase = (phase_acc + kx * (x[c] - lo[r])
                     + (k0 * n_slab * u)[r])
            grid[rows[r], c] = amp * np.exp(1j * phase)
        phase_acc += kx * t.pitch

    result = FieldGrid(grid, pixel_size, z=0.0, polarization=polarization,
                       x0=x0, y0=y0, wavelength=wavelength)
    return result.normalize()


# ---------------------------------------------------------------------------
# Angular-spectrum propagation

def _edge_energy_fraction(data: np.ndarray) -> float:
    """Share of the energy within two pixels of the grid edge."""
    p = np.abs(data) ** 2
    total = p.sum()
    if total == 0.0:
        return 0.0
    interior = p[2:-2, 2:-2].sum()
    return float(1.0 - interior / total)


def angular_spectrum_propagate(fieldgrid: FieldGrid, dz: float,
                               medium_index: float = 1.0) -> FieldGrid:
    """Propagate the sampled field by ``dz`` through a uniform medium.

    Exact scalar plane-wave decomposition: each spatial frequency advances
    by exp(i kz dz) with kz = sqrt((k0 n)^2 - kx^2 - ky^2).  Evanescent
    components are attenuated (never amplified, regardless of the sign of
    ``dz``).  Raises PaddingError when more than 1% of the energy sits
    within two pixels of the grid edge.
    """
    s = fieldgrid.pixel_size
    lam_m = fieldgrid.wavelength / medium_index
    if s > lam_m / 2:
        raise ValueError(f"pixel size {s * 1e9:.0f} nm undersamples the "
                         f"medium wavelength {lam_m * 1e9:.0f} nm")
    if dz == 0.0:
        return replace(fieldgrid, data=fieldgrid.data.copy())
    if _edge_energy_fraction(fieldgrid.data) > 0.01:
        raise PaddingError("more than 1% of the field energy lies within "
                           "2 pixels of the grid edge; pad the grid")

    ny, nx = fieldgrid.data.shape
    k = 2 * np.pi * medium_index / fieldgrid.wavelength
    kx = 2 * np.pi * np.fft.fftfreq(nx, d=s)
    ky = 2 * np.pi * np.fft.fftfreq(ny, d=s)
    kz_sq = k**2 - kx[None, :] ** 2 - ky[:, None] ** 2
    prop = kz_sq >= 0.0
    kz = np.sqrt(np.abs(kz_sq))
    transfer = np.where(prop, np.exp(1j * kz * dz),
                        np.exp(-kz * abs(dz)))
    spec = np.fft.fft2(fieldgrid.data)
    out = np.fft.ifft2(spec * transfer)
    return replace(fieldgrid, data=out, z=fieldgrid.z + dz)


def propagate_to_height(fieldgrid: FieldGrid, z_target: float,
                        cladding_thickness: float,
                        n_cladding: float = N_SIO2) -> FieldGrid:
    """Propagate from the grating plane to ``z_target`` above it,
    traversing the cladding first and vacuum afterwards."""
    if z_target < fieldgrid.z:
        raise ValueError("target plane below the current plane")
    out = fieldgrid
    in_clad = min(max(cladding_thickness - out.z, 0.0), z_target - out.z)
    if in_clad > 0.0:
        out = angular_spectrum_propagate(out, in_clad, n_cladding)
    remaining = z_target - out.z
    if remaining > 0.0:
        out = angular_spectrum_propagate(out, remaining, 1.0)
    return out


# ---------------------------------------------------------------------------
# Beam profiles

def beam_cross_section(fieldgrid: FieldGrid):
    """Normalized intensity profile of a field plane.

    Returns ``(intensity, i_max, (row, col))`` where the intensity grid
    satisfies sum(I) * s^2 = 1 and ``i_max`` is the brightest pixel value.
    """
    intensity = np.abs(fieldgrid.data) ** 2
    total = intensity.sum() * fieldgrid.pixel_size**2
    if total <= 0.0:
        raise ValueError("zero field has no cross section")
    intensity = intensity / total
    idx = np.unravel_index(np.argmax(intensity), intensity.shape)
    return intensity, float(intensity[idx]), (int(idx[0]), int(idx[1]))


def gaussian_field(waist: float, shape=(512, 512)) -> FieldGrid:
    """Unit-power fundamental Gaussian at its waist, centered on a grid of
    0.1 um pixels, at the design wavelength."""
    ny, nx = shape
    s = 0.1e-6
    x0, y0 = -nx * s / 2, -ny * s / 2
    x = x0 + s * np.arange(nx)
    y = y0 + s * np.arange(ny)
    r2 = x[None, :] ** 2 + y[:, None] ** 2
    data = np.exp(-r2 / waist**2).astype(complex)
    return FieldGrid(data, s, x0=x0, y0=y0).normalize()


# ---------------------------------------------------------------------------
# Field I/O

# header fields stored beside ``data``, each as a 0-d array, with the type
# it is read back as
_HEADER = {"pixel_size": float, "z": float, "polarization": str,
           "x0": float, "y0": float, "wavelength": float,
           "normalized": bool}


def save_field(fieldgrid: FieldGrid, path) -> None:
    """Lossless ``.npz`` export: a complex128 ``data`` array and one 0-d
    array per header field.

    Members carry zipfile's fixed 1980 timestamp, so the same field always
    gives the same bytes; ``path`` is used as given.
    """
    members = {"data": np.asarray(fieldgrid.data, dtype=np.complex128)}
    for key, kind in _HEADER.items():
        members[key] = np.asarray(kind(getattr(fieldgrid, key)))
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in members.items():
            # zip64 lets a member pass 2 GiB (a 16384^2 complex grid)
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w",
                              force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)


def load_field(path) -> FieldGrid:
    """Inverse of :func:`save_field`; raises ValueError naming the path
    for anything that is not a field file."""
    # np.load leaves a file it opened itself open when it rejects it; the
    # archive only reads through this handle
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: not an .npz field file") from exc
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: not an .npz field file")
        missing = [k for k in ("data", *_HEADER) if k not in archive.files]
        if missing:
            raise ValueError(f"{path}: field file lacks {', '.join(missing)}")
        try:
            data = archive["data"]
            header = {key: kind(archive[key].item())
                      for key, kind in _HEADER.items()}
        except (ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: unreadable field member ({exc})") \
                from exc
    if data.dtype != np.complex128:
        raise ValueError(f"{path}: data is {data.dtype}, expected complex128")
    try:
        return FieldGrid(data, **header)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
