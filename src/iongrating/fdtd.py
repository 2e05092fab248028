"""2D finite-difference time-domain kernel (effective-index reduced) for
short fixed-period grating sections.

The kernel simulates the chip cross-section in the xz plane for the TE
slab mode only, Ey out of plane with Hx and Hz in it: the grating couples
the ion's light into TE.  The TM update (Hy out of plane) was last in
commit 552d0b1.  Graded-conductivity convolutional PML absorbs on every
boundary, a guided-mode line source launches the mode, and
single-frequency phasor monitors give the diffraction observables (P_T,
P_D, up/down split, emission angle).

Fields, update coefficients and CPML memory are float32, stored as (z, x)
rows with x fastest; ``F``, ``Ga`` and ``Gb`` are (x, z)-indexed views of
them.  CPML memory lives only in the absorbing slabs, where its recursion
coefficients are nonzero: the z slabs of each field are its first and last
rows, advanced together as one two-block view, and its x slabs one strided
band whose chunks each join the end of one row to the start of the next.
Both H updates take the one scalar dt / (mu0 d), so Ga and Gb store H
divided by it (``g_scale``) and F's coefficient carries it; that saves two
grid passes per step, and the monitors multiply it back in double
precision.  A step is one bound list of numpy ufunc calls over fixed views
and allocates no grid-sized array.  Every grid-sized output of a step, and
every CPML psi and scratch array, starts on a 64-byte line
(``_aligned_zeros``).  On AVX-512 hosts numpy's vector loops store a
float32 output that does not at about half the speed, whatever the
alignment of the inputs, and numpy's allocator returns no such line.  The
layout moves no result bit.  F's update coefficient is built straight
into its float32 array a block of rows at a time, with no float64 copy of
the grid, so set-up peaks less than a float32 grid above what it keeps.
The monitors copy their raw lines into one period of rows per step, and
at the end of each period fold them into that period's double-precision
phasors, step by step in order, so the sums equal a per-step
accumulation bit for bit.  A run stops once the four monitor
fluxes are measured steady: after one transit of the grid plus the source
ramp, the largest change of a flux must stay below 1e-5 of the period's
largest flux, the guided input, for three consecutive optical periods.
The time step is a whole fraction of the optical period within COURANT
of the 2D Courant limit n_min d / (c sqrt 2) of the map's lowest index
n_min: the fastest wave on the grid sets
the limit, and a unit cell holds no vacuum, so its cladding's index (1.47
by default) lengthens the step by that factor over the vacuum step: on the
default stack a period takes 24 steps at 12 points per wavelength and 32
at 16.  The absorbers are PML_CELLS = 8 cells of cubic grading, added
outside the interior, so no interior node depends on them.  Against 24
cells of quartic grading, on 16 library cells at -4 to 20 deg, they move
kappa by at most 2.6e-4 and alpha by 4.8e-4 (relative) at 12 points per
wavelength.  A unit-cell run holds one simulation at a time: the tooth-free
reference is freed before the grating run starts, and its index map is a
read-only view of the grating map's first column.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import constants
from .geometry import LayerStack


class ConvergenceError(RuntimeError):
    """Simulation failed to reach steady state within the step budget."""


class DepletionError(ValueError):
    """The guided mode was fully depleted; the section is too long/strong."""


class ResolutionError(ValueError):
    """Geometry is unresolvable at the chosen cell size."""


PML_CELLS = 8             # absorbing-layer thickness on every boundary
PML_GRADING = 3           # power of the absorbers' conductivity grading
COURANT = 0.99            # time step as a fraction of the 2D Courant limit
RAMP_PERIODS = 5.0        # raised-cosine turn-on of the line source
# unit-cell margins around the layer stack and the grating section, m
CLAD_PAD = 1.1e-6         # cladding above and below the stack
MARGIN_IN = 1.3e-6        # guide before the grating: source, input monitor
MARGIN_OUT = 1.0e-6       # guide after the grating: output monitor
ANGULAR_WINDOW = np.deg2rad(20.0)  # half-width of the desired order, rad
MAX_PERIODS = 400         # optical periods a run may take to turn steady
STEADY_REL_TOL = 1e-5     # largest per-period flux change that is steady
PAD_FACTOR = 8            # zero padding of the top-monitor FFT
LINE = 64                 # bytes: the cache line every step output starts on


def courant_limit(cell_size: float, n_min: float) -> float:
    """The 2D Yee stability limit on the time step, s, of square cells of
    ``cell_size`` whose lowest refractive index is ``n_min``: the fastest
    wave on the grid travels at c / n_min (Taflove & Hagness,
    Computational Electrodynamics, 3rd ed., ch. 4)."""
    return n_min * cell_size / (constants.C0 * np.sqrt(2.0))


def time_step(n: np.ndarray, cell_size: float, wavelength: float):
    """(steps per optical period, time step in s) of the index map ``n``
    on cells of ``cell_size``: the fewest whole steps per period of
    ``wavelength`` that keep the step within COURANT of the Courant limit
    of the map's lowest index."""
    dt_max = COURANT * courant_limit(cell_size, float(np.min(n)))
    period = wavelength / constants.C0
    steps = int(np.ceil(period / dt_max))
    return steps, period / steps


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform Yee grid with absorbing boundary layers.  Its time step may
    not exceed the Courant limit of its lowest index ``n_min``, where waves
    travel fastest."""
    cell_size: float      # m
    time_step: float      # s
    nx: int
    nz: int
    n_min: float          # lowest refractive index on the grid

    def __post_init__(self):
        limit = courant_limit(self.cell_size, self.n_min)
        if self.time_step > limit * (1 + 1e-12):
            raise ValueError("time step exceeds the Courant limit")
        if min(self.nx, self.nz) < 2 * PML_CELLS + 4:
            raise ValueError("grid too small for its absorbing layers")


@dataclass
class MaterialMap:
    """Refractive-index map sampled at out-of-plane field nodes."""
    n: np.ndarray         # (nx, nz) refractive index
    cell_size: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.n < 1.0):
            raise ValueError("refractive indices must be >= 1")


@dataclass
class CellResult:
    """Flux-monitor observables of one unit-cell run, normalized to unit
    input power."""
    p_t: float            # total power lost from the guided mode over L
    p_d: float            # power in the desired upward order (angular window)
    p_up: float           # total upward power
    p_down: float
    p_trans: float
    p_reflected: float
    length: float         # grating section length L
    peak_angle: float     # rad, in the cladding
    target_angle: float   # rad
    n_cladding: float
    wavelength: float
    cell_size: float
    top_field: np.ndarray # complex phasor along the top monitor
    periods_run: int = 0


# ---------------------------------------------------------------------------
# CPML profile helpers

def _pml_profiles(n: int, d: float, dt: float):
    """(b, a) CPML recursion coefficients at integer and half-integer nodes:
    a conductivity graded by the PML_GRADING power of the depth, up to
    0.8 (m + 1) / (eta0 d), and a frequency shift falling from 0.24 S/m
    (Roden & Gedney 2000; Taflove & Hagness, 3rd ed., ch. 7).  Against 24
    quartic cells, PML_CELLS = 8 cubic cells move a library cell's kappa
    by at most 2.6e-4 and its alpha by 4.8e-4 (relative) at 12 points per
    wavelength, 2.0e-4 and 3.8e-4 at 16; 8 quartic cells move kappa by
    1.8e-3.  At 8 points per wavelength they move a half-pitch cell's
    kappa by 1e-3."""
    pml, m, alpha_max = PML_CELLS, PML_GRADING, 0.24
    sigma_max = 0.8 * (m + 1) / (constants.ETA0 * d)

    def coeffs(depth_frac):
        depth_frac = np.clip(depth_frac, 0.0, 1.0)
        sig = sigma_max * depth_frac**m
        alp = alpha_max * (1.0 - depth_frac)
        with np.errstate(invalid="ignore", divide="ignore"):
            b = np.exp(-(sig + alp) * dt / constants.EPS0)
            a = np.where(sig + alp > 0, sig * (b - 1.0) / (sig + alp), 0.0)
        return b * (depth_frac > 0), a

    idx = np.arange(n)
    depth_e = np.maximum(pml - idx, idx - (n - 1 - pml)) / pml
    b_e, a_e = coeffs(depth_e)
    idx_h = idx[:-1] + 0.5
    depth_h = np.maximum(pml - idx_h, idx_h - (n - 1 - pml)) / pml
    b_h, a_h = coeffs(depth_h)
    return (b_e, a_e), (b_h, a_h)


def _aligned_zeros(shape: tuple, first: int = 0) -> np.ndarray:
    """Zeroed float32 array of ``shape`` whose flat element ``first``
    starts on a LINE-byte boundary, cut from a slightly larger buffer."""
    size = math.prod(shape)
    buf = np.zeros(size + LINE // 4, np.float32)
    skip = (-(buf.ctypes.data + 4 * first) % LINE) // 4
    return buf[skip:skip + size].reshape(shape)


def _cpml_slabs(diff: np.ndarray, b: np.ndarray, a: np.ndarray):
    """(slabs, psi, b, a, scratch) for the z slabs of the contiguous
    ``diff``: its first and last PML_CELLS + 1 rows as one two-block view,
    so one ufunc call covers both.  ``b`` and ``a`` hold one value per row
    of ``diff``; the arrays are float32, as ``diff`` is."""
    w = PML_CELLS + 1
    rows, n = diff.shape
    shape = (2, w, n)
    slabs = np.lib.stride_tricks.as_strided(
        diff, shape, ((rows - w) * diff.strides[0],) + diff.strides)
    b_s, a_s = (np.broadcast_to(np.stack([p[:w], p[-w:]])[:, :, None],
                                shape).astype(diff.dtype) for p in (b, a))
    return slabs, _aligned_zeros(shape), b_s, a_s, _aligned_zeros(shape)


def _cpml_band(buf: np.ndarray, nx: int, rows: int, pad: int,
               b: np.ndarray, a: np.ndarray):
    """(band, psi, b, a, scratch) for the x slabs of ``rows`` rows of nx
    nodes, stored in ``buf`` from offset PML_CELLS + 2 on.

    Chunk k of the band starts at offset k * nx and holds the right slab of
    row k - 1, ``pad`` padding nodes and the left slab of row k, so both
    ends of every row take one strided pass.  The slabs span the
    PML_CELLS + 1 nodes at each end of ``b`` and ``a``; on the padding,
    on row -1 and on row ``rows``, b = a = 0, so psi stays 0 there.
    """
    w = PML_CELLS + 1
    shape = (rows + 1, 2 * w + pad)
    band = np.lib.stride_tricks.as_strided(
        buf, shape, (nx * buf.itemsize, buf.itemsize))

    def coeffs(p):
        chunk = np.concatenate([p[-w:], np.zeros(pad), p[:w]])
        c = np.tile(chunk, (rows + 1, 1)).astype(buf.dtype)
        c[0, :w] = 0.0
        c[-1, w + pad:] = 0.0
        return c

    return (band, _aligned_zeros(shape), coeffs(b), coeffs(a),
            _aligned_zeros(shape))


def _psi_ops(cpml):
    """The ops that advance one CPML recursion, psi = b psi + a d, and add
    psi to its difference d."""
    d, psi, b, a, scratch = cpml
    return [(np.multiply, psi, b, psi), (np.multiply, a, d, scratch),
            (np.add, psi, scratch, psi), (np.add, d, psi, d)]


# ---------------------------------------------------------------------------
# Guided-mode profiles on the simulation grid

def _above_spectrum(diag, off2, x) -> bool:
    """Whether x lies above every eigenvalue of the symmetric tridiagonal
    matrix A of diagonal ``diag`` and squared off-diagonal ``off2``
    (Python floats, ``off2[0]`` zero): by Sylvester's law of inertia,
    whether every LDL^T pivot of A - x I is below zero."""
    d = 1.0
    for a, b2 in zip(diag, off2):
        d = a - x - b2 / d
        if d >= 0.0:
            return False
    return True


def _top_eigenpair(diag: np.ndarray, off: np.ndarray):
    """Largest eigenvalue of the symmetric tridiagonal matrix A of
    diagonal ``diag`` and positive off-diagonal ``off``, and an eigenvector.

    Bisection on ``_above_spectrum`` narrows [largest diagonal entry,
    Gershgorin bound] until its ends are adjacent doubles.  At the upper
    end every pivot of A - x I is negative, so elimination without
    pivoting (the Thomas algorithm on those same pivots) is stable there,
    and two inverse-iteration solves give the eigenvector.  They start
    from the all-ones vector: with a positive off-diagonal the eigenvector
    has one sign, so the start overlaps it.
    """
    a, b = diag.tolist(), off.tolist()
    b2 = [0.0] + [v * v for v in b]
    radius = np.append(off, 0.0) + np.insert(off, 0, 0.0)
    lo = max(a)
    hi = math.nextafter(2.0 * float(np.max(diag + radius)) - lo, math.inf)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _above_spectrum(a, b2, mid):
            hi = mid
        else:
            lo = mid
    pivots, d = [], 1.0
    for ai, bi2 in zip(a, b2):
        d = ai - hi - bi2 / d
        pivots.append(d)
    ell = [bi / di for bi, di in zip(b, pivots)]
    x = [1.0] * len(a)
    for _ in range(2):
        # forward, diagonal and backward sweeps of L D L^T x_new = x
        y = x[0]
        x[0] = y / pivots[0]
        for i in range(1, len(a)):
            y = x[i] - ell[i - 1] * y
            x[i] = y / pivots[i]
        for i in range(len(a) - 2, -1, -1):
            x[i] -= ell[i] * x[i + 1]
        peak = max(map(abs, x))
        x = [v / peak for v in x]
    return lo, np.array(x)


def slab_mode_profile(n_column: np.ndarray, cell: float, wavelength: float,
                      polarization: str):
    """Fundamental guided mode of a 1D index column.

    Returns (n_eff, profile) where the profile samples the out-of-plane
    field (Ey for TE, Hy for TM) at the grid nodes.
    """
    if polarization not in ("TE", "TM"):
        raise ValueError("polarization must be 'TE' or 'TM'")
    k0 = 2 * np.pi / wavelength
    nz = len(n_column)
    eps = n_column.astype(float) ** 2
    inv_dz2 = 1.0 / cell**2
    if polarization == "TE":
        diag = k0**2 * eps - 2.0 * inv_dz2
        off = np.full(nz - 1, inv_dz2)
        scale = 1.0
    else:
        # eps d/dz (1/eps dH/dz) + k0^2 eps H = beta^2 H is the generalized
        # symmetric problem A H = beta^2 B H with B = diag(1/eps); B is
        # positive diagonal, so H = sqrt(eps) u turns it into a symmetric
        # tridiagonal problem for u
        w = 2.0 / (eps[:-1] + eps[1:]) * inv_dz2
        diag = eps * (k0**2 - np.append(w, 0.0) - np.insert(w, 0, 0.0))
        off = w * np.sqrt(eps[:-1] * eps[1:])
        scale = np.sqrt(eps)
    beta2, vec = _top_eigenpair(diag, off)
    prof = vec * scale
    n_eff = np.sqrt(np.float64(beta2)) / k0
    n_min = min(n_column[0], n_column[-1])
    if not np.isfinite(n_eff) or n_eff <= n_min:
        raise ValueError("no guided mode on this column")
    prof = prof / np.max(np.abs(prof))
    if prof[np.argmax(np.abs(prof))] < 0:
        prof = -prof
    return float(n_eff), prof


# ---------------------------------------------------------------------------
# The kernel

def _drive(t: float, omega: float) -> float:
    """Line-source amplitude at time t: a unit sine at omega under a
    raised-cosine ramp of RAMP_PERIODS."""
    ramp_t = RAMP_PERIODS * 2 * np.pi / omega
    env = 1.0 if t >= ramp_t else 0.5 * (1 - np.cos(np.pi * t / ramp_t))
    return env * np.sin(omega * t)


class Fdtd2D:
    """Single-frequency 2D TE FDTD run over a fixed index map: ``F`` is
    Ey, ``Ga`` Hx and ``Gb`` Hz.

    A simulation owns its grid exclusively; results are bit-deterministic
    for a fixed grid, step count, and geometry.  It steps at the map's
    ``time_step``, within COURANT of the Courant limit of the map's lowest
    index.  ``Ga`` and ``Gb`` hold the in-plane field divided by
    ``g_scale``.
    """

    def __init__(self, material: MaterialMap, wavelength: float):
        self.material = material
        self.wavelength = wavelength

        d = material.cell_size
        nx, nz = material.n.shape
        self.steps_per_period, dt = time_step(material.n, d, wavelength)
        self.grid = SimulationGrid(d, dt, nx, nz, float(np.min(material.n)))
        self.omega = 2 * np.pi * constants.C0 / wavelength

        self._init_fields()
        self.source = None

    # -- setup ------------------------------------------------------------

    def _init_fields(self):
        nx, nz = self.grid.nx, self.grid.nz
        d, dt = self.grid.cell_size, self.grid.time_step

        # Every array is float32 and stored as (nz, nx) rows, x fastest;
        # F, Ga and Gb are (x, z)-indexed views of them.  Gb's one padding
        # column feeds only F's first and last column, whose update
        # coefficient is 0.  F's update writes from its second row on.
        f32 = np.float32
        f = _aligned_zeros((nz, nx), nx)         # out-of-plane field
        ga = _aligned_zeros((nz - 1, nx))        # in-plane, d/dz partner
        gb = _aligned_zeros((nz, nx))            # d/dx partner + padding
        self.F, self.Ga, self.Gb = f.T, ga.T, gb[:, :-1].T

        # two difference buffers, each used twice per step: along z for Ga
        # and then (its first nz - 2 rows) for F; along x likewise.  The x
        # buffer has PML_CELLS + 2 spare nodes before it and PML_CELLS + 1
        # after, for the chunks of its CPML bands at rows -1 and nz
        w = PML_CELLS + 1
        dFz = _aligned_zeros((nz - 1, nx))
        dx = _aligned_zeros((w + 1 + nz * nx + w,), w + 1)
        dFx = dx[w + 1:w + 1 + nz * nx].reshape(nz, nx)
        self._dFz, self._dGaz = dFz, dFz[:-1]
        self._dFx, self._dGbx = dFx, dFx[:-2]

        # F=Ey; Ga=Hx at (i, j+1/2); Gb=Hz at (i+1/2, j).  Both H updates
        # take the one scalar dt / (mu0 d), so Ga and Gb hold H divided by
        # it (g_scale) and F's coefficient carries it; LineMonitor.fold
        # multiplies it back in double precision.  F's coefficient
        # dt g_scale / (eps0 eps_r d) is built 16 (z) rows at a time: each
        # block of eps_r = n^2 runs the chain in place in the map's dtype
        # and is cast into the float32 cF, so no float64 copy of the grid
        # is made
        self.g_scale = dt / (constants.MU0 * d)
        n_inner = self.material.n.T[1:-1]
        cF = np.empty(n_inner.shape, f32)
        for j in range(0, len(cF), 16):
            block = np.square(n_inner[j:j + 16])
            block *= constants.EPS0
            block *= d
            np.divide(dt, block, out=block)
            block *= self.g_scale
            block[:, [0, -1]] = 0.0
            cF[j:j + 16] = block

        (bex, aex), (bhx, ahx) = _pml_profiles(nx, d, dt)
        (bez, aez), (bhz, ahz) = _pml_profiles(nz, d, dt)
        # the z slabs of each field are the first and last rows of its z
        # differences, one two-block view; the x slabs one strided band in
        # the x buffer.  Gb's x differences fill columns 0..nx-2 of each
        # row, and F's columns 1..nx-2
        self._psi_Ga = _cpml_slabs(dFz, bhz, ahz)
        self._psi_Gb = _cpml_band(dx, nx, nz, 1, bhx, ahx)
        self._psi_Fx = _cpml_band(dx, nx, nz - 2, 2, bex[1:-1], aex[1:-1])
        self._psi_Fz = _cpml_slabs(self._dGaz, bez[1:-1], aez[1:-1])

        # the step, bound once as (ufunc, a, b, out) over these views.  The
        # x differences take one pass over the flat rows: the difference
        # that straddles two rows lands in a padding column
        dGaz, dGbx = self._dGaz, self._dGbx
        fl, gbl, dxl = f.reshape(-1), gb.reshape(-1), dFx.reshape(-1)
        self._ops = [
            (np.subtract, f[1:], f[:-1], dFz), *_psi_ops(self._psi_Ga),
            (np.add, ga, dFz, ga),
            (np.subtract, fl[1:], fl[:-1], dxl[:-1]), *_psi_ops(self._psi_Gb),
            (np.subtract, gb, dFx, gb),
            (np.subtract, gbl[nx:-nx], gbl[nx - 1:-nx - 1], dGbx.reshape(-1)),
            *_psi_ops(self._psi_Fx),
            (np.subtract, ga[1:], ga[:-1], dGaz), *_psi_ops(self._psi_Fz),
            (np.subtract, dGaz, dGbx, dGaz), (np.multiply, dGaz, cF, dGaz),
            (np.add, f[1:-1], dGaz, f[1:-1])]
        self.step_index = 0

    def add_line_source(self, i: int, profile: np.ndarray):
        """Soft out-of-plane-field line source across the column x index i,
        of unit amplitude and turned on over RAMP_PERIODS; it replaces any
        earlier one."""
        self.source = (i, profile)

    # -- stepping ---------------------------------------------------------

    def _step(self):
        for op, a, b, out in self._ops:
            op(a, b, out)
        self.step_index += 1
        if self.source is not None:
            i, profile = self.source
            t = self.step_index * self.grid.time_step
            self.F[i] += profile * _drive(t, self.omega)

    def run_periods(self, n_periods: int, accumulators=None):
        """Advance n_periods.  If accumulators are given, each step copies
        their lines into rows, and each period they fold the rows into
        that period's phasors, so they end with the last period's."""
        spp = self.steps_per_period
        if accumulators is None:
            for _ in range(n_periods * spp):
                self._step()
            return
        copies = [c for acc in accumulators for c in acc.copies]
        dt = self.grid.time_step
        for _ in range(n_periods):
            for k in range(spp):
                self._step()
                for rows, line in copies:
                    rows[k] = line
            # G steps before F: after step k, F is at k dt, G at (k - 1/2) dt
            t = (self.step_index - spp + 1 + np.arange(spp)) * dt
            ph_f = np.exp(1j * self.omega * t)
            ph_g = np.exp(1j * self.omega * (t - 0.5 * dt))
            for acc in accumulators:
                acc.fold(ph_f, ph_g)


class LineMonitor:
    """Single-frequency phasor accumulator on a grid line of ``sim``.

    orientation 'v': vertical line at x index i spanning z slice;
    orientation 'h': horizontal line at z index j spanning x slice.
    Phasors use the convention f(t) = Re(F exp(-i w t)).
    """

    def __init__(self, sim: Fdtd2D, orientation: str, index: int,
                 span: slice):
        self.orientation = orientation
        i, s = index, span
        if orientation == "v":
            lines = sim.F[i, s], sim.Gb[i - 1, s], sim.Gb[i, s]
        else:
            lines = sim.F[s, i], sim.Ga[s, i - 1], sim.Ga[s, i]
        # one period of the raw float32 lines, copied in step by step, and
        # the double-precision work arrays that fold them; the in-plane
        # lines are averaged and scaled back by the factor 0.5 g_scale
        n = len(lines[0])
        self._rows = np.empty((3, sim.steps_per_period, n), np.float32)
        self.copies = list(zip(self._rows, lines))
        self._wide = np.empty((sim.steps_per_period, n))
        self._half_g = 0.5 * sim.g_scale
        self._terms = np.empty((sim.steps_per_period, n), complex)
        self._f = self._g = np.zeros(n, complex)

    def _fold(self, ph):
        """The work rows summed at phases ph.  numpy sums axis 0 row by
        row, in order, so this equals adding them step by step."""
        return np.multiply(self._wide, ph[:, None], out=self._terms).sum(0)

    def fold(self, ph_f: np.ndarray, ph_g: np.ndarray):
        """Take the phasor sums of the period of lines just recorded, at
        the phases of their steps; they replace the previous period's."""
        f_rows, ga_rows, gb_rows = self._rows
        wide = self._wide
        np.copyto(wide, f_rows)
        self._f = self._fold(ph_f)
        np.copyto(wide, ga_rows)
        wide += gb_rows
        wide *= self._half_g
        self._g = self._fold(ph_g)

    def phasors(self):
        """(F, G) phasors over the last period folded; zero before one."""
        spp = len(self._terms)
        return 2.0 * self._f / spp, 2.0 * self._g / spp

    def flux(self, sim: Fdtd2D) -> float:
        """Cycle-averaged power through the line, per unit out-of-plane
        length: +x for vertical lines, +z for horizontal lines."""
        f, g = self.phasors()
        # v: S_x = Ey Hz ; h: S_z = -Ey Hx
        s = np.real(f * np.conj(g))
        s = s if self.orientation == "v" else -s
        return 0.5 * float(np.sum(s)) * sim.grid.cell_size


# ---------------------------------------------------------------------------
# Unit-cell geometry and driver

def _zone_averaged_index_row(x, x0, length, pitch, duty, offset, delta,
                             n_tooth, n_gap):
    """Index along x for one grating layer, with the transverse A/B zone
    pair reduced to its y-averaged permittivity.

    Zone B repeats zone A shifted by ``delta`` along x; averaging the two
    permittivity profiles reproduces the interference-driven reduction of
    the first-order grating strength (full contrast at delta=0, vanishing
    first order at delta=pitch/2).  Each node's pixel [x - d/2, x + d/2]
    takes the permittivity of its tooth fill fraction (sub-pixel smoothing,
    Farjadpour et al., Opt. Lett. 31, 2972 (2006)); outside the section
    [x0, x0 + length) the layer is solid.
    """
    d = x[1] - x[0]
    a, b = (np.clip(x + h, x0, x0 + length) for h in (-d / 2, d / 2))

    def teeth(s, shift):
        # antiderivative of the periodic tooth indicator; divmod keeps the
        # whole periods and the remainder consistent
        periods, rest = np.divmod(s - x0 - offset - shift, pitch)
        return duty * pitch * periods + np.minimum(rest, duty * pitch)

    tooth = sum(teeth(b, s) - teeth(a, s) for s in (0.0, delta)) / 2
    fill = np.clip((d - (b - a) + tooth) / d, 0.0, 1.0)
    return np.sqrt(n_gap**2 + fill * (n_tooth**2 - n_gap**2))


def _cross_section(stack: LayerStack, upper, lower):
    """The stack bottom to top as (layer, z of its bottom, teeth).

    ``teeth`` is None for an untoothed layer.  The toothed layers are the
    guiding layers with an index above the cladding: the topmost takes
    ``upper`` and the rest ``lower``, each a (duty, offset) pair or None.
    """
    toothed = [i for i, l in enumerate(stack.layers)
               if l.name in stack.guiding
               and l.refractive_index > stack.cladding_index]
    zb = 0.0
    for i, layer in enumerate(stack.layers):
        teeth = None
        if i in toothed:
            teeth = upper if i == toothed[-1] else lower
        yield layer, zb, teeth
        zb += layer.thickness


def unit_cell_material_map(stack: LayerStack, params, n_periods: int,
                           cell_size: float) -> MaterialMap:
    """Cross-section index map for a short fixed-period grating section.

    ``params`` may be None for the uniform (tooth-free) reference
    waveguide.  The returned map's ``meta`` carries the source and monitor
    indices and the section length used by run_unit_cell.
    """
    d = cell_size
    pml = PML_CELLS
    n_clad = stack.cladding_index
    length = 0.0 if params is None else n_periods * params.pitch

    x_total = MARGIN_IN + length + MARGIN_OUT
    nx = int(round(x_total / d)) + 2 * pml
    x = (np.arange(nx) - pml) * d  # x=0 at inner edge of left PML

    thicknesses = [l.thickness for l in stack.layers]
    stack_h = sum(thicknesses)
    z_total = stack_h + 2 * CLAD_PAD
    nz = int(round(z_total / d)) + 2 * pml
    z = (np.arange(nz) - pml) * d - CLAD_PAD  # z=0 at stack bottom

    n = np.full((nx, nz), n_clad)
    x0 = MARGIN_IN  # grating starts here
    upper = lower = None
    if params is not None:
        upper, lower = (params.dcu, 0.0), (params.dcl, params.dx)
    for layer, zb, teeth in _cross_section(stack, upper, lower):
        zsel = (z >= zb) & (z < zb + layer.thickness)
        if teeth is None:
            row = np.full(nx, layer.refractive_index)
        else:
            duty, offset = teeth
            row = _zone_averaged_index_row(
                x, x0, length, params.pitch, duty, offset, params.delta,
                layer.refractive_index, n_clad)
        n[:, zsel] = row[:, None]

    meta = {
        "i_src": pml + int(round(0.35e-6 / d)),
        "i_in": pml + int(round(0.8e-6 / d)),
        "i_out": nx - pml - int(round(0.5e-6 / d)),
        "j_bot": int(round((CLAD_PAD - 0.75e-6) / d)) + pml,
        "j_top": int(round((CLAD_PAD + stack_h + 0.75e-6) / d)) + pml,
        "length": length,
    }
    return MaterialMap(n=n, cell_size=d, meta=meta)


def default_cell_size(stack: LayerStack, wavelength: float,
                      points_per_wavelength: int) -> float:
    n_max = max([l.refractive_index for l in stack.layers]
                + [stack.cladding_index])
    return wavelength / (points_per_wavelength * n_max)


def feature_widths(params):
    """(layer, kind, width) of every tooth and gap of a unit cell, upper
    layer first.  A removed or solid layer has no edges, hence no
    feature."""
    for layer, duty in (("upper", params.dcu), ("lower", params.dcl)):
        if 0.0 < duty < 1.0:
            yield layer, "tooth", duty * params.pitch
            yield layer, "gap", (1.0 - duty) * params.pitch


def check_duty(**duties) -> None:
    """Raise ValueError naming the first duty cycle outside [0, 1]."""
    for name, duty in duties.items():
        if not 0.0 <= duty <= 1.0:
            raise ValueError(f"{name} outside [0, 1]")


def _check_resolution(params, cell_size: float):
    for _, _, f in feature_widths(params):
        if f < 4 * cell_size:
            raise ResolutionError(
                f"feature {f * 1e9:.1f} nm below 4 cells at "
                f"{cell_size * 1e9:.1f} nm cell size")


# one slab solve per duty pair and polarization: one pair for an analytic
# design, one a tooth in fdtd: 0.65-0.85 ms each, ~80 ms a design (x86 VM)
@functools.lru_cache(maxsize=128)
def grating_effective_index(stack: LayerStack, dcu: float, dcl: float,
                            cell_size: float, wavelength: float,
                            polarization: str) -> float:
    """Fundamental effective index of the grating section with each toothed
    layer replaced by its duty-cycle-averaged permittivity.

    This is the propagation constant that sets the outcoupling angle via the
    grating equation; it is lower than the unperturbed waveguide index.
    """
    check_duty(dcu=dcu, dcl=dcl)
    d = cell_size
    clad = stack.cladding_index
    nz = int(round((sum(l.thickness for l in stack.layers) + 2 * CLAD_PAD)
                   / d))
    z = np.arange(nz) * d - CLAD_PAD
    n = np.full(nz, clad)
    # the averaged column has no teeth to offset
    for layer, zb, teeth in _cross_section(stack, (dcu, 0.0), (dcl, 0.0)):
        sel = (z >= zb) & (z < zb + layer.thickness)
        if teeth is None:
            n[sel] = layer.refractive_index
        else:
            duty, _ = teeth
            eps = duty * layer.refractive_index**2 + (1 - duty) * clad**2
            n[sel] = np.sqrt(eps)
    n_eff, _ = slab_mode_profile(n, d, wavelength, polarization)
    return n_eff


def grating_angle(stack: LayerStack, params, cell_size: float,
                  wavelength: float, polarization: str) -> float:
    """First-order outcoupling angle in the cladding, rad: the forward
    grating equation sin(theta) = (n_eff - wavelength / pitch) / n_clad
    with the duty-averaged index of ``grating_effective_index``.  NaN when
    the order does not propagate (|sin(theta)| >= 1): the period does not
    outcouple the mode."""
    n_eff = grating_effective_index(stack, params.dcu, params.dcl, cell_size,
                                    wavelength, polarization)
    s = (n_eff - wavelength / params.pitch) / stack.cladding_index
    return float(np.arcsin(s)) if abs(s) < 1.0 else np.nan


_reference_cache: dict = {}


def _run_to_steady_state(sim: Fdtd2D, monitors, min_periods: int,
                         max_periods: int):
    """Step min_periods, then measure the monitor fluxes over each further
    period until the largest change of a flux stays below STEADY_REL_TOL
    of the period's largest flux for three consecutive periods.  Returns
    the periods run.

    The largest flux is a unit cell's guided input, so every monitor is
    resolved to the same fraction of the input power, however small its
    own share of it."""
    sim.run_periods(min_periods)
    prev, change, steady = None, np.nan, 0
    for n in range(min_periods, max_periods):
        sim.run_periods(1, accumulators=monitors)
        powers = np.array([m.flux(sim) for m in monitors])
        if prev is not None:
            change = float(np.max(np.abs(powers - prev))
                           / max(np.max(np.abs(powers)), 1e-300))
            steady = steady + 1 if change < STEADY_REL_TOL else 0
            if steady == 3:
                return n + 1
        prev = powers
    raise ConvergenceError(
        f"monitors not steady after {max_periods} optical periods: last "
        f"relative flux change {change:.3g} per period, tolerance "
        f"{STEADY_REL_TOL:g} for 3 periods in a row")


def _simulate(material: MaterialMap, wavelength: float,
              profile: np.ndarray):
    meta = material.meta
    sim = Fdtd2D(material, wavelength)
    sim.add_line_source(meta["i_src"], profile)

    nz, nx = sim.grid.nz, sim.grid.nx
    zspan = slice(meta["j_bot"], meta["j_top"] + 1)
    xspan = slice(meta["i_in"], meta["i_out"] + 1)
    mon_in = LineMonitor(sim, "v", meta["i_in"], zspan)
    mon_out = LineMonitor(sim, "v", meta["i_out"], zspan)
    mon_top = LineMonitor(sim, "h", meta["j_top"], xspan)
    mon_bot = LineMonitor(sim, "h", meta["j_bot"], xspan)
    monitors = [mon_in, mon_out, mon_top, mon_bot]

    # one transit of the grid at the highest index, after the source ramp
    n_max = float(np.max(material.n))
    transit = nx * sim.grid.cell_size * n_max / constants.C0
    period = wavelength / constants.C0
    min_periods = int(np.ceil(transit / period + RAMP_PERIODS))
    periods = _run_to_steady_state(sim, monitors, min_periods, MAX_PERIODS)
    return sim, monitors, periods


def _reference_run(grating: MaterialMap, wavelength: float):
    """(monitor fluxes, n_eff, mode profile) of the tooth-free reference
    spanning the grating map's domain and grid.  Its simulation is freed
    on return, before the grating run builds its own.  No tooth lowers a
    layer's index below the cladding's, so the reference map's lowest
    index, and with it the time step, is the grating map's."""
    meta, d = grating.meta, grating.cell_size
    # the grating map's first column lies in the left PML, before any
    # tooth; a read-only view repeats it across the domain
    reference = MaterialMap(
        n=np.broadcast_to(grating.n[:1], grating.n.shape),
        cell_size=d, meta=dict(meta))
    col = reference.n[meta["i_in"] - 2, :]
    n_eff, profile = slab_mode_profile(col, d, wavelength, "TE")
    sim, monitors, _ = _simulate(reference, wavelength, profile)
    return [m.flux(sim) for m in monitors], n_eff, profile


def run_unit_cell(params, n_periods: int, wavelength: float,
                  stack: LayerStack, polarization: str,
                  cell_size: float) -> CellResult:
    """Simulate a short fixed-period grating section and extract observables.

    Launches the fundamental guided mode, runs the continuous-wave source to
    steady state (after one transit of the grid plus the source ramp, each
    of the four cycle-averaged monitor fluxes changes by less than 1e-5 of
    the largest, the input, per optical period, three periods in a row),
    and returns flux-derived powers normalized to unit input.
    A tooth-free reference run calibrates the input power; references are
    cached per stack, wavelength and grid.  The kernel steps TE only: any
    other ``polarization`` raises ValueError.
    """
    if polarization != "TE":
        raise ValueError(f"the unit-cell solver steps TE only, not "
                         f"{polarization!r}")
    if n_periods < 4:
        raise ValueError("n_periods must be >= 4")
    _check_resolution(params, cell_size)

    grating = unit_cell_material_map(stack, params, n_periods, cell_size)
    meta = grating.meta

    ref_key = (stack, wavelength, round(cell_size * 1e12), grating.n.shape)
    if ref_key not in _reference_cache:
        _reference_cache[ref_key] = _reference_run(grating, wavelength)
    ref_flux, n_eff, profile = _reference_cache[ref_key]
    # normalize to the guided power actually delivered through the section
    # in the tooth-free reference; stray launch radiation then cancels
    norm = ref_flux[1]

    sim, monitors, periods = _simulate(grating, wavelength, profile)
    mon_in, mon_out, mon_top, mon_bot = monitors
    p_trans = mon_out.flux(sim) / norm
    p_up = max((mon_top.flux(sim) - ref_flux[2]) / norm, 0.0)
    p_down = max((-mon_bot.flux(sim) + ref_flux[3]) / norm, 0.0)
    p_reflected = max((ref_flux[0] - mon_in.flux(sim)) / norm, 0.0)
    p_t = max(1.0 - p_trans - p_reflected, 0.0)

    # desired-order window around the grating-equation angle (in cladding),
    # using the duty-averaged local effective index of the toothed section
    try:
        target = grating_angle(stack, params, cell_size, wavelength,
                               polarization)
    except ValueError:  # the averaged section guides no mode
        target = np.nan

    e_top, _ = mon_top.phasors()
    e_top = np.asarray(e_top) / np.sqrt(norm)

    result = CellResult(
        p_t=p_t, p_d=np.nan, p_up=p_up, p_down=p_down,
        p_trans=p_trans, p_reflected=p_reflected,
        length=meta["length"], peak_angle=np.nan, target_angle=target,
        n_cladding=stack.cladding_index, wavelength=wavelength,
        cell_size=cell_size, top_field=e_top,
        periods_run=periods)
    spec = far_field_angle_spectrum(result)
    result.peak_angle = spec.peak_angle
    if np.isnan(target):
        result.p_d = p_up
    else:
        window = np.abs(spec.theta - target) <= ANGULAR_WINDOW
        # scale bin powers so their total matches the flux-monitor p_up
        scale = p_up / spec.total if spec.total > 0 else 0.0
        result.p_d = float(np.sum(spec.power[window])) * scale
    return result


# ---------------------------------------------------------------------------
# Observable extraction

def extract_kappa_alpha(result: CellResult):
    """Grating strength kappa and excess loss alpha [1/m] from a cell run.

    kappa + alpha = -ln(1 - P_T) / L with P_T per unit input, split in
    proportion P_D : rest.
    """
    if result.p_t >= 1.0:
        raise DepletionError("guided mode fully depleted over the section")
    if result.length <= 0:
        raise ValueError("zero-length section")
    p_t = min(max(result.p_t, 0.0), 1.0)
    total = -np.log(1.0 - p_t) / result.length
    ratio = 0.0 if p_t == 0 else min(max(result.p_d / p_t, 0.0), 1.0)
    kappa = total * ratio
    return kappa, total - kappa


@dataclass
class AngleSpectrum:
    theta: np.ndarray      # rad, in the monitor medium
    power: np.ndarray      # per-FFT-bin upward power
    density: np.ndarray    # dP/dtheta
    total: float
    peak_angle: float


def far_field_angle_spectrum(result: CellResult) -> AngleSpectrum:
    """Upward angular power distribution from the top-monitor phasor line.

    Spatial Fourier transform into plane waves in the cladding; evanescent
    components are discarded.  The angular-integrated power equals the
    monitor flux up to windowing/truncation error.
    """
    e = np.asarray(result.top_field)
    n_samples = len(e)
    dx = result.cell_size
    lam = result.wavelength
    k0n = 2 * np.pi / lam * result.n_cladding
    omega = 2 * np.pi * constants.C0 / lam

    npad = PAD_FACTOR * n_samples
    ft = np.fft.fft(e, n=npad)
    kx = 2 * np.pi * np.fft.fftfreq(npad, dx)
    prop = np.abs(kx) < k0n
    kz = np.sqrt(np.maximum(k0n**2 - kx[prop] ** 2, 0.0))
    # the TE plane wave's upward flux per |Ey|^2
    coef = kz / (2 * omega * constants.MU0)
    power = coef * np.abs(ft[prop]) ** 2 * dx / npad
    theta = np.arcsin(kx[prop] / k0n)
    order = np.argsort(theta)
    theta, power = theta[order], power[order]
    dkx_dtheta = k0n * np.cos(theta)
    dkx = 2 * np.pi / (npad * dx)
    density = power / dkx * dkx_dtheta
    peak = float(theta[np.argmax(density)]) if len(theta) else np.nan
    return AngleSpectrum(theta=theta, power=power, density=density,
                         total=float(np.sum(power)), peak_angle=peak)

