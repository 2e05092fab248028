"""Layered run configuration.

A run is described by one YAML file; anything omitted falls back to the
built-in defaults (the nominal device geometry and detection parameters).
Every stochastic stage carries an explicit seed so runs are reproducible
bit for bit.

The dataclasses a configuration holds (the layer stack, the grating
footprint, the ion pose and the detection parameters) live here, and
``geometry`` and ``detection`` re-export them, so that loading a
configuration imports no numpy.
"""

import copy
import math
from dataclasses import dataclass, field

from . import constants

__all__ = ["DetectionConfig", "GratingFootprint", "IonPose", "Layer",
           "LayerStack", "PipelineConfig", "default_config_dict",
           "default_stack", "load_config", "write_default_config"]


# ---------------------------------------------------------------------------
# Device geometry

@dataclass(frozen=True)
class Layer:
    name: str
    thickness: float        # m
    refractive_index: float

    def __post_init__(self):
        if self.thickness <= 0:
            raise ValueError(f"layer {self.name!r}: thickness must be > 0")
        if self.refractive_index < 1:
            raise ValueError(f"layer {self.name!r}: index must be >= 1")


@dataclass(frozen=True)
class LayerStack:
    """Vertical cross-section of the chip around the grating.

    ``layers`` are ordered bottom to top and describe the finite inner
    layers; semi-infinite claddings of index ``cladding_index`` bound the
    stack on both sides.  ``guiding`` names the layers that form the grating
    waveguide (the two grating layers plus the spacer between them).
    """
    layers: tuple[Layer, ...]
    cladding_index: float = constants.N_SIO2
    guiding: tuple[str, ...] = ()

    def __post_init__(self):
        names = [l.name for l in self.layers]
        for g in self.guiding:
            if g not in names:
                raise ValueError(f"guiding layer {g!r} not in stack")


def default_stack() -> LayerStack:
    """The bilayer silicon nitride grating stack used throughout."""
    return LayerStack(
        layers=(
            Layer("lower_nitride", 100e-9, constants.N_SIN),
            Layer("spacer_oxide", 90e-9, constants.N_SIO2),
            Layer("upper_nitride", 100e-9, constants.N_SIN),
        ),
        cladding_index=constants.N_SIO2,
        guiding=("lower_nitride", "spacer_oxide", "upper_nitride"),
    )


@dataclass(frozen=True)
class GratingFootprint:
    """Grating aperture: starts at x=0, centered on y=0."""
    x_extent: float = 30e-6
    y_extent: float = 30e-6

    def __post_init__(self):
        if self.x_extent < 0 or self.y_extent < 0:
            raise ValueError("footprint extents must be >= 0")

    @property
    def area(self) -> float:
        return self.x_extent * self.y_extent


@dataclass(frozen=True)
class IonPose:
    """Emitter position relative to the grating plane.

    The ion sits ``height_above_surface`` of vacuum above the chip surface;
    ``cladding_thickness`` of oxide separates the surface from the grating.
    """
    x_ion: float = 28e-6
    y_ion: float = 0.0
    height_above_surface: float = 50e-6
    cladding_thickness: float = 5e-6

    def __post_init__(self):
        if self.height_above_surface <= 0:
            raise ValueError("height_above_surface must be > 0")
        if self.cladding_thickness < 0:
            raise ValueError("cladding_thickness must be >= 0")

    @property
    def z_ion(self) -> float:
        """Total standoff from the grating plane."""
        return self.height_above_surface + self.cladding_thickness


# ---------------------------------------------------------------------------
# State detection

@dataclass
class DetectionConfig:
    bright_rate: float = 297.0       # counts/s from the bright state
    dark_rate: float = 8.1           # counts/s background (scatter 4.3,
    #                                  detector 3.0, other 0.8)
    window: float = 0.008            # s
    threshold: int = 1               # counts: bright iff counts >= this
    bins: int = 10                   # adaptive-readout time bins
    d_lifetime: float = 0.39         # s, metastable dark-state lifetime
    shelving_failure: float = 0.005  # probability the shelf pulse fails

    def __post_init__(self):
        if not (self.bright_rate >= 0 and self.dark_rate >= 0):
            raise ValueError("count rates must be nonnegative")
        if not self.window > 0:
            raise ValueError("detection window must be positive")
        # a fractional count would sit between two integer thresholds
        for name in ("threshold", "bins"):
            value = getattr(self, name)
            if not (float(value).is_integer() and value >= 1):
                raise ValueError(f"{name} must be a whole number, at least "
                                 f"1, got {value!r}")
        if not 0.0 <= self.shelving_failure <= 1.0:
            raise ValueError("shelving failure is a probability")
        if self.d_lifetime <= 0:
            raise ValueError("dark-state lifetime must be positive")

    @property
    def poisson_mean(self) -> float:
        return self.bright_rate * self.window

    @property
    def signal_to_background(self) -> float:
        return self.bright_rate / self.dark_rate


# ---------------------------------------------------------------------------
# The run configuration

_MODES = ("analytic", "fdtd", "file")
_FRACTION = ("in", (0, 1))

# The configuration schema, nested as the YAML file is: each top-level key
# holds the comment ``init-config`` writes above it and one row or a
# section of rows.  A row is (default, kind, bound, modes), trailing Nones
# left out: ``_typed`` reads the kind, the bound is (">", 0), (">=", n) or
# ("in", (0, 1)), a list's bound holds for each entry, and a library mode
# outside ``modes`` takes the key only at its default.
# The footprint, pose and detection dataclasses check their own values.
_TABLE = {
    "wavelength": ("fluorescence wavelength, m",
                   (constants.DESIGN_WAVELENGTH, "float", (">", 0))),
    "stack": ("null selects the built-in SiN/SiO2/SiN bilayer stack",
              (None, "stack")),
    "footprint": ("grating extent, m", {
        "x_extent": (30e-6, "float"),
        "y_extent": (30e-6, "float")}),
    "pose": ("ion standoff: 50 um vacuum above 5 um oxide, 28 um along x", {
        "x_ion": (28e-6, "float"),
        "y_ion": (0.0, "float"),
        "height_above_surface": (50e-6, "float"),
        "cladding_thickness": (5e-6, "float")}),
    "library": ("unit-cell table; analytic mode needs no field solver", {
        "mode": ("analytic", "mode"),
        "path": (None, "path", None, ("file",)),
        "angles_deg": ([-4.0, 0.0, 4.0, 8.0, 12.0, 16.0, 20.0], "floats",
                       None, ("analytic", "fdtd")),
        # fractions of pitch / 2
        "delta_fracs": ([0.0, 0.25, 0.5, 0.75, 1.0], "floats", _FRACTION,
                        ("analytic", "fdtd")),
        "n_periods": (8, "int", (">=", 4), ("fdtd",)),
        # the grating equation's unit-cell grid; a file names its own
        "points_per_wavelength": (16, "int", (">", 0), ("analytic", "fdtd")),
        "kappa0": (1.0e6, "float", (">", 0), ("analytic",)),  # peak, 1/m
        "alpha0": (0.05e6, "float", (">=", 0), ("analytic",)),  # loss, 1/m
        "duty_upper": (0.5, "float", _FRACTION, ("analytic",)),
        "duty_lower": (0.5, "float", _FRACTION, ("analytic",)),
        "layer_offset": (0.06e-6, "float", None, ("analytic",)),
        "cache_dir": (None, "path", None, ("fdtd",))}),
    "designer": ("longitudinal profile fit and tooth layout options", {
        "alpha": (0.0, "float", (">=", 0)),
        # +inf is an uncapped fit
        "kappa_max": (0.6e6, "float|inf", (">", 0))}),
    "propagation": ("scalar field raster (pixels, pixel size in m)", {
        "shape": ([256, 256], "shape"),
        "pixel_size": (0.2e-6, "float", (">", 0))}),
    "detection": ("counts/s rates, window s, readout and shelving model", {
        "bright_rate": (297.0, "float"),
        "dark_rate": (8.1, "float"),
        "window": (0.008, "float"),
        "threshold": (1, "int"),
        "bins": (10, "int"),
        "d_lifetime": (0.39, "float"),
        "shelving_failure": (0.005, "float"),
        "trials": (200000, "int", (">=", 10**4))}),
    "seeds": ("explicit seeds of the Monte Carlo detection and timing "
              "stages; library is unused and still accepted for old "
              "configs", {"library": (0, "int", (">=", 0)),
                          "detection": (1, "int", (">=", 0)),
                          "timing": (2, "int", (">=", 0))}),
    "output_dir": ("all artifacts are written below this directory",
                   ("runs", "str")),
}


def default_config_dict() -> dict:
    """Built-in defaults for every stage (nominal device values)."""
    return copy.deepcopy({
        key: {k: row[0] for k, row in body.items()}
        if isinstance(body, dict) else body[0]
        for key, (_, body) in _TABLE.items()})


def _overlay(merged: dict, layer: dict) -> None:
    """Lay ``layer`` over ``merged``, each value typed by its row; errors
    name the dotted key."""
    for key, value in layer.items():
        if key not in _TABLE:
            raise KeyError(f"unknown configuration key {key!r}")
        body = _TABLE[key][1]
        if not isinstance(body, dict):
            merged[key] = _typed(key, body[1], value)
            continue
        if not isinstance(value, dict):
            raise TypeError(f"{key}: expected a mapping, got "
                            f"{type(value).__name__}")
        for sub, v in value.items():
            if sub not in body:
                raise KeyError(f"unknown configuration key {sub!r}")
            merged[key][sub] = _typed(f"{key}.{sub}", body[sub][1], v)


def _typed(name: str, kind: str, value):
    """``value`` for the key ``name`` as a row of ``kind`` stores it, or
    ValueError naming the key: ``floats`` is a non-empty list of floats,
    ``shape`` two positive integers, ``path`` a string or null, and the
    number kinds are :func:`_number`'s."""
    if kind == "floats":
        if not (isinstance(value, list) and value):
            raise ValueError(f"{name}: expected a non-empty list of "
                             f"numbers, got {value!r}")
        return [_number(v, "float", f"{name}[{i}]")
                for i, v in enumerate(value)]
    if kind == "shape":
        if not (isinstance(value, (list, tuple)) and len(value) == 2
                and all(_is_number(n) and n > 0 and n % 1 == 0
                        for n in value)):
            raise ValueError(f"{name}: expected two positive integers, "
                             f"got {value!r}")
        return [int(n) for n in value]
    if kind == "mode":
        if value not in _MODES:
            raise ValueError(f"{name}: expected a library mode "
                             f"({', '.join(_MODES)}), got {value!r}")
        return value
    if kind == "stack":
        _stack_from_entry(value)
        return value
    if kind in ("str", "path"):
        if not (isinstance(value, str) or (value is None and kind == "path")):
            raise ValueError(f"{name}: expected a string"
                             f"{' or null' * (kind == 'path')}, got "
                             f"{type(value).__name__}")
        return value
    return _number(value, kind, name)


def _number(value, kind: str, name: str):
    """``value`` for the key ``name`` of the number ``kind``: a string
    that parses as a number (PyYAML reads ``1e6`` and ``6.0e5`` as
    strings) counts as one, and only ``float|inf`` takes a non-finite
    value, +inf.  ``float`` takes no bool and stores a float; ``int``
    takes an integral value and stores an int."""
    if isinstance(value, str):
        # an int key's integer literal stays exact beyond 2**53
        exact = kind == "int" and value.strip().lstrip("+-").isdigit()
        try:
            value = int(value) if exact else float(value)
        except ValueError:
            raise ValueError(f"{name}: expected a number, got "
                             f"{value!r}") from None
    if isinstance(value, float) and not math.isfinite(value) and not (
            kind == "float|inf" and value == math.inf):
        _nonfinite(name, value)
    if kind != "int":
        if not _is_number(value):
            raise ValueError(f"{name}: expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            _nonfinite(name, math.inf)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return value


def _nonfinite(name: str, number: float):
    if math.isnan(number):
        raise ValueError(f"{name}: expected a number, got nan")
    raise ValueError(f"{name}: expected a finite number, got {number}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check(merged: dict) -> None:
    """Raise ValueError naming the first key out of its bound, or off its
    default under a library mode that does not read it."""
    mode = merged["library"]["mode"]
    rows = ((key, sub, row) for key, (_, body) in _TABLE.items()
            for sub, row in (body.items() if isinstance(body, dict)
                             else [(None, body)]))
    for key, sub, row in rows:
        default, _, bound, modes = row + (None,) * (4 - len(row))
        name = key if sub is None else f"{key}.{sub}"
        value = merged[key] if sub is None else merged[key][sub]
        if bound is not None:
            items = (enumerate(value) if isinstance(value, list)
                     else [(None, value)])
            for i, v in items:
                _check_bound(name if i is None else f"{name}[{i}]", v, bound)
        if modes is not None and mode not in modes and value != default:
            raise ValueError(f"{name}: not read in {mode} mode (read in "
                             f"{' and '.join(modes)} mode)")


def _check_bound(name: str, value, bound) -> None:
    op, n = bound
    if op == "in":
        if not n[0] <= value <= n[1]:
            raise ValueError(f"{name} must lie in [{n[0]}, {n[1]}], got "
                             f"{value!r}")
    elif not (value > n if op == ">" else value >= n):
        rule = ("be positive" if op == ">" else
                "not be negative" if n == 0 else f"be at least {n}")
        raise ValueError(f"{name} must {rule}, got {value!r}")


def _section(name: str, build, entry: dict):
    """``build(**entry)``, with errors prefixed by the section name."""
    try:
        return build(**entry)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _stack_from_entry(entry) -> LayerStack:
    """The built-in stack for null, else the stack of a mapping with
    ``layers`` (each a name, thickness and refractive_index),
    ``cladding_index`` and, optionally, ``guiding``; its numbers take the
    float rule of :func:`_number`, and errors name ``stack``."""
    if entry is None:
        return default_stack()
    if not isinstance(entry, dict):
        raise TypeError(f"stack: expected a mapping or null, got "
                        f"{type(entry).__name__}")
    try:
        layers = tuple(_section("stack", Layer, {
            "name": l["name"],
            **{k: _number(l[k], "float", f"stack.layers[{i}].{k}")
               for k in ("thickness", "refractive_index")}})
            for i, l in enumerate(entry["layers"]))
        cladding = _number(entry["cladding_index"], "float",
                           "stack.cladding_index")
        guiding = tuple(entry.get("guiding", [l.name for l in layers]))
    except KeyError as exc:
        raise ValueError(f"stack: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"stack: {exc}") from None
    return _section("stack", LayerStack, {
        "layers": layers, "cladding_index": cladding, "guiding": guiding})


@dataclass
class PipelineConfig:
    """Typed view of one run configuration, as :meth:`from_dict` and
    :func:`load_config` build it."""
    wavelength: float
    stack: LayerStack
    footprint: GratingFootprint
    pose: IonPose
    library: dict
    designer: dict
    propagation: dict
    detection: DetectionConfig
    detection_trials: int
    seeds: dict
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, *layers: dict) -> "PipelineConfig":
        """The defaults overlaid by each of ``layers`` in turn, each value
        typed by its row, then checked once by :func:`_check`."""
        merged = default_config_dict()
        for layer in layers:
            _overlay(merged, layer)
        _check(merged)
        det = dict(merged["detection"])
        trials = det.pop("trials")
        return cls(
            wavelength=merged["wavelength"],
            stack=_stack_from_entry(merged["stack"]),
            footprint=_section("footprint", GratingFootprint,
                               merged["footprint"]),
            pose=_section("pose", IonPose, merged["pose"]),
            library=merged["library"],
            designer=merged["designer"],
            propagation=merged["propagation"],
            detection=_section("detection", DetectionConfig, det),
            detection_trials=trials,
            seeds=merged["seeds"],
            output_dir=merged["output_dir"],
            raw=merged,
        )


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, overlaid by the YAML file at ``path``, then ``overrides``."""
    data = {}
    if path is not None:
        # yaml is imported only where a file is read or written
        import yaml
        with open(path) as fh:
            try:
                loaded = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ValueError(f"{path}: malformed YAML: "
                                 f"{' '.join(str(exc).split())}") from exc
        if not isinstance(loaded, (dict, type(None))):
            raise ValueError(f"{path}: configuration must be a mapping")
        data = loaded or {}
    return PipelineConfig.from_dict(data, overrides or {})


def write_default_config(path) -> None:
    """Emit the annotated default configuration as a YAML template."""
    import yaml
    defaults = default_config_dict()
    with open(path, "w") as fh:
        fh.write("# pipeline configuration (all values are defaults)\n")
        for key, value in defaults.items():
            fh.write(f"\n# {_TABLE[key][0]}\n")
            fh.write(yaml.safe_dump({key: value}, sort_keys=False,
                                    default_flow_style=False))
