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

def default_config_dict() -> dict:
    """Built-in defaults for every stage (nominal device values)."""
    return {
        "wavelength": constants.DESIGN_WAVELENGTH,
        "stack": None,               # null -> built-in default stack
        "footprint": {"x_extent": 30e-6, "y_extent": 30e-6},
        "pose": {"x_ion": 28e-6, "y_ion": 0.0,
                 "height_above_surface": 50e-6,
                 "cladding_thickness": 5e-6},
        "library": {
            "mode": "analytic",      # analytic | fdtd | file
            "path": None,            # required for mode: file
            "angles_deg": [-4.0, 0.0, 4.0, 8.0, 12.0, 16.0, 20.0],
            "delta_fracs": [0.0, 0.25, 0.5, 0.75, 1.0],
            "n_periods": 8,
            "points_per_wavelength": 16,
            "kappa0": 1.0e6,         # analytic-mode peak coupling, 1/m
            "alpha0": 0.05e6,        # analytic-mode parasitic loss, 1/m
            "duty_upper": 0.5,
            "duty_lower": 0.5,
            "layer_offset": 0.06e-6,
            "cache_dir": None,
        },
        "designer": {
            "alpha": 0.0,
            "kappa_max": 0.6e6,
        },
        "propagation": {"shape": [512, 512], "pixel_size": 0.1e-6},
        "detection": {
            "bright_rate": 297.0,
            "dark_rate": 8.1,
            "window": 0.008,
            "threshold": 1,
            "bins": 10,
            "d_lifetime": 0.39,
            "shelving_failure": 0.005,
            "trials": 200000,
        },
        "seeds": {"library": 0, "detection": 1, "timing": 2},
        "output_dir": "runs",
    }


_CONFIG_COMMENTS = {
    "wavelength": "fluorescence wavelength, m",
    "stack": "null selects the built-in SiN/SiO2/SiN bilayer stack",
    "footprint": "grating extent, m",
    "pose": "ion standoff: 50 um vacuum above 5 um oxide, 28 um along x",
    "library": "unit-cell table; analytic mode needs no field solver",
    "designer": "longitudinal profile fit and tooth layout options",
    "propagation": "scalar field raster (pixels, pixel size in m)",
    "detection": "counts/s rates, window s, readout and shelving model",
    "seeds": "explicit seeds of the Monte Carlo detection and timing "
             "stages; library is unused and still accepted for old configs",
    "output_dir": "all artifacts are written below this directory",
}


def _first_nonfinite(value, name: str):
    """The dotted name and value of the first NaN or infinity inside
    ``value`` (a number, or lists and mappings of them), or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (name, value)
    if isinstance(value, dict):
        items = ((f"{name}.{k}", v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{name}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for inner, v in items:
        found = _first_nonfinite(v, inner)
        if found is not None:
            return found
    return None


# the one value where infinity means something: an uncapped kappa(x) fit
_UNCAPPED_FIT = ("designer.kappa_max", math.inf)


def _deep_merge(base: dict, override: dict, prefix: str = "") -> dict:
    """``override`` laid over ``base``; a section whose default is a
    mapping only takes a mapping, a key whose default is a number takes
    what :func:`_number` does, and one whose default is a list of floats a
    non-empty list of such numbers.  No other value may hold a NaN, which
    every comparison would let through, nor an infinity.  The errors name
    the dotted key."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise KeyError(f"unknown configuration key {key!r}")
        name, default = f"{prefix}{key}", out[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise TypeError(f"{name}: expected a mapping, got "
                                f"{type(value).__name__}")
            out[key] = _deep_merge(default, value, f"{name}.")
            continue
        if isinstance(default, (int, float)):
            value = _number(value, default, name)
        elif isinstance(default, list) and isinstance(default[0], float):
            if not (isinstance(value, list) and value):
                raise ValueError(f"{name}: expected a non-empty list of "
                                 f"numbers, got {value!r}")
            value = [_number(v, 0.0, f"{name}[{i}]")
                     for i, v in enumerate(value)]
        else:
            bad = _first_nonfinite(value, name)
            if bad is not None:
                _nonfinite(*bad)
        out[key] = value
    return out


def _number(value, default, name: str):
    """``value`` for the key ``name`` whose default is the number
    ``default``: a string that parses as a number (PyYAML reads ``1e6``
    and ``6.0e5`` as strings) counts as one, and no value may be NaN or
    infinite, except an uncapped ``designer.kappa_max``.  A float default
    takes a number but not a bool, and stores it as a float, so that a
    later merge types a value against the default, not against an earlier
    file; an int default takes only an integral value, as an int."""
    if isinstance(value, str):
        # an int key's integer literal stays exact beyond 2**53
        exact = (isinstance(default, int)
                 and value.strip().lstrip("+-").isdigit())
        try:
            value = int(value) if exact else float(value)
        except ValueError:
            raise ValueError(f"{name}: expected a number, got "
                             f"{value!r}") from None
    if isinstance(value, float) and not math.isfinite(value) and (
            (name, value) != _UNCAPPED_FIT):
        _nonfinite(name, value)
    if isinstance(default, float):
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


def _raster(propagation: dict) -> dict:
    """``propagation`` with its shape as two ints, each from an integral
    number; any other shape, or a pixel size that is not positive, raises
    ValueError naming the key."""
    shape, pixel_size = propagation["shape"], propagation["pixel_size"]
    if not (isinstance(shape, (list, tuple)) and len(shape) == 2
            and all(_is_number(n) and n > 0 and n % 1 == 0
                    for n in shape)):
        raise ValueError(f"propagation.shape: expected two positive "
                         f"integers, got {shape!r}")
    if not (_is_number(pixel_size) and pixel_size > 0):
        raise ValueError(f"propagation.pixel_size: expected a positive "
                         f"number, got {pixel_size!r}")
    return {**propagation, "shape": [int(n) for n in shape]}


def _section(name: str, build, entry: dict):
    """``build(**entry)``, with errors prefixed by the section name."""
    try:
        return build(**entry)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _stack_from_entry(entry) -> LayerStack:
    """The built-in stack for null, else the stack of a mapping with
    ``layers`` (each a name, thickness and refractive_index),
    ``cladding_index`` and, optionally, ``guiding``; errors name ``stack``."""
    if entry is None:
        return default_stack()
    if not isinstance(entry, dict):
        raise TypeError(f"stack: expected a mapping or null, got "
                        f"{type(entry).__name__}")
    try:
        layers = tuple(Layer(l["name"], float(l["thickness"]),
                             float(l["refractive_index"]))
                       for l in entry["layers"])
        guiding = tuple(entry.get("guiding", [l.name for l in layers]))
        return LayerStack(layers=layers,
                          cladding_index=float(entry["cladding_index"]),
                          guiding=guiding)
    except KeyError as exc:
        raise ValueError(f"stack: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"stack: {exc}") from None


@dataclass
class PipelineConfig:
    """Validated, typed view of one run configuration."""
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

    def __post_init__(self):
        if self.library["mode"] not in ("analytic", "fdtd", "file"):
            raise ValueError(f"unknown library mode "
                             f"{self.library['mode']!r}")
        if self.detection_trials < 10**4:
            raise ValueError("detection trials must be at least 1e4")
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")
        if not self.library["kappa0"] > 0:
            raise ValueError("library.kappa0 must be positive")
        if not self.library["alpha0"] >= 0:
            raise ValueError("library.alpha0 must not be negative")
        if not self.library["n_periods"] >= 4:
            raise ValueError("library.n_periods must be at least 4")
        if not self.library["points_per_wavelength"] > 0:
            raise ValueError("library.points_per_wavelength must be positive")
        if not self.designer["kappa_max"] > 0:
            raise ValueError("designer.kappa_max must be positive")
        if not self.designer["alpha"] >= 0:
            raise ValueError("designer.alpha must not be negative")
        self.propagation = _raster(self.propagation)
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir: expected a string, got "
                             f"{type(self.output_dir).__name__}")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        merged = _deep_merge(default_config_dict(), data)
        det = dict(merged["detection"])
        trials = det.pop("trials")
        return cls(
            wavelength=float(merged["wavelength"]),
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
        if loaded is not None:
            if not isinstance(loaded, dict):
                raise ValueError(f"{path}: configuration must be a mapping")
            data = loaded
    if overrides:
        data = _deep_merge(_deep_merge(default_config_dict(), data),
                           overrides)
    return PipelineConfig.from_dict(data)


def write_default_config(path) -> None:
    """Emit the annotated default configuration as a YAML template."""
    import yaml
    defaults = default_config_dict()
    with open(path, "w") as fh:
        fh.write("# pipeline configuration (all values are defaults)\n")
        for key, value in defaults.items():
            fh.write(f"\n# {_CONFIG_COMMENTS[key]}\n")
            fh.write(yaml.safe_dump({key: value}, sort_keys=False,
                                    default_flow_style=False))
