"""Layered run configuration.

A run is described by one YAML file; anything omitted falls back to the
built-in defaults (the nominal device geometry and detection parameters).
Every stochastic stage carries an explicit seed so runs are reproducible
bit for bit.
"""

import copy
import math
from dataclasses import dataclass, field

import yaml

from .constants import DESIGN_WAVELENGTH
from .detection import DetectionConfig
from .geometry import GratingFootprint, IonPose, Layer, LayerStack, \
    default_stack

__all__ = ["PipelineConfig", "default_config_dict", "load_config",
           "write_default_config"]


def default_config_dict() -> dict:
    """Built-in defaults for every stage (nominal device values)."""
    return {
        "wavelength": DESIGN_WAVELENGTH,
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
    mapping only takes a mapping, and a key whose default is a number
    takes a string that parses as one (PyYAML reads ``1e6`` and ``6.0e5``
    as strings).  A key whose default is an int takes only an integral
    value, as an int.  No value may hold a NaN, which every comparison
    would let through, nor an infinity, except ``designer.kappa_max``.
    The errors name the dotted key."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise KeyError(f"unknown configuration key {key!r}")
        name = f"{prefix}{key}"
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise TypeError(f"{name}: expected a mapping, got "
                                f"{type(value).__name__}")
            out[key] = _deep_merge(out[key], value, f"{name}.")
            continue
        if isinstance(out[key], (int, float)) and isinstance(value, str):
            # an int key's integer literal stays exact beyond 2**53
            exact = (isinstance(out[key], int)
                     and value.strip().lstrip("+-").isdigit())
            try:
                value = int(value) if exact else float(value)
            except ValueError:
                raise ValueError(f"{name}: expected a number, got "
                                 f"{value!r}") from None
        bad = _first_nonfinite(value, name)
        if bad is not None and bad != _UNCAPPED_FIT:
            where, number = bad
            if math.isnan(number):
                raise ValueError(f"{where}: expected a number, got nan")
            raise ValueError(f"{where}: expected a finite number, got "
                             f"{number}")
        if isinstance(out[key], int):
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if type(value) is not int:
                raise ValueError(f"{name}: expected an integer, got "
                                 f"{value!r}")
        out[key] = value
    return out


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
    if entry is None:
        return default_stack()
    layers = tuple(Layer(l["name"], float(l["thickness"]),
                         float(l["refractive_index"]))
                   for l in entry["layers"])
    guiding = tuple(entry.get("guiding", [l.name for l in layers]))
    return LayerStack(layers=layers,
                      cladding_index=float(entry["cladding_index"]),
                      guiding=guiding)


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
        if not self.library["kappa0"] > 0:
            raise ValueError("library.kappa0 must be positive")
        if not self.library["alpha0"] >= 0:
            raise ValueError("library.alpha0 must not be negative")
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
    defaults = default_config_dict()
    with open(path, "w") as fh:
        fh.write("# pipeline configuration (all values are defaults)\n")
        for key, value in defaults.items():
            fh.write(f"\n# {_CONFIG_COMMENTS[key]}\n")
            fh.write(yaml.safe_dump({key: value}, sort_keys=False,
                                    default_flow_style=False))
