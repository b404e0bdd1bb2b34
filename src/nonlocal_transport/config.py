"""Validated experiment configuration.

Configs are YAML with a fixed, versioned layout (see ``CONFIG_SCHEMA``);
:func:`load_config` reads the file, and :func:`build_config` applies
command-line overrides to the mapping, validates it against the schema,
checks cross-field consistency, and produces the provenance hash that every
output file references.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import __version__
from .errors import ConfigurationError
from .learning import PDE_MODELS
from .medium import MediumSpec, check_cell, columns_per_cell, probe_cells
from .nonlocal_diffusion import check_horizon
from .tracking import TrackingConfig

SCHEMA_ID = "nonlocal-transport/config/v1"

KNOWN_MODELS = PDE_MODELS + ("mlp",)
FRAME_SPEEDS = ("measured", "homogenized", "zero")

CONFIG_SCHEMA = {
    "$id": SCHEMA_ID,
    "type": "object",
    "required": ["schema", "seed", "output_dir", "medium", "grid",
                 "tracking", "coarse", "learning"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string", "minLength": 1},
        "medium": {
            "type": "object",
            "required": ["num_cells", "cell_width", "layer_height",
                         "kappa_matrix", "kappa_inclusion", "head_left"],
            "additionalProperties": False,
            "properties": {
                "num_cells": {"type": "integer", "minimum": 1},
                "cell_width": {"type": "number", "exclusiveMinimum": 0},
                "layer_height": {"type": "number", "exclusiveMinimum": 0},
                "kappa_matrix": {"type": "number", "exclusiveMinimum": 0},
                "kappa_inclusion": {"type": "number", "exclusiveMinimum": 0},
                "head_left": {"type": "number", "exclusiveMinimum": 0},
                "inclusion_fraction": {
                    "type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        },
        "grid": {
            "type": "object",
            "required": ["nx", "ny"],
            "additionalProperties": False,
            "properties": {
                "nx": {"type": "integer", "minimum": 2},
                "ny": {"type": "integer", "minimum": 2},
            },
        },
        "tracking": {
            "type": "object",
            "required": ["num_particles", "injection_cell", "dt", "t_end"],
            "additionalProperties": False,
            "properties": {
                "num_particles": {"type": "integer", "minimum": 1},
                "injection_cell": {"type": "integer", "minimum": 1},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "t_end": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "coarse": {
            "type": "object",
            "required": ["window_cells", "train_locations", "test_locations"],
            "additionalProperties": False,
            "properties": {
                "window_cells": {"type": "integer", "minimum": 1},
                "train_locations": {
                    "type": "array", "minItems": 1,
                    "items": {"type": "number", "exclusiveMinimum": 0}},
                "test_locations": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0}},
                "frame_speed": {"enum": list(FRAME_SPEEDS)},
            },
        },
        "learning": {
            "type": "object",
            "required": ["tt", "models"],
            "additionalProperties": False,
            "properties": {
                "tt": {"type": "number", "exclusiveMinimum": 0},
                "beta": {"type": "number", "minimum": 0},
                "horizon_cells": {"type": "integer", "minimum": 1},
                "models": {
                    "type": "array", "minItems": 1,
                    "items": {"enum": list(KNOWN_MODELS)}},
                "max_iterations": {"type": "integer", "minimum": 1},
                "gradient_tolerance": {"type": "number",
                                       "exclusiveMinimum": 0},
                "history": {"type": "integer", "minimum": 1},
                "injection_cell": {"type": "integer", "minimum": 1},
                "mlp": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "epochs": {"type": "integer", "minimum": 1},
                        "learning_rate": {"type": "number",
                                          "exclusiveMinimum": 0},
                        "hidden_layers": {"type": "integer", "minimum": 1},
                        "width": {"type": "integer", "minimum": 1},
                    },
                },
            },
        },
        "sweep": {
            "type": "object",
            "required": ["tt_values", "models"],
            "additionalProperties": False,
            "properties": {
                "tt_values": {
                    "type": "array", "minItems": 1,
                    "items": {"type": "number", "exclusiveMinimum": 0}},
                "models": {
                    "type": "array", "minItems": 1,
                    "items": {"enum": list(KNOWN_MODELS)}},
                "max_workers": {"type": "integer", "minimum": 1},
            },
        },
    },
}

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


def _schema_error(schema: dict, value, path: tuple = ()):
    """The first way ``value`` breaks ``schema``, as (path, message), or None.

    A JSON Schema checker for the keywords ``CONFIG_SCHEMA`` uses, with
    JSON Schema's semantics (a bool is not a number, 3.0 is an integer,
    each bound applies only to values of its type).  A node's own keywords
    are checked before its children.
    """
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        return path, f"{value!r} is not of type {kind!r}"
    if "const" in schema and value != schema["const"]:
        return path, f"{schema['const']!r} was expected"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, (f"{value!r} is less than or equal to the minimum of "
                          f"{schema['exclusiveMinimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            return path, f"{value!r} is greater than the maximum of {schema['maximum']!r}"
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        return path, f"{value!r} is too short"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} is too short"
        for index, item in enumerate(value if "items" in schema else ()):
            error = _schema_error(schema["items"], item, path + (index,))
            if error:
                return error
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"{key!r} is a required property"
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = [key for key in value if key not in properties]
            if extra:
                return path, ("Additional properties are not allowed "
                              f"({', '.join(map(repr, extra))} unexpected)")
        for key, child in properties.items():
            if key in value:
                error = _schema_error(child, value[key], path + (key,))
                if error:
                    return error
    return None


_MLP_DEFAULTS = {"epochs": 20000, "learning_rate": 1e-3,
                 "hidden_layers": 3, "width": 4}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description plus its provenance hash."""

    seed: int
    output_dir: Path
    medium: MediumSpec
    grid_nx: int
    grid_ny: int
    num_particles: int
    injection_cell: int
    record_dt: float
    t_end: float
    window_cells: int
    train_locations: tuple  # sorted floats, as are test_locations
    test_locations: tuple
    frame_speed: str
    tt: float
    beta: float
    horizon_cells: int
    models: tuple
    max_iterations: int
    gradient_tolerance: float
    history: int
    model_injection_cell: int
    mlp: dict  # epochs, hidden_layers, width: int; learning_rate: float
    sweep_tt_values: tuple = ()
    sweep_models: tuple = ()
    sweep_max_workers: int = 1
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def config_sha256(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def n_record_steps(self) -> int:
        return len(self.tracking_config().snapshot_times) - 1

    @property
    def n_train_steps(self) -> int:
        return int(round(self.tt / self.record_dt))

    @property
    def all_locations(self) -> tuple:
        return tuple(sorted(self.train_locations + self.test_locations))

    def tracking_config(self) -> TrackingConfig:
        return TrackingConfig(injection_cell=self.injection_cell,
                              num_particles=self.num_particles,
                              dt=self.record_dt, t_end=self.t_end,
                              rng_seed=self.seed)

    def provenance(self) -> dict:
        return {"schema": SCHEMA_ID, "config_sha256": self.config_sha256,
                "seed": self.seed, "package_version": __version__}

    def provenance_line(self) -> str:
        return (f"# provenance: config_sha256={self.config_sha256} "
                f"seed={self.seed} version={__version__}")


def _apply_overrides(data: dict, overrides: dict) -> dict:
    unknown = set(overrides) - {"seed", "tt", "model", "out"}
    if unknown:
        raise ConfigurationError(f"unknown overrides: {sorted(unknown)}")
    if overrides.get("seed") is not None:
        data["seed"] = int(overrides["seed"])
    if overrides.get("tt") is not None:
        data.setdefault("learning", {})["tt"] = float(overrides["tt"])
    if overrides.get("model") is not None:
        data.setdefault("learning", {})["models"] = [overrides["model"]]
    if overrides.get("out") is not None:
        data["output_dir"] = str(overrides["out"])
    return data


def _check_consistency(cfg: ExperimentConfig) -> None:
    num_cells = cfg.medium.num_cells
    columns_per_cell(cfg.grid_nx, num_cells)
    check_cell(cfg.injection_cell, num_cells, "tracking injection cell")
    check_cell(cfg.model_injection_cell, num_cells, "model injection cell")
    check_cell(cfg.window_cells, num_cells, "smoothing window")
    if not _whole_steps(cfg.t_end, cfg.record_dt):
        raise ConfigurationError(
            "t_end must be an integer number of recording steps")
    if not cfg.tt < cfg.t_end:
        raise ConfigurationError(
            f"training window tt={cfg.tt} must be shorter than t_end={cfg.t_end}")
    if not _whole_steps(cfg.tt, cfg.record_dt):
        raise ConfigurationError(
            "tt must be a positive integer number of recording steps")
    probes = cfg.train_locations + cfg.test_locations
    probe_cells(probes, cfg.medium.cell_width, num_cells)
    overlap = set(cfg.train_locations) & set(cfg.test_locations)
    for bad, what in (
            (overlap, "locations {} are both training and test probes"),
            (_repeated(probes), "locations {} are listed twice"),
            (_repeated(cfg.models), "learning.models {} are listed twice")):
        if bad:
            raise ConfigurationError(what.format(sorted(bad)))
    check_horizon(cfg.horizon_cells, num_cells)
    for tt in cfg.sweep_tt_values:
        if not 0.0 < tt < cfg.t_end:
            raise ConfigurationError(f"sweep tt={tt} outside (0, t_end)")
        if not _whole_steps(tt, cfg.record_dt):
            raise ConfigurationError(
                f"sweep tt={tt} is not a whole number of recording steps")


def _repeated(values) -> set:
    """The values listed more than once in ``values``."""
    return {v for v in values if values.count(v) > 1}


def _whole_steps(t: float, dt: float) -> bool:
    """Whether ``t`` is a positive whole number of steps ``dt``."""
    steps = t / dt
    return abs(steps - round(steps)) <= 1e-9 and round(steps) >= 1


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a YAML experiment config and build it with :func:`build_config`."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config root must be a mapping: {path}")
    return build_config(data, overrides)


def build_config(data: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate and normalize a config mapping, which ``overrides`` update in
    place and the result keeps as its ``raw``."""
    data = _apply_overrides(data, overrides or {})
    error = _schema_error(CONFIG_SCHEMA, data)
    if error:
        location, message = error
        where = "/".join(str(p) for p in location) or "<root>"
        raise ConfigurationError(
            f"config does not match schema {SCHEMA_ID} at {where}: {message}")

    med = data["medium"]
    medium = MediumSpec(
        kappa_matrix=float(med["kappa_matrix"]),
        kappa_inclusion=float(med["kappa_inclusion"]),
        cell_width=float(med["cell_width"]),
        layer_height=float(med["layer_height"]),
        num_cells=int(med["num_cells"]),
        head_left=float(med["head_left"]),
        inclusion_fraction=float(med.get("inclusion_fraction", 1.0)),
    )
    coarse, learn = data["coarse"], data["learning"]
    sweep = data.get("sweep", {})
    cfg = ExperimentConfig(
        seed=int(data["seed"]),
        output_dir=Path(data["output_dir"]),
        medium=medium,
        grid_nx=int(data["grid"]["nx"]),
        grid_ny=int(data["grid"]["ny"]),
        num_particles=int(data["tracking"]["num_particles"]),
        injection_cell=int(data["tracking"]["injection_cell"]),
        record_dt=float(data["tracking"]["dt"]),
        t_end=float(data["tracking"]["t_end"]),
        window_cells=int(coarse["window_cells"]),
        train_locations=tuple(sorted(map(float, coarse["train_locations"]))),
        test_locations=tuple(sorted(map(float, coarse["test_locations"]))),
        frame_speed=coarse.get("frame_speed", "measured"),
        tt=float(learn["tt"]),
        beta=float(learn.get("beta", 100.0)),
        horizon_cells=int(learn.get("horizon_cells", 4)),
        models=tuple(learn["models"]),
        max_iterations=int(learn.get("max_iterations", 500)),
        gradient_tolerance=float(learn.get("gradient_tolerance", 1e-8)),
        history=int(learn.get("history", 10)),
        model_injection_cell=int(learn.get(
            "injection_cell", data["tracking"]["injection_cell"])),
        mlp={key: type(default)(learn.get("mlp", {}).get(key, default))
             for key, default in _MLP_DEFAULTS.items()},
        sweep_tt_values=tuple(float(v) for v in sweep.get("tt_values", ())),
        sweep_models=tuple(sweep.get("models", ())),
        sweep_max_workers=int(sweep.get("max_workers", 1)),
        raw=data,
    )
    _check_consistency(cfg)
    return cfg
