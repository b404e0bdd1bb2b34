"""Config loading: schema validation, overrides, consistency checks."""

import copy
import subprocess
import sys

import numpy as np
import pytest
import yaml

from nonlocal_transport import config
from nonlocal_transport.coarsen import (
    BreakthroughCurve, cell_traces, coarse_from_ensemble,
)
from nonlocal_transport.config import CONFIG_SCHEMA, SCHEMA_ID, load_config
from nonlocal_transport.darcy import FlowField
from nonlocal_transport.errors import ConfigurationError
from nonlocal_transport.learning import LearningProblem
from nonlocal_transport.medium import MediumSpec
from nonlocal_transport.nonlocal_diffusion import (
    DynamicKernel, assemble_operator, unit_spike,
)
from nonlocal_transport.tracking import TrackingConfig, inject

BASE = {
    "schema": SCHEMA_ID,
    "seed": 3,
    "output_dir": "out",
    "medium": {
        "num_cells": 24,
        "cell_width": 0.5,
        "layer_height": 1.0,
        "kappa_matrix": 1.0,
        "kappa_inclusion": 0.01,
        "head_left": 6.0,
    },
    "grid": {"nx": 240, "ny": 8},
    "tracking": {"num_particles": 500, "injection_cell": 4,
                 "dt": 0.1, "t_end": 6.0},
    "coarse": {"window_cells": 4, "train_locations": [3.0, 4.0],
               "test_locations": [5.0], "frame_speed": "measured"},
    "learning": {"tt": 3.0, "models": ["classical"]},
}


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def variant(**updates):
    data = copy.deepcopy(BASE)
    for dotted, value in updates.items():
        node = data
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        if value is None:
            del node[leaf]
        else:
            node[leaf] = value
    return data


def test_load_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE))
    assert cfg.seed == 3
    assert cfg.medium.num_cells == 24
    assert cfg.n_record_steps == 60
    assert cfg.n_train_steps == 30
    assert cfg.all_locations == (3.0, 4.0, 5.0)
    assert cfg.frame_speed == "measured"
    # defaults
    assert cfg.beta == 100.0
    assert cfg.horizon_cells == 4
    assert cfg.model_injection_cell == cfg.injection_cell == 4
    assert cfg.mlp["epochs"] == 20000
    assert cfg.sweep_tt_values == ()


def test_config_hash_is_stable_and_key_order_free(tmp_path):
    cfg_a = load_config(write_config(tmp_path, BASE, "a.yaml"))
    reordered = dict(reversed(list(copy.deepcopy(BASE).items())))
    cfg_b = load_config(write_config(tmp_path, reordered, "b.yaml"))
    assert cfg_a.config_sha256 == cfg_b.config_sha256
    assert cfg_a.provenance_line().startswith("# provenance: config_sha256=")
    cfg_c = load_config(write_config(tmp_path, variant(seed=4), "c.yaml"))
    assert cfg_c.config_sha256 != cfg_a.config_sha256


def test_overrides_applied(tmp_path):
    path = write_config(tmp_path, BASE)
    cfg = load_config(path, {"seed": 9, "tt": 2.0, "model": "nonlocal",
                             "out": str(tmp_path / "elsewhere")})
    assert cfg.seed == 9
    assert cfg.tt == 2.0
    assert cfg.models == ("nonlocal",)
    assert cfg.output_dir == tmp_path / "elsewhere"


def test_unknown_override_rejected(tmp_path):
    path = write_config(tmp_path, BASE)
    with pytest.raises(ConfigurationError, match="unknown override"):
        load_config(path, {"beta": 5.0})


def test_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        load_config("/nonexistent/cfg.yaml")


def test_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("schema: [unclosed\n")
    with pytest.raises(ConfigurationError, match="malformed YAML"):
        load_config(path)


SCHEMA_VIOLATIONS = [
    ({"schema": "nonlocal-transport/config/v2"}, "schema"),
    ({"medium.num_cells": None}, "medium"),
    ({"medium.kappa_matrix": -1.0}, "medium/kappa_matrix"),
    ({"learning.models": ["guess"]}, "learning/models"),
    ({"tracking.num_particles": 0}, "tracking/num_particles"),
    ({"coarse.frame_speed": "galilean"}, "coarse/frame_speed"),
]


@pytest.mark.parametrize("updates, fragment", SCHEMA_VIOLATIONS)
def test_schema_violations_name_the_location(tmp_path, updates, fragment):
    path = write_config(tmp_path, variant(**updates))
    with pytest.raises(ConfigurationError, match="does not match schema") as err:
        load_config(path)
    assert fragment in str(err.value)


@pytest.mark.parametrize("updates", [u for u, _ in SCHEMA_VIOLATIONS] + [
    {},
    {"seed": True},                            # a bool is not an integer
    {"grid.nx": False},
    {"medium.cell_width": True},               # nor a number
    {"grid.ny": 8.0},                          # 8.0 is an integer
    {"seed": 3.5},
    {"medium.porosity": 0.3},                  # unknown nested key
    {"learning.mlp": {"epochs": 10, "depth": 2}},
    {"extra_section": {"x": 1}},
    {"seed": -1},
    {"medium.cell_width": 0},
    {"medium.head_left": "6.0"},
    {"medium.inclusion_fraction": 1.5},
    {"medium.inclusion_fraction": 1},
    {"medium": [1, 2]},
    {"output_dir": ""},
    {"output_dir": 5},
    {"coarse.train_locations": []},
    {"coarse.train_locations": 3.0},
    {"coarse.test_locations": [5.0, -1.0]},
    {"coarse.test_locations": [5.0, None]},
    {"learning.models": ["nonlocal", 4]},
    {"learning.models": []},
    {"learning.mlp": {"learning_rate": 0.0}},
    {"sweep": {"tt_values": [1.0]}},
    {"sweep": {"tt_values": [1.0], "models": ["mlp"], "max_workers": 0}},
    {"schema": None},
    {"grid": None},
])
def test_schema_checker_agrees_with_jsonschema(updates):
    jsonschema = pytest.importorskip("jsonschema")
    data = variant(**updates)
    try:
        jsonschema.validate(data, CONFIG_SCHEMA)
        expected = None
    except jsonschema.ValidationError as exc:
        expected = tuple(exc.absolute_path)
    error = config._schema_error(CONFIG_SCHEMA, data)
    assert (error and error[0]) == expected


@pytest.mark.parametrize("updates, fragment", [
    ({"grid.nx": 250}, "divisible"),
    ({"tracking.injection_cell": 25}, "injection cell"),
    ({"coarse.window_cells": 30}, "smoothing window"),
    ({"tracking.t_end": 6.05}, "integer number of recording steps"),
    ({"learning.tt": 6.0}, "shorter than t_end"),
    ({"learning.tt": 2.95}, "positive integer number"),
    ({"coarse.test_locations": [12.5]}, "outside the open domain"),
    ({"coarse.test_locations": [3.0]}, "both training and test"),
    ({"learning.horizon_cells": 12}, "horizon too wide"),
    ({"sweep": {"tt_values": [7.0], "models": ["classical"]}},
     "outside (0, t_end)"),
])
def test_consistency_violations(tmp_path, updates, fragment):
    path = write_config(tmp_path, variant(**updates))
    with pytest.raises(ConfigurationError) as err:
        load_config(path)
    assert fragment in str(err.value)


def test_unknown_top_level_key_rejected(tmp_path):
    data = copy.deepcopy(BASE)
    data["extra_section"] = {"x": 1}
    with pytest.raises(ConfigurationError, match="does not match schema"):
        load_config(write_config(tmp_path, data))


def test_model_injection_override(tmp_path):
    data = variant(**{"learning.injection_cell": 9})
    cfg = load_config(write_config(tmp_path, data))
    assert cfg.model_injection_cell == 9
    assert cfg.injection_cell == 4


def test_loading_a_config_imports_no_jsonschema(tmp_path):
    path = write_config(tmp_path, BASE)
    code = ("import sys; from nonlocal_transport import cli, config; "
            f"config.load_config({str(path)!r}); "
            "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# The library calls below break one coarse-grid rule each, on BASE's grid:
# 24 unit cells of width 0.5, 240 grid columns, a 30-step training window.
BASE_MEDIUM = MediumSpec(**BASE["medium"])


def base_flow(nx=240):
    return FlowField(grid_nx=nx, grid_ny=2, dx=12.0 / nx, dy=0.5,
                     face_velocity_x=np.ones((nx + 1, 2)),
                     face_velocity_y=np.zeros((nx, 3)), head=np.zeros((nx, 2)))


def base_tracking(injection_cell=4):
    return TrackingConfig(injection_cell=injection_cell, num_particles=1,
                          dt=0.1, t_end=6.0, rng_seed=0)


def base_problem(location=3.0, **settings):
    times = np.arange(1, 31) * 0.1
    curve = BreakthroughCurve(location=location, times=times,
                              values=np.zeros(30))
    settings = {"injection_cell": 4, **settings}
    return LearningProblem(curves=(curve,), cell_width=0.5, num_cells=24,
                           dt=0.1, n_steps=30, **settings)


@pytest.mark.parametrize("updates, library_call", [
    ({"grid.nx": 250}, lambda: inject(base_flow(250), base_tracking(), 24)),
    ({"tracking.injection_cell": 25},
     lambda: inject(base_flow(), base_tracking(25), 24)),
    ({"learning.injection_cell": 25}, lambda: unit_spike(24, 25)),
    ({"learning.injection_cell": 25},
     lambda: base_problem(injection_cell=25)),
    # the window is checked before the ensemble is read
    ({"coarse.window_cells": 30},
     lambda: coarse_from_ensemble(None, BASE_MEDIUM, 30)),
    ({"coarse.test_locations": [12.5]},
     lambda: cell_traces(np.zeros((24, 2)), np.array([0.0, 0.1]), 0.5, [12.5])),
    ({"coarse.test_locations": [12.5]}, lambda: base_problem(location=12.5)),
    ({"learning.horizon_cells": 12}, lambda: base_problem(horizon_cells=12)),
    ({"learning.horizon_cells": 12}, lambda: assemble_operator(
        DynamicKernel(phi=np.ones(25), p=0.0, horizon_cells=12,
                      cell_width=0.5), 24)),
], ids=["columns-inject", "tracking-cell-inject", "model-cell-unit_spike",
        "model-cell-LearningProblem", "window-coarse_from_ensemble",
        "probe-cell_traces", "probe-LearningProblem",
        "horizon-LearningProblem", "horizon-assemble_operator"])
def test_config_and_library_say_one_message_per_rule(tmp_path, updates,
                                                     library_call):
    with pytest.raises(ConfigurationError) as from_config:
        load_config(write_config(tmp_path, variant(**updates)))
    with pytest.raises(ConfigurationError) as from_library:
        library_call()
    assert str(from_library.value) == str(from_config.value)


def test_probes_are_sorted_floats_and_mlp_settings_typed(tmp_path):
    data = variant(**{"coarse.train_locations": [4, 3.0],
                      "coarse.test_locations": [5.5, 5],
                      "learning.mlp": {"epochs": 10.0, "learning_rate": 1,
                                       "width": 2.0}})
    cfg = load_config(write_config(tmp_path, data))
    assert cfg.train_locations == (3.0, 4.0)
    assert cfg.test_locations == (5.0, 5.5)
    assert cfg.mlp == {"epochs": 10, "learning_rate": 1.0,
                       "hidden_layers": 3, "width": 2}
    assert [type(v) for v in (*cfg.train_locations, *cfg.test_locations)] \
        == [float] * 4
    assert {k: type(v) for k, v in cfg.mlp.items()} == {
        "epochs": int, "learning_rate": float, "hidden_layers": int,
        "width": int}
    # the hash is of the mapping as written
    assert cfg.raw["coarse"]["train_locations"] == [4, 3.0]
