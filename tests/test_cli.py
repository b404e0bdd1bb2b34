"""End-to-end command-line runs on a miniature experiment."""

import dataclasses
import json
import math
import multiprocessing
import os
import shutil

import pytest
import yaml

from nonlocal_transport import cli, darcy, experiment, tracking
from nonlocal_transport.config import SCHEMA_ID, load_config
from nonlocal_transport.errors import ConfigurationError, NumericalError


def tiny_config(out_dir):
    return {
        "schema": SCHEMA_ID,
        "seed": 11,
        "output_dir": str(out_dir),
        "medium": {
            "num_cells": 12,
            "cell_width": 0.5773502691896258,
            "layer_height": 1.0,
            "kappa_matrix": 1.0,
            "kappa_inclusion": 0.01,
            "head_left": 8.0,
        },
        "grid": {"nx": 120, "ny": 8},
        "tracking": {"num_particles": 800, "injection_cell": 3,
                     "dt": 0.1, "t_end": 4.0},
        "coarse": {"window_cells": 2, "train_locations": [1.7, 2.0],
                   "test_locations": [2.6], "frame_speed": "measured"},
        "learning": {"tt": 2.0, "models": ["nonlocal", "classical", "mlp"],
                     "beta": 100.0, "horizon_cells": 3, "max_iterations": 60,
                     "mlp": {"epochs": 150}},
        "sweep": {"tt_values": [1.0, 2.0], "models": ["classical"],
                  "max_workers": 1},
    }


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full generate/learn/predict/report run shared by the checks."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    path = write_config(root, tiny_config(out))
    for command in ("generate", "learn", "predict", "report"):
        assert cli.main([command, "--config", str(path)]) == 0
    return path, out


def test_generate_outputs(pipeline):
    _, out = pipeline
    for name in ("dataset.csv", "dataset.csv.json", "density_profiles.csv",
                 "msd_fine.csv", "effective_advection.json",
                 "provenance.json"):
        assert (out / name).exists(), name
    btc_files = sorted(p.name for p in (out / "btc").iterdir())
    assert btc_files == ["train_btc_1.csv", "train_btc_2.csv"]
    first = (out / "dataset.csv").read_text().splitlines()[0]
    assert first.startswith("# provenance: config_sha256=")
    assert "seed=11" in first


def test_csv_outputs_share_one_line_format(pipeline):
    _, out = pipeline
    tables = sorted(out.rglob("*.csv"))
    assert len(tables) >= 10
    for table in tables:
        blob = table.read_bytes()
        assert b"\r" not in blob, table
        assert blob.startswith(b"# provenance: config_sha256="), table
    for k, x in enumerate([1.7, 2.0], start=1):
        lines = (out / "btc" / f"train_btc_{k}.csv").read_text().split("\n")
        assert lines[1] == f"# location = {x!r}"
        assert lines[2] == "t,value"


def test_learn_outputs(pipeline):
    _, out = pipeline
    for model in ("nonlocal", "classical", "mlp"):
        record = json.loads((out / f"fit_{model}.json").read_text())
        assert record["model"] == model
        assert record["provenance"]["seed"] == 11
        assert record["training"]["tt"] == 2.0
    assert not (out / "fit_fractal.json").exists()


def test_predict_outputs(pipeline):
    _, out = pipeline
    table = (out / "mse_table.csv").read_text().splitlines()
    assert table[1] == "model,location,window,location_role,n_samples,mse"
    rows = [line.split(",") for line in table[2:]]
    # 3 models x 3 locations x 2 windows
    assert len(rows) == 18
    assert {r[0] for r in rows} == {"nonlocal", "classical", "mlp"}
    assert (out / "predictions_nonlocal.csv").exists()
    assert (out / "msd_model_classical.csv").exists()
    assert not (out / "msd_model_mlp.csv").exists()


def test_report_outputs(pipeline):
    _, out = pipeline
    report = json.loads((out / "report.json").read_text())
    assert set(report["fitted"]) == {"nonlocal", "classical", "mlp"}
    assert report["tt"] == 2.0
    assert "nonlocal_beats_classical_test_mse" in report["comparisons"]
    assert "fractal" not in report["fitted"]
    assert "mse_table.csv" in report["files"]


def test_rerun_is_byte_identical(pipeline, tmp_path):
    path, out = pipeline
    before = {name: (out / name).read_bytes()
              for name in ("dataset.csv", "msd_fine.csv", "mse_table.csv",
                           "fit_nonlocal.json", "fit_classical.json",
                           "fit_mlp.json")}
    for command in ("generate", "learn", "predict"):
        assert cli.main([command, "--config", str(path)]) == 0
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob, name


def test_sweep_outputs(pipeline):
    path, out = pipeline
    assert cli.main(["sweep", "--config", str(path)]) == 0
    for job in ("tt1_classical", "tt2_classical"):
        job_dir = out / "sweep" / job
        assert (job_dir / "fit_classical.json").exists()
        assert (job_dir / "mse_table.csv").exists()
    record = json.loads(
        (out / "sweep" / "tt1_classical" / "fit_classical.json").read_text())
    assert record["training"]["tt"] == 1.0


def test_out_override_redirects(pipeline, tmp_path):
    path, _ = pipeline
    target = tmp_path / "moved"
    assert cli.main(["generate", "--config", str(path),
                     "--out", str(target)]) == 0
    assert (target / "dataset.csv").exists()


def test_model_override_restricts(pipeline, tmp_path):
    path, out = pipeline
    target = tmp_path / "single"
    assert cli.main(["generate", "--config", str(path),
                     "--out", str(target)]) == 0
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target), "--model", "classical"]) == 0
    assert (target / "fit_classical.json").exists()
    assert not (target / "fit_nonlocal.json").exists()


def fresh_dataset(out, target):
    """Copy the generated dataset of ``out`` into ``target``, without fits."""
    target.mkdir()
    for name in ("dataset.csv", "dataset.csv.json"):
        shutil.copy(out / name, target / name)


def fit_files(directory):
    return {p.name: p.read_bytes()
            for p in sorted(directory.glob("fit_*.json"))}


def record_pids(monkeypatch, log):
    """Log which process runs each MLP training and each PDE fit."""
    train_surrogate, fit = experiment.train_surrogate, experiment.fit

    def logged(label, func):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{label} {os.getpid()}\n")
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiment, "train_surrogate",
                        logged("mlp", train_surrogate))
    monkeypatch.setattr(experiment, "fit", logged("pde", fit))


def pids_by_label(log):
    pids = {}
    for line in log.read_text().splitlines():
        label, pid = line.split()
        pids.setdefault(label, set()).add(int(pid))
    return pids


def test_two_process_learn_equals_one_process_learn(pipeline, tmp_path):
    path, out = pipeline
    target = tmp_path / "split"
    fresh_dataset(out, target)
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 0
    split = fit_files(target)
    assert set(split) == {"fit_nonlocal.json", "fit_classical.json",
                          "fit_mlp.json"}
    for name in split:
        (target / name).unlink()
    experiment.run_learn(load_config(path, {"out": str(target)}))
    assert fit_files(target) == split


def test_learn_trains_mlp_in_a_second_process(pipeline, tmp_path,
                                              monkeypatch):
    path, out = pipeline
    target = tmp_path / "pids"
    fresh_dataset(out, target)
    log = tmp_path / "pids.log"
    record_pids(monkeypatch, log)
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 0
    pids = pids_by_label(log)
    assert pids["pde"] == {os.getpid()}
    assert len(pids["mlp"]) == 1 and os.getpid() not in pids["mlp"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("model", ["mlp", "classical"])
def test_single_group_learn_starts_no_worker(pipeline, tmp_path, monkeypatch,
                                             model):
    path, out = pipeline
    target = tmp_path / model
    fresh_dataset(out, target)
    log = tmp_path / "pids.log"
    record_pids(monkeypatch, log)
    assert cli.main(["learn", "--config", str(path), "--out", str(target),
                     "--model", model]) == 0
    assert set(fit_files(target)) == {f"fit_{model}.json"}
    assert set().union(*pids_by_label(log).values()) == {os.getpid()}


def test_run_learn_rejects_unconfigured_model(pipeline, tmp_path):
    path, out = pipeline
    target = tmp_path / "subset"
    fresh_dataset(out, target)
    cfg = load_config(path, {"out": str(target)})
    with pytest.raises(ConfigurationError, match="fractal"):
        experiment.run_learn(cfg, models=("classical", "fractal"))
    assert fit_files(target) == {}
    experiment.run_learn(cfg, models=("classical",))
    assert set(fit_files(target)) == {"fit_classical.json"}


def test_mlp_worker_error_exits_3(pipeline, tmp_path, monkeypatch, capsys):
    path, out = pipeline
    target = tmp_path / "mlp_error"
    fresh_dataset(out, target)

    def boom(*args, **kwargs):
        raise NumericalError("synthetic MLP failure")

    monkeypatch.setattr(experiment, "train_surrogate", boom)
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert "learn[mlp]" in err and "synthetic MLP failure" in err
    assert multiprocessing.active_children() == []


def test_pde_fit_error_exits_3(pipeline, tmp_path, monkeypatch, capsys):
    path, out = pipeline
    target = tmp_path / "pde_error"
    fresh_dataset(out, target)

    def boom(*args, **kwargs):
        raise NumericalError("synthetic fit failure")

    monkeypatch.setattr(experiment, "fit", boom)
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert "learn[nonlocal]" in err and "synthetic fit failure" in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("worker_block, message", [
    (lambda *args: os._exit(1), "block 2 of 2"),
    (lambda *args: None, "not 800"),    # leaves its particles' times NaN
], ids=["worker-exits-1", "worker-writes-nothing"])
def test_tracking_worker_failure_exits_3(pipeline, tmp_path, monkeypatch,
                                         capsys, worker_block, message):
    path, _ = pipeline
    target = tmp_path / "tracking_error"
    parent, track_block = os.getpid(), tracking._track_block

    def block(*args):
        if os.getpid() == parent:
            return track_block(*args)
        return worker_block(*args)

    monkeypatch.setattr(tracking, "_track_block", block)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli.main(["generate", "--config", str(path),
                     "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert "stage 'tracking'" in err and message in err
    assert not (target / "dataset.csv").exists()
    assert multiprocessing.active_children() == []


def negate_coarse(coarse):
    return dataclasses.replace(coarse, values=-coarse.values)


def double_coarse(coarse):
    return dataclasses.replace(coarse, values=2.0 * coarse.values)


def nan_exit_time(ensemble):
    ensemble.exit_time[0] = math.nan
    return ensemble


@pytest.mark.parametrize("target, corrupt, stage, message", [
    ("max_relative_divergence", lambda _: 2e-9, "flow",
     "relative divergence 2e-09"),
    ("track", nan_exit_time, "tracking",
     "active, exited and stagnant particles"),
    ("coarse_from_ensemble", negate_coarse, "coarsening", "negative value"),
    ("coarse_from_ensemble", double_coarse, "coarsening", "retains mass"),
], ids=["divergence", "status", "negative", "mass"])
def test_generate_checks_invariants(pipeline, tmp_path, monkeypatch, capsys,
                                    target, corrupt, stage, message):
    path, _ = pipeline
    out = tmp_path / "checked"
    func = getattr(experiment, target)
    monkeypatch.setattr(experiment, target,
                        lambda *args: corrupt(func(*args)))
    assert cli.main(["generate", "--config", str(path),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"stage '{stage}'" in err and message in err
    assert sorted(out.iterdir()) == []


def test_generate_accepts_a_cg_flow(pipeline, tmp_path, monkeypatch):
    # CG stops on the residual norm and leaves a per-cell divergence above
    # the direct path's 1e-9 bound (8.6e-9 on this grid); generate must
    # still run, relying on solve_darcy's residual check
    path, _ = pipeline
    out = tmp_path / "cg"
    monkeypatch.setattr(darcy, "DIRECT_SOLVER_MAX_UNKNOWNS", 0)
    seen = []

    def divergence(flow):
        seen.append(darcy.max_relative_divergence(flow))
        return seen[-1]

    monkeypatch.setattr(experiment, "max_relative_divergence", divergence)
    assert cli.main(["generate", "--config", str(path),
                     "--out", str(out)]) == 0
    assert seen[0] > experiment.MAX_RELATIVE_DIVERGENCE
    assert (out / "dataset.csv").exists()


def test_missing_config_exits_2(capsys):
    assert cli.main(["generate", "--config", "/no/such/file.yaml"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    data = tiny_config(tmp_path / "out")
    data["learning"]["models"] = ["guess"]
    path = write_config(tmp_path, data)
    assert cli.main(["learn", "--config", str(path)]) == 2
    assert "does not match schema" in capsys.readouterr().err


def test_learn_without_dataset_exits_4(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config(tmp_path / "fresh"))
    assert cli.main(["learn", "--config", str(path)]) == 4
    assert "generate" in capsys.readouterr().err


def test_learn_without_dataset_sidecar_exits_4(pipeline, tmp_path, capsys):
    path, out = pipeline
    target = tmp_path / "no_sidecar"
    target.mkdir()
    shutil.copy(out / "dataset.csv", target / "dataset.csv")
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 4
    assert "dataset.csv.json" in capsys.readouterr().err


def test_report_without_predictions_exits_4(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config(tmp_path / "fresh"))
    assert cli.main(["report", "--config", str(path)]) == 4
    assert "predict" in capsys.readouterr().err


def test_numerical_failure_exits_3(pipeline, monkeypatch, capsys):
    path, _ = pipeline

    def boom(cfg):
        raise NumericalError("synthetic instability")

    monkeypatch.setattr(cli, "run_generate", boom)
    assert cli.main(["generate", "--config", str(path)]) == 3
    assert "synthetic instability" in capsys.readouterr().err


def test_overflowing_kernel_exits_3(pipeline, tmp_path, capsys):
    path, out = pipeline
    target = tmp_path / "overflow"
    shutil.copytree(out, target)
    fit_path = target / "fit_nonlocal.json"
    record = json.loads(fit_path.read_text())
    record["parameters"]["phi"] = [1e308] * len(record["parameters"]["phi"])
    fit_path.write_text(json.dumps(record))
    assert cli.main(["predict", "--config", str(path),
                     "--out", str(target)]) == 3
    assert "predict[nonlocal]" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["evaporate", "--config", "x.yaml"])
    assert err.value.code == 2
