"""End-to-end command-line runs on a miniature experiment."""

import contextlib
import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import nonlocal_transport
from nonlocal_transport import cli, darcy, errors, experiment, tracking, workers
from nonlocal_transport.baselines import solve_classical
from nonlocal_transport.coarsen import read_table
from nonlocal_transport.config import SCHEMA_ID, load_config
from nonlocal_transport.errors import (
    ArtifactError, ConfigurationError, InjectionError, NumericalError,
    SolverError,
)
from nonlocal_transport.nonlocal_diffusion import (
    DynamicKernel, model_btc, solve, unit_spike,
)
from test_tracking import running


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
    assert table[1].startswith("# scored fits: dataset_sha256=")
    assert table[1].endswith(" tt=2.0")
    assert table[2] == "model,location,window,location_role,n_samples,mse"
    rows = [line.split(",") for line in table[3:]]
    # 3 models x 3 locations x 2 windows
    assert len(rows) == 18
    assert {r[0] for r in rows} == {"nonlocal", "classical", "mlp"}
    assert (out / "predictions_nonlocal.csv").exists()
    assert (out / "msd_model_classical.csv").exists()
    assert not (out / "msd_model_mlp.csv").exists()


def test_predictions_sample_the_recorded_instants(pipeline):
    _, out = pipeline
    recorded = [(r["location"], r["t"])
                for r in read_table(out / "dataset.csv")]
    for model in ("nonlocal", "classical", "mlp"):
        rows = read_table(out / f"predictions_{model}.csv")
        assert [(r["location"], r["t"]) for r in rows] == recorded, model
    fine = [r["t"] for r in read_table(out / "msd_fine.csv")]
    for model in ("nonlocal", "classical"):
        rows = read_table(out / f"msd_model_{model}.csv")
        assert [r["t"] for r in rows] == fine, model


def test_predictions_equal_the_library_solve(pipeline):
    path, out = pipeline
    cfg = load_config(path)
    times = np.array([float(r["t"]) for r in read_table(out / "msd_fine.csv")])
    c0 = unit_spike(cfg.medium.num_cells, cfg.model_injection_cell)
    params = {m: json.loads((out / f"fit_{m}.json").read_text())["parameters"]
              for m in ("nonlocal", "classical")}
    solutions = {
        "nonlocal": solve(DynamicKernel.from_record(params["nonlocal"]), c0,
                          times),
        "classical": solve_classical(float(params["classical"]["D0_bar"]),
                                     c0, times, cfg.medium.cell_width)}
    for model, solution in solutions.items():
        expected = np.concatenate([
            c.values for c in model_btc(solution, list(cfg.all_locations))])
        written = [float(r["value"])
                   for r in read_table(out / f"predictions_{model}.csv")]
        np.testing.assert_array_equal(written, expected, err_msg=model)


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
    scored = (out / "mse_table.csv").read_text().splitlines()[1]
    settings = experiment._scored_key(load_config(path))["settings_sha256"]
    assert f" settings_sha256={settings} " in scored
    for tt, job in ((1.0, "tt1_classical"), (2.0, "tt2_classical")):
        job_dir = out / "sweep" / job
        assert (job_dir / "fit_classical.json").exists()
        # each job's table names the fits it scored: its own window and
        # learning settings, the pipeline's dataset
        table = (job_dir / "mse_table.csv").read_text().splitlines()
        own = experiment._scored_key(load_config(
            path, {"tt": tt, "model": "classical"}))["settings_sha256"]
        assert own != settings
        assert table[1] == scored.replace(" tt=2.0", f" tt={tt!r}").replace(
            settings, own)
    record = json.loads(
        (out / "sweep" / "tt1_classical" / "fit_classical.json").read_text())
    assert record["training"]["tt"] == 1.0
    # the jobs fit the pipeline's dataset
    fitted = json.loads((out / "fit_classical.json").read_text())
    assert (record["training"]["dataset_sha256"]
            == fitted["training"]["dataset_sha256"])


def sweep_config(tmp_path, out, max_workers):
    """The tiny config with a sweep of 4 jobs on ``max_workers`` slots,
    next to a copy of the pipeline's dataset."""
    target = tmp_path / "sweep_run"
    fresh_dataset(out, target)
    data = tiny_config(target)
    data["sweep"] = {"tt_values": [1.0, 2.0],
                     "models": ["classical", "nonlocal"],
                     "max_workers": max_workers}
    return write_config(tmp_path, data), target


def test_sweep_on_two_slots_equals_one_process_sweep(pipeline, tmp_path,
                                                      monkeypatch):
    _, out = pipeline
    path, target = sweep_config(tmp_path, out, 2)
    log = tmp_path / "jobs.log"
    run_learn = experiment.run_learn

    def logged(cfg, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{cfg.output_dir.name} {os.getpid()}\n")
        return run_learn(cfg, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_learn", logged)
    assert cli.main(["sweep", "--config", str(path)]) == 0
    jobs = dict(line.split() for line in log.read_text().splitlines())
    assert sorted(jobs) == ["tt1_classical", "tt1_nonlocal",
                            "tt2_classical", "tt2_nonlocal"]
    pids = {int(pid) for pid in jobs.values()}
    assert len(pids) == 2 and os.getpid() in pids
    two_slots = output_files(target / "sweep")
    assert len(two_slots) == 4 * 4
    shutil.rmtree(target / "sweep")
    # the same config, every job in this process
    monkeypatch.setattr(experiment, "run_tasks",
                        lambda tasks, slots, describe: workers.run_tasks(
                            tasks, 1, describe))
    assert cli.main(["sweep", "--config", str(path)]) == 0
    assert output_files(target / "sweep") == two_slots
    assert multiprocessing.active_children() == []


def test_sweep_reads_its_config_file_only_before_the_jobs(pipeline, tmp_path,
                                                         monkeypatch):
    _, out = pipeline
    path, target = sweep_config(tmp_path, out, 1)
    assert cli.main(["sweep", "--config", str(path)]) == 0
    undisturbed = output_files(target / "sweep")
    shutil.rmtree(target / "sweep")
    run_learn = experiment.run_learn

    def deleting_the_config(*args, **kwargs):
        path.unlink(missing_ok=True)
        return run_learn(*args, **kwargs)

    monkeypatch.setattr(experiment, "run_learn", deleting_the_config)
    assert cli.main(["sweep", "--config", str(path)]) == 0
    assert not path.exists()
    assert output_files(target / "sweep") == undisturbed


def test_sweep_rejects_an_off_grid_tt_before_any_job(pipeline, tmp_path,
                                                      capsys):
    _, out = pipeline
    target = tmp_path / "off_grid"
    fresh_dataset(out, target)
    data = tiny_config(target)
    data["sweep"]["tt_values"] = [1.0, 1.05, 2.0]
    path = write_config(tmp_path, data)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert "sweep tt=1.05" in capsys.readouterr().err
    assert not (target / "sweep").exists()


def workers_of_a_killed_caller(monkeypatch, log, name, argv):
    """Run ``cli.main(argv)`` in a forked caller that each of its workers
    SIGKILLs on entering ``experiment.<name>``, after logging its process
    id; returns the ids logged."""
    def killed_mid_task():
        caller, func = os.getpid(), getattr(experiment, name)

        def kill_the_caller(*args, **kwargs):
            if os.getpid() != caller:
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                with contextlib.suppress(ProcessLookupError):
                    os.kill(caller, signal.SIGKILL)
            return func(*args, **kwargs)

        monkeypatch.setattr(experiment, name, kill_the_caller)
        cli.main(argv)

    caller = multiprocessing.get_context("fork").Process(
        target=killed_mid_task)
    caller.start()
    caller.join(120.0)
    assert caller.exitcode == -signal.SIGKILL
    return sorted({int(pid) for pid in log.read_text().split()})


def assert_exit_within(pids, seconds):
    try:
        deadline = time.perf_counter() + seconds
        while any(map(running, pids)) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))
    finally:
        for pid in filter(running, pids):
            os.kill(pid, signal.SIGKILL)


def test_learn_workers_exit_when_the_calling_process_dies(
        pipeline, tmp_path, monkeypatch, capfd):
    path, out = pipeline
    target = tmp_path / "killed_learn"
    fresh_dataset(out, target)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = workers_of_a_killed_caller(
        monkeypatch, tmp_path / "workers.log", "train_surrogate",
        ["learn", "--config", str(path), "--out", str(target)])
    assert pids
    assert_exit_within(pids, 30.0)
    # a worker whose result finds no caller ends quietly
    assert "Traceback" not in capfd.readouterr().err
    assert multiprocessing.active_children() == []


def test_sweep_workers_exit_when_the_calling_process_dies(
        pipeline, tmp_path, monkeypatch, capfd):
    _, out = pipeline
    path, _ = sweep_config(tmp_path, out, 2)
    pids = workers_of_a_killed_caller(
        monkeypatch, tmp_path / "workers.log", "run_learn",
        ["sweep", "--config", str(path)])
    assert pids
    assert_exit_within(pids, 30.0)
    # a worker whose result finds no caller ends quietly
    assert "Traceback" not in capfd.readouterr().err
    assert multiprocessing.active_children() == []


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
    """Log which process runs the MLP training and each PDE model's fit."""
    train_surrogate, fit = experiment.train_surrogate, experiment.fit

    def logged(label, func):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{label(*args)} {os.getpid()}\n")
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiment, "train_surrogate",
                        logged(lambda *args: "mlp", train_surrogate))
    monkeypatch.setattr(experiment, "fit",
                        logged(lambda problem, *args: problem.model, fit))


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
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 0
    pids = pids_by_label(log)
    assert set(pids) == {"classical", "nonlocal", "mlp"}
    # this process fits the first group; the MLP trains in one worker
    assert pids["classical"] == pids["nonlocal"] == {os.getpid()}
    assert len(pids["mlp"]) == 1 and os.getpid() not in pids["mlp"]
    assert multiprocessing.active_children() == []


def test_learn_on_one_cpu_starts_no_worker(pipeline, tmp_path, monkeypatch):
    path, out = pipeline
    target = tmp_path / "one_cpu"
    fresh_dataset(out, target)
    log = tmp_path / "pids.log"
    record_pids(monkeypatch, log)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 0
    assert set(fit_files(target)) == {"fit_nonlocal.json",
                                      "fit_classical.json", "fit_mlp.json"}
    assert set().union(*pids_by_label(log).values()) == {os.getpid()}


def test_learn_reads_the_dataset_once(pipeline, tmp_path, monkeypatch):
    _, out = pipeline
    target = tmp_path / "one_read"
    fresh_dataset(out, target)
    data = tiny_config(target)
    data["learning"]["models"] = ["nonlocal", "classical", "mlp", "fractal"]
    path = write_config(tmp_path, data)
    reads = []
    load_btc_dataset = experiment.load_btc_dataset

    def counting(path):
        reads.append(path)
        return load_btc_dataset(path)

    monkeypatch.setattr(experiment, "usable_cpus", lambda: 1)
    monkeypatch.setattr(experiment, "load_btc_dataset", counting)
    assert cli.main(["learn", "--config", str(path)]) == 0
    assert set(fit_files(target)) == {
        "fit_nonlocal.json", "fit_classical.json", "fit_mlp.json",
        "fit_fractal.json"}
    # three fit groups, one read
    assert reads == [target / "dataset.csv"]


def test_learn_without_affinity_counts_every_cpu(pipeline, tmp_path,
                                                monkeypatch):
    # hosts without sched_getaffinity use os.cpu_count(), which may be None
    path, out = pipeline
    target = tmp_path / "no_affinity"
    fresh_dataset(out, target)
    log = tmp_path / "pids.log"
    record_pids(monkeypatch, log)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 0
    pooled = fit_files(target)
    assert set(pooled) == {"fit_nonlocal.json", "fit_classical.json",
                           "fit_mlp.json"}
    pids = pids_by_label(log)
    assert pids["nonlocal"] == {os.getpid()}
    assert len(pids["mlp"]) == 1 and os.getpid() not in pids["mlp"]
    assert multiprocessing.active_children() == []
    for name in pooled:
        (target / name).unlink()
    log.unlink()
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 0
    assert fit_files(target) == pooled
    assert set().union(*pids_by_label(log).values()) == {os.getpid()}


def test_pooled_learn_without_mlp_equals_one_process_learn(
        pipeline, tmp_path, monkeypatch):
    # nonlocal (with classical) and fractal run as two groups on two slots
    _, out = pipeline
    target = tmp_path / "no_mlp"
    fresh_dataset(out, target)
    data = tiny_config(target)
    data["learning"]["models"] = ["nonlocal", "fractal", "classical"]
    path = write_config(tmp_path, data)
    log = tmp_path / "pids.log"
    record_pids(monkeypatch, log)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli.main(["learn", "--config", str(path)]) == 0
    split = fit_files(target)
    assert set(split) == {"fit_nonlocal.json", "fit_fractal.json",
                          "fit_classical.json"}
    pids = pids_by_label(log)
    assert pids["classical"] == pids["nonlocal"] == {os.getpid()}
    assert len(pids["fractal"]) == 1 and os.getpid() not in pids["fractal"]
    for name in split:
        (target / name).unlink()
    experiment.run_learn(load_config(path))
    assert fit_files(target) == split


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
], ids=["worker-exits-1"])
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
    # 800 particles in 8 chunks of 100, so 4 chunks per block
    monkeypatch.setattr(tracking, "REDUCE_CHUNK", 100)
    assert cli.main(["generate", "--config", str(path),
                     "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert "stage 'tracking'" in err and message in err
    assert not (target / "dataset.csv").exists()
    assert multiprocessing.active_children() == []


def negate_cell_mass(ensemble):
    ensemble.snapshots.cell_count *= -1
    return ensemble


def double_cell_mass(ensemble):
    ensemble.snapshots.cell_count *= 2
    return ensemble


def nan_exit_time(ensemble):
    ensemble.exit_time[0] = math.nan
    return ensemble


@pytest.mark.parametrize("target, corrupt, stage, message", [
    ("max_relative_divergence", lambda _: 2e-9, "flow",
     "relative divergence 2e-09"),
    ("track", nan_exit_time, "tracking",
     "active, exited and stagnant particles"),
    ("track", negate_cell_mass, "coarsening", "negative value"),
    ("track", double_cell_mass, "coarsening", "retains mass"),
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


def test_generate_gates_divergence_above_the_direct_solver_limit(
        tmp_path, monkeypatch):
    # 420k Darcy unknowns, more than the global direct solve takes (400k):
    # the flow must still meet the run-time divergence bound
    data = tiny_config(tmp_path / "out")
    data["grid"] = {"nx": 4200, "ny": 100}
    data["tracking"]["num_particles"] = 40
    path = write_config(tmp_path, data)
    seen = []

    def divergence(flow):
        seen.append((flow.head.size, darcy.max_relative_divergence(flow)))
        return seen[-1][1]

    monkeypatch.setattr(experiment, "max_relative_divergence", divergence)
    assert cli.main(["generate", "--config", str(path)]) == 0
    [(unknowns, value)] = seen
    assert unknowns > 400_000
    assert value <= experiment.MAX_RELATIVE_DIVERGENCE
    assert (tmp_path / "out" / "dataset.csv").exists()


#: Runs the CLI with the arguments after ``-c``, then prints its exit code
#: and the scipy and concurrent modules it left loaded.
SCIPY_FOOTPRINT = """
import json, sys
from nonlocal_transport import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith(("scipy", "concurrent")))]))
"""


def scipy_modules_after(*argv):
    """The scipy and concurrent modules one CLI command loads in a fresh
    interpreter."""
    src = str(Path(nonlocal_transport.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", SCIPY_FOOTPRINT, *argv],
                          capture_output=True, text=True, env=env, check=True)
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    return modules


def test_no_command_loads_scipy(pipeline, tmp_path):
    path, out = pipeline
    target = tmp_path / "footprint"
    shutil.copytree(out, target)
    config = ["--config", str(path), "--out", str(target)]
    assert scipy_modules_after("report", *config) == []
    assert scipy_modules_after("predict", *config) == []
    # one model is one fit group, which learn fits in its own process
    assert scipy_modules_after("learn", *config, "--model", "nonlocal") == []
    assert scipy_modules_after("learn", *config, "--model", "mlp") == []
    assert scipy_modules_after("generate", "--config", str(path),
                               "--out", str(tmp_path / "generated")) == []
    # forked workers run the sweep's jobs, not a process pool
    assert scipy_modules_after("sweep", *config) == []


#: Runs ``generate`` with the arguments after ``-c`` on as many usable CPUs
#: as the first one says, then prints its exit code and its peak RSS in KiB.
GENERATE_FOOTPRINT = """
import os, resource, sys
cpus = int(sys.argv[1])
os.sched_getaffinity = lambda pid: set(range(cpus))
from nonlocal_transport import cli
code = cli.main(["generate", *sys.argv[2:]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def generate_in_child(path, cpus):
    """Peak RSS in bytes of ``generate`` run in a fresh interpreter."""
    src = str(Path(nonlocal_transport.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", GENERATE_FOOTPRINT, str(cpus), "--config",
         str(path)], capture_output=True, text=True, env=env, check=True)
    code, maxrss = map(int, done.stdout.splitlines()[-1].split())
    assert code == 0, done.stderr
    return 1024 * maxrss


def output_files(directory):
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generate_memory_does_not_grow_with_snapshots(tmp_path):
    # a stored (snapshots x particles x 2) array would add n * (T/dt) * 16
    # bytes from t_end = T to 2T; snapshots reduced as they are recorded add
    # next to nothing
    n, dt, t_end = 20_000, 0.1, 10.0
    paths = {}
    for span in (t_end, 2 * t_end):
        data = tiny_config(tmp_path / f"out_{span:g}")
        data["tracking"].update(num_particles=n, dt=dt, t_end=span)
        paths[span] = write_config(tmp_path, data, f"cfg_{span:g}.yaml")
    growth = (generate_in_child(paths[2 * t_end], 2)
              - generate_in_child(paths[t_end], 2))
    assert growth < 0.25 * n * (t_end / dt) * 16
    # the reduced outputs do not depend on how the particles are split
    out = tmp_path / f"out_{2 * t_end:g}"
    first = output_files(out)
    assert len(first) == 8
    for cpus in (1, 3):
        shutil.rmtree(out)
        generate_in_child(paths[2 * t_end], cpus)
        assert output_files(out) == first, cpus


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


def test_learn_on_a_dataset_of_another_grid_exits_4(pipeline, tmp_path,
                                                    capsys):
    path, _ = pipeline
    target = tmp_path / "other_grid"
    data = tiny_config(target)
    data["grid"]["nx"] = 240
    assert cli.main(["generate", "--config",
                     str(write_config(tmp_path, data, "fine.yaml"))]) == 0
    assert cli.main(["learn", "--config", str(path),
                     "--out", str(target)]) == 4
    err = capsys.readouterr().err
    assert "grid" in err and "generate" in err
    assert not list(target.glob("fit_*.json"))


def test_learn_on_a_dataset_of_another_seed_exits_4(pipeline, tmp_path,
                                                    capsys):
    path, out = pipeline
    target = tmp_path / "other_seed"
    fresh_dataset(out, target)
    assert cli.main(["learn", "--config", str(path), "--out", str(target),
                     "--seed", "99"]) == 4
    err = capsys.readouterr().err
    assert "seed" in err and "generate" in err
    assert not list(target.glob("fit_*.json"))


def test_sweep_on_a_mismatched_dataset_exits_4_before_any_job(
        pipeline, tmp_path, monkeypatch, capsys):
    _, out = pipeline
    path, target = sweep_config(tmp_path, out, 1)
    jobs = []
    monkeypatch.setattr(experiment, "run_learn",
                        lambda cfg, *args, **kwargs: jobs.append(cfg))
    assert cli.main(["sweep", "--config", str(path), "--seed", "99"]) == 4
    assert "seed" in capsys.readouterr().err
    assert jobs == []
    assert not (target / "sweep").exists()


def test_predict_with_fits_of_another_training_window_exits_4(
        pipeline, tmp_path, capsys):
    path, out = pipeline
    target = tmp_path / "stale_fits"
    shutil.copytree(out, target)
    before = (target / "mse_table.csv").read_bytes()
    for command in ("predict", "report"):
        assert cli.main([command, "--config", str(path), "--out", str(target),
                         "--tt", "1.0"]) == 4
        err = capsys.readouterr().err
        assert "fit_nonlocal.json" in err and "learn" in err
    assert (target / "mse_table.csv").read_bytes() == before


def test_report_compares_nonlocal_with_the_mlp(pipeline):
    _, out = pipeline
    report = json.loads((out / "report.json").read_text())
    mse = report["mse"]
    wins = mse["nonlocal"]["2.6"]["test"] < mse["mlp"]["2.6"]["test"]
    block = {"per_held_out_location": {"2.6": wins}, "all": wins,
             "majority": wins}
    # 2.6 lies beyond the training probes 1.7 and 2.0
    assert report["comparisons"]["nonlocal_beats_mlp_test_mse"] == {
        **block, "beyond": block,
        "inside": {"per_held_out_location": {}, "all": None, "majority": None}}


def run_chain(tmp_path, data):
    """generate, learn, predict and report on ``data``; returns the output
    directory."""
    path = write_config(tmp_path, data)
    for command in ("generate", "learn", "predict", "report"):
        assert cli.main([command, "--config", str(path)]) == 0
    return Path(data["output_dir"])


def test_report_splits_comparisons_at_the_training_probes(tmp_path):
    data = tiny_config(tmp_path / "split")
    data["coarse"]["test_locations"] = [1.85, 2.6]
    data["learning"]["models"] = ["nonlocal", "classical"]
    out = run_chain(tmp_path, data)
    report = json.loads((out / "report.json").read_text())
    mse = report["mse"]
    wins = {x: mse["nonlocal"][x]["test"] < mse["classical"][x]["test"]
            for x in ("1.85", "2.6")}
    comparison = report["comparisons"]["nonlocal_beats_classical_test_mse"]
    assert comparison["per_held_out_location"] == wins
    assert comparison["all"] == all(wins.values())
    # 1.85 lies between the training probes 1.7 and 2.0, 2.6 beyond them
    for part, x in (("inside", "1.85"), ("beyond", "2.6")):
        assert comparison[part] == {"per_held_out_location": {x: wins[x]},
                                    "all": wins[x], "majority": wins[x]}


def test_report_lists_the_fits_that_did_not_converge(tmp_path):
    data = tiny_config(tmp_path / "capped")
    data["learning"]["max_iterations"] = 1
    out = run_chain(tmp_path, data)
    report = json.loads((out / "report.json").read_text())
    flags = {m: json.loads((out / f"fit_{m}.json").read_text())["converged"]
             for m in ("nonlocal", "classical")}
    assert report["unconverged_fits"] == sorted(
        m for m, converged in flags.items() if not converged)
    assert report["unconverged_fits"]


def test_fits_of_another_dataset_exit_4(pipeline, tmp_path, capsys):
    path, out = pipeline
    target = tmp_path / "regenerated"
    shutil.copytree(out, target)
    before = (target / "mse_table.csv").read_bytes()
    assert cli.main(["generate", "--config", str(path), "--out", str(target),
                     "--seed", "99"]) == 0
    for command in ("predict", "report"):
        assert cli.main([command, "--config", str(path), "--out", str(target),
                         "--seed", "99"]) == 4
        err = capsys.readouterr().err
        assert "fit_nonlocal.json" in err and "dataset_sha256" in err
        assert "learn" in err
    assert (target / "mse_table.csv").read_bytes() == before


def test_report_on_a_table_of_other_fits_exits_4(pipeline, tmp_path,
                                                capsys):
    # fits of a regenerated dataset, scored by no table yet
    path, out = pipeline
    target = tmp_path / "stale_scores"
    shutil.copytree(out, target)
    args = ["--config", str(path), "--out", str(target), "--seed", "99"]
    for command in ("generate", "learn"):
        assert cli.main([command, *args]) == 0
    before = (target / "report.json").read_bytes()
    assert cli.main(["report", *args]) == 4
    err = capsys.readouterr().err
    assert "mse_table.csv" in err and "'predict'" in err
    assert (target / "report.json").read_bytes() == before
    assert cli.main(["predict", *args]) == 0
    assert cli.main(["report", *args]) == 0


@pytest.mark.parametrize("changes, stale", [
    ({"horizon_cells": 2, "beta": 0.0, "mlp": {"epochs": 10}},
     "fit_nonlocal.json"),
    ({"horizon_cells": 2}, "fit_nonlocal.json"),
    ({"mlp": {"epochs": 10}}, "fit_mlp.json"),
], ids=["horizon-beta-and-epochs", "horizon", "epochs"])
def test_fits_of_other_learning_settings_exit_4(pipeline, tmp_path, capsys,
                                                changes, stale):
    _, out = pipeline
    target = tmp_path / "stale_settings"
    shutil.copytree(out, target)
    before = (target / "mse_table.csv").read_bytes()
    data = tiny_config(target)
    data["learning"].update(changes)
    path = write_config(tmp_path, data)
    for command in ("predict", "report"):
        assert cli.main([command, "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert stale in err and "settings_sha256" in err and "'learn'" in err
    assert (target / "mse_table.csv").read_bytes() == before


def test_report_on_a_table_of_other_learning_settings_exits_4(
        pipeline, tmp_path, capsys):
    # the MLP is retrained with fewer epochs, the table is not rescored
    _, out = pipeline
    target = tmp_path / "stale_table_settings"
    shutil.copytree(out, target)
    data = tiny_config(target)
    data["learning"]["mlp"]["epochs"] = 10
    path = write_config(tmp_path, data)
    assert cli.main(["learn", "--config", str(path), "--model", "mlp"]) == 0
    assert cli.main(["report", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert "mse_table.csv" in err and "settings_sha256" in err
    assert "'predict'" in err
    assert cli.main(["predict", "--config", str(path)]) == 0
    assert cli.main(["report", "--config", str(path)]) == 0


def test_provenance_json_holds_the_provenance_once(pipeline):
    path, out = pipeline
    cfg = load_config(path)
    assert json.loads((out / "provenance.json").read_text()) == {
        "provenance": {"config_sha256": cfg.config_sha256,
                       "package_version": nonlocal_transport.__version__,
                       "schema": SCHEMA_ID, "seed": 11}}


def test_report_without_predictions_exits_4(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config(tmp_path / "fresh"))
    assert cli.main(["report", "--config", str(path)]) == 4
    assert "predict" in capsys.readouterr().err


def test_report_missing_held_out_row_exits_4(pipeline, tmp_path, capsys):
    # a held-out location added after predict ran has no row in the table
    _, out = pipeline
    target = tmp_path / "stale_table"
    shutil.copytree(out, target)
    data = tiny_config(target)
    data["coarse"]["test_locations"] = [2.6, 3.1]
    path = write_config(tmp_path, data)
    assert cli.main(["report", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert "'nonlocal' at location 3.1, window 'test'" in err
    assert "predict" in err


def test_numerical_failure_exits_3(pipeline, monkeypatch, capsys):
    path, _ = pipeline

    def boom(cfg):
        raise NumericalError("synthetic instability")

    monkeypatch.setattr(cli, "run_generate", boom)
    assert cli.main(["generate", "--config", str(path)]) == 3
    assert "synthetic instability" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (ConfigurationError, 2), (NumericalError, 3), (SolverError, 3),
    (InjectionError, 3), (ArtifactError, 4)])
def test_each_domain_error_exits_with_its_code(error, code, tmp_path,
                                               monkeypatch, capsys):
    assert errors.EXIT_CODES == {ConfigurationError: 2, NumericalError: 3,
                                 ArtifactError: 4}
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))

    def failing(cfg):
        with experiment._stage("probe"):
            raise error("synthetic failure")

    monkeypatch.setattr(cli, "run_report", failing)
    assert cli.main(["report", "--config", str(path)]) == code
    assert "stage 'probe' failed: synthetic failure" in capsys.readouterr().err


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


@pytest.mark.parametrize("role, locations", [
    ("train_locations", [1.7, 1.7, 2.0]), ("test_locations", [2.6, 2.6])])
def test_a_probe_listed_twice_exits_2_at_load(tmp_path, capsys, role,
                                              locations):
    data = tiny_config(tmp_path / "out")
    data["coarse"][role] = locations
    path = write_config(tmp_path, data)
    assert cli.main(["generate", "--config", str(path)]) == 2
    repeated = locations[0]
    assert f"locations [{repeated}] are listed twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_model_listed_twice_exits_2_at_load(tmp_path, capsys):
    data = tiny_config(tmp_path / "out")
    data["learning"]["models"] = ["classical", "mlp", "classical"]
    path = write_config(tmp_path, data)
    assert cli.main(["generate", "--config", str(path)]) == 2
    assert "models ['classical'] are listed twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep, job", [
    ({"tt_values": [2.0, 2.0], "models": ["classical"]}, "tt2_classical"),
    ({"tt_values": [1.0], "models": ["classical", "classical"]},
     "tt1_classical")])
def test_sweep_jobs_sharing_a_directory_exit_2_before_any_job(
        pipeline, tmp_path, monkeypatch, capsys, sweep, job):
    _, out = pipeline
    target = tmp_path / "shared"
    fresh_dataset(out, target)
    data = tiny_config(target)
    data["sweep"] = {**sweep, "max_workers": 2}
    started = []
    monkeypatch.setattr(experiment, "run_tasks",
                        lambda *args: started.append(args))
    assert cli.main(["sweep", "--config",
                     str(write_config(tmp_path, data))]) == 2
    assert str(target / "sweep" / job) in capsys.readouterr().err
    assert started == []
    assert not (target / "sweep").exists()


def truncated(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])


def without_training(path):
    record = json.loads(path.read_text())
    del record["training"]
    path.write_text(json.dumps(record))


def non_numeric(column):
    """A corruption of a table: ``column`` of its first row reads ``abc``."""
    def corrupt(path):
        lines = path.read_text().splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines)
                      if not line.startswith("#"))
        row = lines[header + 1].rstrip("\n").split(",")
        row[lines[header].rstrip("\n").split(",").index(column)] = "abc"
        lines[header + 1] = ",".join(row) + "\n"
        path.write_text("".join(lines))
    return corrupt


def edited_fit(change):
    """A corruption of a fit record: ``change`` applied to its dict."""
    def corrupt(path):
        record = json.loads(path.read_text())
        change(record)
        path.write_text(json.dumps(record))
    return corrupt


def off_the_time_grid(path):
    """A corruption of ``dataset.csv``: every ``t`` scaled by 1.001."""
    lines = path.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    column = lines[header].rstrip("\n").split(",").index("t")
    for i in range(header + 1, len(lines)):
        row = lines[i].rstrip("\n").split(",")
        row[column] = repr(float(row[column]) * 1.001)
        lines[i] = ",".join(row) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("name, corrupt, command, writer", [
    pytest.param("fit_nonlocal.json", truncated, "predict", "learn",
                 id="truncated-fit"),
    pytest.param("fit_nonlocal.json", without_training, "predict", "learn",
                 id="fit-without-training"),
    pytest.param("fit_mlp.json", without_training, "report", "learn",
                 id="mlp-fit-without-training"),
    pytest.param("dataset.csv.json", lambda path: path.write_text("{"),
                 "learn", "generate", id="open-brace-sidecar"),
    pytest.param("mse_table.csv", non_numeric("mse"), "report", "predict",
                 id="non-numeric-mse"),
    pytest.param("msd_fine.csv", non_numeric("msd"), "report", "generate",
                 id="non-numeric-fine-msd"),
    pytest.param("msd_model_classical.csv", non_numeric("t"), "report",
                 "predict", id="non-numeric-model-msd-time"),
    pytest.param("fit_classical.json",
                 edited_fit(lambda record: record.pop("parameters")),
                 "predict", "learn", id="fit-without-parameters"),
    pytest.param("dataset.csv.json", lambda path: path.write_text("[]"),
                 "learn", "generate", id="list-sidecar"),
    pytest.param("dataset.csv.json", Path.unlink, "learn", "generate",
                 id="missing-sidecar"),
    pytest.param("fit_nonlocal.json", edited_fit(lambda record: record.update(
        training=list(record["training"]))), "predict", "learn",
                 id="fit-with-a-list-for-training"),
    pytest.param("dataset.csv", off_the_time_grid, "learn", "generate",
                 id="dataset-off-the-time-grid-then-learn"),
    pytest.param("dataset.csv", off_the_time_grid, "predict", "generate",
                 id="dataset-off-the-time-grid-then-predict"),
])
def test_a_malformed_artifact_exits_4_naming_it(pipeline, tmp_path, capsys,
                                                name, corrupt, command,
                                                writer):
    path, out = pipeline
    target = tmp_path / "malformed"
    shutil.copytree(out, target)
    corrupt(target / name)
    assert cli.main([command, "--config", str(path),
                     "--out", str(target)]) == 4
    err = capsys.readouterr().err
    assert name in err and f"run the '{writer}' command" in err


@pytest.mark.parametrize("choice", ["homogenized", "zero"])
def test_generate_in_the_homogenized_and_the_fixed_frame(pipeline, tmp_path,
                                                         capsys, choice):
    out = tmp_path / choice
    data = tiny_config(out)
    data["coarse"]["frame_speed"] = choice
    assert cli.main(["generate", "--config",
                     str(write_config(tmp_path, data))]) == 0
    frame = json.loads((out / "dataset.csv.json").read_text())["frame"]
    expected = frame["v_bar_homogenized"] if choice == "homogenized" else 0.0
    assert frame["choice"] == choice and frame["v_bar_used"] == expected
    advection = json.loads((out / "effective_advection.json").read_text())
    assert advection["frame_choice"] == choice
    assert advection["v_bar_used"] == expected
    assert advection["v_bar_rescaled"] == frame["v_bar_homogenized"] > 0
    # the pipeline's config differs only in the frame choice
    measured, _ = pipeline
    assert cli.main(["learn", "--config", str(measured),
                     "--out", str(out)]) == 4
    assert "frame_speed" in capsys.readouterr().err
