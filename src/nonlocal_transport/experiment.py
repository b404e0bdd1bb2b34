"""End-to-end experiment pipeline: generate, learn, predict, report, sweep.

Each command reads a validated :class:`~nonlocal_transport.config.ExperimentConfig`
and writes deterministic artifacts into the config's output directory: CSV
for numeric series (first line is a ``# provenance`` comment), JSON for
parameters and summaries.  Rerunning any command with the same config and
seed reproduces every file byte for byte.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .baselines import (
    ClassicalParams, FractalParams, SurrogateNet, solve_classical,
    solve_fractal, surrogate_eval, train_surrogate,
)
from .coarsen import (
    BreakthroughCurve, coarse_from_ensemble, effective_advection, extract_btc,
    load_btc_dataset, read_table, save_btc_dataset, shift_frame, write_json,
    write_table,
)
from .config import ExperimentConfig, load_config
from .darcy import max_relative_divergence, solve_medium
from .errors import ArtifactError, ConfigurationError, NumericalError
from .learning import LearningProblem, fit, warm_start_raw
from .nonlocal_diffusion import (
    DynamicKernel, model_btc, solution_moments, solve, unit_spike,
)
from .tracking import displacement_stats, inject, linear_slope, log_log_slope, track
from .workers import run_tasks, usable_cpus

#: Largest per-cell Darcy divergence, relative to the mean face flux, that
#: ``generate`` accepts from the flow.
MAX_RELATIVE_DIVERGENCE = 1e-9


@contextmanager
def _stage(name: str):
    """Attach the failing pipeline stage to any domain error."""
    try:
        yield
    except (ConfigurationError, NumericalError, ArtifactError) as exc:
        raise type(exc)(f"stage '{name}' failed: {exc}") from exc


def _write_csv(path: Path, cfg: ExperimentConfig, header, rows,
               comments=()) -> None:
    write_table(path, header, rows, [cfg.provenance_line(), *comments])


def _write_json(path: Path, cfg: ExperimentConfig, record: dict) -> None:
    write_json(path, {"provenance": cfg.provenance(), **record})


# --- generate -------------------------------------------------------------


def _check_status(ensemble, stats, num_particles: int) -> None:
    """Active, exited and stagnant particles add up at every snapshot.

    Active particles are counted on their own here, not as the remainder
    ``status_counts`` takes, so a particle with a NaN time fails the sum.
    """
    settled = np.minimum(ensemble.exit_time, ensemble.stagnant_time)
    settled = np.sort(settled[~np.isnan(settled)])
    n_active = settled.size - np.searchsorted(settled, stats.times,
                                              side="right")
    total = n_active + stats.n_exited + stats.n_stagnant
    bad = np.flatnonzero(total != num_particles)
    if bad.size:
        j = bad[0]
        raise NumericalError(
            f"{total[j]} active, exited and stagnant particles at "
            f"t = {stats.times[j]:g}, not {num_particles}")


def _check_coarse(coarse, spec) -> None:
    """Nonnegative density and no more than the injected unit mass.

    Windows starting at cells 0, m, 2m, ... tile the domain (the last one
    clipped at the outlet), so their masses add up to the in-domain mass.
    """
    if not coarse.values.min() >= 0.0:
        raise NumericalError(
            f"coarse density has negative value {coarse.values.min():.3g}")
    starts = np.arange(0, coarse.num_cells, coarse.smoothing_cells)
    widths = np.minimum(coarse.smoothing_cells, coarse.num_cells - starts)
    mass = ((coarse.values[starts] * widths[:, None]).sum(axis=0)
            * spec.cell_width * spec.layer_height)
    if not mass.max() <= 1.0 + 1e-12:
        raise NumericalError(
            f"coarse density retains mass {mass.max():.17g}, above the "
            "injected unit mass")


def run_generate(cfg: ExperimentConfig) -> Path:
    """Flow solve, particle tracking and coarse-graining; writes the dataset."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    spec = cfg.medium

    with _stage("flow"):
        flow = solve_medium(spec, cfg.grid_nx, cfg.grid_ny)
        adv = effective_advection(spec, flow.unit_cell)
        divergence = max_relative_divergence(flow)
        if not divergence <= MAX_RELATIVE_DIVERGENCE:
            raise NumericalError(
                f"Darcy flow has relative divergence {divergence:.3g}, above "
                f"{MAX_RELATIVE_DIVERGENCE:g}")

    with _stage("tracking"):
        tracking_cfg = cfg.tracking_config()
        positions = inject(flow, tracking_cfg, spec.num_cells)
        ensemble = track(flow, positions, tracking_cfg, spec)
        stats = displacement_stats(ensemble)
        _check_status(ensemble, stats, cfg.num_particles)

    with _stage("coarsening"):
        coarse = coarse_from_ensemble(ensemble, spec, cfg.window_cells)
        _check_coarse(coarse, spec)
        v_measured = linear_slope(stats.times, stats.mean_x)
        v_bar = {"measured": v_measured,
                 "homogenized": adv.v_bar_rescaled,
                 "zero": 0.0}[cfg.frame_speed]
        if v_bar < 0:
            raise NumericalError(
                f"{cfg.frame_speed} frame speed is negative ({v_bar}); "
                "the ensemble drifts against the head gradient")
        shifted = shift_frame(coarse, v_bar)
        # scale so the coarse curves sum to the model's unit injected mass
        scale = spec.cell_width * spec.layer_height
        curves = [BreakthroughCurve(location=c.location, times=c.times,
                                    values=c.values * scale)
                  for c in extract_btc(shifted, cfg.all_locations)]

    with _stage("output"):
        metadata = {
            "kind": "btc-dataset",
            "provenance": cfg.provenance(),
            "medium": spec.to_dict(),
            "grid": {"nx": cfg.grid_nx, "ny": cfg.grid_ny},
            "num_particles": cfg.num_particles,
            "injection_cell": cfg.injection_cell,
            "record_dt": cfg.record_dt,
            "t_end": cfg.t_end,
            "smoothing_cells": cfg.window_cells,
            "value_scale": scale,
            "frame": {"choice": cfg.frame_speed, "v_bar_used": float(v_bar),
                      "v_bar_measured": float(v_measured),
                      "v_bar_homogenized": float(adv.v_bar_rescaled)},
            "train_locations": [float(x) for x in sorted(cfg.train_locations)],
            "test_locations": [float(x) for x in sorted(cfg.test_locations)],
            "final_status": {"active": int(stats.n_active[-1]),
                             "exited": int(stats.n_exited[-1]),
                             "stagnant": int(stats.n_stagnant[-1])},
        }
        save_btc_dataset(out / "dataset.csv", curves, metadata=metadata,
                         comments=[cfg.provenance_line()])

        _write_json(out / "provenance.json", cfg, cfg.provenance())
        _write_json(out / "effective_advection.json", cfg, {
            "v_bar_cell": adv.v_bar_cell,
            "kappa_bar_x": adv.kappa_bar_x,
            "v_bar_verbatim": adv.v_bar,
            "v_bar_rescaled": adv.v_bar_rescaled,
            "v_bar_measured": float(v_measured),
            "frame_choice": cfg.frame_speed,
            "v_bar_used": float(v_bar),
        })

        _write_csv(out / "msd_fine.csv", cfg,
                   ["t", "mean_x", "msd", "n_active", "n_exited", "n_stagnant"],
                   zip(stats.times, stats.mean_x, stats.msd, stats.n_active,
                       stats.n_exited, stats.n_stagnant))

        # one snapshot's rows at a time, as Python floats
        centers = shifted.cell_centers.tolist()
        _write_csv(out / "density_profiles.csv", cfg, ["t", "x", "value"],
                   (row for t, column in zip(shifted.snapshot_times.tolist(),
                                             shifted.values.T)
                    for row in zip(repeat(t), centers,
                                   (column * scale).tolist())))

        btc_dir = out / "btc"
        btc_dir.mkdir(exist_ok=True)
        train_sorted = sorted(cfg.train_locations)
        by_location = {c.location: c for c in curves}
        for k, loc in enumerate(train_sorted, start=1):
            curve = by_location[float(loc)]
            _write_csv(btc_dir / f"train_btc_{k}.csv", cfg, ["t", "value"],
                       zip(curve.times, curve.values),
                       [f"# location = {float(loc)!r}"])
    return out


# --- learn ----------------------------------------------------------------


def _load_dataset(cfg: ExperimentConfig, dataset_dir=None):
    base = Path(dataset_dir) if dataset_dir is not None else cfg.output_dir
    path = base / "dataset.csv"
    if not path.exists():
        raise ArtifactError(
            f"dataset not found: {path}; run the 'generate' command first")
    curves, metadata = load_btc_dataset(path)
    medium = metadata.get("medium", {})
    if (medium.get("num_cells") != cfg.medium.num_cells
            or abs(medium.get("cell_width", -1.0)
                   - cfg.medium.cell_width) > 1e-12):
        raise ConfigurationError(
            f"dataset {path} was generated for a different medium than the "
            "current config")
    if abs(metadata.get("record_dt", -1.0) - cfg.record_dt) > 1e-12:
        raise ConfigurationError(
            f"dataset {path} uses a different recording step than the config")
    return curves, metadata


def _curves_at(curves, locations):
    selected = []
    for x in sorted(float(v) for v in locations):
        matches = [c for c in curves if abs(c.location - x) < 1e-9]
        if not matches:
            raise ArtifactError(f"dataset has no curve at location {x}")
        selected.append(matches[0])
    return selected


def _training_curves(cfg: ExperimentConfig, curves):
    n_train = cfg.n_train_steps
    if n_train < 1:
        raise ConfigurationError("training window is empty")
    trimmed = []
    for curve in _curves_at(curves, cfg.train_locations):
        if len(curve.times) < n_train:
            raise ConfigurationError(
                f"training window tt={cfg.tt} extends beyond the "
                f"{curve.times[-1]}-long dataset horizon")
        trimmed.append(BreakthroughCurve(location=curve.location,
                                         times=curve.times[:n_train].copy(),
                                         values=curve.values[:n_train].copy()))
    return trimmed


def run_learn(cfg: ExperimentConfig, dataset_dir=None, models=None) -> Path:
    """Fit ``models`` (default: every configured model) on the training window.

    Each model's ``fit_<model>.json`` depends only on ``cfg`` and the
    dataset, so fitting a subset writes the same bytes as fitting them all.
    The fits run one after another in this process: tests, sweep jobs and
    traced runs call this function directly, and workers started inside it
    would nest in the sweep's and hide the fits from an in-process tracer.
    :func:`run_learn_split` is the form the CLI uses, one fit group per slot.
    """
    models = cfg.models if models is None else tuple(models)
    unknown = [m for m in models if m not in cfg.models]
    if unknown:
        raise ConfigurationError(
            f"models {unknown} are not among the configured {list(cfg.models)}")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    curves, metadata = _load_dataset(cfg, dataset_dir)
    train = _training_curves(cfg, curves)
    training_block = {
        "tt": cfg.tt,
        "n_samples_per_curve": cfg.n_train_steps,
        "train_locations": [c.location for c in train],
    }
    fits = {}

    def fitted(model):
        if model not in fits:
            problem = LearningProblem(
                curves=tuple(train), beta=cfg.beta, model=model,
                horizon_cells=cfg.horizon_cells,
                cell_width=cfg.medium.cell_width,
                num_cells=cfg.medium.num_cells,
                injection_cell=cfg.model_injection_cell,
                dt=cfg.record_dt, n_steps=cfg.n_train_steps,
                history=cfg.history, max_iterations=cfg.max_iterations,
                gradient_tolerance=cfg.gradient_tolerance)
            start = (warm_start_raw(problem, fitted("classical"))
                     if model == "nonlocal" else None)
            fits[model] = fit(problem, start)
        return fits[model]

    for model in models:
        with _stage(f"learn[{model}]"):
            if model == "mlp":
                net = train_surrogate(
                    train, epochs=int(cfg.mlp["epochs"]),
                    learning_rate=float(cfg.mlp["learning_rate"]),
                    seed=cfg.seed,
                    hidden_layers=int(cfg.mlp["hidden_layers"]),
                    width=int(cfg.mlp["width"]))
                record = {**net.record(),
                          "training": {**training_block,
                                       "epochs": int(cfg.mlp["epochs"]),
                                       "seed": cfg.seed}}
            else:
                record = {**fitted(model).to_json(),
                          "training": training_block}
            _write_json(out / f"fit_{model}.json", cfg, record)
    return out


def run_learn_split(cfg: ExperimentConfig) -> Path:
    """:func:`run_learn` with its independent fit groups as tasks of
    :func:`workers.run_tasks`, one slot per usable CPU, this process fitting
    the first: classical then nonlocal (one task, so the nonlocal warm start
    reuses the classical fit), the MLP, and fractal.  Each group writes its
    own fit files from the same ``cfg``."""
    chain = tuple(m for m in cfg.models if m in ("classical", "nonlocal"))
    groups = [chain] if chain else []
    groups += [(m,) for m in ("mlp", "fractal") if m in cfg.models]
    run_tasks([partial(_learn_group, cfg, group) for group in groups],
              usable_cpus(), lambda i: f"learn group {'+'.join(groups[i])}")
    return cfg.output_dir


def _learn_group(cfg: ExperimentConfig, models, send) -> None:
    send(run_learn(cfg, None, models))


# --- predict --------------------------------------------------------------


def _load_fit(cfg: ExperimentConfig, model: str) -> dict:
    path = cfg.output_dir / f"fit_{model}.json"
    if not path.exists():
        raise ArtifactError(
            f"missing fit for model '{model}': {path}; "
            "run the 'learn' command first")
    with open(path) as fh:
        return json.load(fh)


def _predict_curves(cfg: ExperimentConfig, model: str, record: dict,
                    times: np.ndarray, locations):
    if model == "mlp":
        net = SurrogateNet.from_record(record)
        curves = [BreakthroughCurve(
            location=float(x), times=times[1:].copy(),
            values=surrogate_eval(net, float(x), times[1:]))
            for x in locations]
        return curves, None
    params = record["parameters"]
    c0 = unit_spike(cfg.medium.num_cells, cfg.model_injection_cell)
    if model == "nonlocal":
        solution = solve(DynamicKernel.from_record(params), c0, times)
    elif model == "fractal":
        solution = solve_fractal(
            FractalParams(D_bar=float(params["D_bar"]),
                          q=float(params["q"])),
            c0, times, cfg.medium.cell_width)
    elif model == "classical":
        solution = solve_classical(
            ClassicalParams(D0_bar=float(params["D0_bar"])),
            c0, times, cfg.medium.cell_width)
    else:
        raise ConfigurationError(f"unknown model {model!r}")
    return model_btc(solution, list(locations)), solution


def run_predict(cfg: ExperimentConfig, dataset_dir=None) -> Path:
    """Forward-solve each fitted model and tabulate train/test misfits."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    curves, metadata = _load_dataset(cfg, dataset_dir)
    data = _curves_at(curves, cfg.all_locations)
    times = np.arange(cfg.n_record_steps + 1) * cfg.record_dt
    if any(len(c.times) != cfg.n_record_steps for c in data):
        raise ConfigurationError(
            "dataset horizon does not match the configured t_end")

    train_set = {float(x) for x in cfg.train_locations}
    mse_rows = []
    for model in cfg.models:
        with _stage(f"predict[{model}]"):
            record = _load_fit(cfg, model)
            predictions, solution = _predict_curves(
                cfg, model, record, times, [c.location for c in data])
            _write_csv(
                out / f"predictions_{model}.csv", cfg,
                ["location", "t", "value"],
                ((c.location, t, v) for c in predictions
                 for t, v in zip(c.times, c.values)))
            if solution is not None:
                moments = solution_moments(solution)
                _write_csv(out / f"msd_model_{model}.csv", cfg,
                           ["t", "mass", "mean_x", "msd"],
                           zip(moments.times, moments.mass, moments.mean_x,
                               moments.msd))
            for reference, predicted in zip(data, predictions):
                if not np.allclose(reference.times, predicted.times,
                                   rtol=0.0, atol=1e-9 * cfg.record_dt):
                    raise NumericalError(
                        "prediction and data time grids diverged")
                residual_sq = (predicted.values - reference.values) ** 2
                in_train = reference.times <= cfg.tt + 1e-9 * cfg.record_dt
                for window, mask in (("train", in_train),
                                     ("test", ~in_train)):
                    mse_rows.append((
                        model, reference.location, window,
                        "train" if reference.location in train_set
                        else "held-out",
                        int(mask.sum()), float(residual_sq[mask].mean())))

    mse_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(out / "mse_table.csv", cfg,
               ["model", "location", "window", "location_role",
                "n_samples", "mse"], mse_rows)
    return out


# --- report ---------------------------------------------------------------


def _mse_lookup(rows, path):
    """``mse(model, location, window)`` from the rows of ``path``."""
    table = {(row["model"], float(row["location"]), row["window"]):
             float(row["mse"]) for row in rows}

    def mse(*key):
        if key not in table:
            raise ArtifactError(
                f"{path} has no row for model {key[0]!r} at location "
                f"{key[1]!r}, window {key[2]!r}; run the 'predict' command "
                "again")
        return table[key]
    return mse


def run_report(cfg: ExperimentConfig, dataset_dir=None) -> Path:
    """Summarize fits, misfit tables and MSD behavior into report.json."""
    out = cfg.output_dir
    mse_path = out / "mse_table.csv"
    if not mse_path.exists():
        raise ArtifactError(
            f"missing {mse_path}; run the 'predict' command first")
    rows = read_table(mse_path)
    mse = _mse_lookup(rows, mse_path)

    fitted = {}
    for model in cfg.models:
        record = _load_fit(cfg, model)
        if model == "mlp":
            fitted[model] = {"model": "mlp",
                             "normalization": record["normalization"],
                             "fit_file": f"fit_{model}.json"}
        else:
            fitted[model] = {**record["parameters"],
                             "loss": record["loss"],
                             "misfit": record["misfit"],
                             "penalty": record["penalty"],
                             "converged": record["converged"],
                             "fit_file": f"fit_{model}.json"}

    msd_block = {}
    msd_path = out / "msd_fine.csv"
    if msd_path.exists():
        fine = read_table(msd_path)
        t = np.array([float(r["t"]) for r in fine])
        msd = np.array([float(r["msd"]) for r in fine])
        msd_block["fine_slope_loglog"] = log_log_slope_or_none(t, msd)
    for model in cfg.models:
        model_path = out / f"msd_model_{model}.csv"
        if model_path.exists():
            series = read_table(model_path)
            t = np.array([float(r["t"]) for r in series])
            msd = np.array([float(r["msd"]) for r in series])
            msd_block[f"{model}_slope_loglog"] = log_log_slope_or_none(t, msd)

    held_out = sorted(float(x) for x in cfg.test_locations)
    comparisons = {}
    for rival in ("classical", "fractal"):
        if "nonlocal" in cfg.models and rival in cfg.models:
            per_location = {
                repr(x): mse("nonlocal", x, "test") < mse(rival, x, "test")
                for x in held_out}
            comparisons[f"nonlocal_beats_{rival}_test_mse"] = {
                "per_held_out_location": per_location,
                "all": all(per_location.values()),
                "majority": (sum(per_location.values())
                             > len(per_location) / 2),
            }

    mse_nested = {}
    for row in rows:
        mse_nested.setdefault(row["model"], {}).setdefault(
            row["location"], {})[row["window"]] = float(row["mse"])

    files = sorted(str(p.relative_to(out))
                   for p in out.rglob("*") if p.is_file()
                   and p.name != "report.json")
    _write_json(out / "report.json", cfg, {
        "fitted": fitted,
        "mse": mse_nested,
        "msd_slopes": msd_block,
        "comparisons": comparisons,
        "train_locations": [float(x) for x in sorted(cfg.train_locations)],
        "test_locations": held_out,
        "tt": cfg.tt,
        "files": files,
    })
    return out


def log_log_slope_or_none(times, values):
    try:
        return float(log_log_slope(times, values))
    except ConfigurationError:
        return None


# --- sweep ----------------------------------------------------------------


def _sweep_job(config_path: str, base_overrides: dict, tt: float,
               model: str, job_dir: str, dataset_dir: str, send) -> None:
    overrides = dict(base_overrides)
    overrides.update({"tt": tt, "model": model, "out": job_dir})
    cfg = load_config(config_path, overrides)
    run_learn(cfg, dataset_dir=dataset_dir)
    run_predict(cfg, dataset_dir=dataset_dir)
    send(job_dir)


def run_sweep(cfg: ExperimentConfig, config_path,
              base_overrides: dict | None = None) -> Path:
    """Learn+predict over the (tt, model) grid, one subdirectory per job,
    the jobs on ``sweep.max_workers`` slots of :func:`workers.run_tasks`."""
    if not cfg.sweep_tt_values or not cfg.sweep_models:
        raise ConfigurationError(
            "sweep requires a 'sweep' config section with tt_values and models")
    dataset_dir = cfg.output_dir
    if not (dataset_dir / "dataset.csv").exists():
        raise ArtifactError(
            f"dataset not found in {dataset_dir}; run 'generate' first")
    jobs = [(tt, model, f"tt{tt:g}_{model}") for tt in cfg.sweep_tt_values
            for model in cfg.sweep_models]
    run_tasks([partial(_sweep_job, str(config_path), dict(base_overrides or {}),
                       tt, model, str(cfg.output_dir / "sweep" / name),
                       str(dataset_dir)) for tt, model, name in jobs],
              cfg.sweep_max_workers, lambda i: f"sweep job {jobs[i][2]}")
    return cfg.output_dir / "sweep"
