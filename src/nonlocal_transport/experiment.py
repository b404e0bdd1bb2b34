"""End-to-end experiment pipeline: generate, learn, predict, report, sweep.

Each command reads a validated :class:`~nonlocal_transport.config.ExperimentConfig`
and writes deterministic artifacts into the config's output directory: CSV
for numeric series (first line is a ``# provenance`` comment), JSON for
parameters and summaries.  Rerunning any command with the same config and
seed reproduces every file byte for byte.
"""

from __future__ import annotations

import copy
import hashlib
import json
from contextlib import contextmanager
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .baselines import (
    SurrogateNet, solve_classical, solve_fractal, surrogate_eval,
    train_surrogate,
)
from .coarsen import (
    BreakthroughCurve, coarse_from_ensemble, effective_advection, extract_btc,
    load_btc_dataset, read_table, save_btc_dataset, shift_frame, write_json,
    write_table,
)
from .config import ExperimentConfig, build_config
from .darcy import max_relative_divergence, solve_medium
from .errors import EXIT_CODES, ArtifactError, ConfigurationError, NumericalError
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
    except tuple(EXIT_CODES) as exc:
        raise type(exc)(f"stage '{name}' failed: {exc}") from exc


def _write_csv(path: Path, cfg: ExperimentConfig, header, rows,
               comments=()) -> None:
    write_table(path, header, rows, [cfg.provenance_line(), *comments])


def _write_json(path: Path, cfg: ExperimentConfig, record: dict) -> None:
    write_json(path, {"provenance": cfg.provenance(), **record})


def _read(path: Path, command: str, parse, key=None):
    """``parse(path)`` for an artifact that ``command`` writes; a missing
    file, one ``parse`` cannot parse, or one whose recorded key (given
    ``key``, ``parse``'s second value) is not ``key`` raises ArtifactError."""
    if not path.exists():
        raise ArtifactError(
            f"missing {path}; run the '{command}' command first")
    try:
        parsed = parse(path)
    except ArtifactError as exc:   # a file that ``path`` comes with is missing
        raise ArtifactError(
            f"{exc}; run the '{command}' command first") from exc
    except (LookupError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"cannot parse {path} ({type(exc).__name__}: {exc}); run the "
            f"'{command}' command again") from exc
    if key is not None:
        parsed, recorded = parsed
        _check_key(path, command, recorded, key)
    return parsed


def _check_key(path: Path, command: str, recorded: dict, key: dict) -> None:
    """ArtifactError naming each entry of ``key`` that ``recorded`` lacks."""
    differ = ", ".join(name for name in key if recorded.get(name) != key[name])
    if differ:
        raise ArtifactError(f"{path} was built from another {differ} than the "
                            f"config; run the '{command}' command again")


# --- generate -------------------------------------------------------------


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

    with _stage("coarsening"):
        coarse = coarse_from_ensemble(ensemble, spec, cfg.window_cells)
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
            **_dataset_settings(cfg),
            "value_scale": scale,
            "frame": {"choice": cfg.frame_speed, "v_bar_used": float(v_bar),
                      "v_bar_measured": float(v_measured),
                      "v_bar_homogenized": float(adv.v_bar_rescaled)},
            "final_status": {"active": int(stats.n_active[-1]),
                             "exited": int(stats.n_exited[-1]),
                             "stagnant": int(stats.n_stagnant[-1])},
        }
        save_btc_dataset(out / "dataset.csv", curves, metadata=metadata,
                         comments=[cfg.provenance_line()])

        _write_json(out / "provenance.json", cfg, {})
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
                   (row for t, column in zip(shifted.times.tolist(),
                                             shifted.values.T)
                    for row in zip(repeat(t), centers,
                                   (column * scale).tolist())))

        btc_dir = out / "btc"
        btc_dir.mkdir(exist_ok=True)
        train = [c for c in curves if c.location in cfg.train_locations]
        for k, curve in enumerate(train, start=1):
            _write_csv(btc_dir / f"train_btc_{k}.csv", cfg, ["t", "value"],
                       zip(curve.times, curve.values),
                       [f"# location = {curve.location!r}"])
    return out


# --- learn ----------------------------------------------------------------


def _dataset_settings(cfg: ExperimentConfig) -> dict:
    """The settings a dataset is generated from, as its sidecar records them."""
    return {
        "medium": cfg.medium.to_dict(),
        "grid": {"nx": cfg.grid_nx, "ny": cfg.grid_ny},
        "num_particles": cfg.num_particles,
        "injection_cell": cfg.injection_cell,
        "record_dt": cfg.record_dt,
        "t_end": cfg.t_end,
        "smoothing_cells": cfg.window_cells,
        "train_locations": list(cfg.train_locations),
        "test_locations": list(cfg.test_locations),
    }


def _dataset_key(cfg: ExperimentConfig) -> tuple[dict, str]:
    """What a dataset for ``cfg`` records (settings, seed, frame choice) and
    its canonical JSON's sha256, each fit's ``training.dataset_sha256``."""
    key = {**_dataset_settings(cfg), "seed": cfg.seed,
           "frame_speed": cfg.frame_speed}
    return key, _sha256(key)


def _sha256(value) -> str:
    """The sha256 of ``value``'s canonical JSON."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _dataset_curves(cfg: ExperimentConfig, dataset_dir, locations,
                    n_steps: int) -> list[BreakthroughCurve]:
    """The dataset's first ``n_steps`` samples at ``locations``, in order;
    the dataset must record ``cfg``'s :func:`_dataset_key`, and the samples
    lie on the first ``n_steps`` instants after t = 0 of the recording grid,
    ``TrackingConfig.snapshot_times``."""
    path = Path(dataset_dir or cfg.output_dir) / "dataset.csv"

    def parse(path):
        curves, metadata = load_btc_dataset(path)
        return curves, {**metadata, "seed": metadata["provenance"]["seed"],
                        "frame_speed": metadata["frame"]["choice"]}

    curves = _read(path, "generate", parse, _dataset_key(cfg)[0])
    by_location = {c.location: c for c in curves}
    grid = cfg.tracking_config().snapshot_times[1:n_steps + 1]
    selected = []
    for x in locations:
        curve = by_location.get(x)
        times = grid[:0] if curve is None else curve.times[:n_steps]
        if len(times) < n_steps or not np.allclose(
                times, grid, rtol=0.0, atol=1e-9 * cfg.record_dt):
            raise ArtifactError(
                f"dataset {path} has no {n_steps}-sample curve at location "
                f"{x!r} on the config's time grid; run the 'generate' command again")
        selected.append(BreakthroughCurve(x, times, curve.values[:n_steps]))
    return selected


def _fit_settings(cfg: ExperimentConfig, model: str) -> dict:
    """The keywords :func:`run_learn` fits ``model`` with, besides the
    curves: ``train_surrogate``'s for the MLP, else ``LearningProblem``'s."""
    if model == "mlp":
        return {"seed": cfg.seed, **cfg.mlp}
    return dict(beta=cfg.beta, model=model, horizon_cells=cfg.horizon_cells,
                cell_width=cfg.medium.cell_width,
                num_cells=cfg.medium.num_cells,
                injection_cell=cfg.model_injection_cell, dt=cfg.record_dt,
                n_steps=cfg.n_train_steps, history=cfg.history,
                max_iterations=cfg.max_iterations,
                gradient_tolerance=cfg.gradient_tolerance)


def _fit_key(cfg: ExperimentConfig, model: str) -> dict:
    """A fit's ``training`` block: the window and dataset it is fitted on,
    and the hash of its :func:`_fit_settings`."""
    return {"tt": cfg.tt, "n_samples_per_curve": cfg.n_train_steps,
            "train_locations": list(cfg.train_locations),
            "dataset_sha256": _dataset_key(cfg)[1],
            "settings_sha256": _sha256(_fit_settings(cfg, model))}


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
    train = _dataset_curves(cfg, dataset_dir, cfg.train_locations,
                            cfg.n_train_steps)
    fits = {}

    def fitted(model):
        if model not in fits:
            problem = LearningProblem(curves=tuple(train),
                                      **_fit_settings(cfg, model))
            start = (warm_start_raw(problem, fitted("classical"))
                     if model == "nonlocal" else None)
            fits[model] = fit(problem, start)
        return fits[model]

    for model in models:
        with _stage(f"learn[{model}]"):
            if model == "mlp":
                net = train_surrogate(train, **_fit_settings(cfg, model))
                record = {**net.record(), "training": {**_fit_key(cfg, model),
                          "epochs": cfg.mlp["epochs"], "seed": cfg.seed}}
            else:
                record = {**fitted(model).to_json(),
                          "training": _fit_key(cfg, model)}
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
    run_tasks([partial(run_learn, cfg, None, group) for group in groups],
              usable_cpus(), lambda i: f"learn group {'+'.join(groups[i])}")
    return cfg.output_dir


# --- predict --------------------------------------------------------------


def _load_fit(cfg: ExperimentConfig, model: str, pick):
    """``pick`` of ``model``'s fit record, which must record ``cfg``'s
    :func:`_fit_key` for ``model``."""
    def parse(path):
        record = json.loads(path.read_text())
        return pick(record), {**record["training"]}   # TypeError unless a dict

    return _read(cfg.output_dir / f"fit_{model}.json", "learn", parse,
                 _fit_key(cfg, model))


def _fitted_model(cfg: ExperimentConfig, model: str, record: dict):
    """The call :func:`_predict_curves` makes for ``model``'s fit record:
    the MLP's net, or the PDE solve ``fitted(c0, times)`` with the fitted
    kernel, fractal ``(D_bar, q)`` or classical ``D0_bar`` bound."""
    if model == "mlp":
        return SurrogateNet.from_record(record)
    params, width = record["parameters"], cfg.medium.cell_width
    if model == "nonlocal":
        return partial(solve, DynamicKernel.from_record(params))
    if model == "fractal":
        return partial(solve_fractal, float(params["D_bar"]),
                       float(params["q"]), cell_width=width)
    return partial(solve_classical, float(params["D0_bar"]), cell_width=width)


def _predict_curves(cfg: ExperimentConfig, fitted, times, locations):
    if isinstance(fitted, SurrogateNet):
        return [BreakthroughCurve(x, times[1:].copy(),
                                  surrogate_eval(fitted, x, times[1:]))
                for x in locations], None
    solution = fitted(unit_spike(cfg.medium.num_cells,
                                 cfg.model_injection_cell), times)
    return model_btc(solution, list(locations)), solution


def run_predict(cfg: ExperimentConfig, dataset_dir=None) -> Path:
    """Forward-solve each fitted model and tabulate train/test misfits."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    data = _dataset_curves(cfg, dataset_dir, cfg.all_locations,
                           cfg.n_record_steps)
    times = cfg.tracking_config().snapshot_times

    mse_rows = []
    for model in cfg.models:
        with _stage(f"predict[{model}]"):
            fitted = _load_fit(cfg, model, partial(_fitted_model, cfg, model))
            predictions, solution = _predict_curves(
                cfg, fitted, times, [c.location for c in data])
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
                residual_sq = (predicted.values - reference.values) ** 2
                # the first n_train_steps samples, as learn takes them
                in_train = np.arange(len(reference.times)) < cfg.n_train_steps
                for window, mask in (("train", in_train),
                                     ("test", ~in_train)):
                    mse_rows.append((
                        model, reference.location, window,
                        "train" if reference.location in cfg.train_locations
                        else "held-out",
                        int(mask.sum()), float(residual_sq[mask].mean())))

    mse_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(out / "mse_table.csv", cfg,
               ["model", "location", "window", "location_role",
                "n_samples", "mse"], mse_rows, ["# scored fits: " + " ".join(
                    f"{name}={value}" for name, value in _scored_key(cfg).items())])
    return out


def _scored_key(cfg: ExperimentConfig) -> dict:
    """``mse_table.csv``'s second line: the dataset, the settings of every
    configured model and the window of its fits."""
    return {"dataset_sha256": _dataset_key(cfg)[1],
            "settings_sha256": _sha256(
                {m: _fit_settings(cfg, m) for m in cfg.models}),
            "tt": repr(cfg.tt)}


# --- report ---------------------------------------------------------------


def run_report(cfg: ExperimentConfig) -> Path:
    """Summarize fits, misfit tables and MSD behavior into report.json."""
    out = cfg.output_dir
    mse_path = out / "mse_table.csv"
    mse_nested, scored = _read(mse_path, "predict", _mse_by_model)

    def held_out_mse(model, x):
        try:
            return mse_nested[model][repr(x)]["test"]
        except KeyError:
            raise ArtifactError(
                f"{mse_path} has no row for model {model!r} at location "
                f"{x!r}, window 'test'; run the 'predict' command "
                "again") from None

    msd_files = {"fine": (out / "msd_fine.csv", "generate"), **{
        m: (out / f"msd_model_{m}.csv", "predict") for m in cfg.models}}
    msd_block = {f"{name}_slope_loglog": _read(path, command, _msd_slope)
                 for name, (path, command) in msd_files.items()
                 if path.exists()}

    lo, hi = min(cfg.train_locations), max(cfg.train_locations)
    comparisons = {}
    for rival in ("classical", "fractal", "mlp"):
        if "nonlocal" in cfg.models and rival in cfg.models:
            wins = {x: held_out_mse("nonlocal", x) < held_out_mse(rival, x)
                    for x in cfg.test_locations}
            inside = {x: w for x, w in wins.items() if lo <= x <= hi}
            comparisons[f"nonlocal_beats_{rival}_test_mse"] = {
                **_tally(wins), "inside": _tally(inside),
                "beyond": _tally({x: w for x, w in wins.items()
                                  if x not in inside})}

    # the fits are read after every compared row and before the table's
    # key: a missing row is named first, then a stale fit, then the table
    fitted = {m: {**_load_fit(cfg, m, _fit_summary),
                  "fit_file": f"fit_{m}.json"} for m in cfg.models}
    _check_key(mse_path, "predict", scored, _scored_key(cfg))

    files = sorted(str(p.relative_to(out))
                   for p in out.rglob("*") if p.is_file()
                   and p.name != "report.json")
    _write_json(out / "report.json", cfg, {
        "fitted": fitted,
        "mse": mse_nested,
        "msd_slopes": msd_block,
        "comparisons": comparisons,
        "unconverged_fits": [m for m in sorted(fitted)
                             if fitted[m].get("converged") is False],
        "train_locations": cfg.train_locations,
        "test_locations": cfg.test_locations,
        "tt": cfg.tt,
        "files": files,
    })
    return out


def _tally(wins: dict) -> dict:
    """Nonlocal's wins at held-out probes, at all and at most of them;
    ``all`` and ``majority`` are None without probes."""
    return {"per_held_out_location": {repr(x): w for x, w in wins.items()},
            "all": all(wins.values()) if wins else None,
            "majority": sum(wins.values()) > len(wins) / 2 if wins else None}


def _fit_summary(record: dict) -> dict:
    """What report.json keeps of a fit record."""
    if record["model"] == "mlp":
        return {"model": "mlp", "normalization": record["normalization"]}
    return {**record["parameters"], **{key: record[key] for key in (
        "loss", "misfit", "penalty", "converged")}}


def _mse_by_model(path: Path) -> tuple[dict, dict]:
    """``mse_table.csv`` as {model: {location: {window: mse}}}, and the
    :func:`_scored_key` its second line records."""
    comments, nested = [], {}
    for row in read_table(path, comments):
        nested.setdefault(row["model"], {}).setdefault(
            row["location"], {})[row["window"]] = float(row["mse"])
    pairs = comments[1].partition(": ")[2].split()
    return nested, dict(pair.split("=", 1) for pair in pairs)


def _msd_slope(path: Path):
    """An MSD series' log-log slope, or None where it has none."""
    rows = read_table(path)
    t, msd = (np.array([float(r[key]) for r in rows]) for key in ("t", "msd"))
    try:
        return float(log_log_slope(t, msd))
    except ConfigurationError:
        return None


# --- sweep ----------------------------------------------------------------


def _sweep_job(cfg: ExperimentConfig, dataset_dir: Path) -> Path:
    run_learn(cfg, dataset_dir=dataset_dir)
    return run_predict(cfg, dataset_dir=dataset_dir)


def run_sweep(cfg: ExperimentConfig) -> Path:
    """Learn+predict over the (tt, model) grid, one subdirectory per job,
    the jobs on ``sweep.max_workers`` slots of :func:`workers.run_tasks`, each
    with its config built from ``cfg.raw`` and its subdirectory checked to
    be its own before any job runs."""
    if not cfg.sweep_tt_values or not cfg.sweep_models:
        raise ConfigurationError(
            "sweep requires a 'sweep' config section with tt_values and models")
    dataset_dir = cfg.output_dir
    jobs = [build_config(copy.deepcopy(cfg.raw), {
        "tt": tt, "model": model,
        "out": str(dataset_dir / "sweep" / f"tt{tt:g}_{model}")})
        for tt in cfg.sweep_tt_values for model in cfg.sweep_models]
    dirs = [str(job.output_dir) for job in jobs]
    shared = sorted({d for d in dirs if dirs.count(d) > 1})
    if shared:
        raise ConfigurationError(f"sweep jobs share directories {shared}")
    _dataset_curves(cfg, dataset_dir, cfg.all_locations, cfg.n_record_steps)
    run_tasks([partial(_sweep_job, job, dataset_dir) for job in jobs],
              cfg.sweep_max_workers,
              lambda i: f"sweep job {jobs[i].output_dir.name}")
    return dataset_dir / "sweep"
