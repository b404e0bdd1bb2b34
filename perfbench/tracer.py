"""The traced run: per-layer metrics from spans around each module's calls.

The benchmark process imports the package from this checkout and replaces
the public functions listed in ``TARGETS`` by wrappers that record a span
(name, start, end, parent span, run id), in every package module that holds
a reference to them, so the pipeline's own calls are caught too.  Nothing
is edited on disk, and the wrappers are removed again before the untraced
pass that measures the tracer's overhead.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from workloads import (
    DIVERGENCE_GATE, SRC, WORKLOADS, Checks, Workload, check_command_outputs,
    check_same_numbers, compared_artifacts, import_seconds, sweep_job_names,
    write_config,
)

PACKAGE = "nonlocal_transport"
PDE_MODELS = ("nonlocal", "fractal", "classical")

TARGETS = {
    "config": ("load_config",),
    "medium": ("build_conductivity",),
    "darcy": ("solve_medium", "solve_unit_cell", "solve_darcy"),
    "tracking": ("inject", "track", "displacement_stats"),
    "coarsen": ("effective_advection", "coarse_from_ensemble", "shift_frame",
                "extract_btc"),
    "learning": ("fit", "warm_start_raw", "loss_and_gradient", "evaluate_loss"),
    "lbfgs": ("minimize",),
    "nonlocal_diffusion": ("solve", "model_btc", "solution_moments"),
    "baselines": ("train_surrogate", "solve_fractal", "solve_classical",
                  "surrogate_eval"),
    "experiment": ("run_generate", "run_learn", "run_predict", "run_report"),
}

#: Per-layer metric -> (unit, better, end-to-end metric it should move,
#: workload where it shows).  BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "config.load_s": ("s", "lower", "every *_s", "all"),
    "cli.import_s": ("s", "lower", "every *_s", "all"),
    "medium.build_conductivity_s": ("s", "lower", "generate_s", "transport-wide"),
    "darcy.solve_medium_s": ("s", "lower", "generate_s", "transport-wide"),
    "darcy.unknowns": ("count", "higher", "generate_s", "transport-wide"),
    "darcy.max_rel_divergence": ("ratio", "lower", "generate_s", "transport-wide"),
    "darcy.cg_solve_s": ("s", "lower", "generate_s", "transport-wide"),
    "darcy.cg_max_rel_divergence": ("ratio", "lower", "generate_s", "transport-wide"),
    "tracking.inject_s": ("s", "lower", "generate_s", "transport-wide"),
    "tracking.track_s": ("s", "lower", "generate_s, peak_rss_mb", "transport-wide"),
    "tracking.particle_snapshots_per_s": ("1/s", "higher", "generate_s", "transport-wide"),
    "tracking.positions_mb": ("MB", "lower", "peak_rss_mb", "transport-wide"),
    "tracking.displacement_stats_s": ("s", "lower", "generate_s", "transport-wide"),
    "tracking.exited": ("count", "lower", "generate_s", "transport-wide"),
    "tracking.stagnant": ("count", "lower", "generate_s", "transport-wide"),
    "coarsen.coarse_from_ensemble_s": ("s", "lower", "generate_s", "transport-wide"),
    "coarsen.shift_frame_s": ("s", "lower", "generate_s", "transport-wide"),
    "coarsen.extract_btc_s": ("s", "lower", "generate_s", "transport-wide"),
    "coarsen.retained_mass_min": ("ratio", "higher", "generate_s", "transport-wide"),
    **{f"learning.fit_s.{m}": ("s", "lower", "learn_s, sweep_s (norm_wall_s)",
                               "desk-chain, desk-sweep") for m in PDE_MODELS},
    "learning.warm_start_s": ("s", "lower", "learn_s, sweep_s (norm_wall_s)",
                              "desk-chain, desk-sweep"),
    **{f"learning.loss_grad_calls.{m}": ("count", "lower", "learn_s, sweep_s (norm_wall_s)",
                                         "desk-chain, desk-sweep") for m in PDE_MODELS},
    **{f"learning.loss_calls.{m}": ("count", "lower", "learn_s, sweep_s (norm_wall_s)",
                                    "desk-chain, desk-sweep") for m in PDE_MODELS},
    "learning.loss_grad_s": ("s", "lower", "learn_s, sweep_s (norm_wall_s)",
                             "desk-chain, desk-sweep"),
    "learning.loss_s": ("s", "lower", "learn_s, sweep_s (norm_wall_s)",
                        "desk-chain, desk-sweep"),
    **{f"lbfgs.iterations.{m}": ("count", "lower", "learn_s, sweep_s (norm_wall_s)",
                                 "desk-chain, desk-sweep") for m in PDE_MODELS},
    **{f"lbfgs.grad_norm.{m}": ("norm", "lower", "learn_s, sweep_s (norm_wall_s)",
                                "desk-chain, desk-sweep") for m in PDE_MODELS},
    "nonlocal_diffusion.solve_s": ("s", "lower", "predict_s, sweep_s (norm_wall_s)",
                                   "desk-chain, desk-sweep"),
    "baselines.train_surrogate_s": ("s", "lower", "learn_s (norm_wall_s)", "desk-chain"),
    "baselines.epochs_per_s": ("1/s", "higher", "learn_s (norm_wall_s)", "desk-chain"),
    "baselines.solve_fractal_s": ("s", "lower", "predict_s (norm_wall_s)", "desk-chain"),
    "baselines.solve_classical_s": ("s", "lower", "predict_s, sweep_s (norm_wall_s)",
                                    "desk-chain, desk-sweep"),
    **{f"experiment.run_{c}_s": ("s", "lower", f"{c}_s", "all")
       for c in ("generate", "learn", "predict", "report")},
    **{f"experiment.run_{c}_self_s": ("s", "lower", f"{c}_s", "all")
       for c in ("generate", "learn", "predict", "report")},
    "trace.overhead_s": ("s", "lower", "none (tracer cost)", "all"),
    "trace.wrapped_calls": ("count", "lower", "none (tracer cost)", "all"),
}


# --- spans --------------------------------------------------------------------


def _flow_attrs(args, kwargs, flow) -> dict:
    darcy = sys.modules[f"{PACKAGE}.darcy"]
    return {"unknowns": flow.grid_nx * flow.grid_ny,
            "max_rel_divergence": darcy.max_relative_divergence(flow)}


def _ensemble_attrs(args, kwargs, ensemble) -> dict:
    """Sizes and final status; status counted independently per snapshot."""
    t = ensemble.snapshot_times[:, None]
    active = ((ensemble.exit_time[None, :] > t)
              & (ensemble.stagnant_time[None, :] > t)).sum(axis=1)
    _, exited, stagnant = ensemble.status_counts()
    total = active + exited + stagnant
    return {"particles": int(ensemble.num_particles),
            "snapshots": int(len(ensemble.snapshot_times)),
            "positions_mb": ensemble.positions.nbytes / 2**20,
            "exited": int(exited[-1]), "stagnant": int(stagnant[-1]),
            "status_sum_ok": bool(np.all(total == ensemble.num_particles))}


def _coarse_attrs(args, kwargs, coarse) -> dict:
    """Minimum density and the mass the window averages retain per snapshot.

    Windows start at cells 0, m, 2m, ... tile the domain without overlap
    (the last one is cut at the outlet), so their masses add up to the
    in-domain mass exactly.
    """
    _, spec, m = args
    starts = np.arange(0, coarse.num_cells, m)
    widths = np.minimum(m, coarse.num_cells - starts)
    mass = (coarse.values[starts, :] * widths[:, None]).sum(axis=0) \
        * spec.cell_width * spec.layer_height
    return {"density_min": float(coarse.values.min()),
            "retained_mass_min": float(mass.min()),
            "retained_mass_max": float(mass.max())}


def _fit_attrs(args, kwargs, result) -> dict:
    return {"model": args[0].model, "iterations": result.iterations,
            "gradient_norm": result.gradient_norm, "message": result.message,
            "converged": result.converged}


#: Calls whose arguments and result the metrics need.  They are held until
#: ``Tracer.digest`` reduces them to numbers, outside any span.
REDUCERS = {
    "darcy.solve_medium": _flow_attrs,
    "darcy.solve_darcy": _flow_attrs,
    "tracking.track": _ensemble_attrs,
    "coarsen.coarse_from_ensemble": _coarse_attrs,
    "learning.fit": _fit_attrs,
    "baselines.train_surrogate": lambda args, kwargs, net: {
        "epochs": kwargs.get("epochs", 20_000)},
}


class Tracer:
    """Records spans around the ``TARGETS`` while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = None
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        tracer = self
        held = name in REDUCERS

        def traced(*args, **kwargs):
            parent = tracer._stack[-1]["id"] if tracer._stack else None
            span = {"id": len(tracer.spans), "name": name, "parent": parent,
                    "run": tracer.run, "attrs": {}}
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if held:
                span["held"] = (args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short, names in TARGETS.items():
            owner = importlib.import_module(f"{PACKAGE}.{short}")
            for fname in names:
                original = getattr(owner, fname)
                traced = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def digest(self) -> None:
        """Reduce held calls to numbers, releasing their arrays."""
        for span in self.spans:
            held = span.pop("held", None)
            if held is not None:
                span["attrs"].update(REDUCERS[span["name"]](*held))


class SpanIndex:
    """Queries over recorded spans, preferring the workload's own calls."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}

    @staticmethod
    def seconds(span) -> float:
        return span["end"] - span["start"]

    def ancestors(self, span):
        while span["parent"] is not None:
            span = self.by_id[span["parent"]]
            yield span

    def outermost(self, span, name):
        found = None
        for ancestor in self.ancestors(span):
            if ancestor["name"] == name:
                found = ancestor
        return found

    def select(self, name, runs=("own", "reference"), exclude_under=()):
        """Spans of ``name`` from the first of ``runs`` that has any."""
        for run in runs:
            found = [s for s in self.spans if s["name"] == name and s["run"] == run
                     and not any(a["name"] in exclude_under
                                 for a in self.ancestors(s))]
            if found:
                return found
        return []

    def total(self, name, **kw) -> float | None:
        found = self.select(name, **kw)
        return sum(map(self.seconds, found)) if found else None

    def self_seconds(self, span) -> float:
        children = [s for s in self.spans if s["parent"] == span["id"]]
        return self.seconds(span) - sum(map(self.seconds, children))


def layer_metrics(index: SpanIndex) -> tuple[dict, dict]:
    """Per-layer metric values and the fits' stop messages."""
    m = {}

    def put(name, value):
        if value is not None:
            m[name] = value

    full = index.select("darcy.solve_medium", exclude_under=("darcy.solve_unit_cell",))
    put("darcy.solve_medium_s", sum(map(index.seconds, full)) if full else None)
    if full:
        m["darcy.unknowns"] = full[-1]["attrs"]["unknowns"]
        m["darcy.max_rel_divergence"] = max(s["attrs"]["max_rel_divergence"] for s in full)
    put("medium.build_conductivity_s", index.total(
        "medium.build_conductivity", exclude_under=("darcy.solve_unit_cell",)))
    cg = index.select("darcy.solve_darcy", runs=("probe-cg",))
    if cg:
        m["darcy.cg_solve_s"] = index.seconds(cg[0])
        m["darcy.cg_max_rel_divergence"] = cg[0]["attrs"]["max_rel_divergence"]

    put("tracking.inject_s", index.total("tracking.inject"))
    tracks = index.select("tracking.track")
    if tracks:
        seconds = sum(map(index.seconds, tracks))
        work = sum(s["attrs"]["particles"] * s["attrs"]["snapshots"] for s in tracks)
        m["tracking.track_s"] = seconds
        m["tracking.particle_snapshots_per_s"] = work / seconds
        m["tracking.positions_mb"] = max(s["attrs"]["positions_mb"] for s in tracks)
        m["tracking.exited"] = sum(s["attrs"]["exited"] for s in tracks)
        m["tracking.stagnant"] = sum(s["attrs"]["stagnant"] for s in tracks)
    put("tracking.displacement_stats_s", index.total("tracking.displacement_stats"))
    coarse = index.select("coarsen.coarse_from_ensemble")
    put("coarsen.coarse_from_ensemble_s", index.total("coarsen.coarse_from_ensemble"))
    if coarse:
        m["coarsen.retained_mass_min"] = min(s["attrs"]["retained_mass_min"] for s in coarse)
    put("coarsen.shift_frame_s", index.total("coarsen.shift_frame"))
    put("coarsen.extract_btc_s", index.total("coarsen.extract_btc"))

    # A fit and every loss evaluation belong to the outermost fit around
    # them, so the nonlocal fit owns its classical warm-start pre-fit.
    messages = {}
    for model in PDE_MODELS:
        fits = _top_fits(index, model)
        if not fits:
            continue
        ids = {s["id"] for s in fits}
        run = fits[0]["run"]
        m[f"learning.fit_s.{model}"] = sum(map(index.seconds, fits))
        for metric, fname in (("loss_grad_calls", "learning.loss_and_gradient"),
                              ("loss_calls", "learning.evaluate_loss")):
            m[f"learning.{metric}.{model}"] = sum(
                1 for s in index.spans if s["name"] == fname and s["run"] == run
                and (index.outermost(s, "learning.fit") or {}).get("id") in ids)
        m[f"lbfgs.iterations.{model}"] = sum(s["attrs"]["iterations"] for s in fits)
        m[f"lbfgs.grad_norm.{model}"] = max(s["attrs"]["gradient_norm"] for s in fits)
        messages[model] = [{"message": s["attrs"]["message"],
                            "iterations": s["attrs"]["iterations"],
                            "gradient_norm": s["attrs"]["gradient_norm"],
                            "converged_flag": s["attrs"]["converged"]} for s in fits]
    put("learning.warm_start_s", index.total("learning.warm_start_raw"))
    for metric, fname in (("loss_grad_s", "learning.loss_and_gradient"),
                          ("loss_s", "learning.evaluate_loss")):
        probes = index.select(fname, runs=("probe-loss",))
        if probes:
            m[f"learning.{metric}"] = statistics.median(map(index.seconds, probes))

    local = ("baselines.solve_fractal", "baselines.solve_classical")
    put("nonlocal_diffusion.solve_s", index.total(
        "nonlocal_diffusion.solve", exclude_under=local + ("learning.fit",)))
    surrogate = index.select("baselines.train_surrogate")
    if surrogate:
        seconds = sum(map(index.seconds, surrogate))
        m["baselines.train_surrogate_s"] = seconds
        m["baselines.epochs_per_s"] = sum(s["attrs"]["epochs"] for s in surrogate) / seconds
    put("baselines.solve_fractal_s", index.total(
        "baselines.solve_fractal", exclude_under=("baselines.solve_classical",)))
    put("baselines.solve_classical_s", index.total("baselines.solve_classical"))

    put("config.load_s", _median_seconds(index, index.select("config.load_config")))
    for command in ("generate", "learn", "predict", "report"):
        spans = index.select(f"experiment.run_{command}")
        if spans:
            m[f"experiment.run_{command}_s"] = sum(map(index.seconds, spans))
            m[f"experiment.run_{command}_self_s"] = sum(map(index.self_seconds, spans))
    return m, messages


def _top_fits(index: SpanIndex, model: str) -> list:
    """Outermost fits of ``model``: the workload's own, else the reference's."""
    for run in ("own", "reference"):
        fits = [s for s in index.select("learning.fit", runs=(run,))
                if s["attrs"]["model"] == model
                and index.outermost(s, "learning.fit") is None]
        if fits:
            return fits
    return []


def _median_seconds(index, spans):
    return statistics.median(map(index.seconds, spans)) if spans else None


# --- the traced run -----------------------------------------------------------


def _import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"{PACKAGE} imported from {package.__file__}, not {SRC}")
    importlib.import_module(f"{PACKAGE}.cli")
    return {short: importlib.import_module(f"{PACKAGE}.{short}") for short in TARGETS}


def _own_calls(mods, workload: Workload, config: Path, seed: int) -> dict:
    """The workload's commands, in process; returns the loaded config.

    Sweep jobs run one after another here (learn then predict per job, as
    the sweep's workers do), because spans recorded in worker processes
    would not reach this one.
    """
    cfg = mods["config"].load_config(config, {"seed": seed})
    ex = mods["experiment"]
    if workload.name == "desk-sweep":
        ex.run_generate(cfg)
        for job, (tt, model) in zip(sweep_job_names(cfg.raw), (
                (tt, model) for tt in cfg.sweep_tt_values for model in cfg.sweep_models)):
            job_cfg = mods["config"].load_config(config, {
                "seed": seed, "tt": tt, "model": model,
                "out": str(cfg.output_dir / "sweep" / job)})
            ex.run_learn(job_cfg, dataset_dir=cfg.output_dir)
            ex.run_predict(job_cfg, dataset_dir=cfg.output_dir)
        return cfg
    for command in workload.commands:
        getattr(ex, f"run_{command}")(cfg)
    return cfg


def _desk_problem(mods, cfg, dataset: Path):
    """The desk nonlocal learning problem, built as ``run_learn`` builds it."""
    coarsen, learning = mods["coarsen"], mods["learning"]
    curves, _ = coarsen.load_btc_dataset(dataset)
    n = cfg.n_train_steps
    train = tuple(coarsen.BreakthroughCurve(location=c.location, times=c.times[:n],
                                            values=c.values[:n])
                  for c in curves
                  if any(abs(c.location - x) < 1e-9 for x in cfg.train_locations))
    return learning.LearningProblem(
        curves=train, beta=cfg.beta, model="nonlocal",
        horizon_cells=cfg.horizon_cells, cell_width=cfg.medium.cell_width,
        num_cells=cfg.medium.num_cells, injection_cell=cfg.model_injection_cell,
        dt=cfg.record_dt, n_steps=n, history=cfg.history,
        max_iterations=cfg.max_iterations,
        gradient_tolerance=cfg.gradient_tolerance)


def traced_run(workload: Workload, seed: int, run_dir: Path):
    """Run the workload in process twice (traced, untraced) plus the probes.

    Layers the workload itself does not run are measured on the desk chain
    (the "reference" calls), so every trace reports every per-layer metric;
    the workload's own values take precedence.
    """
    mods = _import_package()
    checks = Checks()
    tracer = Tracer()
    traced_cfg = write_config(workload, run_dir / "traced" / "out",
                              run_dir / "traced" / "config.yaml")
    plain_cfg = write_config(workload, run_dir / "plain" / "out",
                             run_dir / "plain" / "config.yaml")

    tracer.install()
    tracer.run = "own"
    start = time.perf_counter()
    cfg = _own_calls(mods, workload, traced_cfg, seed)
    traced_s = time.perf_counter() - start
    tracer.uninstall()
    tracer.digest()

    start = time.perf_counter()
    _own_calls(mods, workload, plain_cfg, seed)
    plain_s = time.perf_counter() - start

    for command in workload.setup_commands + workload.commands:
        check_command_outputs(checks, command, cfg.output_dir, cfg.raw)
        for first in compared_artifacts(command, cfg.output_dir, cfg.raw):
            check_same_numbers(checks, f"traced vs untraced {command}", first,
                               run_dir / "plain" / "out" / first.relative_to(cfg.output_dir))

    desk = WORKLOADS["desk-chain"]
    tracer.install()
    tracer.run = "reference"
    if workload.name == "transport-wide":
        desk_cfg = _own_calls(mods, desk, write_config(
            desk, run_dir / "reference" / "out", run_dir / "reference" / "config.yaml"), seed)
        for command in desk.commands:
            check_command_outputs(checks, command, desk_cfg.output_dir, desk_cfg.raw)
        desk_dataset = desk_cfg.output_dir / "dataset.csv"
    else:
        desk_cfg, desk_dataset = cfg, cfg.output_dir / "dataset.csv"
    if workload.name == "desk-sweep":
        # the sweep fits no fractal or MLP model and writes no report
        rest = replace(desk, overrides={"learning": {"models": ["fractal", "mlp"]}})
        ref_cfg = mods["config"].load_config(write_config(
            rest, run_dir / "reference" / "out", run_dir / "reference" / "config.yaml"),
            {"seed": seed})
        ex = mods["experiment"]
        ex.run_learn(ref_cfg, dataset_dir=cfg.output_dir)
        ex.run_predict(ref_cfg, dataset_dir=cfg.output_dir)
        ex.run_report(ref_cfg)
        for command in ("predict", "report"):
            check_command_outputs(checks, command, ref_cfg.output_dir, ref_cfg.raw)

    tracer.run = "probe-cg"
    spec = desk_cfg.medium
    cond = mods["medium"].build_conductivity(spec, desk_cfg.grid_nx, desk_cfg.grid_ny)
    mods["darcy"].solve_darcy(cond, spec, direct_max_unknowns=0)
    tracer.run = "probe-loss"
    problem = _desk_problem(mods, desk_cfg, desk_dataset)
    raw0 = mods["learning"].initial_raw(problem)
    for _ in range(5):
        mods["learning"].loss_and_gradient(problem, raw0)
        mods["learning"].evaluate_loss(problem, raw0)
    tracer.uninstall()
    tracer.digest()

    index = SpanIndex(tracer.spans)
    metrics, messages = layer_metrics(index)
    metrics["cli.import_s"] = statistics.median(
        import_seconds(run_dir / f"import{k}.log") for k in range(3))
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.wrapped_calls"] = sum(s["run"] == "own" for s in tracer.spans)
    _check_invariants(checks, index)
    missing = sorted(set(LAYER_METRICS) - set(metrics))
    checks.record("every per-layer metric measured", not missing, ", ".join(missing))
    extra = {"fits": messages,
             "overhead": {"traced_s": traced_s, "untraced_s": plain_s,
                          "overhead_s": traced_s - plain_s,
                          "overhead_share": (traced_s - plain_s) / plain_s},
             "spans": tracer.spans}
    return metrics, checks, extra


def _check_invariants(checks: Checks, index: SpanIndex) -> None:
    """Invariants read from the traced calls' results.

    The CG probe's divergence is recorded but not gated: it sits above the
    gate at the desk grid, and no workload runs the CG path.
    """
    for span in index.spans:
        attrs, where = span["attrs"], f"({span['run']} run)"
        if span["name"] == "darcy.solve_medium" and span["run"] != "probe-cg" and not any(
                a["name"] == "darcy.solve_unit_cell" for a in index.ancestors(span)):
            checks.record(f"Darcy divergence <= {DIVERGENCE_GATE:g} at "
                          f"{attrs['unknowns']} unknowns {where}",
                          attrs["max_rel_divergence"] <= DIVERGENCE_GATE,
                          repr(attrs["max_rel_divergence"]))
        elif span["name"] == "tracking.track":
            checks.record(f"active + exited + stagnant = num_particles at every "
                          f"snapshot {where}", attrs["status_sum_ok"])
        elif span["name"] == "coarsen.coarse_from_ensemble":
            checks.record(f"coarse density nonnegative {where}",
                          attrs["density_min"] >= 0.0, repr(attrs["density_min"]))
            checks.record(f"retained mass <= 1 {where}",
                          attrs["retained_mass_max"] <= 1.0 + 1e-12,
                          repr(attrs["retained_mass_max"]))
