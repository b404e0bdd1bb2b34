"""Benchmark of the nltrans pipeline: time-to-report, memory and fit quality.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload desk-chain --seed 7 --seconds 50 --trace 0

``--trace 0`` times the workload through the real CLI, one process per
command, and reports the end-to-end metrics.  ``--trace 1`` runs the same
calls in this process with spans around every module's public functions
and reports the per-layer metrics instead (see ``tracer.py``).  Either way
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with the run
metadata, goes to ``.perfbench_work/results/``.  See README.md here for the
workloads and for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    WORK, WORKLOADS, Calibration, Checks, check_command_outputs, check_same_numbers,
    compared_artifacts, fit_quality, require_sources, run_cli, run_metadata,
    warm_import, workload_config, write_config,
)

#: Independent set-ups per run; set-up time is their median.
SETUPS = 3

END_TO_END_UNITS = {"norm_wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
REPORTED_UNITS = {"fail_ratio": "ratio", "nonlocal_test_mse": "mse",
                  "nonlocal_win_frac": "ratio", "nonlocal_iterations": "count"}


def _set_up(workload, seed, run_dir: Path, k: int):
    """One independent set-up: config, warm import, untimed commands."""
    base = run_dir / f"setup{k}"
    out = base / "out"
    start = time.perf_counter()
    config = write_config(workload, out, base / "config.yaml")
    warm_import(base / "warm_import.log")
    runs = [run_cli(command, config, seed, base / f"{command}.log")
            for command in workload.setup_commands]
    return time.perf_counter() - start, config, out, runs


def _check_repeat(checks, label, command, first_out: Path, out: Path, raw) -> None:
    """A rerun into another directory must reproduce the first run's numbers."""
    if out == first_out:
        return
    for first in compared_artifacts(command, first_out, raw):
        check_same_numbers(checks, label, first, out / first.relative_to(first_out))


def timed_run(workload, seed: int, seconds: float, run_dir: Path):
    """Set up ``SETUPS`` times, then repeat the timed commands for ``seconds``.

    A calibration probe runs before every set-up and every command and once
    at the end; the times in ``metrics`` are scaled by the probes' median to
    the nominal host speed, and the raw times are reported beside them.
    """
    checks = Checks()
    calibration = Calibration()
    setups = []
    for k in range(SETUPS):
        calibration.probe()
        setups.append(_set_up(workload, seed, run_dir, k))
    durations, cpu_times = {}, {}
    for k, (_, _, out, runs) in enumerate(setups):
        raw = workload_config(workload, out)
        for run in runs:
            durations.setdefault(run.command, []).append(run.seconds)
            cpu_times.setdefault(run.command, []).append(run.cpu_seconds)
            checks.record(f"setup '{run.command}' exits 0", run.returncode == 0,
                          f"exit {run.returncode}")
            check_command_outputs(checks, run.command, out, raw)
            _check_repeat(checks, f"set-up {k + 1} vs set-up 1", run.command,
                          setups[0][2], out, raw)

    walls, cpus, peaks = [], [], []
    timed_start = time.perf_counter()
    while not walls or (time.perf_counter() - timed_start
                        + statistics.median(walls) <= seconds):
        _, config, out, _ = setups[len(walls) % SETUPS]
        raw = workload_config(workload, out)
        log_dir = run_dir / f"rep{len(walls)}"
        runs = []
        for command in workload.commands:
            calibration.probe()
            runs.append(run_cli(command, config, seed, log_dir / f"{command}.log"))
        walls.append(sum(run.seconds for run in runs))
        cpus.append(sum(run.cpu_seconds for run in runs))
        peaks.append(max(run.peak_rss_mb for run in runs))
        for run in runs:
            durations.setdefault(run.command, []).append(run.seconds)
            cpu_times.setdefault(run.command, []).append(run.cpu_seconds)
            checks.record(f"'{run.command}' exits 0", run.returncode == 0,
                          f"exit {run.returncode}")
            check_command_outputs(checks, run.command, out, raw)
            _check_repeat(checks, f"rep {len(walls)} vs rep 1", run.command,
                          setups[0][2], out, raw)
        if len(walls) == 1 and "predict" in workload.commands:
            try:
                quality = fit_quality(out / "mse_table.csv")
                quality["nonlocal_iterations"] = json.loads(
                    (out / "fit_nonlocal.json").read_text())["iterations"]
            except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
                checks.record("fit quality readable from mse_table.csv and "
                              "fit_nonlocal.json", False, str(exc))
                quality = {}

    calibration.probe()

    scale = calibration.scale()
    setup_s = statistics.median(s[0] for s in setups)
    metrics = {"norm_wall_s": scale * statistics.median(walls),
               "peak_rss_mb": statistics.median(peaks),
               "setup_s": scale * setup_s}
    reported = {"wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "raw_setup_s": setup_s,
                "calibration_s": statistics.median(calibration.samples)}
    reported.update({f"{c}_s": statistics.median(v) for c, v in durations.items()})
    reported.update({f"{c}_cpu_s": statistics.median(v) for c, v in cpu_times.items()})
    reported["fail_ratio"] = checks.failed / checks.attempted
    if "predict" in workload.commands:
        reported.update(quality)
    extra = {"reported": reported, "repetitions": len(walls),
             "samples": {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": peaks,
                         "raw_setup_s": [s[0] for s in setups],
                         "calibration_s": calibration.samples, **{
                             f"{c}_s": v for c, v in durations.items()}}}
    return metrics, checks, extra


def _print_table(metrics: dict, units: dict, title: str, notes=None) -> None:
    print(title)
    for name, value in metrics.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:<36} {value:>14.6g} {units.get(name, 's'):<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()

    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / "runs" / f"{label}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    metadata = run_metadata(workload.name, args.seed, bool(args.trace), args.seconds)
    try:
        if args.trace:
            from tracer import LAYER_METRICS, traced_run
            metrics, checks, extra = traced_run(workload, args.seed, run_dir)
            units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
            targets = {name: f"-> {spec[2]} on {spec[3]}"
                       for name, spec in LAYER_METRICS.items()}
            metrics = {name: metrics[name] for name in LAYER_METRICS if name in metrics}
        else:
            metrics, checks, extra = timed_run(workload, args.seed, args.seconds, run_dir)
            units, targets = END_TO_END_UNITS, {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"perfbench {workload.name}: {workload.why}")
    print(json.dumps({k: metadata[k] for k in (
        "seed", "python", "numpy", "scipy", "nproc", "thread_env", "git_commit",
        "source_sha256")}))
    _print_table(metrics, units, "metrics:", targets)
    if not args.trace:
        _print_table(extra["reported"], REPORTED_UNITS,
                     "per-command and quality figures (this workload only):")
    else:
        for model, fits in extra["fits"].items():
            for fit in fits:
                print(f"  fit {model}: stopped by '{fit['message']}' after "
                      f"{fit['iterations']} iterations, gradient norm "
                      f"{fit['gradient_norm']:.3g}")
        print(f"  trace overhead: {extra['overhead']['overhead_s']:.3f} s "
              f"({100 * extra['overhead']['overhead_share']:.2f}% of the "
              f"untraced {extra['overhead']['untraced_s']:.2f} s)")
    print(f"checks: {checks.attempted - checks.failed}/{checks.attempted} passed")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"metadata": metadata, "metrics": metrics, "checks": checks.results,
              **extra}
    (results / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
