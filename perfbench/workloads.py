"""Workloads, the CLI runner, output checks and run metadata.

Every workload is ``configs/desk.yaml`` plus a few overrides, run through
the real ``nltrans`` CLI (``python -m nonlocal_transport.cli``), one process
per command, with the workload seed passed as ``--seed``.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DESK_CONFIG = ROOT / "configs" / "desk.yaml"
WORK = ROOT / ".perfbench_work"

#: A command that runs longer than this is killed (with its sweep workers)
#: and counted as failed, so a hung command cannot stall the whole run.
COMMAND_TIMEOUT_S = 170.0

#: Largest Darcy divergence a direct solve may leave (ROADMAP item 3).
DIVERGENCE_GATE = 1e-9


#: desk-chain's overrides of the desk learning settings: fixed, smaller
#: amounts of fitting work.  Uncapped, the desk nonlocal fit stops by loss
#: stagnation after 92 to 140 L-BFGS iterations depending on the seed, so
#: its cost varied by half between seeds; every seed tried needs more than
#: 60, so at the cap each seed does the same number of iterations.  Capped
#: at 80 with the full 20000 MLP epochs, one chain took 25-42 s, a run held
#: one, and runs spread 0.23; at this size a run holds two to four.
DESK_CHAIN_LEARNING = {"max_iterations": 60, "mlp": {"epochs": 5000}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict        # deep-merged into configs/desk.yaml
    setup_commands: tuple  # CLI commands run untimed during set-up
    commands: tuple        # the timed command sequence


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk-chain",
        "the paper's desk-scale chain generate-learn-predict-report with the "
        "nonlocal fit held to 60 L-BFGS iterations and the MLP to 5000 epochs",
        {"learning": DESK_CHAIN_LEARNING}, (),
        ("generate", "learn", "predict", "report")),
    Workload(
        "transport-wide",
        "generate only on a 120-cell, 192k-unknown, 40k-particle medium: "
        "Darcy, tracking and coarsening do all the work and peak RSS is "
        "set by tracking",
        {"medium": {"num_cells": 120, "head_left": 26.0},
         "grid": {"nx": 2400, "ny": 80},
         "tracking": {"num_particles": 40000}},
        (), ("generate",)),
    Workload(
        "desk-sweep",
        "sweep over tt in {18, 36} x {nonlocal, classical} with 2 workers "
        "on the desk dataset: learning under 2-core contention, no MLP",
        {}, ("generate",), ("sweep",)),
)}


def require_sources() -> None:
    """Exit with code 2 unless the checkout holds the program's sources."""
    missing = [p for p in (SRC / "nonlocal_transport" / "cli.py", DESK_CONFIG)
               if not p.is_file()]
    if missing:
        print("perfbench: the program is missing from this checkout: "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing),
              file=sys.stderr)
        sys.exit(2)


def child_env() -> dict:
    """Environment for command processes: this checkout's sources first."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _merge(base: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        if isinstance(value, dict):
            _merge(base.setdefault(key, {}), value)
        else:
            base[key] = value
    return base


def workload_config(workload: Workload, out_dir: Path) -> dict:
    import yaml

    data = yaml.safe_load(DESK_CONFIG.read_text())
    data = _merge(copy.deepcopy(data), workload.overrides)
    data["output_dir"] = str(out_dir)
    return data


def write_config(workload: Workload, out_dir: Path, path: Path) -> Path:
    import yaml

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(workload_config(workload, out_dir),
                                   sort_keys=False))
    return path


@dataclass
class CommandRun:
    command: str
    seconds: float
    cpu_seconds: float
    peak_rss_mb: float
    returncode: int


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list, log_path: Path) -> tuple[float, float, float, int]:
    """Run ``argv`` to completion; return (wall s, CPU s, peak RSS MB, exit code).

    The child gets its own session, so a timeout kills it together with any
    workers it started.  ``wait4`` reports the CPU time and the largest RSS
    of the child and of the descendants it waited for, which covers the
    sweep's workers.  CPU time leaves out time the virtual CPU was stolen
    by the host, which wall time includes.
    """
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def run_cli(command: str, config: Path, seed: int, log_path: Path) -> CommandRun:
    argv = [sys.executable, "-m", "nonlocal_transport.cli", command,
            "--config", str(config), "--seed", str(seed)]
    seconds, cpu, rss, code = run_process(argv, log_path)
    if code != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        print(f"perfbench: '{command}' exited {code}:\n{tail}", file=sys.stderr)
    return CommandRun(command, seconds, cpu, rss, code)


def warm_import(log_path: Path) -> float:
    """Import the CLI once in a fresh process: compiles bytecode, fills caches."""
    seconds, _, _, code = run_process(
        [sys.executable, "-c", "import nonlocal_transport.cli"], log_path)
    if code != 0:
        raise RuntimeError(f"importing the CLI failed; see {log_path}")
    return seconds


def import_seconds(log_path: Path) -> float:
    """Time spent importing ``nonlocal_transport.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            "import nonlocal_transport.cli; "
            "print(repr(time.perf_counter() - t))")
    _, _, _, rc = run_process([sys.executable, "-c", code], log_path)
    if rc != 0:
        raise RuntimeError(f"importing the CLI failed; see {log_path}")
    return float(log_path.read_text().split()[-1])


# --- host speed ---------------------------------------------------------------

#: Seconds one timing of the calibration kernel takes at the nominal host
#: speed (about that of a shared 2-vCPU Xeon VM in a quiet minute).  The
#: declared times are scaled to it.
CALIBRATION_NOMINAL_S = 0.11


class Calibration:
    """A fixed kernel, timed between commands, that measures the host's speed.

    On a shared 2-vCPU VM the virtual CPUs run up to twice as slow when
    neighbours load the host, in phases that last minutes, so runs minutes
    apart differ far more than repetitions inside one run.  The probe's work never changes
    and uses no code of the program: memory streaming, a random gather and
    an interpreter loop, about 0.04 s each at the nominal speed, all
    single-threaded (a BLAS call would leave worker threads spinning
    on the other virtual CPU while the next command runs).
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._vector = rng.random(2_000_000)
        self._buffer = np.empty_like(self._vector)
        self._index = rng.integers(0, self._vector.size, 500_000)
        self.samples: list[float] = []
        self._kernel()  # first-call set-up and page faults stay untimed

    def _kernel(self) -> None:
        import numpy as np

        for _ in range(6):
            np.multiply(self._vector, 1.0001, out=self._buffer)
            self._buffer += 1.0
        for _ in range(3):
            self._vector.take(self._index).sum()
        total = 0
        for i in range(400_000):
            total += i * i

    def probe(self) -> None:
        """Time the kernel three times, recording each."""
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at the
        nominal host speed, judged by the median of the run's probes."""
        return CALIBRATION_NOMINAL_S / statistics.median(self.samples)


# --- output checks ----------------------------------------------------------


@dataclass
class Checks:
    """Named pass/fail results; their counts make up ``fail_ratio``."""

    results: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"perfbench: check failed: {name} {detail}", file=sys.stderr)

    def guard(self, name: str, fn) -> None:
        """Record ``fn()`` (returning ok or (ok, detail)); errors fail it."""
        try:
            outcome = fn()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return
        ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
        self.record(name, ok, detail)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def read_rows(path: Path) -> list[dict]:
    """CSV rows as dicts, skipping ``#`` comment lines (provenance)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def numeric_content(path: Path):
    """A CSV or JSON artifact with provenance dropped and numbers parsed.

    ``config_sha256`` hashes ``output_dir``, so two runs into different
    directories differ in provenance only; comparing this content instead
    of bytes tells whether their numbers agree.
    """
    if path.suffix == ".json":
        record = json.loads(path.read_text())
        record.pop("provenance", None)
        return record
    return [{k: _number(v) for k, v in row.items()} for row in read_rows(path)]


def _finite_numbers(value, where="") -> list[str]:
    """Paths of JSON values that are not finite numbers (bools, text skipped)."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _finite_numbers(v, f"{where}/{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _finite_numbers(v, f"{where}/{i}")]
    if isinstance(value, bool) or isinstance(value, str):
        return []
    if value is None or not math.isfinite(value):
        return [where or "/"]
    return []


def check_status_counts(path: Path, num_particles: int):
    rows = read_rows(path)
    bad = [r["t"] for r in rows
           if int(r["n_active"]) + int(r["n_exited"]) + int(r["n_stagnant"])
           != num_particles]
    return not bad and bool(rows), f"{len(bad)} of {len(rows)} snapshots off"


def check_density(path: Path):
    values = [float(r["value"]) for r in read_rows(path)]
    bad = sum(not (math.isfinite(v) and v >= 0.0) for v in values)
    return bad == 0 and bool(values), f"{bad} of {len(values)} negative or non-finite"


def check_mse_table(path: Path):
    values = [float(r["mse"]) for r in read_rows(path)]
    bad = sum(not math.isfinite(v) for v in values)
    return bad == 0 and bool(values), f"{bad} of {len(values)} non-finite"


def check_report(path: Path):
    bad = _finite_numbers(json.loads(path.read_text()))
    return not bad, ", ".join(bad[:5])


def check_command_outputs(checks: Checks, command: str, out: Path,
                          cfg: dict) -> None:
    """The checks that follow one finished CLI command."""
    if command == "generate":
        num_particles = cfg["tracking"]["num_particles"]
        checks.guard("status counts sum to num_particles at every snapshot",
                     lambda: check_status_counts(out / "msd_fine.csv", num_particles))
        checks.guard("coarse density finite and nonnegative",
                     lambda: check_density(out / "density_profiles.csv"))
    elif command == "predict":
        checks.guard("mse_table.csv finite", lambda: check_mse_table(out / "mse_table.csv"))
    elif command == "report":
        checks.guard("report.json finite", lambda: check_report(out / "report.json"))
    elif command == "sweep":
        for job in sweep_job_names(cfg):
            table = out / "sweep" / job / "mse_table.csv"
            checks.guard(f"sweep job {job} wrote a finite mse_table.csv",
                         lambda table=table: check_mse_table(table))


def sweep_job_names(cfg: dict) -> list[str]:
    """Job directory names, as ``run_sweep`` forms them."""
    sweep = cfg.get("sweep", {})
    return [f"tt{float(tt):g}_{model}" for tt in sweep.get("tt_values", ())
            for model in sweep.get("models", ())]


def compared_artifacts(command: str, out: Path, cfg: dict) -> list[Path]:
    """Artifacts whose numbers must repeat exactly when a command is rerun."""
    if command == "generate":
        return [out / "dataset.csv", out / "msd_fine.csv"]
    if command == "learn":
        return [out / f"fit_{m}.json" for m in cfg["learning"]["models"]]
    if command == "predict":
        return [out / "mse_table.csv"]
    if command == "report":
        return [out / "report.json"]
    if command == "sweep":
        return [out / "sweep" / job / "mse_table.csv" for job in sweep_job_names(cfg)]
    return []


def check_same_numbers(checks: Checks, label: str, first: Path, other: Path) -> None:
    checks.guard(f"{label}: {first.name} numbers repeat",
                 lambda: numeric_content(first) == numeric_content(other))


# --- fit quality --------------------------------------------------------------


def fit_quality(mse_table: Path) -> dict:
    """Nonlocal held-out test MSE (mean) and its win share over both locals."""
    test = {}
    for row in read_rows(mse_table):
        if row["window"] == "test" and row["location_role"] == "held-out":
            test[(row["model"], float(row["location"]))] = float(row["mse"])
    locations = sorted(x for m, x in test if m == "nonlocal")
    wins = [all(test[("nonlocal", x)] < test[(rival, x)]
                for rival in ("classical", "fractal")) for x in locations]
    return {"nonlocal_test_mse": sum(test[("nonlocal", x)] for x in locations)
            / len(locations),
            "nonlocal_win_frac": sum(wins) / len(wins)}


# --- run metadata -------------------------------------------------------------

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    """Hash of the package sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "nonlocal_transport").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_metadata(workload: str, seed: int, trace: bool, seconds: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "platform": platform.platform(),
    }
