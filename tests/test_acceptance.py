"""Top-level acceptance checks for the whole package.

Each test covers one acceptance criterion end to end and prints a single
``[PASS]``/``[FAIL]`` line with the measured quantities (run pytest with
``-s`` to see the lines for passing tests).  The desk-scale pipeline tests
share one CLI run through a module fixture.
"""

import csv
import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from nonlocal_transport import cli
from nonlocal_transport.darcy import max_relative_divergence, solve_medium
from nonlocal_transport.learning import (
    LearningProblem, evaluate_loss, fit, initial_raw, loss_and_gradient,
    softplus, softplus_inverse,
)
from nonlocal_transport.medium import MediumSpec
from nonlocal_transport.nonlocal_diffusion import (
    DynamicKernel, assemble_operator, model_btc, solution_moments, solve,
    unit_spike,
)
from nonlocal_transport.tracking import (
    FlowField, TrackingConfig, linear_slope, log_log_slope,
)
from trajectories import track

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.yaml"


def check(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def dense_from_banded(band, n):
    nd = band.shape[0] // 2
    dense = np.zeros((n, n))
    for offset in range(-nd, nd + 1):
        row = nd - offset
        for col in range(max(0, offset), min(n, n + offset)):
            dense[col - offset, col] = band[row, col]
    return dense


# --- criterion fixtures ----------------------------------------------------


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """One full CLI run of the shipped desk config, shared by three tests."""
    out = tmp_path_factory.mktemp("desk-out")
    start = time.perf_counter()
    for command in ("generate", "learn", "predict", "report"):
        code = cli.main([command, "--config", str(DESK_CONFIG),
                         "--out", str(out)])
        assert code == 0, f"{command} failed"
    elapsed = time.perf_counter() - start
    report = json.loads((out / "report.json").read_text())
    mse = {}
    with open(out / "mse_table.csv") as fh:
        rows = csv.DictReader(r for r in fh if not r.startswith("#"))
        for row in rows:
            key = (row["model"], float(row["location"]), row["window"])
            mse[key] = (float(row["mse"]), row["location_role"])
    return SimpleNamespace(out=out, report=report, mse=mse, elapsed=elapsed)


# --- 1: flow ---------------------------------------------------------------


def test_01_flow_matches_analytic_uniform_medium():
    start = time.perf_counter()
    spec = MediumSpec(kappa_matrix=2.0, kappa_inclusion=2.0, cell_width=0.5,
                      layer_height=1.0, num_cells=8, head_left=3.0)
    flow = solve_medium(spec, 80, 8)
    length = spec.domain_length
    centers = (np.arange(80) + 0.5) * flow.dx
    head_exact = spec.head_left * (1.0 - centers / length)
    head_err = float(np.max(np.abs(flow.head - head_exact[:, None])))
    u_exact = spec.kappa_matrix * spec.head_left / length
    u_err = float(np.max(np.abs(flow.face_velocity_x - u_exact)))
    v_err = float(np.max(np.abs(flow.face_velocity_y)))
    div = float(max_relative_divergence(flow))
    elapsed = time.perf_counter() - start
    ok = head_err < 1e-10 and u_err < 1e-10 and v_err < 1e-10 and div <= 1e-10
    check("flow-analytic", ok,
          f"head err {head_err:.2e}, velocity err {max(u_err, v_err):.2e}, "
          f"divergence {div:.2e} (tol 1e-10) [{elapsed:.2f}s]")


# --- 2: tracking -----------------------------------------------------------


def test_02_tracking_uniform_and_single_cell_exit():
    start = time.perf_counter()
    nx, ny, dx, dy = 10, 4, 0.4, 0.25
    vx = 0.3
    flow = FlowField(grid_nx=nx, grid_ny=ny, dx=dx, dy=dy,
                     face_velocity_x=np.full((nx + 1, ny), vx),
                     face_velocity_y=np.zeros((nx, ny + 1)),
                     head=np.zeros((nx, ny)))
    begin = np.array([[0.11, 0.31], [1.07, 0.52], [2.46, 0.77]])
    cfg = TrackingConfig(injection_cell=1, num_particles=3, dt=0.25,
                         t_end=3.0, rng_seed=0)
    ens = track(flow, begin, cfg)
    uniform_err = 0.0
    for j, t in enumerate(ens.snapshot_times):
        uniform_err = max(
            uniform_err,
            float(np.max(np.abs(ens.positions[j, :, 0] - (begin[:, 0] + vx * t)))),
            float(np.max(np.abs(ens.positions[j, :, 1] - begin[:, 1]))))

    exit_err = 0.0
    for v0, v1 in ((1.7, 0.4), (0.4, 1.7)):
        cell_dx = 0.7
        one = FlowField(grid_nx=1, grid_ny=1, dx=cell_dx, dy=1.0,
                        face_velocity_x=np.array([[v0], [v1]]),
                        face_velocity_y=np.zeros((1, 2)),
                        head=np.zeros((1, 1)))
        ens1 = track(one, np.array([[0.0, 0.5]]),
                     TrackingConfig(injection_cell=1, num_particles=1,
                                    dt=0.05, t_end=2.0, rng_seed=0))
        oracle = cell_dx / (v1 - v0) * math.log(v1 / v0)
        exit_err = max(exit_err,
                       abs(ens1.exit_time[0] - oracle) / oracle)
    elapsed = time.perf_counter() - start
    ok = uniform_err < 1e-12 and exit_err < 1e-10
    check("tracking-oracles", ok,
          f"uniform-flow err {uniform_err:.2e} (tol 1e-12), exit-time rel err "
          f"{exit_err:.2e} (tol 1e-10) [{elapsed:.2f}s]")


# --- 3: implicit stepper vs matrix exponential -----------------------------


def test_03_stepper_first_order_against_matrix_exponential():
    start = time.perf_counter()
    kernel = DynamicKernel(phi=np.array([0.06, 0.21, 0.0, 0.17, 0.09]),
                           p=0.0, horizon_cells=2, cell_width=1.0)
    n, t_final = 16, 0.5
    c0 = unit_spike(n, 8)
    dense = dense_from_banded(assemble_operator(kernel, n), n)
    reference = expm(t_final * dense) @ c0

    def global_error(dt):
        times = np.arange(int(round(t_final / dt)) + 1) * dt
        sol = solve(kernel, c0, times)
        return float(np.max(np.abs(sol.values[:, -1] - reference)))

    ratio = global_error(0.05) / global_error(0.025)
    elapsed = time.perf_counter() - start
    ok = 1.8 <= ratio <= 2.2
    check("stepper-order", ok,
          f"error ratio under dt halving {ratio:.3f} (want [1.8, 2.2]) "
          f"[{elapsed:.2f}s]")


# --- 4: MSD laws -----------------------------------------------------------


def test_04_msd_growth_laws():
    start = time.perf_counter()
    l1 = 1.0
    phi = np.array([0.1, 0.25, 0.0, 0.25, 0.1])
    weights = phi * (np.arange(-2, 3) * l1) ** 2
    rate = float(weights.sum())

    # (a) constant-in-time kernel: affine MSD, slope sum(phi_j (j l1)^2)
    kernel0 = DynamicKernel(phi=phi, p=0.0, horizon_cells=2, cell_width=l1)
    times = np.arange(0, 201) * 0.01
    sol0 = solve(kernel0, unit_spike(101, 51), times)
    mom0 = solution_moments(sol0)
    slope = linear_slope(mom0.times, mom0.msd)
    slope_err = abs(slope - rate) / rate

    # (b) growing kernel t^1.2: MSD ~ t^(p+1)
    kernel1 = DynamicKernel(phi=phi, p=1.2, horizon_cells=2, cell_width=l1)
    times1 = np.arange(0, 501) * 0.01
    sol1 = solve(kernel1, unit_spike(101, 51), times1)
    interior = float(sol1.values[[0, -1], :].max())
    mom1 = solution_moments(sol1)
    loglog = log_log_slope(mom1.times, mom1.msd, t_min=0.5)
    loglog_err = abs(loglog - 2.2) / 2.2
    elapsed = time.perf_counter() - start
    ok = slope_err < 0.01 and loglog_err < 0.02 and interior < 1e-8
    check("msd-laws", ok,
          f"affine slope {slope:.5f} vs {rate:.5f} ({slope_err:.2%}, tol 1%), "
          f"log-log slope {loglog:.4f} vs 2.2 ({loglog_err:.2%}, tol 2%), "
          f"edge mass {interior:.1e} [{elapsed:.2f}s]")


# --- 5: gradients ----------------------------------------------------------


def synthetic_problem(seed=0):
    l1 = 0.5
    kernel = DynamicKernel(phi=np.array([0.01, 0.05, 0.24, 0.0,
                                         0.3, 0.04, 0.02]),
                           p=0.6, horizon_cells=3, cell_width=l1)
    n, dt, steps = 40, 0.1, 60
    times = np.arange(steps + 1) * dt
    sol = solve(kernel, unit_spike(n, 20), times)
    locations = [8.2, 10.3, 12.4]
    curves = model_btc(sol, locations)
    return LearningProblem(curves=tuple(curves), beta=40.0, model="nonlocal",
                           horizon_cells=3, cell_width=l1, num_cells=n,
                           injection_cell=20, dt=dt, n_steps=steps)


def test_05_gradient_matches_finite_differences():
    start = time.perf_counter()
    problem = synthetic_problem()
    rng = np.random.default_rng(42)
    h = 1e-6
    worst = 0.0
    base = initial_raw(problem)
    for _ in range(3):
        raw = base + rng.normal(0.0, 0.4, size=base.size)
        raw[-1] = max(raw[-1], -0.5)
        _, grad = loss_and_gradient(problem, raw)
        for k in rng.choice(base.size, size=5, replace=False):
            probe = raw.copy()
            probe[k] += h
            up = evaluate_loss(problem, probe)[0]
            probe[k] -= 2 * h
            down = evaluate_loss(problem, probe)[0]
            fd = (up - down) / (2 * h)
            rel = abs(grad[k] - fd) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5
    check("gradient-fd", ok,
          f"worst relative error {worst:.2e} over 3 points x 5 coordinates "
          f"(tol 1e-5) [{elapsed:.2f}s]")


# --- 6: manufactured recovery ----------------------------------------------


def test_06_manufactured_kernel_recovery():
    start = time.perf_counter()
    l1 = 0.5773502691896258
    n, dt = 60, 0.1
    full_steps, train_steps = 300, 150
    phi_star = np.array([0.002, 0.01, 0.045, 0.0, 0.045, 0.01, 0.002])
    p_star = 1.2
    kernel = DynamicKernel(phi=phi_star, p=p_star, horizon_cells=3,
                           cell_width=l1)
    times = np.arange(full_steps + 1) * dt
    sol = solve(kernel, unit_spike(n, 30), times)
    locations = [19.0, 17.9, 16.2]
    full_curves = model_btc(sol, locations)
    train_curves = [
        type(c)(location=c.location, times=c.times[:train_steps],
                values=c.values[:train_steps]) for c in full_curves]

    problem = LearningProblem(curves=tuple(train_curves), beta=100.0,
                              model="nonlocal", horizon_cells=3,
                              cell_width=l1, num_cells=n, injection_cell=30,
                              dt=dt, n_steps=train_steps)
    result = fit(problem)
    fitted = result.kernel

    p_err = abs(fitted.p - p_star)
    shifts = np.arange(-3, 4)
    moment_errs = []
    for order in (0, 2, 4):
        target = float((phi_star * (shifts * l1) ** order).sum())
        got = float((fitted.phi * (shifts * l1) ** order).sum())
        moment_errs.append(abs(got - target) / target)

    held_sol = solve(fitted, unit_spike(n, 30), times)
    held_curves = model_btc(held_sol, locations)
    mse_ratio = 0.0
    for ref, got in zip(full_curves, held_curves):
        mask = ref.times > train_steps * dt
        mse = float(np.mean((got.values[mask] - ref.values[mask]) ** 2))
        mse_ratio = max(mse_ratio, mse / float(ref.values.max()) ** 2)
    elapsed = time.perf_counter() - start
    ok = (p_err <= 0.05 and max(moment_errs) <= 0.05 and mse_ratio <= 1e-6
          and result.converged)
    check("manufactured-recovery", ok,
          f"p {fitted.p:.4f} (err {p_err:.3f}, tol 0.05), moment errs "
          f"{[f'{e:.2%}' for e in moment_errs]} (tol 5%), held-out MSE/peak^2 "
          f"{mse_ratio:.2e} (tol 1e-6) [{elapsed:.1f}s]")


# --- 7: drift penalty ------------------------------------------------------


def test_07_drift_penalty_tightens_with_beta():
    start = time.perf_counter()
    l1 = 0.5
    n, dt, steps = 40, 0.1, 160
    phi_star = np.array([0.02, 0.12, 0.0, 0.3, 0.06])
    kernel = DynamicKernel(phi=phi_star, p=0.3, horizon_cells=2,
                           cell_width=l1)
    times = np.arange(steps + 1) * dt
    sol = solve(kernel, unit_spike(n, 20), times)
    curves = tuple(model_btc(sol, [8.2, 10.3, 12.4]))
    shifts = np.arange(-2, 3)

    drifts = []
    for beta in (0.0, 1e2, 1e4):
        problem = LearningProblem(curves=curves, beta=beta, model="nonlocal",
                                  horizon_cells=2, cell_width=l1, num_cells=n,
                                  injection_cell=20, dt=dt, n_steps=steps)
        result = fit(problem)
        drifts.append(abs(float((result.kernel.phi * shifts).sum())))
    non_increasing = all(b <= a + 1e-12 for a, b in zip(drifts, drifts[1:]))

    # symmetric weights null the drift functional exactly
    problem = LearningProblem(curves=curves, beta=1.0, model="nonlocal",
                              horizon_cells=2, cell_width=l1, num_cells=n,
                              injection_cell=20, dt=dt, n_steps=steps)
    sym = np.concatenate([
        [softplus_inverse(0.07), softplus_inverse(0.2)],
        [softplus_inverse(0.2), softplus_inverse(0.07)], [0.1]])
    penalty = evaluate_loss(problem, sym)[2]
    elapsed = time.perf_counter() - start
    ok = non_increasing and penalty == 0.0
    check("drift-penalty", ok,
          f"|sum j phi_j| across beta 0/1e2/1e4: "
          f"{['%.3e' % d for d in drifts]} (non-increasing: {non_increasing}), "
          f"symmetric penalty {penalty!r} (want exactly 0.0) [{elapsed:.1f}s]")


# --- 8-10: desk-scale pipeline --------------------------------------------


def test_08_desk_run_shows_anomalous_transport_and_model_ranking(desk_run):
    report = desk_run.report
    fine_slope = report["msd_slopes"]["fine_slope_loglog"]
    fitted_p = report["fitted"]["nonlocal"]["p"]
    vs_classical = report["comparisons"]["nonlocal_beats_classical_test_mse"]
    vs_fractal = report["comparisons"]["nonlocal_beats_fractal_test_mse"]
    ok = (fine_slope > 1.05 and fitted_p > 0.0
          and vs_classical["all"] and vs_fractal["majority"])
    check("desk-pipeline", ok,
          f"fine MSD log-log slope {fine_slope:.3f} (>1.05), fitted p "
          f"{fitted_p:.3f} (>0), beats classical at all "
          f"{len(vs_classical['per_held_out_location'])} held-out probes: "
          f"{vs_classical['all']}, beats fractal at majority: "
          f"{vs_fractal['majority']} [{desk_run.elapsed:.1f}s]")


def test_09_surrogate_overfits_training_window(desk_run):
    train_locs = desk_run.report["train_locations"]
    held_out = desk_run.report["test_locations"]
    mlp_train = np.mean([desk_run.mse[("mlp", x, "train")][0]
                         for x in train_locs])
    nl_train = np.mean([desk_run.mse[("nonlocal", x, "train")][0]
                        for x in train_locs])
    ratios = {x: desk_run.mse[("mlp", x, "test")][0]
              / desk_run.mse[("nonlocal", x, "test")][0] for x in held_out}
    best = max(ratios.values())
    ok = mlp_train <= nl_train and best >= 2.0
    check("surrogate-overfit", ok,
          f"train MSE mlp {mlp_train:.2e} <= nonlocal {nl_train:.2e}: "
          f"{mlp_train <= nl_train}; worst held-out ratio {best:.1f}x "
          f"(need >= 2x at >= 1 location)")


def test_10_rerun_reproduces_csv_outputs_byte_for_byte(desk_run):
    start = time.perf_counter()
    out = desk_run.out
    csv_files = sorted(p for p in out.rglob("*.csv")
                       if "sweep" not in p.parts)
    before = {p: p.read_bytes() for p in csv_files}
    for command in ("generate", "learn", "predict"):
        assert cli.main([command, "--config", str(DESK_CONFIG),
                         "--out", str(out)]) == 0
    mismatched = [p.name for p, blob in before.items()
                  if p.read_bytes() != blob]
    elapsed = time.perf_counter() - start
    ok = not mismatched
    check("determinism", ok,
          f"{len(before)} CSV files byte-identical after rerun"
          + (f"; mismatched: {mismatched}" if mismatched else "")
          + f" [{elapsed:.1f}s]")
