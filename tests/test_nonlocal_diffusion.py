"""Tests for the implicit nonlocal diffusion solver."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from kernel_moments import drift_rate, second_moment_rate
from nonlocal_transport.baselines import FractalParams, fractal_kernel
from nonlocal_transport.errors import ConfigurationError, SolverError
from nonlocal_transport.lapack import (
    banded_lapack, mapped_openblas, openblas_banded_lapack, scipy_banded_lapack,
)
from nonlocal_transport.learning import (
    LearningProblem, evaluate_loss, loss_and_gradient,
)
from nonlocal_transport.nonlocal_diffusion import (
    SOLVE_BLOCK_STEPS,
    DynamicKernel,
    assemble_operator,
    exchange_differences,
    first_step_theta,
    march,
    model_btc,
    solution_moments,
    solve,
    theta_schedule,
    unit_spike,
)
from nonlocal_transport.tracking import linear_slope, log_log_slope

L1 = math.sqrt(3.0) / 3.0


def dense_from_banded(band, n):
    nd = (band.shape[0] - 1) // 2
    a = np.zeros((n, n))
    for k in range(-nd, nd + 1):
        row = nd - k
        for j in range(n):
            i = j - k
            if 0 <= i < n:
                a[i, j] = band[row, j]
    return a


def dense_by_definition(kernel, n):
    """Entrywise operator construction straight from the exchange sum."""
    nd = kernel.horizon_cells
    a = np.zeros((n, n))
    for i in range(n):
        for j, k in enumerate(range(-nd, nd + 1)):
            if k == 0:
                continue
            if 0 <= i + k < n:
                a[i, i + k] += kernel.phi[j]
            a[i, i] -= kernel.phi[j]
    return a


def random_kernel(seed=0, horizon=3, p=0.0):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 0.4, size=2 * horizon + 1)
    return DynamicKernel(phi=phi, p=p, horizon_cells=horizon, cell_width=L1)


def test_operator_matches_definition():
    kernel = random_kernel(seed=1)
    band = assemble_operator(kernel, 12)
    # the two constructions accumulate the diagonal in different orders,
    # so agreement is to rounding, not bitwise
    np.testing.assert_allclose(dense_from_banded(band, 12),
                               dense_by_definition(kernel, 12),
                               rtol=0, atol=1e-14)


def test_apply_operator_matches_dense():
    kernel = random_kernel(seed=2)
    dense = dense_by_definition(kernel, 15)
    rng = np.random.default_rng(3)
    c = rng.normal(size=15)
    np.testing.assert_allclose(
        exchange_differences(c, kernel.horizon_cells) @ kernel.phi, dense @ c,
        rtol=1e-13, atol=1e-15)
    stack = rng.normal(size=(15, 4))
    for col in range(stack.shape[1]):
        np.testing.assert_allclose(
            exchange_differences(stack[:, col], kernel.horizon_cells) @ kernel.phi,
            dense @ stack[:, col], rtol=1e-13, atol=1e-15)


def test_exchange_differences_of_a_stack_equal_each_state():
    # the tangent pass gathers every step's differences in one call
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(2, 5, 15))
    stacked = exchange_differences(stack, 3)
    assert stacked.shape == (2, 5, 15, 7)
    for index in np.ndindex(2, 5):
        assert (stacked[index].tobytes()
                == exchange_differences(stack[index], 3).tobytes())


def test_interior_row_sums_vanish():
    kernel = random_kernel(seed=4, horizon=2)
    n = 11
    dense = dense_from_banded(assemble_operator(kernel, n), n)
    sums = dense.sum(axis=1)
    np.testing.assert_allclose(sums[2:-2], 0.0, atol=1e-14)
    assert np.all(sums[:2] <= 1e-14) and np.all(sums[-2:] <= 1e-14)


def test_zero_kernel_is_identity_dynamics():
    kernel = DynamicKernel(phi=np.zeros(5), p=0.3, horizon_cells=2, cell_width=L1)
    assert not np.any(assemble_operator(kernel, 9))
    c0 = unit_spike(9, 4)
    times = np.arange(6) * 0.1
    sol = solve(kernel, c0, times)
    np.testing.assert_array_equal(sol.values, np.tile(c0[:, None], (1, 6)))
    (at_spike,) = model_btc(sol, [3.5 * L1])
    np.testing.assert_array_equal(at_spike.values, 1.0)
    (elsewhere,) = model_btc(sol, [7.5 * L1])
    np.testing.assert_array_equal(elsewhere.values, 0.0)


def test_unit_horizon_reduces_to_discrete_laplacian():
    kernel = DynamicKernel(phi=np.array([1.0, 0.0, 1.0]), p=0.0,
                           horizon_cells=1, cell_width=L1)
    dense = dense_from_banded(assemble_operator(kernel, 8), 8)
    for i in range(1, 7):
        np.testing.assert_array_equal(dense[i, i - 1:i + 2], [1.0, -2.0, 1.0])


def test_operator_needs_enough_cells():
    kernel = random_kernel(horizon=3)
    with pytest.raises(ConfigurationError):
        assemble_operator(kernel, 6)


def test_implicit_step_first_order_against_matrix_exponential():
    # p = 0 makes the dynamics autonomous: exp(T*A) c0 is exact
    kernel = random_kernel(seed=7, horizon=2, p=0.0)
    n, t_final = 16, 0.5
    c0 = unit_spike(n, 8)
    dense = dense_by_definition(kernel, n)
    reference = expm(t_final * dense) @ c0

    def global_error(dt):
        times = np.arange(int(round(t_final / dt)) + 1) * dt
        sol = solve(kernel, c0, times)
        return np.max(np.abs(sol.values[:, -1] - reference))

    ratio = global_error(0.05) / global_error(0.025)
    assert 1.8 <= ratio <= 2.2


def test_mass_non_increasing_and_nearly_conserved_inside():
    kernel = random_kernel(seed=9, horizon=2, p=0.4)
    times = np.arange(0, 51) * 0.02
    sol = solve(kernel, unit_spike(41, 21), times)
    mass = sol.values.sum(axis=0)
    assert np.all(np.diff(mass) <= 1e-14)
    # the hump never gets near the collar on this horizon, so losses are tiny
    assert mass[-1] > 1.0 - 1e-10
    assert np.min(sol.values) >= -1e-13


def test_symmetric_kernel_keeps_solution_symmetric():
    phi = np.array([0.05, 0.2, 0.0, 0.2, 0.05])
    kernel = DynamicKernel(phi=phi, p=0.5, horizon_cells=2, cell_width=L1)
    times = np.arange(0, 41) * 0.025
    sol = solve(kernel, unit_spike(33, 17), times)
    np.testing.assert_allclose(sol.values, sol.values[::-1, :], rtol=0, atol=1e-12)


def test_balanced_kernel_keeps_mean_fixed():
    phi = np.array([0.1, 0.3, 0.0, 0.3, 0.1])     # symmetric: sum j phi_j = 0
    kernel = DynamicKernel(phi=phi, p=0.2, horizon_cells=2, cell_width=L1)
    times = np.arange(0, 81) * 0.0125
    sol = solve(kernel, unit_spike(61, 31), times)
    moments = solution_moments(sol)
    length = 61 * L1
    assert np.max(np.abs(moments.mean_x - moments.mean_x[0])) < 1e-8 * length


def test_msd_growth_matches_kernel_second_moment():
    kernel = random_kernel(seed=11, horizon=2, p=0.0)
    dt = 0.01
    times = np.arange(0, 51) * dt
    sol = solve(kernel, unit_spike(61, 31), times)
    msd = solution_moments(sol).msd
    rate = second_moment_rate(kernel)
    # the discrete scheme produces this slope identically, so a linear fit
    # over the whole run must agree to well under 1%
    assert linear_slope(times, msd) == pytest.approx(rate, rel=0.01)
    # finite-difference slope at mid-run, against theta(t) = 1
    k = 25
    fd = (msd[k + 1] - msd[k - 1]) / (2 * dt)
    assert fd == pytest.approx(rate, rel=0.01)


@pytest.mark.parametrize("p", [0.5, -0.5])
def test_msd_power_law_for_dynamic_kernels(p):
    phi = np.array([0.02, 0.12, 0.0, 0.12, 0.02])
    kernel = DynamicKernel(phi=phi, p=p, horizon_cells=2, cell_width=L1)
    dt = 0.002
    times = np.arange(0, 501) * dt
    sol = solve(kernel, unit_spike(61, 31), times)
    msd = solution_moments(sol).msd
    slope = log_log_slope(times, msd, t_min=0.5)
    assert slope == pytest.approx(p + 1.0, rel=0.02)
    assert np.min(sol.values) >= -1e-13


def test_first_step_coefficient():
    assert first_step_theta(0.0, 0.1) == 1.0
    assert first_step_theta(1.0, 0.2) == pytest.approx(0.1)
    assert first_step_theta(-0.5, 0.04) == pytest.approx(0.04 ** -0.5 / 0.5)
    with pytest.raises(ConfigurationError):
        first_step_theta(-1.0, 0.1)


def test_step_implicit_matches_manual_solve():
    kernel = random_kernel(seed=13, horizon=2, p=0.0)
    n = 14
    c0 = unit_spike(n, 7)
    dense = dense_by_definition(kernel, n)
    dt = 0.07
    manual = np.linalg.solve(np.eye(n) - dt * dense, c0)
    one_step = solve(kernel, c0, np.array([0.0, dt])).values[:, -1]
    np.testing.assert_allclose(one_step, manual,
                               rtol=1e-12, atol=1e-15)


def test_solve_validates_time_grid():
    kernel = random_kernel()
    c0 = unit_spike(12, 6)
    with pytest.raises(ConfigurationError):
        solve(kernel, c0, np.array([0.1, 0.2, 0.3]))       # must start at 0
    with pytest.raises(ConfigurationError):
        solve(kernel, c0, np.array([0.0, 0.1, 0.3]))       # non-uniform
    with pytest.raises(ConfigurationError):
        solve(kernel, c0, np.array([0.0]))                 # too short
    steep = DynamicKernel(phi=np.full(7, 0.1), p=-1.2, horizon_cells=3,
                          cell_width=L1)
    with pytest.raises(ConfigurationError):
        solve(steep, c0, np.array([0.0, 0.1, 0.2]))


@pytest.mark.parametrize("weight", [1e308, math.inf])
def test_overflowing_kernel_is_a_solver_error(weight):
    kernel = DynamicKernel(phi=np.array([weight, 0.0, weight]), p=0.0,
                           horizon_cells=1, cell_width=L1)
    times = np.arange(4) * 0.1
    with pytest.raises(SolverError):
        solve(kernel, unit_spike(8, 4), times)
    # the fit marches the same stepper: softplus maps these raw weights to
    # themselves, so a gradient or a line-search candidate at them meets
    # the same overflow
    benign = DynamicKernel(phi=np.array([0.1, 0.0, 0.1]), p=0.0,
                           horizon_cells=1, cell_width=L1)
    curves = tuple(model_btc(solve(benign, unit_spike(8, 4), times), [2.0]))
    problem = LearningProblem(curves=curves, horizon_cells=1, cell_width=L1,
                              num_cells=8, injection_cell=4, dt=0.1, n_steps=3)
    raw = np.array([weight, weight, 0.0])
    with pytest.raises(SolverError):
        loss_and_gradient(problem, raw)
    with pytest.raises(SolverError):
        evaluate_loss(problem, raw)


def test_model_btc_traces_solution_rows():
    kernel = random_kernel(seed=17, horizon=2, p=0.3)
    times = np.arange(0, 21) * 0.05
    sol = solve(kernel, unit_spike(20, 7), times)
    (curve,) = model_btc(sol, [10.2 * L1])
    np.testing.assert_array_equal(curve.times, times[1:])
    np.testing.assert_array_equal(curve.values, sol.values[10, 1:])
    with pytest.raises(ConfigurationError):
        model_btc(sol, [25.0 * L1])
    with pytest.raises(ConfigurationError):
        model_btc(sol, [0.0])


def test_kernel_validation():
    with pytest.raises(ConfigurationError):
        DynamicKernel(phi=np.ones(4), p=0.0, horizon_cells=2, cell_width=L1)
    with pytest.raises(ConfigurationError):
        DynamicKernel(phi=np.array([0.1, -0.2, 0.1]), p=0.0, horizon_cells=1,
                      cell_width=L1)
    with pytest.raises(ConfigurationError):
        DynamicKernel(phi=np.ones(3), p=0.0, horizon_cells=0, cell_width=L1)
    with pytest.raises(ConfigurationError):
        DynamicKernel(phi=np.ones(3), p=0.0, horizon_cells=1, cell_width=0.0)


def test_kernel_json_round_trip(tmp_path):
    kernel = DynamicKernel(phi=np.array([0.1, 0.0, 0.25, 0.05, 0.3]), p=1.104,
                           horizon_cells=2, cell_width=L1)
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel.record()))
    with open(path) as fh:
        record = json.load(fh)
    assert set(record) == {"phi", "p", "N_delta", "l1"}
    back = DynamicKernel.from_record(record)
    np.testing.assert_array_equal(back.phi, kernel.phi)
    assert back.p == kernel.p
    assert back.horizon_cells == kernel.horizon_cells
    assert back.cell_width == kernel.cell_width


def test_kernel_moment_helpers():
    kernel = DynamicKernel(phi=np.array([0.2, 0.1, 0.0, 0.1, 0.4]), p=0.0,
                           horizon_cells=2, cell_width=2.0)
    # sum phi_j (j*l1)^2 = (0.2+0.4)*16 + (0.1+0.1)*4
    assert second_moment_rate(kernel) == pytest.approx(10.4)
    # -l1 * sum(j phi_j) = -2*( -2*0.2 - 0.1 + 0.1 + 2*0.4 )
    assert drift_rate(kernel) == pytest.approx(-0.8)


def test_drift_rate_sign_matches_dynamics():
    # each cell gains from its offset-j neighbor, so excess weight at
    # positive offsets pulls mass backward; the helper's sign encodes that
    phi = np.array([0.0, 0.1, 0.0, 0.3, 0.0])
    kernel = DynamicKernel(phi=phi, p=0.0, horizon_cells=2, cell_width=L1)
    dt = 0.005
    times = np.arange(0, 41) * dt
    sol = solve(kernel, unit_spike(61, 31), times)
    moments = solution_moments(sol)
    measured = linear_slope(times, moments.mean_x)
    assert drift_rate(kernel) < 0
    assert measured == pytest.approx(drift_rate(kernel), rel=0.01)


def test_unit_spike_validation():
    spike = unit_spike(10, 7)
    assert spike[6] == 1.0 and spike.sum() == 1.0
    with pytest.raises(ConfigurationError):
        unit_spike(10, 0)
    with pytest.raises(ConfigurationError):
        unit_spike(10, 11)


@pytest.mark.parametrize("model", ["nonlocal", "fractal", "classical"])
@pytest.mark.parametrize("n_steps", [SOLVE_BLOCK_STEPS - 1, SOLVE_BLOCK_STEPS,
                                     3 * SOLVE_BLOCK_STEPS + 7])
def test_solve_in_blocks_matches_one_march(model, n_steps):
    # solve marches blocks of steps from each block's last state; the
    # states must be the bits of one march over every step
    kernel = {
        "nonlocal": DynamicKernel(
            phi=np.array([0.01, 0.03, 0.2, 0.9, 0.0, 0.5, 0.1, 0.02, 0.004]),
            p=0.45, horizon_cells=4, cell_width=L1),
        "fractal": fractal_kernel(FractalParams(D_bar=0.04, q=0.35), L1),
        "classical": fractal_kernel(FractalParams(D_bar=0.04, q=0.0), L1),
    }[model]
    c0 = unit_spike(40, 6)
    times = np.arange(n_steps + 1) * 0.1
    solution = solve(kernel, c0, times)
    theta, _ = theta_schedule(kernel.p, times)
    states, _, _ = march(assemble_operator(kernel, 40), theta,
                         times[1] - times[0], c0)
    assert solution.values[:, 0].tobytes() == c0.tobytes()
    assert solution.values[:, 1:].T.tobytes() == states.tobytes()


# --- the banded LAPACK binding ---------------------------------------------


def lapack_bindings(source):
    """Every binding of ``source`` this host offers: one per mapped OpenBLAS
    that exports the ILP64 routines, or the ``scipy.linalg.cython_lapack``
    one."""
    if source == "cython_lapack":
        return [scipy_banded_lapack()]
    found = [openblas_banded_lapack([lib]) for lib in mapped_openblas()]
    if not any(found):
        pytest.skip("no mapped OpenBLAS exports dgbsv and dgbtrs")
    return [binding for binding in found if binding is not None]


def random_band_systems(rng, n_steps, n, nd):
    """Band storage of general matrices: no diagonal dominance, so the
    factorization interchanges rows."""
    systems = np.zeros((n_steps, n, 3 * nd + 1))
    systems[:, :, nd:] = rng.standard_normal((n_steps, n, 2 * nd + 1))
    return systems


@pytest.mark.parametrize("source", ["openblas", "cython_lapack"])
@pytest.mark.parametrize("nd", [1, 4])
def test_banded_lapack_matches_scipy_bit_for_bit(source, nd):
    from scipy.linalg.lapack import dgbsv, dgbtrs

    n_steps, n, k = 5, 23, 3
    for binding in lapack_bindings(source):
        rng = np.random.default_rng(nd)
        systems = random_band_systems(rng, n_steps, n, nd)
        original = systems.copy()
        initial = rng.standard_normal(n)
        states = np.empty((n_steps, n))
        pivots = np.empty((n_steps, n), dtype=binding.int_dtype)
        chain = binding.gbsv_chain(systems, states, pivots, initial)
        assert chain == (0, n_steps)
        tangents = rng.standard_normal((n_steps, k, n))
        blocks = tangents.copy()
        solve_step = binding.gbtrs_steps(systems, pivots, tangents)
        x = initial
        for step in range(n_steps):
            lu, piv, x, info = dgbsv(nd, nd, original[step].T, x)
            assert info == 0
            assert systems[step].T.tobytes(order="F") == lu.tobytes(order="F")
            assert states[step].tobytes() == x.tobytes()
            # scipy returns pivots 0-based, LAPACK writes them 1-based
            np.testing.assert_array_equal(pivots[step], piv + 1)
            want, info = dgbtrs(lu, nd, nd, blocks[step].T, piv)
            assert info == 0
            assert solve_step(step) == 0
            assert (tangents[step].T.tobytes(order="F")
                    == want.tobytes(order="F"))
        assert (pivots != np.arange(1, n + 1)).any(), "no row was interchanged"


@pytest.mark.parametrize("source", ["openblas", "cython_lapack"])
def test_singular_band_matrix_gives_positive_info(source):
    for binding in lapack_bindings(source):
        systems = random_band_systems(np.random.default_rng(3), 3, 12, 2)
        systems[1, 5, :] = 0.0   # column 6 of the second matrix is zero
        pivots = np.empty((3, 12), dtype=binding.int_dtype)
        states = np.zeros((3, 12))
        info, step = binding.gbsv_chain(systems, states, pivots, np.ones(12))
        assert info > 0 and step == 1
        assert not states[2].any()   # the chain stops at the failed step


def test_march_turns_a_singular_step_into_a_solver_error():
    # I - dt*theta*A with A = I and dt*theta = 1 is the zero matrix
    nd = 2
    band = np.zeros((2 * nd + 1, 10))
    band[nd] = 1.0
    with pytest.raises(SolverError, match="step 0 .*info=1"):
        march(band, np.array([1.0]), 1.0, unit_spike(10, 3))


def test_banded_lapack_checks_arrays_before_passing_pointers():
    binding = banded_lapack()
    n_steps, n, nd = 3, 10, 2
    systems = np.zeros((n_steps, n, 3 * nd + 1))
    states = np.zeros((n_steps, n))
    pivots = np.zeros((n_steps, n), dtype=binding.int_dtype)
    other_int = np.int32 if binding.int_dtype == np.int64 else np.int64
    frozen = states.copy()
    frozen.flags.writeable = False
    initial = np.zeros(n)
    blocks = np.zeros((n_steps, 3, n))
    tangent_step = binding.gbtrs_steps(systems, pivots, blocks)
    for bad_call, error in [
        (lambda: tangent_step(n_steps), IndexError),
        (lambda: tangent_step(-1), IndexError),
        (lambda: binding.gbsv_chain(systems.astype(np.float32), states, pivots,
                                    initial), TypeError),
        (lambda: binding.gbsv_chain(systems.tolist(), states, pivots, initial),
         TypeError),
        (lambda: binding.gbsv_chain(systems[:, :, :-1], states, pivots, initial),
         ValueError),
        (lambda: binding.gbsv_chain(systems[:, ::2], states[:, ::2],
                                    pivots[:, ::2], initial), ValueError),
        (lambda: binding.gbsv_chain(systems, states[:, :-1], pivots, initial),
         ValueError),
        (lambda: binding.gbsv_chain(systems, frozen, pivots, initial), ValueError),
        (lambda: binding.gbsv_chain(systems, states, pivots.astype(other_int),
                                    initial),
         TypeError),
        (lambda: binding.gbtrs_steps(systems, pivots, np.zeros((n, 3))),
         ValueError),
        (lambda: binding.gbtrs_steps(systems, pivots, blocks.transpose(0, 2, 1)),
         ValueError),
        (lambda: binding.gbtrs_steps(systems, pivots,
                                     np.zeros((n_steps, 3, n + 1))), ValueError),
        (lambda: binding.gbtrs_steps(systems, pivots, blocks[:-1]), ValueError),
        (lambda: binding.gbtrs_steps(systems, pivots[:-1], blocks), ValueError),
    ]:
        with pytest.raises(error):
            bad_call()
