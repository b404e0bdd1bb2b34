import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nonlocal_transport import learning
from nonlocal_transport.coarsen import BreakthroughCurve
from nonlocal_transport.errors import ConfigurationError, SolverError
from nonlocal_transport.learning import (
    LearningProblem, _forward, evaluate_loss, fit, initial_raw, logistic,
    loss_and_gradient, softplus, softplus_inverse,
)
from nonlocal_transport.nonlocal_diffusion import (
    DynamicKernel, model_btc, solve, unit_spike,
)
from reference_gradient import tangent_loss_and_gradient


def test_logistic_is_expit_bit_for_bit():
    from scipy.special import expit

    grid = np.concatenate([
        [0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0],
        np.linspace(-745.0, -709.0, 3601),
        np.random.default_rng(5).uniform(-40.0, 40.0, 2000),
    ])
    assert logistic(grid).tobytes() == expit(grid).tobytes()
    assert logistic(grid[1]).shape == ()


def synthetic_curves(kernel, num_cells, injection_cell, n_steps, dt, locations):
    times = np.arange(n_steps + 1) * dt
    sol = solve(kernel, unit_spike(num_cells, injection_cell), times)
    return tuple(model_btc(sol, locations))


def make_problem(phi_star, p_star, **overrides):
    """Training data manufactured from a known kernel, plus a problem."""
    settings = dict(model="nonlocal", horizon_cells=2, cell_width=1.0,
                    num_cells=30, injection_cell=10, dt=0.1, n_steps=40,
                    beta=50.0)
    settings.update(overrides)
    locations = settings.pop("locations", [7.5, 9.5, 13.5])
    kernel = DynamicKernel(phi=np.asarray(phi_star, float), p=p_star,
                           horizon_cells=settings["horizon_cells"],
                           cell_width=settings["cell_width"])
    curves = synthetic_curves(kernel, settings["num_cells"],
                              settings["injection_cell"], settings["n_steps"],
                              settings["dt"], locations)
    return LearningProblem(curves=curves, **settings), kernel


def central_difference(problem, raw, index, h=1e-6):
    plus = np.array(raw, float)
    minus = np.array(raw, float)
    plus[index] += h
    minus[index] -= h
    return (evaluate_loss(problem, plus)[0]
            - evaluate_loss(problem, minus)[0]) / (2 * h)


# --- gradient correctness -------------------------------------------------


def test_gradient_matches_finite_differences_nonlocal():
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4)
    raw = np.array([-2.5, -1.2, -3.0, -1.8, 0.25])
    g = loss_and_gradient(problem, raw)[1]
    for k in range(raw.size):
        fd = central_difference(problem, raw, k)
        assert abs(g[k] - fd) <= 1e-5 * max(abs(fd), 1e-12), (
            f"coordinate {k}: exact {g[k]} vs finite difference {fd}")


def test_gradient_matches_finite_differences_fractal():
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4,
                              model="fractal")
    raw = np.array([-1.0, 0.8])
    g = loss_and_gradient(problem, raw)[1]
    for k in range(raw.size):
        fd = central_difference(problem, raw, k)
        assert abs(g[k] - fd) <= 1e-5 * abs(fd)


def test_gradient_matches_finite_differences_classical():
    problem, _ = make_problem([0.0, 0.25, 0.0, 0.25, 0.0], 0.0,
                              model="classical")
    raw = np.array([-1.5])
    fd = central_difference(problem, raw, 0)
    g = loss_and_gradient(problem, raw)[1]
    assert abs(g[0] - fd) <= 1e-5 * abs(fd)


def random_raw(problem, rng):
    """A raw point with weights in (0.05, 0.31) and p in (-0.5, 1.5)."""
    raw = rng.uniform(-3.0, -1.0, problem.n_parameters())
    if problem.model == "nonlocal":
        raw[-1] = rng.uniform(-0.5, 1.5)
    elif problem.model == "fractal":
        raw[-1] = softplus_inverse(rng.uniform(0.5, 2.5))
    return raw


def assert_adjoint_matches_tangents(problem, raw):
    loss, grad = loss_and_gradient(problem, raw)
    want_loss, want_grad = tangent_loss_and_gradient(problem, raw)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)


@pytest.mark.parametrize("horizon", [2, 4])
@pytest.mark.parametrize("model", ["nonlocal", "fractal", "classical"])
def test_adjoint_gradient_matches_the_tangent_oracle(model, horizon):
    rng = np.random.default_rng(horizon)
    phi_star = rng.uniform(0.02, 0.3, 2 * horizon + 1)
    phi_star[horizon] = 0.0
    problem, _ = make_problem(phi_star, 0.4, model=model,
                              horizon_cells=horizon)
    for _ in range(3):
        assert_adjoint_matches_tangents(problem, random_raw(problem, rng))


def test_adjoint_adds_the_misfit_of_probes_sharing_a_cell():
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4,
                              locations=[7.2, 7.7, 13.5])
    assert problem.probe_cells[0] == problem.probe_cells[1]
    # unequal targets in the shared cell, so each probe has its own residual
    curves = tuple(BreakthroughCurve(c.location, c.times, c.values * scale)
                   for c, scale in zip(problem.curves, (0.8, 1.3, 1.0)))
    problem = replace(problem, curves=curves)
    rng = np.random.default_rng(12)
    for _ in range(3):
        assert_adjoint_matches_tangents(problem, random_raw(problem, rng))


def test_fitted_curves_equal_predicted_curves():
    # fitting and prediction march the same stepper, so the curves the loss
    # sees are bit for bit the curves a forward solve reports
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4)
    phi = np.array([0.04, 0.25, 0.0, 0.15, 0.12])
    p = 1.7
    kernel = DynamicKernel(phi=phi, p=p, horizon_cells=problem.horizon_cells,
                           cell_width=problem.cell_width)
    btc = _forward(problem, phi, p)
    solution = solve(kernel, unit_spike(problem.num_cells,
                                        problem.injection_cell),
                     problem.time_grid)
    predicted = model_btc(solution, [c.location for c in problem.curves])
    np.testing.assert_array_equal(btc, np.stack([c.values for c in predicted]))


def test_perfect_parameters_give_zero_misfit_and_gradient():
    # Data generated from softplus-representable weights: evaluating at the
    # generating raw vector must reproduce the curves to roundoff.
    raw_star = np.array([-2.0, -0.8, -0.8, -2.0, 0.3])
    phi_star = np.array([softplus(-2.0), softplus(-0.8), 0.0,
                         softplus(-0.8), softplus(-2.0)])
    problem, _ = make_problem(phi_star, 0.3, beta=100.0)
    loss, misfit, penalty = evaluate_loss(problem, raw_star)
    assert misfit < 1e-20
    assert loss < 1e-20
    assert np.linalg.norm(loss_and_gradient(problem, raw_star)[1]) < 1e-10


def test_saturated_weight_gives_finite_zero_gradient_entry():
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4)
    raw = np.array([-800.0, -1.2, -3.0, -1.8, 0.25])
    loss, g = loss_and_gradient(problem, raw)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(g))
    assert g[0] == 0.0


def test_loss_decomposition_and_direct_solver_agreement():
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4, beta=7.0)
    raw = np.array([-2.2, -1.5, -2.8, -1.1, 0.1])
    loss, misfit, penalty = evaluate_loss(problem, raw)
    assert abs(loss - (misfit + problem.beta * penalty)) <= 1e-12 * max(1.0, loss)

    phi = np.array([softplus(-2.2), softplus(-1.5), 0.0,
                    softplus(-2.8), softplus(-1.1)])
    kernel = DynamicKernel(phi=phi, p=0.1, horizon_cells=2, cell_width=1.0)
    curves = synthetic_curves(kernel, 30, 10, 40, 0.1,
                              [c.location for c in problem.curves])
    expected = sum(float(np.sum((c.values - t.values) ** 2))
                   for c, t in zip(curves, problem.curves))
    assert misfit == pytest.approx(expected, rel=1e-12)

    offsets = np.arange(-2, 3)
    assert penalty == pytest.approx(float(offsets @ phi) ** 2, rel=1e-12)


# --- recovery -------------------------------------------------------------


def test_recovers_manufactured_symmetric_kernel():
    phi_star = np.array([0.04, 0.25, 0.0, 0.25, 0.04])
    problem, kernel_star = make_problem(
        phi_star, 0.3, num_cells=40, injection_cell=20, n_steps=160,
        locations=[17.5, 19.5, 22.5], beta=100.0, max_iterations=300)
    result = fit(problem)
    fitted = result.kernel
    offsets = np.arange(-2, 3)
    for power in (0, 2, 4):
        got = float(np.sum(fitted.phi * offsets.astype(float) ** power))
        want = float(np.sum(phi_star * offsets.astype(float) ** power))
        assert got == pytest.approx(want, rel=0.05), f"moment {power}"
    assert abs(fitted.p - 0.3) <= 0.05
    assert result.misfit < 1e-8


def test_recovers_fractal_parameters():
    problem, _ = make_problem(
        [0.0, 0.15, 0.0, 0.15, 0.0], -0.35, model="fractal",
        num_cells=40, injection_cell=20, n_steps=120,
        locations=[17.5, 19.5, 22.5])
    params = fit(problem).parameters_json()
    assert params["D_bar"] == pytest.approx(0.15, rel=1e-2)
    assert abs(params["q"] - 0.35) <= 0.02


def test_recovers_classical_diffusivity_to_a_tenth_percent():
    problem, _ = make_problem(
        [0.0, 0.08, 0.0, 0.08, 0.0], 0.0, model="classical",
        num_cells=50, injection_cell=25, n_steps=150,
        locations=[22.5, 24.5, 27.5])
    result = fit(problem)
    assert result.converged
    assert result.parameters_json()["D0_bar"] == pytest.approx(0.08, rel=1e-3)


def record_oracle(problem, raw):
    """Each PDE model's fit record, computed from its raw parameters."""
    if problem.model == "nonlocal":
        phi = np.insert(softplus(raw[:-1]), problem.horizon_cells, 0.0)
        return {"model": "nonlocal", "phi": [float(v) for v in phi],
                "p": float(raw[-1]), "N_delta": problem.horizon_cells,
                "l1": float(problem.cell_width)}
    if problem.model == "fractal":
        return {"model": "fractal", "D_bar": float(softplus(raw[0])),
                "q": float(-(softplus(raw[1]) - 1.0))}
    return {"model": "classical", "D0_bar": float(softplus(raw[0]))}


@pytest.mark.parametrize("model", ["nonlocal", "fractal", "classical"])
def test_every_pde_fit_ends_in_its_mapped_kernel(model):
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4, model=model,
                              n_steps=20, max_iterations=5)
    result = fit(problem)
    assert json.dumps(result.parameters_json()) == json.dumps(
        record_oracle(problem, result.raw_parameters))
    phi, p, _, _ = learning._map_parameters(problem, result.raw_parameters)
    kernel = result.kernel
    assert kernel.horizon_cells == problem.horizon_cells
    assert kernel.cell_width == problem.cell_width
    assert kernel.phi.tobytes() == phi.tobytes()
    assert np.float64(kernel.p).tobytes() == np.float64(p).tobytes()


def test_drift_penalty_weight_shrinks_kernel_first_moment():
    # Asymmetric truth: without the penalty the fit keeps a drift, and
    # increasing beta must not increase the fitted first moment.
    phi_star = np.array([0.02, 0.12, 0.0, 0.3, 0.06])
    moments = []
    for beta in (0.0, 1.0, 100.0, 10000.0):
        problem, _ = make_problem(
            phi_star, 0.2, num_cells=36, injection_cell=18, n_steps=100,
            locations=[15.5, 17.5, 20.5], beta=beta, max_iterations=300)
        kernel = fit(problem).kernel
        offsets = np.arange(-2, 3).astype(float)
        moments.append(abs(float(offsets @ kernel.phi)))
    assert moments[0] > 1e-3   # unpenalized fit keeps the drift
    for lighter, heavier in zip(moments, moments[1:]):
        assert heavier <= lighter + 1e-12
    assert moments[-1] < 0.1 * moments[0]


# --- one march per candidate ---------------------------------------------


@pytest.mark.parametrize("model, raw", [
    ("nonlocal", [-2.2, -1.5, -2.8, -1.1, 0.1]),
    ("fractal", [-1.5, 0.4]),
    ("classical", [-1.5]),
])
def test_passed_march_gives_the_self_marching_loss_and_gradient(model, raw):
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4, model=model)
    raw = np.array(raw)
    phi, p, _, _ = learning._map_parameters(problem, raw)
    marched = learning._march(problem, phi, p)
    loss, grad = loss_and_gradient(problem, raw, marched)
    own_loss, own_grad = loss_and_gradient(problem, raw)
    assert np.float64(loss).tobytes() == np.float64(own_loss).tobytes()
    assert grad.tobytes() == own_grad.tobytes()
    assert evaluate_loss(problem, raw, marched) == evaluate_loss(problem, raw)


def test_fit_marches_each_raw_vector_once(monkeypatch):
    # desk sizes: 60 cells, 360 steps, a horizon of 4 cells
    phi_star = [0.01, 0.02, 0.05, 0.3, 0.0, 0.2, 0.05, 0.02, 0.01]
    problem, _ = make_problem(
        phi_star, 0.3, horizon_cells=4, num_cells=60, injection_cell=7,
        n_steps=360, locations=[9.5, 12.5, 15.5], max_iterations=12)
    marches = []
    real_march = learning.march

    def counting_march(*args):
        marches.append(1)
        return real_march(*args)

    raws, gradient_marches = [], []
    real_minimize = learning.minimize

    def watching_minimize(fun_and_grad, x0, *, fun_only, **kwargs):
        def fg(x):
            before = len(marches)
            raws.append(x.tobytes())
            value = fun_and_grad(x)
            gradient_marches.append(len(marches) - before)
            return value

        def f_only(x):
            raws.append(x.tobytes())
            return fun_only(x)

        return real_minimize(fg, x0, fun_only=f_only, **kwargs)

    monkeypatch.setattr(learning, "march", counting_march)
    monkeypatch.setattr(learning, "minimize", watching_minimize)
    # a start from which no line-search candidate reads inf, so every
    # value call marches
    raw0 = np.append(softplus_inverse(1.5 * np.delete(phi_star, 4)), 0.1)
    result = fit(problem, raw0)
    assert result.iterations == 12 and np.isfinite(result.loss)
    n_value_calls = len(raws) - len(gradient_marches)
    assert len(marches) == n_value_calls + 1 == len(set(raws))
    assert gradient_marches[0] == 1
    assert not any(gradient_marches[1:])


def test_line_search_candidates_reading_inf_keep_the_accepted_march(monkeypatch):
    # Targets a thousand times the model's scale make the first gradient
    # step send the exponent to about 4400, where t**p overflows, so the
    # line search reads inf until it has backtracked below p = 512.
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4, max_iterations=8)
    problem = replace(problem, curves=tuple(
        BreakthroughCurve(location=c.location, times=c.times,
                          values=1000.0 * c.values) for c in problem.curves))
    raw0 = learning.initial_raw(problem)
    failed = []
    real_march = learning._march

    def recording_march(problem, phi, p):
        try:
            return real_march(problem, phi, p)
        except SolverError:
            failed.append(p)
            raise

    monkeypatch.setattr(learning, "_march", recording_march)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = fit(problem, raw0)
    assert any(p > 512 for p in failed)
    assert result.iterations == 8 and np.isfinite(result.loss)

    # the same fit with every loss and gradient marching its own state
    real_loss_and_gradient = learning.loss_and_gradient
    real_evaluate_loss = learning.evaluate_loss
    monkeypatch.setattr(learning, "loss_and_gradient",
                        lambda problem, raw, marched=None:
                        real_loss_and_gradient(problem, raw))
    monkeypatch.setattr(learning, "evaluate_loss",
                        lambda problem, raw, marched=None:
                        real_evaluate_loss(problem, raw))
    reference = fit(problem, raw0)
    assert json.dumps(result.to_json()) == json.dumps(reference.to_json())


# --- plumbing -------------------------------------------------------------


def test_fit_does_not_depend_on_curve_order():
    phi_star = [0.0, 0.08, 0.0, 0.08, 0.0]
    problem, _ = make_problem(phi_star, 0.0, model="classical",
                              max_iterations=60)
    shuffled = LearningProblem(
        curves=tuple(reversed(problem.curves)), model="classical",
        beta=problem.beta, horizon_cells=2, num_cells=30, injection_cell=10,
        dt=0.1, n_steps=40, max_iterations=60)
    a, b = fit(problem), fit(shuffled)
    np.testing.assert_array_equal(a.raw_parameters, b.raw_parameters)
    assert a.loss == b.loss


def test_initial_guess_maps_to_a_tenth():
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4)
    raw = initial_raw(problem)
    np.testing.assert_allclose(softplus(raw[:-1]), 0.1, rtol=1e-12)
    assert raw[-1] == 0.0

    fractal, _ = make_problem([0.0, 0.1, 0.0, 0.1, 0.0], 0.0, model="fractal")
    raw_f = initial_raw(fractal)
    assert softplus(raw_f[0]) == pytest.approx(0.1, rel=1e-12)
    assert softplus(raw_f[1]) - 1.0 == pytest.approx(0.0, abs=1e-12)

    classical, _ = make_problem([0.0, 0.1, 0.0, 0.1, 0.0], 0.0,
                                model="classical")
    assert softplus(initial_raw(classical)[0]) == pytest.approx(0.1, rel=1e-12)


def test_softplus_inverse_round_trip():
    values = np.array([1e-6, 0.1, 1.0, 30.0])
    np.testing.assert_allclose(softplus(softplus_inverse(values)), values,
                               rtol=1e-12)
    with pytest.raises(ConfigurationError):
        softplus_inverse(0.0)


def test_fit_result_json_contract():
    kernel = DynamicKernel(phi=np.array([0.2, 0.0, 0.2]), p=0.0,
                           horizon_cells=1, cell_width=1.0)
    curves = synthetic_curves(kernel, 30, 10, 40, 0.1, [7.5, 9.5])
    problem = LearningProblem(curves=curves, horizon_cells=1, num_cells=30,
                              injection_cell=10, dt=0.1, n_steps=40,
                              max_iterations=5)
    result = fit(problem)
    record = json.loads(json.dumps(result.to_json()))
    assert set(record) == {
        "model", "parameters", "raw_parameters", "loss", "misfit", "penalty",
        "iterations", "gradient_norm", "converged", "message", "trace"}
    assert record["model"] == "nonlocal"
    assert record["parameters"]["N_delta"] == 1
    assert len(record["parameters"]["phi"]) == 3
    assert len(record["raw_parameters"]) == 3
    assert record["trace"][0]["iteration"] == 0
    assert all({"iteration", "loss", "gradient_norm"} <= set(e)
               for e in record["trace"])


def test_problem_validation():
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4)
    curves = problem.curves
    with pytest.raises(ConfigurationError):
        LearningProblem(curves=curves, model="magic", num_cells=30,
                        injection_cell=10, dt=0.1, n_steps=40)
    with pytest.raises(ConfigurationError):
        LearningProblem(curves=(), num_cells=30, injection_cell=10,
                        dt=0.1, n_steps=40)
    with pytest.raises(ConfigurationError):
        LearningProblem(curves=curves, beta=-1.0, num_cells=30,
                        injection_cell=10, dt=0.1, n_steps=40)
    with pytest.raises(ConfigurationError):   # wrong time grid
        LearningProblem(curves=curves, num_cells=30, injection_cell=10,
                        dt=0.1, n_steps=80)
    with pytest.raises(ConfigurationError):   # horizon too wide for domain
        LearningProblem(curves=curves, horizon_cells=15, num_cells=30,
                        injection_cell=10, dt=0.1, n_steps=40)
    with pytest.raises(ConfigurationError):   # injection outside
        LearningProblem(curves=curves, num_cells=30, injection_cell=31,
                        dt=0.1, n_steps=40)
    with pytest.raises(ConfigurationError):   # location beyond the domain
        LearningProblem(curves=curves, num_cells=8, injection_cell=4,
                        dt=0.1, n_steps=40)
    with pytest.raises(ConfigurationError):   # raw vector of the wrong size
        evaluate_loss(problem, np.zeros(3))


def test_curves_sorted_by_location_on_construction():
    problem, _ = make_problem([0.05, 0.3, 0.0, 0.2, 0.1], 0.4)
    swapped = LearningProblem(curves=tuple(reversed(problem.curves)),
                              num_cells=30, injection_cell=10, dt=0.1,
                              n_steps=40)
    assert [c.location for c in swapped.curves] == sorted(
        c.location for c in swapped.curves)
