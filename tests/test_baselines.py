"""Tests for the PDE baselines and the neural surrogate."""

import json
import math

import numpy as np
import pytest
from scipy.special import expit

from kernel_moments import second_moment_rate
from nonlocal_transport.baselines import (
    SurrogateNet,
    _column_sums,
    _forward,
    _normalize,
    dataset_arrays,
    fractal_kernel,
    init_surrogate,
    solve_classical,
    solve_fractal,
    surrogate_eval,
    train_surrogate,
)
from nonlocal_transport.coarsen import BreakthroughCurve
from nonlocal_transport.errors import ConfigurationError
from nonlocal_transport.nonlocal_diffusion import solution_moments, unit_spike
from nonlocal_transport.tracking import linear_slope, log_log_slope

L1 = math.sqrt(3.0) / 3.0


def test_fractal_with_zero_exponent_is_classical_bitwise():
    times = np.arange(0, 41) * 0.05
    c0 = unit_spike(31, 16)
    a = solve_fractal(0.13, 0.0, c0, times, L1)
    b = solve_classical(0.13, c0, times, L1)
    np.testing.assert_array_equal(a.values, b.values)


def test_fractal_zero_diffusivity_freezes_state():
    times = np.arange(0, 11) * 0.1
    c0 = unit_spike(15, 8)
    sol = solve_fractal(0.0, 0.3, c0, times, L1)
    np.testing.assert_array_equal(sol.values, np.tile(c0[:, None], (1, 11)))


def test_fractal_msd_power_law():
    times = np.arange(0, 801) * 0.002
    sol = solve_fractal(0.05, 0.4, unit_spike(81, 41), times, L1)
    msd = solution_moments(sol).msd
    slope = log_log_slope(times, msd, t_min=0.8)
    assert slope == pytest.approx(1.0 - 0.4, rel=0.02)


def test_fractal_nonintegrable_exponent_rejected():
    times = np.arange(0, 5) * 0.1
    with pytest.raises(ConfigurationError):
        solve_fractal(0.1, 1.0, unit_spike(11, 6), times, L1)


def test_fractal_kernel_construction():
    kernel = fractal_kernel(0.2, 0.25, cell_width=0.5)
    np.testing.assert_allclose(kernel.phi, [0.8, 0.0, 0.8])
    assert kernel.p == -0.25
    assert second_moment_rate(kernel) == pytest.approx(2 * 0.2)


def test_classical_matches_heat_kernel_variance():
    # 220 cells, dt = 0.1, D0 = 0.1: discrete variance tracks 2*D0*t at t = 36
    dt, d0 = 0.1, 0.1
    times = np.arange(0, 361) * dt
    sol = solve_classical(d0, unit_spike(220, 110), times, L1)
    moments = solution_moments(sol)
    assert moments.msd[-1] == pytest.approx(2 * d0 * 36.0, rel=0.02)
    assert moments.mass[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.min(sol.values) >= -1e-13
    assert np.all(np.diff(sol.values.sum(axis=0)) <= 1e-14)


def test_classical_msd_slope_affine():
    times = np.arange(0, 201) * 0.01
    sol = solve_classical(0.08, unit_spike(101, 51), times, L1)
    msd = solution_moments(sol).msd
    assert linear_slope(times, msd) == pytest.approx(2 * 0.08, rel=0.01)


def test_negative_diffusivities_rejected():
    with pytest.raises(ConfigurationError):
        fractal_kernel(-0.1, 0.0, L1)
    with pytest.raises(ConfigurationError):
        solve_classical(-1.0, unit_spike(11, 6), np.arange(0, 5) * 0.1, L1)


def test_surrogate_zero_weights_outputs_log_two():
    zero = SurrogateNet(
        weights=tuple(np.zeros_like(w) for w in init_surrogate(0, (0, 1), (0, 1)).weights),
        biases=tuple(np.zeros_like(b) for b in init_surrogate(0, (0, 1), (0, 1)).biases),
        x_range=(0.0, 1.0), t_range=(0.0, 1.0),
    )
    values = surrogate_eval(zero, np.array([0.0, 0.3, 5.0]), np.array([0.1, 2.0, -1.0]))
    np.testing.assert_allclose(values, math.log(2.0), rtol=1e-15)


def test_surrogate_output_strictly_positive():
    net = init_surrogate(3, (0.0, 10.0), (0.0, 72.0))
    x = np.array([-50.0, 0.0, 3.7, 1e4])
    t = np.array([0.0, 1e3, -7.0, 36.0])
    assert np.all(surrogate_eval(net, x, t) > 0.0)


def test_surrogate_fits_zero_targets():
    times = np.arange(1, 31) * 0.1
    zeros = [BreakthroughCurve(location=1.0, times=times, values=np.zeros(30)),
             BreakthroughCurve(location=2.0, times=times, values=np.zeros(30))]
    net = train_surrogate(zeros, epochs=20_000, seed=1)
    inputs, targets = dataset_arrays(zeros)
    predictions = surrogate_eval(net, inputs[:, 0], inputs[:, 1])
    assert np.mean((predictions - targets) ** 2) < 1e-6


def test_surrogate_interpolates_single_sample():
    data = [BreakthroughCurve(location=1.5, times=np.array([0.7]),
                              values=np.array([0.42]))]
    net = train_surrogate(data, epochs=4_000, seed=2)
    assert abs(float(surrogate_eval(net, 1.5, 0.7)) - 0.42) < 1e-8


def test_surrogate_training_is_deterministic():
    times = np.arange(1, 11) * 0.2
    rng = np.random.default_rng(9)
    data = [BreakthroughCurve(location=0.5, times=times, values=rng.uniform(0, 1, 10)),
            BreakthroughCurve(location=1.5, times=times, values=rng.uniform(0, 1, 10))]
    net_a = train_surrogate(data, epochs=500, seed=7)
    net_b = train_surrogate(data, epochs=500, seed=7)
    for wa, wb in zip(net_a.weights, net_b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(net_a.biases, net_b.biases):
        np.testing.assert_array_equal(ba, bb)


def reference_train_surrogate(curves, epochs, learning_rate, seed):
    """Full-batch Adam with one update per parameter array, no shared buffer."""
    inputs_raw, targets = dataset_arrays(curves)
    x_range = (float(inputs_raw[:, 0].min()), float(inputs_raw[:, 0].max()))
    t_range = (float(inputs_raw[:, 1].min()), float(inputs_raw[:, 1].max()))
    net = init_surrogate(seed, x_range, t_range)
    inputs = np.column_stack([_normalize(inputs_raw[:, 0], *x_range),
                              _normalize(inputs_raw[:, 1], *t_range)])
    y = targets[:, None]
    n = inputs.shape[0]
    params = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    n_layers = len(net.weights)
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, epochs + 1):
        weights = params[:n_layers]
        out, z_out, activations = _forward(weights, params[n_layers:], inputs)
        delta = (2.0 / n) * (out - y) * expit(z_out)
        grads_w = [None] * n_layers
        grads_b = [None] * n_layers
        grads_w[-1] = activations[-1].T @ delta
        grads_b[-1] = delta.sum(axis=0)
        back = delta @ weights[-1].T
        for layer in range(n_layers - 2, -1, -1):
            back = back * (1.0 - activations[layer + 1] ** 2)
            grads_w[layer] = activations[layer].T @ back
            grads_b[layer] = back.sum(axis=0)
            if layer:
                back = back @ weights[layer].T
        for i, g in enumerate(grads_w + grads_b):
            moment1[i] = beta1 * moment1[i] + (1 - beta1) * g
            moment2[i] = beta2 * moment2[i] + (1 - beta2) * g ** 2
            m_hat = moment1[i] / (1 - beta1 ** step)
            v_hat = moment2[i] / (1 - beta2 ** step)
            params[i] = params[i] - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return params[:n_layers], params[n_layers:]


@pytest.mark.parametrize("seed", [3, 8])
def test_flat_adam_matches_per_array_reference(seed):
    times = np.arange(1, 41) * 0.3
    rng = np.random.default_rng(seed)
    data = [BreakthroughCurve(location=x, times=times,
                              values=rng.uniform(0, 1, times.size))
            for x in (0.5, 1.1, 2.0)]
    net = train_surrogate(data, epochs=300, learning_rate=1e-2, seed=seed)
    weights, biases = reference_train_surrogate(data, 300, 1e-2, seed)
    assert len(net.weights) == len(weights)
    for got, want in zip(net.weights + net.biases, weights + biases):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_adam_at_the_shipped_shape_matches_the_reference():
    # three curves of 360 samples, as the desk data's training probes give,
    # and the shipped network (3 hidden layers of width 4) and step size
    times = np.arange(1, 361) * 0.1
    rng = np.random.default_rng(21)
    data = [BreakthroughCurve(location=x, times=times,
                              values=np.exp(-(times - 8.0 * x) ** 2 / 20.0)
                              + rng.uniform(0, 0.01, times.size))
            for x in (0.5, 1.5, 3.5)]
    net = train_surrogate(data, epochs=200, seed=7)
    weights, biases = reference_train_surrogate(data, 200, 1e-3, 7)
    assert [w.shape for w in net.weights] == [(2, 4), (4, 4), (4, 4), (4, 1)]
    for got, want in zip(net.weights + net.biases, weights + biases):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("width", [1, 2, 4, 7])
def test_column_sums_are_np_sum_bit_for_bit(width):
    rng = np.random.default_rng(width)
    for rows in (1, 5, 360, 1080, 4321):
        array = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-6, 6)
        got, want = np.empty(width), np.empty(width)
        _column_sums(array, got)
        np.sum(array, axis=0, out=want)
        assert got.tobytes() == want.tobytes()


def test_surrogate_json_round_trip(tmp_path):
    times = np.arange(1, 6) * 0.5
    data = [BreakthroughCurve(location=2.0, times=times,
                              values=np.array([0.1, 0.4, 0.3, 0.2, 0.1]))]
    net = train_surrogate(data, epochs=200, seed=4)
    path = tmp_path / "mlp.json"
    path.write_text(json.dumps(net.record()))
    back = SurrogateNet.from_record(json.loads(path.read_text()))
    x = np.linspace(0, 4, 7)
    t = np.linspace(0, 3, 7)
    np.testing.assert_array_equal(surrogate_eval(back, x, t),
                                  surrogate_eval(net, x, t))


def test_dataset_arrays_flatten_and_sort():
    t1 = np.array([0.1, 0.2])
    curves = [BreakthroughCurve(location=2.0, times=t1, values=np.array([3.0, 4.0])),
              BreakthroughCurve(location=1.0, times=t1, values=np.array([1.0, 2.0]))]
    inputs, targets = dataset_arrays(curves)
    np.testing.assert_array_equal(inputs[:, 0], [1.0, 1.0, 2.0, 2.0])
    np.testing.assert_array_equal(inputs[:, 1], [0.1, 0.2, 0.1, 0.2])
    np.testing.assert_array_equal(targets, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ConfigurationError):
        dataset_arrays([])
