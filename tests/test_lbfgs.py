import numpy as np
import pytest

from nonlocal_transport import lbfgs
from nonlocal_transport.lbfgs import minimize


def quadratic(center, scales):
    center = np.asarray(center, float)
    scales = np.asarray(scales, float)

    def fg(x):
        d = x - center
        return float(np.sum(scales * d * d)), 2.0 * scales * d

    return fg


def test_quadratic_minimum_found():
    fg = quadratic([3.0, -1.0, 0.5], [1.0, 10.0, 100.0])
    res = minimize(fg, np.zeros(3))
    assert res.converged
    np.testing.assert_allclose(res.x, [3.0, -1.0, 0.5], atol=1e-7)
    assert res.fun < 1e-12


def test_rosenbrock_converges_from_standard_start():
    def fg(x):
        a, b = x
        f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
        g = np.array([-2 * (1 - a) - 400 * a * (b - a * a),
                      200 * (b - a * a)])
        return f, g

    res = minimize(fg, np.array([-1.2, 1.0]))
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_trace_records_monotone_accepted_losses():
    fg = quadratic([1.0, 2.0], [4.0, 7.0])
    res = minimize(fg, np.array([10.0, -10.0]))
    losses = [entry[1] for entry in res.trace]
    assert losses == sorted(losses, reverse=True)
    assert res.trace[0][0] == 0


def test_already_optimal_returns_immediately():
    fg = quadratic([0.0], [1.0])
    res = minimize(fg, np.zeros(1))
    assert res.converged
    assert res.iterations == 0
    assert res.message == "gradient tolerance"


def test_line_search_failure_returns_best_iterate():
    x0 = np.array([2.0])

    def fg(x):
        # Finite only at the start: every trial step sees NaN, so the
        # backtracking can never accept and must give up cleanly.
        if np.array_equal(x, x0):
            return 4.0, np.array([4.0])
        return float("nan"), np.array([float("nan")])

    res = minimize(fg, x0)
    assert not res.converged
    assert res.message == "line search failed"
    np.testing.assert_array_equal(res.x, x0)
    assert res.fun == 4.0


def test_iteration_cap_respected(monkeypatch):
    def fg(x):
        # Smooth non-convex wave: gradient never gets small on this stretch.
        return float(np.sin(x[0])) + 2.0, np.array([np.cos(x[0])])

    monkeypatch.setattr(lbfgs, "STAGNATION_TOLERANCE", 0.0)
    res = minimize(fg, np.array([0.3]), max_iterations=3)
    assert res.iterations <= 3


def test_iteration_limit_is_not_convergence():
    fg = quadratic([3.0, -1.0, 0.5], [1.0, 10.0, 100.0])
    res = minimize(fg, np.zeros(3), max_iterations=1)
    assert res.iterations == 1
    assert res.message == "iteration limit"
    assert not res.converged


def test_history_window_limits_memory():
    fg = quadratic(np.arange(12, dtype=float), np.linspace(1, 5, 12))
    res = minimize(fg, np.zeros(12), history=3)
    assert res.converged
    np.testing.assert_allclose(res.x, np.arange(12, dtype=float), atol=1e-6)


def test_deterministic_given_same_inputs():
    fg = quadratic([0.7, -0.3], [2.0, 9.0])
    first = minimize(fg, np.array([5.0, 5.0]))
    second = minimize(fg, np.array([5.0, 5.0]))
    np.testing.assert_array_equal(first.x, second.x)
    assert first.trace == second.trace
