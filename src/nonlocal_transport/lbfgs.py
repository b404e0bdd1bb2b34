"""Limited-memory BFGS with Armijo backtracking line search.

Small and dependency-free on purpose: the fits in this package have at most
a dozen parameters, and a self-contained optimizer keeps results stable
across library versions.  The caller supplies a combined value-and-gradient
callable; an optional value-only callable makes the line search cheaper when
gradients are expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Armijo sufficient-decrease constant, step halvings before the line search
#: fails, and the loss change (relative above a loss of 1) that ends a fit.
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 45
STAGNATION_TOLERANCE = 1e-14

#: The stops that report a converged fit.
CONVERGED_STOPS = ("gradient tolerance", "loss stagnation")


@dataclass
class OptimizeResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    iterations: int
    converged: bool
    message: str
    trace: list = field(default_factory=list)   # (iteration, fun, grad_norm)


def _two_loop_direction(grad, s_hist, y_hist):
    pairs = [(s, y, 1.0 / np.dot(s, y)) for s, y in zip(s_hist, y_hist)]
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        q *= np.dot(s, y) / np.dot(y, y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return -q


def minimize(fun_and_grad, x0, *, fun_only=None, history: int = 10,
             max_iterations: int = 500,
             gradient_tolerance: float = 1e-8) -> OptimizeResult:
    """Minimize a smooth function of a few variables.

    ``fun_and_grad(x) -> (f, g)`` is evaluated at accepted iterates;
    ``fun_only(x) -> f`` (defaults to the former) drives the backtracking.
    Terminates on the gradient norm, relative loss stagnation, the iteration
    cap, or an exhausted line search; the last two leave converged False.
    """
    if fun_only is None:
        def fun_only(x):
            return fun_and_grad(x)[0]

    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_and_grad(x)
    g = np.asarray(g, dtype=float)
    trace = [(0, float(f), float(np.linalg.norm(g)))]
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    iterations, message = max_iterations, "iteration limit"

    for iteration in range(1, max_iterations + 1):
        grad_norm = np.linalg.norm(g)
        if grad_norm <= gradient_tolerance:
            iterations, message = iteration - 1, "gradient tolerance"
            break
        direction = _two_loop_direction(g, s_hist, y_hist)
        descent = np.dot(direction, g)
        if not np.isfinite(descent) or descent >= 0:
            direction = -g
            descent = -grad_norm ** 2

        step = 1.0
        f_new = np.inf
        for _ in range(MAX_BACKTRACKS):
            candidate = x + step * direction
            f_new = fun_only(candidate)
            if np.isfinite(f_new) and f_new <= f + ARMIJO_C * step * descent:
                break
            step *= 0.5
        else:
            iterations, message = iteration - 1, "line search failed"
            break
        if step == 1.0:
            # The loose Armijo slope cannot see curvature, so a unit step can
            # land far short along a shallow valley.  Double while the Armijo
            # bound still holds and the value keeps improving; near a minimum
            # the first doubling already fails and the unit step is kept.
            trial = 2.0
            for _ in range(20):
                f_trial = fun_only(x + trial * direction)
                if not (np.isfinite(f_trial)
                        and f_trial <= f + ARMIJO_C * trial * descent
                        and f_trial < f_new):
                    break
                step, f_new = trial, f_trial
                trial *= 2.0

        x_new = x + step * direction
        f_new, g_new = fun_and_grad(x_new)
        g_new = np.asarray(g_new, dtype=float)
        s = x_new - x
        y = g_new - g
        if np.dot(s, y) > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > history:
                s_hist.pop(0)
                y_hist.pop(0)
        stalled = abs(f - f_new) <= STAGNATION_TOLERANCE * max(1.0, abs(f))
        x, f, g = x_new, f_new, g_new
        trace.append((iteration, float(f), float(np.linalg.norm(g))))
        if stalled:
            iterations, message = iteration, "loss stagnation"
            break

    return OptimizeResult(x=x, fun=f, grad=g, iterations=iterations,
                          converged=message in CONVERGED_STOPS,
                          message=message, trace=trace)
