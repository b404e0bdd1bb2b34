"""Fitting transport models to breakthrough curves.

Three model families share one loss: the learned nonlocal kernel (weights
``phi_j`` and time exponent ``p``), the two-parameter power-law-in-time
diffusion baseline, and the constant-coefficient diffusion baseline.  The
loss is the sum of squared breakthrough-curve misfits plus ``beta`` times
the squared first moment of the kernel, which discourages spurious drift.

Positive quantities (kernel weights, diffusivities) are represented through
a softplus map so the optimizer works on unconstrained variables.  The time
exponent of the power-law baseline is parameterized as ``softplus(s) - 1``,
which keeps the early-time singularity integrable by construction.

Gradients are exact: one adjoint field is swept backward through the
transposed steps of the same banded implicit stepper that produces the
concentration field, on that march's LU factors, so the only error against
a finite difference oracle is floating-point roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, SolverError
from .lapack import banded_lapack
from .lbfgs import OptimizeResult, minimize
from .medium import check_cell, probe_cells
from .nonlocal_diffusion import (
    DynamicKernel, assemble_operator, check_horizon, exchange_differences,
    march, theta_schedule, unit_spike,
)

PDE_MODELS = ("nonlocal", "fractal", "classical")
# Steps whose exchange differences the adjoint gradient forms at once:
# enough to amortize the whole-array calls, few enough to keep them in cache
# and their memory independent of the number of steps.
_GRADIENT_BLOCK = 64


def softplus(z):
    return np.logaddexp(0.0, z)


def softplus_inverse(value):
    if np.any(np.asarray(value) <= 0):
        raise ConfigurationError("softplus inverse needs a positive argument")
    return np.log(np.expm1(value))


@dataclass(frozen=True)
class LearningProblem:
    """A fitting task: training curves plus the discretization they live on.

    The solver grid is ``num_cells`` cells of width ``cell_width`` with a
    unit of mass injected in ``injection_cell`` (1-based), stepped with
    ``n_steps`` implicit steps of size ``dt``.  Every training curve must be
    sampled exactly on that time grid (excluding t = 0).  Curves are stored
    sorted by location so the fit does not depend on the order in which
    they were supplied.
    """

    curves: tuple
    beta: float = 100.0
    model: str = "nonlocal"
    horizon_cells: int = 4
    cell_width: float = 1.0
    num_cells: int = 60
    injection_cell: int = 1
    dt: float = 0.1
    n_steps: int = 720
    history: int = 10
    max_iterations: int = 500
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        if self.model not in PDE_MODELS:
            raise ConfigurationError(
                f"unknown model {self.model!r}; expected one of {PDE_MODELS}")
        if self.beta < 0:
            raise ConfigurationError("beta must be nonnegative")
        if not self.curves:
            raise ConfigurationError("at least one training curve is required")
        if self.cell_width <= 0 or self.dt <= 0:
            raise ConfigurationError("cell_width and dt must be positive")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be at least 1")
        check_horizon(self.horizon_cells, self.num_cells)
        check_cell(self.injection_cell, self.num_cells, "model injection cell")
        ordered = tuple(sorted(self.curves, key=lambda c: c.location))
        object.__setattr__(self, "curves", ordered)
        probe_cells([c.location for c in ordered], self.cell_width,
                    self.num_cells)     # raises for a probe off the domain
        expected = self.time_grid[1:]
        for curve in ordered:
            if curve.times.shape != expected.shape or not np.allclose(
                    curve.times, expected, rtol=0.0, atol=1e-9 * self.dt):
                raise ConfigurationError(
                    "curve time samples must match the solver time grid")

    @property
    def time_grid(self):
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def probe_cells(self):
        """Cell index (0-based) owning each training location; raises for
        one outside the domain."""
        return probe_cells([c.location for c in self.curves], self.cell_width,
                           self.num_cells)

    @property
    def targets(self):
        return np.stack([c.values for c in self.curves])

    def n_parameters(self):
        """Weights (2*Nd, or one for offsets -1 and +1), then p unless classical."""
        weights = 2 * self.horizon_cells if self.model == "nonlocal" else 1
        return weights + (self.model != "classical")


# --- parameter maps -------------------------------------------------------
#
# A raw vector rho is mapped to (phi over all offsets, p) together with the
# Jacobian of that map: d_phi (2*Nd+1, n_par) and d_p (n_par,).  phi_0 is
# identically zero -- mass exchange of a cell with itself does nothing, so
# it is not a parameter.


def logistic(values) -> np.ndarray:
    """1 / (1 + exp(-v)) per element: softplus's derivative.

    Evaluated with ``math.exp``, one element at a time, so the values are
    the bits of ``scipy.special.expit``; an ``exp`` that overflows gives 0.
    """
    out = []
    for v in np.ravel(values):
        try:
            out.append(1.0 / (1.0 + math.exp(-v)))
        except OverflowError:
            out.append(0.0)
    return np.reshape(out, np.shape(values))


def _map_parameters(problem: LearningProblem, raw: np.ndarray):
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (problem.n_parameters(),):
        raise ConfigurationError(
            f"expected {problem.n_parameters()} raw parameters, "
            f"got shape {raw.shape}")
    nd = problem.horizon_cells
    width = 2 * nd + 1
    n_par = raw.size
    phi = np.zeros(width)
    d_phi = np.zeros((width, n_par))
    d_p = np.zeros(n_par)

    if problem.model == "nonlocal":
        # raw = (rho for offsets -Nd..-1, +1..Nd, then p)
        slots = [j for j in range(width) if j != nd]
        phi[slots] = softplus(raw[:-1])
        d_phi[slots, np.arange(n_par - 1)] = logistic(raw[:-1])
        p = raw[-1]
        d_p[-1] = 1.0
    else:
        # raw = (rho for D, then fractal's s with p = softplus(s) - 1)
        phi[nd - 1] = phi[nd + 1] = softplus(raw[0]) / problem.cell_width ** 2
        d_phi[nd - 1, 0] = d_phi[nd + 1, 0] = (
            logistic(raw[0]) / problem.cell_width ** 2)
        p = 0.0
        if problem.model == "fractal":
            p = softplus(raw[1]) - 1.0
            d_p[1] = logistic(raw[1])
    return phi, p, d_phi, d_p


def initial_raw(problem: LearningProblem) -> np.ndarray:
    """Default starting point: every positive quantity at 0.1, exponent 0."""
    raw = np.full(problem.n_parameters(), float(softplus_inverse(0.1)))
    if problem.model != "classical":
        # p itself for nonlocal; fractal's p = softplus(s) - 1 = 0
        raw[-1] = (0.0 if problem.model == "nonlocal"
                   else float(softplus_inverse(1.0)))
    return raw


# --- forward model and adjoint -------------------------------------------


def _march(problem: LearningProblem, phi, p):
    """State pass: march the model with weights ``phi`` and exponent ``p``.

    Returns what :func:`march` returns, (states, factors, pivots).
    """
    if p <= -1.0:
        raise SolverError("time exponent must exceed -1")
    theta, _ = theta_schedule(p, problem.time_grid)
    kernel = DynamicKernel(phi=phi, p=p, horizon_cells=problem.horizon_cells,
                           cell_width=problem.cell_width)
    n = problem.num_cells
    return march(assemble_operator(kernel, n), theta, problem.dt,
                 unit_spike(n, problem.injection_cell))


def _forward(problem: LearningProblem, phi, p, marched=None):
    """The modelled curve matrix, (n_curves, n_steps).

    ``marched`` is the state pass at (phi, p), marched here if omitted.
    """
    states = (_march(problem, phi, p) if marched is None else marched)[0]
    # C order, since the order in which np.sum adds follows the layout
    return np.ascontiguousarray(states[:, problem.probe_cells].T)


def _penalty_terms(problem, phi, d_phi=None):
    offsets = np.arange(-problem.horizon_cells, problem.horizon_cells + 1)
    first_moment = float(offsets @ phi)
    penalty = first_moment ** 2
    if d_phi is None:
        return penalty, None
    return penalty, 2.0 * first_moment * (offsets @ d_phi)


def evaluate_loss(problem: LearningProblem, raw,
                  marched=None) -> tuple[float, float, float]:
    """Return (loss, misfit, penalty) with loss = misfit + beta * penalty.

    ``marched`` is the state pass at ``raw`` if already marched.
    """
    phi, p, _, _ = _map_parameters(problem, raw)
    btc = _forward(problem, phi, p, marched)
    misfit = float(np.sum((btc - problem.targets) ** 2))
    penalty, _ = _penalty_terms(problem, phi)
    return misfit + problem.beta * penalty, misfit, penalty


def loss_and_gradient(problem: LearningProblem, raw, marched=None):
    """Return (loss, gradient); ``marched`` as for :func:`evaluate_loss`.

    Step n solves (I - dt*theta_n*A) c_{n+1} = c_n.  The adjoint solves
    (I - dt*theta_n*A)^T mu_n = g_n + mu_{n+1}, g_n the misfit's derivative
    in c_{n+1}, from the last step to the first on the march's factors; the
    misfit's gradient is sum_n mu_n . dt*(theta_dot_n*A + theta_n*A_dot) c_{n+1}.
    """
    phi, p, d_phi, d_p = _map_parameters(problem, raw)
    if marched is None:
        marched = _march(problem, phi, p)
    states, factors, pivots = marched
    residual = _forward(problem, phi, p, marched) - problem.targets
    misfit = float(np.sum(residual ** 2))
    # row n holds g_n, added since two probes may share a cell, then mu_n;
    # the last row is mu_{n_steps} = 0
    mu = np.zeros((problem.n_steps + 1, problem.num_cells))
    np.add.at(mu[:-1].T, problem.probe_cells, 2.0 * residual)
    solve_step = banded_lapack().gbtrs_steps(factors, pivots, mu[:-1, None],
                                             transpose=True)
    for step in reversed(range(problem.n_steps)):
        mu[step] += mu[step + 1]
        if solve_step(step) != 0:
            raise SolverError("implicit adjoint solve failed")
    # A c = diffs @ phi and A_dot c = diffs @ d_phi, so step n adds
    # mu_n^T diffs_n weighted by theta_n to d_phi's and theta_dot_n to p's
    theta, d_theta = theta_schedule(p, problem.time_grid)
    exchange, rate = np.zeros(2 * problem.horizon_cells + 1), 0.0
    for start in range(0, problem.n_steps, _GRADIENT_BLOCK):
        block = slice(start, min(start + _GRADIENT_BLOCK, problem.n_steps))
        diffs = exchange_differences(states[block], problem.horizon_cells)
        weighted = np.matmul(mu[block, None, :], diffs)[:, 0, :]
        exchange += theta[block] @ weighted
        rate += d_theta[block] @ (weighted @ phi)
    grad = problem.dt * (exchange @ d_phi + rate * d_p)
    if not np.isfinite(grad).all():
        raise SolverError("implicit step produced a non-finite gradient")
    penalty, d_penalty = _penalty_terms(problem, phi, d_phi)
    return misfit + problem.beta * penalty, grad + problem.beta * d_penalty


# --- fitting --------------------------------------------------------------


@dataclass
class FitResult:
    model: str
    raw_parameters: np.ndarray
    loss: float
    misfit: float
    penalty: float
    iterations: int
    gradient_norm: float
    converged: bool
    message: str
    kernel: DynamicKernel
    trace: list = field(default_factory=list)

    def parameters_json(self):
        if self.model == "nonlocal":
            return {"model": "nonlocal", **self.kernel.record()}
        d_bar = float(softplus(self.raw_parameters[0]))
        if self.model == "fractal":
            return {"model": "fractal", "D_bar": d_bar, "q": -self.kernel.p}
        return {"model": "classical", "D0_bar": d_bar}

    def to_json(self):
        return {
            "model": self.model,
            "parameters": self.parameters_json(),
            "raw_parameters": [float(v) for v in self.raw_parameters],
            "loss": self.loss,
            "misfit": self.misfit,
            "penalty": self.penalty,
            "iterations": self.iterations,
            "gradient_norm": self.gradient_norm,
            "converged": self.converged,
            "message": self.message,
            "trace": [
                {"iteration": it, "loss": f, "gradient_norm": gn}
                for it, f, gn in self.trace
            ],
        }


def _package_result(problem: LearningProblem, opt: OptimizeResult,
                    marched) -> FitResult:
    phi, p, _, _ = _map_parameters(problem, opt.x)
    loss, misfit, penalty = evaluate_loss(problem, opt.x, marched)
    return FitResult(
        model=problem.model,
        raw_parameters=np.asarray(opt.x, dtype=float),
        loss=loss,
        misfit=misfit,
        penalty=penalty,
        iterations=opt.iterations,
        gradient_norm=float(np.linalg.norm(opt.grad)),
        converged=opt.converged,
        message=opt.message,
        kernel=DynamicKernel(phi=phi, p=float(p),
                             horizon_cells=problem.horizon_cells,
                             cell_width=problem.cell_width),
        trace=opt.trace,
    )


def warm_start_raw(problem: LearningProblem,
                   classical: FitResult | None = None) -> np.ndarray:
    """Starting point for the full kernel, seeded by a classical pre-fit.

    The loss surface has a spurious shallow regime at very large exponents
    where every curve collapses to the uniform profile; its loss is poor
    but can still undercut the cold start's early transient, so a monotone
    line search may wander into it and stall.  Starting at the classical
    optimum (nearest-neighbor weights D/l1^2, exponent 0) puts every later
    monotone iterate below that regime's loss floor, which excludes it.
    ``classical`` is that pre-fit on the same data, fitted here if omitted.
    """
    if classical is None:
        classical = fit(replace(problem, model="classical"))
    weight = classical.kernel.phi[classical.kernel.horizon_cells + 1]
    base = float(softplus_inverse(weight))
    floor = float(softplus_inverse(min(1e-3, 0.01 * weight)))
    raw = np.full(problem.n_parameters(), floor)
    nd = problem.horizon_cells
    raw[nd - 1] = base   # weight for shift -1
    raw[nd] = base       # weight for shift +1
    raw[-1] = 0.0
    return raw


def fit(problem: LearningProblem, raw0=None) -> FitResult:
    """Fit the chosen model to the problem's training curves."""
    if raw0 is None:
        x0 = (warm_start_raw(problem) if problem.model == "nonlocal"
              else initial_raw(problem))
    else:
        x0 = np.asarray(raw0, float)

    # The state pass of the last two raw vectors marched, by their bytes.
    # The line search accepts its last candidate, or the one before when a
    # doubling fails, so the gradient at the accepted step marches nothing.
    recent = {}

    def state_pass(x):
        key = x.tobytes()
        if key not in recent:
            recent[key] = _march(problem, *_map_parameters(problem, x)[:2])
            if len(recent) > 2:
                del recent[next(iter(recent))]
        return recent[key]

    def fg(x):
        return loss_and_gradient(problem, x, state_pass(x))

    def f_only(x):
        try:
            return evaluate_loss(problem, x, state_pass(x))[0]
        except SolverError:
            return np.inf

    opt = minimize(fg, x0, fun_only=f_only, history=problem.history,
                   max_iterations=problem.max_iterations,
                   gradient_tolerance=problem.gradient_tolerance)
    return _package_result(problem, opt, state_pass(opt.x))
