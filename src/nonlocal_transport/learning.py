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

Gradients are exact: tangents of the concentration field with respect to
every raw parameter are propagated through the same banded implicit time
stepper that produces the field itself, so the only error against a finite
difference oracle is floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .baselines import ClassicalParams, FractalParams
from .errors import ConfigurationError, SolverError
from .lbfgs import OptimizeResult, minimize
from .nonlocal_diffusion import (
    DynamicKernel, assemble_operator, exchange_differences, march,
    theta_schedule, unit_spike,
)

_MODELS = ("nonlocal", "fractal", "classical")


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
        if self.model not in _MODELS:
            raise ConfigurationError(
                f"unknown model {self.model!r}; expected one of {_MODELS}")
        if self.beta < 0:
            raise ConfigurationError("beta must be nonnegative")
        if not self.curves:
            raise ConfigurationError("at least one training curve is required")
        if self.cell_width <= 0 or self.dt <= 0:
            raise ConfigurationError("cell_width and dt must be positive")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be at least 1")
        if self.horizon_cells < 1:
            raise ConfigurationError("horizon_cells must be at least 1")
        if self.num_cells <= 2 * self.horizon_cells:
            raise ConfigurationError(
                "need more cells than the kernel is wide")
        if not 1 <= self.injection_cell <= self.num_cells:
            raise ConfigurationError("injection cell outside the domain")
        ordered = tuple(sorted(self.curves, key=lambda c: c.location))
        object.__setattr__(self, "curves", ordered)
        length = self.num_cells * self.cell_width
        expected = self.time_grid[1:]
        for curve in ordered:
            if not 0.0 < curve.location < length:
                raise ConfigurationError(
                    f"curve location {curve.location} outside (0, {length})")
            if curve.times.shape != expected.shape or not np.allclose(
                    curve.times, expected, rtol=0.0, atol=1e-9 * self.dt):
                raise ConfigurationError(
                    "curve time samples must match the solver time grid")

    @property
    def time_grid(self):
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def probe_cells(self):
        """Cell index (0-based) owning each training location."""
        idx = (np.array([c.location for c in self.curves]) / self.cell_width)
        return np.minimum(idx.astype(int), self.num_cells - 1)

    @property
    def targets(self):
        return np.stack([c.values for c in self.curves])

    def n_parameters(self):
        if self.model == "nonlocal":
            return 2 * self.horizon_cells + 1
        if self.model == "fractal":
            return 2
        return 1


# --- parameter maps -------------------------------------------------------
#
# A raw vector rho is mapped to (phi over all offsets, p) together with the
# Jacobian of that map: d_phi (2*Nd+1, n_par) and d_p (n_par,).  phi_0 is
# identically zero -- mass exchange of a cell with itself does nothing, so
# it is not a parameter.


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
        d_phi[slots, np.arange(n_par - 1)] = expit(raw[:-1])
        p = raw[-1]
        d_p[-1] = 1.0
    elif problem.model == "fractal":
        d_over = softplus(raw[0]) / problem.cell_width ** 2
        phi[nd - 1] = phi[nd + 1] = d_over
        d_phi[nd - 1, 0] = d_phi[nd + 1, 0] = (
            expit(raw[0]) / problem.cell_width ** 2)
        p = softplus(raw[1]) - 1.0
        d_p[1] = expit(raw[1])
    else:
        d_over = softplus(raw[0]) / problem.cell_width ** 2
        phi[nd - 1] = phi[nd + 1] = d_over
        d_phi[nd - 1, 0] = d_phi[nd + 1, 0] = (
            expit(raw[0]) / problem.cell_width ** 2)
        p = 0.0
    return phi, p, d_phi, d_p


def initial_raw(problem: LearningProblem) -> np.ndarray:
    """Default starting point: every positive quantity at 0.1, exponent 0."""
    base = float(softplus_inverse(0.1))
    if problem.model == "nonlocal":
        raw = np.full(problem.n_parameters(), base)
        raw[-1] = 0.0
        return raw
    if problem.model == "fractal":
        # D = 0.1, exponent p = 0 (softplus(s) = 1).
        return np.array([base, float(softplus_inverse(1.0))])
    return np.array([base])


# --- forward model and tangents ------------------------------------------


def _forward(problem: LearningProblem, phi, p, d_phi=None, d_p=None):
    """Step the model and, when Jacobians are given, its parameter tangents.

    Returns (btc, btc_tangent): the modelled curve matrix with shape
    (n_curves, n_steps) and, if requested, its derivative with respect to
    each raw parameter with shape (n_curves, n_steps, n_par).
    """
    if p <= -1.0:
        raise SolverError("time exponent must exceed -1")
    n = problem.num_cells
    nd = problem.horizon_cells
    dt = problem.dt
    probes = problem.probe_cells
    with_tangents = d_phi is not None
    theta, d_theta = theta_schedule(p, problem.time_grid)
    kernel = DynamicKernel(phi=phi, p=p, horizon_cells=nd,
                           cell_width=problem.cell_width)

    btc = np.empty((len(probes), problem.n_steps))
    btc_tan = None
    if with_tangents:
        n_par = d_phi.shape[1]
        tangents = np.zeros((n, n_par))
        btc_tan = np.empty((len(probes), problem.n_steps, n_par))

    for step, c, solve_step in march(assemble_operator(kernel, n), theta, dt,
                                     unit_spike(n, problem.injection_cell)):
        btc[:, step] = c[probes]
        if with_tangents:
            diffs = exchange_differences(c, nd)
            a_c = diffs @ phi
            # (I - dt*theta*A) cdot_{n+1} = cdot_n
            #                             + dt*(theta_dot*A + theta*A_dot) c_{n+1}
            rhs = (tangents
                   + dt * np.outer(a_c, d_theta[step] * d_p)
                   + dt * theta[step] * (diffs @ d_phi))
            tangents = solve_step(rhs)
            btc_tan[:, step, :] = tangents[probes]
    return btc, btc_tan


def _penalty_terms(problem, phi, d_phi=None):
    offsets = np.arange(-problem.horizon_cells, problem.horizon_cells + 1)
    first_moment = float(offsets @ phi)
    penalty = first_moment ** 2
    if d_phi is None:
        return penalty, None
    return penalty, 2.0 * first_moment * (offsets @ d_phi)


def evaluate_loss(problem: LearningProblem, raw) -> tuple[float, float, float]:
    """Return (loss, misfit, penalty) with loss = misfit + beta * penalty."""
    phi, p, _, _ = _map_parameters(problem, raw)
    btc, _ = _forward(problem, phi, p)
    misfit = float(np.sum((btc - problem.targets) ** 2))
    penalty, _ = _penalty_terms(problem, phi)
    return misfit + problem.beta * penalty, misfit, penalty


def loss_and_gradient(problem: LearningProblem, raw):
    phi, p, d_phi, d_p = _map_parameters(problem, raw)
    btc, btc_tan = _forward(problem, phi, p, d_phi, d_p)
    residual = btc - problem.targets
    misfit = float(np.sum(residual ** 2))
    grad = 2.0 * np.einsum("ct,ctk->k", residual, btc_tan)
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
    trace: list = field(default_factory=list)
    kernel: DynamicKernel | None = None
    fractal: FractalParams | None = None
    classical: ClassicalParams | None = None

    def parameters_json(self):
        if self.model == "nonlocal":
            return {"model": "nonlocal", **self.kernel.record()}
        if self.model == "fractal":
            return {"model": "fractal", "D_bar": float(self.fractal.D_bar),
                    "q": float(self.fractal.q)}
        return {"model": "classical",
                "D0_bar": float(self.classical.D0_bar)}

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


def _package_result(problem: LearningProblem, opt: OptimizeResult) -> FitResult:
    phi, p, _, _ = _map_parameters(problem, opt.x)
    loss, misfit, penalty = evaluate_loss(problem, opt.x)
    result = FitResult(
        model=problem.model,
        raw_parameters=np.asarray(opt.x, dtype=float),
        loss=loss,
        misfit=misfit,
        penalty=penalty,
        iterations=opt.iterations,
        gradient_norm=float(np.linalg.norm(opt.grad)),
        converged=opt.converged,
        message=opt.message,
        trace=opt.trace,
    )
    if problem.model == "nonlocal":
        result.kernel = DynamicKernel(
            phi=phi, p=float(p), horizon_cells=problem.horizon_cells,
            cell_width=problem.cell_width)
    elif problem.model == "fractal":
        result.fractal = FractalParams(
            D_bar=float(softplus(opt.x[0])), q=float(-p))
    else:
        result.classical = ClassicalParams(D0_bar=float(softplus(opt.x[0])))
    return result


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
    weight = classical.classical.D0_bar / problem.cell_width ** 2
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

    def fg(x):
        return loss_and_gradient(problem, x)

    def f_only(x):
        try:
            return evaluate_loss(problem, x)[0]
        except SolverError:
            return np.inf

    opt = minimize(fg, x0, fun_only=f_only, history=problem.history,
                   max_iterations=problem.max_iterations,
                   gradient_tolerance=problem.gradient_tolerance)
    return _package_result(problem, opt)
