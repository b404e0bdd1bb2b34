"""Forward-tangent gradient of the fitting loss: the adjoint's oracle.

Propagates the derivative of the concentration field with respect to every
raw parameter through each implicit step, solving the step's n_par
right-hand sides on the factors of the march that produced the state, and
contracts the curve tangents with the residual.  It does n_par solves per
step where ``learning.loss_and_gradient`` does one transposed solve.
"""

import numpy as np

from nonlocal_transport.errors import SolverError
from nonlocal_transport.lapack import banded_lapack
from nonlocal_transport.learning import (
    _forward, _map_parameters, _march, _penalty_terms,
)
from nonlocal_transport.nonlocal_diffusion import (
    exchange_differences, theta_schedule,
)


def curve_tangents(problem, phi, p, d_phi, d_p):
    """(btc, btc_tangent): the modelled curves (n_curves, n_steps) and their
    derivatives in each raw parameter, (n_curves, n_steps, n_par)."""
    marched = states, factors, pivots = _march(problem, phi, p)
    nd, dt = problem.horizon_cells, problem.dt
    n_par = d_phi.shape[1]
    theta, d_theta = theta_schedule(p, problem.time_grid)
    rate = d_theta[:, None] * d_p
    # tangents[n].T is the (N, n_par) Fortran-ordered tangent block of
    # step n + 1, solved in place on the factors of that step
    tangents = np.empty((problem.n_steps, n_par, problem.num_cells))
    solve_step = banded_lapack().gbtrs_steps(factors, pivots, tangents)
    previous = np.zeros((n_par, problem.num_cells))
    # (I - dt*theta*A) cdot_{n+1} = cdot_n + dt*(theta_dot*A + theta*A_dot) c_{n+1}
    # with A c = diffs @ phi and A_dot c = diffs @ d_phi
    diffs = exchange_differences(states, nd)
    y_terms = (diffs @ d_phi).transpose(0, 2, 1) * (dt * theta)[:, None, None]
    x_terms = dt * rate[:, :, None] * (diffs @ phi)[:, None, :]
    for step in range(problem.n_steps):
        tangents[step] = previous + x_terms[step] + y_terms[step]
        if solve_step(step) != 0:
            raise SolverError("implicit tangent solve failed")
        previous = tangents[step]
    btc_tan = tangents[:, :, problem.probe_cells].transpose(2, 0, 1)
    return _forward(problem, phi, p, marched), np.ascontiguousarray(btc_tan)


def tangent_loss_and_gradient(problem, raw):
    """(loss, gradient) as ``learning.loss_and_gradient`` defines them."""
    phi, p, d_phi, d_p = _map_parameters(problem, raw)
    btc, btc_tan = curve_tangents(problem, phi, p, d_phi, d_p)
    residual = btc - problem.targets
    grad = 2.0 * np.einsum("ct,ctk->k", residual, btc_tan)
    penalty, d_penalty = _penalty_terms(problem, phi, d_phi)
    return (float(np.sum(residual ** 2)) + problem.beta * penalty,
            grad + problem.beta * d_penalty)
