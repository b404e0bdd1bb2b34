"""Implicit solver for 1D nonlocal diffusion with a separable dynamic kernel.

The state lives on unit cells 1..N; everything outside carries a homogeneous
volume constraint (an absorbing collar as wide as the kernel horizon), which
the operator realizes by treating out-of-range neighbors as zero.  The kernel
separates into cell-integrated spatial weights phi_j and a temporal factor
t^p; time stepping is first-order implicit with the temporal factor evaluated
at the new level, except across the singular first step from t = 0 where its
step average is used so that exponents down to (but not including) -1 remain
usable.  ``march`` is the only time loop: it factors every step matrix once
and returns the states with the factors, so fitting solves the parameter
tangents of each step with the factors of the march that produced the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarsen import BreakthroughCurve, cell_traces
from .errors import ConfigurationError, SolverError
from .lapack import banded_lapack

#: Steps per ``march`` call in :func:`solve`.
SOLVE_BLOCK_STEPS = 64


@dataclass(frozen=True)
class DynamicKernel:
    """Separable nonlocal kernel: spatial weights phi times t**p.

    ``phi`` holds the 2*horizon_cells + 1 cell-integrated weights for offsets
    -horizon_cells..horizon_cells; the j = 0 entry never enters the operator
    (a cell exchanges nothing with itself) but is kept so that offsets and
    weights stay aligned.
    """

    phi: np.ndarray
    p: float
    horizon_cells: int
    cell_width: float

    def __post_init__(self) -> None:
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "phi", phi)
        if self.horizon_cells < 1:
            raise ConfigurationError("kernel horizon must span at least one cell")
        if phi.shape != (2 * self.horizon_cells + 1,):
            raise ConfigurationError(
                f"phi must have {2 * self.horizon_cells + 1} entries for "
                f"horizon {self.horizon_cells}")
        if np.any(phi < 0):
            raise ConfigurationError("kernel weights must be nonnegative")
        if not self.cell_width > 0:
            raise ConfigurationError("cell width must be positive")

    def record(self) -> dict:
        return {"phi": [float(v) for v in self.phi], "p": float(self.p),
                "N_delta": int(self.horizon_cells), "l1": float(self.cell_width)}

    @classmethod
    def from_record(cls, record) -> "DynamicKernel":
        return cls(phi=np.asarray(record["phi"], dtype=float), p=float(record["p"]),
                   horizon_cells=int(record["N_delta"]), cell_width=float(record["l1"]))


@dataclass(frozen=True)
class NonlocalSolution:
    """Cell values over time for one solve; the exterior collar is zero."""

    values: np.ndarray          # (num_cells, n_times)
    times: np.ndarray
    cell_width: float

    @property
    def num_cells(self) -> int:
        return self.values.shape[0]

    @property
    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.num_cells) + 0.5) * self.cell_width


def first_step_theta(p: float, dt: float) -> float:
    """Step average of t**p over (0, dt); finite for p > -1."""
    if p <= -1.0:
        raise ConfigurationError(
            f"temporal exponent p={p} is not integrable across the first step")
    return dt ** p / (p + 1.0)


def theta_schedule(p: float, times: np.ndarray):
    """Per-step theta and d(theta)/dp on a uniform grid starting at t = 0.

    Step n uses t_{n+1}**p, except the first, which uses the step average
    from :func:`first_step_theta`.
    """
    times = np.asarray(times, dtype=float)[1:]
    dt = times[0]
    with np.errstate(over="ignore", invalid="ignore"):
        theta = times ** p
        d_theta = theta * np.log(times)
        theta[0] = first_step_theta(p, dt)
        d_theta[0] = theta[0] * (np.log(dt) - 1.0 / (p + 1.0))
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(d_theta))):
        raise SolverError(
            f"time exponent p={p} overflows the step weights")
    return theta, d_theta


def assemble_operator(kernel: DynamicKernel, num_cells: int) -> np.ndarray:
    """Banded (diagonal-ordered) form of the spatial exchange operator.

    Row u - k of the returned (2*Nd+1, N) array holds the offset-k diagonal,
    u = Nd: constant phi_k off the diagonal and -sum(phi_j, j != 0) on it, so
    interior row sums telescope to zero and boundary rows leak mass into the
    collar.
    """
    nd = kernel.horizon_cells
    if num_cells <= 2 * nd:
        raise ConfigurationError(
            f"need more than {2 * nd} cells for a horizon of {nd}")
    phi = kernel.phi
    band = np.zeros((2 * nd + 1, num_cells))
    # weights that overflow leave a non-finite band, which march rejects
    with np.errstate(over="ignore", invalid="ignore"):
        band[nd, :] = -(np.sum(phi) - phi[nd])
    for k in range(1, nd + 1):
        band[nd - k, k:] = phi[nd + k]
        band[nd + k, :-k] = phi[nd - k]
    return band


def march(band: np.ndarray, theta: np.ndarray, dt: float, initial: np.ndarray):
    """Step (I - dt*theta_n*A) c_{n+1} = c_n once per entry of ``theta``.

    Every step matrix is filled at once, in LAPACK band storage, into an
    (n_steps, N, 3*Nd+1) array; one ``dgbsv`` per step LU-factors the
    Fortran-ordered ``systems[n].T`` in place and solves the step in place
    in ``states[n]`` (``BandedLapack.gbsv_chain``).  Returns (states,
    factors, pivots): c_1 .. c_{n_steps} as rows of an (n_steps, N) array,
    the factored systems and LAPACK's 1-based pivots in its own integer
    width, so more right-hand sides of step n (tangents) solve with
    ``banded_lapack().gbtrs_steps``.
    """
    nd = (band.shape[0] - 1) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        scale = dt * np.max(np.abs(band)) * np.max(theta)
    if not np.isfinite(scale):
        raise SolverError("exchange weights overflow the implicit system")
    n_steps, n = len(theta), band.shape[1]
    # nd rows of fill-in above the diagonals
    systems = np.zeros((n_steps, n, 3 * nd + 1))
    np.multiply((-dt * theta)[:, None, None], band.T, out=systems[:, :, nd:])
    systems[:, :, 2 * nd] += 1.0
    lapack = banded_lapack()
    pivots = np.empty((n_steps, n), dtype=lapack.int_dtype)
    states = np.empty((n_steps, n))
    info, step = lapack.gbsv_chain(systems, states, pivots, initial)
    if info != 0:   # not reachable for nonnegative kernels
        raise SolverError(
            f"implicit step {step} factorization failed (info={info})")
    if not np.isfinite(states).all():
        raise SolverError("implicit step produced non-finite values")
    return states, systems, pivots


def exchange_differences(c: np.ndarray, horizon_cells: int) -> np.ndarray:
    """Neighbor differences c_{i+j} - c_i, one column per offset j.

    For a state ``c`` of N cells, returns the (N, 2*horizon_cells + 1)
    matrix whose column horizon_cells + j holds the offset-j differences,
    with out-of-range neighbors zero, so ``exchange_differences(c, Nd) @
    phi`` applies the exchange operator to ``c``.  A stack of states
    (..., N) gives one such matrix per state, (..., N, 2*horizon_cells + 1).
    """
    n = c.shape[-1]
    padded = np.zeros(c.shape[:-1] + (n + 2 * horizon_cells,))
    padded[..., horizon_cells:horizon_cells + n] = c
    return padded[..., np.arange(n)[:, None]
                  + np.arange(2 * horizon_cells + 1)] - c[..., None]


def solve(kernel: DynamicKernel, initial: np.ndarray, times: np.ndarray) -> NonlocalSolution:
    """March the implicit scheme over a uniform grid starting at t = 0.

    ``march`` runs on blocks of ``SOLVE_BLOCK_STEPS`` steps, each starting
    from the last state of the one before, so only one block's factors are
    held at a time; no caller of ``solve`` needs them.
    """
    c0 = np.asarray(initial, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ConfigurationError("need a time grid with at least two instants")
    if times[0] != 0.0:
        raise ConfigurationError("the time grid must start at t = 0")
    dt = times[1] - times[0]
    if dt <= 0 or not np.allclose(np.diff(times), dt, rtol=1e-9, atol=0):
        raise ConfigurationError("the time grid must be uniform and increasing")
    theta, _ = theta_schedule(kernel.p, times)
    band = assemble_operator(kernel, c0.shape[0])
    values = np.empty((c0.shape[0], len(times)))
    values[:, 0] = c0
    for start in range(0, len(theta), SOLVE_BLOCK_STEPS):
        stop = min(start + SOLVE_BLOCK_STEPS, len(theta))
        states, _, _ = march(band, theta[start:stop], dt, values[:, start])
        values[:, start + 1:stop + 1] = states.T
    return NonlocalSolution(values=values, times=times.copy(),
                            cell_width=kernel.cell_width)


def unit_spike(num_cells: int, injection_cell: int) -> np.ndarray:
    """Initial profile with unit concentration in one (1-based) cell."""
    if not 1 <= injection_cell <= num_cells:
        raise ConfigurationError(
            f"injection cell {injection_cell} outside 1..{num_cells}")
    c0 = np.zeros(num_cells)
    c0[injection_cell - 1] = 1.0
    return c0


def model_btc(solution: NonlocalSolution, locations) -> list[BreakthroughCurve]:
    """Time traces of the cells owning each location, excluding t = 0."""
    return cell_traces(solution.values, solution.times, solution.cell_width,
                       locations)


@dataclass(frozen=True)
class ModelMoments:
    """Mass-weighted center and spread of a solve, per time level."""

    times: np.ndarray
    mass: np.ndarray
    mean_x: np.ndarray
    msd: np.ndarray


def solution_moments(solution: NonlocalSolution) -> ModelMoments:
    """Mass, mean position and variance of the cell profile over time."""
    x = solution.cell_centers[:, None]
    mass = solution.values.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_x = (solution.values * x).sum(axis=0) / mass
        spread = ((x - mean_x[None, :]) ** 2 * solution.values).sum(axis=0) / mass
    mean_x[mass == 0] = np.nan
    spread[mass == 0] = np.nan
    return ModelMoments(times=solution.times.copy(), mass=mass,
                        mean_x=mean_x, msd=spread)
