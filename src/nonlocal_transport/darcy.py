"""Steady Darcy flow on a structured grid, cell-centered finite volumes.

Two-point flux approximation with harmonic face transmissibilities.
Dirichlet heads on the left/right boundaries, no-flow on top/bottom.
The scheme is locally conservative, which is what the particle tracker
downstream relies on: it consumes the face-normal velocities directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.typing import NDArray

from .errors import SolverError
from .medium import MediumSpec, build_conductivity, unit_cell_spec

# Switch from sparse direct factorization to preconditioned CG above this
# number of unknowns.
DIRECT_SOLVER_MAX_UNKNOWNS = 400_000
CG_RELATIVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class FlowField:
    """Discrete Darcy solution: cell heads plus face-normal velocities.

    ``face_velocity_x`` has shape (nx+1, ny): column i holds the x-normal
    specific discharge on the faces between columns i-1 and i (columns 0
    and nx are the domain boundaries).  ``face_velocity_y`` has shape
    (nx, ny+1) and is zero on rows 0 and ny (no-flow walls).
    """

    grid_nx: int
    grid_ny: int
    dx: float
    dy: float
    face_velocity_x: NDArray[np.float64]
    face_velocity_y: NDArray[np.float64]
    head: NDArray[np.float64]

    @property
    def length_x(self) -> float:
        return self.grid_nx * self.dx

    @property
    def length_y(self) -> float:
        return self.grid_ny * self.dy


def _harmonic_face_transmissibility(
    cond: NDArray[np.float64], dx: float, dy: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Interior-face transmissibilities (x-faces, y-faces)."""
    ka, kb = cond[:-1, :], cond[1:, :]
    tx = (dy / dx) * 2.0 * ka * kb / (ka + kb)
    ka, kb = cond[:, :-1], cond[:, 1:]
    ty = (dx / dy) * 2.0 * ka * kb / (ka + kb)
    return tx, ty


def solve_darcy(
    conductivity: NDArray[np.float64],
    spec: MediumSpec,
    direct_max_unknowns: int | None = None,
) -> FlowField:
    """Solve div(kappa grad h) = 0 and return heads and face velocities.

    Boundary conditions: h = ``spec.head_left`` on the left boundary,
    h = 0 on the right, no flow through top and bottom.  Dirichlet faces
    use half-cell transmissibilities, so a homogeneous medium reproduces
    the linear head profile exactly.  Grids of more than
    ``direct_max_unknowns`` cells (default ``DIRECT_SOLVER_MAX_UNKNOWNS``,
    read at call time) are solved by CG instead of a direct factorization.

    Raises
    ------
    SolverError
        If the linear solve fails or leaves a non-negligible residual.
    """
    cond = np.asarray(conductivity, dtype=float)
    if np.any(cond <= 0) or not np.all(np.isfinite(cond)):
        raise SolverError("conductivity must be strictly positive and finite")
    nx, ny = cond.shape
    dx = spec.domain_length / nx
    dy = spec.layer_height / ny
    h_left = spec.head_left

    tx, ty = _harmonic_face_transmissibility(cond, dx, dy)
    # Dirichlet boundary faces: half-cell distance
    t_left = 2.0 * cond[0, :] * dy / dx
    t_right = 2.0 * cond[-1, :] * dy / dx

    n = nx * ny

    def idx(i: NDArray | int, j: NDArray | int):
        return np.asarray(i) * ny + np.asarray(j)

    diag = np.zeros((nx, ny))
    rows, cols, vals = [], [], []

    ii, jj = np.meshgrid(np.arange(nx - 1), np.arange(ny), indexing="ij")
    rows.append(idx(ii, jj).ravel())
    cols.append(idx(ii + 1, jj).ravel())
    vals.append(-tx.ravel())
    rows.append(idx(ii + 1, jj).ravel())
    cols.append(idx(ii, jj).ravel())
    vals.append(-tx.ravel())
    diag[:-1, :] += tx
    diag[1:, :] += tx

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny - 1), indexing="ij")
    rows.append(idx(ii, jj).ravel())
    cols.append(idx(ii, jj + 1).ravel())
    vals.append(-ty.ravel())
    rows.append(idx(ii, jj + 1).ravel())
    cols.append(idx(ii, jj).ravel())
    vals.append(-ty.ravel())
    diag[:, :-1] += ty
    diag[:, 1:] += ty

    diag[0, :] += t_left
    diag[-1, :] += t_right

    all_cells = np.arange(n)
    rows.append(all_cells)
    cols.append(all_cells)
    vals.append(diag.ravel())

    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    b = np.zeros((nx, ny))
    b[0, :] = t_left * h_left
    b = b.ravel()

    if direct_max_unknowns is None:
        direct_max_unknowns = DIRECT_SOLVER_MAX_UNKNOWNS
    if n <= direct_max_unknowns:
        h = spla.spsolve(A.tocsc(), b)
    else:
        precond = spla.LinearOperator((n, n), matvec=lambda v: v / diag.ravel())
        h, info = spla.cg(A, b, rtol=CG_RELATIVE_TOLERANCE, atol=0.0, M=precond,
                          maxiter=50 * int(np.sqrt(n)) + 1000)
        if info != 0:
            raise SolverError(f"CG did not converge (info={info})")

    residual = np.linalg.norm(A @ h - b)
    scale = np.linalg.norm(b)
    if not np.all(np.isfinite(h)) or residual > 1e-8 * max(scale, 1.0):
        raise SolverError(
            f"Darcy solve failed: residual {residual:.3e} vs rhs norm {scale:.3e}"
        )
    head = h.reshape(nx, ny)

    fvx = np.zeros((nx + 1, ny))
    fvx[0, :] = t_left * (h_left - head[0, :]) / dy
    fvx[1:-1, :] = tx * (head[:-1, :] - head[1:, :]) / dy
    fvx[-1, :] = t_right * head[-1, :] / dy
    fvy = np.zeros((nx, ny + 1))
    fvy[:, 1:-1] = ty * (head[:, :-1] - head[:, 1:]) / dx

    return FlowField(
        grid_nx=nx, grid_ny=ny, dx=dx, dy=dy,
        face_velocity_x=fvx, face_velocity_y=fvy, head=head,
    )


def solve_medium(
    spec: MediumSpec, grid_nx: int, grid_ny: int, **kwargs
) -> FlowField:
    """Build the conductivity field for ``spec`` and solve the flow."""
    return solve_darcy(build_conductivity(spec, grid_nx, grid_ny), spec, **kwargs)


def solve_unit_cell(spec: MediumSpec, grid_nx: int, grid_ny: int) -> FlowField:
    """Flow through one unit cell under a unit head drop.

    Used to compute the homogenized advection speed of the periodic medium.
    """
    return solve_medium(unit_cell_spec(spec), grid_nx, grid_ny)


def cell_divergence(flow: FlowField) -> NDArray[np.float64]:
    """Net volumetric outflux of every cell (zero for a conservative field)."""
    fx = flow.face_velocity_x * flow.dy
    fy = flow.face_velocity_y * flow.dx
    return (fx[1:, :] - fx[:-1, :]) + (fy[:, 1:] - fy[:, :-1])


def max_relative_divergence(flow: FlowField) -> float:
    """Largest per-cell divergence relative to the mean face flux magnitude."""
    fx = np.abs(flow.face_velocity_x * flow.dy)
    fy = np.abs(flow.face_velocity_y * flow.dx)
    mean_flux = (fx.sum() + fy.sum()) / (fx.size + fy.size)
    if mean_flux == 0.0:
        return 0.0
    return float(np.abs(cell_divergence(flow)).max() / mean_flux)


def cell_center_velocity(
    flow: FlowField,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Cell-centered velocity components (averages of opposing faces)."""
    vx = 0.5 * (flow.face_velocity_x[:-1, :] + flow.face_velocity_x[1:, :])
    vy = 0.5 * (flow.face_velocity_y[:, :-1] + flow.face_velocity_y[:, 1:])
    return vx, vy
