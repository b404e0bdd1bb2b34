"""Steady Darcy flow on a structured grid, cell-centered finite volumes.

Two-point flux approximation with harmonic face transmissibilities.
Dirichlet heads on the left/right boundaries, no-flow on top/bottom.
The scheme is locally conservative, which is what the particle tracker
downstream relies on: it consumes the face-normal velocities directly.

:func:`solve_medium` solves one mirror-symmetric unit cell under a unit
head drop by a block-tridiagonal sweep over its columns and tiles that
flow, which is the periodic medium's exact flow at any size.
:func:`solve_darcy` solves any conductivity field with one global sparse
factorization (CG on large grids) and is kept as its reference.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import SolverError
from .lapack import mapped_openblas
from .medium import (MediumSpec, build_conductivity, columns_per_cell,
                     unit_cell_spec)

# Switch from sparse direct factorization to preconditioned CG above this
# number of unknowns.
DIRECT_SOLVER_MAX_UNKNOWNS = 400_000
CG_RELATIVE_TOLERANCE = 1e-12

#: (get, set) thread-count functions of the ILP64 OpenBLAS that numpy's
#: wheels ship, and of a plain OpenBLAS that numpy may be built on.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class FlowField:
    """Discrete Darcy solution: cell heads plus face-normal velocities.

    ``face_velocity_x`` has shape (nx+1, ny): column i holds the x-normal
    specific discharge on the faces between columns i-1 and i (columns 0
    and nx are the domain boundaries).  ``face_velocity_y`` has shape
    (nx, ny+1) and is zero on rows 0 and ny (no-flow walls).  The flows of
    :func:`solve_medium` keep the unit cell they tile in ``unit_cell``.
    """

    grid_nx: int
    grid_ny: int
    dx: float
    dy: float
    face_velocity_x: NDArray[np.float64]
    face_velocity_y: NDArray[np.float64]
    head: NDArray[np.float64]
    unit_cell: FlowField | None = None

    @property
    def length_x(self) -> float:
        return self.grid_nx * self.dx

    @property
    def length_y(self) -> float:
        return self.grid_ny * self.dy


def _face_transmissibilities(cond: NDArray[np.float64], dx: float, dy: float):
    """Transmissibilities (tx, ty, t_left, t_right): harmonic on interior
    faces, at half-cell distance on the left and right Dirichlet faces."""
    ka, kb = cond[:-1, :], cond[1:, :]
    tx = (dy / dx) * 2.0 * ka * kb / (ka + kb)
    ka, kb = cond[:, :-1], cond[:, 1:]
    ty = (dx / dy) * 2.0 * ka * kb / (ka + kb)
    return tx, ty, 2.0 * cond[0, :] * dy / dx, 2.0 * cond[-1, :] * dy / dx


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread.

    The unit-cell sweep makes one small dense inversion and a few
    matrix-vector products per grid column, all through numpy.  OpenBLAS
    splits each over a worker thread, which on a loaded two-core host can
    cost a scheduler slice per call and spins on after the last one, into
    the forked tracking workers.  Every OpenBLAS mapped when the block
    starts (:func:`lapack.mapped_openblas`) with numpy's ILP64 or the plain
    thread functions is held; scipy's, which the sweep never calls, is not.
    """
    saved = []
    for lib in mapped_openblas():
        for get, put in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                saved.append((put, get()))
                put(1)
                break
    try:
        yield
    finally:
        for put, threads in saved:
            put(threads)


def _strip_matrix(
    tx: NDArray[np.float64], ty: NDArray[np.float64],
    t_first: NDArray[np.float64], t_last: NDArray[np.float64],
):
    """TPFA matrix of consecutive whole grid columns, unknowns column-major.

    ``tx`` (m-1, ny) holds the faces between the m columns and ``ty``
    (m, ny-1) the faces inside each column.  ``t_first`` and ``t_last`` are
    the Dirichlet faces left of the first and right of the last column:
    they add to the diagonal only.  Returns a ``scipy.sparse.csr_matrix``.
    """
    import scipy.sparse as sp

    m, ny = ty.shape[0], ty.shape[1] + 1
    idx = np.arange(m * ny).reshape(m, ny)
    diag = np.zeros((m, ny))
    diag[:-1, :] += tx
    diag[1:, :] += tx
    diag[:, :-1] += ty
    diag[:, 1:] += ty
    diag[0, :] += t_first
    diag[-1, :] += t_last
    rows = [idx[:-1], idx[1:], idx[:, :-1], idx[:, 1:], idx]
    cols = [idx[1:], idx[:-1], idx[:, 1:], idx[:, :-1], idx]
    vals = [-tx, -tx, -ty, -ty, diag]
    return sp.csr_matrix(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([r.ravel() for r in rows]),
          np.concatenate([c.ravel() for c in cols]))),
        shape=(m * ny, m * ny),
    )


def _flow_field(
    head: NDArray[np.float64], tx: NDArray[np.float64], ty: NDArray[np.float64],
    t_left: NDArray[np.float64], t_right: NDArray[np.float64],
    h_left: float, dx: float, dy: float,
) -> FlowField:
    """Face velocities of the heads ``head`` (nx, ny) on the whole grid."""
    nx, ny = head.shape
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


def _check_residual(flow: FlowField, rhs_norm: float) -> None:
    """Raise unless the heads are finite and ``||A h - b||`` is negligible."""
    residual = np.linalg.norm(cell_divergence(flow))
    if not np.all(np.isfinite(flow.head)) or not residual <= 1e-8 * max(rhs_norm, 1.0):
        raise SolverError(
            f"Darcy solve failed: residual {residual:.3e} vs rhs norm {rhs_norm:.3e}"
        )


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
    The pipeline solves periodic media with :func:`solve_medium`; this
    global solve takes any conductivity field and is its reference.

    Raises
    ------
    SolverError
        If the linear solve fails or leaves a non-negligible residual.
    """
    import scipy.sparse.linalg as spla

    cond = np.asarray(conductivity, dtype=float)
    if np.any(cond <= 0) or not np.all(np.isfinite(cond)):
        raise SolverError("conductivity must be strictly positive and finite")
    nx, ny = cond.shape
    dx = spec.domain_length / nx
    dy = spec.layer_height / ny
    h_left = spec.head_left

    tx, ty, t_left, t_right = _face_transmissibilities(cond, dx, dy)
    n = nx * ny
    A = _strip_matrix(tx, ty, t_left, t_right)
    b = np.zeros((nx, ny))
    b[0, :] = t_left * h_left
    b = b.ravel()

    if direct_max_unknowns is None:
        direct_max_unknowns = DIRECT_SOLVER_MAX_UNKNOWNS
    if n <= direct_max_unknowns:
        h = spla.spsolve(A.tocsc(), b)
    else:
        diag = A.diagonal()
        precond = spla.LinearOperator((n, n), matvec=lambda v: v / diag)
        h, info = spla.cg(A, b, rtol=CG_RELATIVE_TOLERANCE, atol=0.0, M=precond,
                          maxiter=50 * int(np.sqrt(n)) + 1000)
        if info != 0:
            raise SolverError(f"CG did not converge (info={info})")

    flow = _flow_field(h.reshape(nx, ny), tx, ty, t_left, t_right, h_left, dx, dy)
    _check_residual(flow, np.linalg.norm(b))
    return flow


def _column_sweep(
    tx: NDArray[np.float64], ty: NDArray[np.float64],
    t_first: NDArray[np.float64], t_last: NDArray[np.float64],
):
    """Direct solver of the :func:`_strip_matrix` of the same faces.

    That matrix is block tridiagonal over the m columns, so a block Thomas
    sweep eliminates them left to right, keeping the inverse of every dense
    ny × ny Schur block.  Returns ``solve(rhs)`` for rhs of shape (m, ny).
    """
    m, ny = ty.shape[0], ty.shape[1] + 1
    rows = np.arange(ny)
    x_faces = np.concatenate([t_first[None], tx, t_last[None]])
    inverses = np.zeros((m, ny, ny))
    inverses[:, rows, rows] = x_faces[:-1] + x_faces[1:]
    inverses[:, rows[:-1], rows[:-1]] += ty
    inverses[:, rows[1:], rows[1:]] += ty
    inverses[:, rows[:-1], rows[1:]] = -ty
    inverses[:, rows[1:], rows[:-1]] = -ty
    inverses[0] = np.linalg.inv(inverses[0])
    for k in range(1, m):
        coupled = tx[k - 1][:, None] * inverses[k - 1] * tx[k - 1]
        inverses[k] = np.linalg.inv(inverses[k] - coupled)

    def solve(rhs):
        x = np.empty_like(rhs)
        x[0] = inverses[0] @ rhs[0]
        for k in range(1, m):
            x[k] = inverses[k] @ (rhs[k] + tx[k - 1] * x[k - 1])
        for k in range(m - 2, -1, -1):
            x[k] += inverses[k] @ (tx[k] * x[k + 1])
        return x

    return solve


def solve_medium(spec: MediumSpec, grid_nx: int, grid_ny: int) -> FlowField:
    """Solve the flow through the periodic medium exactly, at any size.

    :func:`build_conductivity` makes the unit cell mirror-symmetric in x,
    so its flow under a unit head drop between Dirichlet faces holds every
    boundary between cells at a uniform head.  That cell is solved by
    :func:`_column_sweep` and one refinement step on the residual that
    ``cell_divergence`` reads off the face fluxes, then tiled: face
    velocities scaled by the per-cell drop ``head_left / num_cells``, heads
    offset by it per cell.  This solves :func:`solve_darcy`'s system.
    """
    per_cell = columns_per_cell(spec, grid_nx)
    dx = spec.domain_length / grid_nx
    dy = spec.layer_height / grid_ny
    cond = build_conductivity(unit_cell_spec(spec), per_cell, grid_ny)
    tx, ty, t_left, t_right = _face_transmissibilities(cond, dx, dy)
    faces = (tx, ty, t_left, t_right, 1.0, dx, dy)
    b = np.zeros(cond.shape)
    b[0, :] = t_left
    with _one_blas_thread():
        solve = _column_sweep(tx, ty, t_left, t_right)
        cell = _flow_field(solve(b), *faces)
        cell = _flow_field(cell.head - solve(cell_divergence(cell)), *faces)
    _check_residual(cell, np.linalg.norm(b))

    n, drop = spec.num_cells, spec.head_left / spec.num_cells
    fvx = np.empty((grid_nx + 1, grid_ny))
    fvx[:-1].reshape(n, per_cell, grid_ny)[:] = drop * cell.face_velocity_x[:-1]
    fvx[-1] = drop * cell.face_velocity_x[-1]
    head = drop * (cell.head + np.arange(n - 1, -1, -1)[:, None, None])
    return FlowField(
        grid_nx=grid_nx, grid_ny=grid_ny, dx=dx, dy=dy, face_velocity_x=fvx,
        face_velocity_y=np.tile(drop * cell.face_velocity_y, (n, 1)),
        head=head.reshape(grid_nx, grid_ny), unit_cell=cell,
    )


def solve_unit_cell(spec: MediumSpec, grid_nx: int, grid_ny: int) -> FlowField:
    """Flow through one unit cell under a unit head drop."""
    return solve_medium(unit_cell_spec(spec), grid_nx, grid_ny)


def cell_divergence(flow: FlowField) -> NDArray[np.float64]:
    """Net volumetric outflux of every cell (zero for a conservative field)."""
    fx = flow.face_velocity_x * flow.dy
    fy = flow.face_velocity_y * flow.dx
    return (fx[1:, :] - fx[:-1, :]) + (fy[:, 1:] - fy[:, :-1])


def max_relative_divergence(flow: FlowField) -> float:
    """Largest per-cell divergence relative to the mean face flux magnitude.

    The face fluxes are formed once: the divergence is summed from them as
    :func:`cell_divergence` sums it, then their magnitudes are taken in
    place for the mean.
    """
    fx = flow.face_velocity_x * flow.dy
    fy = flow.face_velocity_y * flow.dx
    div = fx[1:, :] - fx[:-1, :]
    div += fy[:, 1:] - fy[:, :-1]
    peak = np.abs(div, out=div).max()
    mean_flux = ((np.abs(fx, out=fx).sum() + np.abs(fy, out=fy).sum())
                 / (fx.size + fy.size))
    if mean_flux == 0.0:
        return 0.0
    return float(peak / mean_flux)


def cell_center_velocity(
    flow: FlowField,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Cell-centered velocity components (averages of opposing faces)."""
    vx = 0.5 * (flow.face_velocity_x[:-1, :] + flow.face_velocity_x[1:, :])
    vy = 0.5 * (flow.face_velocity_y[:, :-1] + flow.face_velocity_y[:, 1:])
    return vx, vy
