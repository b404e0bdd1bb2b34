"""Steady Darcy flow on a structured grid, cell-centered finite volumes.

Two-point flux approximation with harmonic face transmissibilities.
Dirichlet heads on the left/right boundaries, no-flow on top/bottom.
The scheme is locally conservative, which is what the particle tracker
downstream relies on: it consumes the face-normal velocities directly.

:func:`solve_medium` solves the periodic medium exactly at any size by
substructuring it into unit cells.  :func:`solve_darcy` solves any
conductivity field with one global sparse factorization (CG on large
grids) and is kept as its reference.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import SolverError
from .medium import MediumSpec, build_conductivity, unit_cell_spec

# Switch from sparse direct factorization to preconditioned CG above this
# number of unknowns.
DIRECT_SOLVER_MAX_UNKNOWNS = 400_000
CG_RELATIVE_TOLERANCE = 1e-12

#: (get, set) thread-count functions of the OpenBLAS builds that numpy and
#: scipy ship, and of a plain OpenBLAS.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


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


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS mapped into this process at one thread.

    The substructured solve makes hundreds of small dense and
    multi-right-hand-side calls.  OpenBLAS splits each over a worker thread,
    which on a loaded two-core host can cost a scheduler slice per call and
    spins on after the last one, into the forked tracking workers.  numpy
    and scipy each load their own OpenBLAS; both are found through
    ``/proc/self/maps``, so a library first loaded inside the block runs
    at its own thread count.  Where none is found this does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        paths = []
    saved = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
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
    the faces left of the first and right of the last column: they add to
    the diagonal only, whether they lead to a Dirichlet boundary or to a
    neighbouring column that is eliminated elsewhere.  Returns a
    ``scipy.sparse.csr_matrix``.
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

    tx, ty = _harmonic_face_transmissibility(cond, dx, dy)
    # Dirichlet boundary faces: half-cell distance
    t_left = 2.0 * cond[0, :] * dy / dx
    t_right = 2.0 * cond[-1, :] * dy / dx

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


def _periodic_solver(
    tx: NDArray[np.float64], ty: NDArray[np.float64],
    t_left: NDArray[np.float64], t_right: NDArray[np.float64], num_cells: int,
):
    """Direct solver of the TPFA system of ``num_cells`` copies of one cell.

    ``tx`` (p, ny) holds the faces right of the unit cell's p columns, the
    last one leading into the next cell's first column, and ``ty``
    (p, ny-1) the faces inside them.  Returns ``solve(rhs)`` for
    right-hand sides of shape (p·num_cells, ny).

    The grid is cut at the first column of every cell after the first.  A
    block of p-1 columns lies between two cuts; the first block (p columns)
    and the last hold the Dirichlet faces.  Every middle block has the same
    matrix, so three factorizations serve all of them.  Eliminating the
    blocks leaves a block-tridiagonal Schur complement on the cuts, with
    dense ny × ny blocks, which a block Thomas sweep factors once.
    """
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla
    from scipy.linalg.lapack import dgetrs

    p, ny = ty.shape[0], ty.shape[1] + 1
    k_cuts = num_cells - 1
    wrap, inner = tx[-1], tx[0]  # the faces left and right of a cut

    def factor(t_first, t_last, first_column=1):
        return spla.splu(_strip_matrix(
            tx[first_column:-1], ty[first_column:], t_first, t_last).tocsc())

    def exchange(lu, sides):
        """The Schur terms that eliminating one block adds between its cuts.

        ``sides`` lists (first row, face transmissibilities) of each of the
        block's end columns that borders a cut; the result couples those
        cuts through the block's inverse, ny rows and columns per side.
        """
        unit = np.zeros((lu.shape[0], ny * len(sides)))
        for k, (row, face) in enumerate(sides):
            unit[row + np.arange(ny), k * ny + np.arange(ny)] = face
        z = lu.solve(unit)
        return np.vstack([face[:, None] * z[row:row + ny] for row, face in sides])

    first = factor(t_left, wrap if k_cuts else t_right, first_column=0)
    if not k_cuts:
        return lambda rhs: first.solve(rhs.ravel()).reshape(rhs.shape)
    cut = _strip_matrix(tx[:0], ty[:1], wrap, inner).toarray()
    from_first = exchange(first, [((p - 1) * ny, wrap)])
    if p > 1:
        last = factor(inner, t_right)
        middle = factor(inner, wrap) if k_cuts > 1 else None
        from_last = exchange(last, [(0, inner)])
        if middle is not None:
            through = exchange(middle, [(0, inner), ((p - 2) * ny, wrap)])
            upper = -through[:ny, ny:]
            diagonal = ([cut - from_first - through[:ny, :ny]]
                        + [cut - through[:ny, :ny] - through[ny:, ny:]]
                        * (k_cuts - 2)
                        + [cut - through[ny:, ny:] - from_last])
        else:
            diagonal = [cut - from_first - from_last]
    else:
        # the cuts are adjacent columns and the last one has the outlet face
        upper = -np.diag(wrap)
        diagonal = [cut] * (k_cuts - 1) + [
            _strip_matrix(tx[:0], ty[:1], wrap, t_right).toarray()]
        diagonal[0] = diagonal[0] - from_first

    factors = [sla.lu_factor(diagonal[0], check_finite=False)]
    for block in diagonal[1:]:
        coupled = upper.T @ sla.lu_solve(factors[-1], upper, check_finite=False)
        factors.append(sla.lu_factor(block - coupled, check_finite=False))

    def thomas(g):
        x = np.empty_like(g)
        x[0] = dgetrs(*factors[0], g[0])[0]
        for k in range(1, k_cuts):
            x[k] = dgetrs(*factors[k], g[k] - upper.T @ x[k - 1])[0]
        for k in range(k_cuts - 2, -1, -1):
            x[k] -= dgetrs(*factors[k], upper @ x[k + 1])[0]
        return x

    def solve_blocks(rhs):
        """Solve every block right of a cut; ``rhs`` is (k_cuts, p-1, ny)."""
        out = np.zeros_like(rhs)
        if not rhs.any():
            return out
        if middle is not None:
            out[:-1] = middle.solve(rhs[:-1].reshape(k_cuts - 1, -1).T).T.reshape(
                rhs[:-1].shape)
        out[-1] = last.solve(rhs[-1].ravel()).reshape(rhs[-1].shape)
        return out

    def solve(rhs):
        head = np.empty_like(rhs)
        cells = head[p:].reshape(k_cuts, p, ny)  # a view: cut, then block
        head[:p] = first.solve(rhs[:p].ravel()).reshape(p, ny)
        g = rhs[p::p].copy()
        g[0] += wrap * head[p - 1]
        if p > 1:
            cells[:, 1:] = solve_blocks(rhs[p:].reshape(k_cuts, p, ny)[:, 1:])
            g += inner * cells[:, 1]
            g[1:] += wrap * cells[:-1, -1]
        cells[:, 0] = thomas(g)
        # the blocks again, now with the cut heads on their faces
        first_rhs = rhs[:p].copy()
        first_rhs[-1] += wrap * cells[0, 0]
        head[:p] = first.solve(first_rhs.ravel()).reshape(p, ny)
        if p > 1:
            block_rhs = rhs[p:].reshape(k_cuts, p, ny)[:, 1:].copy()
            block_rhs[:, 0] += inner * cells[:, 0]
            block_rhs[:-1, -1] += wrap * cells[1:, 0]
            cells[:, 1:] = solve_blocks(block_rhs)
        return head

    return solve


def solve_medium(spec: MediumSpec, grid_nx: int, grid_ny: int) -> FlowField:
    """Build the conductivity field for ``spec`` and solve the flow exactly.

    The field repeats every unit cell, so every matrix the solve factors is
    assembled from one unit cell (see :func:`_periodic_solver`); no global
    matrix is built.  One step of iterative refinement with the same
    factors, on the residual ``cell_divergence`` reads off the face fluxes,
    brings the per-cell divergence to roundoff at every grid size.  The heads
    solve the same system as :func:`solve_darcy` on this field.
    """
    cond = build_conductivity(spec, grid_nx, grid_ny)
    p = grid_nx // spec.num_cells
    dx = spec.domain_length / grid_nx
    dy = spec.layer_height / grid_ny
    # one unit cell and the first column of the next
    tx, ty = _harmonic_face_transmissibility(
        np.concatenate([cond[:p], cond[:1]]), dx, dy)
    ty = ty[:p]
    t_left = 2.0 * cond[0, :] * dy / dx
    t_right = 2.0 * cond[-1, :] * dy / dx
    faces = (np.tile(tx, (spec.num_cells, 1))[:grid_nx - 1],
             np.tile(ty, (spec.num_cells, 1)), t_left, t_right,
             spec.head_left, dx, dy)
    b = np.zeros((grid_nx, grid_ny))
    b[0, :] = t_left * spec.head_left
    # map scipy's OpenBLAS, so that the guard finds it
    import scipy.linalg  # noqa: F401

    with _one_blas_thread():
        solve = _periodic_solver(tx, ty, t_left, t_right, spec.num_cells)
        flow = _flow_field(solve(b), *faces)
        flow = _flow_field(flow.head - solve(cell_divergence(flow)), *faces)
        _check_residual(flow, np.linalg.norm(b))
    return flow


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
