import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import nonlocal_transport
from nonlocal_transport.darcy import (
    FlowField,
    _column_sweep,
    _face_transmissibilities,
    _strip_matrix,
    cell_center_velocity,
    cell_divergence,
    max_relative_divergence,
    solve_darcy,
    solve_medium,
    solve_unit_cell,
)
from nonlocal_transport.errors import SolverError
from nonlocal_transport.medium import (
    MediumSpec,
    build_conductivity,
    inclusion_mask,
    unit_cell_spec,
)

L1 = np.sqrt(3.0) / 3.0


def hetero_spec(num_cells=8, inclusion_fraction=1.0, head_left=60.0):
    """Material parameters of the reference heterogeneous layer."""
    return MediumSpec(
        kappa_matrix=1.0,
        kappa_inclusion=0.01,
        cell_width=L1,
        layer_height=1.0,
        num_cells=num_cells,
        head_left=head_left,
        inclusion_fraction=inclusion_fraction,
    )


def homog_spec(kappa=1.0, num_cells=6, head_left=3.0):
    return MediumSpec(
        kappa_matrix=kappa, kappa_inclusion=kappa, cell_width=0.5,
        layer_height=1.0, num_cells=num_cells, head_left=head_left,
    )


def test_homogeneous_linear_head_and_uniform_velocity():
    spec = homog_spec(kappa=2.0, head_left=5.0)
    flow = solve_medium(spec, grid_nx=60, grid_ny=12)
    L = spec.domain_length
    xc = (np.arange(60) + 0.5) * flow.dx
    expected = spec.head_left * (1.0 - xc / L)
    assert np.max(np.abs(flow.head - expected[:, None])) < 1e-10
    v_expected = spec.kappa_matrix * spec.head_left / L
    assert np.max(np.abs(flow.face_velocity_x - v_expected)) < 1e-10
    assert np.max(np.abs(flow.face_velocity_y)) < 1e-12


def test_divergence_free_heterogeneous():
    flow = solve_medium(hetero_spec(), grid_nx=80, grid_ny=24)
    assert max_relative_divergence(flow) < 1e-10


def reference_max_relative_divergence(flow):
    """The divergence gate's plain formula, one temporary per step."""
    fx = np.abs(flow.face_velocity_x * flow.dy)
    fy = np.abs(flow.face_velocity_y * flow.dx)
    mean_flux = (fx.sum() + fy.sum()) / (fx.size + fy.size)
    if mean_flux == 0.0:
        return 0.0
    return float(np.abs(cell_divergence(flow)).max() / mean_flux)


def random_face_flow(seed, nx=30, ny=7):
    """Face velocities of both signs and no conservation at all."""
    rng = np.random.default_rng(seed)
    return FlowField(grid_nx=nx, grid_ny=ny, dx=rng.uniform(0.1, 1.0),
                     dy=rng.uniform(0.1, 1.0),
                     face_velocity_x=rng.normal(0.3, 1.0, (nx + 1, ny)),
                     face_velocity_y=rng.normal(0.0, 1.0, (nx, ny + 1)),
                     head=np.zeros((nx, ny)))


@pytest.mark.parametrize("field", ["desk", "transport-wide", "random0",
                                   "random1", "random2", "still"])
def test_max_relative_divergence_matches_reference(field):
    if field == "desk":
        flow = solve_medium(hetero_spec(num_cells=60, head_left=13.0), 600, 40)
    elif field == "transport-wide":
        flow = solve_medium(hetero_spec(num_cells=120, head_left=26.0),
                            2400, 80)
    elif field == "still":
        flow = solve_medium(homog_spec(head_left=0.0), 60, 8)
    else:
        flow = random_face_flow(int(field.removeprefix("random")))
    want = reference_max_relative_divergence(flow)
    got = max_relative_divergence(flow)
    assert type(got) is float
    assert got.hex() == want.hex()


def test_global_mass_balance():
    spec = hetero_spec()
    flow = solve_medium(spec, grid_nx=80, grid_ny=24)
    influx = np.sum(flow.face_velocity_x[0, :]) * flow.dy
    outflux = np.sum(flow.face_velocity_x[-1, :]) * flow.dy
    assert influx > 0
    assert abs(influx - outflux) < 1e-10 * abs(influx)


def test_no_flow_walls():
    flow = solve_medium(hetero_spec(), grid_nx=40, grid_ny=12)
    assert np.all(flow.face_velocity_y[:, 0] == 0.0)
    assert np.all(flow.face_velocity_y[:, -1] == 0.0)


def test_head_symmetric_about_midplane():
    # inclusions are symmetric about y = l2/2, so the head must be too
    flow = solve_medium(hetero_spec(), grid_nx=40, grid_ny=16)
    assert np.max(np.abs(flow.head - flow.head[:, ::-1])) < 1e-9


def test_discrete_maximum_principle():
    spec = hetero_spec(head_left=60.0)
    flow = solve_medium(spec, grid_nx=40, grid_ny=12)
    assert flow.head.min() >= -1e-10
    assert flow.head.max() <= spec.head_left + 1e-10


def test_grid_convergence_of_throughflow():
    # Full-size diamonds with 8 columns / 16 rows per cell: the inclusion
    # boundary runs at an exact slope of 2 in index space, so no cell center
    # ever sits on the boundary (parity argument) and the discrete geometry
    # is stable under doubling.  Partial-size diamonds do not have this
    # property: center classification flips between levels and the geometry
    # error is non-monotone.
    spec = hetero_spec(num_cells=4, inclusion_fraction=1.0)

    def throughflow(nx, ny):
        flow = solve_medium(spec, nx, ny)
        return np.sum(flow.face_velocity_x[-1, :]) * flow.dy

    q1 = throughflow(32, 16)
    q2 = throughflow(64, 32)
    q3 = throughflow(128, 64)
    q4 = throughflow(256, 128)
    q_ref = throughflow(512, 256)
    e1, e2, e3, e4 = (abs(q - q_ref) for q in (q1, q2, q3, q4))
    assert e1 > e2 > e3 > e4
    assert e2 / e1 <= 0.6
    assert e3 / e2 <= 0.6
    assert e4 / e3 <= 0.6


def test_unit_cell_homogeneous_velocity():
    spec = homog_spec(kappa=1.5)
    flow = solve_unit_cell(spec, grid_nx=10, grid_ny=10)
    v_expected = spec.kappa_matrix / spec.cell_width
    assert np.max(np.abs(flow.face_velocity_x - v_expected)) < 1e-10


def test_unit_cell_matches_single_cell_domain():
    spec = hetero_spec(num_cells=1)
    cell = solve_unit_cell(spec, grid_nx=12, grid_ny=12)
    direct = solve_medium(unit_cell_spec(spec), grid_nx=12, grid_ny=12)
    np.testing.assert_allclose(cell.head, direct.head, rtol=0, atol=1e-12)


def test_inclusion_flow_slower_than_matrix():
    # Isolated diamonds (fraction < 1) are shielded by the fast matrix
    # channels; full-size diamonds touch at the throats and carry more flux.
    spec = hetero_spec(num_cells=1, inclusion_fraction=0.8)
    flow = solve_unit_cell(spec, grid_nx=24, grid_ny=24)
    vx, vy = cell_center_velocity(flow)
    speed = np.hypot(vx, vy)
    xc = (np.arange(24) + 0.5) * flow.dx
    yc = (np.arange(24) + 0.5) * flow.dy
    xg, yg = np.meshgrid(xc, yc, indexing="ij")
    inside = inclusion_mask(unit_cell_spec(spec), xg, yg)
    assert speed[inside].mean() < 0.2 * speed[~inside].mean()


def test_zero_conductivity_rejected():
    spec = homog_spec()
    cond = build_conductivity(spec, 12, 6)
    cond[3, 3] = 0.0
    with pytest.raises(SolverError):
        solve_darcy(cond, spec)


def test_cg_path_matches_direct():
    spec = hetero_spec(num_cells=2)
    cond = build_conductivity(spec, 20, 10)
    direct = solve_darcy(cond, spec)
    iterative = solve_darcy(cond, spec, direct_max_unknowns=10)
    assert np.max(np.abs(direct.head - iterative.head)) < 1e-7 * spec.head_left


@pytest.mark.parametrize("num_cells", [1, 2, 3, 8])
@pytest.mark.parametrize("per_cell", [1, 2, 5, 10, 20])
@pytest.mark.parametrize("grid_ny", [2, 4, 10, 12])
@pytest.mark.parametrize("inclusion_fraction", [0.8, 1.0])
def test_substructured_solve_matches_global_solve(
        num_cells, per_cell, grid_ny, inclusion_fraction):
    spec = hetero_spec(num_cells=num_cells,
                       inclusion_fraction=inclusion_fraction)
    nx = num_cells * per_cell
    flow = solve_medium(spec, nx, grid_ny)
    reference = solve_darcy(build_conductivity(spec, nx, grid_ny), spec)
    assert (np.max(np.abs(flow.head - reference.head))
            <= 1e-9 * np.max(np.abs(reference.head)))
    assert max_relative_divergence(flow) <= 1e-9


def test_substructured_solve_above_the_direct_solver_limit():
    # 420k unknowns: more than the global direct solve takes (400k), so
    # solve_darcy would run CG here
    spec = hetero_spec(num_cells=210)
    flow = solve_medium(spec, grid_nx=4200, grid_ny=100)
    assert flow.head.size > 400_000
    assert max_relative_divergence(flow) <= 1e-9
    assert flow.head.min() >= -1e-10
    assert flow.head.max() <= spec.head_left + 1e-10


@pytest.mark.parametrize("num_cells", [1, 2, 3, 5])
@pytest.mark.parametrize("per_cell", [1, 2, 4])
@pytest.mark.parametrize("grid_ny", [2, 7])
def test_periodic_solver_solves_any_right_hand_side(
        num_cells, per_cell, grid_ny):
    # the refinement step hands the column sweep a residual that is nonzero
    # in every column, unlike the Dirichlet right-hand side; here it solves
    # the whole periodic medium's matrix
    spec = hetero_spec(num_cells=num_cells, inclusion_fraction=0.8)
    nx = num_cells * per_cell
    cond = build_conductivity(spec, nx, grid_ny)
    faces = _face_transmissibilities(
        cond, spec.domain_length / nx, spec.layer_height / grid_ny)
    solve = _column_sweep(*faces)
    rhs = np.random.default_rng(num_cells * per_cell).standard_normal(
        (nx, grid_ny))
    matrix = _strip_matrix(*faces)
    expected = spla.spsolve(matrix.tocsc(), rhs.ravel()).reshape(nx, grid_ny)
    np.testing.assert_allclose(solve(rhs), expected, rtol=0,
                               atol=1e-10 * np.abs(expected).max())


#: Solves a periodic medium in an interpreter that has not loaded scipy
#: and prints the thread count of every OpenBLAS mapped into the process,
#: once inside the solve (right after the column sweep has inverted its
#: Schur blocks) and once after it.
BLAS_PROBE = """
import ctypes, json, sys
from nonlocal_transport import darcy, lapack
from nonlocal_transport.medium import MediumSpec

def openblas_threads():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for get, _ in lapack._OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get):
                get = getattr(lib, get)
                get.argtypes, get.restype = [], ctypes.c_int
                threads[path] = get()
                break
    return threads

assert not [m for m in sys.modules if m.startswith("scipy")]
inside = []
column_sweep = darcy._column_sweep

def probed(*args):
    solve = column_sweep(*args)
    inside.append(openblas_threads())
    return solve

darcy._column_sweep = probed
spec = MediumSpec(kappa_matrix=1.0, kappa_inclusion=0.01, cell_width=0.5,
                  layer_height=1.0, num_cells=4, head_left=8.0)
darcy.solve_medium(spec, 40, 8)
print(json.dumps({"inside": inside[0], "after": openblas_threads()}))
"""


def test_blas_guard_holds_every_openblas_during_the_solve():
    src = str(Path(nonlocal_transport.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    threads = json.loads(done.stdout.splitlines()[-1])
    assert threads["inside"], "no OpenBLAS found during the solve"
    # every OpenBLAS mapped during the solve was held at one thread
    assert set(threads["inside"]) == set(threads["after"])
    assert set(threads["inside"].values()) == {1}
    assert set(threads["after"].values()) == {2}
