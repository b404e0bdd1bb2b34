import numpy as np
import pytest

from nonlocal_transport.darcy import (
    cell_center_velocity,
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
