import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_transport.coarsen import BreakthroughCurve, cell_traces
from nonlocal_transport.errors import ConfigurationError
from nonlocal_transport.learning import LearningProblem
from nonlocal_transport.medium import (
    MediumSpec, build_conductivity, inclusion_mask, owning_cell, probe_cells,
)
from nonlocal_transport.tracking import SnapshotReducer

L1 = np.sqrt(3.0) / 3.0


def diamond_spec(num_cells=4, inclusion_fraction=1.0):
    return MediumSpec(
        kappa_matrix=1.0,
        kappa_inclusion=0.01,
        cell_width=L1,
        layer_height=1.0,
        num_cells=num_cells,
        head_left=60.0,
        inclusion_fraction=inclusion_fraction,
    )


def test_cell_center_is_inclusion():
    spec = diamond_spec()
    cond = build_conductivity(spec, grid_nx=40, grid_ny=10)
    # center of each unit cell: column 10*k + 5, middle rows
    for k in range(4):
        assert cond[10 * k + 5, 5] == 0.01


def test_cell_corner_is_matrix():
    spec = diamond_spec()
    cond = build_conductivity(spec, grid_nx=40, grid_ny=10)
    for k in range(4):
        assert cond[10 * k, 0] == 1.0
        assert cond[10 * k, -1] == 1.0


def test_homogeneous_limit_constant_field():
    spec = MediumSpec(
        kappa_matrix=2.5, kappa_inclusion=2.5, cell_width=1.0,
        layer_height=1.0, num_cells=3, head_left=1.0,
    )
    cond = build_conductivity(spec, 30, 8)
    assert np.all(cond == 2.5)


def test_pattern_periodic_in_cell_width():
    spec = diamond_spec(num_cells=5, inclusion_fraction=0.8)
    cond = build_conductivity(spec, grid_nx=60, grid_ny=16)
    per = 12  # grid columns per unit cell
    for k in range(1, 5):
        np.testing.assert_array_equal(cond[:per, :], cond[k * per:(k + 1) * per, :])


def test_non_divisible_grid_rejected():
    with pytest.raises(ConfigurationError):
        build_conductivity(diamond_spec(num_cells=4), grid_nx=41, grid_ny=10)


def test_invalid_spec_rejected():
    with pytest.raises(ConfigurationError):
        MediumSpec(kappa_matrix=0.0, kappa_inclusion=1.0, cell_width=1.0,
                   layer_height=1.0, num_cells=2, head_left=1.0)
    with pytest.raises(ConfigurationError):
        MediumSpec(kappa_matrix=1.0, kappa_inclusion=1.0, cell_width=1.0,
                   layer_height=1.0, num_cells=0, head_left=1.0)
    with pytest.raises(ConfigurationError):
        MediumSpec(kappa_matrix=1.0, kappa_inclusion=1.0, cell_width=1.0,
                   layer_height=1.0, num_cells=2, head_left=1.0,
                   inclusion_fraction=1.5)


@settings(max_examples=30, deadline=None)
@given(
    frac=st.floats(min_value=0.05, max_value=1.0),
    x=st.floats(min_value=0.0, max_value=3.0),
    y=st.floats(min_value=0.0, max_value=1.0),
)
def test_inclusion_mask_periodic(frac, x, y):
    spec = MediumSpec(
        kappa_matrix=1.0, kappa_inclusion=0.5, cell_width=1.0,
        layer_height=1.0, num_cells=3, head_left=1.0, inclusion_fraction=frac,
    )
    a = inclusion_mask(spec, np.array([x]), np.array([y]))
    b = inclusion_mask(spec, np.array([x + spec.cell_width]), np.array([y]))
    assert a[0] == b[0]


def test_spec_dict_round_trip():
    spec = diamond_spec(inclusion_fraction=0.8)
    assert MediumSpec(**spec.to_dict()) == spec


def classify_every_center(spec, grid_nx, grid_ny):
    """The field as classified cell centre by cell centre over the whole grid."""
    dx = spec.domain_length / grid_nx
    dy = spec.layer_height / grid_ny
    xg, yg = np.meshgrid((np.arange(grid_nx) + 0.5) * dx,
                         (np.arange(grid_ny) + 0.5) * dy, indexing="ij")
    cond = np.full((grid_nx, grid_ny), spec.kappa_matrix, dtype=float)
    cond[inclusion_mask(spec, xg, yg)] = spec.kappa_inclusion
    return cond


@pytest.mark.parametrize("num_cells, grid_nx, grid_ny, head_left", [
    (60, 600, 40, 13.0),        # configs/desk.yaml
    (120, 2400, 80, 26.0),      # the transport-wide benchmark medium
    (220, 22000, 200, 60.0),    # configs/full_scale.yaml
], ids=["desk", "transport-wide", "full-scale"])
def test_tiled_unit_cell_equals_per_center_classification(
        num_cells, grid_nx, grid_ny, head_left):
    spec = MediumSpec(kappa_matrix=1.0, kappa_inclusion=0.01, cell_width=L1,
                      layer_height=1.0, num_cells=num_cells,
                      head_left=head_left)
    np.testing.assert_array_equal(
        build_conductivity(spec, grid_nx, grid_ny),
        classify_every_center(spec, grid_nx, grid_ny))


@pytest.mark.parametrize("inclusion_fraction", [0.8, 1.0])
@pytest.mark.parametrize("grid_ny", [2, 4, 10, 12, 40])
def test_unit_cell_is_mirror_symmetric(grid_ny, inclusion_fraction):
    # the tiled Darcy solve is exact only for a cell that equals its mirror
    spec = diamond_spec(num_cells=3, inclusion_fraction=inclusion_fraction)
    for per_cell in range(2, 41):
        cell = build_conductivity(spec, 3 * per_cell, grid_ny)[:per_cell]
        np.testing.assert_array_equal(cell, cell[::-1], err_msg=f"{per_cell}")


@st.composite
def located_probes(draw):
    """(num_cells, cell_width, x) with x inside the open domain: anywhere,
    on an interior cell face, the smallest positive float, or one ulp short
    of the domain's end."""
    num_cells = draw(st.integers(3, 40))
    width = draw(st.one_of(st.just(L1), st.floats(0.01, 10.0)))
    length = num_cells * width
    x = draw(st.one_of(
        st.floats(0.0, length, exclude_min=True, exclude_max=True),
        st.integers(1, num_cells - 1).map(lambda k: k * width),
        st.just(float(np.nextafter(0.0, 1.0))),
        st.just(float(np.nextafter(length, 0.0)))))
    return num_cells, width, x


@settings(max_examples=300, deadline=None)
@given(located_probes())
def test_particles_data_and_fits_share_the_owning_cell(probe):
    num_cells, width, x = probe
    cell = int(owning_cell(x, width, num_cells))
    assert cell == min(math.floor(x / width), num_cells - 1)
    assert probe_cells([x], width, num_cells).tolist() == [cell]

    reducer = SnapshotReducer([0.0], 1, width, num_cells)
    reducer.add(0, np.array([[x, 0.5]]), np.array([np.inf]))
    assert list(np.flatnonzero(reducer.cell_count[0])) == [cell]

    times = np.array([0.0, 0.1])
    rows = np.repeat(np.arange(num_cells, dtype=float)[:, None], 2, axis=1)
    (trace,) = cell_traces(rows, times, width, [x])
    assert trace.values.tolist() == [cell]

    problem = LearningProblem(
        curves=(BreakthroughCurve(location=x, times=times[1:],
                                  values=np.zeros(1)),),
        horizon_cells=1, cell_width=width, num_cells=num_cells, dt=0.1,
        n_steps=1)
    assert problem.probe_cells.tolist() == [cell]


@pytest.mark.parametrize("edge", [
    lambda length: 0.0,
    lambda length: float(np.nextafter(0.0, -1.0)),
    lambda length: length,
    lambda length: float(np.nextafter(length, np.inf)),
    lambda length: math.nan,
], ids=["zero", "below-zero", "length", "above-length", "nan"])
def test_probe_cells_refuse_the_first_probe_off_the_open_domain(edge):
    num_cells = 24
    length = num_cells * L1
    x = edge(length)
    with pytest.raises(ConfigurationError,
                       match=rf"^location {re.escape(str(x))} outside the "
                             rf"open domain \(0, {re.escape(str(length))}\)$"):
        probe_cells([1.0, x, -1.0], L1, num_cells)
