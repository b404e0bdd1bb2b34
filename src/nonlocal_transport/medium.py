"""Periodic heterogeneous medium: geometry and conductivity field.

The medium is a thin 2D layer of homogeneous matrix conductivity with one
diamond-shaped low-conductivity inclusion per unit cell, repeated
periodically along x.  A fixed hydraulic head is applied on the left
boundary, zero head on the right.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError


@dataclass(frozen=True)
class MediumSpec:
    """Geometry and material parameters of the layered medium.

    Parameters
    ----------
    kappa_matrix : float
        Conductivity of the background matrix.
    kappa_inclusion : float
        Conductivity of the diamond inclusions.
    cell_width : float
        Unit-cell length along x.
    layer_height : float
        Layer thickness along y.
    num_cells : int
        Number of unit cells; the domain length is ``num_cells * cell_width``.
    head_left : float
        Hydraulic head prescribed on the left boundary (right boundary is 0).
    inclusion_fraction : float
        Diamond half-diagonals as a fraction of the unit-cell half-extents.
        1.0 puts the diamond vertices on the cell edge midpoints.
    """

    kappa_matrix: float
    kappa_inclusion: float
    cell_width: float
    layer_height: float
    num_cells: int
    head_left: float
    inclusion_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.kappa_matrix <= 0 or self.kappa_inclusion <= 0:
            raise ConfigurationError("conductivities must be strictly positive")
        if self.cell_width <= 0 or self.layer_height <= 0:
            raise ConfigurationError("cell_width and layer_height must be positive")
        if self.num_cells < 1:
            raise ConfigurationError("num_cells must be at least 1")
        if not 0.0 < self.inclusion_fraction <= 1.0:
            raise ConfigurationError("inclusion_fraction must lie in (0, 1]")

    @property
    def domain_length(self) -> float:
        return self.num_cells * self.cell_width

    def to_dict(self) -> dict:
        return asdict(self)


def unit_cell_spec(spec: MediumSpec) -> MediumSpec:
    """Single-cell medium with unit head drop, for homogenization solves."""
    return MediumSpec(
        kappa_matrix=spec.kappa_matrix,
        kappa_inclusion=spec.kappa_inclusion,
        cell_width=spec.cell_width,
        layer_height=spec.layer_height,
        num_cells=1,
        head_left=1.0,
        inclusion_fraction=spec.inclusion_fraction,
    )


def inclusion_mask(
    spec: MediumSpec, x: NDArray[np.float64], y: NDArray[np.float64]
) -> NDArray[np.bool_]:
    """True where points fall inside a diamond inclusion.

    A point belongs to the inclusion of its unit cell when
    ``|x - xc|/a + |y - yc|/b <= 1`` with half-diagonals
    ``a = inclusion_fraction * cell_width / 2`` and
    ``b = inclusion_fraction * layer_height / 2`` about the cell center.
    """
    a = spec.inclusion_fraction * spec.cell_width / 2.0
    b = spec.inclusion_fraction * spec.layer_height / 2.0
    # x offset from the owning cell's center; periodic in cell_width
    x_loc = np.mod(x, spec.cell_width) - spec.cell_width / 2.0
    y_loc = y - spec.layer_height / 2.0
    return np.abs(x_loc) / a + np.abs(y_loc) / b <= 1.0


def columns_per_cell(spec: MediumSpec, grid_nx: int) -> int:
    """Grid columns per unit cell; raises unless they are a whole number."""
    if grid_nx % spec.num_cells != 0:
        raise ConfigurationError(
            f"grid_nx={grid_nx} is not divisible by num_cells={spec.num_cells}"
        )
    return grid_nx // spec.num_cells


def build_conductivity(
    spec: MediumSpec, grid_nx: int, grid_ny: int
) -> NDArray[np.float64]:
    """Sample the conductivity field on a structured cell grid.

    Each grid cell of the left half of one unit cell (its middle column
    included) is classified by its center, spaced ``cell_width / columns``:
    inclusion conductivity if the center lies inside the diamond, matrix
    conductivity otherwise.  The right half mirrors it, so the cell is
    mirror-symmetric in x even where a center on the diamond's edge would
    round differently on each side.  The field is that cell tiled
    ``num_cells`` times.

    Parameters
    ----------
    grid_nx, grid_ny : int
        Number of grid cells along x and y.  ``grid_nx`` must be divisible
        by ``spec.num_cells`` so each unit cell maps to a whole number of
        grid columns.

    Returns
    -------
    ndarray, shape (grid_nx, grid_ny)
    """
    per_cell = columns_per_cell(spec, grid_nx)
    if grid_ny < 2:
        raise ConfigurationError("grid_ny must be at least 2")

    dx = spec.cell_width / per_cell
    dy = spec.layer_height / grid_ny
    xc = (np.arange((per_cell + 1) // 2) + 0.5) * dx
    yc = (np.arange(grid_ny) + 0.5) * dy
    xg, yg = np.meshgrid(xc, yc, indexing="ij")

    left = np.full(xg.shape, spec.kappa_matrix, dtype=float)
    left[inclusion_mask(spec, xg, yg)] = spec.kappa_inclusion
    cell = np.concatenate([left, left[:per_cell // 2][::-1]])
    return np.tile(cell, (spec.num_cells, 1))
