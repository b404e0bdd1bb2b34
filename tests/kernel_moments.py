"""Moments of a ``DynamicKernel``'s exchange, for tests.

The pipeline never reads them; tests compare the solver's measured mean
and MSD growth against these closed forms.
"""

import numpy as np


def offsets(kernel) -> np.ndarray:
    """Cell offsets -N_delta..N_delta, aligned with ``kernel.phi``."""
    return np.arange(-kernel.horizon_cells, kernel.horizon_cells + 1)


def second_moment_rate(kernel) -> float:
    """Instantaneous MSD production per unit theta: sum phi_j (j l1)^2."""
    return float(np.sum(kernel.phi * (offsets(kernel) * kernel.cell_width) ** 2))


def drift_rate(kernel) -> float:
    """Center-of-mass velocity per unit theta: -l1 sum j phi_j."""
    return float(-kernel.cell_width * np.sum(offsets(kernel) * kernel.phi))
