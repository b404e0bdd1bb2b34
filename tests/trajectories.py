"""Whole trajectories of a tracked ensemble, for tests.

``tracking.track`` keeps only the last snapshot and the per-snapshot
reductions.  :func:`track` here runs the same block tracker in this process
and copies every row it writes into one buffer instead, so tests can read
``positions[j]`` at any snapshot, and :func:`trajectories` reduces given
rows through ``tracking.SnapshotReducer`` as ``track`` reduces them, so
``displacement_stats`` and ``coarse_from_ensemble`` take either kind of
ensemble.
"""

from dataclasses import dataclass

import numpy as np

from nonlocal_transport import tracking
from nonlocal_transport.tracking import ParticleEnsemble, SnapshotReducer


@dataclass(frozen=True)
class Trajectories(ParticleEnsemble):
    """An ensemble whose ``positions`` hold every snapshot,
    (snapshots x particles x 2).

    Its own ``snapshots`` are binned on one cell spanning the domain; the
    unit-cell masses of a medium are reduced from the rows when asked for.
    """

    def unit_cell_mass(self, spec) -> np.ndarray:
        return reduce_rows(self.snapshot_times, self.positions, self.exit_time,
                           spec.cell_width, spec.num_cells).cell_mass


def reduce_rows(times, positions, exit_time, cell_width,
                num_cells) -> SnapshotReducer:
    """Every row of ``positions`` through one reducer, in snapshot order."""
    reducer = SnapshotReducer(times, positions.shape[1], cell_width, num_cells)
    for j, row in enumerate(positions):
        reducer.add(j, row, exit_time)
    return reducer


def trajectories(times, positions, exit_time, stagnant_time, length_x,
                 length_y) -> Trajectories:
    """The ensemble of the given (snapshots x particles x 2) rows."""
    times = np.asarray(times, dtype=float)
    return Trajectories(
        snapshot_times=times, positions=positions, exit_time=exit_time,
        stagnant_time=stagnant_time, length_x=length_x, length_y=length_y,
        snapshots=reduce_rows(times, positions, exit_time, length_x, 1))


def track(flow, positions, cfg) -> Trajectories:
    """``tracking.track`` with every snapshot row collected."""
    pos = tracking._checked_positions(flow, positions)
    times = cfg.snapshot_times
    row, rows = np.empty((len(pos), 2)), np.empty((len(times), len(pos), 2))
    exit_time, stagnant_time = np.empty(len(pos)), np.empty(len(pos))

    def collect(j):
        rows[j] = row

    tracking._track_block(flow, pos, times, row, exit_time, stagnant_time,
                          collect)
    return trajectories(times, rows, exit_time, stagnant_time, flow.length_x,
                        flow.length_y)
