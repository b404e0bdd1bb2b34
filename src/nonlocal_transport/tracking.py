"""Particle tracking through a cell-centered Darcy velocity field.

Within each grid cell the velocity components are interpolated linearly
between opposing faces, so every trajectory segment has a closed form
(exponential in time) and cell-transit times are exact.  Tracking is
event-driven: the snapshot interval only selects when positions are
recorded, never how the trajectory is integrated.  Recorded snapshots are
streamed through a small ring and reduced as they complete, so no
(snapshots x particles) array is ever held.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from multiprocessing import get_context, parent_process
from multiprocessing.connection import wait

import numpy as np

from .darcy import FlowField
from .errors import ConfigurationError, InjectionError, NumericalError
from .medium import MediumSpec

#: Fraction of the mean face speed below which a particle is considered
#: motionless along an axis; protects the exit-time formulas from division
#: by velocities that are zero to rounding.
STAGNATION_FLOOR_FRACTION = 1e-14

#: Snapshot rows held by the shared ring that tracking blocks write into:
#: how far a worker may run ahead of the rows already reduced.
RING_ROWS = 16


@dataclass(frozen=True)
class TrackingConfig:
    """Ensemble size, injection cell and recording cadence for one run."""

    injection_cell: int
    num_particles: int
    dt: float
    t_end: float
    rng_seed: int

    def __post_init__(self) -> None:
        if self.injection_cell < 1:
            raise ConfigurationError("injection_cell is 1-based and must be >= 1")
        if self.num_particles < 1:
            raise ConfigurationError("num_particles must be >= 1")
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        if self.t_end < self.dt:
            raise ConfigurationError("t_end must cover at least one snapshot interval")
        if self.rng_seed < 0:
            raise ConfigurationError("rng_seed must be nonnegative")

    @property
    def snapshot_times(self) -> np.ndarray:
        """Recording instants 0, dt, 2*dt, ... up to t_end."""
        n_steps = int(np.floor(self.t_end / self.dt + 1e-9))
        return np.arange(n_steps + 1) * self.dt


class SnapshotReducer:
    """Per-snapshot statistics of a tracked ensemble, fed one row at a time.

    :meth:`add` takes snapshot row j, the (n, 2) positions, with exit times
    that hold every exit up to that snapshot (later ones may still be +inf).
    It records the mean x and the MSD of the particles not yet exited, and
    the mass, 1/num_particles each, of those particles in every unit cell of
    width ``cell_width``, binned by x and clipped to the ``num_cells`` cells.
    """

    def __init__(self, times, num_particles: int, cell_width: float,
                 num_cells: int):
        self.times = np.asarray(times, dtype=float)
        self.num_particles = num_particles
        self.cell_width = cell_width
        self.mean_x = np.full(len(self.times), np.nan)
        self.msd = np.full(len(self.times), np.nan)
        self.cell_mass = np.zeros((len(self.times), num_cells))

    def add(self, j: int, row, exit_time) -> None:
        t = self.times[j]
        x = row[:, 0]
        keep = exit_time > t
        n_in = np.count_nonzero(keep)
        if n_in:
            self.mean_x[j] = np.where(keep, x, 0.0).sum() / n_in
            dev = np.where(keep, x - self.mean_x[j], 0.0)
            self.msd[j] = (dev ** 2).sum() / n_in
        num_cells = self.cell_mass.shape[1]
        cells = np.clip((x[~(exit_time <= t)] / self.cell_width).astype(int),
                        0, num_cells - 1)
        self.cell_mass[j] = (np.bincount(cells, minlength=num_cells)
                             / self.num_particles)


@dataclass(frozen=True)
class ParticleEnsemble:
    """What tracking an ensemble leaves: its final state and reduced snapshots.

    ``positions`` holds the (x, y) row of every particle at the last
    snapshot, and ``snapshots`` the reduction of every recorded row.
    Particles that reach the outlet are frozen at x = length_x and flagged
    via a finite ``exit_time``; particles stalled in a (numerically)
    stagnant cell are frozen where they stalled and flagged via
    ``stagnant_time``.  Both times are +inf for particles that never reach
    the corresponding state, and the two states are mutually exclusive.
    """

    snapshot_times: np.ndarray
    positions: np.ndarray
    exit_time: np.ndarray
    stagnant_time: np.ndarray
    length_x: float
    length_y: float
    snapshots: SnapshotReducer

    @property
    def num_particles(self) -> int:
        return len(self.exit_time)

    def status_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-snapshot (n_active, n_exited, n_stagnant)."""
        def count_by(t):
            return np.searchsorted(np.sort(t), self.snapshot_times, side="right")

        n_exited = count_by(self.exit_time)
        # a particle counts as stagnant only until it has also exited
        n_stagnant = (count_by(self.stagnant_time)
                      - count_by(np.maximum(self.stagnant_time, self.exit_time)))
        n_active = self.num_particles - n_exited - n_stagnant
        return n_active, n_exited, n_stagnant

    def unit_cell_mass(self, spec: MediumSpec) -> np.ndarray:
        """(snapshots x cells) mass of the non-exited particles per unit cell.

        Raises ConfigurationError unless the snapshots were binned on the
        unit cells of ``spec``.
        """
        mass = self.snapshots.cell_mass
        if (self.snapshots.cell_width != spec.cell_width
                or mass.shape[1] != spec.num_cells):
            raise ConfigurationError(
                f"ensemble was binned on {mass.shape[1]} cells of width "
                f"{self.snapshots.cell_width!r}, not the medium's "
                f"{spec.num_cells} of width {spec.cell_width!r}")
        return mass


@dataclass(frozen=True)
class DisplacementStats:
    """Ensemble x-statistics over non-exited particles, per snapshot."""

    times: np.ndarray
    mean_x: np.ndarray
    msd: np.ndarray
    n_active: np.ndarray
    n_exited: np.ndarray
    n_stagnant: np.ndarray


def velocity_at(flow: FlowField, x, y):
    """Interpolated velocity at arbitrary points.

    Within a grid cell vx varies linearly with x between the two x-faces and
    vy linearly with y between the two y-faces (the same interpolation the
    tracker integrates exactly).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ix = np.clip((x / flow.dx).astype(np.int64), 0, flow.grid_nx - 1)
    iy = np.clip((y / flow.dy).astype(np.int64), 0, flow.grid_ny - 1)
    fx = x / flow.dx - ix
    fy = y / flow.dy - iy
    vx = (1.0 - fx) * flow.face_velocity_x[ix, iy] + fx * flow.face_velocity_x[ix + 1, iy]
    vy = (1.0 - fy) * flow.face_velocity_y[ix, iy] + fy * flow.face_velocity_y[ix, iy + 1]
    return vx, vy


def inject(flow: FlowField, cfg: TrackingConfig, num_cells: int,
           batch_size: int = 8192) -> np.ndarray:
    """Draw flux-proportional initial positions inside the injection cell.

    Positions are sampled with probability density proportional to the local
    speed |v(x, y)| by rejection against the cell-wise speed bound (the
    interpolation is linear per coordinate, so the maximum over a grid cell
    is attained on its faces).  Reproducible given ``cfg.rng_seed``.

    Parameters
    ----------
    num_cells : number of unit cells spanned by the flow domain; used to
        locate cell boundaries on the grid.
    """
    if flow.grid_nx % num_cells:
        raise ConfigurationError("flow grid does not align with unit cells")
    if not 1 <= cfg.injection_cell <= num_cells:
        raise ConfigurationError(
            f"injection_cell {cfg.injection_cell} outside 1..{num_cells}")
    cols = flow.grid_nx // num_cells
    j0 = (cfg.injection_cell - 1) * cols
    fvx = flow.face_velocity_x[j0:j0 + cols + 1, :]
    fvy = flow.face_velocity_y[j0:j0 + cols, :]
    vx_hi = np.maximum(np.abs(fvx[:-1, :]), np.abs(fvx[1:, :]))
    vy_hi = np.maximum(np.abs(fvy[:, :-1]), np.abs(fvy[:, 1:]))
    speed_bound = float(np.sqrt(np.max(vx_hi ** 2 + vy_hi ** 2)))
    if speed_bound <= 0.0:
        raise InjectionError("velocity is identically zero in the injection cell")

    cell_width = cols * flow.dx
    x_lo = j0 * flow.dx
    rng = np.random.default_rng(cfg.rng_seed)
    out = np.empty((cfg.num_particles, 2))
    filled = 0
    while filled < cfg.num_particles:
        x = rng.uniform(x_lo, x_lo + cell_width, batch_size)
        y = rng.uniform(0.0, flow.length_y, batch_size)
        u = rng.uniform(0.0, speed_bound, batch_size)
        vx, vy = velocity_at(flow, x, y)
        keep = np.nonzero(u <= np.hypot(vx, vy))[0]
        take = min(keep.size, cfg.num_particles - filled)
        out[filled:filled + take, 0] = x[keep[:take]]
        out[filled:filled + take, 1] = y[keep[:take]]
        filled += take
    return out


def _axis_exit(vp, v_lo, v_hi, a, loc, width, v_floor):
    """Time to leave a cell along one axis, from local coordinate ``loc``.

    Returns (tau, fwd, bwd): tau = +inf when the particle cannot reach either
    face along this axis (motionless, or decelerating toward an interior
    stagnation plane); fwd / bwd mark motion toward the high / low face.
    """
    fwd = vp > v_floor
    bwd = vp < -v_floor
    # width - loc ahead, else 0.0 - loc: that is -loc but for the sign of a
    # zero, and a zero tau of either sign ends the transit at the same time
    # and place
    dist = fwd * width
    dist -= loc
    reach = (fwd & (v_hi * vp > 0.0)) | (bwd & (v_lo * vp > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # a*dist/vp equals v_face/vp - 1 up to rounding; clamp just above -1
        # so a same-sign face velocity at the rounding edge cannot produce NaN
        tau = a * dist
        tau /= vp
        np.maximum(tau, np.nextafter(-1.0, 0.0), out=tau)
        np.log1p(tau, out=tau)
        tau /= a
        linear = a == 0.0
        if linear.any():
            tau[linear] = dist[linear] / vp[linear]
    tau[~reach] = np.inf
    return tau, fwd, bwd


def _coord_at(loc, vp, a, tau):
    """Local coordinate after time ``tau`` inside the current cell."""
    linear = a == 0.0
    any_linear = linear.any()
    if any_linear:
        a = np.where(linear, 1.0, a)
    growth = a * tau
    np.expm1(growth, out=growth)
    growth /= a
    if any_linear:
        growth[linear] = tau[linear]
    growth *= vp
    growth += loc
    return growth


def track(flow: FlowField, positions, cfg: TrackingConfig,
          spec: MediumSpec) -> ParticleEnsemble:
    """Advance particles through the flow, reducing every ``cfg.dt``.

    Each particle is advanced cell transit by cell transit using the exact
    per-cell solution; positions at snapshot instants are evaluated from the
    entry state of the current transit, so halving ``dt`` reproduces the same
    positions bit for bit at shared times.  Particles reaching the outlet
    plane x = length_x are frozen there; particles entering a cell whose face
    speeds all sit below the stagnation floor are frozen where they are.

    Every snapshot row goes through a :class:`SnapshotReducer` on the unit
    cells of the medium ``spec`` as :func:`stream` hands it on; only the last
    row's positions are kept.
    """
    pos = _checked_positions(flow, positions)
    reducer = SnapshotReducer(cfg.snapshot_times, pos.shape[0],
                              spec.cell_width, spec.num_cells)
    final, exit_time, stagnant_time = stream(flow, pos, cfg, reducer.add)
    return ParticleEnsemble(
        snapshot_times=reducer.times, positions=final,
        exit_time=exit_time, stagnant_time=stagnant_time,
        length_x=flow.length_x, length_y=flow.length_y, snapshots=reducer,
    )


def stream(flow: FlowField, positions, cfg: TrackingConfig, consume):
    """Track particles, handing every snapshot row to ``consume`` in order.

    ``consume(j, row, exit_time)`` receives snapshot j's (n, 2) positions
    and the exit times recorded so far, which hold every exit up to that
    snapshot; both are only valid during the call.  Returns the final
    positions and the exit and stagnation times.

    The ensemble is cut into one contiguous block of particles per CPU this
    process may run on.  This process tracks the first block and a forked
    worker tracks each other one.  Every block writes snapshot j into its
    particle slice of slot j mod ``RING_ROWS`` of one shared anonymous
    mapping.  Once every block has written row j, this process hands it to
    ``consume`` and frees its slot for row j + ``RING_ROWS``; workers wait
    for that before they overwrite it.  A worker that dies raises
    NumericalError as soon as its row is awaited.  The per-cell velocity
    tables are built once before the fork and shared copy-on-write.  Every
    operation of the tracker is elementwise per particle (batch-wide tests
    only choose a code path), so a block gives the same bits as the whole
    ensemble would.
    """
    pos = _checked_positions(flow, positions)
    n = pos.shape[0]
    cells = _CellTables.of(flow)
    times = cfg.snapshot_times
    slots = min(RING_ROWS, len(times))
    size = slots * n * 2
    count = size + 2 * n
    shared = np.frombuffer(mmap.mmap(-1, 8 * max(count, 1)), dtype=float,
                           count=count)
    ring = shared[:size].reshape(slots, n, 2)
    exit_time, stagnant_time = shared[size:].reshape(2, n)
    # a particle no block tracked keeps NaN times and fails the status count
    shared[size:] = np.nan
    k = max(1, min(usable_cpus(), n))
    bounds = [n * b // k for b in range(k + 1)]
    blocks = [(cells, pos[lo:hi], times, ring[:, lo:hi], exit_time[lo:hi],
               stagnant_time[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    context = get_context("fork")
    # per worker: its process, the pipe it announces each written row on,
    # and the pipe this process frees its ring slots on
    workers, rows, frees = [], [], []
    writing = []

    def emit(j):
        for w in list(writing):
            if _next_row(rows[w], workers[w]):
                continue
            workers[w].join()
            if workers[w].exitcode != 0:
                raise _worker_error(w + 2, k, bounds, workers[w].exitcode)
            writing.remove(w)
        consume(j, ring[j % slots], exit_time)
        if j + slots < len(times):
            for w in writing:
                try:
                    frees[w].send_bytes(b"")
                except BrokenPipeError:
                    pass    # a dead worker is reported at its next row

    try:
        for block in blocks[1:]:
            row_r, row_w = context.Pipe(duplex=False)
            free_r, free_w = context.Pipe(duplex=False)
            worker = context.Process(target=_block_worker,
                                     args=(block, row_w, free_r))
            worker.start()
            writing.append(len(workers))
            workers.append(worker)
            rows.append(row_r)
            frees.append(free_w)
            row_w.close()
            free_r.close()
        _track_block(*blocks[0], emit)
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for worker in workers:
            worker.join()
        for conn in rows + frees:
            conn.close()
    for b, worker in enumerate(workers, start=2):
        if worker.exitcode != 0:
            raise _worker_error(b, k, bounds, worker.exitcode)
    return (ring[(len(times) - 1) % slots].copy(), exit_time.copy(),
            stagnant_time.copy())


def _checked_positions(flow: FlowField, positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ConfigurationError("positions must have shape (n, 2)")
    if np.any((pos[:, 0] < 0) | (pos[:, 0] > flow.length_x)
              | (pos[:, 1] < 0) | (pos[:, 1] > flow.length_y)):
        raise ConfigurationError("initial positions outside the flow domain")
    return pos


def _next_row(rows, worker) -> bool:
    """Take the worker's token for its next row; False if it ended first."""
    if not rows.poll():
        wait([rows, worker.sentinel])
    try:
        if rows.poll():
            rows.recv_bytes()
            return True
    except EOFError:
        pass
    return False


def _worker_error(b: int, k: int, bounds, exitcode) -> NumericalError:
    return NumericalError(
        f"tracking block {b} of {k} (particles {bounds[b - 1]} to "
        f"{bounds[b] - 1}) exited with code {exitcode}")


def _block_worker(block, rows, frees) -> None:
    """Track ``block`` in a forked worker, sending a token on ``rows`` per
    written row and taking one from ``frees`` before reusing a ring slot."""
    times, ring = block[2], block[3]
    parent = parent_process().sentinel

    def emit(j):
        rows.send_bytes(b"")
        if len(ring) <= j + 1 < len(times):
            if frees not in wait([frees, parent]):
                raise SystemExit("tracking: the calling process has ended")
            frees.recv_bytes()

    _track_block(*block, emit)


def usable_cpus() -> int:
    """CPUs this process may run on; every CPU where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class _CellTables:
    """Per-cell face velocities and gradients, indexed by ix * ny + iy."""

    flow: FlowField
    v_floor: float
    vx_lo: np.ndarray
    vx_hi: np.ndarray
    vy_lo: np.ndarray
    vy_hi: np.ndarray
    ax: np.ndarray
    ay: np.ndarray

    @classmethod
    def of(cls, flow: FlowField) -> "_CellTables":
        fvx, fvy = flow.face_velocity_x, flow.face_velocity_y
        mean_speed = 0.5 * (np.mean(np.abs(fvx)) + np.mean(np.abs(fvy)))
        vx_lo, vx_hi = fvx[:-1, :].ravel(), fvx[1:, :].ravel()
        vy_lo, vy_hi = fvy[:, :-1].ravel(), fvy[:, 1:].ravel()
        return cls(flow=flow, v_floor=STAGNATION_FLOOR_FRACTION * mean_speed,
                   vx_lo=vx_lo, vx_hi=vx_hi, vy_lo=vy_lo, vy_hi=vy_hi,
                   ax=(vx_hi - vx_lo) / flow.dx, ay=(vy_hi - vy_lo) / flow.dy)


def _track_block(cells: _CellTables, pos, times, ring, exit_time,
                 stagnant_time, emit) -> None:
    """Track the particles starting at ``pos`` into the given output views.

    Snapshot row j goes into ``ring[j % len(ring)]``, (particles x 2), and
    ``emit(j)`` follows it; once that returns, the slot of row j + 1 must be
    free.  Row 0 is the injected positions themselves, not re-evaluated from
    a cell origin.
    """
    n = pos.shape[0]
    flow = cells.flow
    nx, ny = flow.grid_nx, flow.grid_ny
    dx, dy = flow.dx, flow.dy
    length_x = flow.length_x
    v_floor = cells.v_floor
    slots = len(ring)
    vx_lo, vx_hi, vy_lo, vy_hi = cells.vx_lo, cells.vx_hi, cells.vy_lo, cells.vy_hi
    ax_cell, ay_cell = cells.ax, cells.ay

    # current transit of each particle: entry time, cell origin, entry
    # coordinates relative to it, entry velocity and velocity gradient
    t0 = np.zeros(n)
    seg_ox, seg_oy = np.empty(n), np.empty(n)
    seg_locx, seg_locy = np.empty(n), np.empty(n)
    seg_vxp, seg_vyp = np.empty(n), np.empty(n)
    seg_ax, seg_ay = np.empty(n), np.empty(n)
    # when and where it ends, and the cell it leads into
    t_seg_end = np.full(n, np.inf)
    x_seg_end, y_seg_end = np.empty(n), np.empty(n)
    next_ix = np.empty(n, dtype=np.int64)
    next_iy = np.empty(n, dtype=np.int64)
    # particles that left the outlet or stalled keep these positions
    active = np.ones(n, dtype=bool)
    frozen = np.empty((n, 2))
    exit_time.fill(np.inf)
    stagnant_time.fill(np.inf)

    def freeze(idx, x, y):
        active[idx] = False
        t_seg_end[idx] = np.inf
        frozen[idx, 0] = x
        frozen[idx, 1] = y

    def compute_transit(idx, x, y, t, cix, ciy):
        """Start a transit from (x, y) at time t in cell (cix, ciy)."""
        cell = cix * ny + ciy
        vxl, vxr = vx_lo.take(cell), vx_hi.take(cell)
        vyb, vyt = vy_lo.take(cell), vy_hi.take(cell)
        ax, ay = ax_cell.take(cell), ay_cell.take(cell)
        ox, oy = cix * dx, ciy * dy
        loc_x, loc_y = x - ox, y - oy
        vxp = ax * loc_x
        vxp += vxl
        vyp = ay * loc_y
        vyp += vyb
        t0[idx] = t
        seg_ox[idx], seg_oy[idx] = ox, oy
        seg_locx[idx], seg_locy[idx] = loc_x, loc_y
        seg_vxp[idx], seg_vyp[idx] = vxp, vyp
        seg_ax[idx], seg_ay[idx] = ax, ay

        tau_x, fwd_x, bwd_x = _axis_exit(vxp, vxl, vxr, ax, loc_x, dx, v_floor)
        tau_y, fwd_y, bwd_y = _axis_exit(vyp, vyb, vyt, ay, loc_y, dy, v_floor)
        tau = np.minimum(tau_x, tau_y)
        stalled = ~np.isfinite(tau)
        if stalled.any():
            stagnant_time[idx[stalled]] = t[stalled]
            freeze(idx[stalled], x[stalled], y[stalled])
            live = ~stalled
            idx, t, cix, ciy, tau = idx[live], t[live], cix[live], ciy[live], tau[live]
            ox, oy, loc_x, loc_y = ox[live], oy[live], loc_x[live], loc_y[live]
            vxp, vyp, ax, ay = vxp[live], vyp[live], ax[live], ay[live]
            tau_x, fwd_x, bwd_x = tau_x[live], fwd_x[live], bwd_x[live]
            tau_y, fwd_y, bwd_y = tau_y[live], fwd_y[live], bwd_y[live]
        # the crossed coordinate snaps to its face; the other follows the
        # closed form
        hit_x = tau_x <= tau
        hit_y = tau_y <= tau
        up_x, down_x = hit_x & fwd_x, hit_x & bwd_x
        up_y, down_y = hit_y & fwd_y, hit_y & bwd_y
        xe = _coord_at(loc_x, vxp, ax, tau)
        xe += ox
        ye = _coord_at(loc_y, vyp, ay, tau)
        ye += oy
        x_seg_end[idx] = np.where(hit_x, (cix + up_x) * dx, xe)
        y_seg_end[idx] = np.where(hit_y, (ciy + up_y) * dy, ye)
        t_seg_end[idx] = t + tau
        cix = cix + up_x
        cix -= down_x
        ciy = ciy + up_y
        ciy -= down_y
        next_ix[idx], next_iy[idx] = cix, ciy

    start_ix = np.clip((pos[:, 0] / dx).astype(np.int64), 0, nx - 1)
    start_iy = np.clip((pos[:, 1] / dy).astype(np.int64), 0, ny - 1)
    compute_transit(np.arange(n), pos[:, 0].copy(), pos[:, 1].copy(),
                    np.zeros(n), start_ix, start_iy)

    for j, ts in enumerate(times):
        due = np.flatnonzero(t_seg_end <= ts)
        while due.size:
            t, x, y = t_seg_end[due], x_seg_end[due], y_seg_end[due]
            cix, ciy = next_ix[due], next_iy[due]
            if (cix.min() < 0 or cix.max() >= nx
                    or ciy.min() < 0 or ciy.max() >= ny):
                gone = cix >= nx
                exit_time[due[gone]] = t[gone]
                # inflow boundary and walls cannot be crossed; guard against
                # rounding pathologies by stalling instead of indexing out
                # of range
                bad = (cix < 0) | (ciy < 0) | (ciy >= ny)
                stagnant_time[due[bad]] = t[bad]
                stop = gone | bad
                freeze(due[stop], np.where(gone, length_x, x)[stop], y[stop])
                keep = ~stop
                due, t, x, y = due[keep], t[keep], x[keep], y[keep]
                cix, ciy = cix[keep], ciy[keep]
            compute_transit(due, x, y, t, cix, ciy)
            due = due.compress(t_seg_end[due] <= ts)
        row = ring[j % slots]
        if active.all():
            live = slice(None)
        else:
            row[:] = frozen
            live = np.flatnonzero(active)
        tau = ts - t0[live]
        xr = _coord_at(seg_locx[live], seg_vxp[live], seg_ax[live], tau)
        xr += seg_ox[live]
        yr = _coord_at(seg_locy[live], seg_vyp[live], seg_ay[live], tau)
        yr += seg_oy[live]
        row[live, 0] = xr
        row[live, 1] = yr
        if j == 0:
            row[:] = pos
        emit(j)


def displacement_stats(ensemble: ParticleEnsemble) -> DisplacementStats:
    """Mean displacement and MSD of the non-exited particles per snapshot,
    as the ensemble's :class:`SnapshotReducer` recorded them."""
    n_active, n_exited, n_stagnant = ensemble.status_counts()
    return DisplacementStats(
        times=ensemble.snapshot_times.copy(),
        mean_x=ensemble.snapshots.mean_x.copy(),
        msd=ensemble.snapshots.msd.copy(),
        n_active=n_active, n_exited=n_exited, n_stagnant=n_stagnant,
    )


def linear_slope(times, values, t_min: float = 0.0) -> float:
    """Least-squares slope of ``values`` against ``times`` for t > t_min."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    m = (times > t_min) & np.isfinite(values)
    if m.sum() < 2:
        raise ConfigurationError("need at least two samples to fit a slope")
    return float(np.polyfit(times[m], values[m], 1)[0])


def log_log_slope(times, values, t_min: float = 0.0) -> float:
    """Slope of log(values) vs log(times), restricted to positive samples."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    m = (times > t_min) & (values > 0) & np.isfinite(values)
    if m.sum() < 2:
        raise ConfigurationError("need at least two positive samples to fit a slope")
    return float(np.polyfit(np.log(times[m]), np.log(values[m]), 1)[0])
