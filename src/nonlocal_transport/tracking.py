"""Particle tracking through a cell-centered Darcy velocity field.

Within each grid cell the velocity components are interpolated linearly
between opposing faces, so every trajectory segment has a closed form
(exponential in time) and cell-transit times are exact.  Tracking is
event-driven: the snapshot interval only selects when positions are
recorded, never how the trajectory is integrated.  Each block of particles
reduces the snapshots it records into per-chunk sums, so no
(snapshots x particles) array is ever held.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .darcy import FlowField
from .errors import ConfigurationError, InjectionError
from .medium import MediumSpec
from .workers import run_tasks, usable_cpus

#: Fraction of the mean face speed below which a particle is considered
#: motionless along an axis; protects the exit-time formulas from division
#: by velocities that are zero to rounding.
STAGNATION_FLOOR_FRACTION = 1e-14

#: Particles per chunk of the snapshot reduction.  Blocks hold whole chunks
#: and chunks combine in order, so no statistic depends on the block count.
#: Up to one chunk reduces as one sum; k blocks may differ by one chunk.
REDUCE_CHUNK = 1024

#: Candidate positions drawn per rejection-sampling round of :func:`inject`.
INJECTION_BATCH = 8192


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
    Of the particles not yet exited it records, per chunk of
    ``REDUCE_CHUNK`` particles, the count, the sum of x and the squared
    deviations from the chunk's mean; and the count in every unit cell of
    width ``cell_width``, binned by x and clipped to the ``num_cells`` cells.
    ``mean_x``, ``msd`` and ``cell_mass`` (1/num_particles per particle)
    combine the chunks in order.
    """

    def __init__(self, times, num_particles: int, cell_width: float,
                 num_cells: int):
        self.times = np.asarray(times, dtype=float)
        self.num_particles = num_particles
        self.cell_width = cell_width
        # count, sum of x and squared deviations per snapshot and chunk
        self.sums = np.zeros((3, len(self.times),
                              -(-num_particles // REDUCE_CHUNK)))
        self.cell_count = np.zeros((len(self.times), num_cells), dtype=np.int64)

    def add(self, j: int, row, exit_time) -> None:
        t = self.times[j]
        x = row[:, 0]
        keep = exit_time > t
        count, total, square = self.sums[:, j]
        count[:] = _chunk_sums(keep)
        total[:] = _chunk_sums(np.where(keep, x, 0.0))
        with np.errstate(invalid="ignore"):
            mean = np.repeat(total / count, REDUCE_CHUNK)[:len(x)]
        square[:] = _chunk_sums(np.where(keep, x - mean, 0.0) ** 2)
        num_cells = self.cell_count.shape[1]
        cells = np.clip((x[~(exit_time <= t)] / self.cell_width).astype(int),
                        0, num_cells - 1)
        self.cell_count[j] = np.bincount(cells, minlength=num_cells)

    def merge(self, other: SnapshotReducer) -> None:
        """Append the chunks of the next block; this one ends on a whole chunk."""
        self.num_particles += other.num_particles
        self.sums = np.concatenate([self.sums, other.sums], axis=2)
        self.cell_count += other.cell_count

    @property
    def mean_x(self) -> np.ndarray:
        """Mean x of the particles not yet exited; NaN where none is left."""
        with np.errstate(invalid="ignore"):
            return self.sums[1].sum(axis=1) / self.sums[0].sum(axis=1)

    @property
    def msd(self) -> np.ndarray:
        """Their mean squared deviation: each chunk adds its squares and
        count x (chunk mean - mean_x)^2; NaN where none is left."""
        count, total, square = self.sums
        with np.errstate(invalid="ignore"):
            offset = total / count - self.mean_x[:, None]
            spread = np.where(count > 0, count * offset ** 2, 0.0)
            return (square + spread).sum(axis=1) / count.sum(axis=1)

    @property
    def cell_mass(self) -> np.ndarray:
        return self.cell_count / self.num_particles


def _chunk_sums(a) -> np.ndarray:
    """Sum of each ``REDUCE_CHUNK`` particles of ``a`` (the last chunk may be
    shorter), every one numpy's pairwise sum of that chunk alone."""
    full = len(a) - len(a) % REDUCE_CHUNK
    sums = a[:full].reshape(-1, REDUCE_CHUNK).sum(axis=1)
    return np.append(sums, a[full:].sum()) if full < len(a) else sums


@dataclass(frozen=True)
class ParticleEnsemble:
    """What tracking an ensemble leaves: its final state and reduced snapshots.

    ``positions`` holds the (x, y) row of every particle at the last
    snapshot, and ``snapshots`` the reduction of every recorded row.
    Particles that reach the outlet are frozen at x = length_x and flagged
    via a finite ``exit_time``; particles stalled in a (numerically)
    stagnant cell are frozen where they stalled and flagged via
    ``stagnant_time``.  A frozen particle keeps its position bit for bit in
    every later row.  Both times are +inf for particles that never reach
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


def inject(flow: FlowField, cfg: TrackingConfig, num_cells: int) -> np.ndarray:
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
        x = rng.uniform(x_lo, x_lo + cell_width, INJECTION_BATCH)
        y = rng.uniform(0.0, flow.length_y, INJECTION_BATCH)
        u = rng.uniform(0.0, speed_bound, INJECTION_BATCH)
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
    speeds all sit below the stagnation floor are frozen where they are, in
    a transit that never ends.

    The ensemble's ``REDUCE_CHUNK``-particle chunks are cut into one block
    per usable CPU, each a task of :func:`workers.run_tasks` that reduces
    its own rows into a :class:`SnapshotReducer` on the cells of ``spec``.
    The tracker acts on each particle alone and reducers merge chunk by
    chunk in order, so any number of blocks gives the same bits.
    """
    pos = _checked_positions(flow, positions)
    n = len(pos)
    chunks = -(-n // REDUCE_CHUNK)
    k = max(1, min(usable_cpus(), chunks))
    bounds = [min(n, chunks * b // k * REDUCE_CHUNK) for b in range(k + 1)]
    blocks = [partial(_reduce_block, flow, pos[lo:hi], cfg.snapshot_times,
                      spec) for lo, hi in zip(bounds, bounds[1:])]
    final, exit_time, stagnant_time, reducers = zip(*run_tasks(
        blocks, k, lambda b: f"tracking block {b + 1} of {k} (particles "
                             f"{bounds[b]} to {bounds[b + 1] - 1})"))
    for other in reducers[1:]:
        reducers[0].merge(other)
    return ParticleEnsemble(
        snapshot_times=reducers[0].times, positions=np.concatenate(final),
        exit_time=np.concatenate(exit_time),
        stagnant_time=np.concatenate(stagnant_time),
        length_x=flow.length_x, length_y=flow.length_y, snapshots=reducers[0],
    )


def _reduce_block(flow, pos, times, spec, done) -> None:
    """Track one block through one row buffer, reducing every row, and hand
    ``done`` (last row, exit times, stagnation times, reducer) at the end."""
    n = len(pos)
    row = np.empty((n, 2))
    exit_time, stagnant_time = np.empty(n), np.empty(n)
    reducer = SnapshotReducer(times, n, spec.cell_width, spec.num_cells)

    def emit(j):
        reducer.add(j, row, exit_time)
        if j == len(times) - 1:
            done((row, exit_time, stagnant_time, reducer))

    _track_block(flow, pos, times, row, exit_time, stagnant_time, emit)


def _checked_positions(flow: FlowField, positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ConfigurationError("positions must have shape (n, 2)")
    if np.any((pos[:, 0] < 0) | (pos[:, 0] > flow.length_x)
              | (pos[:, 1] < 0) | (pos[:, 1] > flow.length_y)):
        raise ConfigurationError("initial positions outside the flow domain")
    return pos


def _track_block(flow: FlowField, pos, times, row, exit_time,
                 stagnant_time, emit) -> None:
    """Track the particles starting at ``pos`` into the given output views.

    A particle's one state is its current transit; one that exits or stalls
    is frozen into a transit that never ends, so every snapshot evaluates
    every particle alike.  Snapshot row j overwrites ``row``, (particles x
    2), and ``emit(j)`` follows it.  Row 0 is the injected positions
    themselves, not re-evaluated from a cell origin.
    """
    n = pos.shape[0]
    nx, ny = flow.grid_nx, flow.grid_ny
    dx, dy = flow.dx, flow.dy
    length_x = flow.length_x
    # a cell's low x face is at ix*ny + iy of the flat x faces and its high
    # face ny further; its low y face at ix*(ny+1) + iy, its high face next
    fvx, fvy = flow.face_velocity_x, flow.face_velocity_y
    v_floor = STAGNATION_FLOOR_FRACTION * (
        0.5 * (np.mean(np.abs(fvx)) + np.mean(np.abs(fvy))))
    fvx, fvy = fvx.ravel(), fvy.ravel()

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
    exit_time.fill(np.inf)
    stagnant_time.fill(np.inf)

    def freeze(idx, x, y):
        """Hold (x, y) in a transit that never ends: origin and velocity
        -0.0 and gradient -1 make the closed form add only -0.0, at any
        elapsed time (a zero gradient's expm1 overflows past about 709)."""
        t_seg_end[idx] = np.inf
        seg_ox[idx] = seg_oy[idx] = seg_vxp[idx] = seg_vyp[idx] = -0.0
        seg_locx[idx], seg_locy[idx] = x, y
        seg_ax[idx] = seg_ay[idx] = -1.0

    def compute_transit(idx, x, y, t, cix, ciy):
        """Start a transit from (x, y) at time t in cell (cix, ciy)."""
        face_x = cix * ny + ciy
        face_y = cix * (ny + 1) + ciy
        vxl, vxr = fvx.take(face_x), fvx.take(face_x + ny)
        vyb, vyt = fvy.take(face_y), fvy.take(face_y + 1)
        ax, ay = (vxr - vxl) / dx, (vyt - vyb) / dy
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
        # a particle that can reach no face stalls here and is frozen below
        stalled = ~np.isfinite(tau)
        tau[stalled] = 0.0
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
        if stalled.any():
            stagnant_time[idx[stalled]] = t[stalled]
            freeze(idx[stalled], x[stalled], y[stalled])

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
        tau = ts - t0
        xr = _coord_at(seg_locx, seg_vxp, seg_ax, tau)
        xr += seg_ox
        yr = _coord_at(seg_locy, seg_vyp, seg_ay, tau)
        yr += seg_oy
        row[:, 0] = xr
        row[:, 1] = yr
        if j == 0:
            row[:] = pos
        emit(j)


def displacement_stats(ensemble: ParticleEnsemble) -> DisplacementStats:
    """Mean displacement and MSD of the non-exited particles per snapshot,
    as the ensemble's :class:`SnapshotReducer` recorded them."""
    n_active, n_exited, n_stagnant = ensemble.status_counts()
    return DisplacementStats(
        times=ensemble.snapshot_times.copy(),
        mean_x=ensemble.snapshots.mean_x, msd=ensemble.snapshots.msd,
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
