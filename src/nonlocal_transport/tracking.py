"""Particle tracking through a cell-centered Darcy velocity field.

Within each grid cell the velocity components are interpolated linearly
between opposing faces, so every trajectory segment has a closed form
(exponential in time) and cell-transit times are exact.  Tracking is
event-driven: the snapshot interval only selects when positions are
recorded, never how the trajectory is integrated.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .darcy import FlowField
from .errors import ConfigurationError, InjectionError

STATUS_ACTIVE = 0
STATUS_EXITED = 1
STATUS_STAGNANT = 2

#: Fraction of the mean face speed below which a particle is considered
#: motionless along an axis; protects the exit-time formulas from division
#: by velocities that are zero to rounding.
STAGNATION_FLOOR_FRACTION = 1e-14


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


@dataclass(frozen=True)
class ParticleEnsemble:
    """Recorded trajectories of one tracked ensemble.

    ``positions`` holds one (x, y) row per particle per snapshot.  Particles
    that reach the outlet are frozen at x = length_x and flagged via a finite
    ``exit_time``; particles stalled in a (numerically) stagnant cell are
    frozen where they stalled and flagged via ``stagnant_time``.  Both times
    are +inf for particles that never reach the corresponding state, and the
    two states are mutually exclusive.
    """

    snapshot_times: np.ndarray
    positions: np.ndarray
    exit_time: np.ndarray
    stagnant_time: np.ndarray
    length_x: float
    length_y: float

    @property
    def num_particles(self) -> int:
        return self.positions.shape[1]

    def status_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-snapshot (n_active, n_exited, n_stagnant)."""
        t = self.snapshot_times[:, None]
        exited = self.exit_time[None, :] <= t
        stagnant = (self.stagnant_time[None, :] <= t) & ~exited
        n_exited = exited.sum(axis=1)
        n_stagnant = stagnant.sum(axis=1)
        n_active = self.num_particles - n_exited - n_stagnant
        return n_active, n_exited, n_stagnant


@dataclass(frozen=True)
class DisplacementStats:
    """Ensemble x-statistics over non-exited particles, per snapshot."""

    times: np.ndarray
    mean_x: np.ndarray
    msd: np.ndarray
    n_active: np.ndarray
    n_exited: np.ndarray
    n_stagnant: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "mean_x", "msd", "n_active", "n_exited", "n_stagnant"])
            for row in zip(
                self.times, self.mean_x, self.msd,
                self.n_active, self.n_exited, self.n_stagnant,
            ):
                writer.writerow([repr(float(row[0])), repr(float(row[1])),
                                 repr(float(row[2])), int(row[3]), int(row[4]), int(row[5])])


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

    Returns (tau, direction): tau = +inf when the particle cannot reach either
    face along this axis (motionless, or decelerating toward an interior
    stagnation plane); direction is +1 for the high face, -1 for the low one.
    """
    tau = np.full(vp.shape, np.inf)
    direction = np.zeros(vp.shape, dtype=np.int64)
    fwd = vp > v_floor
    bwd = vp < -v_floor
    direction[fwd] = 1
    direction[bwd] = -1
    dist = np.where(fwd, width - loc, -loc)
    v_face = np.where(fwd, v_hi, v_lo)
    reach = (fwd | bwd) & (v_face * vp > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a*dist/vp equals v_face/vp - 1 up to rounding; clamp just above -1
        # so a same-sign face velocity at the rounding edge cannot produce NaN
        ratio = np.maximum(a * dist / vp, np.nextafter(-1.0, 0.0))
        t_exp = np.log1p(ratio) / a
        t_lin = dist / vp
    candidate = np.where(a == 0.0, t_lin, t_exp)
    tau[reach] = candidate[reach]
    return tau, direction


def _coord_at(loc, vp, a, tau):
    """Local coordinate after time ``tau`` inside the current cell."""
    safe_a = np.where(a == 0.0, 1.0, a)
    growth = np.where(a == 0.0, tau, np.expm1(safe_a * tau) / safe_a)
    return loc + vp * growth


def track(flow: FlowField, positions, cfg: TrackingConfig) -> ParticleEnsemble:
    """Advance particles through the flow, recording every ``cfg.dt``.

    Each particle is advanced cell transit by cell transit using the exact
    per-cell solution; positions at snapshot instants are evaluated from the
    entry state of the current transit, so halving ``dt`` reproduces the same
    positions bit for bit at shared times.  Particles reaching the outlet
    plane x = length_x are frozen there; particles entering a cell whose face
    speeds all sit below the stagnation floor are frozen where they are.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ConfigurationError("positions must have shape (n, 2)")
    n = pos.shape[0]
    nx, ny = flow.grid_nx, flow.grid_ny
    dx, dy = flow.dx, flow.dy
    length_x, length_y = flow.length_x, flow.length_y
    if np.any((pos[:, 0] < 0) | (pos[:, 0] > length_x)
              | (pos[:, 1] < 0) | (pos[:, 1] > length_y)):
        raise ConfigurationError("initial positions outside the flow domain")

    fvx, fvy = flow.face_velocity_x, flow.face_velocity_y
    mean_speed = 0.5 * (np.mean(np.abs(fvx)) + np.mean(np.abs(fvy)))
    v_floor = STAGNATION_FLOOR_FRACTION * mean_speed

    # per-particle state: entry point/time of the current transit segment
    x0 = pos[:, 0].copy()
    y0 = pos[:, 1].copy()
    t0 = np.zeros(n)
    ix = np.clip((x0 / dx).astype(np.int64), 0, nx - 1)
    iy = np.clip((y0 / dy).astype(np.int64), 0, ny - 1)
    status = np.full(n, STATUS_ACTIVE, dtype=np.uint8)
    exit_time = np.full(n, np.inf)
    stagnant_time = np.full(n, np.inf)
    # segment cache: when/where the current transit ends, and its coefficients
    t_seg_end = np.full(n, np.inf)
    x_seg_end = np.empty(n)
    y_seg_end = np.empty(n)
    next_ix = np.zeros(n, dtype=np.int64)
    next_iy = np.zeros(n, dtype=np.int64)
    seg_ax = np.zeros(n)
    seg_ay = np.zeros(n)
    seg_vxp = np.zeros(n)
    seg_vyp = np.zeros(n)

    def compute_transit(idx: np.ndarray) -> None:
        cix, ciy = ix[idx], iy[idx]
        vxl, vxr = fvx[cix, ciy], fvx[cix + 1, ciy]
        vyb, vyt = fvy[cix, ciy], fvy[cix, ciy + 1]
        ax = (vxr - vxl) / dx
        ay = (vyt - vyb) / dy
        loc_x = x0[idx] - cix * dx
        loc_y = y0[idx] - ciy * dy
        vxp = vxl + ax * loc_x
        vyp = vyb + ay * loc_y
        seg_ax[idx], seg_ay[idx] = ax, ay
        seg_vxp[idx], seg_vyp[idx] = vxp, vyp

        tau_x, dir_x = _axis_exit(vxp, vxl, vxr, ax, loc_x, dx, v_floor)
        tau_y, dir_y = _axis_exit(vyp, vyb, vyt, ay, loc_y, dy, v_floor)
        tau = np.minimum(tau_x, tau_y)

        stalled = ~np.isfinite(tau)
        if np.any(stalled):
            sub = idx[stalled]
            status[sub] = STATUS_STAGNANT
            stagnant_time[sub] = t0[sub]
            t_seg_end[sub] = np.inf
        live = np.nonzero(~stalled)[0]
        if live.size == 0:
            return
        li = idx[live]
        tau_l = tau[live]
        hit_x = tau_x[live] <= tau_l
        hit_y = tau_y[live] <= tau_l
        step_x = np.where(hit_x, dir_x[live], 0)
        step_y = np.where(hit_y, dir_y[live], 0)
        cix_l, ciy_l = cix[live], ciy[live]
        # crossed coordinates snap to the face; the other follows the closed form
        xe = _coord_at(loc_x[live], vxp[live], ax[live], tau_l) + cix_l * dx
        ye = _coord_at(loc_y[live], vyp[live], ay[live], tau_l) + ciy_l * dy
        xe = np.where(step_x == 1, (cix_l + 1) * dx, np.where(step_x == -1, cix_l * dx, xe))
        ye = np.where(step_y == 1, (ciy_l + 1) * dy, np.where(step_y == -1, ciy_l * dy, ye))
        t_seg_end[li] = t0[li] + tau_l
        x_seg_end[li], y_seg_end[li] = xe, ye
        next_ix[li] = cix_l + step_x
        next_iy[li] = ciy_l + step_y

    compute_transit(np.arange(n))

    times = cfg.snapshot_times
    out = np.empty((len(times), n, 2))
    for j, ts in enumerate(times):
        while True:
            due = np.nonzero((status == STATUS_ACTIVE) & (t_seg_end <= ts))[0]
            if due.size == 0:
                break
            x0[due], y0[due], t0[due] = x_seg_end[due], y_seg_end[due], t_seg_end[due]
            ix[due], iy[due] = next_ix[due], next_iy[due]
            gone = due[ix[due] >= nx]
            if gone.size:
                status[gone] = STATUS_EXITED
                exit_time[gone] = t0[gone]
                x0[gone] = length_x
            # inflow boundary and walls cannot be crossed; guard against
            # rounding pathologies by stalling instead of indexing out of range
            bad = due[(ix[due] < 0) | (iy[due] < 0) | (iy[due] >= ny)]
            if bad.size:
                status[bad] = STATUS_STAGNANT
                stagnant_time[bad] = t0[bad]
                ix[bad] = np.clip(ix[bad], 0, nx - 1)
                iy[bad] = np.clip(iy[bad], 0, ny - 1)
            moving = due[status[due] == STATUS_ACTIVE]
            if moving.size:
                compute_transit(moving)
        rec_x = x0.copy()
        rec_y = y0.copy()
        live = np.nonzero(status == STATUS_ACTIVE)[0]
        if live.size:
            tau = ts - t0[live]
            rec_x[live] = ix[live] * dx + _coord_at(
                x0[live] - ix[live] * dx, seg_vxp[live], seg_ax[live], tau)
            rec_y[live] = iy[live] * dy + _coord_at(
                y0[live] - iy[live] * dy, seg_vyp[live], seg_ay[live], tau)
        out[j, :, 0] = rec_x
        out[j, :, 1] = rec_y

    return ParticleEnsemble(
        snapshot_times=times, positions=out,
        exit_time=exit_time, stagnant_time=stagnant_time,
        length_x=length_x, length_y=length_y,
    )


def displacement_stats(ensemble: ParticleEnsemble) -> DisplacementStats:
    """Mean displacement and MSD of the non-exited particles per snapshot."""
    t = ensemble.snapshot_times[:, None]
    exited = ensemble.exit_time[None, :] <= t
    stagnant = (ensemble.stagnant_time[None, :] <= t) & ~exited
    keep = ~exited
    n_in = keep.sum(axis=1)
    x = ensemble.positions[:, :, 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_x = np.where(keep, x, 0.0).sum(axis=1) / n_in
        dev = np.where(keep, x - mean_x[:, None], 0.0)
        msd = (dev ** 2).sum(axis=1) / n_in
    mean_x[n_in == 0] = np.nan
    msd[n_in == 0] = np.nan
    n_exited = exited.sum(axis=1)
    n_stagnant = stagnant.sum(axis=1)
    n_active = ensemble.num_particles - n_exited - n_stagnant
    return DisplacementStats(
        times=ensemble.snapshot_times.copy(), mean_x=mean_x, msd=msd,
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
