"""Reference particle tracker: the straightforward form of ``tracking.track``.

Every cell transit selects between its branches with ``np.where`` on the
per-particle state and rescans the whole ensemble after each batch of
transits.  ``track`` must reproduce its positions, exit times and stagnation
times bit for bit.
"""

import numpy as np

from nonlocal_transport.errors import ConfigurationError
from nonlocal_transport.tracking import STAGNATION_FLOOR_FRACTION
from trajectories import Trajectories, trajectories

STATUS_ACTIVE = 0
STATUS_EXITED = 1
STATUS_STAGNANT = 2


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


def reference_track(flow, positions, cfg) -> Trajectories:
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

    return trajectories(times, out, exit_time, stagnant_time, length_x,
                        length_y)
