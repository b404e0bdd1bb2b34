"""Tests for semi-analytical particle tracking and ensemble statistics."""

import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from nonlocal_transport.coarsen import coarse_from_ensemble, read_table, write_table
from nonlocal_transport import tracking
from nonlocal_transport.darcy import FlowField, solve_medium
from nonlocal_transport.errors import (
    ConfigurationError, InjectionError, NumericalError,
)
from nonlocal_transport.medium import MediumSpec, inclusion_mask
from nonlocal_transport.tracking import (
    DisplacementStats,
    TrackingConfig,
    displacement_stats,
    inject,
    linear_slope,
    log_log_slope,
    velocity_at,
)
from reference_tracking import reference_track
from test_coarsen import brute_force_displacement_stats
from trajectories import track

L1 = math.sqrt(3.0) / 3.0


def uniform_flow(nx=10, ny=4, dx=0.5, dy=0.25, vx=0.3):
    """A hand-built field with constant vx and no transverse motion."""
    return FlowField(
        grid_nx=nx, grid_ny=ny, dx=dx, dy=dy,
        face_velocity_x=np.full((nx + 1, ny), vx),
        face_velocity_y=np.zeros((nx, ny + 1)),
        head=np.zeros((nx, ny)),
    )


def single_cell_flow(vx_left, vx_right, dx=0.7):
    return FlowField(
        grid_nx=1, grid_ny=1, dx=dx, dy=1.0,
        face_velocity_x=np.array([[vx_left], [vx_right]]),
        face_velocity_y=np.zeros((1, 2)),
        head=np.zeros((1, 1)),
    )


def hetero_spec(num_cells, inclusion_fraction=0.8, head_left=None):
    if head_left is None:
        head_left = 0.273 * num_cells
    return MediumSpec(
        kappa_matrix=1.0, kappa_inclusion=0.01, cell_width=L1,
        layer_height=1.0, num_cells=num_cells, head_left=head_left,
        inclusion_fraction=inclusion_fraction,
    )


@pytest.fixture(scope="module")
def small_hetero():
    spec = hetero_spec(num_cells=6)
    flow = solve_medium(spec, 48, 16)
    return spec, flow


def test_uniform_flow_linear_motion():
    flow = uniform_flow()
    start = np.array([[0.05, 0.1], [1.3, 0.61], [2.0, 0.9]])
    cfg = TrackingConfig(injection_cell=1, num_particles=3, dt=0.5, t_end=3.0, rng_seed=0)
    ens = track(flow, start, cfg)
    for j, t in enumerate(ens.snapshot_times):
        np.testing.assert_allclose(ens.positions[j, :, 0], start[:, 0] + 0.3 * t,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(ens.positions[j, :, 1], start[:, 1])


def test_pollock_exit_time_matches_closed_form():
    # decelerating (2 -> 0.5) and accelerating (0.5 -> 2) linear profiles
    for v0, v1 in ((2.0, 0.5), (0.5, 2.0)):
        dx = 0.7
        flow = single_cell_flow(v0, v1, dx=dx)
        cfg = TrackingConfig(injection_cell=1, num_particles=1, dt=0.05, t_end=2.0,
                             rng_seed=0)
        ens = track(flow, np.array([[0.0, 0.5]]), cfg)
        oracle = dx / (v1 - v0) * math.log(v1 / v0)
        assert ens.exit_time[0] == pytest.approx(oracle, rel=1e-10)
        # in-flight position from the analytic exponential profile
        t_mid = 0.3
        a = (v1 - v0) / dx
        x_oracle = (v0 * math.exp(a * t_mid) - v0) / a
        j = int(round(t_mid / cfg.dt))
        assert ens.positions[j, 0, 0] == pytest.approx(x_oracle, rel=0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    v0=st.floats(0.05, 20.0),
    v1=st.floats(0.05, 20.0),
)
def test_exit_time_closed_form_property(v0, v1):
    if abs(v1 - v0) < 1e-6 * max(v0, v1):
        oracle = 0.7 / (0.5 * (v0 + v1))
    else:
        oracle = 0.7 / (v1 - v0) * math.log(v1 / v0)
    flow = single_cell_flow(v0, v1, dx=0.7)
    cfg = TrackingConfig(injection_cell=1, num_particles=1, dt=0.1,
                         t_end=max(4.0 * oracle, 0.2), rng_seed=0)
    ens = track(flow, np.array([[0.0, 0.5]]), cfg)
    assert ens.exit_time[0] == pytest.approx(oracle, rel=1e-9)


def test_walls_confine_particles(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=300, dt=0.5, t_end=20.0,
                         rng_seed=11)
    ens = track(flow, inject(flow, cfg, spec.num_cells), cfg)
    assert np.min(ens.positions[:, :, 1]) >= 0.0
    assert np.max(ens.positions[:, :, 1]) <= spec.layer_height
    assert np.min(ens.positions[:, :, 0]) >= 0.0
    assert np.max(ens.positions[:, :, 0]) <= spec.domain_length + 1e-12


def test_injection_count_and_reproducibility(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=3, num_particles=500, dt=0.1, t_end=1.0,
                         rng_seed=42)
    p1 = inject(flow, cfg, spec.num_cells)
    p2 = inject(flow, cfg, spec.num_cells)
    assert p1.shape == (500, 2)
    np.testing.assert_array_equal(p1, p2)
    x_lo, x_hi = 2 * spec.cell_width, 3 * spec.cell_width
    assert np.all((p1[:, 0] >= x_lo) & (p1[:, 0] <= x_hi))
    assert np.all((p1[:, 1] >= 0) & (p1[:, 1] <= spec.layer_height))
    p3 = inject(flow, TrackingConfig(injection_cell=3, num_particles=500, dt=0.1,
                                     t_end=1.0, rng_seed=43), spec.num_cells)
    assert not np.array_equal(p1, p3)


def test_injection_uniform_in_homogeneous_flow():
    # constant speed -> every proposal accepted -> uniform in the cell
    flow = uniform_flow(nx=8, ny=8, dx=L1 / 4, dy=0.125, vx=0.7)
    cfg = TrackingConfig(injection_cell=2, num_particles=10_000, dt=0.1, t_end=1.0,
                         rng_seed=5)
    pos = inject(flow, cfg, num_cells=2)
    cell_width = 4 * flow.dx
    res_x = sps.kstest(pos[:, 0], "uniform", args=(cell_width, cell_width))
    res_y = sps.kstest(pos[:, 1], "uniform", args=(0.0, 1.0))
    assert res_x.pvalue > 0.01
    assert res_y.pvalue > 0.01


def test_injection_zero_flow_rejected():
    flow = uniform_flow(vx=0.0)
    cfg = TrackingConfig(injection_cell=1, num_particles=10, dt=0.1, t_end=1.0,
                         rng_seed=0)
    with pytest.raises(InjectionError):
        inject(flow, cfg, num_cells=2)


def test_injection_cell_out_of_range(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=7, num_particles=10, dt=0.1, t_end=1.0,
                         rng_seed=0)
    with pytest.raises(ConfigurationError):
        inject(flow, cfg, spec.num_cells)


def test_injection_is_flux_weighted(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=2, num_particles=10_000, dt=0.1, t_end=1.0,
                         rng_seed=19)
    pos = inject(flow, cfg, spec.num_cells)
    frac_hat = np.mean(inclusion_mask(spec, pos[:, 0], pos[:, 1]))

    # oracle: midpoint quadrature of |v| over the injection cell
    nq = 800
    xs = spec.cell_width * (1 + (np.arange(nq) + 0.5) / nq)
    ys = spec.layer_height * (np.arange(nq) + 0.5) / nq
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    vx, vy = velocity_at(flow, xg.ravel(), yg.ravel())
    speed = np.hypot(vx, vy)
    inside = inclusion_mask(spec, xg.ravel(), yg.ravel())
    frac_oracle = speed[inside].sum() / speed.sum()

    sigma = math.sqrt(frac_oracle * (1 - frac_oracle) / cfg.num_particles)
    assert abs(frac_hat - frac_oracle) <= 3 * sigma


def random_flow(nx=6, ny=5, dx=0.3, dy=0.2, seed=0):
    """Face velocities of both signs, some exactly zero: particles move
    backward, stall, exit, and run into the inflow face and the walls."""
    rng = np.random.default_rng(seed)
    fvx = rng.normal(0.4, 1.0, size=(nx + 1, ny))
    fvy = rng.normal(0.0, 1.0, size=(nx, ny + 1))
    fvx[rng.uniform(size=fvx.shape) < 0.1] = 0.0
    fvy[rng.uniform(size=fvy.shape) < 0.1] = 0.0
    fvx[2, :] = fvx[3, :]              # cells with a == 0 beside others
    return FlowField(grid_nx=nx, grid_ny=ny, dx=dx, dy=dy,
                     face_velocity_x=fvx, face_velocity_y=fvy,
                     head=np.zeros((nx, ny)))


def assert_matches_reference(flow, start, cfg, from_row=0):
    """Bit-for-bit agreement with the oracle from snapshot ``from_row`` on."""
    ens = track(flow, start, cfg)
    ref = reference_track(flow, start, cfg)
    np.testing.assert_array_equal(ens.snapshot_times, ref.snapshot_times)
    for name in ("positions", "exit_time", "stagnant_time"):
        got, want = getattr(ens, name), getattr(ref, name)
        if name == "positions":
            got, want = got[from_row:], want[from_row:]
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes(), name   # signed zeros too
    return ens


def test_track_matches_reference_with_exits(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=400, dt=0.5, t_end=30.0,
                         rng_seed=23)
    ens = assert_matches_reference(flow, inject(flow, cfg, spec.num_cells), cfg)
    assert np.isfinite(ens.exit_time).sum() > 100
    assert np.all(ens.positions[-1, np.isfinite(ens.exit_time), 0]
                  == flow.length_x)


def test_track_matches_reference_in_stagnant_cell():
    flow = single_cell_flow(1.0, 0.0)
    cfg = TrackingConfig(injection_cell=1, num_particles=3, dt=0.1, t_end=1.0,
                         rng_seed=0)
    start = np.array([[0.0, 0.5], [0.2, 0.1], [0.69, 0.9]])
    ens = assert_matches_reference(flow, start, cfg)
    np.testing.assert_array_equal(ens.stagnant_time, 0.0)


def test_track_matches_reference_in_uniform_field():
    flow = uniform_flow()
    assert np.all(np.diff(flow.face_velocity_x, axis=0) == 0.0)   # a == 0
    cfg = TrackingConfig(injection_cell=1, num_particles=40, dt=0.5, t_end=10.0,
                         rng_seed=0)
    rng = np.random.default_rng(1)
    start = np.column_stack([rng.uniform(0.0, flow.length_x, 40),
                             rng.uniform(0.0, flow.length_y, 40)])
    ens = assert_matches_reference(flow, start, cfg)
    assert 0 < np.isfinite(ens.exit_time).sum() < 40


@pytest.mark.filterwarnings("error")
def test_frozen_particles_hold_over_a_long_run():
    # rows 0 and 1 come to rest in cell 2: one particle stalls there at
    # t = 1, one starts there on y = -0.0 and stalls at once, and one in
    # row 2 leaves at t = 0.5; each must hold its place bit for bit, the
    # sign of a zero too, for the rest of a thousand time units, with no
    # overflow on the way
    flow = uniform_flow()
    flow.face_velocity_x[3:, :2] = 0.0
    start = np.array([[flow.length_x - 0.15, 0.6], [0.7, 0.3], [1.2, -0.0]])
    cfg = TrackingConfig(injection_cell=1, num_particles=3, dt=0.5,
                         t_end=1000.0, rng_seed=0)
    ens = assert_matches_reference(flow, start, cfg)
    assert ens.exit_time[0] == pytest.approx(0.5)
    assert ens.stagnant_time[1] == pytest.approx(1.0)
    assert ens.stagnant_time[2] == 0.0
    assert np.isinf(ens.exit_time[1:]).all() and np.isinf(ens.stagnant_time[0])
    np.testing.assert_array_equal(ens.positions[-1, :, 0],
                                  [flow.length_x, 1.0, 1.2])
    assert np.signbit(ens.positions[-1, 2, 1])
    frozen_at = [ens.exit_time[0], ens.stagnant_time[1], 0.0]
    for p, t in enumerate(frozen_at):
        held = ens.positions[ens.snapshot_times >= t, p]
        assert len(held) > 1990
        assert held.tobytes() == np.tile(held[-1], (len(held), 1)).tobytes()


def test_track_matches_reference_from_faces(small_hetero):
    spec, flow = small_hetero
    kx, ky = np.meshgrid(np.arange(flow.grid_nx + 1), np.arange(flow.grid_ny + 1),
                         indexing="ij")
    start = np.column_stack([kx.ravel() * flow.dx, ky.ravel() * flow.dy])
    start[:, 0] = np.minimum(start[:, 0], flow.length_x)
    start[:, 1] = np.minimum(start[:, 1], flow.length_y)
    cfg = TrackingConfig(injection_cell=1, num_particles=len(start), dt=0.5,
                         t_end=15.0, rng_seed=0)
    ens = assert_matches_reference(flow, start, cfg, from_row=1)
    # t = 0 is the injected array itself, while the oracle evaluates it
    # from the cell a particle moves into at t = 0, which moves particles
    # leaving their face by rounding
    assert ens.positions[0].tobytes() == start.tobytes()
    oracle_start = reference_track(flow, start, cfg).positions[0]
    assert 0 < np.any(oracle_start != start, axis=1).sum() < len(start) // 10


def random_start(flow, n, seed):
    """Uniform starts in the domain, the first 20 on x-faces, the next 20
    on y-faces."""
    rng = np.random.default_rng(seed)
    start = np.column_stack([rng.uniform(0.0, flow.length_x, n),
                             rng.uniform(0.0, flow.length_y, n)])
    start[:20, 0] = np.arange(20) % (flow.grid_nx + 1) * flow.dx   # on x-faces
    start[20:40, 1] = np.arange(20) % (flow.grid_ny + 1) * flow.dy
    return np.minimum(start, [flow.length_x, flow.length_y])


@pytest.mark.parametrize("seed", range(4))
def test_track_matches_reference_in_random_field(seed):
    flow = random_flow(seed=seed)
    n = 300
    start = random_start(flow, n, seed)
    cfg = TrackingConfig(injection_cell=1, num_particles=n, dt=0.05, t_end=3.0,
                         rng_seed=0)
    ens = assert_matches_reference(flow, start, cfg)
    assert np.isfinite(ens.stagnant_time).any()
    assert np.isfinite(ens.exit_time).any()


def separable_case(name, small_hetero):
    """(flow, start, cfg) with exits, stalls or face starts."""
    if name == "hetero":
        spec, flow = small_hetero
        cfg = TrackingConfig(injection_cell=1, num_particles=300, dt=0.5,
                             t_end=30.0, rng_seed=23)
        return flow, inject(flow, cfg, spec.num_cells), cfg
    if name == "stagnant":
        start = np.array([[0.0, 0.5], [0.2, 0.1], [0.69, 0.9], [0.35, 0.0]])
        cfg = TrackingConfig(injection_cell=1, num_particles=4, dt=0.1,
                             t_end=1.0, rng_seed=0)
        return single_cell_flow(1.0, 0.0), start, cfg
    seed = int(name.removeprefix("random"))
    flow = random_flow(seed=seed)
    cfg = TrackingConfig(injection_cell=1, num_particles=200, dt=0.05,
                         t_end=3.0, rng_seed=0)
    return flow, random_start(flow, 200, seed), cfg


@pytest.mark.parametrize("case", ["hetero", "stagnant", "random0", "random1",
                                  "random3"])
def test_track_is_separable(case, small_hetero):
    # the property that lets track split the ensemble into blocks: any
    # prefix and suffix, tracked apart, give the whole ensemble's bits
    flow, start, cfg = separable_case(case, small_hetero)
    whole = track(flow, start, cfg)
    assert (np.isfinite(whole.exit_time).any()
            or np.isfinite(whole.stagnant_time).any())
    n = len(start)
    for k in sorted({1, n // 3, n // 2 + 1, n - 1}):
        head, tail = track(flow, start[:k], cfg), track(flow, start[k:], cfg)
        for name, axis in (("positions", 1), ("exit_time", 0),
                           ("stagnant_time", 0)):
            joined = np.concatenate([getattr(head, name), getattr(tail, name)],
                                    axis=axis)
            assert joined.tobytes() == getattr(whole, name).tobytes(), (name, k)


def log_blocks(monkeypatch, log):
    """Log the process and particle count of every tracked block."""
    track_block = tracking._track_block

    def logged(flow, pos, *args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(pos)}\n")
        return track_block(flow, pos, *args)

    monkeypatch.setattr(tracking, "_track_block", logged)


def logged_blocks(log):
    return [tuple(map(int, line.split()))
            for line in log.read_text().splitlines()]


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def set_chunk(monkeypatch, particles):
    """Reduce in chunks of ``particles``, so a small ensemble spans several
    chunks and can be cut into several blocks."""
    monkeypatch.setattr(tracking, "REDUCE_CHUNK", particles)


@pytest.mark.parametrize("cpus", [None, 3], ids=["this-host", "3-cpus"])
def test_track_runs_one_block_per_cpu(small_hetero, tmp_path, monkeypatch,
                                      cpus):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=200, dt=0.5,
                         t_end=10.0, rng_seed=5)
    start = inject(flow, cfg, spec.num_cells)
    cpus = cpus or len(os.sched_getaffinity(0))
    set_chunk(monkeypatch, 64)
    alone = track(flow, start, cfg)
    set_cpus(monkeypatch, cpus)
    log = tmp_path / "blocks.log"
    log_blocks(monkeypatch, log)
    ens = tracking.track(flow, start, cfg, spec)
    blocks = logged_blocks(log)
    # 200 particles make 4 chunks of at most 64
    assert len({pid for pid, _ in blocks}) == len(blocks) == min(cpus, 4)
    assert os.getpid() in {pid for pid, _ in blocks}
    sizes = sorted(size for _, size in blocks)
    assert sum(sizes) == 200 and sizes[-1] - sizes[0] <= 64
    assert ens.positions.tobytes() == alone.positions[-1].tobytes()
    for name in ("exit_time", "stagnant_time"):
        assert getattr(ens, name).tobytes() == getattr(alone, name).tobytes()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpu_count, blocks", [(3, 3), (None, 1)])
def test_track_without_affinity_counts_every_cpu(small_hetero, tmp_path,
                                                 monkeypatch, cpu_count,
                                                 blocks):
    # hosts without sched_getaffinity use os.cpu_count(), which may be None
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=50, dt=0.5,
                         t_end=5.0, rng_seed=0)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    set_chunk(monkeypatch, 16)
    log = tmp_path / "blocks.log"
    log_blocks(monkeypatch, log)
    tracking.track(flow, random_start(flow, 50, 0), cfg, spec)
    assert len(logged_blocks(log)) == blocks
    assert multiprocessing.active_children() == []


def test_single_particle_starts_no_worker(small_hetero, tmp_path, monkeypatch):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=1, dt=0.5, t_end=5.0,
                         rng_seed=0)
    log = tmp_path / "blocks.log"
    log_blocks(monkeypatch, log)
    tracking.track(flow, np.array([[0.1, 0.5]]), cfg, spec)
    assert logged_blocks(log) == [(os.getpid(), 1)]
    assert multiprocessing.active_children() == []


def test_failed_worker_raises_numerical_error(small_hetero, monkeypatch):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=50, dt=0.5, t_end=5.0,
                         rng_seed=0)
    start = inject(flow, cfg, spec.num_cells)
    parent, track_block = os.getpid(), tracking._track_block

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return track_block(*args)

    monkeypatch.setattr(tracking, "_track_block", dying)
    set_cpus(monkeypatch, 2)
    set_chunk(monkeypatch, 16)
    with pytest.raises(NumericalError, match="block 2 of 2.*code 1"):
        tracking.track(flow, start, cfg, spec)
    assert multiprocessing.active_children() == []


def test_worker_ending_without_its_rows_raises_numerical_error(small_hetero,
                                                              monkeypatch):
    # a worker that exits 0 having written nothing still owes every row
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=50, dt=0.5, t_end=5.0,
                         rng_seed=0)
    start = inject(flow, cfg, spec.num_cells)
    parent, track_block = os.getpid(), tracking._track_block

    def returning(*args):
        if os.getpid() == parent:
            return track_block(*args)

    monkeypatch.setattr(tracking, "_track_block", returning)
    set_cpus(monkeypatch, 2)
    set_chunk(monkeypatch, 16)
    with pytest.raises(NumericalError, match="block 2 of 2.*code 0"):
        tracking.track(flow, start, cfg, spec)
    assert multiprocessing.active_children() == []


def test_failed_own_block_stops_the_workers(small_hetero, monkeypatch):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=50, dt=0.5, t_end=5.0,
                         rng_seed=0)
    start = inject(flow, cfg, spec.num_cells)
    parent = os.getpid()

    def stuck_or_failing(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise NumericalError("synthetic block failure")

    monkeypatch.setattr(tracking, "_track_block", stuck_or_failing)
    set_cpus(monkeypatch, 2)
    set_chunk(monkeypatch, 16)
    began = time.perf_counter()
    with pytest.raises(NumericalError, match="synthetic block failure"):
        tracking.track(flow, start, cfg, spec)
    assert time.perf_counter() - began < 30.0
    assert multiprocessing.active_children() == []


def test_worker_dying_mid_stream_raises_numerical_error(small_hetero,
                                                       monkeypatch):
    # the worker dies with rows of its block still owed
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=50, dt=0.25,
                         t_end=10.0, rng_seed=0)
    start = inject(flow, cfg, spec.num_cells)
    parent, track_block = os.getpid(), tracking._track_block

    def dying_later(*args):
        *block, emit = args
        if os.getpid() == parent:
            return track_block(*args)

        def emit_then_die(j):
            if j == 3:
                os._exit(7)
            emit(j)

        return track_block(*block, emit_then_die)

    monkeypatch.setattr(tracking, "_track_block", dying_later)
    set_cpus(monkeypatch, 2)
    set_chunk(monkeypatch, 16)
    began = time.perf_counter()
    with pytest.raises(NumericalError, match="block 2 of 2.*code 7"):
        tracking.track(flow, start, cfg, spec)
    assert time.perf_counter() - began < 30.0
    assert multiprocessing.active_children() == []


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_exit_when_the_calling_process_dies(small_hetero, tmp_path,
                                                    monkeypatch):
    # each worker's payload outgrows a pipe buffer, so a worker still holding
    # its own read end would block in send forever once the caller is killed
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=50, dt=0.005,
                         t_end=10.0, rng_seed=0)
    start = inject(flow, cfg, spec.num_cells)
    set_cpus(monkeypatch, 3)
    set_chunk(monkeypatch, 16)
    log = tmp_path / "workers.log"
    reduce_block = tracking._reduce_block

    def killed_before_reading():
        caller = os.getpid()

        def own_block_kills_the_caller(*args):
            if os.getpid() != caller:
                return reduce_block(*args)
            log.write_text(" ".join(str(worker.pid) for worker
                                    in multiprocessing.active_children()))
            os.kill(caller, signal.SIGKILL)

        monkeypatch.setattr(tracking, "_reduce_block",
                            own_block_kills_the_caller)
        tracking.track(flow, start, cfg, spec)

    caller = multiprocessing.get_context("fork").Process(
        target=killed_before_reading)
    caller.start()
    caller.join()
    assert caller.exitcode == -signal.SIGKILL
    workers = [int(pid) for pid in log.read_text().split()]
    assert len(workers) == 2
    try:
        deadline = time.perf_counter() + 30.0
        while any(map(running, workers)) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
    finally:
        for pid in filter(running, workers):
            os.kill(pid, signal.SIGKILL)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_track_reduces_every_streamed_row(small_hetero, monkeypatch, cpus):
    # what track keeps equals every row, collected in one block and reduced
    # after the fact; 300 particles span 5 chunks of at most 64
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=300, dt=0.5,
                         t_end=30.0, rng_seed=23)
    start = inject(flow, cfg, spec.num_cells)
    set_chunk(monkeypatch, 64)
    whole = track(flow, start, cfg)
    assert np.isfinite(whole.exit_time).any()
    set_cpus(monkeypatch, cpus)
    ens = tracking.track(flow, start, cfg, spec)
    assert ens.positions.shape == (300, 2)
    assert ens.positions.tobytes() == whole.positions[-1].tobytes()
    for name in ("snapshot_times", "exit_time", "stagnant_time"):
        assert getattr(ens, name).tobytes() == getattr(whole, name).tobytes()
    assert (ens.unit_cell_mass(spec).tobytes()
            == whole.unit_cell_mass(spec).tobytes())
    got, want = displacement_stats(ens), displacement_stats(whole)
    for name in ("mean_x", "msd", "n_active", "n_exited", "n_stagnant"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert multiprocessing.active_children() == []


def chunked_reference(ens, chunk, cell_width, num_cells):
    """Mean x, MSD and unit-cell mass of whole rows, chunk by chunk in
    Python loops: each chunk's count, sum and squared deviations from its
    own mean, combined in chunk order."""
    n = ens.num_particles
    mean_x, msd = [], []
    mass = np.zeros((len(ens.snapshot_times), num_cells))
    for j, t in enumerate(ens.snapshot_times):
        x, keep = ens.positions[j, :, 0], ens.exit_time > t
        parts = []
        for lo in range(0, n, chunk):
            xs, ks = x[lo:lo + chunk], keep[lo:lo + chunk]
            count, total = int(ks.sum()), np.where(ks, xs, 0.0).sum()
            own = total / count if count else math.nan
            square = (np.where(ks, xs - own, 0.0) ** 2).sum()
            parts.append((count, total, own, square))
        count = np.sum([p[0] for p in parts])
        with np.errstate(invalid="ignore"):
            mean = np.sum([p[1] for p in parts]) / count
            msd.append(np.sum([p[3] + (p[0] * (p[2] - mean) ** 2 if p[0] else 0.0)
                               for p in parts]) / count)
        mean_x.append(mean)
        for xi in x[~(ens.exit_time <= t)]:
            mass[j, min(int(xi / cell_width), num_cells - 1)] += 1
    return np.array(mean_x), np.array(msd), mass / n


@pytest.mark.parametrize("n", [3 * 64 + 17, 2 * 64], ids=["tail", "no-tail"])
def test_chunked_reduction_is_independent_of_the_cpu_count(monkeypatch, n):
    # chunks of 64, with or without a shorter last one, in a field where
    # particles exit and stall; 1, 2 and 3 CPUs must reduce to the same bits
    flow = random_flow(seed=1)
    chunk = 64
    cfg = TrackingConfig(injection_cell=1, num_particles=n, dt=0.05,
                         t_end=3.0, rng_seed=0)
    spec = MediumSpec(**{**hetero_spec(3).to_dict(), "cell_width": 0.6})
    start = random_start(flow, n, 1)
    whole = track(flow, start, cfg)
    assert np.isfinite(whole.exit_time).any()
    assert np.isfinite(whole.stagnant_time).any()
    set_chunk(monkeypatch, chunk)
    mean_x, msd, mass = chunked_reference(whole, chunk, 0.6, 3)
    _, _, _, one_pass_mean, one_pass_msd = brute_force_displacement_stats(whole)
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        ens = tracking.track(flow, start, cfg, spec)
        stats = displacement_stats(ens)
        assert stats.mean_x.tobytes() == mean_x.tobytes(), cpus
        assert stats.msd.tobytes() == msd.tobytes(), cpus
        assert ens.unit_cell_mass(spec).tobytes() == mass.tobytes(), cpus
        np.testing.assert_allclose(stats.mean_x, one_pass_mean, rtol=1e-15)
        np.testing.assert_allclose(stats.msd, one_pass_msd, rtol=1e-15)
    assert multiprocessing.active_children() == []


def test_coarsening_rejects_another_mediums_cells(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=20, dt=0.5,
                         t_end=2.0, rng_seed=0)
    ens = tracking.track(flow, inject(flow, cfg, spec.num_cells), cfg, spec)
    halves = hetero_spec(num_cells=2 * spec.num_cells)
    halves = MediumSpec(**{**halves.to_dict(), "cell_width": L1 / 2})
    assert abs(halves.domain_length - spec.domain_length) < 1e-12
    with pytest.raises(ConfigurationError, match="binned on 6 cells"):
        coarse_from_ensemble(ens, halves, 1)


def test_tracking_deterministic(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=200, dt=0.25, t_end=8.0,
                         rng_seed=3)

    def run():
        return track(flow, inject(flow, cfg, spec.num_cells), cfg)

    a, b = run(), run()
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.exit_time, b.exit_time)
    np.testing.assert_array_equal(a.stagnant_time, b.stagnant_time)


def test_snapshot_interval_only_selects_recording_times(small_hetero):
    # trajectories are exact: halving dt must reproduce identical positions
    # at shared instants, bit for bit
    spec, flow = small_hetero
    coarse = TrackingConfig(injection_cell=1, num_particles=150, dt=0.25, t_end=10.0,
                            rng_seed=8)
    fine = TrackingConfig(injection_cell=1, num_particles=150, dt=0.125, t_end=10.0,
                          rng_seed=8)
    start = inject(flow, coarse, spec.num_cells)
    ens_c = track(flow, start, coarse)
    ens_f = track(flow, start, fine)
    np.testing.assert_array_equal(ens_f.snapshot_times[::2], ens_c.snapshot_times)
    np.testing.assert_array_equal(ens_f.positions[::2], ens_c.positions)


def test_status_accounting(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=400, dt=0.5, t_end=30.0,
                         rng_seed=23)
    ens = track(flow, inject(flow, cfg, spec.num_cells), cfg)
    n_active, n_exited, n_stagnant = ens.status_counts()
    np.testing.assert_array_equal(n_active + n_exited + n_stagnant,
                                  np.full(len(ens.snapshot_times), 400))
    assert n_exited[-1] > 0          # long run on a short domain: outflow happens
    assert np.all(np.diff(n_exited) >= 0)


def test_stagnant_particle_frozen_and_flagged():
    # vx decays linearly to a zero outlet face: the particle can never leave
    # the cell, so it is flagged stagnant at entry and frozen there
    flow = single_cell_flow(1.0, 0.0)
    cfg = TrackingConfig(injection_cell=1, num_particles=1, dt=0.1, t_end=1.0,
                         rng_seed=0)
    ens = track(flow, np.array([[0.2, 0.5]]), cfg)
    assert ens.stagnant_time[0] == 0.0
    assert np.isinf(ens.exit_time[0])
    np.testing.assert_array_equal(ens.positions[:, 0, 0], 0.2)
    n_active, n_exited, n_stagnant = ens.status_counts()
    assert n_stagnant[-1] == 1 and n_active[-1] == 0


def test_fine_density_mass_and_support(small_hetero):
    # the pipeline's window average at m = 1 is the in-domain mass per cell
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=2, num_particles=500, dt=0.5, t_end=25.0,
                         rng_seed=31)
    ens = track(flow, inject(flow, cfg, spec.num_cells), cfg)
    coarse = coarse_from_ensemble(ens, spec, 1)
    cell_mass = coarse.values * spec.cell_width * spec.layer_height
    mass = cell_mass.sum(axis=0)
    assert abs(mass[0] - 1.0) < 1e-12
    assert np.all(np.diff(mass) <= 1e-12)
    assert mass[-1] < 1.0            # outflow on this short domain
    in_domain = (ens.exit_time[None, :] > ens.snapshot_times[:, None]).mean(axis=1)
    np.testing.assert_allclose(mass, in_domain, rtol=1e-12, atol=1e-15)
    # initial support: only cell 2
    np.testing.assert_array_equal(np.nonzero(cell_mass[:, 0])[0], [1])
    assert np.all(coarse.values >= 0)


def test_fine_density_raw_counts(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=64, dt=0.5, t_end=1.0,
                         rng_seed=2)
    ens = track(flow, inject(flow, cfg, spec.num_cells), cfg)
    coarse = coarse_from_ensemble(ens, spec, 1)
    counts = (coarse.values[:, 0] * spec.cell_width * spec.layer_height
              * ens.num_particles)
    np.testing.assert_allclose(counts.sum(), 64.0, rtol=1e-12)


def test_point_source_in_uniform_flow_has_zero_msd():
    flow = uniform_flow()
    start = np.tile([[0.4, 0.5]], (50, 1))
    cfg = TrackingConfig(injection_cell=1, num_particles=50, dt=0.5, t_end=5.0,
                         rng_seed=0)
    stats = displacement_stats(track(flow, start, cfg))
    np.testing.assert_allclose(stats.msd, 0.0, atol=1e-20)
    np.testing.assert_allclose(stats.mean_x, 0.4 + 0.3 * stats.times,
                               rtol=0, atol=1e-12)


def test_initial_mean_inside_injection_cell(small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=4, num_particles=300, dt=0.5, t_end=5.0,
                         rng_seed=13)
    stats = displacement_stats(track(flow, inject(flow, cfg, spec.num_cells), cfg))
    assert 3 * spec.cell_width <= stats.mean_x[0] <= 4 * spec.cell_width


def test_desk_scale_msd_is_superlinear():
    # quenched velocity contrast between streamlines spreads the plume faster
    # than Fickian: log-log MSD slope over the second half stays above 1.05
    spec = hetero_spec(num_cells=24, inclusion_fraction=1.0)
    flow = solve_medium(spec, 192, 16)
    cfg = TrackingConfig(injection_cell=2, num_particles=2000, dt=0.25, t_end=25.0,
                         rng_seed=7)
    ens = track(flow, inject(flow, cfg, spec.num_cells), cfg)
    stats = displacement_stats(ens)
    assert stats.n_exited[-1] == 0   # no censoring of the fast tail
    slope = log_log_slope(stats.times, stats.msd, t_min=12.5)
    assert slope > 1.05


def test_displacement_stats_csv_round_trip(tmp_path, small_hetero):
    spec, flow = small_hetero
    cfg = TrackingConfig(injection_cell=1, num_particles=50, dt=0.5, t_end=2.0,
                         rng_seed=4)
    stats = displacement_stats(track(flow, inject(flow, cfg, spec.num_cells), cfg))
    path = tmp_path / "stats.csv"
    write_table(path, ["t", "mean_x", "msd", "n_active"],
                zip(stats.times, stats.mean_x, stats.msd, stats.n_active),
                ["# provenance: test"])
    rows = read_table(path)
    assert len(rows) == len(stats.times)
    for j, row in enumerate(rows):
        assert float(row["t"]) == stats.times[j]
        assert float(row["mean_x"]) == stats.mean_x[j]
        assert float(row["msd"]) == stats.msd[j]
        assert int(row["n_active"]) == stats.n_active[j]


def test_slope_helpers():
    t = np.linspace(0.0, 10.0, 50)
    assert linear_slope(t, 2.5 * t + 1.0) == pytest.approx(2.5, rel=1e-12)
    t = np.linspace(0.5, 8.0, 40)
    assert log_log_slope(t, 3.0 * t ** 1.7) == pytest.approx(1.7, rel=1e-12)
    with pytest.raises(ConfigurationError):
        linear_slope(np.array([1.0]), np.array([2.0]))


def test_tracking_config_validation():
    with pytest.raises(ConfigurationError):
        TrackingConfig(injection_cell=0, num_particles=10, dt=0.1, t_end=1.0, rng_seed=0)
    with pytest.raises(ConfigurationError):
        TrackingConfig(injection_cell=1, num_particles=0, dt=0.1, t_end=1.0, rng_seed=0)
    with pytest.raises(ConfigurationError):
        TrackingConfig(injection_cell=1, num_particles=10, dt=-0.1, t_end=1.0, rng_seed=0)
    with pytest.raises(ConfigurationError):
        TrackingConfig(injection_cell=1, num_particles=10, dt=0.5, t_end=0.2, rng_seed=0)
    cfg = TrackingConfig(injection_cell=1, num_particles=10, dt=0.5, t_end=2.0, rng_seed=0)
    np.testing.assert_array_equal(cfg.snapshot_times, [0.0, 0.5, 1.0, 1.5, 2.0])
