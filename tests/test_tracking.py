"""Tests for semi-analytical particle tracking and ensemble statistics."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from nonlocal_transport.coarsen import coarse_from_ensemble
from nonlocal_transport.darcy import FlowField, solve_medium
from nonlocal_transport.errors import ConfigurationError, InjectionError
from nonlocal_transport.medium import MediumSpec, inclusion_mask
from nonlocal_transport.tracking import (
    DisplacementStats,
    TrackingConfig,
    displacement_stats,
    inject,
    linear_slope,
    log_log_slope,
    track,
    velocity_at,
)

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
    stats.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
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
