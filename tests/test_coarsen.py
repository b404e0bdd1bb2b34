"""Tests for coarse-graining, breakthrough extraction and frame shifting."""

import math

import numpy as np
import pytest

from nonlocal_transport.coarsen import (
    BreakthroughCurve,
    CoarseDensity,
    coarse_from_ensemble,
    effective_advection,
    extract_btc,
    load_btc_dataset,
    save_btc_dataset,
    shift_frame,
    write_table,
)
from nonlocal_transport.baselines import solve_classical
from nonlocal_transport.darcy import solve_medium, solve_unit_cell
from nonlocal_transport.errors import (
    ArtifactError, ConfigurationError, NumericalError,
)
from nonlocal_transport.medium import MediumSpec, build_conductivity
from nonlocal_transport.nonlocal_diffusion import (
    model_btc, solution_moments, unit_spike,
)
from nonlocal_transport.tracking import (
    TrackingConfig,
    displacement_stats,
    inject,
)
from trajectories import track, trajectories

L1 = math.sqrt(3.0) / 3.0


def medium(num_cells=8, inclusion_fraction=1.0, head_left=2.0):
    return MediumSpec(
        kappa_matrix=1.0, kappa_inclusion=0.01, cell_width=L1,
        layer_height=1.0, num_cells=num_cells, head_left=head_left,
        inclusion_fraction=inclusion_fraction,
    )


def ensemble(spec, x, times=(0.0,), exit_time=None, stagnant_time=None,
             length_x=None):
    """Hand-built ensemble with positions ``x`` of shape (n_snap, n)."""
    x = np.asarray(x, dtype=float).reshape(len(times), -1)
    n = x.shape[1]
    rng = np.random.default_rng(0)
    positions = np.stack(
        [x, rng.uniform(0.0, spec.layer_height, size=x.shape)], axis=-1)
    return trajectories(
        times, positions,
        np.full(n, np.inf) if exit_time is None else exit_time,
        np.full(n, np.inf) if stagnant_time is None else stagnant_time,
        spec.domain_length if length_x is None else length_x)


def synthetic_ensemble(spec, n=200, n_snap=4, seed=0):
    """Random ensemble in which some particles exit and some stagnate.

    As in a tracked run, exited particles sit on the outlet plane from
    their exit time on, and stagnant ones stay where they stalled.
    """
    rng = np.random.default_rng(seed)
    times = np.arange(n_snap) * 0.5
    x = rng.uniform(0.0, spec.domain_length, size=(n_snap, n))
    exit_time = np.where(rng.uniform(size=n) < 0.3,
                         rng.choice(times[1:], size=n), np.inf)
    exit_time[:3] = times[1]          # exactly on a snapshot instant
    x[times[:, None] >= exit_time[None, :]] = spec.domain_length
    stagnant_time = np.where(~np.isfinite(exit_time)
                             & (rng.uniform(size=n) < 0.2), 0.0, np.inf)
    x[:, stagnant_time == 0.0] = x[0, stagnant_time == 0.0]
    return ensemble(spec, x, times, exit_time, stagnant_time)


def brute_force_upscale(ens, spec, m):
    """Windowed averages via explicit loops, for cross-checking."""
    n_snap = len(ens.snapshot_times)
    cell_of = np.minimum((ens.positions[:, :, 0] / spec.cell_width).astype(int),
                         spec.num_cells - 1)
    out = np.zeros((spec.num_cells, n_snap))
    for t in range(n_snap):
        for i in range(spec.num_cells):
            width = min(m, spec.num_cells - i)
            total = 0.0
            for k in range(i, i + width):
                for p in range(ens.num_particles):
                    if (ens.exit_time[p] > ens.snapshot_times[t]
                            and cell_of[t, p] == k):
                        total += 1.0
            total /= ens.num_particles
            out[i, t] = total / (width * spec.cell_width * spec.layer_height)
    return out


def in_domain_fraction(ens):
    """Fraction of the particles not yet exited at each snapshot."""
    return (ens.exit_time[None, :] > ens.snapshot_times[:, None]).mean(axis=1)


def test_upscale_matches_brute_force():
    spec = medium(num_cells=8)
    ens = synthetic_ensemble(spec, seed=3)
    for m in (1, 3, 8):
        coarse = coarse_from_ensemble(ens, spec, m)
        np.testing.assert_allclose(coarse.values, brute_force_upscale(ens, spec, m),
                                   rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(coarse.times, ens.snapshot_times)
        assert np.all(coarse.values >= 0)


def brute_force_displacement_stats(ens):
    """Counts, mean and MSD from whole (snapshots x particles) masks."""
    t = ens.snapshot_times[:, None]
    exited = ens.exit_time[None, :] <= t
    stagnant = (ens.stagnant_time[None, :] <= t) & ~exited
    n_in = (~exited).sum(axis=1)
    x = ens.positions[:, :, 0]
    with np.errstate(invalid="ignore"):
        mean_x = np.where(~exited, x, 0.0).sum(axis=1) / n_in
        dev = np.where(~exited, x - mean_x[:, None], 0.0)
        msd = (dev ** 2).sum(axis=1) / n_in
    return (ens.num_particles - exited.sum(axis=1) - stagnant.sum(axis=1),
            exited.sum(axis=1), stagnant.sum(axis=1), mean_x, msd)


def test_displacement_stats_match_brute_force():
    spec = medium(num_cells=8)
    everyone_exits = ensemble(spec, np.full((3, 20), spec.domain_length),
                              times=[0.0, 0.5, 1.0], exit_time=np.full(20, 0.5))
    # particles that stall and later exit count as stagnant only until then
    stall_then_exit = ensemble(spec, np.full((4, 3), spec.domain_length),
                               times=[0.0, 0.5, 1.0, 1.5],
                               exit_time=np.array([1.0, np.inf, 0.5]),
                               stagnant_time=np.array([0.5, 0.0, 1.0]))
    for ens in (synthetic_ensemble(spec, seed=3),
                synthetic_ensemble(spec, n=1000, n_snap=9, seed=7),
                everyone_exits, stall_then_exit):
        stats = displacement_stats(ens)
        n_active, n_exited, n_stagnant, mean_x, msd = \
            brute_force_displacement_stats(ens)
        np.testing.assert_array_equal(ens.status_counts(),
                                      (n_active, n_exited, n_stagnant))
        np.testing.assert_array_equal(stats.n_active, n_active)
        np.testing.assert_array_equal(stats.n_exited, n_exited)
        np.testing.assert_array_equal(stats.n_stagnant, n_stagnant)
        np.testing.assert_array_equal(stats.mean_x, mean_x)
        np.testing.assert_array_equal(stats.msd, msd)
        np.testing.assert_array_equal(n_active + n_exited + n_stagnant,
                                      ens.num_particles)
        assert n_exited[-1] > 0
    # the synthetic ensembles cover stagnation and exits on a snapshot instant
    ens = synthetic_ensemble(spec, seed=3)
    assert displacement_stats(ens).n_stagnant[-1] > 0
    assert np.isin(ens.exit_time, ens.snapshot_times).any()
    assert np.isnan(displacement_stats(everyone_exits).msd[1:]).all()
    np.testing.assert_array_equal(stall_then_exit.status_counts()[2], [1, 2, 1, 1])


@pytest.mark.parametrize("which, times, snapshot", [
    ("exit_time", [0.0, 0.5, 1.0], "t = 0,"),
    ("stagnant_time", [0.5, 1.0, 1.5], "t = 0.5,"),
], ids=["exit", "stagnant"])
def test_status_counts_reject_a_nan_time(which, times, snapshot):
    # a NaN time counts particle 1 in no state: a NaN exit time at every
    # snapshot, a NaN stagnation time until it exits at 1.0
    spec = medium(num_cells=8)
    ens = ensemble(spec, np.full((3, 3), 1.0), times=times,
                   exit_time=np.array([np.inf, 1.0, 0.5]))
    getattr(ens, which)[1] = np.nan
    with pytest.raises(NumericalError,
                       match=f"2 active, exited and stagnant particles at "
                             f"{snapshot} not 3"):
        ens.status_counts()
    with pytest.raises(NumericalError, match=snapshot):
        displacement_stats(ens)


def test_upscale_preserves_constants():
    # three particles in every cell: a uniform density, kept by every window
    spec = medium(num_cells=6)
    x = (np.repeat(np.arange(6), 3) + np.tile([0.1, 0.5, 0.9], 6)) * spec.cell_width
    ens = ensemble(spec, x)
    level = 1.0 / (spec.num_cells * spec.cell_width * spec.layer_height)
    for m in (1, 2, 6):
        coarse = coarse_from_ensemble(ens, spec, m)
        np.testing.assert_allclose(coarse.values, level, rtol=1e-13)


def test_upscale_single_cell_support():
    spec = medium(num_cells=5)
    ens = ensemble(spec, np.linspace(2.05, 2.95, 7) * spec.cell_width)
    coarse = coarse_from_ensemble(ens, spec, 1)
    assert np.all(coarse.values[2, :] > 0)
    others = np.delete(np.arange(5), 2)
    np.testing.assert_array_equal(coarse.values[others, :], 0.0)


def test_upscale_mass_consistency():
    spec = medium(num_cells=8)
    ens = synthetic_ensemble(spec, seed=9)
    coarse = coarse_from_ensemble(ens, spec, 1)
    cell_volume = spec.cell_width * spec.layer_height
    np.testing.assert_allclose(coarse.values.sum(axis=0) * cell_volume,
                               in_domain_fraction(ens), rtol=1e-12)
    # wider windows: exact as long as the support stays away from both edges
    x = np.random.default_rng(4).uniform(3.0, 5.0, size=(4, 50)) * spec.cell_width
    interior = ensemble(spec, x, times=np.arange(4) * 0.5)
    coarse3 = coarse_from_ensemble(interior, spec, 3)
    np.testing.assert_allclose(coarse3.values.sum(axis=0) * cell_volume,
                               1.0, rtol=1e-12)


def test_upscale_rejects_bad_window():
    spec = medium(num_cells=4)
    ens = synthetic_ensemble(spec)
    with pytest.raises(ConfigurationError):
        coarse_from_ensemble(ens, spec, 0)
    with pytest.raises(ConfigurationError):
        coarse_from_ensemble(ens, spec, 5)


class CellMasses:
    """An ensemble that is only its unit-cell masses, (snapshots x cells)."""

    def __init__(self, spec, mass):
        self.length_x = spec.domain_length
        self.snapshot_times = np.arange(len(mass)) * 0.5
        self.mass = mass

    def unit_cell_mass(self, spec):
        return self.mass


def nan_mass(mass):
    mass[1, 2] = np.nan


def negative_mass(mass):
    # in the last cell, so that every window holding it is negative
    mass[1, 7] = -0.01


def excess_mass(mass):
    mass[1, 5] += 0.5


@pytest.mark.parametrize("corrupt, message", [
    (nan_mass, "non-finite value nan"),
    (negative_mass, "negative value -0.0173"),
    (excess_mass, "retains mass 1.5"),
], ids=["nan", "negative", "excess"])
def test_upscale_checks_the_density_it_builds(corrupt, message):
    spec = medium(num_cells=8)
    mass = np.full((3, 8), 1.0 / 8)
    for m in (1, 3, 8):
        coarse_from_ensemble(CellMasses(spec, mass), spec, m)
    corrupt(mass)
    for m in (1, 3, 8):
        with pytest.raises(NumericalError, match=message):
            coarse_from_ensemble(CellMasses(spec, mass), spec, m)


def test_upscale_rejects_misaligned_grid():
    spec = medium(num_cells=5)
    bad = ensemble(spec, [0.1, 0.2], length_x=1.01 * spec.domain_length)
    with pytest.raises(ConfigurationError):
        coarse_from_ensemble(bad, spec, 1)


def test_extract_btc_traces_owning_cell():
    spec = medium(num_cells=4)
    times = np.arange(5) * 0.5           # 0, 0.5, ..., 2.0
    values = np.arange(20, dtype=float).reshape(4, 5)
    coarse = CoarseDensity(values=values, times=times, cell_width=spec.cell_width)
    (curve,) = extract_btc(coarse, [1.5 * spec.cell_width])
    np.testing.assert_array_equal(curve.times, times[1:])   # t = 0 dropped
    np.testing.assert_array_equal(curve.values, values[1, 1:])
    assert len(curve.times) == 4

    zero_cell = CoarseDensity(values=np.zeros((4, 5)), times=times,
                              cell_width=spec.cell_width)
    (flat,) = extract_btc(zero_cell, [0.2])
    np.testing.assert_array_equal(flat.values, 0.0)

    with pytest.raises(ConfigurationError):
        extract_btc(coarse, [spec.domain_length + 0.1])
    with pytest.raises(ConfigurationError):
        extract_btc(coarse, [0.0])


def test_effective_advection_homogeneous():
    spec = MediumSpec(kappa_matrix=0.8, kappa_inclusion=0.8, cell_width=L1,
                      layer_height=1.0, num_cells=10, head_left=4.0,
                      inclusion_fraction=1.0)
    cell_flow = solve_unit_cell(spec, 16, 16)
    eff = effective_advection(spec, cell_flow)
    assert eff.v_bar_cell == pytest.approx(0.8 / L1, rel=1e-10)
    assert eff.kappa_bar_x == pytest.approx(0.8, rel=1e-10)
    assert eff.v_bar == pytest.approx(4.0 / (10 * 0.8), rel=1e-10)
    assert eff.v_bar_rescaled == pytest.approx((0.8 / L1) * 4.0 / 10, rel=1e-10)


def test_effective_conductivity_within_mixture_bounds():
    spec = medium(num_cells=8)
    cell_flow = solve_unit_cell(spec, 32, 32)
    eff = effective_advection(spec, cell_flow)
    # area fractions of the discrete classification actually solved
    cond = build_conductivity(
        MediumSpec(kappa_matrix=spec.kappa_matrix,
                   kappa_inclusion=spec.kappa_inclusion,
                   cell_width=spec.cell_width, layer_height=spec.layer_height,
                   num_cells=1, head_left=1.0,
                   inclusion_fraction=spec.inclusion_fraction), 32, 32)
    frac_inclusion = np.mean(cond == spec.kappa_inclusion)
    arithmetic = (1 - frac_inclusion) * spec.kappa_matrix + frac_inclusion * spec.kappa_inclusion
    harmonic = 1.0 / ((1 - frac_inclusion) / spec.kappa_matrix
                      + frac_inclusion / spec.kappa_inclusion)
    assert harmonic <= eff.kappa_bar_x <= arithmetic


def test_effective_advection_scales_linearly():
    base = medium(num_cells=8)
    doubled = MediumSpec(kappa_matrix=2.0, kappa_inclusion=0.02, cell_width=L1,
                         layer_height=1.0, num_cells=8, head_left=base.head_left,
                         inclusion_fraction=1.0)
    eff1 = effective_advection(base, solve_unit_cell(base, 24, 24))
    eff2 = effective_advection(doubled, solve_unit_cell(doubled, 24, 24))
    assert eff2.v_bar_cell == pytest.approx(2 * eff1.v_bar_cell, rel=1e-12)
    assert eff2.kappa_bar_x == pytest.approx(2 * eff1.kappa_bar_x, rel=1e-12)


def test_effective_advection_rejects_dead_flow():
    spec = medium()
    dead = solve_unit_cell(spec, 8, 8)
    broken = type(dead)(
        grid_nx=dead.grid_nx, grid_ny=dead.grid_ny, dx=dead.dx, dy=dead.dy,
        face_velocity_x=np.zeros_like(dead.face_velocity_x),
        face_velocity_y=np.zeros_like(dead.face_velocity_y), head=dead.head)
    with pytest.raises(NumericalError):
        effective_advection(spec, broken)


def test_shift_frame_identity_at_zero_speed():
    spec = medium(num_cells=6)
    coarse = coarse_from_ensemble(synthetic_ensemble(spec, seed=5), spec, 2)
    same = shift_frame(coarse, 0.0)
    assert same.values.shape == coarse.values.shape
    assert same.values.tobytes() == coarse.values.tobytes()


def test_data_and_model_share_one_coarse_density():
    # the particle data and a model's solve are one type: either reader of
    # curves, and the moments, take either
    spec = medium(num_cells=8)
    data = coarse_from_ensemble(synthetic_ensemble(spec, seed=3), spec, 3)
    solved = solve_classical(0.05, unit_spike(8, 3), np.arange(6) * 0.5,
                             spec.cell_width)
    assert isinstance(solved, CoarseDensity)
    locations = [0.5 * spec.cell_width, 4.2 * spec.cell_width]
    for coarse in (data, solved):
        for extracted, modelled in zip(extract_btc(coarse, locations),
                                       model_btc(coarse, locations),
                                       strict=True):
            assert extracted.location == modelled.location
            np.testing.assert_array_equal(extracted.times, modelled.times)
            np.testing.assert_array_equal(extracted.values, modelled.values)
        moments = solution_moments(coarse)
        np.testing.assert_array_equal(moments.times, coarse.times)
        np.testing.assert_array_equal(moments.mass, coarse.values.sum(axis=0))


def test_shift_frame_undoes_whole_cell_translation():
    # profile translating by exactly one cell per snapshot: the shifted frame
    # sees a stationary profile, with no interpolation error at all
    width = 0.5
    times = np.arange(4) * 1.0
    base = np.array([0.0, 0.0, 1.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    values = np.stack([np.roll(base, j) for j in range(4)], axis=1)
    coarse = CoarseDensity(values=values, times=times, cell_width=width)
    shifted = shift_frame(coarse, v_bar=width / 1.0)
    for j in range(4):
        np.testing.assert_array_equal(shifted.values[:, j], base)


def test_shift_frame_mass_preserved_for_interior_support():
    width = 0.5
    times = np.arange(5) * 0.3
    centers = (np.arange(40) + 0.5) * width
    values = np.empty((40, 5))
    for j, t in enumerate(times):
        values[:, j] = np.exp(-((centers - (6.0 + 0.37 * t)) / 0.8) ** 2)
    coarse = CoarseDensity(values=values, times=times, cell_width=width)
    shifted = shift_frame(coarse, v_bar=0.37)
    mass_before = coarse.values.sum(axis=0)
    mass_after = shifted.values.sum(axis=0)
    np.testing.assert_allclose(mass_after, mass_before, rtol=1e-9)
    assert np.all(shifted.values >= 0)


def test_shift_frame_rejects_negative_speed():
    spec = medium(num_cells=4)
    coarse = coarse_from_ensemble(synthetic_ensemble(spec), spec, 1)
    with pytest.raises(ConfigurationError):
        shift_frame(coarse, -0.1)


def test_tracked_run_coarse_mass_matches_fine():
    spec = medium(num_cells=6, head_left=0.273 * 6)
    flow = solve_medium(spec, 48, 16)
    cfg = TrackingConfig(injection_cell=2, num_particles=400, dt=0.5, t_end=4.0,
                         rng_seed=17)
    ens = track(flow, inject(flow, cfg, spec.num_cells), cfg)
    coarse = coarse_from_ensemble(ens, spec, 1)
    cell_volume = spec.cell_width * spec.layer_height
    np.testing.assert_allclose(coarse.values.sum(axis=0) * cell_volume,
                               in_domain_fraction(ens), rtol=1e-12, atol=1e-15)


def test_btc_dataset_round_trip(tmp_path):
    times = np.arange(1, 6) * 0.2
    curves = [
        BreakthroughCurve(location=2.0, times=times, values=np.linspace(0, 1, 5)),
        BreakthroughCurve(location=0.7, times=times,
                          values=np.array([0.0, 0.1, 0.5, 0.2, 0.05])),
    ]
    meta = {"seed": 11, "smoothing_cells": 4, "frame_speed": 0.123,
            "value_scale": L1 * 1.0}
    path = tmp_path / "btc.csv"
    save_btc_dataset(path, curves, metadata=meta)
    loaded, meta_back = load_btc_dataset(path)
    assert meta_back == meta
    assert [c.location for c in loaded] == [0.7, 2.0]   # sorted by location
    np.testing.assert_array_equal(loaded[1].times, times)
    np.testing.assert_array_equal(loaded[1].values, np.linspace(0, 1, 5))
    np.testing.assert_array_equal(loaded[0].values,
                                  np.array([0.0, 0.1, 0.5, 0.2, 0.05]))


def test_btc_dataset_missing_sidecar(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("location,t,value\n1.0,0.1,0.5\n")
    with pytest.raises(ArtifactError):
        load_btc_dataset(path)


def format_cell(value) -> str:
    """The table cell text the pipeline has always written."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def test_write_table_cells_keep_their_text(tmp_path):
    cells = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1,
             np.float64(0.1), np.float64(-0.0), np.float64(1e16),
             np.float64(5e-324), np.float64(math.nan), np.float64(1.0 / 3.0),
             np.int64(7), np.int64(-3), np.bool_(True), np.bool_(False),
             True, False, 12, "probe"]
    header = [f"c{k}" for k in range(len(cells))]
    path = tmp_path / "cells.csv"
    write_table(path, header, [cells, cells[::-1]], ["# comment"])
    expected = "\n".join(["# comment", ",".join(header),
                          ",".join(map(format_cell, cells)),
                          ",".join(map(format_cell, cells[::-1]))]) + "\n"
    assert path.read_text() == expected
