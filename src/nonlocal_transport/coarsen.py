"""Upscaling of particle densities to one coarse value per unit cell.

This module also owns the on-disk table format: every CSV artifact is written
by :func:`write_table` and parsed by :func:`read_table`, every JSON artifact
is written by :func:`write_json`.

The coarse profile at cell i is a forward-window average over ``m`` unit
cells starting at i, normalized by the window volume; near the right edge the
window is clipped to the cells that exist and the normalization shrinks with
it, so constants are preserved everywhere.  Breakthrough curves are time
traces of single coarse cells, and the moving-frame transform re-samples the
profile at x + v*t so that training data can be treated as advection-free.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .darcy import FlowField, cell_center_velocity
from .errors import ArtifactError, ConfigurationError, NumericalError
from .medium import MediumSpec, check_cell, probe_cells


@dataclass(frozen=True)
class CoarseDensity:
    """Density on unit cells over time: the window-averaged particle data,
    or a model's solve (whose exterior collar is zero)."""

    values: np.ndarray          # (num_cells, n_times)
    times: np.ndarray
    cell_width: float

    @property
    def num_cells(self) -> int:
        return self.values.shape[0]

    @property
    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.num_cells) + 0.5) * self.cell_width


@dataclass(frozen=True)
class BreakthroughCurve:
    """Concentration history at a fixed location (its owning coarse cell)."""

    location: float
    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class EffectiveAdvection:
    """Homogenized advection derived from the unit-cell flow.

    v_bar_cell is the unit-cell speed at unit head drop; kappa_bar_x the
    effective conductivity.  v_bar keeps the verbatim head-over-conductivity
    closure for reference, while v_bar_rescaled restores the dimensionally
    consistent scaling of the cell speed by the actual per-cell head drop;
    pipelines that need the physical drift should prefer the measured
    ensemble slope (see ``linear_slope`` on the mean displacement).
    """

    v_bar_cell: float
    kappa_bar_x: float
    v_bar: float
    v_bar_rescaled: float


def coarse_from_ensemble(ensemble, spec: MediumSpec, m: int) -> CoarseDensity:
    """Average the particle mass over forward windows of ``m`` unit cells.

    The ensemble's snapshots were binned into the unit cells of ``spec`` by
    x position as they were tracked, each particle carrying mass
    1/num_particles; those that have exited by a snapshot are left out of
    it, stagnant ones count where they stalled.  The value at cell i is the
    mass in cells i..i+m-1 divided by the window volume m*l1*l2; windows
    extending past the last cell are clipped and the volume adjusted
    accordingly.  A non-finite or negative density raises NumericalError,
    as does more than the injected unit mass in the tiling windows at cells
    0, m, 2m, ...
    """
    n_cells = spec.num_cells
    check_cell(m, n_cells, "smoothing window")
    if abs(ensemble.length_x - spec.domain_length) > 1e-9 * spec.domain_length:
        raise ConfigurationError("ensemble does not cover the medium domain")
    cell_mass = ensemble.unit_cell_mass(spec)
    n_snap = cell_mass.shape[0]
    cum = np.concatenate(
        [np.zeros((n_snap, 1)), np.cumsum(cell_mass, axis=1)], axis=1)
    idx = np.arange(n_cells)
    win = np.minimum(m, n_cells - idx)
    window_mass = cum[:, idx + win] - cum[:, idx]
    volume = win * spec.cell_width * spec.layer_height
    values = (window_mass / volume).T
    low = values.min()
    if not np.isfinite(low):
        raise NumericalError(f"coarse density has non-finite value {low:.3g}")
    if not low >= 0.0:
        raise NumericalError(f"coarse density has negative value {low:.3g}")
    tiled = window_mass[:, ::m].sum(axis=1)
    if not tiled.max() <= 1.0 + 1e-12:
        raise NumericalError(
            f"coarse density retains mass {tiled.max():.17g}, above the "
            "injected unit mass")
    return CoarseDensity(values=values, times=ensemble.snapshot_times.copy(),
                         cell_width=spec.cell_width)


def extract_btc(coarse: CoarseDensity, locations) -> list[BreakthroughCurve]:
    """Time trace of the coarse cell owning each location.

    The injection instant t = 0 carries no breakthrough information and is
    dropped, so a run recorded at 0, dt, ..., T yields T/dt samples.
    """
    return cell_traces(coarse.values, coarse.times, coarse.cell_width,
                       locations)


def cell_traces(values, times, cell_width, locations) -> list[BreakthroughCurve]:
    """Rows of a (cells, times) array owning each location, without t = 0."""
    locations = np.atleast_1d(np.asarray(locations, dtype=float))
    cells = probe_cells(locations, cell_width, values.shape[0])
    keep = times > 0.0
    return [BreakthroughCurve(location=float(x), times=times[keep].copy(),
                              values=values[cell, keep].copy())
            for x, cell in zip(locations, cells)]


def effective_advection(spec: MediumSpec, cell_flow: FlowField) -> EffectiveAdvection:
    """Homogenize the unit-cell flow into a single advection speed.

    The cell speed is the harmonic x-average, weighted by column flux, of the
    per-column arithmetic average of vx weighted by the local speed; the
    effective conductivity follows as speed times cell width.
    """
    vx, vy = cell_center_velocity(cell_flow)
    speed = np.hypot(vx, vy)
    col_weight = speed.sum(axis=1)                 # ~ integral of |v| dy
    col_flux = (vx * speed).sum(axis=1)            # ~ integral of vx |v| dy
    if np.any(col_weight <= 0.0) or np.any(col_flux <= 0.0):
        raise NumericalError("degenerate unit-cell flow: a column carries no flux")
    col_mean_vx = col_flux / col_weight
    v_bar_cell = float(col_weight.sum() / (col_weight / col_mean_vx).sum())
    kappa_bar_x = v_bar_cell * spec.cell_width
    v_bar = spec.head_left / (spec.num_cells * kappa_bar_x)
    v_bar_rescaled = v_bar_cell * spec.head_left / spec.num_cells
    return EffectiveAdvection(v_bar_cell=v_bar_cell, kappa_bar_x=kappa_bar_x,
                              v_bar=v_bar, v_bar_rescaled=v_bar_rescaled)


def shift_frame(coarse: CoarseDensity, v_bar: float) -> CoarseDensity:
    """Re-sample the coarse profile in the frame moving at ``v_bar``.

    The shifted profile at coordinate x is the original at x + v_bar*t,
    linearly interpolated between cell centers and zero outside them, so a
    rigidly advected profile becomes stationary.
    """
    if v_bar < 0:
        raise ConfigurationError("frame speed must be nonnegative")
    centers = coarse.cell_centers
    shifted = np.empty_like(coarse.values)
    for j, t in enumerate(coarse.times):
        shifted[:, j] = np.interp(centers + v_bar * t, centers,
                                  coarse.values[:, j], left=0.0, right=0.0)
    return CoarseDensity(values=shifted, times=coarse.times.copy(),
                         cell_width=coarse.cell_width)


def write_table(path, header, rows, comments=()) -> None:
    """Write ``#`` comment lines, a header and rows, every line ending in \\n.

    Cells are written as the csv module writes them: floats (numpy's
    included) in their shortest round-trip form, integers in decimal,
    booleans as ``True``/``False``.
    """
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, comments=None) -> list[dict]:
    """Rows of a table written by :func:`write_table`; its comment lines go
    into the list ``comments`` if one is given."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    if comments is not None:
        comments += [line for line in lines if line.startswith("#")]
    return list(csv.DictReader(line for line in lines
                               if not line.startswith("#")))


def write_json(path, record: dict) -> None:
    """Write ``record`` as indented, key-sorted JSON ending in a newline."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_btc_dataset(path, curves, *, metadata: dict, comments=()) -> None:
    """Write curves as (location, t, value) CSV plus a JSON sidecar.

    Curves are ordered by location so files are reproducible regardless of
    how the caller assembled the list; the sidecar carries the provenance
    (medium, smoothing, frame speed, seed, scaling) needed to regenerate or
    interpret the data.
    """
    path = Path(path)
    curves = sorted(curves, key=lambda c: c.location)
    write_table(path, ["location", "t", "value"],
                ((curve.location, t, v) for curve in curves
                 for t, v in zip(curve.times, curve.values)), comments)
    write_json(path.with_suffix(path.suffix + ".json"), metadata)


def load_btc_dataset(path) -> tuple[list[BreakthroughCurve], dict]:
    """Read a dataset written by :func:`save_btc_dataset`."""
    path = Path(path)
    by_location: dict[float, list[tuple[float, float]]] = {}
    for row in read_table(path):
        by_location.setdefault(float(row["location"]), []).append(
            (float(row["t"]), float(row["value"])))
    # each location's (t, value) samples in time order, as two arrays
    curves = [BreakthroughCurve(loc, *map(np.array, zip(*sorted(samples))))
              for loc, samples in sorted(by_location.items())]
    sidecar = path.with_suffix(path.suffix + ".json")
    if not sidecar.exists():
        raise ArtifactError(f"missing dataset sidecar {sidecar}")
    try:
        metadata = json.loads(sidecar.read_text())
    except ValueError as exc:
        raise ValueError(f"sidecar {sidecar.name}: {exc}") from exc
    if not isinstance(metadata, dict):
        raise ValueError(f"sidecar {sidecar.name} holds no JSON object")
    return curves, metadata
