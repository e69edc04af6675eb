"""Parameter-space scans and Heisenberg-limit searches.

Where each part lives:

- grid_scan: the bound on a (theta1, theta2) grid at fixed phases, with
  overflow and degenerate masks; _grid_bounds: the grid evaluator it
  shares with closedform's sweep_family, on axes from _axis.
- find_hl: the search for points whose bound reaches the Heisenberg limit
  1/(2j). _seed_grid and _seed_starts rank the cats of a coarse grid that
  holds the limit, in one kernel call through _objective to
  metrology._cat_crb_pairs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from ._checks import instance, integer, real
# CatParams, CoherentParams and cat_crb are not called here any more; they
# stay importable from this module because bench/spans.py rebinds them
from .catstate import CatParams  # noqa: F401
from .coherent import CoherentParams  # noqa: F401
from .dicke import SpinJ
from .metrology import Generator, _cat_crb_pairs, batch_cells, cat_crb, cat_crb_batch  # noqa: F401

__all__ = [
    "MAX_RESOLUTION",
    "MAX_SEEDS",
    "ScanSpec",
    "GridResult",
    "grid_scan",
    "HlSearchSpec",
    "HlPoint",
    "NoHlFoundError",
    "find_hl",
]

DEFAULT_RESOLUTION = 201
DEFAULT_CAP = 20.0

# largest points per axis of a scan or a closed-form sweep; 2001^2 cells
# take seconds, and anything larger is refused before it is computed
MAX_RESOLUTION = 2001

# points of find_hl's coarse seed grid: theta1 and theta2 at 9 steps of
# pi/8, phi1 at 4 and phi2 at 8 steps of pi/4; no search can test more
# cats than the grid has, so larger seed counts are refused
MAX_SEEDS = 9 * 9 * 4 * 8


class NoHlFoundError(RuntimeError):
    """No Heisenberg-limit point found within the requested tolerance."""


def check_resolution(resolution) -> int:
    """resolution, an integer argument, as an int in [2, MAX_RESOLUTION]."""
    rule = f"resolution must be an integer in [2, {MAX_RESOLUTION}], got {resolution!r}"
    value = integer(resolution, "resolution", rule)
    if not 2 <= value <= MAX_RESOLUTION:
        raise ValueError(rule)
    return value


def check_cap(cap) -> float:
    """cap, a real argument, as a positive float."""
    rule = "cap must be a positive finite float"
    value = real(cap, "cap", rule)
    if value <= 0.0:
        raise ValueError(rule)
    return value


def check_tolerance(tolerance) -> float:
    """tolerance, a real argument, as a float in (0, 0.1]."""
    rule = "tolerance must lie in (0, 0.1]"
    value = real(tolerance, "tolerance", rule)
    if not 0.0 < value <= 0.1:
        raise ValueError(rule)
    return value


def check_seeds(seeds) -> int:
    """seeds, an integer argument, as an int in [1, MAX_SEEDS]."""
    value = integer(seeds, "seeds", "seeds must be a positive integer")
    if value < 1:
        raise ValueError("seeds must be a positive integer")
    if value > MAX_SEEDS:
        raise ValueError(
            f"seeds must be at most {MAX_SEEDS}, the points of the seed grid, got {value}"
        )
    return value


@dataclass(frozen=True)
class ScanSpec:
    """A (theta1, theta2) grid at fixed phases.

    theta axes run over [0, pi] with resolution points: theta_a = a*pi/(res-1),
    2 <= resolution <= MAX_RESOLUTION.
    cap is the plotting/CSV ceiling; raw values are kept uncapped.
    j must be a SpinJ and generator a Generator; phi1, phi2 and cap (real
    arguments) are stored as floats, resolution (an integer one) as an int.
    """

    j: SpinJ
    generator: Generator
    phi1: float
    phi2: float
    resolution: int = DEFAULT_RESOLUTION
    cap: float = DEFAULT_CAP

    def __post_init__(self):
        instance(self.j, SpinJ, "j")
        instance(self.generator, Generator, "generator")
        for name in ("phi1", "phi2"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        object.__setattr__(self, "resolution", check_resolution(self.resolution))
        object.__setattr__(self, "cap", check_cap(self.cap))

    def theta_axis(self) -> np.ndarray:
        """resolution evenly spaced theta values from 0 to pi, both ends in."""
        return _axis(0.0, math.pi, self.resolution)


@dataclass(frozen=True)
class GridResult:
    """Raw scan output.

    values[i, j] is the bound at theta1 = theta[i], theta2 = theta[j]
    (inf where divergent, nan where the cat is degenerate). overflow marks
    cells whose value exceeds spec.cap; degenerate marks undefined cells.
    """

    spec: ScanSpec
    theta: np.ndarray
    values: np.ndarray
    overflow: np.ndarray
    degenerate: np.ndarray

    def min_point(self) -> tuple[float, float, float]:
        """(crb, theta1, theta2) of the smallest defined cell, row-major ties."""
        masked = np.where(self.degenerate, np.inf, self.values)
        flat = int(np.argmin(masked))
        i, k = divmod(flat, self.spec.resolution)
        return float(masked[i, k]), float(self.theta[i]), float(self.theta[k])

    def to_csv(self, stream: IO[str]) -> None:
        """Row-major rows of `theta1,theta2,crb,overflow,degenerate`.

        Overflow cells report crb = cap with overflow = 1; degenerate cells
        report crb = nan with degenerate = 1. Floats use %.12g.

        Each column's cell text is built once in its three forms: finite,
        with a %.12g slot for the value, overflow and degenerate. A grid
        row picks the form of each cell, joins them behind its theta1 head
        and fills all its finite values with one % on a tuple; each row is
        one write, so no text grows with the whole grid.
        """
        stream.write("theta1,theta2,crb,overflow,degenerate\n")
        labels = ["%.12g" % t for t in self.theta.tolist()]
        cap = "%.12g" % self.spec.cap
        n = len(labels)
        # forms[kind * n + column], kind 0 finite, 1 overflow, 2 degenerate
        forms = np.array(
            [f"{t2},%.12g,0,0\n" for t2 in labels]
            + [f"{t2},{cap},1,0\n" for t2 in labels]
            + [f"{t2},nan,0,1\n" for t2 in labels],
            dtype=object,
        )
        # built in place in the smallest type that holds 3n, so the grid of
        # indices costs less memory than the grid of values
        index = self.overflow.astype(np.min_scalar_type(3 * n))
        index[self.degenerate] = 2
        index *= n
        index += np.arange(n, dtype=index.dtype)
        for t1, cells, values in zip(labels, index, self.values):
            head = t1 + ","
            row = head + head.join(forms[cells].tolist())
            stream.write(row % tuple(values[cells < n].tolist()))


def _axis(lo: float, hi: float, n: int, part: slice = slice(None)) -> np.ndarray:
    """The points lo + (hi - lo) * (i / (n - 1)) for i in range(n)[part],
    each the same bits whatever the slice part."""
    return lo + (hi - lo) * (np.arange(*part.indices(n)) / (n - 1))


def _grid_bounds(j: SpinJ, g: Generator, angles, rows: tuple[float, float, int], cols: np.ndarray):
    """Yield (block, crb, degenerate) for each block of about one kernel
    chunk of the rows of the grid _axis(*rows) x cols, rows = (lo, hi, n):
    block is the slice of those rows, and crb[i, k], read-only, the bound
    of the cat at angles(x[i], cols[k]), x = _axis(*rows, block), inf where
    it diverges and nan where the cat is degenerate.

    angles(x, y) maps a column x of row points and the row y = cols
    elementwise to (theta1, theta2, phi1, phi2), each broadcasting to
    (len(x), len(y)). Each block is one cat_crb_batch call, so a component
    of one axis alone is expanded once per point of it; its row points are
    made block by block, so nothing here grows with the rows, and no value
    depends on the block size.
    """
    n = rows[2]
    step = max(1, batch_cells(j) // len(cols))
    for lo in range(0, n, step):
        block = slice(lo, min(lo + step, n))
        x = _axis(*rows, block)
        _, crb, degenerate = cat_crb_batch(j, g, *angles(x[:, None], cols))
        shape = (len(x), len(cols))
        yield block, np.broadcast_to(crb, shape), np.broadcast_to(degenerate, shape)


def grid_scan(spec: ScanSpec) -> GridResult:
    """Evaluate the bound on the spec's grid with _grid_bounds; no temporary
    grows with resolution**2. A spec of another type raises TypeError."""
    instance(spec, ScanSpec, "spec")
    theta = spec.theta_axis()
    values = np.empty((len(theta), len(theta)))
    degenerate = np.empty(values.shape, dtype=bool)
    blocks = _grid_bounds(
        spec.j,
        spec.generator,
        lambda t1, t2: (t1, t2, spec.phi1, spec.phi2),
        (0.0, math.pi, len(theta)),
        theta,
    )
    for block, crb, flags in blocks:
        values[block], degenerate[block] = crb, flags
    with np.errstate(invalid="ignore"):
        overflow = ~degenerate & (values > spec.cap)
    for arr in (theta, values, overflow, degenerate):
        arr.flags.writeable = False
    return GridResult(spec, theta, values, overflow, degenerate)


# ---------------------------------------------------------------------------
# Heisenberg-limit search

@dataclass(frozen=True)
class HlSearchSpec:
    """Search request: find cat angles whose bound reaches 1/(2j).

    j must be a SpinJ and generator a Generator. tolerance is the relative
    acceptance slack (crb <= (1/(2j))(1+tol)), a real argument stored as a
    float; seeds, an integer argument stored as an int, is how many of the
    coarse grid's best cats are tested, 1 <= seeds <= MAX_SEEDS. Grid cats
    with no finite bound are never tested, so fewer may be.
    """

    j: SpinJ
    generator: Generator
    tolerance: float = 1e-3
    seeds: int = 16

    def __post_init__(self):
        instance(self.j, SpinJ, "j")
        instance(self.generator, Generator, "generator")
        object.__setattr__(self, "tolerance", check_tolerance(self.tolerance))
        object.__setattr__(self, "seeds", check_seeds(self.seeds))

    @property
    def target(self) -> float:
        """The Heisenberg limit 1/(2j) the search compares bounds with."""
        return 1.0 / (2.0 * self.j.j)


@dataclass(frozen=True)
class HlPoint:
    """One point find_hl accepts: cat angles in the CoherentParams domain,
    theta in [0, pi] and phi reduced modulo 2 pi, whose bound crb is at
    most target (1 + tolerance) of the HlSearchSpec searched."""

    theta1: float
    theta2: float
    phi1: float
    phi2: float
    crb: float


def _objective(j: SpinJ, g: Generator, points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Bound at each cat, inf where the cat is degenerate, so the search
    never ranks it.

    points is an (m, 2) table of component points (theta, phi), and the
    cat of each row of the (n, 2) integer array pairs is the two points it
    names, which _cat_crb_pairs evaluates with the table expanded once.
    Angles outside the CoherentParams domain raise ValueError.
    """
    _, crb, degenerate = _cat_crb_pairs(j, g, points[:, 0], points[:, 1], pairs[:, 0], pairs[:, 1])
    return np.where(degenerate, math.inf, crb)


@functools.cache
def _seed_grid() -> tuple[np.ndarray, ...]:
    """-> (points, pairs, cats, grid), built on first use and read-only.

    The coarse grid's cats (theta1, theta2, phi1, phi2), grid, MAX_SEEDS
    rows in row-major order over theta1 and theta2 at 9 steps of pi/8,
    phi1 at 4 and phi2 at 8 steps of pi/4. Their components are 72 points
    (theta, phi), 9 thetas by 8 phis. The cats (a, b) and (b, a) give the
    same bits (see _cat_crb_pairs), so pairs holds each unordered pair of
    points the grid uses once, 1,962 of them, and cats the row of pairs
    of each cat of grid.
    """
    thetas = _axis(0.0, math.pi, 9)
    phis = _axis(0.0, 2 * math.pi, 9)[:8]
    points = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
    index = np.arange(len(points)).reshape(9, 8)
    a, b = (c.reshape(-1) for c in np.broadcast_arrays(index[:, None, :4, None], index[None, :, None, :]))
    # each pair in the order (lower index, higher), numbered in sorted order
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pairs, cats = np.unique(np.stack([lo, hi], axis=1), axis=0, return_inverse=True)
    grid = points[np.stack([a, b], axis=1)].transpose(0, 2, 1).reshape(-1, 4)
    for arr in (points, pairs, cats, grid):
        arr.flags.writeable = False
    return points, pairs, cats, grid


def _seed_starts(objective, seeds: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeds best finite cats of the coarse grid, ranked by
    (value, theta1, theta2, phi1, phi2) -> (cats, values).

    The grid needs half the phi1 range: shifting both phases by pi, a
    rotation by pi about z, maps (Jx, Jy, Jz) to (-Jx, -Jy, Jz), and
    F(-G) = F(G).

    objective(points, pairs) gives the bound at the cats of index pairs
    into a table of component points, as _objective does. It gets the
    grid as _seed_grid's 72 points and 1,962 pairs, and each cat of the
    grid reads its pair's value, which is the flat grid's, bit for bit.
    The grid's rows are in lexicographic order, so a stable sort by value
    ranks them.
    """
    points, pairs, cats, grid = _seed_grid()
    vals = objective(points, pairs)[cats]
    keep = np.isfinite(vals)
    grid, vals = grid[keep], vals[keep]
    order = np.argsort(vals, kind="stable")[:seeds]
    return grid[order], vals[order]


def find_hl(spec: HlSearchSpec) -> list[HlPoint]:
    """Locate Heisenberg-limit points for the given spin and generator.

    The best spec.seeds finite cats of the coarse grid (_seed_starts) are
    tested, and those with crb <= target (1 + tolerance) are returned, in
    _seed_starts' order (crb, theta1, theta2, phi1, phi2); each crb is
    the one cat_crb_batch gives at its grid cat, bit for bit. Raises
    NoHlFoundError when no tested cat is accepted, and TypeError for a
    spec of another type.

    The grid holds the limit. For Jx, Jy and Jz it has a cat at 1/(2j)
    at every 2j, by README's conditions ("When a cat reaches the limit").
    Components at the opposite poles of G's axis make the GHZ state along
    G at any 2j, and those poles are nodes with phi1 in the grid's half
    [0, pi): theta 0 and pi under Jz, (pi/2, 0) and (pi/2, pi) under Jx,
    (pi/2, pi/2) and (pi/2, 3 pi/2) under Jy. At 2j >= 3 these are the
    only limit cats. At 2j = 2 the antipodal pairs theta2 = pi - theta1,
    phi2 = phi1 + pi, with phi1 = 0 under Jx and pi/2 under Jy, are nodes
    too, and at 2j = 1 so are cats whose Bloch vector is orthogonal to G's
    axis. The kernel's bound at those nodes is within 2.2e-16 relative of
    the limit, so the first point reported lies at it; a tolerance below
    that roundoff can accept none.
    """
    instance(spec, HlSearchSpec, "spec")
    objective = functools.partial(_objective, spec.j, spec.generator)
    accept = spec.target * (1.0 + spec.tolerance)
    cats, values = _seed_starts(objective, spec.seeds)
    accepted = values <= accept
    if not accepted.any():
        raise NoHlFoundError(
            f"no point reached crb <= {accept:.6g} for j={spec.j}, "
            f"generator {spec.generator.name}"
        )
    return [HlPoint(*cat, crb) for cat, crb in zip(cats[accepted].tolist(), values[accepted].tolist())]
