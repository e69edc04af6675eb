"""Parameter-space scans and Heisenberg-limit searches.

grid_scan samples the Cramer-Rao bound of a cat state on a square
(theta1, theta2) grid at fixed phases, keeping the raw extended-real
values alongside overflow and degenerate masks so plots and CSV exports
can cap divergences without losing information. The grid goes through
the batched kernel cat_crb_batch a block of rows at a time.

find_hl searches the full four-angle space for points whose bound reaches
the Heisenberg limit 1/(2j): deterministic coarse seeding followed by
cyclic coordinate descent with golden-section line minimization. The seed
grid is one cat_crb_batch call, and all seeds are polished in lockstep:
each golden-section step is one cat_crb_batch call holding the next point
of every seed still searching. The golden-section state is kept only for
the seeds still searching and updated with np.where, so the search costs
little beyond its kernel calls. Each seed takes exactly the steps it would
take searched on its own, so the search is exact-arithmetic
deterministic: same spec, same result.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

# CatParams, CoherentParams and cat_crb are not called here any more; they
# stay importable from this module because bench/spans.py rebinds them
from .catstate import CatParams  # noqa: F401
from .coherent import CoherentParams, check_phi  # noqa: F401
from .dicke import SpinJ
from .metrology import Generator, batch_cells, cat_crb, cat_crb_batch  # noqa: F401

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
# pi/8, phi1 at 4 and phi2 at 8 steps of pi/4; no search can polish more
# starts than the grid has, so larger seed counts are refused
MAX_SEEDS = 9 * 9 * 4 * 8


class NoHlFoundError(RuntimeError):
    """No Heisenberg-limit point found within the requested tolerance."""


def check_resolution(resolution) -> int:
    """resolution, or ValueError unless it is an int in [2, MAX_RESOLUTION]."""
    if not isinstance(resolution, int) or not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(
            f"resolution must be an integer in [2, {MAX_RESOLUTION}], got {resolution!r}"
        )
    return resolution


def check_cap(cap) -> float:
    """cap as a float; ValueError unless it is positive and finite."""
    value = float(cap)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError("cap must be a positive finite float")
    return value


def check_tolerance(tolerance) -> float:
    """tolerance as a float; ValueError unless it lies in (0, 0.1]."""
    value = float(tolerance)
    if not 0.0 < value <= 0.1:
        raise ValueError("tolerance must lie in (0, 0.1]")
    return value


def check_seeds(seeds) -> int:
    """seeds, or ValueError unless it is an int, not a bool, in [1, MAX_SEEDS]."""
    if not isinstance(seeds, int) or isinstance(seeds, bool) or seeds < 1:
        raise ValueError("seeds must be a positive integer")
    if seeds > MAX_SEEDS:
        raise ValueError(
            f"seeds must be at most {MAX_SEEDS}, the points of the seed grid, got {seeds}"
        )
    return seeds


@dataclass(frozen=True)
class ScanSpec:
    """A (theta1, theta2) grid at fixed phases.

    theta axes run over [0, pi] with resolution points: theta_a = a*pi/(res-1),
    2 <= resolution <= MAX_RESOLUTION.
    cap is the plotting/CSV ceiling; raw values are kept uncapped.
    phi1, phi2 and cap are stored as the floats they are validated as.
    """

    j: SpinJ
    generator: Generator
    phi1: float
    phi2: float
    resolution: int = DEFAULT_RESOLUTION
    cap: float = DEFAULT_CAP

    def __post_init__(self):
        if not isinstance(self.j, SpinJ):
            raise TypeError("j must be a SpinJ")
        if not isinstance(self.generator, Generator):
            raise TypeError("generator must be a Generator")
        for name in ("phi1", "phi2"):
            object.__setattr__(self, name, check_phi(getattr(self, name), name))
        check_resolution(self.resolution)
        object.__setattr__(self, "cap", check_cap(self.cap))

    def theta_axis(self) -> np.ndarray:
        n = self.resolution
        return np.array([math.pi * (a / (n - 1)) for a in range(n)])


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

    def capped(self) -> np.ndarray:
        """values with overflow cells clamped to spec.cap (nan kept)."""
        out = self.values.copy()
        out[self.overflow] = self.spec.cap
        return out

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


def grid_scan(spec: ScanSpec) -> GridResult:
    """Evaluate the bound on the spec's grid with cat_crb_batch.

    Rows go to the kernel in blocks of about one kernel chunk, so no
    temporary grows with resolution**2. Every cell is computed from its
    own angles alone: block and chunk sizes do not change any value.
    """
    n = spec.resolution
    theta = spec.theta_axis()
    values = np.empty((n, n))
    degenerate = np.empty((n, n), dtype=bool)
    rows = max(1, batch_cells(spec.j) // n)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        _, values[block], degenerate[block] = cat_crb_batch(
            spec.j, spec.generator, theta[block, None], theta, spec.phi1, spec.phi2
        )
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

    tolerance is the relative acceptance slack (crb <= (1/(2j))(1+tol)),
    stored as a float;
    seeds is how many coarse-grid starts are polished, 1 <= seeds <=
    MAX_SEEDS. Grid points with no finite bound are never started from,
    so fewer may be polished.
    """

    j: SpinJ
    generator: Generator
    tolerance: float = 1e-3
    seeds: int = 16

    def __post_init__(self):
        if not isinstance(self.j, SpinJ):
            raise TypeError("j must be a SpinJ")
        if not isinstance(self.generator, Generator):
            raise TypeError("generator must be a Generator")
        object.__setattr__(self, "tolerance", check_tolerance(self.tolerance))
        check_seeds(self.seeds)

    @property
    def target(self) -> float:
        return 1.0 / (2.0 * self.j.j)


@dataclass(frozen=True)
class HlPoint:
    theta1: float
    theta2: float
    phi1: float
    phi2: float
    crb: float


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# full angle box; the seed grid needs half the phi1 range because shifting
# both phases by pi, a rotation by pi about z, maps (Jx, Jy, Jz) to
# (-Jx, -Jy, Jz) and F(-G) = F(G); other common shifts keep F under Jz only
_BOUNDS = ((0.0, math.pi), (0.0, math.pi), (0.0, 2 * math.pi), (0.0, 2 * math.pi))


def _objective(j: SpinJ, g: Generator, points: np.ndarray) -> np.ndarray:
    """Bound at each row (theta1, theta2, phi1, phi2) of points; inf where
    the cat is degenerate, so the search steps away from it.

    Angles outside the CoherentParams domain raise ValueError.
    """
    _, crb, degenerate = cat_crb_batch(j, g, *points.T)
    return np.where(degenerate, math.inf, crb)


def _golden_min(line, n: int, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section minima of n line objectives on [lo, hi], in lockstep.

    line(v, rows) returns the objective of each listed row at its abscissa
    in v. Every row keeps its own bracket and stops once it is no wider
    than tol; each step makes one line call holding the next point of every
    row still running. A row's arithmetic is that of a search on its own,
    so it takes the same steps whichever rows share its calls.

    The bracket state (a, b, c, d, fc, fd) is held only for the rows still
    running, and each step updates all of it with np.where; a row's result
    is written out when its bracket closes, and the state is compacted.
    -> (argmin, min) arrays of length n.
    """
    xmin = np.empty(n)
    fmin = np.empty(n)
    rows = np.arange(n)
    a = np.full(n, lo)
    b = np.full(n, hi)
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    both = line(np.concatenate([c, d]), np.concatenate([rows, rows]))
    fc, fd = both[:n], both[n:]
    while rows.size:
        if np.minimum.reduce(h) <= tol:
            closed = h <= tol
            lower = fc < fd
            xmin[rows[closed]] = np.where(lower, c, d)[closed]
            fmin[rows[closed]] = np.where(lower, fc, fd)[closed]
            run = ~closed
            rows, a, b, c, d, fc, fd = (v[run] for v in (rows, a, b, c, d, fc, fd))
            if not rows.size:
                break
        # left: the minimum is bracketed by [a, d]; right: by [c, b]
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = b - a
        step = _INVPHI * h
        new = np.where(left, b - step, a + step)
        vals = line(new, rows)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, vals, fd), np.where(left, fc, vals)
    return xmin, fmin


def _polish(f, starts, max_sweeps: int = 40):
    """Cyclic coordinate descent from every start at once.

    f maps an (m, 4) array of points to m objective values. A row stops
    sweeping after the first sweep that improves it by less than 1e-13.
    -> (x, best): the polished points and their objective values.
    """
    x = np.array(starts, dtype=float)
    best = f(x)
    live = np.arange(len(x))
    for _ in range(max_sweeps):
        before = best[live]
        for k, (lo, hi) in enumerate(_BOUNDS):
            base = x[live]

            def line(v, rows):
                trial = base[rows]
                trial[:, k] = v
                return f(trial)

            v, fv = _golden_min(line, live.size, lo, hi)
            better = fv < best[live]
            x[live[better], k] = v[better]
            best[live[better]] = fv[better]
        live = live[~(before - best[live] < 1e-13)]
        if not live.size:
            break
    return x, best


def _seed_starts(f, seeds: int) -> np.ndarray:
    """The seeds best finite points of the coarse grid, ranked by
    (value, theta1, theta2, phi1, phi2)."""
    thetas = math.pi * np.arange(9) / 8
    phis = math.pi * np.arange(8) / 4
    grid = np.stack(
        np.meshgrid(thetas, thetas, phis[:4], phis, indexing="ij"), axis=-1
    ).reshape(-1, 4)
    vals = f(grid)
    keep = np.isfinite(vals)
    grid, vals = grid[keep], vals[keep]
    order = np.lexsort((grid[:, 3], grid[:, 2], grid[:, 1], grid[:, 0], vals))
    return grid[order[:seeds]]


def find_hl(spec: HlSearchSpec) -> list[HlPoint]:
    """Locate Heisenberg-limit points for the given spin and generator.

    The MAX_SEEDS-point seed grid is evaluated in one batch and the best
    spec.seeds points are polished together, every objective evaluation
    going through cat_crb_batch. Returns accepted points sorted by
    (crb, theta1, theta2, phi1, phi2); raises NoHlFoundError when no
    polished seed reaches the target within the acceptance slack.
    """
    objective = functools.partial(_objective, spec.j, spec.generator)
    accept = spec.target * (1.0 + spec.tolerance)
    found: dict[tuple, HlPoint] = {}
    xs, vals = _polish(objective, _seed_starts(objective, spec.seeds))
    for x, val in zip(xs.tolist(), vals.tolist()):
        if val <= accept:
            key = tuple(round(v, 9) for v in x)
            pt = HlPoint(x[0], x[1], x[2], x[3], val)
            old = found.get(key)
            if old is None or pt.crb < old.crb:
                found[key] = pt
    if not found:
        raise NoHlFoundError(
            f"no point reached crb <= {accept:.6g} for j={spec.j}, "
            f"generator {spec.generator.name}"
        )
    return sorted(
        found.values(), key=lambda p: (p.crb, p.theta1, p.theta2, p.phi1, p.phi2)
    )
