"""Parameter-space scans and Heisenberg-limit searches.

grid_scan samples the Cramer-Rao bound of a cat state on a square
(theta1, theta2) grid at fixed phases, keeping the raw extended-real
values alongside overflow and degenerate masks so plots and CSV exports
can cap divergences without losing information. The grid goes through
the batched kernel cat_crb_batch a block of rows at a time.

find_hl searches the full four-angle space for points whose bound reaches
the Heisenberg limit 1/(2j): deterministic coarse seeding followed by
cyclic coordinate descent with a section search along each angle. The
seed grid is the search's one cat_crb_batch call, given as four broadcast
axes so the kernel expands a cat component once per distinct point of its
own angles (36 and 72) wherever those fit in one chunk, and the seeds are
polished in lockstep from its values. No pure state's bound goes below
1/(2j), so a seed within a relative 1e-12 of it (or the tolerance, if
smaller) is done: it leaves the polish before its first line search if
the grid puts it there, or after the line search that brings it there.
Each line search moves one angle of every seed still sweeping, and runs
on one cat_crb_line built for it: the cat component the three fixed
angles determine, and the factor of the other that the moving angle
leaves alone, are expanded once per line, so each step of the section
search expands only the moving factor at the seven points it samples in
the bracket of every seed. The caches hold 2 m (2j + 1) amplitudes for m
seeds, about 5.4 MB at MAX_SEEDS and 2j = 64, however many points a step
samples. Every bracket of a line narrows by 4 at each step and closes on
the same step, once no wider than the angle resolution the objective
has, 1e-8 (see _section_min). The values the polish ends on, the ones
cat_crb_batch gives at the polished points, bit for bit, decide
acceptance, and accepted points closer than _MERGE_RADIUS in every angle
are reported once. Each seed takes exactly the steps it would take
searched on its own, and every stopping rule reads only its own values,
so the search is exact-arithmetic deterministic: same spec, same result.
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
from .metrology import Generator, batch_cells, cat_crb, cat_crb_batch, cat_crb_line  # noqa: F401

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
    own angles alone: block and chunk sizes do not change any value. A
    spec of another type raises TypeError.
    """
    n = instance(spec, ScanSpec, "spec").resolution
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

    j must be a SpinJ and generator a Generator. tolerance is the relative
    acceptance slack (crb <= (1/(2j))(1+tol)), a real argument stored as a
    float; seeds, an integer argument stored as an int, is how many
    coarse-grid starts are polished, 1 <= seeds <= MAX_SEEDS. Grid points
    with no finite bound are never started from, so fewer may be polished.
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
        return 1.0 / (2.0 * self.j.j)


@dataclass(frozen=True)
class HlPoint:
    theta1: float
    theta2: float
    phi1: float
    phi2: float
    crb: float


# full angle box; the seed grid needs half the phi1 range because shifting
# both phases by pi, a rotation by pi about z, maps (Jx, Jy, Jz) to
# (-Jx, -Jy, Jz) and F(-G) = F(G); other common shifts keep F under Jz only
_BOUNDS = ((0.0, math.pi), (0.0, math.pi), (0.0, 2 * math.pi), (0.0, 2 * math.pi))

# a section-search bracket closes once it is no wider than this. Near a
# quadratic minimum the objective moves by a relative (x - x*)^2 times its
# relative curvature, so in double precision (epsilon 2.2e-16) it resolves
# the angle only to about sqrt(epsilon), 1.5e-8 at unit curvature: a
# narrower bracket ranks its samples by roundoff
_BRACKET_TOL = 1e-8

# interior points each step of a section search samples per bracket, and
# their offsets from the bracket's left end in units of the spacing
_SAMPLES = 7
_SECTIONS = np.arange(1.0, _SAMPLES + 1)

# coordinate-descent sweeps at most per search
_MAX_SWEEPS = 40

# relative slack above 1/(2j) within which a seed is at the limit and stops
# being polished: no pure state's bound lies below 1/(2j), and the kernels'
# roundoff there is at most about 2.2e-16, so further steps only move roundoff
_LIMIT_SLACK = 1e-12

# accepted points whose four angles all lie this close (phi modulo 2 pi) are
# one point. A seed stops within a relative _LIMIT_SLACK of the limit, which
# near a minimum of unit relative curvature leaves each angle free by about
# sqrt(_LIMIT_SLACK) = 1e-6. The radius is ten times that: with 16 or 64
# seeds, for 2j in 1..12, 16, 32 and 64 under each generator, every
# accepted point lies within 2.1e-6 of the one reported for it, and the
# points reported lie at least 0.17 apart
_MERGE_RADIUS = 10 * math.sqrt(_LIMIT_SLACK)


def _objective(j: SpinJ, g: Generator, *angles) -> np.ndarray:
    """Bound at each cat the four angle arrays theta1, theta2, phi1 and phi2
    broadcast to, or, given one (n, 4) array, at each of its rows (theta1,
    theta2, phi1, phi2); inf where the cat is degenerate, so the search
    steps away from it.

    Angles outside the CoherentParams domain raise ValueError.
    """
    _, crb, degenerate = cat_crb_batch(j, g, *(angles[0].T if len(angles) == 1 else angles))
    return np.where(degenerate, math.inf, crb)


def _line_objective(j: SpinJ, g: Generator, base: np.ndarray, k: int):
    """_objective along angle k of each row of base -> line(v).

    line(v) is _objective at the points of base with angle k set to v, one
    value per row, or a row of values per row of base, bit for bit,
    through cat_crb_line: the cat component angle k leaves fixed, and the
    factor of the other that it leaves alone, are expanded once per line
    instead of once per step.
    """
    crb_line = cat_crb_line(j, g, base, k)

    def line(v):
        _, crb, degenerate = crb_line(v)
        return np.where(degenerate, math.inf, crb)

    return line


def _section_min(line, n: int, lo: float, hi: float):
    """Minima of n line objectives on [lo, hi] by a lockstep section search.

    line(x) takes an (n, _SAMPLES) array of abscissae, one row per
    objective, and returns the objective at each. Every step makes one
    line call with _SAMPLES equally spaced interior points of each row's
    bracket [a, a + w], a + i w / (_SAMPLES + 1) for i = 1 .. _SAMPLES,
    and keeps the two neighbours of the row's best sample (the first on
    ties) as its next bracket, of width w / 4. Every bracket has the same
    width, kept as one float that division by 4 leaves exact, so all rows
    stop on the same step: a line takes 15 calls on [0, pi] and on
    [0, 2 pi] before the width is at most _BRACKET_TOL = 1e-8, about the
    square root of the float epsilon, below which a quadratic minimum's
    samples differ by roundoff only. Each row keeps the best sample it has
    seen (strictly smaller values only; nan and inf if every sample is
    inf), and its arithmetic is that of a search on its own, bit for bit.
    -> (argmin, min) arrays of length n.
    """
    rows = np.arange(n)
    a = np.full(n, lo)
    w = hi - lo
    x_best = np.full(n, math.nan)
    f_best = np.full(n, math.inf)
    while w > _BRACKET_TOL:
        step = w / (_SAMPLES + 1)
        x = a[:, None] + _SECTIONS * step
        f = line(x)
        i = f.argmin(axis=1)
        f_i = f[rows, i]
        better = f_i < f_best
        np.copyto(x_best, x[rows, i], where=better)
        np.copyto(f_best, f_i, where=better)
        a = a + i * step
        w = 2 * step
    return x_best, f_best


def _polish(line_for, starts, values, stop: float):
    """Cyclic coordinate descent from every start at once.

    values holds the objective at each start, and line_for(base, k) gives
    the objective along angle k of each row of base as a line of
    _section_min, which samples every row's bracket at seven points per
    call. A row whose value is at most stop is done: it is never polished
    if its start is, and leaves after the line search that brings it
    there. Any other row stops after the first sweep that improves it by
    less than 1e-13, and every row after _MAX_SWEEPS sweeps. Each rule
    reads a row's own values only.
    -> (x, best): the polished points and their objective values.
    """
    x = np.array(starts, dtype=float)
    best = np.array(values, dtype=float)
    live = np.flatnonzero(best > stop)
    for _ in range(_MAX_SWEEPS):
        before = best.copy()
        for k, (lo, hi) in enumerate(_BOUNDS):
            if not live.size:
                return x, best
            v, fv = _section_min(line_for(x[live], k), live.size, lo, hi)
            better = fv < best[live]
            x[live[better], k] = v[better]
            best[live[better]] = fv[better]
            live = live[best[live] > stop]
        live = live[~(before[live] - best[live] < 1e-13)]
    return x, best


def _stop_bound(spec: HlSearchSpec) -> float:
    """The value at or below which find_hl stops polishing a seed:
    target (1 + min(_LIMIT_SLACK, tolerance)), never above acceptance."""
    return spec.target * (1.0 + min(_LIMIT_SLACK, spec.tolerance))


def _seed_starts(f, seeds: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeds best finite points of the coarse grid, ranked by
    (value, theta1, theta2, phi1, phi2) -> (starts, values).

    f(theta1, theta2, phi1, phi2) gives the objective at the points its
    arguments broadcast to. It gets the grid as four axes, of shapes
    (9, 1, 1, 1), (1, 9, 1, 1), (1, 1, 4, 1) and (1, 1, 1, 8), so
    cat_crb_batch can expand each component once per distinct point of
    its own angles; the values are those of the flat grid, bit for bit.
    """
    thetas = math.pi * np.arange(9) / 8
    phis = math.pi * np.arange(8) / 4
    axes = np.ix_(thetas, thetas, phis[:4], phis)
    grid = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, 4)
    vals = f(*axes).reshape(-1)
    keep = np.isfinite(vals)
    grid, vals = grid[keep], vals[keep]
    order = np.lexsort((grid[:, 3], grid[:, 2], grid[:, 1], grid[:, 0], vals))[:seeds]
    return grid[order], vals[order]


# the period of each angle (theta1, theta2, phi1, phi2) for _merged
_PERIODS = np.array([math.inf, math.inf, 2 * math.pi, 2 * math.pi])


def _merged(x: np.ndarray, values: np.ndarray) -> list[int]:
    """Rows of the points x to report, one for each group of near points.

    Rows are taken in order. A row whose four angles all lie within
    _MERGE_RADIUS of those of a row already kept, phi compared modulo
    2 pi, joins the first such row, and takes its place if its value is
    strictly smaller; any other row is kept.
    """
    kept: list[int] = []
    points = np.empty_like(x)  # the points of the kept rows, in order
    for i, point in enumerate(x):
        gap = np.remainder(np.abs(points[: len(kept)] - point), _PERIODS)
        near = np.flatnonzero((np.minimum(gap, _PERIODS - gap) <= _MERGE_RADIUS).all(axis=1))
        if not near.size:
            points[len(kept)] = point
            kept.append(i)
        elif values[i] < values[kept[near[0]]]:
            points[near[0]] = point
            kept[near[0]] = i
    return kept


def find_hl(spec: HlSearchSpec) -> list[HlPoint]:
    """Locate Heisenberg-limit points for the given spin and generator.

    The MAX_SEEDS-point seed grid is the search's one cat_crb_batch call,
    and the best spec.seeds points are polished together from its values,
    each line search on one cat_crb_line that expands the factors it
    leaves fixed once, and each of its steps sampling seven points of
    every seed's bracket in one call. A seed whose bound is within a
    relative 1e-12 of the target (or within the tolerance, if that is
    smaller) is at the Heisenberg limit, which no pure state goes below,
    and is polished no further: a grid point already there is reported as
    it is. The values the polish ends on decide acceptance, and accepted
    points within _MERGE_RADIUS of each other in every angle (phi modulo
    2 pi) are reported once, by the one with the smallest bound. Returns
    accepted points sorted by (crb, theta1, theta2, phi1, phi2); raises
    NoHlFoundError when no polished seed reaches the target within the
    acceptance slack, and TypeError for a spec of another type.
    """
    instance(spec, HlSearchSpec, "spec")
    objective = functools.partial(_objective, spec.j, spec.generator)
    line_for = functools.partial(_line_objective, spec.j, spec.generator)
    accept = spec.target * (1.0 + spec.tolerance)
    starts, values = _seed_starts(objective, spec.seeds)
    xs, vals = _polish(line_for, starts, values, _stop_bound(spec))
    accepted = vals <= accept
    xs, vals = xs[accepted], vals[accepted]
    if not vals.size:
        raise NoHlFoundError(
            f"no point reached crb <= {accept:.6g} for j={spec.j}, "
            f"generator {spec.generator.name}"
        )
    found = [HlPoint(*xs[i].tolist(), vals[i].item()) for i in _merged(xs, vals)]
    return sorted(found, key=lambda p: (p.crb, p.theta1, p.theta2, p.phi1, p.phi2))
