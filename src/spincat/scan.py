"""Parameter-space scans and Heisenberg-limit searches.

Where each part lives:

- grid_scan: the bound on a (theta1, theta2) grid at fixed phases, with
  overflow and degenerate masks; _grid_bounds: the grid evaluator it
  shares with closedform's sweep_family, on axes from _axis.
- find_hl: the search for points whose bound reaches the Heisenberg limit
  1/(2j). _seed_grid and _seed_starts pick the seeds from a coarse grid,
  _polish moves them by damped Newton steps, with _wrapped keeping points
  in the kernel's box, and _merged reports near points once. Its kernel
  calls all go through _objective to metrology._cat_crb_pairs.
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


# half-width of find_hl's finite-difference stencil in every angle. The
# bound is smooth in the four angles, and near a minimum it moves by a
# relative (h^2) times its curvature across the stencil, about 1e-8 here,
# so the second differences keep about eight digits in double precision,
# and the first differences' O(h^2) error moves a Newton step's end by
# about 1e-8 rad, a relative 1e-16 of the bound
_STEP = 1e-4

# the stencil around a centre c, in units of _STEP: c, then c + e_i and
# c - e_i for each angle i, then c + e_i + e_j for each pair i < j
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_STENCIL = np.concatenate([np.zeros((1, 4)), np.eye(4), -np.eye(4), np.eye(4)[list(_PAIRS)].sum(axis=1)])

# _polish's damping ladder, from the Newton step (lam = 0) to a short step
# along the descent direction (lam = 10)
_DAMPING = (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0)

# floor of each eigenvalue of _polish's damped Hessian, as a fraction of s
_EIG_FLOOR = 1e-8

# Newton steps at most per seed
_MAX_STEPS = 40

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


def _objective(j: SpinJ, g: Generator, points: np.ndarray, pairs: np.ndarray | None = None) -> np.ndarray:
    """Bound at each cat, inf where the cat is degenerate, so the search
    steps away from it.

    points is an (n, 4) array of cats (theta1, theta2, phi1, phi2), which
    cat_crb_batch evaluates; or, given pairs, an (m, 2) table of component
    points (theta, phi), and the cat of each row of the (n, 2) integer
    array pairs is the two points it names, which _cat_crb_pairs evaluates
    with the table expanded once. Both give the same bits. Angles outside
    the CoherentParams domain raise ValueError.
    """
    if pairs is None:
        _, crb, degenerate = cat_crb_batch(j, g, *points.T)
    else:
        _, crb, degenerate = _cat_crb_pairs(j, g, points[:, 0], points[:, 1], pairs[:, 0], pairs[:, 1])
    return np.where(degenerate, math.inf, crb)


# the columns (theta, phi) of each component of a cat (theta1, theta2,
# phi1, phi2): x[..., _COMPONENTS] has the components along its last but one axis
_COMPONENTS = np.array([[0, 2], [1, 3]])


def _wrapped(x: np.ndarray, even: bool) -> np.ndarray:
    """The points x, moved into the box the kernel takes, in place: rows
    along the last axis of their thetas and then their phis, cats (theta1,
    theta2, phi1, phi2) or components (theta, phi).

    A negative theta is reflected through the pole, (-theta, phi) ->
    (theta, phi + pi), which is the same coherent state. So is
    (2 pi - theta, phi + pi) for theta above pi at even 2j (even), and
    there theta is reduced modulo 2 pi and reflected; at odd 2j that image
    changes the sign of its component, so theta is clipped to pi instead.
    Each reflection is exact in floating point. phi is reduced modulo 2 pi.
    """
    half = x.shape[-1] // 2
    for r in range(half):
        theta, phi = x[..., r], x[..., r + half]
        flip = theta < 0.0
        theta[flip] = -theta[flip]
        phi[flip] += math.pi
        if even:
            np.fmod(theta, 2 * math.pi, out=theta)
            flip = theta > math.pi
            theta[flip] = 2 * math.pi - theta[flip]
            phi[flip] += math.pi
    np.minimum(x[..., :half], math.pi, out=x[..., :half])
    np.mod(x[..., half:], 2 * math.pi, out=x[..., half:])
    return x


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    # the sum over the last axis of four terms, added left to right: a
    # fixed order, which a one-seed search in Python floats can repeat
    return ((terms[..., 0] + terms[..., 1]) + terms[..., 2]) + terms[..., 3]


def _derivatives(f: np.ndarray):
    """-> (g, H): the gradient and Hessian, from the stencil values f, one
    row of 15 per seed in _STENCIL's order. g_i is the central difference,
    H_ii the central second difference and H_ij the forward mixed one."""
    f0, up, down, pairs = f[:, :1], f[:, 1:5], f[:, 5:9], f[:, 9:]
    hh = _STEP * _STEP
    rise = up - f0
    g = (up - down) / (2 * _STEP)
    H = np.empty((len(f), 4, 4))
    diagonal = np.arange(4)
    H[:, diagonal, diagonal] = (rise + (down - f0)) / hh
    for p, (a, b) in enumerate(_PAIRS):
        H[:, a, b] = H[:, b, a] = ((pairs[:, p] - up[:, a]) - rise[:, b]) / hh
    return g, H


def _newton_steps(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """-> d of shape (m, len(_DAMPING), 4): _polish's damped step for each
    seed and each rung of the ladder, through H's eigenvectors V and
    eigenvalues w, s = max |w|."""
    w, V = np.linalg.eigh(H)
    s = np.abs(w).max(axis=1)[:, None, None]
    lam = np.array(_DAMPING)[None, :, None]
    curvature = np.maximum(w[:, None, :] + lam * s, _EIG_FLOOR * s)
    along = _ordered_sum(np.swapaxes(V * g[:, :, None], 1, 2))  # V^T g
    return -_ordered_sum(V[:, None, :, :] * (along[:, None, :] / curvature)[:, :, None, :])


@functools.cache
def _stencil_pairs() -> tuple[np.ndarray, np.ndarray]:
    """-> (offsets, pairs), built on first use and read-only: the distinct
    offsets (theta, phi) of one component across _STENCIL, in units of
    _STEP, and for each stencil point the index of its first component's
    offset and, counted from len(offsets), of its second's. A seed's
    stencil is 2 len(offsets) = 12 component points, not 15 cats' 30."""
    rows = [tuple(row) for c in _COMPONENTS for row in _STENCIL[:, c].tolist()]
    distinct = list(dict.fromkeys(rows))  # -0.0 and 0.0 are one offset
    first, second = np.array([distinct.index(row) for row in rows]).reshape(2, -1)
    offsets, pairs = np.array(distinct), np.stack([first, second + len(distinct)], axis=1)
    for arr in (offsets, pairs):
        arr.flags.writeable = False
    return offsets, pairs


def _polish(objective, starts, values, stop: float, even: bool):
    """Damped Newton steps from every start at once -> (x, best): the
    polished points and their objective values.

    objective(points, pairs) gives the bound at each cat named by a row of
    the (n, 2) index array pairs into the (m, 2) table points of component
    points (theta, phi), as _objective does; values holds it at each
    start, and even says whether 2j is even. Each step makes two objective
    calls for all the seeds still polishing.

    Stencil. The first call evaluates _STENCIL around each seed: the
    centre, +-h along each of the four angles and +h along each pair of
    angles, h = _STEP, its cats paired from six offsets per component
    (_stencil_pairs). The centre is the seed's own point, whose value the
    seed holds, so 14 cats per seed are evaluated, 15 where the odd-2j
    face below moved the centre. _derivatives turns the 15 values into the
    gradient g and the Hessian H.

    Damping ladder. _newton_steps gives the steps d(lam) = -(H + lam s I)^-1
    g for each lam of _DAMPING, s the largest eigenvalue magnitude of H,
    with each eigenvalue of H + lam s I floored at _EIG_FLOOR s, so that
    every step minimises a positive definite model and a direction of
    negative or vanishing curvature takes the longest steps. The second
    call evaluates the trial points, the stencil's centre plus each step,
    and a seed moves to its best trial (the first on ties) if that is
    strictly lower than its value.

    Stop rules. A row whose value is at most stop is done: it is never
    polished if its start is, and leaves after the step that brings it
    there. Any other row stops after a step that does not lower it, or
    lowers it by less than a relative 1e-13; when its stencil gives a
    derivative that is not finite or a Hessian that is all zero; and after
    _MAX_STEPS steps. Each rule reads a row's own values only, and its
    arithmetic is that of a search on its own, so the search is
    deterministic.

    Angle ranges. Every stencil and trial point is moved into the kernel's
    box by _wrapped: phi is periodic, and below theta = 0, and above pi at
    even 2j, a point is reflected onto the same coherent state. At odd 2j the reflection at
    theta = pi flips the sign of one component, a different cat, so a
    centre with a theta above pi - h is lowered to pi - h first, which
    keeps its stencil inside, and trial points are clipped to pi.
    """
    x = np.array(starts, dtype=float)
    best = np.array(values, dtype=float)
    offsets, pairs = _stencil_pairs()
    live = np.flatnonzero(best > stop)
    for _ in range(_MAX_STEPS):
        if not live.size:
            break
        centre = x[live]
        moved = np.zeros(len(live), dtype=bool)
        if not even:
            moved = (centre[:, :2] > math.pi - _STEP).any(axis=1)
            np.minimum(centre[:, :2], math.pi - _STEP, out=centre[:, :2])
        # component point (seed s, component c, offset k) is row (2 s + c) len(offsets) + k
        points = _wrapped(centre[:, _COMPONENTS][:, :, None] + _STEP * offsets, even).reshape(-1, 2)
        seeds = 2 * len(offsets) * np.arange(len(live))[:, None, None]
        around = (seeds + pairs[1:]).reshape(-1, 2)
        stencil = objective(points, np.concatenate([around, seeds[moved, 0] + pairs[0]]))
        f = np.empty((len(live), len(_STENCIL)))
        f[:, 0] = best[live]
        f[moved, 0] = stencil[len(around) :]
        f[:, 1:] = stencil[: len(around)].reshape(len(live), -1)
        g, H = _derivatives(f)
        usable = np.isfinite(g).all(axis=1) & np.isfinite(H).all(axis=(1, 2))
        usable[usable] = np.abs(H[usable]).max(axis=(1, 2)) > 0.0
        live, centre, g, H = live[usable], centre[usable], g[usable], H[usable]
        if not live.size:
            break
        trials = _wrapped(centre[:, None, :] + _newton_steps(g, H), even)
        # the two components of trial i are rows 2 i and 2 i + 1
        points = trials[:, :, _COMPONENTS].reshape(-1, 2)
        f = objective(points, np.arange(len(points)).reshape(-1, 2)).reshape(len(live), len(_DAMPING))
        pick = f.argmin(axis=1)
        f_pick = f[np.arange(len(live)), pick]
        before = best[live]
        better = f_pick < before
        x[live[better]] = trials[better, pick[better]]
        best[live[better]] = f_pick[better]
        after = best[live]
        live = live[better & ~(before - after < 1e-13 * before) & (after > stop)]
    return x, best


def _stop_bound(spec: HlSearchSpec) -> float:
    """The value at or below which find_hl stops polishing a seed:
    target (1 + min(_LIMIT_SLACK, tolerance)), never above acceptance."""
    return spec.target * (1.0 + min(_LIMIT_SLACK, spec.tolerance))


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
    # each pair in the order (lower index, higher); the pairs used are
    # numbered in row-major order of that table, without a sort
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    used = np.zeros((len(points), len(points)), dtype=bool)
    used[lo, hi] = True
    pairs = np.argwhere(used)
    cats = (np.cumsum(used) - 1).reshape(used.shape)[lo, hi]
    grid = points[np.stack([a, b], axis=1)].transpose(0, 2, 1).reshape(-1, 4)
    for arr in (points, pairs, cats, grid):
        arr.flags.writeable = False
    return points, pairs, cats, grid


def _seed_starts(objective, seeds: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeds best finite points of the coarse grid, ranked by
    (value, theta1, theta2, phi1, phi2) -> (starts, values).

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

    The best spec.seeds points of the coarse grid (_seed_starts) are
    polished by _polish, which stops a seed once its bound is at most
    _stop_bound(spec). The values the polish ends on, those
    cat_crb_batch gives at the polished points, bit for bit, decide
    acceptance, crb <= target (1 + tolerance), and accepted points within
    _MERGE_RADIUS of each other in every angle (phi modulo 2 pi) are
    reported once, by the one with the smallest bound. Returns the
    accepted points sorted by (crb, theta1, theta2, phi1, phi2); raises
    NoHlFoundError when no polished seed is accepted, and TypeError for a
    spec of another type.
    """
    instance(spec, HlSearchSpec, "spec")
    objective = functools.partial(_objective, spec.j, spec.generator)
    accept = spec.target * (1.0 + spec.tolerance)
    starts, values = _seed_starts(objective, spec.seeds)
    xs, vals = _polish(objective, starts, values, _stop_bound(spec), spec.j.two_j % 2 == 0)
    accepted = vals <= accept
    xs, vals = xs[accepted], vals[accepted]
    if not vals.size:
        raise NoHlFoundError(
            f"no point reached crb <= {accept:.6g} for j={spec.j}, "
            f"generator {spec.generator.name}"
        )
    found = [HlPoint(*xs[i].tolist(), vals[i].item()) for i in _merged(xs, vals)]
    return sorted(found, key=lambda p: (p.crb, p.theta1, p.theta2, p.phi1, p.phi2))
