"""Helpers shared across test modules: deterministic random states, and
one-point-at-a-time references for the Heisenberg-limit search and the
closed-form sweep."""
import itertools
import math

import numpy as np

from spincat import (
    CatParams,
    CoherentParams,
    DegenerateCatError,
    Generator,
    SpinJ,
    cat_crb,
)
from spincat.closedform import FAMILIES, SweepReport
from spincat.metrology import batch_cells, cat_crb_batch
from spincat.scan import HlPoint, _objective, check_resolution


def random_coherent(rng) -> CoherentParams:
    return CoherentParams(
        float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2 * math.pi))
    )


def random_cat(rng, max_two_j: int = 10, min_qfi: float = 1e-2, generator=None):
    """Rejection-sample a non-degenerate cat whose information content stays
    clear of divergences (for the given generator, or all three)."""
    gens = [generator] if generator is not None else list(Generator)
    while True:
        j = SpinJ(int(rng.integers(1, max_two_j + 1)))
        cat = CatParams(j, random_coherent(rng), random_coherent(rng))
        try:
            results = [cat_crb(cat, g) for g in gens]
        except DegenerateCatError:
            continue
        if all(r.qfi > min_qfi for r in results):
            return cat


# ---------------------------------------------------------------------------
# one-point-at-a-time Heisenberg-limit search, the reference for the
# lockstep search in spincat.scan: same seed grid, same golden-section and
# coordinate-descent arithmetic, one objective call per point

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_BOUNDS = ((0.0, math.pi), (0.0, math.pi), (0.0, 2 * math.pi), (0.0, 2 * math.pi))


def _golden_min(f, lo, hi, tol=1e-12):
    a, b = lo, hi
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _polish(f, start, max_sweeps=40):
    x = list(start)
    best = f(x)
    for _ in range(max_sweeps):
        before = best
        for k, (lo, hi) in enumerate(_BOUNDS):
            def line(v, k=k):
                trial = list(x)
                trial[k] = v
                return f(trial)

            v, fv = _golden_min(line, lo, hi)
            if fv < best:
                x[k] = v
                best = fv
        if before - best < 1e-13:
            break
    return x, best


def _seed_starts(f, seeds):
    thetas = [math.pi * i / 8 for i in range(9)]
    phis = [math.pi * k / 4 for k in range(8)]
    ranked = []
    for t1 in thetas:
        for t2 in thetas:
            for p1 in phis[:4]:
                for p2 in phis:
                    val = f((t1, t2, p1, p2))
                    if math.isfinite(val):
                        ranked.append((val, t1, t2, p1, p2))
    ranked.sort()
    return [r[1:] for r in ranked[:seeds]]


def sequential_find_hl(spec):
    """find_hl with every evaluation of its objective a batch of one point."""

    def objective(x):
        return float(_objective(spec.j, spec.generator, np.array([x]))[0])

    accept = spec.target * (1.0 + spec.tolerance)
    found = {}
    for start in _seed_starts(objective, spec.seeds):
        x, val = _polish(objective, start)
        if val <= accept:
            key = tuple(round(v, 9) for v in x)
            pt = HlPoint(x[0], x[1], x[2], x[3], val)
            old = found.get(key)
            if old is None or pt.crb < old.crb:
                found[key] = pt
    return sorted(found.values(), key=lambda p: (p.crb, p.theta1, p.theta2, p.phi1, p.phi2))


# ---------------------------------------------------------------------------
# point-by-point closed-form sweep, the reference for the array sweep in
# spincat.closedform: a dict per grid point, the row's angle map and formula
# called on it, and every point classified in a Python loop


def grid_points(defn, resolution):
    names = [fp[0] for fp in defn.free_params]
    if len(names) == 1:
        name, lo, hi = defn.free_params[0]
        n = resolution * resolution
        for i in range(n):
            yield {name: lo + (hi - lo) * (i / (n - 1))}
    else:
        (n1, lo1, hi1), (n2, lo2, hi2) = defn.free_params
        for a in range(resolution):
            x = lo1 + (hi1 - lo1) * (a / (resolution - 1))
            for b in range(resolution):
                yield {n1: x, n2: lo2 + (hi2 - lo2) * (b / (resolution - 1))}


def sequential_sweep_family(case, resolution=50):
    """sweep_family with the grid built and classified one point at a time."""
    check_resolution(resolution)
    defn = FAMILIES[case]
    points = finite = mismatches = 0
    worst = 0.0
    worst_point = mismatch_point = None
    grid = grid_points(defn, resolution)
    block = batch_cells(defn.spin)
    while batch := list(itertools.islice(grid, block)):
        angles = np.array([defn.angles(params) for params in batch])
        _, crbs, degenerate = cat_crb_batch(defn.spin, defn.generator, *angles.T)
        engine = np.where(degenerate, math.inf, crbs).tolist()
        for params, ev in zip(batch, engine):
            points += 1
            fv = defn.formula(params)
            f_div = math.isinf(fv)
            e_div = math.isinf(ev)
            if f_div != e_div:
                mismatches += 1
                mismatch_point = (dict(params), fv, ev)
            elif not f_div:
                finite += 1
                dev = abs(fv - ev)
                if dev > worst:
                    worst = dev
                    worst_point = (dict(params), fv, ev)
    if mismatch_point is not None:
        worst_point = mismatch_point
    return SweepReport(
        case=case,
        points=points,
        finite_points=finite,
        max_abs_deviation=worst,
        event_mismatches=mismatches,
        worst_point=worst_point,
    )
