"""Helpers shared across test modules: deterministic random states,
one-point-at-a-time references for the Heisenberg-limit search, the
closed-form sweep and the scan CSV writer, and two deliberately wrong
closed forms that the tests pin as discrepancy witnesses."""
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
from spincat.closedform import FAMILIES, SweepReport, _extended, _sqrt_ratio
from spincat.metrology import batch_cells, cat_crb_batch
from spincat.scan import HlPoint, check_resolution


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
# lockstep search in spincat.scan: the same seed grid, built from Python
# floats, one objective call per cat, and the cats ranked by a Python sort


def cat_objective(j, gen, cats):
    """find_hl's objective on an (n, 4) array of cats (theta1, theta2,
    phi1, phi2): the bound of each through cat_crb_batch, inf where the
    cat is degenerate."""
    _, crb, degenerate = cat_crb_batch(j, gen, *np.asarray(cats, dtype=float).T)
    return np.where(degenerate, math.inf, crb)


def sequential_find_hl(spec):
    """find_hl with every cat of its grid evaluated as a batch of one."""
    thetas = [math.pi * i / 8 for i in range(9)]
    phis = [math.pi * k / 4 for k in range(8)]
    ranked = []
    for cat in itertools.product(thetas, thetas, phis[:4], phis):
        val = float(cat_objective(spec.j, spec.generator, [cat])[0])
        if math.isfinite(val):
            ranked.append((val, *cat))
    ranked.sort()
    accept = spec.target * (1.0 + spec.tolerance)
    return [HlPoint(*cat, val) for val, *cat in ranked[: spec.seeds] if val <= accept]


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


# ---------------------------------------------------------------------------
# cell-by-cell CSV writer, the reference for GridResult.to_csv: every line
# built and formatted on its own


def reference_csv(result) -> str:
    """The text GridResult.to_csv writes, one cell at a time."""
    lines = ["theta1,theta2,crb,overflow,degenerate\n"]
    labels = ["%.12g" % t for t in result.theta.tolist()]
    capped = "%.12g,1,0\n" % result.spec.cap
    for i, t1 in enumerate(labels):
        cells = zip(
            labels,
            result.values[i].tolist(),
            result.overflow[i].tolist(),
            result.degenerate[i].tolist(),
        )
        for t2, v, over, deg in cells:
            lines.append(
                f"{t1},{t2},"
                + ("nan,0,1\n" if deg else capped if over else "%.12g,0,0\n" % v)
            )
    return "".join(lines)


# ---------------------------------------------------------------------------
# discrepancy witnesses: variants of the spin-1 phi = pi family that look
# right and are not; tests pin their disagreement with the engine so the
# catalogue's formulas cannot quietly regress to them


def crb_one_z_phi_pi_variant(theta1: float, theta2: float) -> float:
    """Sign-flipped variant of the phi = pi family. Witness only.

    The ONE_Z_PHIPI formula, the phi = 0 form at theta2 -> -theta2, written
    out with cos(theta1 - 3 theta2) where the image has
    cos(theta1 + 3 theta2). It agrees with the numeric engine on the
    theta1 = theta2 = pi/2 point and strays elsewhere (regression-tested),
    so it must never be promoted into the family evaluator.
    """
    a = math.cos(3 * theta1 + theta2) + math.cos(theta1 - 3 * theta2)
    b = math.cos(2 * theta1) + math.cos(2 * theta2)
    c = math.cos(2 * (theta1 + theta2))
    d = math.cos(theta1 - theta2)
    num = 2.0 * (math.cos(theta1 + theta2) + 3.0) ** 2
    return _sqrt_ratio(num, a - 8.0 * b + 2.0 * c - 18.0 * d + 30.0)


def crb_one_z_phi_pi_equal_theta_variant(theta1: float) -> float:
    """Equal-theta variant with |sin t1| unsquared. Witness only.

    Coincides with the exact reduction (3+cos 2t1)/(4 sin^2 t1) exactly at
    t1 = pi/2 and nowhere else away from the poles; regression-tested as a
    known-wrong form.
    """
    s = abs(math.sin(theta1))
    return math.inf if s == 0.0 else _extended((3.0 + math.cos(2 * theta1)) / (4.0 * s))
