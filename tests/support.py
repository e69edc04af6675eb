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
from spincat.scan import (
    _DAMPING,
    _EIG_FLOOR,
    _MAX_STEPS,
    _MERGE_RADIUS,
    _STEP,
    HlPoint,
    check_resolution,
)


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
# lockstep search in spincat.scan: same seed grid, same Newton-step
# arithmetic on Python floats, with NumPy only for the eigenvectors of each
# seed's own 4 x 4 Hessian, one objective call per point, and the same
# merge of accepted points, one pair of floats at a time

_PAIRS = list(itertools.combinations(range(4), 2))


def _wrap(point, even):
    # a negative theta reflects through the pole, and at even 2j a theta
    # above pi reflects through the other one; at odd 2j it is clipped
    p = list(point)
    for r in (0, 1):
        if p[r] < 0.0:
            p[r], p[r + 2] = -p[r], p[r + 2] + math.pi
        if even:
            p[r] = math.fmod(p[r], 2 * math.pi)
            if p[r] > math.pi:
                p[r], p[r + 2] = 2 * math.pi - p[r], p[r + 2] + math.pi
        p[r] = min(p[r], math.pi)
    return p[:2] + [v % (2 * math.pi) for v in p[2:]]


def _stencil(centre):
    # the centre, then +-h along each angle, then +h along each pair i < j
    rows = [list(centre)]
    for sign in (1.0, -1.0):
        for i in range(4):
            rows.append([c + _STEP * (sign if k == i else 0.0) for k, c in enumerate(centre)])
    for a, b in _PAIRS:
        rows.append([c + _STEP * (1.0 if k in (a, b) else 0.0) for k, c in enumerate(centre)])
    return rows


def _derivatives(f):
    f0, up, down, pairs = f[0], f[1:5], f[5:9], f[9:]
    hh = _STEP * _STEP
    rise = [u - f0 for u in up]
    g = [(up[i] - down[i]) / (2 * _STEP) for i in range(4)]
    H = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        H[i][i] = (rise[i] + (down[i] - f0)) / hh
    for p, (a, b) in enumerate(_PAIRS):
        H[a][b] = H[b][a] = ((pairs[p] - up[a]) - rise[b]) / hh
    return g, H


def _sum4(terms):
    return ((terms[0] + terms[1]) + terms[2]) + terms[3]


def _steps(g, H):
    # -(H + lam s I)^-1 g through H's eigenvectors, each eigenvalue of
    # H + lam s I floored at _EIG_FLOOR s, s the largest |eigenvalue|
    w, V = np.linalg.eigh(np.array(H))
    w, V = w.tolist(), V.tolist()
    s = max(abs(v) for v in w)
    along = [_sum4([V[i][k] * g[i] for i in range(4)]) for k in range(4)]
    steps = []
    for lam in _DAMPING:
        q = [along[k] / max(w[k] + lam * s, _EIG_FLOOR * s) for k in range(4)]
        steps.append([-_sum4([V[i][k] * q[k] for k in range(4)]) for i in range(4)])
    return steps


def _polish(f, start, stop, even):
    # a start at or below stop is at the limit already; a step that brings
    # the point there ends the polish
    x = list(start)
    best = f(x)
    for _ in range(_MAX_STEPS):
        if best <= stop:
            break
        centre = list(x)
        if not even:
            centre[:2] = [min(t, math.pi - _STEP) for t in centre[:2]]
        g, H = _derivatives([f(_wrap(p, even)) for p in _stencil(centre)])
        if not all(map(math.isfinite, g + sum(H, []))) or not max(abs(v) for v in sum(H, [])) > 0:
            break
        trials = [_wrap([c + d for c, d in zip(centre, step)], even) for step in _steps(g, H)]
        values = [f(t) for t in trials]
        i = min(range(len(values)), key=values.__getitem__)
        before = best
        if not values[i] < before:
            break
        x, best = trials[i], values[i]
        if before - best < 1e-13 * before:
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


def cat_objective(j, gen, cats):
    """find_hl's objective on an (n, 4) array of cats (theta1, theta2,
    phi1, phi2): the bound of each through cat_crb_batch, inf where the
    cat is degenerate."""
    _, crb, degenerate = cat_crb_batch(j, gen, *np.asarray(cats, dtype=float).T)
    return np.where(degenerate, math.inf, crb)


def _one_point_objective(spec):
    def objective(x):
        return float(cat_objective(spec.j, spec.generator, [x])[0])

    return objective


def sequential_polish(spec, start):
    """find_hl's polish of the one seed start -> (point, bound), with every
    evaluation of its objective a batch of one point."""
    stop = spec.target * (1.0 + min(1e-12, spec.tolerance))
    return _polish(_one_point_objective(spec), start, stop, spec.j.two_j % 2 == 0)


def sequential_find_hl(spec):
    """find_hl with every evaluation of its objective a batch of one point."""
    accept = spec.target * (1.0 + spec.tolerance)
    found = []
    for start in _seed_starts(_one_point_objective(spec), spec.seeds):
        x, val = sequential_polish(spec, start)
        if val <= accept:
            _merge(found, HlPoint(x[0], x[1], x[2], x[3], val))
    return sorted(found, key=lambda p: (p.crb, p.theta1, p.theta2, p.phi1, p.phi2))


def _gap(a, b, periodic):
    d = abs(a - b)
    if periodic:
        d = math.fmod(d, 2 * math.pi)
        d = min(d, 2 * math.pi - d)
    return d


def _merge(found, pt):
    """Add pt to the list found of points to report: a point within
    _MERGE_RADIUS of a kept one in every angle, phi modulo 2 pi, joins the
    first such point and takes its place if its bound is smaller."""
    new = (pt.theta1, pt.theta2, pt.phi1, pt.phi2)
    for i, old in enumerate(found):
        kept = (old.theta1, old.theta2, old.phi1, old.phi2)
        if all(_gap(a, b, r >= 2) <= _MERGE_RADIUS for r, (a, b) in enumerate(zip(new, kept))):
            if pt.crb < old.crb:
                found[i] = pt
            return
    found.append(pt)


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
