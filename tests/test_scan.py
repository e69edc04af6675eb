"""Grid scans and Heisenberg-limit search."""
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincat
from spincat import (
    MAX_RESOLUTION,
    MAX_SEEDS,
    CatParams,
    CoherentParams,
    Generator,
    GridResult,
    HlSearchSpec,
    NoHlFoundError,
    ScanSpec,
    SpinJ,
    cat_crb,
    cat_state,
    coherent_state,
    find_hl,
    grid_scan,
)

from support import cat_objective, reference_csv, sequential_find_hl, sequential_polish

HALF = SpinJ(1)
PI = math.pi


def spec(phi1=0.0, phi2=0.0, res=5, j=HALF, gen=Generator.Z, cap=20.0):
    return ScanSpec(j=j, generator=gen, phi1=phi1, phi2=phi2, resolution=res, cap=cap)


def test_theta_axis_hits_both_poles_exactly():
    axis = spec(res=11).theta_axis()
    assert axis[0] == 0.0
    assert axis[-1] == math.pi
    assert len(axis) == 11
    assert axis[5] == pytest.approx(math.pi / 2, abs=0)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(res=1)
    with pytest.raises(ValueError):
        spec(cap=0.0)
    with pytest.raises(ValueError):
        spec(cap=math.inf)
    with pytest.raises(ValueError):
        spec(phi1=math.nan)
    with pytest.raises(TypeError):
        ScanSpec(j=0.5, generator=Generator.Z, phi1=0, phi2=0, resolution=5, cap=1.0)
    with pytest.raises(TypeError):
        ScanSpec(j=HALF, generator="z", phi1=0, phi2=0, resolution=5, cap=1.0)


def test_degenerate_cells_are_masked_not_capped():
    # antiparallel phases: theta1 = theta2 = pi is a vanishing superposition
    g = grid_scan(spec(phi1=0.0, phi2=PI))
    assert g.degenerate[4, 4]
    assert np.isnan(g.values[4, 4])
    assert not g.overflow[4, 4]
    assert g.degenerate.sum() == 1
    assert csv_text(g).splitlines()[1 + 5 * 4 + 4].split(",")[2:] == ["nan", "0", "1"]


def test_overflow_cells_keep_raw_inf_and_the_csv_writes_the_cap():
    g = grid_scan(spec())  # phi1 == phi2 == 0: diagonal is a single state
    assert math.isinf(g.values[0, 0])
    assert g.overflow[0, 0]
    assert not g.degenerate.any()
    assert np.array_equal(g.overflow, g.values > 20.0)
    # poles are N00N states: the bound is exactly 1/(2j) = 1
    assert g.values[0, 4] == pytest.approx(1.0, abs=1e-12)
    # the CSV row of each overflow cell carries the cap
    rows = csv_text(g).splitlines()[1:]
    for i, k in zip(*np.nonzero(g.overflow)):
        assert rows[5 * i + k].split(",")[2:] == ["20", "1", "0"]
    with pytest.raises(ValueError):
        g.values[0, 0] = 5.0  # stored grid is frozen


def test_min_point_ignores_masked_cells():
    g = grid_scan(spec(phi1=0.0, phi2=PI))
    crb, t1, t2 = g.min_point()
    assert crb == pytest.approx(1.0, abs=1e-9)
    assert math.isfinite(t1) and math.isfinite(t2)


def test_csv_layout():
    g = grid_scan(spec(phi1=0.0, phi2=PI))
    buf = io.StringIO()
    g.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "theta1,theta2,crb,overflow,degenerate"
    assert len(lines) == 26  # header + 5*5 rows
    # row order is row-major in (theta1, theta2)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    degrow = [ln for ln in lines if ln.endswith(",1") and ",nan," in ln]
    assert len(degrow) == 1
    caprow = [ln for ln in lines if ln.endswith(",1,0")]
    for ln in caprow:
        assert float(ln.split(",")[2]) == 20.0
    assert "inf" not in buf.getvalue()


def csv_text(result) -> str:
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue()


# sha256 of the CSV text, recorded from the cell-by-cell writer; the first
# panel is the benchmark's scan (2,570 overflow cells and one degenerate)
@pytest.mark.parametrize(
    "two_j,gen,phi1,phi2,res,cap,digest",
    [
        (1, "Z", 0.0, PI, 201, 20.0, "192b88d2c8724097dfa20d9fa96f3e6ac9c9f901d61b3201aedde3768c421bdb"),
        (3, "Y", 0.3, 2.0, 101, 20.0, "e3d1ea0c97b69ac109dcfb87af00287e2779bd1657673c91bb702c07de7f68e1"),
        (64, "X", 0.0, 0.5, 57, 20.0, "d7c683bb869a89bf6fb2df51a2bdb8da0bd51be89c86466e37cb9782e702a11b"),
        (1, "X", 0.0, PI, 201, 3.0, "0ab234fb057b05a2ad7ad323e5c3b8460ffbfa53301311caca522e4b55f7778d"),
        (2, "Z", 0.0, PI, 2, 20.0, "c0ad5914cdcee396bdc11aaf170feff1667991eec6a889826e20e264b7898a68"),
    ],
)
def test_csv_bytes_are_pinned(two_j, gen, phi1, phi2, res, cap, digest):
    g = grid_scan(spec(phi1, phi2, res, SpinJ(two_j), Generator[gen], cap))
    text = csv_text(g)
    assert text == reference_csv(g)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


_CAPS = [2.5, 1e-7, 20.0, 1.0, 3.0]


@st.composite
def grid_results(draw):
    """Synthetic GridResults whose rows are all finite, all special or mixed,
    with values at the cap, just above it and at the ends of the float range."""
    n = draw(st.integers(2, 7))
    cap = draw(st.sampled_from(_CAPS) | st.floats(1e-300, 1e300))
    special = [cap, math.nextafter(cap, math.inf), 1e-300, 1e300, math.inf, -0.0]
    values = st.sampled_from(special) | st.floats(allow_nan=False)
    rows, degenerate = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["finite", "special", "mixed"]))
        row = draw(st.lists(values, min_size=n, max_size=n))
        if kind == "finite":
            row = [v if v <= cap else cap for v in row]
            deg = [False] * n
        elif kind == "special":
            deg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            row = [v if v > cap else math.inf for v in row]
        else:
            deg = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows.append(row)
        degenerate.append(deg)
    theta = np.array(draw(st.lists(st.floats(0.0, PI), min_size=n, max_size=n)))
    degenerate = np.array(degenerate)
    values = np.where(degenerate, math.nan, np.array(rows))
    with np.errstate(invalid="ignore"):
        overflow = ~degenerate & (values > cap)
    return GridResult(spec(res=n, cap=cap), theta, values, overflow, degenerate)


@settings(max_examples=200)
@given(grid_results())
def test_csv_matches_the_cell_by_cell_writer(result):
    assert csv_text(result) == reference_csv(result)


@pytest.mark.parametrize("j", [HALF, SpinJ(16)], ids=["2j1", "2j16"])
def test_chunk_size_does_not_change_bytes(monkeypatch, j):
    import spincat.metrology as metrology

    a = grid_scan(spec(phi1=0.7, phi2=2.1, res=21, j=j, gen=Generator.Y))
    monkeypatch.setattr(metrology, "BATCH_AMPLITUDES", 7)
    b = grid_scan(spec(phi1=0.7, phi2=2.1, res=21, j=j, gen=Generator.Y))
    buf_a, buf_b = io.StringIO(), io.StringIO()
    a.to_csv(buf_a)
    b.to_csv(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    assert np.array_equal(a.values, b.values, equal_nan=True)


def test_resolution_cap():
    assert spec(res=MAX_RESOLUTION).resolution == MAX_RESOLUTION
    with pytest.raises(ValueError, match="resolution"):
        spec(res=MAX_RESOLUTION + 1)


def test_refinement_keeps_shared_points():
    coarse = grid_scan(spec(phi1=0.7, phi2=2.1, res=21))
    fine = grid_scan(spec(phi1=0.7, phi2=2.1, res=41))
    # every coarse node is a fine node: pi*i/20 == pi*(2i)/40 exactly
    sub = fine.values[::2, ::2]
    assert np.array_equal(coarse.values, sub, equal_nan=True)
    cmin = coarse.min_point()[0]
    fmin = fine.min_point()[0]
    assert fmin <= cmin + 1e-15


def test_phase_swap_transposes_the_grid():
    a = grid_scan(spec(phi1=0.4, phi2=1.9, res=9))
    b = grid_scan(spec(phi1=1.9, phi2=0.4, res=9))
    finite = np.isfinite(a.values) & np.isfinite(b.values.T)
    assert np.allclose(a.values[finite], b.values.T[finite], atol=1e-12, rtol=0)
    assert np.array_equal(a.degenerate, b.degenerate.T)
    assert np.array_equal(a.overflow, b.overflow.T)


@pytest.mark.parametrize(
    "j,gen",
    [(SpinJ(1), Generator.Z), (SpinJ(1), Generator.X), (SpinJ(2), Generator.Z)],
)
def test_find_hl_reaches_the_limit(j, gen):
    search = HlSearchSpec(j=j, generator=gen)
    points = find_hl(search)
    assert points
    crbs = [p.crb for p in points]
    assert crbs == sorted(crbs)
    target = search.target
    for p in points:
        assert p.crb <= target * (1 + search.tolerance)
        # verify through the variational engine, not the search's own metric
        params = CatParams(j, CoherentParams(p.theta1, p.phi1), CoherentParams(p.theta2, p.phi2))
        assert cat_crb(params, gen).crb == pytest.approx(p.crb, rel=1e-9)


def test_find_hl_reports_failure(monkeypatch):
    import spincat.scan as scan_mod

    def tens(j, g, theta, phi, first, second):
        shape = np.shape(first)
        return np.full(shape, 0.01), np.full(shape, 10.0), np.zeros(shape, dtype=bool)

    monkeypatch.setattr(scan_mod, "_cat_crb_pairs", tens)
    with pytest.raises(NoHlFoundError, match="no point reached"):
        find_hl(HlSearchSpec(j=HALF, generator=Generator.Z, seeds=2))


@pytest.mark.parametrize("theta", [-0.1, PI + 1e-6, math.nan])
def test_search_objective_rejects_bad_theta(theta):
    import spincat.scan as scan_mod

    # the table's third point is bad, and the second cat names it
    points = np.array([[0.5, 0.0], [1.0, 0.0], [theta, 0.0]])
    with pytest.raises(ValueError, match="theta"):
        scan_mod._objective(HALF, Generator.Z, points, np.array([[0, 1], [2, 1]]))


_BOWL = np.array([[3.0, 1.0, 0.0, 0.5], [1.0, 2.0, 0.3, 0.0], [0.0, 0.3, 1.0, 0.2], [0.5, 0.0, 0.2, 4.0]])
_BOWL_MIN = np.array([1.0, 2.0, 3.0, 4.0])


def _bowl(points):
    # 1 + (x - x*)^T A (x - x*) / 2, positive definite, least value 1 at x*
    d = points - _BOWL_MIN
    return 1.0 + 0.5 * np.einsum("ni,ij,nj->n", d, _BOWL, d)


def _cats(points, pairs):
    # the cats (theta1, theta2, phi1, phi2) of the rows of pairs, index
    # pairs into the table points of component points (theta, phi)
    return points[pairs].transpose(0, 2, 1).reshape(-1, 4)


def test_polish_steps_onto_the_minimum_of_a_quadratic_bowl():
    # the stencil's differences are exact on a quadratic but for roundoff,
    # so the undamped rung lands on the minimum and the seed stops there
    import spincat.scan as scan_mod

    calls = []

    def objective(points, pairs):
        calls.append((len(points), len(pairs)))
        return _bowl(_cats(points, pairs))

    start = np.array([[1.2, 1.9, 3.3, 3.8]])
    x, best = scan_mod._polish(objective, start, _bowl(start), 1.0 + 1e-12, False)
    assert calls == [(12, 14), (12, 6)]
    np.testing.assert_allclose(x[0], _BOWL_MIN, rtol=0, atol=1e-6)
    assert best[0] <= 1.0 + 1e-12


def test_polish_stops_a_seed_whose_stencil_meets_an_inf():
    import spincat.scan as scan_mod

    def objective(points, pairs):
        values = _bowl(_cats(points, pairs))
        values[0] = math.inf  # the stencil's first point past the centre
        return values

    start = np.array([[1.2, 1.9, 3.3, 3.8]])
    x, best = scan_mod._polish(objective, start, _bowl(start), 1.0, False)
    assert x.tobytes() == start.tobytes() and best.tobytes() == _bowl(start).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_stencil_differences_recover_a_quadratic(seed):
    # on f = c + b.x + x^T A x / 2 the central and forward mixed
    # differences are exact but for roundoff, about eps |f| / h^2 = 1e-7
    # in the Hessian
    import spincat.scan as scan_mod

    rng = np.random.default_rng(seed)
    root = rng.normal(size=(4, 4))
    A, b, c = root + root.T, rng.normal(size=4), rng.normal()
    centre = rng.uniform(0.0, PI, 4)
    points = centre + scan_mod._STEP * scan_mod._STENCIL
    f = c + points @ b + 0.5 * np.einsum("ni,ij,nj->n", points, A, points)
    g, H = scan_mod._derivatives(f[None, :])
    np.testing.assert_allclose(g[0], b + A @ centre, rtol=0, atol=1e-9)
    np.testing.assert_allclose(H[0], A, rtol=0, atol=1e-5)
    assert (H[0] == H[0].T).all()


@pytest.mark.parametrize("rung", range(6))
@pytest.mark.parametrize("eigenvalues", [(0.5, 1.0, 2.5, 5.0), (-2.0, -0.1, 0.3, 4.0)],
                         ids=["definite", "indefinite"])
def test_newton_steps_minimise_the_floored_damped_model(rung, eigenvalues):
    # d(lam) solves (H + lam s I) d = -g with each eigenvalue of H + lam s I
    # floored at 1e-8 s; where H is positive definite no floor acts, and
    # every step goes downhill
    import spincat.scan as scan_mod

    rng = np.random.default_rng(rung)
    V, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    w = np.array(eigenvalues)
    H, g = (V * w) @ V.T, rng.normal(size=4)
    d = scan_mod._newton_steps(g[None, :], H[None, :, :])[0, rung]
    s, lam = np.abs(w).max(), scan_mod._DAMPING[rung]
    model = (V * np.maximum(w + lam * s, scan_mod._EIG_FLOOR * s)) @ V.T
    np.testing.assert_allclose(d, np.linalg.solve(model, -g), rtol=1e-6, atol=0)
    if min(w) > 0:
        np.testing.assert_allclose(d, np.linalg.solve(H + lam * s * np.eye(4), -g), rtol=1e-12, atol=0)
    assert g @ d < 0


@pytest.mark.parametrize("thetas", [(0.0, 0.0), (0.0, PI), (PI, 0.0), (PI, PI)],
                         ids=["0-0", "0-pi", "pi-0", "pi-pi"])
@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 16, 64])
def test_a_seed_at_the_poles_is_stepped_inside_the_kernel_domain(monkeypatch, two_j, thetas):
    # one step from a seed at theta = 0 or pi: every stencil and trial point
    # lies in [0, pi] x [0, 2 pi), and each stencil point is the cat
    # continued past the pole, from the centre that odd 2j lowers to pi - h
    import spincat.scan as scan_mod

    j, even, h = SpinJ(two_j), two_j % 2 == 0, scan_mod._STEP
    calls = []

    def objective(points, pairs):
        calls.append((points.copy(), pairs.copy()))
        return scan_mod._objective(j, Generator.X, points, pairs)

    monkeypatch.setattr(scan_mod, "_MAX_STEPS", 1)
    start = np.array([[thetas[0], thetas[1], 0.7, 5.9]])
    scan_mod._polish(objective, start, cat_objective(j, Generator.X, start), 0.0, even)
    (stencil, pairs), (trials, trial_pairs) = calls
    centre = start[0].copy()
    if not even:
        centre[:2] = np.minimum(centre[:2], PI - h)
    moved = bool((centre != start[0]).any())
    assert stencil.shape == trials.shape == (12, 2)
    assert len(pairs) == 14 + moved and len(trial_pairs) == 6
    for points in (stencil, trials):
        assert ((0 <= points[:, 0]) & (points[:, 0] <= PI)).all()
        assert ((0 <= points[:, 1]) & (points[:, 1] < 2 * PI)).all()
    # the stencil after its centre, then the centre if the clip moved it
    continuations = (centre + h * scan_mod._STENCIL)[[*range(1, 15), 0][: len(pairs)]]
    for point, continued in zip(_cats(stencil, pairs), continuations):
        for r in (0, 1):
            got = coherent_state(j, CoherentParams(point[r], point[r + 2])).amplitudes
            want = _continued(two_j, continued[r], continued[r + 2])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("two_j", [1, 3, 5])
def test_only_a_centre_the_odd_2j_clip_moved_is_evaluated(monkeypatch, two_j):
    # the stencil's centre is the seed's own point, whose value the seed
    # holds, unless at odd 2j a theta above pi - h was lowered to it: of two
    # seeds, one at theta1 = pi and one inside, the stencil call evaluates
    # 14 cats of each and then the moved centre, and the derivatives read
    # the value the kernel gives there
    import spincat.scan as scan_mod

    j, h = SpinJ(two_j), scan_mod._STEP
    calls, stencils = [], []

    def objective(points, pairs):
        calls.append(_cats(points, pairs))
        return scan_mod._objective(j, Generator.Y, points, pairs)

    def derivatives(f):
        stencils.append(f.copy())
        return derivatives_of(f)

    derivatives_of = scan_mod._derivatives
    monkeypatch.setattr(scan_mod, "_derivatives", derivatives)
    monkeypatch.setattr(scan_mod, "_MAX_STEPS", 1)
    start = np.array([[PI, 1.1, 0.3, 2.0], [0.4, 1.1, 0.3, 2.0]])
    values = cat_objective(j, Generator.Y, start)
    scan_mod._polish(objective, start, values, 0.0, False)
    cats = calls[0]
    assert len(cats) == 2 * 14 + 1
    moved = np.array([PI - h, 1.1, 0.3, 2.0])
    assert cats[-1].tolist() == moved.tolist()
    f = stencils[0]
    assert f[0, 0] == cat_objective(j, Generator.Y, moved[None, :])[0] != values[0]
    assert f[1, 0] == values[1]


@pytest.mark.parametrize("gen", list(Generator), ids=lambda g: g.name)
@pytest.mark.parametrize("two_j", [1, 2, 3, 16, 64])
def test_search_objective_is_inf_where_the_cat_is_degenerate(two_j, gen):
    # both components at the south pole with phases pi/(2j) apart: the
    # amplitudes at k = 2j cancel; the polish stops a seed whose stencil
    # meets such a cat
    import spincat.scan as scan_mod

    points = np.array([[PI, 0.0], [PI, PI / two_j], [0.5, 0.0], [1.0, 0.0]])
    values = scan_mod._objective(SpinJ(two_j), gen, points, np.array([[0, 1], [2, 3]]))
    assert math.isinf(values[0]) and math.isfinite(values[1])


@pytest.mark.parametrize(
    "two_j,gen",
    [
        (1, Generator.Z),
        (2, Generator.X),
        (3, Generator.Y),
        (4, Generator.X),
        (4, Generator.Y),
        (5, Generator.X),
        (5, Generator.Y),
        (16, Generator.X),
        (64, Generator.Y),
    ],
)
def test_lockstep_search_matches_one_point_at_a_time(two_j, gen):
    search = HlSearchSpec(j=SpinJ(two_j), generator=gen, seeds=4)
    assert find_hl(search) == sequential_find_hl(search)


@pytest.mark.parametrize("two_j,gen", [(2, Generator.X), (3, Generator.Y)])
def test_lockstep_polish_of_64_seeds_matches_one_seed_at_a_time(two_j, gen):
    # every seed, refused ones too, which find_hl does not report: at
    # 2j = 2 under Jx seeds step through theta = pi, and at 2j = 3 under Jy
    # seeds are held below it, and two of them take 37 steps along it
    # before they stop 0.134 above the limit
    import functools

    import spincat.scan as scan_mod

    search = HlSearchSpec(j=SpinJ(two_j), generator=gen, seeds=64)
    objective = functools.partial(scan_mod._objective, search.j, gen)
    starts, values = scan_mod._seed_starts(objective, search.seeds)
    stop = scan_mod._stop_bound(search)
    xs, best = scan_mod._polish(objective, starts, values, stop, two_j % 2 == 0)
    for start, x, value in zip(starts.tolist(), xs.tolist(), best.tolist()):
        assert (x, value) == sequential_polish(search, start), start


# float.hex of (theta1, theta2, phi1, phi2, crb) for each point find_hl
# reports at j = 3/2 under Jy, recorded from the damped Newton polish
# whose accepted points merge within _MERGE_RADIUS: the 16 seeds end
# within 2.1e-6 of one optimum. The lockstep test above compares the
# search with a reference that calls the same kernel, so it cannot see the
# kernel drift.
_PINNED_HL_3Y = [
    "0x1.921fb5457f1bdp+0 0x1.921fb545095d5p+0 0x1.921fb543a2a0dp+0 "
    "0x1.2d97c7f31860ep+2 0x1.5555555555555p-2",
]


def test_find_hl_points_are_pinned():
    points = find_hl(HlSearchSpec(SpinJ(3), Generator.Y))
    fields = [(p.theta1, p.theta2, p.phi1, p.phi2, p.crb) for p in points]
    assert [" ".join(float(v).hex() for v in f) for f in fields] == _PINNED_HL_3Y


@pytest.mark.parametrize("smaller", [False, True])
@pytest.mark.parametrize(
    "k,shift",
    [
        (0, 1e-9),
        (1, -1e-9),
        (2, 1e-9),
        (3, -1e-9),
        (2, 2 * PI - 1e-9),
        (3, -(2 * PI - 1e-9)),
        (0, -0.9e-5),
        (3, -0.9e-5),
    ],
)
def test_find_hl_reports_a_point_and_its_shifted_copy_once(monkeypatch, k, shift, smaller):
    # accepted points merge when all four angles lie within _MERGE_RADIUS
    # = 1e-5 of a point already kept, phi modulo 2 pi: a copy shifted by
    # 1e-9 or 0.9e-5, or by 2 pi - 1e-9 in phi, is reported once, by the
    # smaller bound (the first point on a tie), and a copy shifted the
    # other way by 1.1e-5 is not
    import spincat.scan as scan_mod

    polish = scan_mod._polish
    polished = []

    def with_copies(*args):
        x, best = polish(*args)
        near, far = x.copy(), x.copy()
        near[0, k] += shift
        far[0, k] += 1.1e-5
        bound = np.nextafter(best, 0.0) if smaller else best
        xs, vals = np.vstack([x, near, far]), np.concatenate([best, bound, best])
        polished.extend((*row, val) for row, val in zip(xs.tolist(), vals.tolist()))
        return xs, vals

    monkeypatch.setattr(scan_mod, "_polish", with_copies)
    points = find_hl(HlSearchSpec(SpinJ(3), Generator.Y, seeds=1))
    first, near, far = polished
    reported = {(p.theta1, p.theta2, p.phi1, p.phi2, p.crb) for p in points}
    assert reported == {near if smaller else first, far}


@pytest.mark.parametrize("tolerance", [0.1, 1e-3, 1e-12, 1e-13, 1e-16])
def test_polish_stops_at_the_limit_within_the_smaller_slack(monkeypatch, tolerance):
    # a seed stops at target (1 + min(1e-12, tolerance)), never looser than
    # acceptance, so no seed stops that acceptance would refuse; the search
    # still matches the one-point-at-a-time reference, which stops the same
    import spincat.scan as scan_mod

    search = HlSearchSpec(SpinJ(3), Generator.Y, tolerance=tolerance, seeds=4)
    stops = []
    polish = scan_mod._polish

    def spy(objective, starts, values, stop, even):
        stops.append(stop)
        return polish(objective, starts, values, stop, even)

    monkeypatch.setattr(scan_mod, "_polish", spy)
    points = find_hl(search)
    want = search.target * (1 + min(1e-12, tolerance))
    assert stops == [want]
    assert want <= search.target * (1 + tolerance)
    assert points == sequential_find_hl(search)


@pytest.mark.parametrize("gen", list(Generator), ids=lambda g: g.name)
@pytest.mark.parametrize("two_j", [1, 2, 3, 16, 64])
def test_seed_grid_pairs_give_the_flat_grid_values(two_j, gen):
    # the seed grid reaches the kernel as its 72 component points and the
    # 1,962 unordered pairs of them its cats use, so the kernel expands
    # each point once and evaluates a cat and its swapped copy once; each
    # start reads the value of the flat (MAX_SEEDS, 4) block, bit for bit,
    # and the starts are ranked by (value, theta1, theta2, phi1, phi2)
    import spincat.scan as scan_mod

    j = SpinJ(two_j)
    thetas = PI * np.arange(9) / 8
    phis = PI * np.arange(8) / 4
    grid = np.stack(
        np.meshgrid(thetas, thetas, phis[:4], phis, indexing="ij"), axis=-1
    ).reshape(-1, 4)
    seen = []

    def objective(points, pairs):
        seen.append((len(points), len(pairs)))
        return scan_mod._objective(j, gen, points, pairs)

    starts, values = scan_mod._seed_starts(objective, MAX_SEEDS)
    assert seen == [(72, 1962)]
    flat = cat_objective(j, gen, grid)
    finite = np.isfinite(flat)
    order = np.lexsort((*grid[finite].T[::-1], flat[finite]))
    assert starts.tobytes() == grid[finite][order].tobytes()
    assert values.tobytes() == flat[finite][order].tobytes()


def test_search_chunk_size_does_not_change_points(monkeypatch):
    import spincat.metrology as metrology

    search = HlSearchSpec(j=SpinJ(3), generator=Generator.Y, seeds=4)
    a = find_hl(search)
    monkeypatch.setattr(metrology, "BATCH_AMPLITUDES", 7)
    assert find_hl(search) == a


def test_search_spec_validation():
    with pytest.raises(ValueError):
        HlSearchSpec(j=HALF, generator=Generator.Z, tolerance=0.0)
    with pytest.raises(ValueError):
        HlSearchSpec(j=HALF, generator=Generator.Z, tolerance=0.2)
    with pytest.raises(ValueError):
        HlSearchSpec(j=HALF, generator=Generator.Z, seeds=0)
    assert HlSearchSpec(j=HALF, generator=Generator.Z, seeds=MAX_SEEDS).seeds == 2592
    with pytest.raises(ValueError, match="at most 2592"):
        HlSearchSpec(j=HALF, generator=Generator.Z, seeds=MAX_SEEDS + 1)
    assert HlSearchSpec(j=SpinJ(4), generator=Generator.Z).target == 0.25


@pytest.mark.parametrize("seeds", [True, False, 2.0])
def test_search_spec_refuses_seeds_that_are_not_ints(seeds):
    # True == 1 would pass a range check alone
    with pytest.raises(ValueError, match="seeds must be a positive integer"):
        HlSearchSpec(j=HALF, generator=Generator.Z, seeds=seeds)


def test_specs_store_the_floats_they_validate():
    text = ScanSpec(HALF, Generator.Z, "0", "3.141592653589793", resolution=5, cap="5")
    numeric = ScanSpec(HALF, Generator.Z, 0.0, PI, resolution=5, cap=5.0)
    assert (text.phi1, text.phi2, text.cap) == (0.0, PI, 5.0)
    assert all(type(v) is float for v in (text.phi1, text.phi2, text.cap))
    assert text == numeric
    assert csv_text(grid_scan(text)) == csv_text(grid_scan(numeric))
    ints = ScanSpec(HALF, Generator.Z, np.float32(0.5), 1, resolution=5, cap=3)
    assert all(type(v) is float for v in (ints.phi1, ints.phi2, ints.cap))
    search = HlSearchSpec(HALF, Generator.Z, tolerance="0.01", seeds=1)
    assert search.tolerance == 0.01 and type(search.tolerance) is float
    assert find_hl(search) == find_hl(HlSearchSpec(HALF, Generator.Z, tolerance=0.01, seeds=1))
    with pytest.raises(ValueError):
        ScanSpec(HALF, Generator.Z, "nan", 0.0, resolution=5)
    with pytest.raises(ValueError):
        HlSearchSpec(HALF, Generator.Z, tolerance="abc")


def test_specs_take_numpy_integers_and_store_ints():
    scan = spec(res=np.int64(5))
    assert type(scan.resolution) is int
    assert csv_text(grid_scan(scan)) == csv_text(grid_scan(spec(res=5)))
    search = HlSearchSpec(HALF, Generator.Z, seeds=np.uint16(4))
    assert type(search.seeds) is int
    assert find_hl(search) == find_hl(HlSearchSpec(HALF, Generator.Z, seeds=4))


@pytest.mark.parametrize("flag", [True, np.True_])
def test_specs_refuse_bool_counts(flag):
    # a NumPy bool is no integer either, although np.True_ == 1
    with pytest.raises(ValueError, match="resolution must be an integer"):
        spec(res=flag)
    with pytest.raises(ValueError, match="seeds must be a positive integer"):
        HlSearchSpec(HALF, Generator.Z, seeds=flag)


def test_max_seeds_is_the_size_of_the_seed_grid():
    import spincat.scan as scan_mod

    starts, _ = scan_mod._seed_starts(lambda points, pairs: np.zeros(len(pairs)), MAX_SEEDS + 1)
    assert starts.shape == (MAX_SEEDS, 4)
    assert len(np.unique(starts, axis=0)) == MAX_SEEDS


@pytest.mark.parametrize("cap", [True, False, np.True_])
def test_scan_spec_refuses_bool_caps(cap):
    # True would pass as a cap of 1.0
    with pytest.raises(ValueError, match="cap must be a positive finite float"):
        spec(cap=cap)


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_scan_spec_refuses_bool_phases(flag):
    with pytest.raises(ValueError, match="phi1 must be a number, not a bool"):
        spec(phi1=flag)
    with pytest.raises(ValueError, match="phi2 must be a number, not a bool"):
        spec(phi2=flag)


def _continued(two_j, theta, phi):
    # the coherent-state amplitudes of spincat.coherent, taken at any theta
    k = np.arange(two_j + 1)
    roots = np.sqrt([math.comb(two_j, i) for i in k])
    return roots * np.cos(theta / 2) ** (two_j - k) * np.sin(theta / 2) ** k * np.exp(-1j * k * phi)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 16])
def test_wrapped_points_are_the_same_cat(two_j):
    # the polish steps past theta = 0 and pi. Continued past 0, the
    # amplitudes at (-t, phi) are those of (t, phi + pi); past pi, those at
    # (pi + t, phi) are (-1)^(2j) times those of (pi - t, phi + pi), so the
    # same state at even 2j, where _wrapped reflects, and at odd 2j it clips
    import spincat.scan as scan_mod

    j, even = SpinJ(two_j), two_j % 2 == 0
    point = np.array([-0.3, PI + 0.2, 1.0, 6.0])
    wrapped = scan_mod._wrapped(point.copy()[None, :], even)[0]
    assert (0 <= wrapped[:2]).all() and (wrapped[:2] <= PI).all()
    assert (0 <= wrapped[2:]).all() and (wrapped[2:] < 2 * PI).all()
    first = coherent_state(j, CoherentParams(wrapped[0], wrapped[2])).amplitudes
    np.testing.assert_allclose(first, _continued(two_j, point[0], point[2]), rtol=0, atol=1e-14)
    second = coherent_state(j, CoherentParams(wrapped[1], wrapped[3])).amplitudes
    if even:
        np.testing.assert_allclose(second, _continued(two_j, point[1], point[3]), rtol=0, atol=1e-14)
    else:
        assert (wrapped[1], wrapped[3]) == (PI, point[3])
        image = _continued(two_j, 2 * PI - point[1], point[3] + PI)
        np.testing.assert_allclose(-image, _continued(two_j, point[1], point[3]), rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "two_j,gen", [(1, "Z"), (2, "Z"), (3, "Y"), (64, "Y"), (2, "X"), (4, "X")]
)
def test_confirming_batch_reproduces_the_polish_values(two_j, gen):
    # find_hl accepts on the values the polish ends on, so they must be
    # exactly those cat_crb_batch gives at the polished points
    import functools

    import spincat.scan as scan_mod

    j, g = SpinJ(two_j), Generator[gen]
    objective = functools.partial(scan_mod._objective, j, g)
    stop = scan_mod._stop_bound(HlSearchSpec(j, g))
    starts, values = scan_mod._seed_starts(objective, 16)
    xs, best = scan_mod._polish(objective, starts, values, stop, two_j % 2 == 0)
    assert cat_objective(j, g, xs).tobytes() == best.tobytes()


def test_find_hl_kernel_traffic(monkeypatch):
    # every kernel call of the search is one _cat_crb_pairs call, recorded
    # as (component points, cats). The seed grid comes first: 72 points and
    # 1,962 cats. At 2j = 1, 2, 16 and 64 under Jz it puts all 16 seeds at
    # the limit, so it is the only one. Each Newton step then makes two
    # calls for the seeds still polishing: 12 points and the 14 stencil
    # cats after the centre per seed (no centre is moved at these specs),
    # and 12 points and six trial cats per seed. Over the four find-hl
    # specs of the benchmark's scalar-search campaign (the first four
    # below), (calls, cats) sum to (22, 10108) and the points to 3,000, and
    # every point reported lies within 1e-12 of the limit 1/(2j).
    import spincat.metrology as metrology
    import spincat.scan as scan_mod

    batches = []

    def pairs(j, g, theta, phi, first, second):
        batches.append((len(theta), len(first)))
        return metrology._cat_crb_pairs(j, g, theta, phi, first, second)

    monkeypatch.setattr(scan_mod, "_cat_crb_pairs", pairs)
    campaign = []
    for two_j, gen, traffic in [
        (1, "Z", (1, 1962)),
        (2, "Z", (1, 1962)),
        (3, "Y", (13, 3322)),
        (64, "Y", (7, 2862)),
        (16, "Z", (1, 1962)),
        (64, "Z", (1, 1962)),
    ]:
        batches.clear()
        points = find_hl(HlSearchSpec(SpinJ(two_j), Generator[gen]))
        assert all(abs(p.crb - 1 / two_j) <= 1e-12 for p in points), (two_j, gen)
        assert batches[0] == (72, 1962), (two_j, gen)
        stencils, trials = batches[1::2], batches[2::2]
        assert stencils == [(12 * m, 14 * m) for m in (n // 6 for _, n in trials)], (two_j, gen)
        assert trials == [(12 * m, 6 * m) for m in (n // 6 for _, n in trials)], (two_j, gen)
        assert (len(batches), sum(n for _, n in batches)) == traffic, (two_j, gen)
        campaign += batches
    assert sum(m for m, _ in campaign[: 1 + 1 + 13 + 7]) == 3000


@pytest.mark.parametrize("gen,reported", [("X", 2), ("Y", 1)])
def test_find_hl_kernel_traffic_at_an_odd_spin_and_64_seeds(monkeypatch, gen, reported):
    # at 2j = 3 with 64 seeds the polish moves centres, so the stencil
    # shapes of the test above do not hold here; the totals are pinned
    # instead. Under Jx and Jy alike the search makes 75 _cat_crb_pairs
    # calls carrying 11,740 cats and 11,712 component points, and the last
    # 34 of them, a stencil of 30 cats and a trial of 12 per step, serve
    # the two seeds that step along theta = pi and end refused
    import spincat.metrology as metrology
    import spincat.scan as scan_mod

    batches = []

    def pairs(j, g, theta, phi, first, second):
        batches.append((len(theta), len(first)))
        return metrology._cat_crb_pairs(j, g, theta, phi, first, second)

    monkeypatch.setattr(scan_mod, "_cat_crb_pairs", pairs)
    points = find_hl(HlSearchSpec(SpinJ(3), Generator[gen], seeds=64))
    assert len(points) == reported
    assert all(abs(p.crb - 1 / 3) <= 1e-12 for p in points)
    assert batches[0] == (72, 1962)
    assert len(batches) == 75
    assert sum(n for _, n in batches) == 11740
    assert sum(m for m, _ in batches) == 11712
    assert [n for _, n in batches[-34:]] == [30, 12] * 17


def test_the_angle_only_tables_are_built_on_first_use():
    # the seed grid's points, pairs and pair map and the stencil's pairs
    # depend on neither j nor G; importing the package and its CLI builds
    # none of them, and the first search builds each once
    src = str(Path(spincat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import spincat, spincat.cli\n"
        "from spincat import scan\n"
        "tables = (scan._seed_grid, scan._stencil_pairs)\n"
        "print(*(t.cache_info().currsize for t in tables))\n"
        "scan.find_hl(scan.HlSearchSpec(spincat.SpinJ(3), spincat.Generator.Y, seeds=2))\n"
        "print(*(t.cache_info().currsize for t in tables))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 0", "1 1"]


@pytest.mark.parametrize("gen", [Generator.X, Generator.Y], ids=lambda g: g.name)
@pytest.mark.parametrize("two_j", [3, 4, 16])
def test_no_seed_crawls_short_of_the_limit(two_j, gen):
    # 64 seeds: every point accepted lies at the limit, not merely within
    # the acceptance slack, as points a coordinate descent left crawling in
    # a valley off the axes did
    points = find_hl(HlSearchSpec(SpinJ(two_j), gen, seeds=64))
    assert points
    assert all(p.crb * two_j - 1 <= 1e-12 for p in points)


@pytest.mark.parametrize("gen", [Generator.X, Generator.Y], ids=lambda g: g.name)
def test_spin_one_seeds_reflect_through_the_south_pole_to_the_limit(gen):
    # at 2j = 2 some of 64 seeds start at theta = pi with the bound falling
    # past it; at even 2j (2 pi - theta, phi + pi) is the same state, so
    # they step through it to the limit, where a coordinate descent left
    # them up to 1.1e-4 above it
    points = find_hl(HlSearchSpec(SpinJ(2), gen, seeds=64))
    assert max(p.crb * 2 - 1 for p in points) <= 1e-12


# the unit vector of G's axis, and of a coherent state's (theta, phi)
_AXES = {Generator.X: (1.0, 0.0, 0.0), Generator.Y: (0.0, 1.0, 0.0), Generator.Z: (0.0, 0.0, 1.0)}


def _direction(theta, phi):
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


@pytest.mark.parametrize("gen", list(Generator), ids=lambda g: g.name)
@pytest.mark.parametrize("two_j", [3, 4, 5, 16, 64])
def test_points_found_at_2j_of_3_or_more_sit_at_opposite_poles(two_j, gen):
    # for 2j >= 3 the limit holds only with the components at opposite
    # poles of G's axis; tilting one by delta costs ((N - 1)/(2N)) delta^2
    # of F/N^2, so a bound within a relative 1e-12 of the limit leaves each
    # component within about 2.4e-6 of its pole
    axis = np.array(_AXES[gen])
    points = find_hl(HlSearchSpec(SpinJ(two_j), gen, seeds=64))
    assert points
    for p in points:
        n1, n2 = _direction(p.theta1, p.phi1), _direction(p.theta2, p.phi2)
        pole = math.copysign(1.0, n1 @ axis) * axis
        assert np.abs(n1 - pole).max() <= 3e-6, p
        assert np.abs(n2 + pole).max() <= 3e-6, p


@pytest.mark.parametrize("gen", list(Generator), ids=lambda g: g.name)
def test_points_found_at_spin_half_have_no_bloch_component_along_the_axis(gen):
    # at 2j = 1, F = 1 - (2 <G>)^2: a bound within a relative 1e-12 of the
    # limit leaves |<G>| below about 7e-7
    j = SpinJ(1)
    points = find_hl(HlSearchSpec(j, gen, seeds=64))
    assert points
    for p in points:
        state = cat_state(CatParams(j, CoherentParams(p.theta1, p.phi1), CoherentParams(p.theta2, p.phi2)))
        v = state.amplitudes
        assert abs(np.vdot(v, gen.matrix(j) @ v).real) <= 1e-6, p
