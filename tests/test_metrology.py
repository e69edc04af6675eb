"""Information engine: evolution, the three routes to the information, bounds."""
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincat import (
    CatParams,
    CoherentParams,
    DegenerateCatError,
    DickeVector,
    Generator,
    ScanSpec,
    SpinJ,
    cat_crb,
    cat_crb_batch,
    cat_state,
    coherent_state,
    crb,
    crb_from_qfi,
    evolve,
    grid_scan,
    normalization,
    qfi_fidelity_oracle,
    qfi_pure,
    qfi_sld_oracle,
)
import spincat.metrology as metrology
from spincat.metrology import FD_STEP_MAX, FD_STEP_MIN, QFI_DIVERGENCE_FLOOR

from support import random_cat


def noon(two_j: int) -> DickeVector:
    j = SpinJ(two_j)
    return cat_state(
        CatParams(j, CoherentParams(0.0, 0.0), CoherentParams(math.pi, 0.0))
    )


def richardson_qfi(state, g, step=1e-2) -> float:
    # one halving step cancels the leading O(step^2) truncation term
    return (4.0 * qfi_fidelity_oracle(state, g, step / 2) - qfi_fidelity_oracle(state, g, step)) / 3.0


def test_evolve_zero_is_identity():
    psi = noon(3)
    out = evolve(psi, Generator.Y, 0.0)
    assert np.abs(out.amplitudes - psi.amplitudes).max() < 1e-15


def test_evolve_jz_phase_pattern():
    j = SpinJ(2)
    psi = cat_state(CatParams(j, CoherentParams(1.0, 0.4), CoherentParams(2.0, 1.1)))
    xi = 0.7
    out = evolve(psi, Generator.Z, xi)
    direct = psi.amplitudes * np.exp(1j * xi * np.array([-1.0, 0.0, 1.0]))
    assert np.abs(out.amplitudes - direct).max() < 1e-14


def test_evolve_composes_and_preserves_norm():
    psi = noon(4)
    a = evolve(evolve(psi, Generator.X, 0.3), Generator.X, 0.5)
    b = evolve(psi, Generator.X, 0.8)
    assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12
    assert abs(np.vdot(a.amplitudes, a.amplitudes).real - 1.0) < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 4, 10])
def test_noon_reaches_heisenberg_information(two_j):
    j = two_j / 2
    got = qfi_pure(noon(two_j), Generator.Z)
    assert got == pytest.approx(4 * j * j, rel=1e-12)


def test_generator_eigenstate_has_zero_information():
    j = SpinJ(3)
    pole = coherent_state(j, CoherentParams(0.0, 0.0))
    q = qfi_pure(pole, Generator.Z)
    assert 0.0 <= q < 1e-20  # residual form cannot go negative
    result = crb_from_qfi(q)
    assert result.divergent
    assert math.isinf(result.crb)


def test_fidelity_oracle_step_window():
    psi = noon(2)
    for bad in (0.0, FD_STEP_MIN / 2, FD_STEP_MAX * 2, -1e-3):
        with pytest.raises(ValueError):
            qfi_fidelity_oracle(psi, Generator.Z, bad)
    # boundary steps are allowed
    qfi_fidelity_oracle(psi, Generator.Z, FD_STEP_MIN)
    qfi_fidelity_oracle(psi, Generator.Z, FD_STEP_MAX)


def test_three_routes_agree_on_random_cats():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cat = random_cat(rng)
        psi = cat_state(cat)
        for g in Generator:
            q = qfi_pure(psi, g)
            assert abs(q - qfi_sld_oracle(psi, g)) < 1e-8
            assert abs(q - richardson_qfi(psi, g)) <= 1e-6 * max(q, 1e-12)


def _seeded_cats(rng, two_j, n):
    # n non-degenerate cats of uniform random angles at spin j = two_j / 2
    j, cats = SpinJ(two_j), []
    while len(cats) < n:
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        p1, p2 = rng.uniform(0.0, 2 * math.pi, 2)
        try:
            cats.append(cat_state(CatParams(j, CoherentParams(t1, p1), CoherentParams(t2, p2))))
        except DegenerateCatError:
            continue
    return cats


def test_the_sld_floor_lies_in_the_gap_of_a_pure_spectrum():
    # qfi_sld_oracle takes pure states only, so rho = |psi><psi| has one
    # eigenvalue 1 and the rest 0 up to roundoff: on these 1,000 cats the
    # largest non-leading |p| is 8.6e-16. Every pair sum is then above 0.5
    # or below 2e-14, and any _SLD_EIG_FLOOR between them gives the same
    # L: at 1e-10 the oracle gave the same bits on these cats under each
    # generator
    rng = np.random.default_rng(40)
    for two_j in (1, 2, 3, 16, 64):
        for psi in _seeded_cats(rng, two_j, 200):
            v = psi.amplitudes
            p = np.linalg.eigh(np.outer(v, v.conj()))[0]
            assert abs(p[-1] - 1.0) <= 1e-14
            assert np.abs(p[:-1]).max() <= 1e-14, two_j
    assert 2e-14 < metrology._SLD_EIG_FLOOR < 0.5


def test_information_is_invariant_along_the_trajectory():
    rng = np.random.default_rng(23)
    cat = random_cat(rng)
    psi = cat_state(cat)
    for g in Generator:
        base = qfi_pure(psi, g)
        for xi in (0.1, 1.0, 3.0):
            moved = qfi_pure(evolve(psi, g, xi), g)
            assert abs(moved - base) < 1e-12 * max(base, 1.0)


def test_global_phase_is_irrelevant():
    psi = noon(5)
    rotated = DickeVector(psi.j, np.exp(0.73j) * psi.amplitudes)
    assert qfi_pure(rotated, Generator.Z) == pytest.approx(
        qfi_pure(psi, Generator.Z), rel=1e-14
    )


def test_information_never_exceeds_heisenberg():
    rng = np.random.default_rng(37)
    for _ in range(50):
        cat = random_cat(rng, max_two_j=12)
        psi = cat_state(cat)
        bound = 4 * cat.j.j ** 2
        for g in Generator:
            assert qfi_pure(psi, g) <= bound * (1 + 1e-12)


def test_bound_conversion_and_divergence_floor():
    assert crb_from_qfi(4.0).crb == 0.5
    assert not crb_from_qfi(4.0).divergent
    assert crb_from_qfi(0.0).divergent
    assert crb_from_qfi(QFI_DIVERGENCE_FLOOR).divergent
    assert not crb_from_qfi(2 * QFI_DIVERGENCE_FLOOR).divergent
    assert math.isinf(crb_from_qfi(1e-16).crb)


def test_chunk_flags_a_cat_at_the_degeneracy_floor_and_not_one_ulp_above():
    # 1e-6 * 1e-6 == 1e-12, so the first cat's norm^2 is the floor itself
    bands = metrology._bands(SpinJ(1), Generator.Z)
    at = np.array([[1e-6, 0.0]], dtype=complex)
    above = np.array([[np.nextafter(1e-6, 1.0), 0.0]], dtype=complex)
    assert metrology._norm_squared(at)[0] == metrology.DEGENERACY_FLOOR
    assert metrology._qfi_chunk(bands, at)[1].tolist() == [True]
    assert metrology._qfi_chunk(bands, above)[1].tolist() == [False]


def test_chunk_loop_diverges_at_the_qfi_floor_and_not_one_ulp_above(monkeypatch):
    above = np.nextafter(QFI_DIVERGENCE_FLOOR, 1.0)
    qfis = np.array([QFI_DIVERGENCE_FLOOR, above])
    monkeypatch.setattr(metrology, "_qfi_chunk", lambda bands, summed: (qfis, np.zeros(2, dtype=bool)))

    def cats(part):
        return np.zeros((2, 2))

    qfi, bound, degenerate = metrology._evaluate(None, 2, (cats, np.arange(2)), (cats, np.arange(2)))
    assert qfi.tolist() == qfis.tolist() and not degenerate.any()
    assert math.isinf(bound[0]) and bound[1] == 1.0 / math.sqrt(above)


def test_crb_entry_points_agree():
    cat = CatParams(
        SpinJ(2), CoherentParams(0.9, 0.2), CoherentParams(2.1, 1.8)
    )
    via_cat = cat_crb(cat, Generator.Y)
    via_state = crb(cat_state(cat), Generator.Y)
    assert via_cat.qfi == pytest.approx(via_state.qfi, rel=1e-14)
    assert via_cat.crb == pytest.approx(via_state.crb, rel=1e-14)


def test_cat_crb_propagates_degeneracy():
    cat = CatParams(
        SpinJ(1), CoherentParams(math.pi, 0.0), CoherentParams(math.pi, math.pi)
    )
    with pytest.raises(DegenerateCatError):
        cat_crb(cat, Generator.Z)


# --- batched kernel against the scalar path ----------------------------------

thetas = st.floats(min_value=0.0, max_value=math.pi)
phis = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)


@pytest.mark.parametrize("two_j", [1, 2, 3, 16, 64])
@pytest.mark.parametrize("gen", list(Generator))
@given(t1=thetas, p1=phis, t2=thetas, p2=phis)
def test_batch_matches_scalar_cat_crb(two_j, gen, t1, p1, t2, p2):
    j = SpinJ(two_j)
    qfi, bound, degenerate = cat_crb_batch(j, gen, [t1], [t2], p1, [p2])
    assert qfi.shape == bound.shape == degenerate.shape == (1,)
    c = CatParams(j, CoherentParams(t1, p1), CoherentParams(t2, p2))
    try:
        ref = cat_crb(c, gen)
    except DegenerateCatError:
        assert degenerate[0]
        assert math.isnan(qfi[0]) and math.isnan(bound[0])
        return
    assert not degenerate[0]
    # one arithmetic for one cat and for a batch: bit for bit at every spin
    # and generator, through the cat's parameters and through its state
    assert (qfi[0].hex(), bound[0].hex()) == (ref.qfi.hex(), ref.crb.hex())
    assert qfi_pure(cat_state(c), gen).hex() == ref.qfi.hex()


def test_batch_broadcasts_and_flags_events():
    theta = np.linspace(0.0, math.pi, 5)
    qfi, bound, degenerate = cat_crb_batch(SpinJ(1), Generator.Z, theta[:, None], theta, 0.0, math.pi)
    assert qfi.shape == bound.shape == degenerate.shape == (5, 5)
    # equal thetas at opposite phases: a Jz eigenstate, or no state at the pole
    assert degenerate[4, 4] and not degenerate[:4, :4].any()
    assert all(math.isinf(bound[i, i]) and qfi[i, i] <= QFI_DIVERGENCE_FLOOR for i in range(4))
    # the pole pair is a N00N state: crb = 1/(2j)
    assert bound[0, 4] == pytest.approx(1.0, abs=1e-12)
    scalar = cat_crb_batch(SpinJ(1), Generator.Z, 0.3, 1.2, 0.1, 2.0)
    assert all(np.ndim(x) == 0 for x in scalar)


@pytest.mark.parametrize(
    "angles",
    [
        # the second cat's (theta1, theta2, phi1, phi2), and the batch's error
        ((math.nan, 1.0, 0.0, 0.0), "theta1 must lie in [0, pi], got nan"),
        ((1.0, -0.01, 0.0, 0.0), "theta2 must lie in [0, pi], got -0.01"),
        (
            (1.0, math.pi + 1e-6, 0.0, 0.0),
            f"theta2 must lie in [0, pi], got {math.pi + 1e-6!r}",
        ),
        ((1.0, 1.0, math.inf, 0.0), "phi1 must be finite, got inf"),
        ((1.0, 1.0, 0.0, math.nan), "phi2 must be finite, got nan"),
        ((math.inf, 1.0, 0.0, 0.0), "theta1 must lie in [0, pi], got inf"),
        ((1.0, -math.inf, 0.0, 0.0), "theta2 must lie in [0, pi], got -inf"),
        # theta2 and phi1 both bad: every theta is checked before any phi
        ((1.0, math.nan, math.inf, 0.0), "theta2 must lie in [0, pi], got nan"),
        ((1.0, 1.0, -math.inf, math.nan), "phi1 must be finite, got -inf"),
    ],
)
def test_batch_rejects_bad_angles(angles):
    (t1, t2, p1, p2), message = angles
    with pytest.raises(ValueError, match=re.escape(message)):
        cat_crb_batch(SpinJ(2), Generator.X, [0.5, t1], [0.5, t2], [0.0, p1], [0.0, p2])
    # the same bad values inside cached components: a (2, 1) x (2,) grid,
    # and a first component constant over the batch
    with pytest.raises(ValueError, match=re.escape(message)):
        cat_crb_batch(
            SpinJ(2), Generator.X, [[0.5], [t1]], [0.5, t2], [[0.0], [p1]], [0.0, p2]
        )
    with pytest.raises(ValueError, match=re.escape(message)):
        cat_crb_batch(SpinJ(2), Generator.X, t1, [0.5, t2], p1, [0.0, p2])
    with pytest.raises(ValueError):
        cat_crb(CatParams(SpinJ(2), CoherentParams(t1, p1), CoherentParams(t2, p2)), Generator.X)


def test_batch_error_names_the_first_bad_value():
    ok = [0.5, 0.5, 0.5]
    with pytest.raises(ValueError, match=r"got 4\.0$"):
        cat_crb_batch(SpinJ(2), Generator.Z, ok, [0.5, 4.0, -1.0], [math.nan] * 3, ok)
    with pytest.raises(ValueError, match=r"got -1\.0$"):
        cat_crb_batch(SpinJ(2), Generator.Z, [0.5, -1.0, 4.0], [9.0] * 3, ok, ok)
    with pytest.raises(ValueError, match=r"got -inf$"):
        cat_crb_batch(SpinJ(2), Generator.Z, ok, ok, [0.5, -math.inf, math.inf], [math.nan] * 3)


def test_batch_clamps_theta_within_slack():
    slack = 1e-10
    a = cat_crb_batch(SpinJ(3), Generator.Y, [-slack], [math.pi + slack], 0.4, 1.1)
    b = cat_crb_batch(SpinJ(3), Generator.Y, [0.0], [math.pi], 0.4, 1.1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


# --- components shared across the batch --------------------------------------

_EDGE_THETAS = [-1e-10, 0.0, 0.7, math.pi / 2, math.pi, math.pi + 1e-10]


def _broadcast_inputs(rng, n: int, wide: int) -> dict:
    """Angle inputs that broadcast, by kind. Thetas include both poles and
    the slack band, phases need reducing, and all but the grid pair theta
    = pi components at phases pi apart."""
    col = np.array(_EDGE_THETAS)[:, None]
    row = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, n - 2)])
    full = np.concatenate([row[None, :], rng.uniform(0.0, math.pi, (5, n))])
    wide = np.concatenate([[math.pi], rng.uniform(0.0, math.pi, wide - 1)])
    phase_col = rng.uniform(-9.0, 9.0, (len(_EDGE_THETAS), 1))
    return {
        "grid": (col, row, phase_col, rng.uniform(-9.0, 9.0, n)),
        "scalar phases": (col, row, 0.0, math.pi),
        "constant component": (math.pi, full, 0.0, math.pi + 4 * math.pi),
        "column over many rows": (col, wide, 0.3, [0.3 + math.pi]),
    }


@pytest.mark.parametrize("amplitudes", [metrology.BATCH_AMPLITUDES, 7])
@pytest.mark.parametrize("two_j", [1, 2, 3, 16])
@pytest.mark.parametrize("gen", list(Generator))
def test_batch_on_broadcast_components_matches_materialized_inputs(
    monkeypatch, amplitudes, two_j, gen
):
    monkeypatch.setattr(metrology, "BATCH_AMPLITUDES", amplitudes)
    j = SpinJ(two_j)
    # the last kind's second component spans more than one chunk
    inputs = _broadcast_inputs(np.random.default_rng(two_j), 9, metrology.batch_cells(j) + 5)
    for kind, args in inputs.items():
        copies = [np.array(a) for a in np.broadcast_arrays(*map(np.asarray, args))]
        got = cat_crb_batch(j, gen, *args)
        want = cat_crb_batch(j, gen, *copies)
        for x, y in zip(got, want):
            assert x.shape == y.shape == copies[0].shape, kind
            assert x.tobytes() == y.tobytes(), kind
        # at theta = pi the phases pi apart cancel for odd 2j only
        assert got[2].any() == (kind != "grid" and two_j % 2 == 1), kind


def test_batch_expands_each_broadcast_component_once(monkeypatch):
    expanded, phis = [], []
    rows = metrology._coherent_rows

    def counting(t, theta, phi):
        expanded.append(np.broadcast(theta, phi).size)
        phis.append(np.size(phi))
        return rows(t, theta, phi)

    monkeypatch.setattr(metrology, "_coherent_rows", counting)
    theta = np.linspace(0.0, math.pi, 40)
    # (10, 1) x (40,): 10 + 40 coherent states, not 2 * 400
    cat_crb_batch(SpinJ(2), Generator.Y, theta[:10, None], theta, 0.5, 1.5)
    assert sorted(expanded) == [10, 40]
    expanded.clear()
    # no component is shared: each is one table of its own 40 points
    cat_crb_batch(SpinJ(2), Generator.Y, theta, theta[::-1], 0.5, theta)
    assert expanded == [40, 40]
    expanded.clear()
    # the second component spans more than one chunk but fits the table
    step = metrology.batch_cells(SpinJ(2))
    wide = np.linspace(0.0, math.pi, step + 1)
    cat_crb_batch(SpinJ(2), Generator.Y, theta[:3, None], wide, 0.5, 1.5)
    assert expanded == [3, step + 1]
    expanded.clear()
    phis.clear()
    # with a table of one chunk the second component no longer fits: it is
    # expanded chunk by chunk, and its one phi2 once per chunk, not per cat
    monkeypatch.setattr(metrology, "_TABLE_CHUNKS", 1)
    cat_crb_batch(SpinJ(2), Generator.Y, theta[:3, None], wide, 0.5, 1.5)
    assert expanded == [3, step, step, step, 3]
    assert phis == [1] * 5


def _counting_phases(monkeypatch) -> list:
    # the number of phis each _phases call of _coherent_rows expands
    import spincat.coherent as coherent

    rows = []
    phases = coherent._phases

    def counting(t, phi):
        rows.append(np.size(phi))
        return phases(t, phi)

    monkeypatch.setattr(coherent, "_phases", counting)
    return rows


def test_a_scan_at_large_spin_expands_each_fixed_phase_once_per_block(monkeypatch):
    # at 2j = 64 a chunk holds 63 cats, so a 201-point scan goes to the
    # kernel one row at a time, (1, 1) x (201,): the theta2 axis spans four
    # chunks but fits one table, whose one phi2 is expanded once per block,
    # not once per cat. 201 blocks expand 2 phis each, where 202 each were
    # expanded
    rows = _counting_phases(monkeypatch)
    spec = ScanSpec(SpinJ(64), Generator.X, 0.0, 0.5, resolution=201)
    got = grid_scan(spec)
    assert sum(rows) == 402
    theta = spec.theta_axis()
    want = cat_crb_batch(SpinJ(64), Generator.X, *np.broadcast_arrays(theta[:, None], theta, 0.0, 0.5))
    assert got.values.tobytes() == want[1].tobytes()
    assert got.degenerate.tobytes() == want[2].tobytes()


def _wide_component_inputs(rng, wide: int) -> dict:
    # (theta1, theta2, phi1, phi2) with one component whose own points span
    # more than one chunk (wide is more than one chunk holds) but fit one
    # table; thetas take both poles, phis values outside [0, 2 pi) that the
    # kernel reduces
    thetas = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, wide - 2)])
    phis = rng.uniform(-9.0, 9.0, wide)
    column = np.array([[-7.5], [0.4], [2 * math.pi]])
    return {
        "theta row, phase scalar": (0.3, thetas, 0.2, 1.1),
        "theta row, phase column": (0.3, thetas[None, :], 0.2, column),
        "theta column, phase row": (np.array([[0.0], [1.2], [math.pi]]), 0.3, phis[None, :], 0.2),
        "phase row, theta scalar": (1.0, 0.3, phis, 0.2),
    }


# (magnitude rows, phase rows) each layout expands at 2j = 64, where a
# chunk holds 63 cats and the wide inputs have 68 points: each component
# is one table, whose factors are each expanded once per point of their
# own input
_WIDE_COMPONENT_ROWS = {
    "theta row, phase scalar": (1 + 68, 1 + 1),
    "theta row, phase column": (1 + 68, 1 + 3),
    "theta column, phase row": (3 + 1, 68 + 1),
    "phase row, theta scalar": (1 + 1, 68 + 1),
}


@pytest.mark.parametrize("layout", sorted(_WIDE_COMPONENT_ROWS))
@pytest.mark.parametrize("two_j", [1, 2, 3, 16, 64])
@pytest.mark.parametrize("gen", list(Generator), ids=lambda g: g.name)
def test_a_component_wider_than_a_chunk_keeps_every_bit(layout, two_j, gen):
    j = SpinJ(two_j)
    args = _wide_component_inputs(np.random.default_rng(two_j), metrology.batch_cells(j) + 5)[layout]
    copies = [np.array(a) for a in np.broadcast_arrays(*map(np.asarray, args))]
    got = cat_crb_batch(j, gen, *args)
    want = cat_crb_batch(j, gen, *copies)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("layout", sorted(_WIDE_COMPONENT_ROWS))
def test_a_component_wider_than_a_chunk_expands_each_factor_once_per_point(monkeypatch, layout):
    import spincat.coherent as coherent

    counts = {"_magnitudes": [], "_phases": []}
    for name, rows in counts.items():
        expand = getattr(coherent, name)

        def counting(t, angle, expand=expand, rows=rows):
            rows.append(np.size(angle))
            return expand(t, angle)

        monkeypatch.setattr(coherent, name, counting)
    j = SpinJ(64)
    assert metrology.batch_cells(j) == 63
    args = _wide_component_inputs(np.random.default_rng(0), 68)[layout]
    cat_crb_batch(j, Generator.Y, *args)
    assert (sum(counts["_magnitudes"]), sum(counts["_phases"])) == _WIDE_COMPONENT_ROWS[layout]


# --- broadcast inputs are checked on their own points -------------------------

# (theta1, theta2, phi1, phi2) shapes; each broadcasts to (3, 4) but the
# last, find_hl's seed grid, whose second component holds 72 points: more
# than one chunk holds at 2j = 64, but one table
_BROADCAST_LAYOUTS = [
    ((3, 1), (4,), (), ()),  # a scan block at fixed phases
    ((3, 1), (4,), (3, 1), (4,)),
    ((), (4,), (), (3, 1)),
    ((3, 4), (4,), (), ()),  # one input already at the batch's shape
    ((1, 4), (3, 1), (3, 4), ()),
    ((9, 1, 1, 1), (1, 9, 1, 1), (1, 1, 4, 1), (1, 1, 1, 8)),
]
_GOOD = {
    "theta": [0.0, 0.7, math.pi, -1e-10, math.pi + 1e-10],
    "phi": [0.0, 1.3, 2 * math.pi, -9.0, 13.0],
}
_BAD = {
    "theta": [math.nan, math.inf, -math.inf, -0.01, math.pi + 1e-6, 4.0],
    "phi": [math.nan, math.inf, -math.inf],
}


def _outcome(j, gen, inputs):
    try:
        return cat_crb_batch(j, gen, *inputs)
    except ValueError as exc:
        return str(exc)


@st.composite
def _broadcast_batches(draw):
    """Broadcasting angle inputs, each holding up to two bad values."""
    layout = draw(st.sampled_from(_BROADCAST_LAYOUTS))
    inputs = []
    for c, shape in enumerate(layout):
        kind = "theta" if c < 2 else "phi"
        size = math.prod(shape)
        cells = draw(st.lists(st.sampled_from(_GOOD[kind]), min_size=size, max_size=size))
        bad = st.tuples(st.integers(0, size - 1), st.sampled_from(_BAD[kind]))
        for i, v in draw(st.lists(bad, max_size=2)):
            cells[i] = v
        inputs.append(cells[0] if shape == () else np.reshape(cells, shape))
    return inputs


@settings(max_examples=300)
@given(_broadcast_batches())
def test_broadcast_inputs_raise_and_reduce_as_materialized_ones(inputs):
    copies = [np.array(a) for a in np.broadcast_arrays(*map(np.asarray, inputs))]
    for two_j in (2, 64):
        got = _outcome(SpinJ(two_j), Generator.X, inputs)
        want = _outcome(SpinJ(two_j), Generator.X, copies)
        if isinstance(want, str):
            assert got == want
        else:
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def test_seed_grid_expands_each_factor_at_its_own_points(monkeypatch):
    # at 2j = 64 a chunk holds 63 cats: the seed grid's (theta1, phi1)
    # component, 36 points, and its (theta2, phi2) component, 72 points,
    # are each one table, whose phases are expanded at the component's own
    # 4 and 8 phis, not at 2,592 cats each
    rows = _counting_phases(monkeypatch)
    thetas, phis = math.pi * np.arange(9) / 8, math.pi * np.arange(8) / 4
    axes = np.ix_(thetas, thetas, phis[:4], phis)
    got = cat_crb_batch(SpinJ(64), Generator.Y, *axes)
    assert metrology.batch_cells(SpinJ(64)) == 63
    assert sorted(rows) == [4, 8]
    rows.clear()
    want = cat_crb_batch(SpinJ(64), Generator.Y, *np.broadcast_arrays(*axes))
    assert sum(rows) == 2 * 9 * 9 * 4 * 8  # both components, chunk by chunk
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


# --- cats as index pairs into one table of component points ---------------


def _random_pairs(two_j: int, n: int):
    # a table of 42 points (theta, phi), thetas at and just past both poles
    # and phases far outside [0, 2 pi), and n cats of random index pairs
    # into it: the first a degenerate cat, both components at the south
    # pole with phases pi/(2j) apart, and the next a point paired with itself
    rng = np.random.default_rng(two_j)
    theta = np.concatenate([[math.pi, math.pi, 0.0, -1e-10, math.pi + 1e-10], rng.uniform(0.0, math.pi, 37)])
    phi = np.concatenate([[0.0, math.pi / two_j, -0.0, 2 * math.pi, -0.5], rng.uniform(-7.0, 13.0, 37)])
    first, second = rng.integers(0, len(theta), (2, n))
    first[:2], second[:2] = (0, 7), (1, 7)
    return theta, phi, first, second


@pytest.mark.parametrize("amplitudes", [metrology.BATCH_AMPLITUDES, 7])
@pytest.mark.parametrize("two_j", [1, 2, 3, 16, 64])
@pytest.mark.parametrize("gen", list(Generator), ids=lambda g: g.name)
def test_pair_entry_matches_the_batch_on_random_cats_and_their_swaps(monkeypatch, amplitudes, two_j, gen):
    # the cat (a, b) of the table is cat_crb_batch's cat at a's and b's
    # angles, bit for bit, and so is the swapped cat (b, a)
    monkeypatch.setattr(metrology, "BATCH_AMPLITUDES", amplitudes)
    j = SpinJ(two_j)
    theta, phi, first, second = _random_pairs(two_j, 300)
    for a, b in ((first, second), (second, first)):
        got = metrology._cat_crb_pairs(j, gen, theta, phi, a, b)
        want = cat_crb_batch(j, gen, theta[a], theta[b], phi[a], phi[b])
        assert [x.tobytes() for x in got] == [y.tobytes() for y in want]
        assert got[2][0] and not got[2][1:].all()


def test_pair_entry_expands_each_point_once(monkeypatch):
    # 300 cats of 42 points at 2j = 3, 4 cats per chunk: one table of 42
    # rows; a table larger than _TABLE_CHUNKS chunks is expanded chunk by
    # chunk instead, two rows per cat, with the same bits
    rows = _counting_phases(monkeypatch)
    monkeypatch.setattr(metrology, "BATCH_AMPLITUDES", 16)
    theta, phi, first, second = _random_pairs(3, 300)
    args = (SpinJ(3), Generator.X, theta, phi, first.reshape(20, 15), second.reshape(20, 15))
    table = metrology._cat_crb_pairs(*args)
    assert rows == [42]
    assert [a.shape for a in table] == [(20, 15)] * 3
    rows.clear()
    monkeypatch.setattr(metrology, "_TABLE_CHUNKS", 10)  # 168 amplitudes > 10 * 16
    chunked = metrology._cat_crb_pairs(*args)
    assert rows == [4] * 2 * 75
    assert [a.tobytes() for a in chunked] == [b.tobytes() for b in table]


def test_pair_entry_checks_its_table_and_skips_an_empty_batch():
    theta, phi = np.array([0.5, 4.0]), np.array([0.0, math.nan])
    for table, message in (((theta, [0.0, 0.0]), "theta must lie in [0, pi], got 4.0"),
                           (([0.5, 0.5], phi), "phi must be finite, got nan")):
        with pytest.raises(ValueError, match=re.escape(message)):
            metrology._cat_crb_pairs(SpinJ(2), Generator.Z, *table, [0], [0])
    empty = np.empty(0, dtype=int)
    out = metrology._cat_crb_pairs(SpinJ(2), Generator.Z, theta, phi, empty, empty)
    assert [a.shape for a in out] == [(0,)] * 3


@pytest.mark.parametrize("layout", _BROADCAST_LAYOUTS)
@pytest.mark.parametrize("position", range(4))
def test_broadcast_error_names_the_first_bad_value_of_each_input(layout, position):
    # two bad values in one input: the first in its own row-major order is
    # the first in broadcast order
    inputs = [np.full(shape, 0.5) for shape in layout]
    first, second = (-1.0, 4.0) if position < 2 else (-math.inf, math.nan)
    flat = inputs[position].reshape(-1)
    flat[-1] = second
    flat[len(flat) // 2] = first
    copies = [np.array(a) for a in np.broadcast_arrays(*inputs)]
    message = _outcome(SpinJ(3), Generator.Z, copies)
    assert message.endswith(f"got {first!r}")
    assert _outcome(SpinJ(3), Generator.Z, inputs) == message


def test_empty_broadcast_batch_is_not_checked():
    for inputs in (
        ([4.0], np.empty(0), 0.0, 0.0),
        ([[math.nan]], np.empty((0, 3)), math.inf, [0.0, 1.0, 2.0]),
    ):
        qfi, bound, degenerate = cat_crb_batch(SpinJ(1), Generator.Z, *inputs)
        shape = np.broadcast(*inputs).shape
        assert qfi.shape == bound.shape == degenerate.shape == shape


# --- each input is clamped or reduced only where a value needs it -----------


def _angle_block() -> np.ndarray:
    # rows (theta1, theta2, phi1, phi2), every value inside its range
    below_two_pi = np.nextafter(2 * math.pi, 0.0)
    return np.array(
        [
            [0.0, 0.7, math.pi, 2.0],
            [math.pi, 1.1, 0.0, 0.3],
            [0.0, 1.3, below_two_pi, 6.0],
            [math.pi, 0.0, 4.0, below_two_pi],
        ]
    )


def _check_each(block: np.ndarray) -> list:
    # each row of the block checked as the kernel checks its own input
    return [metrology._checked(name, row) for name, row in zip(metrology._ANGLES, block)]


def test_checked_leaves_an_in_range_input_unchanged(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.mod or np.clip ran on an input inside its range")

    monkeypatch.setattr(np, "mod", refuse)
    monkeypatch.setattr(np, "clip", refuse)
    block = _angle_block()
    for row, got in zip(block, _check_each(block)):
        assert got.tobytes() == row.tobytes()


@pytest.mark.parametrize("value", [2 * math.pi, -0.5, 7.0])
@pytest.mark.parametrize("row", [2, 3])
def test_checked_reduces_only_the_phase_input_that_needs_it(row, value):
    block = _angle_block()
    block[row, 1] = value
    want = block.copy()
    want[row] = np.mod(want[row], 2 * math.pi)
    # the sibling phase input and both theta inputs keep their bytes
    assert [a.tobytes() for a in _check_each(block)] == [b.tobytes() for b in want]


@pytest.mark.parametrize("value", [-1e-10, math.pi + 1e-10])
@pytest.mark.parametrize("row", [0, 1])
def test_checked_clamps_only_the_theta_input_that_needs_it(row, value):
    block = _angle_block()
    block[row, 1] = value
    want = block.copy()
    want[row] = np.clip(want[row], 0.0, math.pi)
    assert [a.tobytes() for a in _check_each(block)] == [b.tobytes() for b in want]


def test_batch_never_writes_the_callers_arrays():
    # theta in the slack band and phases outside [0, 2 pi), all read-only:
    # accepted, clamped and reduced into new arrays, the inputs' bytes kept
    inputs = [
        np.array([[-1e-10], [0.7], [math.pi + 1e-10]]),
        np.array([math.pi + 1e-10, 1.1, -1e-10, 0.3]),
        np.array([[-0.5], [2 * math.pi], [7.0]]),
        np.array([13.0, -9.0, 1.3, 2 * math.pi]),
    ]
    before = [a.tobytes() for a in inputs]
    for a in inputs:
        a.flags.writeable = False
    got = cat_crb_batch(SpinJ(2), Generator.X, *inputs)
    clamped = [np.clip(a, 0.0, math.pi) for a in inputs[:2]]
    reduced = [np.mod(a, 2 * math.pi) for a in inputs[2:]]
    want = cat_crb_batch(SpinJ(2), Generator.X, *clamped, *reduced)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    assert [a.tobytes() for a in inputs] == before


def test_batch_memory_grows_by_the_outputs_and_gather_indices_only():
    # a 1,001 x 1,001 grid at fixed phases: both components are cached, so
    # beyond its outputs the kernel holds two gather indices and the
    # temporaries of the divergence rule, never a copy of its angles
    theta = np.linspace(0.0, math.pi, 1001)
    cat_crb_batch(SpinJ(1), Generator.Z, theta[:2, None], theta[:2], 0.0, math.pi)
    tracemalloc.start()
    try:
        out = cat_crb_batch(SpinJ(1), Generator.Z, theta[:, None], theta, 0.0, math.pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[0].size == 1001 * 1001
    assert peak / out[0].size <= 50


_PHASES = np.array([-0.0, 0.0, 2 * math.pi, -0.5, 7.0, -9.0, 13.0, 1.3, 6.0])


@pytest.mark.parametrize("two_j", [1, 2, 3, 16, 64])
@pytest.mark.parametrize("gen", list(Generator))
def test_batch_reads_a_phase_and_its_reduction_alike(two_j, gen):
    j = SpinJ(two_j)
    theta = np.linspace(0.0, math.pi, len(_PHASES))
    col, row = theta[:, None], theta
    reduced = np.mod(_PHASES, 2 * math.pi)
    assert reduced[0] == 0.0 and math.copysign(1.0, reduced[0]) == 1.0
    cases = [
        # array phases, then scalar phases paired with a shifted copy
        ((_PHASES[:, None], _PHASES), (reduced[:, None], reduced)),
        *(
            ((a, b), (ra, rb))
            for a, b, ra, rb in zip(_PHASES, np.roll(_PHASES, 1), reduced, np.roll(reduced, 1))
        ),
        # -0.0 and +0.0 in every phase
        ((-0.0, np.full(len(theta), -0.0)), (0.0, np.zeros(len(theta)))),
    ]
    for phases, want_phases in cases:
        want = cat_crb_batch(j, gen, col, row, *want_phases)
        for args in ((col, row, *phases), np.broadcast_arrays(col, row, *phases)):
            got = cat_crb_batch(j, gen, *[np.array(a) for a in args])
            for x, y in zip(got, want):
                assert x.tobytes() == y.tobytes()


# --- the kernel's bits, pinned ------------------------------------------------
# The tests above hold the batch to the scalar path, which shares its
# arithmetic; these literals hold it to itself. They are float.hex of
# cat_crb_batch qfi, recorded before the kernel's per-call overhead was cut,
# at each (2j, G) for the cats of _pinned_cats: one Jz, one Jx and one Jy
# eigenstate (divergent under their own generator), a degenerate cat
# (index 3, nan), a N00N state, and generic cats, the last of them in the
# theta slack band and with phases to reduce.


def _pinned_cats(two_j: int) -> np.ndarray:
    pi = math.pi
    return np.array(
        [
            (0.0, 0.0, 0.0, 0.0),
            (pi / 2, pi / 2, 0.0, 0.0),
            (pi / 2, pi / 2, pi / 2, pi / 2),
            (pi, pi, 0.0, pi / two_j),
            (0.0, pi, 0.0, 0.0),
            (1.0, 1.0, 0.0, pi),
            (0.3, 2.1, 0.7, 4.0),
            (2.5, 0.4, 5.9, 1.3),
            (pi / 8, 7 * pi / 8, pi / 4, pi / 4),
            (-1e-10, pi + 1e-10, -0.5, 7.0),
        ]
    )


_PINNED_QFI = {
    (1, "x"): (
        "0x1.0000000000000p+0 0x1.0000000000000p-105 0x1.0000000000000p+0 "
        "nan 0x1.0000000000000p-105 0x1.0000000000000p+0 "
        "0x1.836860fa71fcap-1 0x1.e67a03af296e1p-4 0x1.0000000000000p-1 "
        "0x1.b9fd944f4d7c9p-2"
    ),
    (1, "y"): (
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.26ef9d0b14ba9p-105 "
        "nan 0x1.ffffffffffffep-1 0x1.0000000000000p+0 "
        "0x1.4133c78761466p-1 0x1.f22cb6ad03de8p-1 0x1.0000000000001p-1 "
        "0x1.230135d85941ap-1"
    ),
    (1, "z"): (
        "0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
        "nan 0x1.ffffffffffffep-1 0x1.73d98cf0aa03fp-108 "
        "0x1.3b63d77e2cbd0p-1 0x1.d10408dd16f3fp-1 0x1.0000000000000p+0 "
        "0x1.ffffffffffffep-1"
    ),
    (2, "x"): (
        "0x1.0000000000001p+1 0x1.8000000000000p-103 0x1.0000000000002p+1 "
        "nan 0x1.0000000000000p+2 0x1.8c4eae7d5b372p+1 "
        "0x1.7f261c8aee188p+0 0x1.43a61542350fep+1 0x1.5d35c52ed4800p+0 "
        "0x1.230135d85941ap+1"
    ),
    (2, "y"): (
        "0x1.0000000000001p+1 0x1.0000000000002p+1 0x1.9377ce858a5d4p-103 "
        "nan 0x1.377ce858a5d4ap-106 0x1.cec5460a93245p-1 "
        "0x1.c6aef16842bd8p+0 0x1.bfa8c036de97dp-1 0x1.5d35c52ed4800p+0 "
        "0x1.b9fd944f4d7c8p+0"
    ),
    (2, "z"): (
        "0x0.0p+0 0x1.0000000000000p+1 0x1.0000000000000p+1 "
        "nan 0x1.ffffffffffffep+1 0x1.33989c1f9c598p+0 "
        "0x1.8975f0f992ae5p+1 0x1.b73ff53ce3f4ap+1 0x1.be98eaeb4868ap+1 "
        "0x1.ffffffffffffdp+1"
    ),
    (3, "x"): (
        "0x1.7ffffffffffffp+1 0x1.0000000000000p-103 0x1.8000000000000p+1 "
        "nan 0x1.8000000000000p+1 0x1.aadb497ef7251p+2 "
        "0x1.9482da8b615b3p+1 0x1.9d1a2b98dbc7dp+1 0x1.39062e33be61ap+1 "
        "0x1.7fffffffffffep+1"
    ),
    (3, "y"): (
        "0x1.7ffffffffffffp+1 0x1.8000000000001p+1 0x1.1d33b5c84f8bep-103 "
        "nan 0x1.7fffffffffffdp+1 0x1.046cff54cf5d0p+0 "
        "0x1.b9c7c1eeb90a6p+1 0x1.8253bac494658p+1 0x1.39062e33be61cp+1 "
        "0x1.7fffffffffffep+1"
    ),
    (3, "z"): (
        "0x0.0p+0 0x1.7ffffffffffffp+1 0x1.7ffffffffffffp+1 "
        "nan 0x1.1ffffffffffffp+3 0x1.54ca1cdf8537cp+1 "
        "0x1.97c500493f77cp+2 0x1.ebc90191d7492p+2 0x1.f65ed954bb9dap+2 "
        "0x1.1ffffffffffffp+3"
    ),
    (16, "x"): (
        "0x1.0000000000000p+4 0x1.5548000000000p-98 0x1.0000000000000p+4 "
        "nan 0x1.ffffffffffffep+3 0x1.73db78f975d2ap+7 "
        "0x1.a81a7c6397800p+5 0x1.a75d487f228b0p+4 0x1.da82461929110p+3 "
        "0x1.fffffffffffffp+3"
    ),
    (16, "y"): (
        "0x1.0000000000000p+4 0x1.0000000000000p+4 0x1.b26fe546a5bbep-94 "
        "nan 0x1.ffffffffffffep+3 0x1.ff047af2c568ep+3 "
        "0x1.cec973cee509dp+5 0x1.2b7af6291d49ap+5 0x1.da82461929108p+3 "
        "0x1.fffffffffffffp+3"
    ),
    (16, "z"): (
        "0x0.0p+0 0x1.0000000000000p+4 0x1.0000000000000p+4 "
        "nan 0x1.ffffffffffffep+7 0x1.6b30e4b9ad2ddp+3 "
        "0x1.1e3b8603aad84p+7 0x1.83cdbafa99ad3p+7 0x1.b9b49e528532dp+7 "
        "0x1.fffffffffffffp+7"
    ),
    (64, "x"): (
        "0x1.0000000000000p+6 0x1.271f4cab51111p-93 0x1.0000000000000p+6 "
        "nan 0x1.ffffffffffffep+5 0x1.6cde76f7d890ep+11 "
        "0x1.59d626113cd38p+9 0x1.05fc168e15100p+8 0x1.da827999fcef8p+5 "
        "0x1.ffffffffffffep+5"
    ),
    (64, "y"): (
        "0x1.0000000000000p+6 0x1.0000000000000p+6 0x1.1f802bcdfff1cp-85 "
        "nan 0x1.ffffffffffffep+5 0x1.ffffffffffff7p+5 "
        "0x1.85033549dbc40p+9 0x1.a9485680b6478p+8 0x1.da827999fceecp+5 "
        "0x1.ffffffffffffep+5"
    ),
    (64, "z"): (
        "0x0.0p+0 0x1.0000000000000p+6 0x1.0000000000000p+6 "
        "nan 0x1.ffffffffffffep+11 0x1.6a88995d4dc88p+5 "
        "0x1.143e2ec10e142p+11 0x1.7daf91c4d3862p+11 0x1.b630df6729f6dp+11 "
        "0x1.ffffffffffffep+11"
    ),
}


@pytest.mark.parametrize("two_j,gen", sorted(_PINNED_QFI))
def test_batch_qfi_bits_are_pinned(two_j, gen):
    qfi, bound, degenerate = cat_crb_batch(SpinJ(two_j), Generator(gen), *_pinned_cats(two_j).T)
    assert [float(q).hex() for q in qfi] == _PINNED_QFI[two_j, gen].split()
    assert degenerate.tolist() == [i == 3 for i in range(10)]
    assert math.isinf(bound["zxy".index(gen)])


# --- the scalar path's bits, pinned ------------------------------------------
# float.hex of cat_crb's qfi/crb and of normalization for the cats of
# _pinned_cats, recorded while cat_crb still built a DickeVector for each
# component and for the cat; "degenerate" marks the cat that raises
# DegenerateCatError. The Jx and Jy entries at 2j >= 3 were recorded again
# when cat_crb left the dense G @ psi for the batch's banded product.

_PINNED_SCALAR = {
    (1, "x"): (
        "0x1.0000000000000p+0/0x1.0000000000000p+0 0x1.0000000000000p-105/inf "
        "0x1.0000000000000p+0/0x1.0000000000000p+0 degenerate 0x1.0000000000000p-105/inf "
        "0x1.0000000000000p+0/0x1.0000000000000p+0 0x1.836860fa71fcap-1/0x1.264ce4e83a2a3p+0 "
        "0x1.e67a03af296e1p-4/0x1.736a22741476bp+1 0x1.0000000000000p-1/0x1.6a09e667f3bccp+0 "
        "0x1.b9fd944f4d7c9p-2/0x1.85a86a4ceb06ap+0"
    ),
    (1, "y"): (
        "0x1.0000000000000p+0/0x1.0000000000000p+0 0x1.0000000000000p+0/0x1.0000000000000p+0 "
        "0x1.26ef9d0b14ba9p-105/inf degenerate 0x1.ffffffffffffep-1/0x1.0000000000001p+0 "
        "0x1.0000000000000p+0/0x1.0000000000000p+0 0x1.4133c78761466p-1/0x1.4335ec6a4df56p+0 "
        "0x1.f22cb6ad03de8p-1/0x1.0387276a543c2p+0 0x1.0000000000001p-1/0x1.6a09e667f3bccp+0 "
        "0x1.230135d85941ap-1/0x1.53910a80e7db6p+0"
    ),
    (1, "z"): (
        "0x0.0p+0/inf 0x1.0000000000000p+0/0x1.0000000000000p+0 "
        "0x1.0000000000000p+0/0x1.0000000000000p+0 degenerate "
        "0x1.ffffffffffffep-1/0x1.0000000000001p+0 0x1.73d98cf0aa03fp-108/inf "
        "0x1.3b63d77e2cbd0p-1/0x1.462cdc1436915p+0 0x1.d10408dd16f3fp-1/0x1.0c9f2865ed74bp+0 "
        "0x1.0000000000000p+0/0x1.0000000000000p+0 0x1.ffffffffffffep-1/0x1.0000000000001p+0"
    ),
    (2, "x"): (
        "0x1.0000000000001p+1/0x1.6a09e667f3bccp-1 0x1.8000000000000p-103/inf "
        "0x1.0000000000002p+1/0x1.6a09e667f3bcbp-1 degenerate "
        "0x1.0000000000000p+2/0x1.0000000000000p-1 0x1.8c4eae7d5b372p+1/0x1.22fa265958a7cp-1 "
        "0x1.7f261c8aee188p+0/0x1.a282a40f7b3c2p-1 0x1.43a61542350fep+1/0x1.41fc9a34817ebp-1 "
        "0x1.5d35c52ed4800p+0/0x1.b660352fbff9ap-1 0x1.230135d85941ap+1/0x1.53910a80e7db6p-1"
    ),
    (2, "y"): (
        "0x1.0000000000001p+1/0x1.6a09e667f3bccp-1 0x1.0000000000002p+1/0x1.6a09e667f3bcbp-1 "
        "0x1.9377ce858a5d4p-103/inf degenerate 0x1.377ce858a5d4ap-106/inf "
        "0x1.cec5460a93245p-1/0x1.0d45c520cf28dp+0 0x1.c6aef16842bd8p+0/0x1.802e3a7fc04a3p-1 "
        "0x1.bfa8c036de97dp-1/0x1.11c798814bc91p+0 0x1.5d35c52ed4800p+0/0x1.b660352fbff9ap-1 "
        "0x1.b9fd944f4d7c8p+0/0x1.85a86a4ceb06bp-1"
    ),
    (2, "z"): (
        "0x0.0p+0/inf 0x1.0000000000000p+1/0x1.6a09e667f3bccp-1 "
        "0x1.0000000000000p+1/0x1.6a09e667f3bccp-1 degenerate "
        "0x1.ffffffffffffep+1/0x1.0000000000001p-1 0x1.33989c1f9c598p+0/0x1.d316bf7415e1ep-1 "
        "0x1.8975f0f992ae5p+1/0x1.240720bd702b5p-1 0x1.b73ff53ce3f4ap+1/0x1.1463523e4a1d2p-1 "
        "0x1.be98eaeb4868ap+1/0x1.121ade2b0a0d2p-1 0x1.ffffffffffffdp+1/0x1.0000000000001p-1"
    ),
    (3, "x"): (
        "0x1.7ffffffffffffp+1/0x1.279a74590331dp-1 0x1.0000000000000p-103/inf "
        "0x1.8000000000000p+1/0x1.279a74590331dp-1 degenerate "
        "0x1.8000000000000p+1/0x1.279a74590331dp-1 0x1.aadb497ef7251p+2/0x1.8c81586eb8f30p-2 "
        "0x1.9482da8b615b3p+1/0x1.2002ec0084ea6p-1 0x1.9d1a2b98dbc7dp+1/0x1.1d0038a723884p-1 "
        "0x1.39062e33be61ap+1/0x1.4767d1b452d7bp-1 0x1.7fffffffffffep+1/0x1.279a74590331dp-1"
    ),
    (3, "y"): (
        "0x1.7ffffffffffffp+1/0x1.279a74590331dp-1 0x1.8000000000001p+1/0x1.279a74590331cp-1 "
        "0x1.1d33b5c84f8bep-103/inf degenerate 0x1.7fffffffffffdp+1/0x1.279a74590331dp-1 "
        "0x1.046cff54cf5d0p+0/0x1.fba17c15c65cfp-1 0x1.b9c7c1eeb90a6p+1/0x1.1398641c1bef7p-1 "
        "0x1.8253bac494658p+1/0x1.26b631eb5da9dp-1 0x1.39062e33be61cp+1/0x1.4767d1b452d79p-1 "
        "0x1.7fffffffffffep+1/0x1.279a74590331dp-1"
    ),
    (3, "z"): (
        "0x0.0p+0/inf 0x1.7ffffffffffffp+1/0x1.279a74590331dp-1 "
        "0x1.7ffffffffffffp+1/0x1.279a74590331dp-1 degenerate "
        "0x1.1ffffffffffffp+3/0x1.5555555555556p-2 0x1.54ca1cdf8537cp+1/0x1.39c8e5c3c238dp-1 "
        "0x1.97c500493f77cp+2/0x1.95add4ada4075p-2 0x1.ebc90191d7492p+2/0x1.71678fbb07ad1p-2 "
        "0x1.f65ed954bb9dap+2/0x1.6d7df3d3dbfd1p-2 0x1.1ffffffffffffp+3/0x1.5555555555556p-2"
    ),
    (16, "x"): (
        "0x1.0000000000000p+4/0x1.0000000000000p-2 0x1.5548000000000p-98/inf "
        "0x1.0000000000000p+4/0x1.0000000000000p-2 degenerate "
        "0x1.ffffffffffffep+3/0x1.0000000000001p-2 0x1.73db78f975d2ap+7/0x1.2c6412722bd5ep-4 "
        "0x1.a81a7c6397800p+5/0x1.1947b5e76a91cp-3 0x1.a75d487f228b0p+4/0x1.8e2320fd9fc38p-3 "
        "0x1.da82461929110p+3/0x1.09ebcc2ba4773p-2 0x1.fffffffffffffp+3/0x1.0000000000001p-2"
    ),
    (16, "y"): (
        "0x1.0000000000000p+4/0x1.0000000000000p-2 0x1.0000000000000p+4/0x1.0000000000000p-2 "
        "0x1.b26fe546a5bbep-94/inf degenerate 0x1.ffffffffffffep+3/0x1.0000000000001p-2 "
        "0x1.ff047af2c568ep+3/0x1.003ef877a2e3ap-2 0x1.cec973cee509dp+5/0x1.0d448de74d772p-3 "
        "0x1.2b7af6291d49ap+5/0x1.4eba1f923044ep-3 0x1.da82461929108p+3/0x1.09ebcc2ba4776p-2 "
        "0x1.fffffffffffffp+3/0x1.0000000000001p-2"
    ),
    (16, "z"): (
        "0x0.0p+0/inf 0x1.0000000000000p+4/0x1.0000000000000p-2 "
        "0x1.0000000000000p+4/0x1.0000000000000p-2 degenerate "
        "0x1.ffffffffffffep+7/0x1.0000000000001p-4 0x1.6b30e4b9ad2ddp+3/0x1.2ff424b0b1579p-2 "
        "0x1.1e3b8603aad84p+7/0x1.5662b544d2bcep-4 0x1.83cdbafa99ad3p+7/0x1.26266d4f8a267p-4 "
        "0x1.b9b49e528532dp+7/0x1.139e5c9011bc0p-4 0x1.fffffffffffffp+7/0x1.0000000000001p-4"
    ),
    (64, "x"): (
        "0x1.0000000000000p+6/0x1.0000000000000p-3 0x1.271f4cab51111p-93/inf "
        "0x1.0000000000000p+6/0x1.0000000000000p-3 degenerate "
        "0x1.ffffffffffffep+5/0x1.0000000000001p-3 0x1.6cde76f7d890ep+11/0x1.2f41029d87093p-6 "
        "0x1.59d626113cd38p+9/0x1.377c98fa869b7p-5 0x1.05fc168e15100p+8/0x1.fa1e42fee089fp-5 "
        "0x1.da827999fcef8p+5/0x1.09ebbdbd2bb42p-3 0x1.ffffffffffffep+5/0x1.0000000000001p-3"
    ),
    (64, "y"): (
        "0x1.0000000000000p+6/0x1.0000000000000p-3 0x1.0000000000000p+6/0x1.0000000000000p-3 "
        "0x1.1f802bcdfff1cp-85/inf degenerate 0x1.ffffffffffffep+5/0x1.0000000000001p-3 "
        "0x1.ffffffffffff7p+5/0x1.0000000000003p-3 0x1.85033549dbc40p+9/0x1.25b154b1206b1p-5 "
        "0x1.a9485680b6478p+8/0x1.8d3d0374e44e8p-5 0x1.da827999fceecp+5/0x1.09ebbdbd2bb45p-3 "
        "0x1.ffffffffffffep+5/0x1.0000000000001p-3"
    ),
    (64, "z"): (
        "0x0.0p+0/inf 0x1.0000000000000p+6/0x1.0000000000000p-3 "
        "0x1.0000000000000p+6/0x1.0000000000000p-3 degenerate "
        "0x1.ffffffffffffep+11/0x1.0000000000001p-6 0x1.6a88995d4dc88p+5/0x1.303aa9620b221p-3 "
        "0x1.143e2ec10e142p+11/0x1.5c8576f0a82b0p-6 "
        "0x1.7daf91c4d3862p+11/0x1.287f8458ec65dp-6 "
        "0x1.b630df6729f6dp+11/0x1.14b8c34de7e00p-6 "
        "0x1.ffffffffffffep+11/0x1.0000000000001p-6"
    ),
}

_PINNED_NORMALIZATION = {
    1: (
        "0x1.0000000000000p-1 0x1.0000000000000p-1 0x1.0000000000000p-1 degenerate "
        "0x1.6a09e667f3bccp-1 0x1.23b5dfbfd97b6p-1 0x1.35fe04bcae2efp-1 0x1.3f049b80def3ep-1 "
        "0x1.33e37a1e0173ep-1 0x1.6a09e667f3bccp-1"
    ),
    2: (
        "0x1.0000000000000p-1 0x1.0000000000000p-1 0x1.0000000000000p-1 degenerate "
        "0x1.6a09e667f3bccp-1 0x1.3e84fef3b3849p-1 0x1.54444953630f7p-1 0x1.61afdece5cddbp-1 "
        "0x1.522026f5f8ccbp-1 0x1.6a09e667f3bccp-1"
    ),
    3: (
        "0x1.0000000000000p-1 0x1.0000000000000p-1 0x1.0000000000000p-1 degenerate "
        "0x1.6a09e667f3bccp-1 0x1.50795b9f15703p-1 0x1.61b0b82eb1347p-1 0x1.6b365bed1d324p-1 "
        "0x1.604d20ec8f96cp-1 0x1.6a09e667f3bccp-1"
    ),
    16: (
        "0x1.0000000000000p-1 0x1.0000000000001p-1 0x1.0000000000001p-1 degenerate "
        "0x1.6a09e667f3bccp-1 0x1.6a0774b0ce534p-1 0x1.6a09e5afbf153p-1 0x1.6a09e6d7ce966p-1 "
        "0x1.6a09e3e57160bp-1 0x1.6a09e667f3bccp-1"
    ),
    64: (
        "0x1.0000000000000p-1 0x1.0000000000003p-1 0x1.0000000000003p-1 degenerate "
        "0x1.6a09e667f3bccp-1 0x1.6a09e667f3bbcp-1 0x1.6a09e667f3bccp-1 0x1.6a09e667f3bd0p-1 "
        "0x1.6a09e667f3bd2p-1 0x1.6a09e667f3bccp-1"
    ),
}


def _pinned_scalar(two_j: int, value) -> list[str]:
    """value(cat) for each cat of _pinned_cats, or "degenerate"."""
    j = SpinJ(two_j)
    out = []
    for t1, t2, p1, p2 in _pinned_cats(two_j).tolist():
        try:
            out.append(value(CatParams(j, CoherentParams(t1, p1), CoherentParams(t2, p2))))
        except DegenerateCatError:
            out.append("degenerate")
    return out


@pytest.mark.parametrize("two_j,gen", sorted(_PINNED_SCALAR))
def test_scalar_cat_crb_bits_are_pinned(two_j, gen):
    def value(c):
        r = cat_crb(c, Generator(gen))
        return f"{float(r.qfi).hex()}/{float(r.crb).hex()}"

    assert _pinned_scalar(two_j, value) == _PINNED_SCALAR[two_j, gen].split()


@pytest.mark.parametrize("two_j,gen", sorted(_PINNED_SCALAR))
def test_scalar_and_batch_pins_give_each_cat_one_qfi(two_j, gen):
    # cat_crb and cat_crb_batch share one arithmetic, so the two tables hold
    # one qfi literal per cat; the batch's nan is the scalar "degenerate"
    scalar = [t.split("/")[0].replace("degenerate", "nan") for t in _PINNED_SCALAR[two_j, gen].split()]
    assert scalar == _PINNED_QFI[two_j, gen].split()


@pytest.mark.parametrize("two_j", sorted(_PINNED_NORMALIZATION))
def test_normalization_bits_are_pinned(two_j):
    got = _pinned_scalar(two_j, lambda c: float(normalization(c)).hex())
    assert got == _PINNED_NORMALIZATION[two_j].split()
