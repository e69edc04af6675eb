"""Exact laws of the batched kernel: its three symmetries, the Heisenberg
limit no bound goes below, the conditions for reaching it, and the
antipodal Jz line, where the limit holds at the poles only (2j >= 3) or
along the whole line (2j = 2, where Jx and Jy reach it at two phases)."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spincat import (
    CatParams,
    ClosedFormCase,
    CoherentParams,
    Generator,
    SpinJ,
    build_operators,
    cat_crb,
    cat_crb_batch,
    cat_state,
    closed_form,
    coherent_overlap,
)

TWO_JS = [1, 2, 3, 16, 64]
thetas = st.floats(min_value=0.0, max_value=math.pi)
phis = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)
shifts = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


def _well_conditioned(j, t1, t2, p1, p2, qfi) -> bool:
    # the kernel's rounding grows as the two components cancel and as the
    # information nears zero; the 1e-12 comparisons hold away from both
    overlap = coherent_overlap(j, CoherentParams(t1, p1), CoherentParams(t2, p2))
    return 2 + 2 * overlap.real >= 0.1 and qfi >= 1e-4 * j.two_j**2


@pytest.mark.parametrize("two_j", TWO_JS)
@pytest.mark.parametrize("gen", list(Generator))
@given(t1=thetas, p1=phis, t2=thetas, p2=phis)
def test_swapping_the_components_is_bit_exact(two_j, gen, t1, p1, t2, p2):
    j = SpinJ(two_j)
    forward = cat_crb_batch(j, gen, t1, t2, p1, p2)
    swapped = cat_crb_batch(j, gen, t2, t1, p2, p1)
    for a, b in zip(forward, swapped):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("two_j", TWO_JS)
@given(t1=thetas, p1=phis, t2=thetas, p2=phis, shift=shifts)
def test_a_common_phase_shift_leaves_jz_unchanged(two_j, t1, p1, t2, p2, shift):
    j = SpinJ(two_j)
    qfi, _, degenerate = cat_crb_batch(j, Generator.Z, t1, t2, p1, p2)
    qfi_shifted, _, degenerate_shifted = cat_crb_batch(
        j, Generator.Z, t1, t2, p1 + shift, p2 + shift
    )
    assert degenerate == degenerate_shifted
    assume(not degenerate and _well_conditioned(j, t1, t2, p1, p2, qfi))
    assert qfi_shifted == pytest.approx(qfi, rel=1e-12, abs=0)


@pytest.mark.parametrize("two_j", TWO_JS)
@pytest.mark.parametrize("gen", list(Generator))
@given(t1=thetas, p1=phis, t2=thetas, p2=phis)
def test_a_common_pi_shift_leaves_every_generator_unchanged(two_j, gen, t1, p1, t2, p2):
    # a rotation by pi about z maps Jx, Jy to -Jx, -Jy, and F(-G) = F(G);
    # find_hl's seed grid spans half the phi1 range because of it
    j = SpinJ(two_j)
    qfi, _, degenerate = cat_crb_batch(j, gen, t1, t2, p1, p2)
    qfi_shifted, _, degenerate_shifted = cat_crb_batch(
        j, gen, t1, t2, p1 + math.pi, p2 + math.pi
    )
    assert degenerate == degenerate_shifted
    assume(not degenerate and _well_conditioned(j, t1, t2, p1, p2, qfi))
    assert qfi_shifted == pytest.approx(qfi, rel=1e-12, abs=0)


def test_a_cancelling_cat_is_not_well_conditioned():
    # the pi-shift law's old filter, qfi > 1e-6, let this cat through, and
    # its shifted qfi differs by a relative 2.56e-12; its squared norm
    # 2 + 2 Re<1|2> is 2.75e-4, so the two components all but cancel
    j = SpinJ(2)
    t1 = t2 = 3.125
    p1, p2 = 3.11328125, 4.683917990160227
    qfi, _, degenerate = cat_crb_batch(j, Generator.Z, t1, t2, p1, p2)
    assert not degenerate and qfi > 1e-6
    assert not _well_conditioned(j, t1, t2, p1, p2, qfi)


@pytest.mark.parametrize("two_j", TWO_JS)
@given(t1=thetas, p1=phis, t2=thetas, p2=phis)
def test_jy_is_jx_a_quarter_turn_back(two_j, t1, p1, t2, p2):
    j = SpinJ(two_j)
    qfi_y, _, degenerate_y = cat_crb_batch(j, Generator.Y, t1, t2, p1, p2)
    qfi_x, _, degenerate_x = cat_crb_batch(
        j, Generator.X, t1, t2, p1 - math.pi / 2, p2 - math.pi / 2
    )
    assert degenerate_y == degenerate_x
    assume(not degenerate_y and _well_conditioned(j, t1, t2, p1, p2, qfi_y))
    assert qfi_x == pytest.approx(qfi_y, rel=1e-12, abs=0)


# the three axes together: with N = 2j, sum_a Var(J_a) = j(j + 1) - |<J>|^2
# gives F_x + F_y + F_z = N(N + 2) - 4|<J>|^2, and 0 <= |<J>| <= j bounds
# the sum by 2N and N(N + 2). On 3,000 random cats at each 2j in TWO_JS the
# law held to 1.2e-15 relative to N(N + 2), and to 1e-15 on cats whose
# components cancel down to a squared norm of 4e-12; 1e-14 leaves a
# eightfold margin
AXIS_SUM_TOL = 1e-14


def _axis_sum(j, t1, t2, p1, p2) -> tuple[float, bool]:
    """F_x + F_y + F_z of one cat through cat_crb_batch, and whether it is
    degenerate."""
    results = [cat_crb_batch(j, g, t1, t2, p1, p2) for g in Generator]
    return math.fsum(float(qfi) for qfi, _, _ in results), bool(results[0][2])


def _mean_spin(j, t1, t2, p1, p2) -> np.ndarray:
    # <J> from the cat's Dicke amplitudes and the dense spin matrices, a
    # path apart from the batched kernel's
    v = cat_state(CatParams(j, CoherentParams(t1, p1), CoherentParams(t2, p2))).amplitudes
    ops = build_operators(j)
    return np.array([np.vdot(v, m @ v).real for m in (ops.jx, ops.jy, ops.jz)])


@pytest.mark.parametrize("two_j", TWO_JS)
@given(t1=thetas, p1=phis, t2=thetas, p2=phis)
def test_the_three_axes_sum_to_n_n_plus_2_less_four_mean_spin_squared(two_j, t1, p1, t2, p2):
    j = SpinJ(two_j)
    top = two_j * (two_j + 2)
    total, degenerate = _axis_sum(j, t1, t2, p1, p2)
    assume(not degenerate)
    spin = _mean_spin(j, t1, t2, p1, p2)
    assert total == pytest.approx(top - 4 * spin @ spin, rel=0, abs=AXIS_SUM_TOL * top)
    assert 2 * two_j - AXIS_SUM_TOL * top <= total <= top * (1 + AXIS_SUM_TOL)


@given(t1=thetas, p1=phis, t2=thetas, p2=phis)
def test_spin_half_axes_sum_to_two(t1, p1, t2, p2):
    # every pure spin-1/2 state has |<J>| = 1/2, so F_x + F_y + F_z = 2;
    # with F_g = 1 - (2 <G>)^2 the limit F_g = 1 holds exactly where the
    # Bloch vector is orthogonal to G's axis
    total, degenerate = _axis_sum(SpinJ(1), t1, t2, p1, p2)
    assume(not degenerate)
    assert total == pytest.approx(2.0, rel=0, abs=3 * AXIS_SUM_TOL)


# no pure state has F_Q = 4 Var(G) above (2j)^2, so crb 2j >= 1; find_hl
# stops polishing a seed within 1e-12 of the limit, which holds only while
# the kernels' roundoff below it stays far smaller (it is at most 2.2e-16)
HL_ROUNDOFF = 1e-14


def _assert_not_below_the_limit(two_j, crb):
    finite = np.isfinite(crb)
    assert (crb[finite] * two_j >= 1 - HL_ROUNDOFF).all(), np.min(crb[finite]) * two_j


def _seed_grid():
    thetas = math.pi * np.arange(9) / 8
    phis = math.pi * np.arange(8) / 4
    return np.stack(np.meshgrid(thetas, thetas, phis[:4], phis, indexing="ij"), axis=-1).reshape(-1, 4)


def _random_points(rng, n):
    return np.column_stack(
        [rng.uniform(0, math.pi, (n, 2)), rng.uniform(0, 2 * math.pi, (n, 2))]
    )


@pytest.mark.parametrize("two_j", TWO_JS)
@pytest.mark.parametrize("gen", list(Generator))
def test_no_seed_grid_bound_falls_below_the_limit(two_j, gen):
    _, crb, _ = cat_crb_batch(SpinJ(two_j), gen, *_seed_grid().T)
    _assert_not_below_the_limit(two_j, crb)


@pytest.mark.parametrize("two_j", TWO_JS)
@pytest.mark.parametrize("gen", list(Generator))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_no_batch_or_line_bound_falls_below_the_limit(two_j, gen, seed):
    # random cats, then lines along each angle through random cats and
    # through the seed-grid points at the limit, where roundoff decides
    rng = np.random.default_rng(seed)
    j = SpinJ(two_j)
    _, crb, _ = cat_crb_batch(j, gen, *_random_points(rng, 256).T)
    _assert_not_below_the_limit(two_j, crb)
    grid = _seed_grid()
    _, at_grid, _ = cat_crb_batch(j, gen, *grid.T)
    limit = grid[at_grid * two_j <= 1 + 1e-12]
    base = np.concatenate([_random_points(rng, 16), limit[rng.permutation(len(limit))[:16]]])
    for k in range(4):
        top = math.pi if k < 2 else 2 * math.pi
        for values in (rng.uniform(0, top, len(base)), base[:, k] + rng.normal(0, 1e-6, len(base))):
            points = base.copy()
            points[:, k] = np.clip(values, 0, top)
            _, crb, _ = cat_crb_batch(j, gen, *points.T)
            _assert_not_below_the_limit(two_j, crb)


# ---------------------------------------------------------------------------
# the conditions for the Heisenberg limit: F = 4 Var(G) <= N^2 (N = 2j), with
# equality only for the GHZ state along G's axis; for 2j >= 3 a cat of two
# coherent states is that state exactly when its components sit at opposite
# poles of the axis, where any phases the pole leaves free do not matter

HL_TWO_JS = [3, 4, 16, 64]

# the (theta, phi) of each pole of G's axis; None where phi is free
POLES = {
    Generator.X: ((math.pi / 2, 0.0), (math.pi / 2, math.pi)),
    Generator.Y: ((math.pi / 2, math.pi / 2), (math.pi / 2, 3 * math.pi / 2)),
    Generator.Z: ((0.0, None), (math.pi, None)),
}


def _both_kernels(j, gen, t1, t2, p1, p2) -> list[float]:
    """qfi of one cat through cat_crb and through cat_crb_batch."""
    one = cat_crb(CatParams(j, CoherentParams(t1, p1), CoherentParams(t2, p2)), gen).qfi
    return [one, float(cat_crb_batch(j, gen, t1, t2, p1, p2)[0])]


def _ghz(gen, p1, p2, swap):
    # the cat with its components at opposite poles of gen's axis, free
    # phases p1 and p2 where the pole leaves phi free, in either order
    (t1, q1), (t2, q2) = POLES[gen][::-1] if swap else POLES[gen]
    return t1, t2, p1 if q1 is None else q1, p2 if q2 is None else q2


@pytest.mark.parametrize("two_j", HL_TWO_JS)
@pytest.mark.parametrize("gen", list(Generator), ids=lambda g: g.name)
@pytest.mark.parametrize("swap", [False, True])
@settings(max_examples=10)
@given(p1=phis, p2=phis)
def test_components_at_opposite_poles_reach_the_limit(two_j, gen, swap, p1, p2):
    j = SpinJ(two_j)
    for qfi in _both_kernels(j, gen, *_ghz(gen, p1, p2, swap)):
        assert qfi / two_j**2 == pytest.approx(1.0, rel=0, abs=1e-15)


@pytest.mark.parametrize("two_j", HL_TWO_JS)
@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize(
    "gen,angle",
    [(Generator.X, 0), (Generator.X, 2), (Generator.Y, 0), (Generator.Y, 2), (Generator.Z, 0)],
    ids=["X-theta1", "X-phi1", "Y-theta1", "Y-phi1", "Z-theta1"],
)
def test_a_tilt_off_the_pole_costs_a_second_order_loss(two_j, gen, swap, angle):
    # tilting the first component by delta along theta, or along phi where
    # it lies on the equator (phi is free at the poles of z), gives
    # 1 - F/N^2 = ((N - 1)/(2N)) delta^2 to leading order; at delta = 1e-3
    # the next order is a relative 1e-6
    delta = 1e-3
    point = list(_ghz(gen, 0.4, 2.9, swap))
    point[angle] += delta if point[angle] < math.pi else -delta
    want = (two_j - 1) / (2 * two_j) * delta**2
    for qfi in _both_kernels(SpinJ(two_j), gen, *point):
        assert 1 - qfi / two_j**2 == pytest.approx(want, rel=1e-6, abs=0)


@pytest.mark.parametrize("gen", list(Generator), ids=lambda g: g.name)
@settings(max_examples=50)
@given(t1=thetas, t2=thetas, p1=phis, p2=phis)
def test_spin_half_information_is_one_less_the_squared_bloch_component(gen, t1, t2, p1, p2):
    # at 2j = 1, F = 4 Var(G) = 1 - (2 <G>)^2, so the limit F = 1 holds
    # exactly where the cat's Bloch vector is orthogonal to G's axis
    j = SpinJ(1)
    p, q = CoherentParams(t1, p1), CoherentParams(t2, p2)
    assume(2 + 2 * coherent_overlap(j, p, q).real >= 0.1)
    v = cat_state(CatParams(j, p, q)).amplitudes
    bloch = 2 * np.vdot(v, gen.matrix(j) @ v).real
    for qfi in _both_kernels(j, gen, t1, t2, p1, p2):
        assert qfi == pytest.approx(1 - bloch**2, rel=0, abs=1e-12)


# theta1 across [0, pi] on the line theta2 = pi - theta1, phi2 = phi1 + pi;
# index 50 is the equator
LINE = np.linspace(0.0, math.pi, 101)


@pytest.mark.parametrize("phi1", [0.0, 1.3])
def test_antipodal_jz_line_is_heisenberg_limited_at_spin_one(phi1):
    _, crb, degenerate = cat_crb_batch(
        SpinJ(2), Generator.Z, LINE, math.pi - LINE, phi1, phi1 + math.pi
    )
    assert not degenerate.any()
    np.testing.assert_allclose(crb, 0.5, rtol=1e-15, atol=0)
    for theta1 in LINE:
        bound = closed_form(ClosedFormCase.ONE_Z_PHIPI, theta1=theta1, theta2=math.pi - theta1)
        assert bound == pytest.approx(0.5, rel=1e-15, abs=0)


# at 2j = 2 the antipodal cat (theta1, pi - theta1, phi1, phi1 + pi) is
# |1> + e^{2 i phi1} |-1> up to a phase, whatever theta1, so F_z = 4, and
# with <J> = 0, F_x = 4 <Jx^2> = 4 cos^2 phi1 and F_y = 4 sin^2 phi1: the
# limit holds under Jx where phi1 is 0 or pi, and under Jy where it is
# pi/2 or 3 pi/2. On 200,000 random antipodal cats through cat_crb_batch
# and 3,000 through cat_crb each law held to 1.4e-15 in F/4, and F = 4 at
# those phases to 5.6e-16
SPIN_ONE_LIMIT_PHASES = {
    Generator.Z: phis,
    Generator.X: st.sampled_from([0.0, math.pi]),
    Generator.Y: st.sampled_from([math.pi / 2, 3 * math.pi / 2]),
}


@pytest.mark.parametrize("gen", list(Generator), ids=lambda g: g.name)
@given(data=st.data(), t1=thetas)
def test_antipodal_cats_reach_the_limit_at_spin_one(gen, data, t1):
    p1 = data.draw(SPIN_ONE_LIMIT_PHASES[gen], label="phi1")
    for qfi in _both_kernels(SpinJ(2), gen, t1, math.pi - t1, p1, p1 + math.pi):
        assert qfi / 4 == pytest.approx(1.0, rel=0, abs=1e-15)


@given(t1=thetas, p1=phis)
def test_antipodal_cats_at_spin_one_give_jx_and_jy_by_their_phase(t1, p1):
    # a rotation of the Jz limit line is not a limit line of Jx or Jy: of
    # its cats only those at the two phases above reach F = 4
    j = SpinJ(2)
    for gen, want in ((Generator.X, math.cos(p1) ** 2), (Generator.Y, math.sin(p1) ** 2)):
        for qfi in _both_kernels(j, gen, t1, math.pi - t1, p1, p1 + math.pi):
            assert qfi / 4 == pytest.approx(want, rel=0, abs=1e-14)


@pytest.mark.parametrize("two_j", [3, 4, 16])
@pytest.mark.parametrize("phi1", [0.0, 1.3])
def test_antipodal_jz_line_reaches_the_limit_only_at_the_poles(two_j, phi1):
    _, crb, degenerate = cat_crb_batch(
        SpinJ(two_j), Generator.Z, LINE, math.pi - LINE, phi1, phi1 + math.pi
    )
    assert not degenerate.any()
    scaled = crb * two_j
    # the poles: a N00N state, crb = 1/(2j)
    assert scaled[0] == pytest.approx(1.0, rel=1e-15, abs=0)
    assert scaled[-1] == pytest.approx(1.0, rel=1e-15, abs=0)
    # inside, above the limit; the least excess, next to the poles, is 3.3e-4
    assert (scaled[1:-1] > 1 + 1e-4).all()
    # the equator: the standard quantum limit, crb = 1/sqrt(2j)
    assert crb[50] == pytest.approx(1 / math.sqrt(two_j), rel=3.4e-16, abs=0)


@pytest.mark.parametrize("two_j,peak", [(3, math.sqrt(3)), (4, 2.0), (16, 4.0)])
@pytest.mark.parametrize("phi1", [0.0, 1.3])
def test_antipodal_jz_line_peaks_at_the_equator(two_j, peak, phi1):
    # crb 2j rises from the Heisenberg limit at each pole to its largest
    # value, sqrt(2j), at theta1 = pi/2, and the line is symmetric under
    # theta1 -> pi - theta1, which swaps the two components
    _, crb, _ = cat_crb_batch(
        SpinJ(two_j), Generator.Z, LINE, math.pi - LINE, phi1, phi1 + math.pi
    )
    scaled = crb * two_j
    assert int(np.argmax(scaled)) == 50
    assert scaled[50] == pytest.approx(peak, rel=1e-15, abs=0)
    assert (np.diff(scaled[:51]) > 0).all() and (np.diff(scaled[50:]) < 0).all()
    np.testing.assert_allclose(scaled, scaled[::-1], rtol=1e-14, atol=0)
