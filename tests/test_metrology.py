"""Information engine: evolution, the three routes to the information, bounds."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincat import (
    CatParams,
    CoherentParams,
    DegenerateCatError,
    DickeVector,
    Generator,
    SpinJ,
    cat_crb,
    cat_crb_batch,
    cat_state,
    coherent_state,
    crb,
    crb_from_qfi,
    evolve,
    qfi_fidelity_oracle,
    qfi_pure,
    qfi_sld_oracle,
)
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
    try:
        ref = cat_crb(CatParams(j, CoherentParams(t1, p1), CoherentParams(t2, p2)), gen)
    except DegenerateCatError:
        assert degenerate[0]
        assert math.isnan(qfi[0]) and math.isnan(bound[0])
        return
    assert not degenerate[0]
    assert math.isinf(bound[0]) == ref.divergent
    if ref.divergent:
        assert qfi[0] <= QFI_DIVERGENCE_FLOOR
    else:
        assert qfi[0] == pytest.approx(ref.qfi, rel=1e-12, abs=0)
        assert bound[0] == pytest.approx(ref.crb, rel=1e-12, abs=0)


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
        (math.nan, 1.0, 0.0, 0.0),
        (1.0, -0.01, 0.0, 0.0),
        (1.0, math.pi + 1e-6, 0.0, 0.0),
        (1.0, 1.0, math.inf, 0.0),
        (1.0, 1.0, 0.0, math.nan),
    ],
)
def test_batch_rejects_bad_angles(angles):
    t1, t2, p1, p2 = angles
    with pytest.raises(ValueError):
        cat_crb_batch(SpinJ(2), Generator.X, [0.5, t1], [0.5, t2], [0.0, p1], [0.0, p2])
    with pytest.raises(ValueError):
        cat_crb(CatParams(SpinJ(2), CoherentParams(t1, p1), CoherentParams(t2, p2)), Generator.X)


def test_batch_clamps_theta_within_slack():
    slack = 1e-10
    a = cat_crb_batch(SpinJ(3), Generator.Y, [-slack], [math.pi + slack], 0.4, 1.1)
    b = cat_crb_batch(SpinJ(3), Generator.Y, [0.0], [math.pi], 0.4, 1.1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
