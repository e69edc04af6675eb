"""Exact laws of the batched kernel: its three symmetries and the antipodal
Jz line, where the Heisenberg limit holds at the poles only (2j >= 3) or
along the whole line (2j = 2)."""
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spincat import (
    ClosedFormCase,
    CoherentParams,
    Generator,
    SpinJ,
    cat_crb_batch,
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
    assume(not degenerate and qfi > 1e-6)
    assert qfi_shifted == pytest.approx(qfi, rel=1e-12, abs=0)


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
