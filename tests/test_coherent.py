"""Spin coherent states: amplitudes, overlaps, rotation construction."""
import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincat import CoherentParams, SpinJ, coherent_overlap, coherent_state, rotation_matrix
from spincat.coherent import _coherent_rows, _powers

angles = st.floats(min_value=0.0, max_value=math.pi)
phases = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)
spins = st.integers(min_value=1, max_value=20).map(SpinJ)


@pytest.mark.parametrize("two_j", [1, 2, 5, 16])
def test_pole_states(two_j):
    j = SpinJ(two_j)
    north = coherent_state(j, CoherentParams(0.0, 0.9)).amplitudes
    south = coherent_state(j, CoherentParams(math.pi, 0.0)).amplitudes
    e_north = np.zeros(j.dim)
    e_north[0] = 1.0
    e_south = np.zeros(j.dim)
    e_south[-1] = 1.0
    assert np.array_equal(north, e_north)  # sin(0/2) is exactly zero
    assert np.abs(south - e_south).max() < 1e-15


# sha256 of coherent_state's amplitude bytes at the points of
# test_coherent_state_bits_are_pinned, recorded while coherent_state
# evaluated the amplitude formula with its own scalar arithmetic
_PINNED_COHERENT = {
    1: "c6f668f1fbbeb2547789a0d79565780ef5ccdb454f12fe9a8a8dcc8936a108ea",
    2: "1adfdbaa6ea16f3fa4582f6a08f3173b9ff23e63e3395cac380bab74de654243",
    3: "4a09def5a6f14b9ef1f60a816740a9030bd9987351ca0e812a2470846b80523b",
    16: "51e71873f0f991d11d5c61527c151522fb7966c81d1551c9f79a84b72d9704cb",
    64: "3d984f1ae157654fb8afe33e1d9448ed5b9ae680c7c36d1d98600ee1c0166423",
}


@pytest.mark.parametrize("two_j", sorted(_PINNED_COHERENT))
def test_coherent_state_bits_are_pinned(two_j):
    # the poles, theta in the clamped slack band, and phases to reduce
    digest = hashlib.sha256()
    for theta in (0.0, math.pi, math.pi + 5e-10, 0.7):
        for phi in (0.0, 2 * math.pi - 1e-15, 7.0):
            state = coherent_state(SpinJ(two_j), CoherentParams(theta, phi))
            digest.update(state.amplitudes.tobytes())
    assert digest.hexdigest() == _PINNED_COHERENT[two_j]


@pytest.mark.parametrize("two_j", [1, 2, 3, 16, 64])
def test_negated_theta_is_the_state_half_a_turn_round(two_j):
    # c_k picks up (-1)^k from sin(-theta/2)^k and from e^(-i pi k) alike,
    # so |-theta, phi> is |theta, phi + pi>, amplitude for amplitude; the
    # closed forms' phi = pi rows are their phi = 0 rows at -theta2 by it.
    # Not bits: the exponent (phi + pi) k is rounded, so each amplitude
    # agrees to a few ulp of its size per unit of that exponent, and to a
    # few of the smallest subnormal where it underflows
    t = _powers(two_j)
    rng = np.random.default_rng(two_j)
    theta = np.concatenate([[0.0, 1e-300, 1e-150, 1e-9, math.pi], rng.uniform(0.0, math.pi, 500)])
    phi = np.concatenate([[0.0, 0.5, math.pi - 1e-15, 2.0, 1.0], rng.uniform(0.0, math.pi, 500)])
    reflected = _coherent_rows(t, -theta, phi)
    turned = _coherent_rows(t, theta, phi + math.pi)
    ulps = np.abs(turned) * (1.0 + t.k * (phi + math.pi)[:, None])
    bound = 4 * (np.finfo(float).eps * ulps + np.finfo(float).smallest_subnormal)
    assert (np.abs(reflected - turned) <= bound).all()


def test_spin_half_amplitudes_match_half_angle_form():
    theta, phi = 1.234, 5.4321
    v = coherent_state(SpinJ(1), CoherentParams(theta, phi)).amplitudes
    assert v[0] == pytest.approx(math.cos(theta / 2), abs=1e-15)
    assert v[1] == pytest.approx(cmath.exp(-1j * phi) * math.sin(theta / 2), abs=1e-15)


def test_spin_one_equator_amplitudes():
    v = coherent_state(SpinJ(2), CoherentParams(math.pi / 2, 0.0)).amplitudes
    expected = np.array([0.5, 1 / math.sqrt(2), 0.5])
    assert np.abs(v - expected).max() < 1e-15


def test_overlap_frozen_value():
    ov = coherent_overlap(
        SpinJ(2),
        CoherentParams(math.pi / 2, math.pi / 2),
        CoherentParams(math.pi / 2, 0.0),
    )
    assert ov == pytest.approx(0.5j, abs=1e-15)


@given(spins, angles, phases, angles, phases)
def test_overlap_matches_inner_product(j, t1, p1, t2, p2):
    a, b = CoherentParams(t1, p1), CoherentParams(t2, p2)
    v1 = coherent_state(j, a).amplitudes
    v2 = coherent_state(j, b).amplitudes
    ov = coherent_overlap(j, a, b)
    assert abs(ov - np.vdot(v1, v2)) < 1e-12
    assert abs(ov) <= 1.0 + 1e-12
    assert abs(coherent_overlap(j, b, a) - ov.conjugate()) < 1e-15


def test_rotation_two_by_two_closed_form():
    theta, phi = 0.8, 2.3
    u = rotation_matrix(SpinJ(1), CoherentParams(theta, phi))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    expected = np.array(
        [[c, -cmath.exp(1j * phi) * s], [cmath.exp(-1j * phi) * s, c]]
    )
    assert np.abs(u - expected).max() < 1e-12


@given(spins, angles, phases)
def test_rotation_unitary_and_generates_coherent_state(j, theta, phi):
    p = CoherentParams(theta, phi)
    u = rotation_matrix(j, p)
    assert np.abs(u @ u.conj().T - np.eye(j.dim)).max() < 1e-10
    assert np.abs(u[:, 0] - coherent_state(j, p).amplitudes).max() < 1e-10


def test_theta_domain_and_phi_wrapping():
    with pytest.raises(ValueError):
        CoherentParams(-1e-3, 0.0)
    with pytest.raises(ValueError):
        CoherentParams(math.pi + 1e-3, 0.0)
    with pytest.raises(ValueError):
        CoherentParams(math.nan, 0.0)
    with pytest.raises(ValueError):
        CoherentParams(0.0, math.inf)
    # representation-level spill just past the endpoints clamps cleanly
    assert CoherentParams(-1e-12, 0.0).theta == 0.0
    assert CoherentParams(math.pi + 1e-12, 0.0).theta == math.pi
    assert CoherentParams(1.0, 2 * math.pi + 0.25).phi == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_coherent_params_refuse_bool_angles(flag):
    # True would pass as an angle of 1.0
    with pytest.raises(ValueError, match="theta must be a number, not a bool"):
        CoherentParams(flag, 0.5)
    with pytest.raises(ValueError, match="phi must be a number, not a bool"):
        CoherentParams(0.5, flag)
