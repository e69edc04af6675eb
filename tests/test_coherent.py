"""Spin coherent states: amplitudes, overlaps, rotation construction."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincat import CoherentParams, SpinJ, coherent_overlap, coherent_state, rotation_matrix

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
