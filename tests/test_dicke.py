"""Spin algebra and Dicke-basis plumbing."""
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincat import DickeVector, SpinJ, build_operators, dicke_to_fock, fock_to_dicke


def test_spin_half_matrices_are_half_paulis():
    ops = build_operators(SpinJ(1))
    # ascending-m ordering: (|down>, |up>)
    assert np.array_equal(ops.jz, np.diag([-0.5, 0.5]))
    assert np.array_equal(ops.jp, np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.array_equal(ops.jm, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(ops.jx, np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    assert np.array_equal(ops.jy, np.array([[0, 0.5j], [-0.5j, 0]], dtype=complex))


def test_spin_one_ladder_entries():
    ops = build_operators(SpinJ(2))
    root2 = math.sqrt(2)
    assert ops.jp[1, 0] == pytest.approx(root2, abs=1e-15)
    assert ops.jp[2, 1] == pytest.approx(root2, abs=1e-15)
    top = np.array([0.0, 0.0, 1.0], dtype=complex)
    assert np.all(ops.jp @ top == 0)  # raising the top state annihilates it


@pytest.mark.parametrize("two_j", range(1, 41))
def test_commutators_and_casimir(two_j):
    j = SpinJ(two_j)
    ops = build_operators(j)

    def comm(a, b):
        return a @ b - b @ a

    assert np.max(np.abs(comm(ops.jx, ops.jy) - 1j * ops.jz)) < 1e-12
    assert np.max(np.abs(comm(ops.jy, ops.jz) - 1j * ops.jx)) < 1e-12
    assert np.max(np.abs(comm(ops.jz, ops.jx) - 1j * ops.jy)) < 1e-12
    casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    expected = j.j * (j.j + 1) * np.eye(j.dim)
    assert np.max(np.abs(casimir - expected)) < 1e-12


def test_operator_arrays_are_frozen():
    ops = build_operators(SpinJ(3))
    for arr in (ops.jp, ops.jm, ops.jx, ops.jy, ops.jz):
        assert not arr.flags.writeable


@given(st.integers(min_value=1, max_value=64), st.data())
def test_fock_round_trip(two_j, data):
    j = SpinJ(two_j)
    k = data.draw(st.integers(min_value=0, max_value=two_j))
    m = k - j.j
    na, nb = dicke_to_fock(j, m)
    assert (na, nb) == (k, two_j - k)
    j_back, m_back = fock_to_dicke(na, nb)
    assert j_back == j
    assert m_back == m


def test_fock_map_examples():
    assert dicke_to_fock(SpinJ(1), 0.5) == (1, 0)
    assert dicke_to_fock(SpinJ(2), -1.0) == (0, 2)
    assert fock_to_dicke(1, 0) == (SpinJ(1), 0.5)
    assert fock_to_dicke(0, 2) == (SpinJ(2), -1.0)



@pytest.mark.parametrize(
    "m", [math.inf, -math.inf, math.nan, np.float64(math.inf)], ids=["inf", "-inf", "nan", "np.inf"]
)
def test_dicke_to_fock_rejects_a_non_finite_m(m):
    # inf used to raise OverflowError, and nan a message about int conversion
    with pytest.raises(ValueError, match=r"^m must be finite, got "):
        dicke_to_fock(SpinJ(2), m)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_dicke_to_fock_refuses_bools(flag):
    # True used to be read as m = 1
    with pytest.raises(ValueError, match="m must be a number, not a bool"):
        dicke_to_fock(SpinJ(2), flag)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
@pytest.mark.parametrize("position", [0, 1])
def test_fock_to_dicke_refuses_bools(flag, position):
    # fock_to_dicke(True, False) used to give (SpinJ(1), 0.5)
    args = [1, 1]
    args[position] = flag
    name = ("na", "nb")[position]
    with pytest.raises(TypeError, match=rf"^{name} must be an int, not a bool, got "):
        fock_to_dicke(*args)


@pytest.mark.parametrize("value", [3.0, 1.5, "3", None], ids=["3.0", "1.5", "str", "None"])
@pytest.mark.parametrize("position", [0, 1])
def test_fock_to_dicke_names_a_non_integer_argument(value, position):
    # a float used to fail inside SpinJ as "two_j must be an int"
    args = [1, 1]
    args[position] = value
    name = ("na", "nb")[position]
    with pytest.raises(TypeError, match=rf"^{name} must be an int, got {re.escape(repr(value))}$"):
        fock_to_dicke(*args)


def test_fock_to_dicke_takes_numpy_integers():
    assert fock_to_dicke(np.int64(2), np.uint8(1)) == (SpinJ(3), 0.5)
    assert type(fock_to_dicke(np.int32(1), np.int32(1))[0].two_j) is int

def test_rejects_invalid_spins_and_weights():
    with pytest.raises(ValueError):
        SpinJ(0)
    with pytest.raises(ValueError):
        SpinJ(65)
    with pytest.raises(ValueError):
        SpinJ.from_j(0.3)
    with pytest.raises(ValueError):
        dicke_to_fock(SpinJ(2), 0.5)  # wrong m parity for integer spin
    with pytest.raises(ValueError):
        dicke_to_fock(SpinJ(2), 2.0)  # |m| > j
    with pytest.raises(ValueError):
        fock_to_dicke(-1, 2)


def test_spin_properties():
    j = SpinJ(3)
    assert j.j == 1.5
    assert j.dim == 4
    assert np.allclose(j.m_values(), [-1.5, -0.5, 0.5, 1.5])
    assert str(j) == "3/2"
    assert str(SpinJ(4)) == "2"
    assert SpinJ.from_j(0.5) == SpinJ(1)
    assert SpinJ.from_j(2.0) == SpinJ(4)


def test_dicke_vector_validation():
    v = DickeVector(SpinJ(1), np.array([1.0, 0.0]))
    assert not v.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        DickeVector(SpinJ(1), np.array([1.0, 1.0]))  # not unit norm
    with pytest.raises(ValueError):
        DickeVector(SpinJ(2), np.array([1.0, 0.0]))  # wrong length
    w = DickeVector(SpinJ(1), np.array([0.0, 1.0]))
    assert v.inner(w) == 0
    with pytest.raises(ValueError):
        v.inner(DickeVector(SpinJ(2), np.array([1.0, 0.0, 0.0])))


@pytest.mark.parametrize(
    "j", [math.inf, -math.inf, float("1e400"), math.nan], ids=["inf", "-inf", "1e400", "nan"]
)
def test_from_j_rejects_a_non_finite_spin(j):
    with pytest.raises(ValueError, match="finite"):
        SpinJ.from_j(j)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_from_j_refuses_bools(flag):
    # True would pass as spin 1, although SpinJ(True) raises
    with pytest.raises(ValueError, match="j must be a number, not a bool"):
        SpinJ.from_j(flag)


@pytest.mark.parametrize(
    "j,shown",
    [(1e308, "1e+308"), (1e200, "1e+200"), (10**400, str(10**400)), (0, "0"), (-1, "-1"),
     (33, "33"), (32.5, "32.5"), (0.25, "0.25")],
    ids=["1e308", "1e200", "10**400", "0", "-1", "33", "32.5", "0.25"],
)
def test_from_j_names_a_spin_out_of_range(j, shown):
    # 1e308 used to overflow round(2 * j), and 1e200 to name a 200-digit 2j
    with pytest.raises(ValueError, match=rf"^j must lie in \[1/2, 32\], got {re.escape(shown)}$"):
        SpinJ.from_j(j)
    assert SpinJ.from_j(32) == SpinJ(64)


@pytest.mark.parametrize(
    "amps", [[math.nan, 0.0], [complex(0.0, math.nan), 0.0], [math.inf, 0.0]],
    ids=["nan", "nan imaginary part", "inf"],
)
def test_dicke_vector_refuses_non_finite_amplitudes(amps):
    # a nan norm fails every comparison, so it must fail the norm test too
    with pytest.raises(ValueError, match="not unit norm"):
        DickeVector(SpinJ(1), amps)
