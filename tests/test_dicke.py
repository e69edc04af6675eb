"""Spin algebra and Dicke-basis plumbing."""
import math
import re

import numpy as np
import pytest

from spincat import DickeVector, SpinJ, build_operators


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


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_spin_refuses_bools(flag):
    # True would otherwise be read as two_j = 1
    with pytest.raises(TypeError, match=r"^two_j must be an int, not a bool, got "):
        SpinJ(flag)


@pytest.mark.parametrize("value", [3.0, 1.5, "3", None], ids=["3.0", "1.5", "str", "None"])
def test_spin_names_a_non_integer_two_j(value):
    with pytest.raises(TypeError, match=rf"^two_j must be an int, got {re.escape(repr(value))}$"):
        SpinJ(value)


@pytest.mark.parametrize(
    "two_j", [0, -1, 65, 2**63, np.uint64(2**64 - 1)], ids=["0", "-1", "65", "2**63", "uint64-max"]
)
def test_spin_names_a_two_j_out_of_range(two_j):
    with pytest.raises(ValueError, match=rf"^two_j must lie in \[1, 64\], got {int(two_j)}$"):
        SpinJ(two_j)


def test_rejects_invalid_spins_and_weights():
    with pytest.raises(ValueError):
        SpinJ(0)
    with pytest.raises(ValueError):
        SpinJ(65)
    with pytest.raises(ValueError):
        SpinJ.from_j(0.3)


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
