"""Dicke basis for a single SU(2) spin-j system.

States live in the (2j+1)-dimensional irrep spanned by |j, m> with
m = -j ... +j. Amplitudes are stored in ascending m, index k = m + j,
so |j, -j> is entry 0 and |j, +j> is entry 2j.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import complex_array, instance, integer, real

__all__ = ["SpinJ", "DickeVector", "SpinOperators", "build_operators"]

# largest irrep the amplitude formulas are exercised at; binomial magnitudes
# stay exactly representable in double precision well past this
MAX_TWO_J = 64

_NORM_TOL = 1e-9


@dataclass(frozen=True, order=True)
class SpinJ:
    """Total spin quantum number, stored as the integer 2j (an integer
    argument, NumPy's too)."""

    two_j: int

    def __post_init__(self):
        two_j = integer(self.two_j, "two_j")
        if not 1 <= two_j <= MAX_TWO_J:
            raise ValueError(f"two_j must lie in [1, {MAX_TWO_J}], got {two_j}")
        object.__setattr__(self, "two_j", two_j)

    @classmethod
    def from_j(cls, j: float) -> "SpinJ":
        """Build from j itself (0.5, 1, 1.5, ...), a real argument that must
        be a half-integer in [1/2, MAX_TWO_J / 2]."""
        # a Python int is exact at any size: 10**400 is out of range, not
        # too large for a float; the range takes the half-integer slack
        two_j = 2 * (j if type(j) is int else real(j, "j"))
        if not 1 - 1e-9 <= two_j <= MAX_TWO_J + 1e-9:
            raise ValueError(f"j must lie in [1/2, {MAX_TWO_J // 2}], got {j!r}")
        if abs(two_j - round(two_j)) > 1e-9:
            raise ValueError(f"j must be a half-integer, got {j!r}")
        return cls(round(two_j))

    @property
    def j(self) -> float:
        """The spin j itself, two_j / 2."""
        return self.two_j / 2

    @property
    def dim(self) -> int:
        """Dimension 2j + 1 of the irrep."""
        return self.two_j + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in storage order (ascending)."""
        return np.arange(self.dim) - self.j

    def __str__(self) -> str:
        return f"{self.two_j // 2}" if self.two_j % 2 == 0 else f"{self.two_j}/2"


def _as_unit_amplitudes(dim: int, amps) -> np.ndarray:
    arr = complex_array(amps, "amplitudes").astype(complex, copy=False)
    if arr.shape != (dim,):
        raise ValueError(f"expected {dim} amplitudes, got shape {arr.shape}")
    nrm = math.sqrt(np.vdot(arr, arr).real)
    if not abs(nrm - 1.0) <= _NORM_TOL:  # nan fails, too
        raise ValueError(f"amplitudes are not unit norm (|psi| = {nrm!r})")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DickeVector:
    """Normalized pure state, amplitudes indexed by k = m + j (ascending m);
    j must be a SpinJ, and amplitudes hold ints, floats or complex numbers."""

    j: SpinJ
    amplitudes: np.ndarray

    def __post_init__(self):
        instance(self.j, SpinJ, "j")
        object.__setattr__(
            self, "amplitudes", _as_unit_amplitudes(self.j.dim, self.amplitudes)
        )

    @property
    def dim(self) -> int:
        """Number of amplitudes, 2j + 1."""
        return self.j.dim

    def inner(self, other: "DickeVector") -> complex:
        """<self|other> in the shared Dicke basis; other must be a
        DickeVector."""
        if self.j != instance(other, DickeVector, "other").j:
            raise ValueError("states carry different j")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class SpinOperators:
    """Dense angular-momentum matrices for one irrep (read-only arrays)."""

    j: SpinJ
    jp: np.ndarray = field(repr=False)
    jm: np.ndarray = field(repr=False)
    jx: np.ndarray = field(repr=False)
    jy: np.ndarray = field(repr=False)
    jz: np.ndarray = field(repr=False)


def build_operators(j: SpinJ) -> SpinOperators:
    """Construct J+, J-, Jx, Jy, Jz as dense complex matrices.

    J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>, so in ascending-m storage the
    raising entries sit at [k+1, k]. Jz is diagonal with entries m. A j of
    another type raises TypeError; the check runs only when the cache misses
    or cannot hash j.
    """
    try:
        return _operators(j)
    except TypeError:
        # the cache refuses an unhashable j before the check can name it
        instance(j, SpinJ, "j")
        raise


@functools.lru_cache(maxsize=None)
def _operators(j: SpinJ) -> SpinOperators:
    # build_operators, once per spin
    jj = instance(j, SpinJ, "j").j
    d = j.dim
    m = j.m_values()
    # coefficients sqrt(j(j+1) - m(m+1)) for m = -j .. j-1
    raise_coeff = np.sqrt(jj * (jj + 1) - m[:-1] * (m[:-1] + 1))
    jp = np.zeros((d, d), dtype=complex)
    jp[np.arange(1, d), np.arange(d - 1)] = raise_coeff
    jm = jp.conj().T.copy()
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    jz = np.diag(m).astype(complex)
    for arr in (jp, jm, jx, jy, jz):
        arr.flags.writeable = False
    return SpinOperators(j=j, jp=jp, jm=jm, jx=jx, jy=jy, jz=jz)


# emptied as an lru_cache function's cache is, so a cold build can be timed
build_operators.cache_clear = _operators.cache_clear

