"""Dicke basis for a single SU(2) spin-j system.

States live in the (2j+1)-dimensional irrep spanned by |j, m> with
m = -j ... +j. Amplitudes are stored in ascending m, index k = m + j,
so |j, -j> is entry 0 and |j, +j> is entry 2j. The equivalent two-mode
Fock labelling is |Na, Nb> with Na = j + m excitations in one mode and
Nb = j - m in the other (N = Na + Nb = 2j fixed).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpinJ",
    "DickeVector",
    "SpinOperators",
    "build_operators",
    "dicke_to_fock",
    "fock_to_dicke",
]

# largest irrep the amplitude formulas are exercised at; binomial magnitudes
# stay exactly representable in double precision well past this
MAX_TWO_J = 64

_NORM_TOL = 1e-9


@dataclass(frozen=True, order=True)
class SpinJ:
    """Total spin quantum number, stored as the integer 2j."""

    two_j: int

    def __post_init__(self):
        if not isinstance(self.two_j, int) or isinstance(self.two_j, bool):
            raise TypeError(f"two_j must be an int, got {self.two_j!r}")
        if self.two_j < 1:
            raise ValueError(f"two_j must be >= 1, got {self.two_j}")
        if self.two_j > MAX_TWO_J:
            raise ValueError(f"two_j must be <= {MAX_TWO_J}, got {self.two_j}")

    @classmethod
    def from_j(cls, j: float) -> "SpinJ":
        """Build from j itself (0.5, 1, 1.5, ...); j must be a finite
        half-integer in [1/2, MAX_TWO_J / 2], and not a bool."""
        if isinstance(j, (bool, np.bool_)):
            raise ValueError(f"j must be a number, not a bool, got {j!r}")
        # comparisons, unlike math.isfinite, take an int of any size
        if not -math.inf < j < math.inf:
            raise ValueError(f"j must be finite, got {j!r}")
        # checked before round(2 * j), which overflows for a huge j, with the
        # half-integer test's slack
        if not 1 - 1e-9 <= 2 * j <= MAX_TWO_J + 1e-9:
            raise ValueError(f"j must lie in [1/2, {MAX_TWO_J // 2}], got {j!r}")
        two_j = round(2 * j)
        if abs(2 * j - two_j) > 1e-9:
            raise ValueError(f"j must be a half-integer, got {j!r}")
        return cls(two_j)

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in storage order (ascending)."""
        return np.arange(self.dim) - self.j

    def __str__(self) -> str:
        return f"{self.two_j // 2}" if self.two_j % 2 == 0 else f"{self.two_j}/2"


def _as_unit_amplitudes(dim: int, amps) -> np.ndarray:
    arr = np.asarray(amps, dtype=complex)
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
    """Normalized pure state, amplitudes indexed by k = m + j (ascending m)."""

    j: SpinJ
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes", _as_unit_amplitudes(self.j.dim, self.amplitudes)
        )

    @property
    def dim(self) -> int:
        return self.j.dim

    def inner(self, other: "DickeVector") -> complex:
        """<self|other> in the shared Dicke basis."""
        if self.j != other.j:
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


@functools.lru_cache(maxsize=None)
def build_operators(j: SpinJ) -> SpinOperators:
    """Construct J+, J-, Jx, Jy, Jz as dense complex matrices.

    J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>, so in ascending-m storage the
    raising entries sit at [k+1, k]. Jz is diagonal with entries m.
    """
    jj = j.j
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


def dicke_to_fock(j: SpinJ, m: float) -> tuple[int, int]:
    """Map |j, m> to the two-mode Fock occupation (Na, Nb) = (j+m, j-m).

    m must be a finite half-integer, not a bool, and a projection of j;
    ValueError otherwise.
    """
    if isinstance(m, (bool, np.bool_)):
        raise ValueError(f"m must be a number, not a bool, got {m!r}")
    # comparisons, unlike math.isfinite, take an int of any size
    if not -math.inf < m < math.inf:
        raise ValueError(f"m must be finite, got {m!r}")
    two_m = round(2 * m)
    if abs(2 * m - two_m) > 1e-9:
        raise ValueError(f"m must be a half-integer, got {m!r}")
    if (two_m - j.two_j) % 2 != 0 or abs(two_m) > j.two_j:
        raise ValueError(f"m = {m!r} is not a valid projection for j = {j}")
    na = (j.two_j + two_m) // 2
    return na, j.two_j - na


def _occupation(value, name: str) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an int, not a bool, got {value!r}")
    if not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an int, got {value!r}")
    return operator.index(value)


def fock_to_dicke(na: int, nb: int) -> tuple[SpinJ, float]:
    """Inverse of dicke_to_fock: (Na, Nb) -> (j, m) with j = (Na+Nb)/2.

    Na and Nb are ints, NumPy's too; a bool or any other type raises
    TypeError naming the argument.
    """
    na, nb = _occupation(na, "na"), _occupation(nb, "nb")
    if na < 0 or nb < 0:
        raise ValueError("occupation numbers must be non-negative")
    j = SpinJ(na + nb)
    return j, (na - nb) / 2
