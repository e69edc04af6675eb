"""SU(2) spin coherent states.

|theta, phi, j> = exp[(theta/2)(J+ e^{-i phi} - J- e^{i phi})] |j, -j>, the
rotation of the lowest-weight state to polar angle theta and azimuth phi.
Expanded over the Dicke basis the amplitude at k = j + m is

    c_k = sqrt(C(2j, k)) cos(theta/2)^{2j-k} sin(theta/2)^{k} e^{-i phi k}

which is finite and well behaved on the whole closed interval theta in
[0, pi]; nothing here is ever routed through tan(theta/2). It is written
once, in _coherent_rows, for arrays of angles; coherent_state, the cat
states and the batched kernels of metrology all expand through it.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dicke import DickeVector, SpinJ, build_operators

__all__ = [
    "CoherentParams",
    "coherent_state",
    "coherent_overlap",
    "rotation_matrix",
]

TWO_PI = 2 * math.pi

# slack for callers that produce theta = pi + 1 ulp via parameterizations
# like pi - t; anything further out is a genuine domain error
_THETA_SLACK = 1e-9


def check_theta(theta: float, name: str = "theta") -> float:
    """theta as a float on [0, pi].

    A value at most _THETA_SLACK outside the interval is clamped onto it;
    a bool, a non-finite value, or one further out, raises ValueError.
    """
    # a float is never a bool; testing it first keeps the common case to
    # one type comparison (closed-form sweeps check thetas point by point)
    if type(theta) is not float and isinstance(theta, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a bool, got {theta!r}")
    value = float(theta)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < -_THETA_SLACK or value > math.pi + _THETA_SLACK:
        raise ValueError(f"{name} must lie in [0, pi], got {value!r}")
    return min(max(value, 0.0), math.pi)


def check_phi(phi: float, name: str = "phi") -> float:
    """phi as a finite float, not reduced; ValueError if it is a bool or
    not finite."""
    if type(phi) is not float and isinstance(phi, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a bool, got {phi!r}")
    value = float(phi)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class CoherentParams:
    """Bloch-sphere direction of one coherent state.

    theta is validated to [0, pi] (tiny float overshoot is clamped),
    phi is reduced modulo 2*pi.
    """

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", check_theta(self.theta))
        object.__setattr__(self, "phi", check_phi(self.phi) % TWO_PI)


class _Powers(NamedTuple):
    """The angle-free factors of c_k, k = 0 .. 2j, as read-only arrays."""

    k: np.ndarray
    rest: np.ndarray
    roots: np.ndarray
    minus_ik: np.ndarray


@functools.lru_cache(maxsize=None)
def _powers(two_j: int) -> _Powers:
    """(k, 2j - k, sqrt(C(2j, k)), -1j * k), built once per spin."""
    k = np.arange(two_j + 1, dtype=float)
    table = _Powers(k, two_j - k, np.sqrt([math.comb(two_j, i) for i in range(two_j + 1)]), -1j * k)
    for arr in table:
        arr.flags.writeable = False
    return table


def _magnitudes(t: _Powers, theta: np.ndarray) -> np.ndarray:
    """|c_k| of |theta, phi, j>, along a new last axis, for every entry of
    theta: sqrt(C(2j, k)) cos(theta/2)^(2j-k) sin(theta/2)^k."""
    half = theta[..., None] / 2
    return t.roots * np.cos(half) ** t.rest * np.sin(half) ** t.k


def _phases(t: _Powers, phi: np.ndarray) -> np.ndarray:
    """e^(-i phi k), along a new last axis, for every entry of phi; the
    exponent's imaginary part is -(phi k), rounded once."""
    return np.exp(phi[..., None] * t.minus_ik)


def _coherent_rows(t: _Powers, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Amplitudes c_k of |theta, phi, j>, along a new last axis, for every
    entry of theta and phi (checked and reduced as CoherentParams does)."""
    return _magnitudes(t, theta) * _phases(t, phi)


def coherent_state(j: SpinJ, p: CoherentParams) -> DickeVector:
    """Amplitude vector of |theta, phi, j> over the Dicke basis."""
    return DickeVector(j, _coherent_rows(_powers(j.two_j), np.array(p.theta), np.array(p.phi)))


def coherent_overlap(j: SpinJ, p1: CoherentParams, p2: CoherentParams) -> complex:
    """<theta1,phi1,j | theta2,phi2,j> in closed form.

    Equals [cos(t1/2)cos(t2/2) + e^{i(phi1-phi2)} sin(t1/2)sin(t2/2)]^{2j},
    the 2j-th power of the spin-1/2 overlap. The real sine product is formed
    before the phase multiplies it, so swapping the states gives exactly the
    complex conjugate.
    """
    base = math.cos(p1.theta / 2) * math.cos(p2.theta / 2) + cmath.exp(
        1j * (p1.phi - p2.phi)
    ) * (math.sin(p1.theta / 2) * math.sin(p2.theta / 2))
    return base**j.two_j


def rotation_matrix(j: SpinJ, p: CoherentParams) -> np.ndarray:
    """Unitary U = exp[(theta/2)(J+ e^{-i phi} - J- e^{i phi})].

    The exponent K is anti-Hermitian, so U = exp(-iH) with H = iK Hermitian;
    H is diagonalized with eigh and re-exponentiated, which keeps U unitary
    to roundoff (no series truncation). Column 0 is the coherent state.
    """
    ops = build_operators(j)
    half = p.theta / 2
    K = half * (ops.jp * cmath.exp(-1j * p.phi) - ops.jm * cmath.exp(1j * p.phi))
    w, V = np.linalg.eigh(1j * K)
    return (V * np.exp(-1j * w)) @ V.conj().T
