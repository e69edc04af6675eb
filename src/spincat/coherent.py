"""SU(2) spin coherent states.

|theta, phi, j> = exp[(theta/2)(J+ e^{-i phi} - J- e^{i phi})] |j, -j>, the
rotation of the lowest-weight state to polar angle theta and azimuth phi.
Expanded over the Dicke basis the amplitude at k = j + m is

    c_k = sqrt(C(2j, k)) cos(theta/2)^{2j-k} sin(theta/2)^{k} e^{-i phi k}

which is finite and well behaved on the whole closed interval theta in
[0, pi]; nothing here is ever routed through tan(theta/2).
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CoherentParams:
    """Bloch-sphere direction of one coherent state.

    theta is validated to [0, pi] (tiny float overshoot is clamped),
    phi is reduced modulo 2*pi.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
        if theta < -_THETA_SLACK or theta > math.pi + _THETA_SLACK:
            raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
        object.__setattr__(self, "theta", min(max(theta, 0.0), math.pi))
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi!r}")
        object.__setattr__(self, "phi", phi % TWO_PI)

    @property
    def gamma(self) -> complex:
        """Stereographic label e^{-i phi} tan(theta/2); diverges at theta = pi."""
        return cmath.exp(-1j * self.phi) * math.tan(self.theta / 2)


@functools.lru_cache(maxsize=None)
def _sqrt_binomials(two_j: int) -> np.ndarray:
    return np.sqrt([math.comb(two_j, k) for k in range(two_j + 1)])


def coherent_state(j: SpinJ, p: CoherentParams) -> DickeVector:
    """Amplitude vector of |theta, phi, j> over the Dicke basis."""
    two_j = j.two_j
    c = math.cos(p.theta / 2)
    s = math.sin(p.theta / 2)
    k = np.arange(two_j + 1)
    mags = _sqrt_binomials(two_j) * c ** (two_j - k) * s**k
    phases = np.exp(-1j * p.phi * k)
    return DickeVector(j, mags * phases)


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
