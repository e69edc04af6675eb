"""Phase estimation figures of merit for pure spin states.

A parameter xi is imprinted by U(xi) = exp(i xi G) with G one of Jx, Jy, Jz.
For a pure probe the quantum Fisher information is four times the variance
of G, and the Cramer-Rao bound on any unbiased estimate of xi is
1/sqrt(F_Q). Two independent cross-checks of the variance route are
provided: the symmetric-logarithmic-derivative spectral formula and a
finite-difference of the overlap decay.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .catstate import DEGENERACY_FLOOR, CatParams, cat_state
from .coherent import _THETA_SLACK, TWO_PI, _sqrt_binomials
from .dicke import DickeVector, SpinJ, build_operators

__all__ = [
    "Generator",
    "CrbResult",
    "evolve",
    "qfi_pure",
    "qfi_sld_oracle",
    "qfi_fidelity_oracle",
    "crb",
    "crb_from_qfi",
    "cat_crb",
    "cat_crb_batch",
    "BATCH_AMPLITUDES",
    "QFI_DIVERGENCE_FLOOR",
    "FD_STEP_MIN",
    "FD_STEP_MAX",
]

# qfi at or below this floor is reported as a diverging bound
QFI_DIVERGENCE_FLOOR = 1e-14

# stable window for the finite-difference step: below it the overlap deficit
# drowns in roundoff, above it the O(dxi^2) truncation bias dominates
FD_STEP_MIN = 1e-5
FD_STEP_MAX = 1e-2

# eigenvalue-pair floor for the SLD spectral formula
_SLD_EIG_FLOOR = 1e-12

# Dicke amplitudes per working array of cat_crb_batch; bounds the kernel's
# temporaries whatever the size of the batch
BATCH_AMPLITUDES = 4096


class Generator(enum.Enum):
    """Axis of the phase-imprinting generator."""

    X = "x"
    Y = "y"
    Z = "z"

    def matrix(self, j: SpinJ) -> np.ndarray:
        ops = build_operators(j)
        return {Generator.X: ops.jx, Generator.Y: ops.jy, Generator.Z: ops.jz}[self]


@dataclass(frozen=True)
class CrbResult:
    """Cramer-Rao bound packaged with the Fisher information behind it."""

    qfi: float
    crb: float

    @property
    def divergent(self) -> bool:
        return math.isinf(self.crb)


def evolve(state: DickeVector, g: Generator, xi: float) -> DickeVector:
    """Apply exp(i xi G) to the state."""
    G = g.matrix(state.j)
    w, V = np.linalg.eigh(G)
    return DickeVector(
        state.j, V @ (np.exp(1j * xi * w) * (V.conj().T @ state.amplitudes))
    )


def qfi_pure(state: DickeVector, g: Generator) -> float:
    """F_Q = 4 Var(G), computed as 4 ||(G - <G>) psi||^2.

    The residual form is a sum of squares, so a zero-variance eigenstate
    comes out at ~1e-32 instead of a cancellation-noise negative.
    """
    psi = state.amplitudes
    gpsi = g.matrix(state.j) @ psi
    mean = np.vdot(psi, gpsi).real
    resid = gpsi - mean * psi
    return 4.0 * np.vdot(resid, resid).real


def qfi_sld_oracle(state: DickeVector, g: Generator) -> float:
    """QFI via the symmetric logarithmic derivative, Tr[rho L^2].

    Builds rho = |psi><psi|, differentiates rho(xi) = e^{i xi G} rho e^{-i xi G}
    analytically (d rho/d xi = i[G, rho]), and solves the SLD equation in the
    eigenbasis of rho: L_ab = 2 (d rho)_ab / (p_a + p_b), with pairs below
    the eigenvalue floor dropped. Deliberately matrix-heavy and independent
    of the variance route.
    """
    psi = state.amplitudes
    G = g.matrix(state.j)
    rho = np.outer(psi, psi.conj())
    drho = 1j * (G @ rho - rho @ G)
    p, V = np.linalg.eigh(rho)
    drho_eig = V.conj().T @ drho @ V
    pair_sums = p[:, None] + p[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        # the masked branch still divides by zero-sum pairs; discarded below
        L = np.where(pair_sums > _SLD_EIG_FLOOR, 2.0 * drho_eig / pair_sums, 0.0)
    return float(np.einsum("a,ab,ba->", p, L, L).real)


def qfi_fidelity_oracle(state: DickeVector, g: Generator, dxi: float) -> float:
    """QFI from the overlap decay, 8 (1 - |<psi(xi)|psi(xi+dxi)>|) / dxi^2.

    Carries an O(dxi^2) truncation bias; callers wanting more combine two
    step sizes by Richardson extrapolation. Steps outside
    [FD_STEP_MIN, FD_STEP_MAX] are rejected rather than silently degraded.
    """
    if not (FD_STEP_MIN <= dxi <= FD_STEP_MAX):
        raise ValueError(
            f"dxi = {dxi!r} outside the stable window [{FD_STEP_MIN}, {FD_STEP_MAX}]"
        )
    shifted = evolve(state, g, dxi)
    fid = abs(state.inner(shifted))
    return 8.0 * (1.0 - fid) / (dxi * dxi)


def crb_from_qfi(qfi: float) -> CrbResult:
    """Package a QFI value; at or below the divergence floor the bound is +inf."""
    if qfi <= QFI_DIVERGENCE_FLOOR:
        return CrbResult(qfi=qfi, crb=math.inf)
    return CrbResult(qfi=qfi, crb=1.0 / math.sqrt(qfi))


def crb(state: DickeVector, g: Generator) -> CrbResult:
    """Cramer-Rao bound 1/sqrt(F_Q) for the given probe and generator."""
    return crb_from_qfi(qfi_pure(state, g))


def cat_crb(c: CatParams, g: Generator) -> CrbResult:
    """Convenience: bound for a cat state given directly by its parameters.

    Propagates DegenerateCatError where the cat does not exist.
    """
    return crb(cat_state(c), g)


# ---------------------------------------------------------------------------
# batched kernel: many cats of one spin and generator at once

def batch_cells(j: SpinJ) -> int:
    """Cats per working chunk of cat_crb_batch at this spin."""
    return max(1, BATCH_AMPLITUDES // j.dim)


def _checked_theta(theta: np.ndarray) -> np.ndarray:
    # the CoherentParams rule, elementwise
    bad = ~(np.isfinite(theta) & (theta >= -_THETA_SLACK) & (theta <= math.pi + _THETA_SLACK))
    if bad.any():
        raise ValueError(f"theta must lie in [0, pi], got {float(theta[bad][0])!r}")
    return np.clip(theta, 0.0, math.pi)


def _reduced_phi(phi: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(phi)
    if bad.any():
        raise ValueError(f"phi must be finite, got {float(phi[bad][0])!r}")
    return np.mod(phi, TWO_PI)


def _coherent_rows(two_j: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Amplitudes of |theta, phi, j>, one row per entry of theta and phi.

    The arithmetic of coherent_state, elementwise.
    """
    k = np.arange(two_j + 1)
    c = np.cos(theta / 2)[:, None]
    s = np.sin(theta / 2)[:, None]
    mags = _sqrt_binomials(two_j) * c ** (two_j - k) * s**k
    return mags * np.exp(-1j * phi[:, None] * k)


def _row_vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one <a_i|b_i> per row; a stack of vector products reaches the same
    # BLAS dot as np.vdot, so each row matches the single-state value
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0].real


def _apply_generator(j: SpinJ, g: Generator, psi: np.ndarray) -> np.ndarray:
    """G @ psi for every row of psi in O(d).

    Jz is diagonal; Jx and Jy are built from J+ and J- alone, so they hold
    only the first off-diagonal and its mirror image.
    """
    G = g.matrix(j)
    if g is Generator.Z:
        return np.diagonal(G) * psi
    out = np.zeros_like(psi)
    out[:, 1:] = np.diagonal(G, -1) * psi[:, :-1]
    out[:, :-1] += np.diagonal(G, 1) * psi[:, 1:]
    return out


def _qfi_chunk(j: SpinJ, g: Generator, t1, t2, p1, p2):
    """-> (qfi, degenerate) for one chunk of flat angle arrays."""
    summed = _coherent_rows(j.two_j, t1, p1) + _coherent_rows(j.two_j, t2, p2)
    # componentwise |.|^2, as in catstate: never 2 + 2 Re<1|2>
    n2 = np.sum(summed.real * summed.real + summed.imag * summed.imag, axis=1)
    degenerate = n2 <= DEGENERACY_FLOOR
    psi = summed / np.sqrt(np.where(degenerate, 1.0, n2))[:, None]
    gpsi = _apply_generator(j, g, psi)
    resid = gpsi - _row_vdots(psi, gpsi)[:, None] * psi
    return 4.0 * _row_vdots(resid, resid), degenerate


def cat_crb_batch(j: SpinJ, g: Generator, theta1, theta2, phi1, phi2):
    """Bounds for many cats of one spin and generator -> (qfi, crb, degenerate).

    The angles broadcast against each other; each output has their common
    shape. Angles are checked and reduced as CoherentParams does, and a
    ValueError names the first bad one. qfi is the residual form of
    qfi_pure, 4 ||G psi - <G> psi||^2, and crb is +inf where qfi is at or
    below QFI_DIVERGENCE_FLOOR. Where the cat is degenerate (as in
    DegenerateCatError) qfi and crb are nan and the flag is set.

    Cats are evaluated in chunks of BATCH_AMPLITUDES amplitudes, so memory
    does not grow with the batch. Single cats are cheaper through cat_crb.
    """
    t1, t2, p1, p2 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (theta1, theta2, phi1, phi2))
    )
    shape = t1.shape
    t1, t2 = _checked_theta(t1.ravel()), _checked_theta(t2.ravel())
    p1, p2 = _reduced_phi(p1.ravel()), _reduced_phi(p2.ravel())
    qfi = np.empty(t1.size)
    degenerate = np.empty(t1.size, dtype=bool)
    step = batch_cells(j)
    for lo in range(0, t1.size, step):
        part = slice(lo, lo + step)
        qfi[part], degenerate[part] = _qfi_chunk(j, g, t1[part], t2[part], p1[part], p2[part])
    crb = np.full_like(qfi, math.inf)
    np.divide(1.0, np.sqrt(qfi), out=crb, where=qfi > QFI_DIVERGENCE_FLOOR)
    qfi[degenerate] = math.nan
    crb[degenerate] = math.nan
    return qfi.reshape(shape), crb.reshape(shape), degenerate.reshape(shape)
