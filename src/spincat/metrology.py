"""Phase estimation figures of merit for pure spin states.

A parameter xi is imprinted by U(xi) = exp(i xi G) with G one of Jx, Jy, Jz.
For a pure probe the quantum Fisher information is four times the variance
of G, and the Cramer-Rao bound on any unbiased estimate of xi is
1/sqrt(F_Q). Two independent cross-checks of the variance route are
provided: the symmetric-logarithmic-derivative spectral formula and a
finite-difference of the overlap decay.

Where each part lives:

- _residual_qfi: the variance route, for qfi_pure, crb, cat_crb and each
  chunk of a batch, so they agree bit for bit.
- cat_crb_batch: the batched kernel on broadcast angle arrays;
  _cat_crb_pairs: the same kernel on index pairs into a table of component
  points, which find_hl's search calls.
- _checked: each angle input's check, clamp and reduction; _rows: the rule
  by which both kernel entries expand a component; _evaluate: the chunk
  loop both share, with the degenerate and divergence rules.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._checks import instance, real, real_array
# cat_state is not called here any more; it stays importable from this
# module because bench/spans.py rebinds it
from .catstate import DEGENERACY_FLOOR, CatParams, _cat_amplitudes, _norm_squared, cat_state  # noqa: F401
from .coherent import _THETA_SLACK, TWO_PI, _coherent_rows, _powers
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

# working chunks' worth of amplitudes _rows expands a component's points
# into at once, for both kernel entries. find_hl's largest table at 16
# seeds, 12,480 amplitudes at 2j = 64, fits; with every seed of the grid
# at 2j = 64 its tables of 31,104 points made the search peak at 81 MiB,
# against 6 MiB chunk by chunk
_TABLE_CHUNKS = 16


class Generator(enum.Enum):
    """Axis of the phase-imprinting generator."""

    X = "x"
    Y = "y"
    Z = "z"

    def matrix(self, j: SpinJ) -> np.ndarray:
        """The read-only dense matrix of this generator at spin j."""
        return getattr(build_operators(j), "j" + self.value)


@dataclass(frozen=True)
class CrbResult:
    """Cramer-Rao bound packaged with the Fisher information behind it."""

    qfi: float
    crb: float

    @property
    def divergent(self) -> bool:
        """Whether crb is inf, the qfi at or below QFI_DIVERGENCE_FLOOR."""
        return math.isinf(self.crb)


def evolve(state: DickeVector, g: Generator, xi: float) -> DickeVector:
    """Apply exp(i xi G) to the state; xi is a real argument."""
    state, xi = instance(state, DickeVector, "state"), real(xi, "xi")
    w, V = np.linalg.eigh(instance(g, Generator, "g").matrix(state.j))
    return DickeVector(
        state.j, V @ (np.exp(1j * xi * w) * (V.conj().T @ state.amplitudes))
    )


@functools.lru_cache(maxsize=None)
def _bands(j: SpinJ, g: Generator) -> tuple[np.ndarray, ...]:
    """G's nonzero bands, read-only: its diagonal for Jz, and its first
    lower and upper off-diagonals for Jx and Jy, which are built from J+
    and J- alone and have no other entries."""
    G = g.matrix(j)
    bands = tuple(np.diagonal(G, o).copy() for o in ((0,) if g is Generator.Z else (-1, 1)))
    for arr in bands:
        arr.flags.writeable = False
    return bands


def _apply_generator(bands: tuple[np.ndarray, ...], psi: np.ndarray) -> np.ndarray:
    """G @ psi along the last axis of psi in O(d), from G's nonzero bands."""
    if len(bands) == 1:
        return bands[0] * psi
    lower, upper = bands
    out = np.empty_like(psi)
    np.multiply(lower, psi[..., :-1], out=out[..., 1:])
    out[..., 0] = 0.0  # no lower-band term in the first component
    out[..., :-1] += upper * psi[..., 1:]
    return out


def _residual_qfi(bands: tuple[np.ndarray, ...], psi: np.ndarray):
    # 4 ||(G - <G>) psi||^2 along the last axis of unit amplitudes psi
    gpsi = _apply_generator(bands, psi)
    resid = gpsi - np.vecdot(psi, gpsi).real[..., None] * psi
    return 4.0 * np.vecdot(resid, resid).real


def qfi_pure(state: DickeVector, g: Generator) -> float:
    """F_Q = 4 Var(G), computed as 4 ||(G - <G>) psi||^2 from G's bands.

    The residual form is a sum of squares, so a zero-variance eigenstate
    comes out at ~1e-32 instead of a cancellation-noise negative. It is
    cat_crb_batch's arithmetic for each cat, so a cat_state gives the same
    bits there. A state or g of another type raises TypeError.
    """
    state = instance(state, DickeVector, "state")
    return _residual_qfi(_bands(state.j, instance(g, Generator, "g")), state.amplitudes)


def qfi_sld_oracle(state: DickeVector, g: Generator) -> float:
    """QFI via the symmetric logarithmic derivative, Tr[rho L^2].

    Builds rho = |psi><psi|, differentiates rho(xi) = e^{i xi G} rho e^{-i xi G}
    analytically (d rho/d xi = i[G, rho]), and solves the SLD equation in the
    eigenbasis of rho: L_ab = 2 (d rho)_ab / (p_a + p_b), with pairs below
    the eigenvalue floor dropped. Deliberately matrix-heavy and independent
    of the variance route. A state or g of another type raises TypeError.
    """
    state = instance(state, DickeVector, "state")
    psi = state.amplitudes
    G = instance(g, Generator, "g").matrix(state.j)
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
    [FD_STEP_MIN, FD_STEP_MAX] are rejected rather than silently degraded;
    dxi is a real argument.
    """
    dxi = real(dxi, "dxi")
    if not FD_STEP_MIN <= dxi <= FD_STEP_MAX:
        raise ValueError(
            f"dxi = {dxi!r} outside the stable window [{FD_STEP_MIN}, {FD_STEP_MAX}]"
        )
    shifted = evolve(state, g, dxi)
    fid = abs(state.inner(shifted))
    return 8.0 * (1.0 - fid) / (dxi * dxi)


def crb_from_qfi(qfi: float) -> CrbResult:
    """Package a QFI value, a real argument that must not be negative; at
    or below the divergence floor the bound is +inf."""
    qfi = real(qfi, "qfi")
    if qfi < 0.0:
        raise ValueError(f"qfi must not be negative, got {qfi!r}")
    return _packaged(qfi)


def _packaged(qfi: float) -> CrbResult:
    # crb_from_qfi's bound for a qfi of the residual form, never negative
    if qfi <= QFI_DIVERGENCE_FLOOR:
        return CrbResult(qfi=qfi, crb=math.inf)
    return CrbResult(qfi=qfi, crb=1.0 / math.sqrt(qfi))


def crb(state: DickeVector, g: Generator) -> CrbResult:
    """Cramer-Rao bound 1/sqrt(F_Q) for the given probe and generator,
    checked as qfi_pure checks them."""
    return _packaged(qfi_pure(state, g))


def cat_crb(c: CatParams, g: Generator) -> CrbResult:
    """Bound for a cat state given directly by its parameters: crb of
    cat_state(c), with both components expanded in one call and the
    amplitudes checked once.

    Propagates DegenerateCatError where the cat does not exist; a c or g
    of another type raises TypeError.
    """
    g = instance(g, Generator, "g")
    return _packaged(_residual_qfi(_bands(instance(c, CatParams, "c").j, g), _cat_amplitudes(c)))


# ---------------------------------------------------------------------------
# batched kernel: many cats of one spin and generator at once

_THETA_TOP = math.pi + _THETA_SLACK

# cat_crb_batch's angle inputs, by the names its errors give them
_ANGLES = ("theta1", "theta2", "phi1", "phi2")


def batch_cells(j: SpinJ) -> int:
    """Cats per working chunk of cat_crb_batch at this spin."""
    return max(1, BATCH_AMPLITUDES // j.dim)


def _checked(name: str, a: np.ndarray) -> np.ndarray:
    """The angle input a as floats, checked at its own points as
    CoherentParams checks floats. Theta is clamped onto [0, pi] and phi
    reduced modulo 2 pi only where a value needs it, into a new array. A
    ValueError names the first bad value in a's own row-major order."""
    a = np.asarray(a, dtype=float)
    # one point is read as it is; more take two reductions
    lo, hi = (a.item(),) * 2 if a.size == 1 else (a.min(), a.max())
    # nan fails every comparison, so it is caught with the out-of-range values
    if name.startswith("theta"):
        if not (lo >= -_THETA_SLACK and hi <= _THETA_TOP):
            flat = a.reshape(-1)
            bad = flat[~((flat >= -_THETA_SLACK) & (flat <= _THETA_TOP))]
            raise ValueError(f"{name} must lie in [0, pi], got {float(bad[0])!r}")
        return np.clip(a, 0.0, math.pi) if lo < 0.0 or hi > math.pi else a
    if not (-math.inf < lo and hi < math.inf):
        flat = a.reshape(-1)
        raise ValueError(f"{name} must be finite, got {float(flat[~np.isfinite(flat)][0])!r}")
    # values already in range are left as np.mod would leave them (it turns
    # -0.0 into 0.0, which gives the kernel the same bits)
    return np.mod(a, TWO_PI) if lo < 0.0 or hi >= TWO_PI else a


def _qfi_chunk(bands: tuple[np.ndarray, ...], summed: np.ndarray):
    """-> (qfi, degenerate) for one chunk of unnormalized cats v1 + v2."""
    n2 = _norm_squared(summed)
    degenerate = n2 <= DEGENERACY_FLOOR
    psi = summed / np.sqrt(np.where(degenerate, 1.0, n2))[:, None]
    return _residual_qfi(bands, psi), degenerate


def _evaluate(bands: tuple[np.ndarray, ...], step: int, n: int, v1, v2):
    """-> (qfi, crb, degenerate) for n cats, in chunks of step cats.

    v1(part) and v2(part) give the amplitudes of each component for the
    cats in the slice part; the chunk's cat is v1 + v2. qfi and crb are nan
    where the cat is degenerate, and crb is +inf where qfi is at or below
    QFI_DIVERGENCE_FLOOR.
    """
    qfi = np.empty(n)
    degenerate = np.empty(n, dtype=bool)
    for lo in range(0, n, step):
        part = slice(lo, lo + step)
        qfi[part], degenerate[part] = _qfi_chunk(bands, v1(part) + v2(part))
    np.copyto(qfi, math.nan, where=degenerate)
    crb = np.where(degenerate, math.nan, math.inf)
    np.divide(1.0, np.sqrt(qfi), out=crb, where=qfi > QFI_DIVERGENCE_FLOOR)
    return qfi, crb, degenerate


def _rows(powers, theta: np.ndarray, phi: np.ndarray):
    """-> rows(index), _coherent_rows' amplitudes at the points index
    names, one row each; the points are theta and phi, checked and reduced,
    broadcast against each other and read in row-major order. Both kernel
    entries expand a component through this one rule.

    Points of at most _TABLE_CHUNKS * BATCH_AMPLITUDES amplitudes are
    expanded once, into a table each call gathers from, so a point that
    many cats share is expanded once: a (rows, 1) x (n,) grid at fixed
    phases expands rows + n coherent states, not 2 rows n. Within the
    table _coherent_rows' broadcasting expands each factor once per point
    of its own input: theta (9, 1, 1, 1) and phi (1, 1, 4, 1) span 36
    points, and the magnitudes are expanded at 9 and the phases at 4. More
    points are expanded call by call, at the points each index names; an
    input of one point is read as a 0-d array, so its factor is expanded
    once per call, not once per point. Either way a row is the same bits,
    the product of the same two factors. What rows holds is the table, or
    else each input of more than one point filled to all the points.
    """
    points = np.broadcast(theta, phi).shape
    dim = len(powers.k)
    if math.prod(points) * dim <= _TABLE_CHUNKS * BATCH_AMPLITUDES:
        table = _coherent_rows(powers, theta, phi).reshape(-1, dim)
        return lambda index: table[index]
    flat = [a.reshape(()) if a.size == 1 else np.broadcast_to(a, points).ravel() for a in (theta, phi)]
    return lambda index: _coherent_rows(powers, *(a if a.ndim == 0 else a[index] for a in flat))


def cat_crb_batch(j: SpinJ, g: Generator, theta1, theta2, phi1, phi2):
    """Bounds for many cats of one spin and generator -> (qfi, crb, degenerate).

    The angles broadcast against each other; each output has their common
    shape. j must be a SpinJ, g a Generator, and each angle input hold ints
    or floats, or TypeError names it. Each angle input is checked at its
    own points, theta1, theta2, phi1 then phi2, as CoherentParams checks
    floats, and a ValueError names the first bad value in its own
    row-major order; an empty batch is not checked. Theta is clamped and
    phi reduced only where a value needs it, into a new array, so the
    caller's arrays are never written. qfi is the residual form of
    qfi_pure, 4 ||G psi - <G> psi||^2, and crb is +inf where qfi is at or
    below QFI_DIVERGENCE_FLOOR. Where the cat is degenerate (as in
    DegenerateCatError) qfi and crb are nan and the flag is set. Each cat's
    values are those cat_crb and qfi_pure(cat_state(...)) give, bit for bit.

    Each component is expanded by _rows at its own points, its angles
    (theta1, phi1) or (theta2, phi2) broadcast against each other only,
    and cats are evaluated in chunks of BATCH_AMPLITUDES amplitudes. Memory
    does not grow with the batch beyond the inputs, the outputs, one gather
    index per cat and component, and what _rows holds for each component.
    A single cat is cheaper through cat_crb.
    """
    bands = _bands(instance(j, SpinJ, "j"), instance(g, Generator, "g"))
    inputs = tuple(map(real_array, (theta1, theta2, phi1, phi2), _ANGLES))
    batch = np.broadcast(*inputs)
    shape, n = batch.shape, batch.size
    if not n:  # an empty batch is not checked
        return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
    theta1, theta2, phi1, phi2 = map(_checked, _ANGLES, inputs)
    powers = _powers(j.two_j)

    def component(theta, phi):
        # part -> the component's rows for the cats in the slice part; index
        # maps each cat, in row-major order, to its point
        points = np.broadcast(theta, phi).shape
        rows = _rows(powers, theta, phi)
        index = np.broadcast_to(np.arange(math.prod(points)).reshape(points), shape).ravel()
        return lambda part: rows(index[part])

    first, second = component(theta1, phi1), component(theta2, phi2)
    qfi, crb, degenerate = _evaluate(bands, batch_cells(j), n, first, second)
    return qfi.reshape(shape), crb.reshape(shape), degenerate.reshape(shape)


def _cat_crb_pairs(j: SpinJ, g: Generator, theta, phi, first, second):
    """Bounds for the cats of index pairs into one table of component
    points -> (qfi, crb, degenerate), each of first's shape.

    theta and phi are the table, one (theta, phi) point per entry, checked,
    clamped and reduced as cat_crb_batch checks its angle inputs, and
    first and second are integer arrays of one shape: the cat i has the
    components first[i] and second[i]. The table is expanded by _rows, as
    cat_crb_batch expands a component. The values are those cat_crb_batch
    gives at (theta[first], theta[second], phi[first], phi[second]), bit
    for bit, and since v1 + v2 and v2 + v1 are the same bits, so are those
    of the swapped pairs. A chunk's working arrays hold at most
    BATCH_AMPLITUDES amplitudes; an empty batch expands nothing.
    """
    shape = np.shape(first)
    first, second = np.ravel(first), np.ravel(second)
    if first.size:  # an empty batch is not checked
        rows = _rows(_powers(j.two_j), _checked("theta", theta), _checked("phi", phi))
    qfi, crb, degenerate = _evaluate(
        _bands(j, g),
        batch_cells(j),
        first.size,
        lambda part: rows(first[part]),
        lambda part: rows(second[part]),
    )
    return qfi.reshape(shape), crb.reshape(shape), degenerate.reshape(shape)

