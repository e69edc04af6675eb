"""Phase estimation figures of merit for pure spin states.

A parameter xi is imprinted by U(xi) = exp(i xi G) with G one of Jx, Jy, Jz.
For a pure probe the quantum Fisher information is four times the variance
of G, and the Cramer-Rao bound on any unbiased estimate of xi is
1/sqrt(F_Q). Two independent cross-checks of the variance route are
provided: the symmetric-logarithmic-derivative spectral formula and a
finite-difference of the overlap decay.

cat_crb_batch evaluates many cats of one spin and generator through the
one coherent-state expression, coherent._coherent_rows, that cat_crb and
coherent_state use too. What does not depend on the angles (the powers
table of coherent and the nonzero bands of G) is built once per spin and
generator, so a call on a few cats costs little more than its arithmetic.
A component shared across the batch, such as each axis of a (theta1,
theta2) grid at fixed phases, is expanded once per distinct point instead
of once per cat.

cat_crb_line serves line searches that move one angle of many cats. Built
once per line, it expands the component the three fixed angles fix and
caches the factor of the other that the moving angle leaves alone: its
phases exp(phi (-ik)) on a theta line, its magnitudes
sqrt(C(2j, k)) cos(theta/2)^(2j-k) sin(theta/2)^k on a phi line. Each call
expands only the moving factor, and checks the line's whole (4, m) block
of points with the call cat_crb_batch makes.

Both run one chunk loop, _evaluate: each tells it how to produce the two
components of a slice of cats, and it adds them, takes the QFI of each
chunk and applies the degenerate and divergence rules. Both paths share
the same expressions, so every value is the one cat_crb_batch gives, bit
for bit.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

# cat_state is not called here any more; it stays importable from this
# module because bench/spans.py rebinds it
from .catstate import DEGENERACY_FLOOR, CatParams, _cat_amplitudes, cat_state  # noqa: F401
from .coherent import _THETA_SLACK, TWO_PI, _coherent_rows, _magnitudes, _phases, _Powers, _powers
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
    "cat_crb_line",
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
        return getattr(build_operators(j), "j" + self.value)


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
    return _qfi(g.matrix(state.j), state.amplitudes)


def _qfi(G: np.ndarray, psi: np.ndarray) -> float:
    # qfi_pure's arithmetic on the dense matrix G and unit amplitudes psi
    gpsi = G @ psi
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
    """Bound for a cat state given directly by its parameters: crb of
    cat_state(c), with both components expanded in one call and the
    amplitudes checked once.

    Propagates DegenerateCatError where the cat does not exist.
    """
    return crb_from_qfi(_qfi(g.matrix(c.j), _cat_amplitudes(c)))


# ---------------------------------------------------------------------------
# batched kernel: many cats of one spin and generator at once

_THETA_TOP = math.pi + _THETA_SLACK


def batch_cells(j: SpinJ) -> int:
    """Cats per working chunk of cat_crb_batch at this spin."""
    return max(1, BATCH_AMPLITUDES // j.dim)


@functools.lru_cache(maxsize=None)
def _bands(j: SpinJ, g: Generator) -> tuple[np.ndarray, ...]:
    """G's nonzero bands, read-only: its diagonal for Jz, and its first
    lower and upper off-diagonals for Jx and Jy, which have no other entries."""
    G = g.matrix(j)
    bands = tuple(np.diagonal(G, o).copy() for o in ((0,) if g is Generator.Z else (-1, 1)))
    for arr in bands:
        arr.flags.writeable = False
    return bands


def _check_angles(angles: np.ndarray) -> None:
    """Check a (4, n) block of points (theta1, theta2, phi1, phi2) as
    CoherentParams does, then clamp theta onto [0, pi] and reduce phi
    modulo 2 pi, in place, each only where a value needs it. Both kernels
    check with it: cat_crb_batch its batch, cat_crb_line its (4, m) block.

    Only when the min or max of a row is out of range is the first bad
    value looked for, theta1 before theta2 before phi1 before phi2; a
    value is checked, clamped and reduced the same whichever cats share the call.
    """
    # initial values inside every range keep an empty batch valid
    los = np.minimum.reduce(angles, axis=1, initial=math.pi).tolist()
    his = np.maximum.reduce(angles, axis=1, initial=0.0).tolist()
    # nan fails every comparison, so it is caught with the out-of-range values
    for r in (0, 1):
        if not (los[r] >= -_THETA_SLACK and his[r] <= _THETA_TOP):
            theta = angles[:2].ravel()
            bad = ~((theta >= -_THETA_SLACK) & (theta <= _THETA_TOP))
            raise ValueError(f"theta must lie in [0, pi], got {float(theta[bad][0])!r}")
    for r in (2, 3):
        if not (-math.inf < los[r] and his[r] < math.inf):
            phi = angles[2:].ravel()
            raise ValueError(f"phi must be finite, got {float(phi[~np.isfinite(phi)][0])!r}")
    # values already in range are left as np.clip and np.mod would leave
    # them (np.mod turns -0.0 into 0.0, which gives the kernel the same bits)
    for r in (0, 1):
        if los[r] < 0.0 or his[r] > math.pi:
            np.clip(angles[r], 0.0, math.pi, out=angles[r])
    for r in (2, 3):
        if los[r] < 0.0 or his[r] >= TWO_PI:
            np.mod(angles[r], TWO_PI, out=angles[r])


def _row_vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one <a_i|b_i> per row; a stack of vector products reaches the same
    # BLAS dot as np.vdot, so each row matches the single-state value
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0].real


def _apply_generator(bands: tuple[np.ndarray, ...], psi: np.ndarray) -> np.ndarray:
    """G @ psi for every row of psi in O(d), from G's nonzero bands.

    Jz is diagonal; Jx and Jy are built from J+ and J- alone, so they hold
    only the first off-diagonal and its mirror image.
    """
    if len(bands) == 1:
        return bands[0] * psi
    lower, upper = bands
    out = np.empty_like(psi)
    np.multiply(lower, psi[:, :-1], out=out[:, 1:])
    out[:, 0] = 0.0  # no lower-band term in the first component
    out[:, :-1] += upper * psi[:, 1:]
    return out


def _qfi_chunk(bands: tuple[np.ndarray, ...], summed: np.ndarray):
    """-> (qfi, degenerate) for one chunk of unnormalized cats v1 + v2."""
    # componentwise |.|^2, as in catstate: never 2 + 2 Re<1|2>
    n2 = np.add.reduce(summed.real * summed.real + summed.imag * summed.imag, axis=1)
    degenerate = n2 <= DEGENERACY_FLOOR
    psi = summed / np.sqrt(np.where(degenerate, 1.0, n2))[:, None]
    gpsi = _apply_generator(bands, psi)
    resid = gpsi - _row_vdots(psi, gpsi)[:, None] * psi
    return 4.0 * _row_vdots(resid, resid), degenerate


def _cached_component(powers: _Powers, checked: np.ndarray, own: tuple):
    """Amplitudes of one component at each of its distinct points, and for
    every cat the row that holds its own -> (rows, index).

    checked holds the component's theta and phi over the whole batch,
    checked and reduced, as a (2, *shape) array; own is the shape its
    inputs broadcast to. The points are read back from checked, so they
    carry the same clamping and phase reduction as every cat.
    """
    shape = checked.shape[1:]
    own = (1,) * (len(shape) - len(own)) + own
    # a broadcast axis of the component is read at its first position
    pick = tuple(slice(None) if o == s else slice(0, 1) for o, s in zip(own, shape))
    rows = _coherent_rows(powers, checked[(0, *pick)], checked[(1, *pick)])
    size = math.prod(own)
    index = np.broadcast_to(np.arange(size).reshape(own), shape).ravel()
    return rows.reshape(size, -1), index


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


def cat_crb_batch(j: SpinJ, g: Generator, theta1, theta2, phi1, phi2):
    """Bounds for many cats of one spin and generator -> (qfi, crb, degenerate).

    The angles broadcast against each other; each output has their common
    shape. Angles are checked over the batch as CoherentParams does, and
    a ValueError names the first bad one; theta is clamped and phi
    reduced only where a value needs it. qfi is the residual form of
    qfi_pure, 4 ||G psi - <G> psi||^2, and crb is +inf where qfi is at or
    below QFI_DIVERGENCE_FLOOR. Where the cat is degenerate (as in
    DegenerateCatError) qfi and crb are nan and the flag is set.

    Cats are evaluated in chunks of BATCH_AMPLITUDES amplitudes. A
    component whose own angles (theta1, phi1) or (theta2, phi2) broadcast
    to fewer points than the batch, and to no more than one chunk, is
    expanded once per distinct point and gathered into each chunk: a
    (rows, 1) x (n,) grid expands rows + n coherent states, not 2 rows n.
    Every other component is expanded chunk by chunk. The values are the
    same either way. Memory does not grow with the batch beyond the
    inputs, the outputs, the checked angles and one gather index per cat:
    the working arrays of a chunk and each cached component hold at most
    BATCH_AMPLITUDES amplitudes. A single cat is cheaper through cat_crb,
    which expands it with the same expression.
    """
    # the points each component's own angles broadcast to
    owns = (np.broadcast(theta1, phi1), np.broadcast(theta2, phi2))
    batch = np.broadcast(*owns)
    shape, n = batch.shape, batch.size
    angles = np.empty((4, *shape))
    angles[0], angles[1], angles[2], angles[3] = theta1, theta2, phi1, phi2
    flat = angles.reshape(4, -1)
    _check_angles(flat)
    powers = _powers(j.two_j)
    step = batch_cells(j)

    def component(c: int):
        # cached when its own angles broadcast to fewer points than the
        # batch holds, and to no more than one chunk
        if owns[c].size < n and owns[c].size <= step:
            rows, index = _cached_component(powers, angles[c::2], owns[c].shape)
            return lambda part: rows[index[part]]
        return lambda part: _coherent_rows(powers, flat[c, part], flat[c + 2, part])

    qfi, crb, degenerate = _evaluate(_bands(j, g), step, n, component(0), component(1))
    return qfi.reshape(shape), crb.reshape(shape), degenerate.reshape(shape)


def cat_crb_line(j: SpinJ, g: Generator, base, k: int):
    """Bounds along angle k of each cat of base -> line(values).

    base is an (m, 4) array of points (theta1, theta2, phi1, phi2) and k,
    an int in range(4), the index of the angle a line search moves.
    line(values) takes one value per row of base and returns (qfi, crb,
    degenerate) of those cats with angle k set to the values, bit for bit
    what cat_crb_batch gives on those points. Any other k (a bool too),
    base shape or number of values raises ValueError.

    The line keeps its points as one (4, m) block and checks it with the
    call cat_crb_batch makes: when it is built, so a bad angle of base
    raises then, and at every call, with the values in row k. The fixed
    component is expanded once, and so is the factor of the moving one
    that angle k leaves alone: its phases on a theta line, its magnitudes
    on a phi line. A call computes only the moving factor, through the
    chunk loop of cat_crb_batch. The caches hold 2 m (2j + 1) amplitudes.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k not in range(4):
        raise ValueError(f"k must be an angle index in range(4), got {k!r}")
    points = np.asarray(base, dtype=float)
    if points.ndim != 2 or points.shape[1] != 4:
        raise ValueError(f"base must be an (m, 4) array of points, got shape {points.shape}")
    m = len(points)
    block = points.T.copy()
    _check_angles(block)
    powers, bands = _powers(j.two_j), _bands(j, g)
    moved = k % 2  # the component angle k belongs to
    other = _coherent_rows(powers, block[1 - moved], block[3 - moved])
    if k < 2:
        move, factor = _magnitudes, _phases(powers, block[k + 2])
    else:
        move, factor = _phases, _magnitudes(powers, block[k - 2])

    def line(values):
        if np.shape(values) != (m,):
            raise ValueError(f"line takes {m} values, one per point, got shape {np.shape(values)}")
        block[k] = values
        # the fixed rows stay as the caches read them, bar a phi reduced to 2 pi
        _check_angles(block)
        # complex products and sums commute exactly, so neither the order
        # of the two factors nor that of the two components moves a bit
        return _evaluate(
            bands,
            batch_cells(j),
            m,
            lambda part: move(powers, block[k, part]) * factor[part],
            lambda part: other[part],
        )

    return line
