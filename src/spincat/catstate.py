"""Equal-weight superpositions of two spin coherent states (cat states).

|cat> = N (|theta1, phi1, j> + |theta2, phi2, j>) with
N = 1 / sqrt(2 + 2 Re<1|2>). When the two components are (nearly) opposite
the sum vanishes and no state exists; that is a domain error, not a large
number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import instance
# coherent_state is not called here any more; it stays importable from this
# module because bench/spans.py rebinds it
from .coherent import CoherentParams, _coherent_rows, _powers, coherent_state  # noqa: F401
from .dicke import DickeVector, SpinJ

__all__ = [
    "CatParams",
    "DegenerateCatError",
    "normalization",
    "cat_state",
]

# squared norm of the unnormalized sum below which the cat is degenerate
DEGENERACY_FLOOR = 1e-12


class DegenerateCatError(ValueError):
    """The two components interfere away: ||v1 + v2||^2 <= DEGENERACY_FLOOR."""


@dataclass(frozen=True)
class CatParams:
    """Defining data of one cat state; each field must be of its type."""

    j: SpinJ
    p1: CoherentParams
    p2: CoherentParams

    def __post_init__(self):
        instance(self.j, SpinJ, "j")
        instance(self.p1, CoherentParams, "p1")
        instance(self.p2, CoherentParams, "p2")

    def swapped(self) -> "CatParams":
        """The same cat with its components in the other order."""
        return CatParams(self.j, self.p2, self.p1)


def _summed_amplitudes(c: CatParams) -> np.ndarray:
    # both components expanded in one (2, d) call, then v1 + v2
    rows = _coherent_rows(
        _powers(c.j.two_j), np.array([c.p1.theta, c.p2.theta]), np.array([c.p1.phi, c.p2.phi])
    )
    return rows[0] + rows[1]


def _norm_squared(summed: np.ndarray):
    # ||v1 + v2||^2 along the last axis, componentwise |.|^2: it keeps full
    # relative precision where the equivalent 2 + 2 Re<1|2> cancels
    # catastrophically (near-degenerate cats)
    return np.add.reduce(summed.real * summed.real + summed.imag * summed.imag, axis=-1)


def _checked_norm_squared(summed: np.ndarray) -> float:
    n2 = float(_norm_squared(summed))
    if n2 <= DEGENERACY_FLOOR:
        raise DegenerateCatError(
            f"cat state is degenerate: ||v1 + v2||^2 = {n2!r} <= {DEGENERACY_FLOOR}"
        )
    return n2


def _cat_amplitudes(c: CatParams) -> np.ndarray:
    """Unit-norm N (v1 + v2), checked once; DegenerateCatError at the floor."""
    summed = _summed_amplitudes(c)
    return summed / math.sqrt(_checked_norm_squared(summed))


def normalization(c: CatParams) -> float:
    """N = 1/sqrt(2 + 2 Re<1|2>); raises DegenerateCatError at the floor.
    A c of another type raises TypeError."""
    c = instance(c, CatParams, "c")
    return 1.0 / math.sqrt(_checked_norm_squared(_summed_amplitudes(c)))


def cat_state(c: CatParams) -> DickeVector:
    """Unit-norm N (v1 + v2) over the Dicke basis.

    The sum is symmetric in (p1, p2), so swapping the components returns the
    identical vector, not merely the same ray. A c of another type raises
    TypeError.
    """
    c = instance(c, CatParams, "c")
    return DickeVector(c.j, _cat_amplitudes(c))
