"""Closed-form Cramer-Rao bounds for two-component spin cat states.

Every analytic bound the library knows is a case of ClosedFormCase: the
general spin-1/2 expressions for Jz and Jx phases, their special-surface
reductions, and the spin-1 Jz families at relative phase 0, pi/2 and pi.
FAMILIES is the one table of them, a FamilyDefinition row per case giving
its spin, its generator, its free parameters, their embedding into the cat
angles (theta1, theta2, phi1, phi2) and the formula on that surface.
closed_form(case, **params) evaluates one case at checked parameters, and
sweep_family compares a row's formula against the numeric engine at every
point of a grid on its constraint surface, the engine side through scan's
grid evaluator. crb_half_z and crb_half_x are the general four-angle
spin-1/2 forms; they check their angles, and the spin-1/2 rows restrict
their unchecked cores.

Conventions shared with the engine: a bound is returned as a float, with
+inf standing for a diverging bound (vanishing Fisher information). A
closed form evaluating above CRB_DIVERGENCE_CEILING = (1e-14)^(-1/2) is
clamped to +inf so that exact zeros of the engine (qfi floor 1e-14) and
exact zeros of a formula denominator classify identically. The formulas
state that rule through three helpers: _ratio (a zero denominator),
_sqrt_ratio (a vanishing numerator or denominator) and _inverse_root (a
Fisher-information-like term at or below the engine's floor). Degenerate
cat points, where no state exists, also compare as divergence events in
sweeps.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ._checks import instance, real
# CatParams, CoherentParams and cat_crb are not called here any more; they
# stay importable from this module because bench/spans.py rebinds them
from .catstate import DEGENERACY_FLOOR, CatParams  # noqa: F401
from .coherent import CoherentParams, check_theta  # noqa: F401
from .dicke import SpinJ
from .metrology import QFI_DIVERGENCE_FLOOR, Generator, cat_crb  # noqa: F401
from .scan import _axis, _grid_bounds, check_resolution

__all__ = [
    "ClosedFormCase",
    "CRB_DIVERGENCE_CEILING",
    "closed_form",
    "crb_half_z",
    "crb_half_x",
    "FamilyDefinition",
    "FAMILIES",
    "SweepReport",
    "sweep_family",
]

HALF_PI = math.pi / 2
PI = math.pi

# bounds at or above this are classified as divergent; the mirror image of
# the engine's qfi floor so both sides agree on events
CRB_DIVERGENCE_CEILING = 1.0 / math.sqrt(QFI_DIVERGENCE_FLOOR)


class ClosedFormCase(enum.Enum):
    """One case of the closed-form catalogue; FAMILIES[case] holds its row."""

    # spin-1/2, generator Jz
    HALF_Z_GENERAL = "half_z_general"
    HALF_Z_MIRROR = "half_z_mirror"
    HALF_Z_PHI0 = "half_z_phi0"
    HALF_Z_PHIHALF = "half_z_phihalf"
    HALF_Z_PHIPI = "half_z_phipi"
    HALF_Z_EQUATOR = "half_z_equator"
    # spin-1/2, generator Jx
    HALF_X_GENERAL = "half_x_general"
    HALF_X_PHI2HALF = "half_x_phi2half"
    HALF_X_EQUALTHETA = "half_x_equaltheta"
    HALF_X_EQUATOR = "half_x_equator"
    HALF_X_PHI_00 = "half_x_phi_00"
    HALF_X_PHI_0PI = "half_x_phi_0pi"
    HALF_X_PHI34_THETA2_ZERO = "half_x_phi34_theta2_zero"
    HALF_X_PHI34_THETA1_ZERO = "half_x_phi34_theta1_zero"
    # spin-1, generator Jz
    ONE_Z_PHI0 = "one_z_phi0"
    ONE_Z_PHI0_MIRROR = "one_z_phi0_mirror"
    ONE_Z_PHIHALF = "one_z_phihalf"
    ONE_Z_PHIHALF_MIRROR = "one_z_phihalf_mirror"
    ONE_Z_PHIHALF_EQUALTHETA = "one_z_phihalf_equaltheta"
    ONE_Z_PHIPI = "one_z_phipi"
    ONE_Z_PHIPI_EQUALTHETA = "one_z_phipi_equaltheta"
    ONE_Z_ANTIPODAL = "one_z_antipodal"


# ---------------------------------------------------------------------------
# extended-real plumbing

def _extended(value: float) -> float:
    if not math.isfinite(value) or value <= 0.0 or value >= CRB_DIVERGENCE_CEILING:
        return math.inf
    return value


def _sqrt_ratio(num: float, den: float) -> float:
    """sqrt(num/den) as an extended real; vanishing pieces mean divergence."""
    if den <= 0.0 or num <= 0.0 or not math.isfinite(den):
        return math.inf
    return _extended(math.sqrt(num / den))


def _ratio(num: float, den: float) -> float:
    """num/den as an extended real; a zero denominator means divergence."""
    return math.inf if den == 0.0 else _extended(num / den)


def _inverse_root(q: float) -> float:
    """1/sqrt(q) as an extended real; q at or below the engine's qfi floor
    means divergence."""
    return math.inf if q <= QFI_DIVERGENCE_FLOOR else _extended(1.0 / math.sqrt(q))


def _checked(theta1, theta2, phi1, phi2) -> tuple[float, float, float, float]:
    """The four cat angles as floats, each checked by its own name."""
    return (
        check_theta(theta1, "theta1"),
        check_theta(theta2, "theta2"),
        real(phi1, "phi1"),
        real(phi2, "phi2"),
    )


# ---------------------------------------------------------------------------
# spin-1/2, generator Jz

def crb_half_z(theta1: float, theta2: float, phi1: float, phi2: float) -> float:
    """General j = 1/2 Jz bound.

        sqrt( 2 [1 + c1 c2 + cos(dphi) s1 s2]^2 /
              ((c1+c2)^2 [2 - cos t1 - cos t2 + 4 cos(dphi) s1 s2]) )

    with ck = cos(tk/2), sk = sin(tk/2). The denominator bracket is
    evaluated as 2(s1-s2)^2 + 4(1+cos dphi) s1 s2, an exact half-angle
    identity that avoids cancellation near the dphi = pi diagonal. Each
    angle is checked as closed_form checks it; a bad one raises ValueError.
    """
    return _half_z(*_checked(theta1, theta2, phi1, phi2))


def _half_z(theta1: float, theta2: float, phi1: float, phi2: float) -> float:
    c1, c2 = math.cos(theta1 / 2), math.cos(theta2 / 2)
    s1, s2 = math.sin(theta1 / 2), math.sin(theta2 / 2)
    cphi = math.cos(phi1 - phi2)
    half_norm = 1.0 + c1 * c2 + cphi * s1 * s2  # = 1/(2 N^2)
    bracket = 2.0 * (s1 - s2) ** 2 + 4.0 * (1.0 + cphi) * s1 * s2
    return _sqrt_ratio(2.0 * half_norm**2, (c1 + c2) ** 2 * bracket)


def _half_z_mirror(theta1: float, phi_diff: float) -> float:
    # theta2 = pi - theta1 restriction of crb_half_z
    st = math.sin(theta1)
    cphi = math.cos(phi_diff)
    num = (2.0 + st * (1.0 + cphi)) ** 2
    return _sqrt_ratio(num, 4.0 * (1.0 + st) * (1.0 + st * cphi))


def _half_z_phi0(theta1: float, theta2: float) -> float:
    return _ratio(1.0, abs(math.sin((theta1 + theta2) / 2)))


def _half_z_phihalf(theta1: float, theta2: float) -> float:
    c1, c2 = math.cos(theta1 / 2), math.cos(theta2 / 2)
    s1, s2 = math.sin(theta1 / 2), math.sin(theta2 / 2)
    num = 2.0 * (1.0 + c1 * c2) ** 2
    den = (c1 + c2) ** 2 * 2.0 * (s1 * s1 + s2 * s2)
    return _sqrt_ratio(num, den)


def _half_z_phipi(theta1: float, theta2: float) -> float:
    return _ratio(1.0, abs(math.sin((theta1 - theta2) / 2)))


def _half_z_equator(phi_diff: float) -> float:
    return _ratio(3.0 + math.cos(phi_diff), 4.0 * abs(math.cos(phi_diff / 2)))


# ---------------------------------------------------------------------------
# spin-1/2, generator Jx

def crb_half_x(theta1: float, theta2: float, phi1: float, phi2: float) -> float:
    """General j = 1/2 Jx bound.

        [ 1 - (c1+c2)^2 (cos(phi1) s1 + cos(phi2) s2)^2
              / (1 + c1 c2 + cos(phi1-phi2) s1 s2)^2 ]^(-1/2)

    Both phases enter individually: the bound hits the Heisenberg limit
    exactly on cos(phi1) s1 + cos(phi2) s2 = 0. Each angle is checked as
    closed_form checks it; a bad one raises ValueError.
    """
    return _half_x(*_checked(theta1, theta2, phi1, phi2))


def _half_x(theta1: float, theta2: float, phi1: float, phi2: float) -> float:
    c1, c2 = math.cos(theta1 / 2), math.cos(theta2 / 2)
    s1, s2 = math.sin(theta1 / 2), math.sin(theta2 / 2)
    half_norm = 1.0 + c1 * c2 + math.cos(phi1 - phi2) * s1 * s2
    if half_norm <= 0.0:
        return math.inf  # degenerate neighbourhood
    pol = (c1 + c2) * (math.cos(phi1) * s1 + math.cos(phi2) * s2) / half_norm
    return _inverse_root(1.0 - pol * pol)


def _half_x_equal_theta(theta: float) -> float:
    den = 15.0 + 12.0 * math.cos(theta) + 5.0 * math.cos(2 * theta)
    return _sqrt_ratio(2.0 * (3.0 + math.cos(theta)) ** 2, den)


def _half_x_equator(phi1: float, phi2: float) -> float:
    ratio = 4.0 * (math.cos(phi1) + math.cos(phi2)) ** 2 / (
        3.0 + math.cos(phi1 - phi2)
    ) ** 2
    return _inverse_root(1.0 - ratio)


def _inv_abs_cos(x: float) -> float:
    return _ratio(1.0, abs(math.cos(x)))


def _half_x_phi_0pi(theta1: float, theta2: float) -> float:
    # on the (0, pi) phase surface the cat norm is 2 + 2 cos((t1+t2)/2),
    # vanishing at (pi, pi); the bare 1/|cos((t1-t2)/2)| stays finite there,
    # so the degenerate corner must be flagged the way the engine flags it
    if 2.0 + 2.0 * math.cos((theta1 + theta2) / 2) <= DEGENERACY_FLOOR:
        return math.inf
    return _inv_abs_cos((theta1 - theta2) / 2)


# ---------------------------------------------------------------------------
# spin-1, generator Jz

def _one_z_phi0(theta1: float, theta2: float) -> float:
    a = math.cos(3 * theta1 - theta2) + math.cos(3 * theta2 - theta1)
    b = math.cos(2 * theta1) + math.cos(2 * theta2)
    c = math.cos(2 * (theta1 - theta2))
    d = math.cos(theta1 + theta2)
    num = 2.0 * (math.cos(theta1 - theta2) + 3.0) ** 2
    return _sqrt_ratio(num, a - 8.0 * b + 2.0 * c - 18.0 * d + 30.0)


def _one_z_phihalf(theta1: float, theta2: float) -> float:
    ct1, ct2 = math.cos(theta1), math.cos(theta2)
    a = ct1 + ct2 + 2.0
    b = math.cos(2 * theta1) + math.cos(2 * theta2) - 8.0 * ct1 * ct2 + 6.0
    c = 4.0 * (ct1 * ct2 - 1.0) ** 2
    return _sqrt_ratio(a * a, a * b - c)


def _one_z_phipi(theta1: float, theta2: float) -> float:
    # theta2 -> -theta2 image of the phi = 0 family
    a = math.cos(3 * theta1 + theta2) + math.cos(theta1 + 3 * theta2)
    b = math.cos(2 * theta1) + math.cos(2 * theta2)
    c = math.cos(2 * (theta1 + theta2))
    d = math.cos(theta1 - theta2)
    num = 2.0 * (math.cos(theta1 + theta2) + 3.0) ** 2
    return _sqrt_ratio(num, a - 8.0 * b + 2.0 * c - 18.0 * d + 30.0)


def _one_z_phi0_mirror(theta1: float) -> float:
    return _extended(math.sqrt((3.0 - math.cos(2 * theta1)) / 8.0))


def _one_z_phihalf_mirror(theta1: float) -> float:
    den = 12.0 * math.cos(2 * theta1) - math.cos(4 * theta1) + 21.0
    return _sqrt_ratio(8.0, den)


def _one_z_phihalf_equal_theta(theta1: float) -> float:
    return _ratio(1.0, abs(math.sin(theta1)))


def _one_z_phipi_equal_theta(theta1: float) -> float:
    return _ratio(3.0 + math.cos(2 * theta1), 4.0 * math.sin(theta1) ** 2)


# ---------------------------------------------------------------------------
# the catalogue: one row per case, and formula-vs-engine sweeps

HALF = SpinJ(1)
ONE = SpinJ(2)

# generic pinned phases for the general families; chosen away from any
# divergence surface of the swept grids (see sweep tests)
_GENERAL_Z_PHASES = (0.7, 0.1)
_GENERAL_X_PHASES = (0.9, 2.1)

_THETA_DOMAIN = (0.0, PI)
_PHI_DOMAIN = (0.0, 2 * PI)


@dataclass(frozen=True)
class FamilyDefinition:
    """One constraint surface: free parameters, the embedding into full cat
    angles (theta1, theta2, phi1, phi2), the closed form on that surface,
    and the spin/generator of the engine it must match.

    formula takes a mapping of the free parameters that is already valid:
    every value finite and every theta within [0, pi]. closed_form checks
    outside input before calling it; sweep grids are valid by construction.

    angles is also applied to arrays: sweep_family passes it a mapping of
    one array per free parameter, a column of the first parameter's values
    and the row of the second's, once per block of grid rows. It must
    therefore be elementwise arithmetic on its values (+, -, * and
    constants), which gives the same bits on an array as on each float
    alone. A constant entry, or one that ignores a parameter, is fine.
    """

    case: ClosedFormCase
    spin: SpinJ
    generator: Generator
    free_params: tuple[tuple[str, float, float], ...]
    angles: Callable[[Mapping[str, float]], tuple[float, float, float, float]]
    formula: Callable[[Mapping[str, float]], float]


_T1 = ("theta1",) + _THETA_DOMAIN
_T2 = ("theta2",) + _THETA_DOMAIN

FAMILIES: dict[ClosedFormCase, FamilyDefinition] = {
    f.case: f
    for f in [
        FamilyDefinition(
            ClosedFormCase.HALF_Z_GENERAL,
            HALF,
            Generator.Z,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], *_GENERAL_Z_PHASES),
            lambda p: _half_z(p["theta1"], p["theta2"], *_GENERAL_Z_PHASES),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_Z_MIRROR,
            HALF,
            Generator.Z,
            (_T1, ("phi_diff",) + _PHI_DOMAIN),
            lambda p: (p["theta1"], PI - p["theta1"], p["phi_diff"], 0.0),
            lambda p: _half_z_mirror(p["theta1"], p["phi_diff"]),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_Z_PHI0,
            HALF,
            Generator.Z,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], 0.0, 0.0),
            lambda p: _half_z_phi0(p["theta1"], p["theta2"]),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_Z_PHIHALF,
            HALF,
            Generator.Z,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], 0.0, HALF_PI),
            lambda p: _half_z_phihalf(p["theta1"], p["theta2"]),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_Z_PHIPI,
            HALF,
            Generator.Z,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], 0.0, PI),
            lambda p: _half_z_phipi(p["theta1"], p["theta2"]),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_Z_EQUATOR,
            HALF,
            Generator.Z,
            (("phi_diff",) + _PHI_DOMAIN,),
            lambda p: (HALF_PI, HALF_PI, 0.0, p["phi_diff"]),
            lambda p: _half_z_equator(p["phi_diff"]),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_X_GENERAL,
            HALF,
            Generator.X,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], *_GENERAL_X_PHASES),
            lambda p: _half_x(p["theta1"], p["theta2"], *_GENERAL_X_PHASES),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_X_PHI2HALF,
            HALF,
            Generator.X,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], 0.0, HALF_PI),
            lambda p: _half_x(p["theta1"], p["theta2"], 0.0, HALF_PI),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_X_EQUALTHETA,
            HALF,
            Generator.X,
            (("theta",) + _THETA_DOMAIN,),
            lambda p: (p["theta"], p["theta"], 0.0, HALF_PI),
            lambda p: _half_x_equal_theta(p["theta"]),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_X_EQUATOR,
            HALF,
            Generator.X,
            (("phi1",) + _PHI_DOMAIN, ("phi2",) + _PHI_DOMAIN),
            lambda p: (HALF_PI, HALF_PI, p["phi1"], p["phi2"]),
            lambda p: _half_x_equator(p["phi1"], p["phi2"]),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_X_PHI_00,
            HALF,
            Generator.X,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], 0.0, 0.0),
            lambda p: _inv_abs_cos((p["theta1"] + p["theta2"]) / 2),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_X_PHI_0PI,
            HALF,
            Generator.X,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], 0.0, PI),
            lambda p: _half_x_phi_0pi(p["theta1"], p["theta2"]),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_X_PHI34_THETA2_ZERO,
            HALF,
            Generator.X,
            (_T1,),
            lambda p: (p["theta1"], 0.0, 0.0, 3 * PI / 4),
            lambda p: _inv_abs_cos(p["theta1"] / 2),
        ),
        FamilyDefinition(
            ClosedFormCase.HALF_X_PHI34_THETA1_ZERO,
            HALF,
            Generator.X,
            (_T2,),
            lambda p: (0.0, p["theta2"], 0.0, 3 * PI / 4),
            lambda p: _extended(2.0 / math.sqrt(3.0 + math.cos(p["theta2"]))),
        ),
        FamilyDefinition(
            ClosedFormCase.ONE_Z_PHI0,
            ONE,
            Generator.Z,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], 0.0, 0.0),
            lambda p: _one_z_phi0(p["theta1"], p["theta2"]),
        ),
        FamilyDefinition(
            ClosedFormCase.ONE_Z_PHI0_MIRROR,
            ONE,
            Generator.Z,
            (_T1,),
            lambda p: (p["theta1"], PI - p["theta1"], 0.0, 0.0),
            lambda p: _one_z_phi0_mirror(p["theta1"]),
        ),
        FamilyDefinition(
            ClosedFormCase.ONE_Z_PHIHALF,
            ONE,
            Generator.Z,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], 0.0, HALF_PI),
            lambda p: _one_z_phihalf(p["theta1"], p["theta2"]),
        ),
        FamilyDefinition(
            ClosedFormCase.ONE_Z_PHIHALF_MIRROR,
            ONE,
            Generator.Z,
            (_T1,),
            lambda p: (p["theta1"], PI - p["theta1"], 0.0, HALF_PI),
            lambda p: _one_z_phihalf_mirror(p["theta1"]),
        ),
        FamilyDefinition(
            ClosedFormCase.ONE_Z_PHIHALF_EQUALTHETA,
            ONE,
            Generator.Z,
            (_T1,),
            lambda p: (p["theta1"], p["theta1"], 0.0, HALF_PI),
            lambda p: _one_z_phihalf_equal_theta(p["theta1"]),
        ),
        FamilyDefinition(
            ClosedFormCase.ONE_Z_PHIPI,
            ONE,
            Generator.Z,
            (_T1, _T2),
            lambda p: (p["theta1"], p["theta2"], 0.0, PI),
            lambda p: _one_z_phipi(p["theta1"], p["theta2"]),
        ),
        FamilyDefinition(
            ClosedFormCase.ONE_Z_PHIPI_EQUALTHETA,
            ONE,
            Generator.Z,
            (_T1,),
            lambda p: (p["theta1"], p["theta1"], 0.0, PI),
            lambda p: _one_z_phipi_equal_theta(p["theta1"]),
        ),
        FamilyDefinition(
            ClosedFormCase.ONE_Z_ANTIPODAL,
            ONE,
            Generator.Z,
            (_T1, ("phi1",) + _PHI_DOMAIN),
            lambda p: (p["theta1"], PI - p["theta1"], p["phi1"], p["phi1"] + PI),
            lambda p: 0.5,
        ),
    ]
}


def closed_form(case: ClosedFormCase, **params: float) -> float:
    """Closed-form bound of one catalogue case at its free parameters.

    params must name exactly the case's free parameters, those of
    FAMILIES[case].free_params, e.g.

        closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=0.0, theta2=pi / 3)

    case must be a ClosedFormCase. Every value is a real argument, and each
    polar angle is checked and clamped to [0, pi] as CoherentParams does;
    anything else raises ValueError. A diverging bound is returned as +inf.
    """
    defn = FAMILIES[instance(case, ClosedFormCase, "case")]
    names = {name for name, _, _ in defn.free_params}
    missing = names - set(params)
    extra = set(params) - names
    if missing or extra:
        raise ValueError(
            f"{case.value} takes parameters {sorted(names)}; "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    checked = {}
    for name, lo, hi in defn.free_params:
        check = check_theta if (lo, hi) == _THETA_DOMAIN else real
        checked[name] = check(params[name], name)
    return defn.formula(checked)


def check_tol(tol, name: str = "tol") -> float:
    """tol, a real argument, as a float; ValueError unless it is positive.
    An infinite tolerance would pass every family whatever the deviation."""
    rule = f"{name} must be positive and finite, got {tol!r}"
    value = real(tol, name, rule)
    if value <= 0.0:
        raise ValueError(rule)
    return value


# sweep_family's points per free parameter, the default of verify --res too
_SWEEP_RESOLUTION = 50


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one formula-vs-engine constraint-surface sweep."""

    case: ClosedFormCase
    points: int
    finite_points: int
    max_abs_deviation: float
    event_mismatches: int
    worst_point: tuple | None

    def passed(self, tol: float) -> bool:
        """No event mismatch and no deviation above tol, which check_tol checks."""
        tol = check_tol(tol)
        return self.event_mismatches == 0 and self.max_abs_deviation <= tol


def sweep_family(case: ClosedFormCase, resolution: int = _SWEEP_RESOLUTION) -> SweepReport:
    """Compare the closed form against the numeric engine on the family grid.

    Divergences (and degenerate-cat points) must coincide as events; finite
    points are compared by absolute deviation. resolution is points per
    free parameter, 2 <= resolution <= MAX_RESOLUTION; one-parameter
    families take resolution**2 points. The engine side is scan's grid
    evaluator on the grid's axes, a one-parameter grid as a column of all
    its points, with the row's angle map applied to them as arrays. The
    evaluator's blocks of rows are compared as they come: the formula is
    called once per point of each block, in grid order, and the finite
    count, the mismatch count, the last event mismatch and the first
    largest deviation are carried from block to block, so no array grows
    with the grid. The reported worst point is the last event mismatch if
    there is one, else the first point of largest nonzero deviation; a nan
    deviation never counts.
    """
    defn = FAMILIES[instance(case, ClosedFormCase, "case")]
    resolution = check_resolution(resolution)
    names = [name for name, _, _ in defn.free_params]
    f = defn.formula
    if len(names) == 1:
        ((x_name, lo, hi),) = defn.free_params
        rows, cols = (lo, hi, resolution * resolution), np.zeros(1)

        def formula(xs: list) -> list:
            return [f({x_name: x}) for x in xs]
    else:
        (x_name, lo1, hi1), (y_name, lo2, hi2) = defn.free_params
        rows, cols = (lo1, hi1, resolution), _axis(lo2, hi2, resolution)
        ys = cols.tolist()

        def formula(xs: list) -> list:
            return [f({x_name: x, y_name: y}) for x in xs for y in ys]

    blocks = _grid_bounds(
        defn.spin, defn.generator, lambda x, y: defn.angles(dict(zip(names, (x, y)))), rows, cols
    )
    finite = mismatches = 0
    largest, worst_point, last_mismatch = 0.0, None, None
    for block, crb, degenerate in blocks:
        xs = _axis(*rows, block)
        values = np.array(formula(xs.tolist()), dtype=float)
        engine = np.where(degenerate, math.inf, crb).ravel()  # no state: a divergence event
        f_div, e_div = np.isinf(values), np.isinf(engine)
        mismatch = np.flatnonzero(f_div != e_div)
        both = ~(f_div | e_div)
        with np.errstate(invalid="ignore"):  # inf - inf where both diverge
            dev = values - engine
        np.abs(dev, out=dev)
        dev[~(both & (dev > 0.0))] = 0.0  # nan > 0 is false
        first = int(np.argmax(dev))
        finite += int(np.count_nonzero(both))
        if mismatch.size:
            mismatches += mismatch.size
            last_mismatch = _point(names, xs, cols, values, engine, mismatch[-1])
        if dev[first] > largest:
            largest = dev[first].item()
            worst_point = _point(names, xs, cols, values, engine, first)
    return SweepReport(
        case=case,
        points=rows[2] * len(cols),
        finite_points=finite,
        max_abs_deviation=largest,
        event_mismatches=mismatches,
        worst_point=worst_point if last_mismatch is None else last_mismatch,
    )


def _point(names: list, rows, cols, formula, engine, i: int) -> tuple:
    """(parameters, formula value, engine value) of point i of the block
    rows x cols, in row-major order; a one-parameter grid has one column."""
    r, c = divmod(int(i), len(cols))
    params = dict(zip(names, (rows[r].item(), cols[c].item())))
    return params, formula[i].item(), engine[i].item()
