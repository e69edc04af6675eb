"""Closed-form bounds: frozen values, catalogue rows, witnesses, engine sweeps."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import spincat.metrology as metrology
from spincat import (
    FAMILIES,
    MAX_RESOLUTION,
    CatParams,
    ClosedFormCase,
    CoherentParams,
    DegenerateCatError,
    Generator,
    SpinJ,
    SweepReport,
    cat_crb,
    cat_crb_batch,
    closed_form,
    crb_half_x,
    crb_half_z,
    sweep_family,
)
from spincat.closedform import CRB_DIVERGENCE_CEILING, FamilyDefinition, _extended

from support import (
    crb_one_z_phi_pi_equal_theta_variant,
    crb_one_z_phi_pi_variant,
    grid_points,
    sequential_sweep_family,
)

HALF_PI = math.pi / 2
PI = math.pi


def test_frozen_golden_values():
    assert crb_half_z(3 * PI / 4, 3 * PI / 4, HALF_PI, 0.0) == pytest.approx(
        1.146446609406726, abs=1e-12
    )
    assert crb_half_z(HALF_PI, HALF_PI, HALF_PI, 0.0) == pytest.approx(
        3 / (2 * math.sqrt(2)), abs=1e-12
    )
    assert crb_half_z(HALF_PI, HALF_PI, 39 * PI / 40, 0.0) == pytest.approx(
        12.755298436443741, abs=1e-9
    )
    assert closed_form(
        ClosedFormCase.HALF_Z_PHI0, theta1=0.0, theta2=PI / 3
    ) == pytest.approx(2.0, abs=1e-12)
    assert closed_form(
        ClosedFormCase.HALF_Z_PHI0, theta1=0.0, theta2=HALF_PI
    ) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert crb_half_x(HALF_PI, HALF_PI, 0.0, HALF_PI) == pytest.approx(
        3 / math.sqrt(5), abs=1e-12
    )
    assert closed_form(
        ClosedFormCase.ONE_Z_PHIPI, theta1=HALF_PI, theta2=HALF_PI
    ) == pytest.approx(0.5, abs=1e-12)
    assert closed_form(ClosedFormCase.ONE_Z_ANTIPODAL, theta1=1.234, phi1=0.3) == 0.5


def test_equator_reduction_values():
    # phi-difference pi/2 on the equator reproduces the 3/(2 sqrt 2) point
    assert closed_form(ClosedFormCase.HALF_Z_EQUATOR, phi_diff=HALF_PI) == pytest.approx(
        3 / (2 * math.sqrt(2)), abs=1e-14
    )
    assert closed_form(ClosedFormCase.HALF_Z_EQUATOR, phi_diff=0.0) == pytest.approx(
        1.0, abs=1e-14
    )
    assert math.isinf(closed_form(ClosedFormCase.HALF_Z_EQUATOR, phi_diff=PI))


def _finite_pair(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and a < 20 and b < 20


def _assert_same(a: float, b: float, label) -> None:
    # relative: the general forms lose a few digits near their divergences
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), (label, a, b)


def _reference(defn, angles) -> float:
    # spin-1/2 rows restrict the general four-angle forms; the catalogue has
    # no general spin-1 form, so spin-1 rows are held to the engine
    if defn.spin == SpinJ(1):
        general = crb_half_x if defn.generator is Generator.X else crb_half_z
        return general(*angles)
    t1, t2, p1, p2 = angles
    cat = CatParams(defn.spin, CoherentParams(t1, p1), CoherentParams(t2, p2))
    try:
        return cat_crb(cat, defn.generator).crb
    except DegenerateCatError:
        return math.inf


@pytest.mark.parametrize("case", list(FAMILIES))
def test_rows_restrict_the_general_forms(case):
    defn = FAMILIES[case]
    rng = np.random.default_rng(101)
    for _ in range(200):
        params = {name: float(rng.uniform(lo, hi)) for name, lo, hi in defn.free_params}
        row = closed_form(case, **params)
        reference = _reference(defn, defn.angles(params))
        if _finite_pair(row, reference):
            _assert_same(row, reference, (case, params))


@pytest.mark.parametrize(
    "case",
    [
        ClosedFormCase.HALF_Z_MIRROR,
        ClosedFormCase.HALF_X_EQUATOR,
        ClosedFormCase.ONE_Z_PHI0,
        ClosedFormCase.ONE_Z_ANTIPODAL,
    ],
)
def test_quick_engine_sweeps(case):
    report = sweep_family(case, 15)
    assert report.event_mismatches == 0
    assert report.max_abs_deviation <= 1e-9
    assert report.points == 225
    assert report.passed(1e-9)


@pytest.mark.parametrize(
    "tol", [math.inf, -math.inf, math.nan, 0.0, -1e-9, True, False, np.True_]
)
def test_passed_refuses_tolerances_that_are_not_positive_finite(tol):
    # an infinite tolerance would pass every family whatever the deviation,
    # and True would pass as a tolerance of 1
    report = SweepReport(ClosedFormCase.ONE_Z_PHIHALF, 144, 144, 1.7e-13, 0, None)
    assert report.passed(1e-9) and report.passed(1) and not report.passed(1e-17)
    mismatched = dataclasses.replace(report, event_mismatches=1)
    for r in (report, mismatched):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            r.passed(tol)


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_closed_form_refuses_bool_angles(flag):
    # True would pass as an angle of 1.0
    with pytest.raises(ValueError, match="theta1 must be a number, not a bool"):
        closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=flag, theta2=0.5)
    with pytest.raises(ValueError, match="theta2 must be a number, not a bool"):
        closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=0.5, theta2=flag)


@pytest.mark.parametrize(
    "bad,message",
    [
        (math.nan, "must be finite"),
        (math.inf, "must be finite"),
        (-math.inf, "must be finite"),
        (True, "must be a number, not a bool"),
        (np.True_, "must be a number, not a bool"),
    ],
)
@pytest.mark.parametrize("position", [2, 3])
@pytest.mark.parametrize("formula", [crb_half_z, crb_half_x], ids=lambda f: f.__name__)
def test_general_forms_check_both_phases(formula, position, bad, message):
    # unchecked, nan came back as a divergent bound, inf raised a bare
    # math domain error and True passed as a phase of 1.0
    angles = [0.7, 1.9, 0.4, 2.2]
    angles[position] = bad
    with pytest.raises(ValueError, match=f"phi{position - 1} {message}"):
        formula(*angles)


def test_sweep_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        sweep_family(ClosedFormCase.HALF_Z_PHI0, 1)


def test_sweep_takes_a_numpy_integer_resolution():
    case = ClosedFormCase.HALF_X_GENERAL
    assert sweep_family(case, np.int64(7)) == sweep_family(case, 7)
    with pytest.raises(ValueError, match="resolution must be an integer"):
        sweep_family(case, np.True_)


def test_sweep_rejects_resolution_above_the_cap(monkeypatch):
    import spincat.closedform as closedform

    def never(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(closedform, "_grid_bounds", never)
    with pytest.raises(ValueError, match="resolution"):
        sweep_family(ClosedFormCase.HALF_Z_EQUATOR, MAX_RESOLUTION + 1)


def test_common_phase_invariance_of_z_forms():
    rng = np.random.default_rng(109)
    for _ in range(100):
        t1, t2 = rng.uniform(0.2, PI - 0.2, size=2)
        p1, p2 = rng.uniform(0, 2 * PI, size=2)
        shift = float(rng.uniform(0, 2 * PI))
        a = crb_half_z(t1, t2, p1, p2)
        b = crb_half_z(t1, t2, p1 + shift, p2 + shift)
        if _finite_pair(a, b):
            assert abs(a - b) < 1e-12


def test_individual_phase_witness_for_x():
    # same phase difference, different absolute phases: the bound moves
    a = crb_half_x(HALF_PI, HALF_PI, PI / 3, PI / 3)
    b = crb_half_x(HALF_PI, HALF_PI, HALF_PI, HALF_PI)
    assert a == pytest.approx(1.1547005383792517, abs=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)
    assert abs(a - b) > 0.1


def test_x_heisenberg_condition_surface():
    # cos(phi1) sin(theta1/2) + cos(phi2) sin(theta2/2) = 0 forces the bound
    # to exactly 1 for spin 1/2
    rng = np.random.default_rng(113)
    produced = 0
    while produced < 100:
        t1, t2 = rng.uniform(0.1, PI - 0.1, size=2)
        p1 = float(rng.uniform(0, 2 * PI))
        s1, s2 = math.sin(t1 / 2), math.sin(t2 / 2)
        target = -math.cos(p1) * s1 / s2
        if abs(target) > 1.0:
            continue
        p2 = math.acos(target) if produced % 2 == 0 else 2 * PI - math.acos(target)
        assert crb_half_x(t1, t2, p1, p2) == pytest.approx(1.0, abs=1e-9)
        produced += 1
    # the {pi/2, 3pi/2} great circle satisfies the condition at any thetas
    for t1, t2 in ((0.3, 2.8), (1.0, 1.0), (HALF_PI, HALF_PI)):
        assert crb_half_x(t1, t2, HALF_PI, 3 * HALF_PI) == pytest.approx(1.0, abs=1e-12)


def test_phi_pi_variant_is_a_pinned_discrepancy():
    # the sign-flipped variant agrees with nothing but thin slices
    variant = crb_one_z_phi_pi_variant(HALF_PI, HALF_PI)
    assert variant == pytest.approx(math.sqrt(8 / 30), abs=1e-15)
    corrected = closed_form(ClosedFormCase.ONE_Z_PHIPI, theta1=HALF_PI, theta2=HALF_PI)
    engine = cat_crb(
        CatParams(SpinJ(2), CoherentParams(HALF_PI, 0.0), CoherentParams(HALF_PI, PI)),
        Generator.Z,
    ).crb
    assert corrected == pytest.approx(engine, abs=1e-9)
    assert abs(variant - engine) > 1e-2


def test_phi_pi_equal_theta_variant_only_touches_at_half_pi():
    assert crb_one_z_phi_pi_equal_theta_variant(HALF_PI) == pytest.approx(
        closed_form(ClosedFormCase.ONE_Z_PHIPI_EQUALTHETA, theta1=HALF_PI),
        abs=1e-15,
    )
    t = PI / 3
    engine = cat_crb(
        CatParams(SpinJ(2), CoherentParams(t, 0.0), CoherentParams(t, PI)),
        Generator.Z,
    ).crb
    corrected = closed_form(ClosedFormCase.ONE_Z_PHIPI_EQUALTHETA, theta1=t)
    assert corrected == pytest.approx(engine, abs=1e-9)
    assert abs(crb_one_z_phi_pi_equal_theta_variant(t) - engine) > 0.1


def test_component_exchange_symmetry():
    rng = np.random.default_rng(127)
    for _ in range(100):
        t1, t2 = rng.uniform(0, PI, size=2)
        p1, p2 = rng.uniform(0, 2 * PI, size=2)
        a = crb_half_z(t1, t2, p1, p2)
        b = crb_half_z(t2, t1, p2, p1)
        if _finite_pair(a, b):
            assert abs(a - b) < 1e-12
        for family in (
            ClosedFormCase.ONE_Z_PHI0,
            ClosedFormCase.ONE_Z_PHIHALF,
            ClosedFormCase.ONE_Z_PHIPI,
        ):
            a = closed_form(family, theta1=t1, theta2=t2)
            b = closed_form(family, theta1=t2, theta2=t1)
            if _finite_pair(a, b):
                assert abs(a - b) < 1e-12
        a = crb_half_x(t1, t2, p1, p2)
        b = crb_half_x(t2, t1, p2, p1)
        if _finite_pair(a, b):
            assert abs(a - b) < 1e-12


def test_divergence_convention():
    assert CRB_DIVERGENCE_CEILING == pytest.approx(1e7)
    # denominator zero
    assert math.isinf(closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=0.0, theta2=0.0))
    # finite denominator but value beyond the ceiling clamps to inf
    assert math.isinf(closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=1e-9, theta2=0.0))
    # degenerate neighbourhoods are divergence events for the formulas too
    assert math.isinf(crb_half_z(PI, PI, 0.0, PI))
    assert math.isinf(crb_half_x(PI, PI, 0.0, PI))
    assert math.isinf(closed_form(ClosedFormCase.HALF_X_PHI_0PI, theta1=PI, theta2=PI))
    assert math.isinf(closed_form(ClosedFormCase.ONE_Z_PHIPI, theta1=0.0, theta2=0.0))


def test_the_phi_0pi_corner_at_the_degeneracy_floor_is_divergent(monkeypatch):
    # with the floor set to the corner's norm, 2 + 2 cos(pi) = 0.0 exactly,
    # the corner is degenerate: a norm at the floor is no state, as the
    # engine's _qfi_chunk has it, and the bare formula would give 1.0
    import spincat.closedform as closedform

    monkeypatch.setattr(closedform, "DEGENERACY_FLOOR", 2.0 + 2.0 * math.cos(PI))
    assert closedform.DEGENERACY_FLOOR == 0.0
    assert math.isinf(closed_form(ClosedFormCase.HALF_X_PHI_0PI, theta1=PI, theta2=PI))


def test_the_ceiling_itself_is_divergent_and_the_float_below_it_is_not():
    # the ceiling is the bound at qfi = QFI_DIVERGENCE_FLOOR, which the
    # engine reports as divergent
    assert math.isinf(_extended(CRB_DIVERGENCE_CEILING))
    below = math.nextafter(CRB_DIVERGENCE_CEILING, 0.0)
    assert _extended(below) == below


def test_reduction_dispatch_rejects_bad_requests():
    with pytest.raises(ValueError):
        closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=0.1)  # missing key
    with pytest.raises(ValueError):
        closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=0.1, theta2=0.2, x=1.0)
    with pytest.raises(ValueError):
        closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=4.0, theta2=0.2)
    with pytest.raises(ValueError):
        closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=math.nan, theta2=0.2)
    with pytest.raises(ValueError):
        closed_form(ClosedFormCase.HALF_Z_EQUATOR, phi_diff=math.nan)
    with pytest.raises(ValueError):
        crb_half_z(-0.5, 0.1, 0.0, 0.0)
    # a representation-level spill past an endpoint clamps instead
    assert closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=PI + 1e-12, theta2=0.3) == (
        closed_form(ClosedFormCase.HALF_Z_PHI0, theta1=PI, theta2=0.3)
    )


def test_family_registry_is_complete_and_consistent():
    assert set(FAMILIES) == set(ClosedFormCase)
    for case, defn in FAMILIES.items():
        assert defn.case is case
        expected_spin = SpinJ(2) if case.value.startswith("one_") else SpinJ(1)
        assert defn.spin == expected_spin
        expected_gen = Generator.X if case.value.startswith("half_x") else Generator.Z
        assert defn.generator is expected_gen
        assert 1 <= len(defn.free_params) <= 2
        mid = {name: (lo + hi) / 2 for name, lo, hi in defn.free_params}
        value = defn.formula(mid)
        assert math.isinf(value) or value > 0.0


INF = math.inf

# each row's formula at the first, middle and last point of its
# resolution-5 grid, as the catalogue computed them before it became one table
GOLDEN = {
    ClosedFormCase.HALF_Z_GENERAL: (INF, 1.0010440453318459, INF),
    ClosedFormCase.HALF_Z_MIRROR: (1.0, INF, 1.0),
    ClosedFormCase.HALF_Z_PHI0: (INF, 1.0, INF),
    ClosedFormCase.HALF_Z_PHIHALF: (INF, 1.0606601717798212, INF),
    ClosedFormCase.HALF_Z_PHIPI: (INF, INF, INF),
    ClosedFormCase.HALF_Z_EQUATOR: (1.0, INF, 1.0),
    ClosedFormCase.HALF_X_GENERAL: (1.0, 1.0024206598402576, 1.0),
    ClosedFormCase.HALF_X_PHI2HALF: (1.0, 1.3416407864998738, 1.0),
    ClosedFormCase.HALF_X_EQUALTHETA: (1.0, 1.3416407864998738, 1.0),
    ClosedFormCase.HALF_X_EQUATOR: (INF, INF, INF),
    ClosedFormCase.HALF_X_PHI_00: (1.0, INF, 1.0),
    ClosedFormCase.HALF_X_PHI_0PI: (1.0, 1.0, INF),
    ClosedFormCase.HALF_X_PHI34_THETA2_ZERO: (1.0, 1.414213562373095, INF),
    ClosedFormCase.HALF_X_PHI34_THETA1_ZERO: (1.0, 1.1547005383792517, 1.414213562373095),
    ClosedFormCase.ONE_Z_PHI0: (INF, 0.7071067811865476, INF),
    ClosedFormCase.ONE_Z_PHI0_MIRROR: (0.5, 0.7071067811865476, 0.5),
    ClosedFormCase.ONE_Z_PHIHALF: (INF, 1.0, INF),
    ClosedFormCase.ONE_Z_PHIHALF_MIRROR: (0.5, 1.0, 0.5),
    ClosedFormCase.ONE_Z_PHIHALF_EQUALTHETA: (INF, 1.0, INF),
    ClosedFormCase.ONE_Z_PHIPI: (INF, 0.5, INF),
    ClosedFormCase.ONE_Z_PHIPI_EQUALTHETA: (INF, 0.5, INF),
    ClosedFormCase.ONE_Z_ANTIPODAL: (0.5, 0.5, 0.5),
}


def test_row_formulas_match_golden_values():
    assert set(GOLDEN) == set(FAMILIES)
    for case, expected in GOLDEN.items():
        defn = FAMILIES[case]
        # the grid's first and last points are the domain corners; its middle
        # point (index 12 of 25 either way) is the midpoint of every axis
        points = [
            {name: lo + (hi - lo) * t for name, lo, hi in defn.free_params}
            for t in (0.0, 0.5, 1.0)
        ]
        for params, value in zip(points, expected):
            assert defn.formula(params) == value, (case, params)
            assert closed_form(case, **params) == value, (case, params)


# --- the array sweep against the point-by-point sweep -------------------------


def _bits(x):
    """A value as a comparable key: floats by float.hex, so nan == nan and
    0.0 != -0.0, and containers element by element with their types."""
    if isinstance(x, float):
        return "float", x.hex()
    if isinstance(x, dict):
        return "dict", tuple((k, _bits(v)) for k, v in x.items())
    if isinstance(x, tuple):
        return "tuple", tuple(_bits(v) for v in x)
    return type(x).__name__, x


def _report_bits(report):
    return _bits(tuple(getattr(report, f.name) for f in dataclasses.fields(report)))


# a chunk of 7 amplitudes splits every grid across many kernel blocks, the
# column of a one-parameter grid included
@pytest.mark.parametrize("amplitudes", [metrology.BATCH_AMPLITUDES, 7])
@pytest.mark.parametrize("resolution", [2, 3, 7, 50])
@pytest.mark.parametrize("case", list(ClosedFormCase))
def test_array_sweep_matches_the_point_by_point_sweep(monkeypatch, case, resolution, amplitudes):
    monkeypatch.setattr(metrology, "BATCH_AMPLITUDES", amplitudes)
    report = sweep_family(case, resolution)
    assert _report_bits(report) == _report_bits(sequential_sweep_family(case, resolution))


@pytest.mark.parametrize("case", [ClosedFormCase.HALF_Z_EQUATOR, ClosedFormCase.HALF_Z_GENERAL])
def test_sweep_memory_does_not_grow_with_the_grid(monkeypatch, case):
    # a one-parameter and a two-parameter row at resolution 1001, about a
    # million points: each block of the grid evaluator is compared as it
    # comes, so the sweep holds no array of the whole grid, where one
    # float64 grid alone is 8 bytes a point. The formula is a constant, so
    # the trace sees the sweep's own arrays and not the closed form's arithmetic
    defn = FAMILIES[case]
    monkeypatch.setitem(FAMILIES, case, dataclasses.replace(defn, formula=lambda p: 1.0))
    sweep_family(case, 3)
    tracemalloc.start()
    try:
        report = sweep_family(case, 1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.points == 1001 * 1001
    assert peak / report.points <= 2


@pytest.mark.parametrize("resolution", [2, 7])
def test_formula_is_called_once_per_point_with_python_floats(monkeypatch, resolution):
    for case, defn in list(FAMILIES.items()):
        calls = []

        def formula(p, defn=defn):
            calls.append(p)
            return defn.formula(p)

        monkeypatch.setitem(FAMILIES, case, dataclasses.replace(defn, formula=formula))
        report = sweep_family(case, resolution)
        names = [name for name, _, _ in defn.free_params]
        assert report.points == len(calls) == resolution**2
        assert all(list(p) == names for p in calls)
        assert all(type(v) is float for p in calls for v in p.values())
        assert calls == list(grid_points(defn, resolution))


# synthetic rows pinning the classification rules: spin 1/2, Jz, two free
# parameters on [0, 1]; resolution 5 puts the grid at 0, 1/4, 1/2, 3/4, 1

def _grid_angles(p):
    # thetas in [0.3, 1.3] and [1, 2] at equal phases: every cat finite
    return 0.3 + p["a"], 1.0 + p["b"], 0.0, 0.0


def _engine_value(p):
    _, bound, degenerate = cat_crb_batch(SpinJ(1), Generator.Z, *_grid_angles(p))
    return math.inf if degenerate else float(bound)


def _install(monkeypatch, angles, formula, amplitudes):
    """Put a synthetic row in place of HALF_Z_PHI0; chunks of at most
    amplitudes Dicke amplitudes split the grid into blocks."""
    case = ClosedFormCase.HALF_Z_PHI0
    defn = FamilyDefinition(
        case, SpinJ(1), Generator.Z, (("a", 0.0, 1.0), ("b", 0.0, 1.0)), angles, formula
    )
    monkeypatch.setitem(FAMILIES, case, defn)
    monkeypatch.setattr(metrology, "BATCH_AMPLITUDES", amplitudes)
    report = sweep_family(case, 5)
    assert _report_bits(report) == _report_bits(sequential_sweep_family(case, 5))
    return report


@pytest.mark.parametrize("amplitudes", [metrology.BATCH_AMPLITUDES, 7])
def test_sweep_never_reports_a_nan_deviation(monkeypatch, amplitudes):
    # nan at the first point and at a = 1/2; the engine is finite everywhere
    report = _install(
        monkeypatch,
        _grid_angles,
        lambda p: math.nan if p["a"] in (0.0, 0.5) and p["b"] == 0.0 else 5.0,
        amplitudes,
    )
    assert report.finite_points == 25 and report.event_mismatches == 0
    params, fv, ev = report.worst_point
    assert fv == 5.0 and report.max_abs_deviation == abs(5.0 - ev) > 0.0
    # nan everywhere: no deviation at all
    report = _install(monkeypatch, _grid_angles, lambda p: math.nan, amplitudes)
    assert report.worst_point is None and report.max_abs_deviation == 0.0
    assert report.finite_points == 25


@pytest.mark.parametrize("amplitudes", [metrology.BATCH_AMPLITUDES, 7])
def test_sweep_reports_the_last_event_mismatch(monkeypatch, amplitudes):
    # formula diverges where the engine does not, on the first three rows
    report = _install(
        monkeypatch,
        _grid_angles,
        lambda p: math.inf if p["a"] <= 0.5 else _engine_value(p),
        amplitudes,
    )
    assert report.event_mismatches == 15 and report.finite_points == 10
    params, fv, ev = report.worst_point
    assert params == {"a": 0.5, "b": 1.0} and fv == math.inf and math.isfinite(ev)


@pytest.mark.parametrize("amplitudes", [metrology.BATCH_AMPLITUDES, 7])
def test_sweep_reports_the_first_of_tied_worst_points(monkeypatch, amplitudes):
    # constant angles: the engine gives one value at every point, and the
    # formula is off by the same amount on the whole last column
    report = _install(
        monkeypatch,
        lambda p: (0.4, 1.1, 0.0, 0.2),
        lambda p: 6.0 if p["b"] == 1.0 and p["a"] >= 0.25 else 5.0,
        amplitudes,
    )
    assert report.worst_point[0] == {"a": 0.25, "b": 1.0}
    report = _install(monkeypatch, lambda p: (0.4, 1.1, 0.0, 0.2), lambda p: 5.0, amplitudes)
    assert report.worst_point[0] == {"a": 0.0, "b": 0.0}


@pytest.mark.parametrize("amplitudes", [metrology.BATCH_AMPLITUDES, 7])
def test_sweep_with_no_deviation_has_no_worst_point(monkeypatch, amplitudes):
    report = _install(monkeypatch, _grid_angles, _engine_value, amplitudes)
    assert report.finite_points == 25 and report.event_mismatches == 0
    assert report.max_abs_deviation == 0.0 and report.worst_point is None
