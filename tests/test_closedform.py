"""Closed-form bounds: frozen values, reductions, witnesses, engine sweeps."""
import math

import numpy as np
import pytest

from spincat import (
    FAMILIES,
    MAX_RESOLUTION,
    CatParams,
    ClosedFormCase,
    CoherentParams,
    Generator,
    SpinJ,
    cat_crb,
    crb_half_x,
    crb_half_x_reductions,
    crb_half_z,
    crb_half_z_reductions,
    crb_one_z,
    crb_one_z_reductions,
    sweep_family,
)
from spincat.closedform import (
    CRB_DIVERGENCE_CEILING,
    crb_one_z_phi_pi_equal_theta_variant,
    crb_one_z_phi_pi_variant,
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
    assert crb_half_z_reductions(
        ClosedFormCase.HALF_Z_PHI0, {"theta1": 0.0, "theta2": PI / 3}
    ) == pytest.approx(2.0, abs=1e-12)
    assert crb_half_z_reductions(
        ClosedFormCase.HALF_Z_PHI0, {"theta1": 0.0, "theta2": HALF_PI}
    ) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert crb_half_x(HALF_PI, HALF_PI, 0.0, HALF_PI) == pytest.approx(
        3 / math.sqrt(5), abs=1e-12
    )
    assert crb_one_z(PI, HALF_PI, HALF_PI) == pytest.approx(0.5, abs=1e-12)
    assert crb_one_z_reductions(
        ClosedFormCase.ONE_Z_ANTIPODAL, {"theta1": 1.234}
    ) == 0.5


def test_equator_reduction_values():
    # phi-difference pi/2 on the equator reproduces the 3/(2 sqrt 2) point
    assert crb_half_z_reductions(
        ClosedFormCase.HALF_Z_EQUATOR, {"phi_diff": HALF_PI}
    ) == pytest.approx(3 / (2 * math.sqrt(2)), abs=1e-14)
    assert crb_half_z_reductions(
        ClosedFormCase.HALF_Z_EQUATOR, {"phi_diff": 0.0}
    ) == pytest.approx(1.0, abs=1e-14)
    assert math.isinf(
        crb_half_z_reductions(ClosedFormCase.HALF_Z_EQUATOR, {"phi_diff": PI})
    )


def _finite_pair(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and a < 20 and b < 20


def _assert_same(a: float, b: float, label) -> None:
    # relative: the general forms lose a few digits near their divergences
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), (label, a, b)


def test_half_z_reductions_restrict_the_general_form():
    rng = np.random.default_rng(101)
    for _ in range(200):
        t1, t2 = rng.uniform(0, PI, size=2)
        pd = float(rng.uniform(0, 2 * PI))
        surfaces = [
            (ClosedFormCase.HALF_Z_MIRROR, {"theta1": t1, "phi_diff": pd}, (t1, PI - t1, pd, 0.0)),
            (ClosedFormCase.HALF_Z_PHI0, {"theta1": t1, "theta2": t2}, (t1, t2, 0.0, 0.0)),
            (ClosedFormCase.HALF_Z_PHIHALF, {"theta1": t1, "theta2": t2}, (t1, t2, 0.0, HALF_PI)),
            (ClosedFormCase.HALF_Z_PHIPI, {"theta1": t1, "theta2": t2}, (t1, t2, 0.0, PI)),
            (ClosedFormCase.HALF_Z_EQUATOR, {"phi_diff": pd}, (HALF_PI, HALF_PI, 0.0, pd)),
        ]
        for case, params, angles in surfaces:
            red = crb_half_z_reductions(case, params)
            gen = crb_half_z(*angles)
            if _finite_pair(red, gen):
                _assert_same(red, gen, case)


def test_half_x_reductions_restrict_the_general_form():
    rng = np.random.default_rng(103)
    for _ in range(200):
        t1, t2 = rng.uniform(0, PI, size=2)
        p1, p2 = rng.uniform(0, 2 * PI, size=2)
        surfaces = [
            (ClosedFormCase.HALF_X_PHI2HALF, {"theta1": t1, "theta2": t2}, (t1, t2, 0.0, HALF_PI)),
            (ClosedFormCase.HALF_X_EQUALTHETA, {"theta": t1}, (t1, t1, 0.0, HALF_PI)),
            (ClosedFormCase.HALF_X_EQUATOR, {"phi1": p1, "phi2": p2}, (HALF_PI, HALF_PI, p1, p2)),
            (ClosedFormCase.HALF_X_PHI_00, {"theta1": t1, "theta2": t2}, (t1, t2, 0.0, 0.0)),
            (ClosedFormCase.HALF_X_PHI_0PI, {"theta1": t1, "theta2": t2}, (t1, t2, 0.0, PI)),
            (ClosedFormCase.HALF_X_PHI34_THETA2_ZERO, {"theta1": t1}, (t1, 0.0, 0.0, 3 * PI / 4)),
            (ClosedFormCase.HALF_X_PHI34_THETA1_ZERO, {"theta2": t2}, (0.0, t2, 0.0, 3 * PI / 4)),
        ]
        for case, params, angles in surfaces:
            red = crb_half_x_reductions(case, params)
            gen = crb_half_x(*angles)
            if _finite_pair(red, gen):
                _assert_same(red, gen, case)


def test_one_z_reductions_restrict_the_family_forms():
    rng = np.random.default_rng(107)
    for _ in range(200):
        t = float(rng.uniform(0, PI))
        surfaces = [
            (ClosedFormCase.ONE_Z_PHI0_MIRROR, 0.0, (t, PI - t)),
            (ClosedFormCase.ONE_Z_PHIHALF_MIRROR, HALF_PI, (t, PI - t)),
            (ClosedFormCase.ONE_Z_PHIHALF_EQUALTHETA, HALF_PI, (t, t)),
            (ClosedFormCase.ONE_Z_PHIPI_EQUALTHETA, PI, (t, t)),
            (ClosedFormCase.ONE_Z_ANTIPODAL, PI, (t, PI - t)),
        ]
        for case, family, thetas in surfaces:
            red = crb_one_z_reductions(case, {"theta1": t})
            gen = crb_one_z(family, *thetas)
            if _finite_pair(red, gen):
                _assert_same(red, gen, case)


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


def test_sweep_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        sweep_family(ClosedFormCase.HALF_Z_PHI0, 1)


def test_sweep_rejects_resolution_above_the_cap(monkeypatch):
    import spincat.closedform as closedform

    def never(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(closedform, "cat_crb_batch", never)
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
    corrected = crb_one_z(PI, HALF_PI, HALF_PI)
    engine = cat_crb(
        CatParams(SpinJ(2), CoherentParams(HALF_PI, 0.0), CoherentParams(HALF_PI, PI)),
        Generator.Z,
    ).crb
    assert corrected == pytest.approx(engine, abs=1e-9)
    assert abs(variant - engine) > 1e-2


def test_phi_pi_equal_theta_variant_only_touches_at_half_pi():
    assert crb_one_z_phi_pi_equal_theta_variant(HALF_PI) == pytest.approx(
        crb_one_z_reductions(ClosedFormCase.ONE_Z_PHIPI_EQUALTHETA, {"theta1": HALF_PI}),
        abs=1e-15,
    )
    t = PI / 3
    engine = cat_crb(
        CatParams(SpinJ(2), CoherentParams(t, 0.0), CoherentParams(t, PI)),
        Generator.Z,
    ).crb
    corrected = crb_one_z_reductions(ClosedFormCase.ONE_Z_PHIPI_EQUALTHETA, {"theta1": t})
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
        for family in (0.0, HALF_PI, PI):
            a = crb_one_z(family, t1, t2)
            b = crb_one_z(family, t2, t1)
            if _finite_pair(a, b):
                assert abs(a - b) < 1e-12
        a = crb_half_x(t1, t2, p1, p2)
        b = crb_half_x(t2, t1, p2, p1)
        if _finite_pair(a, b):
            assert abs(a - b) < 1e-12


def test_divergence_convention():
    assert CRB_DIVERGENCE_CEILING == pytest.approx(1e7)
    # denominator zero
    assert math.isinf(
        crb_half_z_reductions(ClosedFormCase.HALF_Z_PHI0, {"theta1": 0.0, "theta2": 0.0})
    )
    # finite denominator but value beyond the ceiling clamps to inf
    assert math.isinf(
        crb_half_z_reductions(ClosedFormCase.HALF_Z_PHI0, {"theta1": 1e-9, "theta2": 0.0})
    )
    # degenerate neighbourhoods are divergence events for the formulas too
    assert math.isinf(crb_half_z(PI, PI, 0.0, PI))
    assert math.isinf(crb_half_x(PI, PI, 0.0, PI))
    assert math.isinf(
        crb_half_x_reductions(ClosedFormCase.HALF_X_PHI_0PI, {"theta1": PI, "theta2": PI})
    )
    assert math.isinf(crb_one_z(PI, 0.0, 0.0))


def test_reduction_dispatch_rejects_bad_requests():
    with pytest.raises(ValueError):
        crb_half_z_reductions(ClosedFormCase.HALF_X_EQUATOR, {"phi1": 0.0, "phi2": 0.0})
    with pytest.raises(ValueError):
        crb_half_x_reductions(ClosedFormCase.HALF_Z_PHI0, {"theta1": 0.1, "theta2": 0.2})
    with pytest.raises(ValueError):
        crb_one_z_reductions(ClosedFormCase.ONE_Z_PHI0, {"theta1": 0.1, "theta2": 0.2})
    with pytest.raises(ValueError):
        crb_half_z_reductions(ClosedFormCase.HALF_Z_PHI0, {"theta1": 0.1})  # missing key
    with pytest.raises(ValueError):
        crb_half_z_reductions(
            ClosedFormCase.HALF_Z_PHI0, {"theta1": 0.1, "theta2": 0.2, "x": 1.0}
        )
    with pytest.raises(ValueError):
        crb_half_z_reductions(ClosedFormCase.HALF_Z_PHI0, {"theta1": 4.0, "theta2": 0.2})
    with pytest.raises(ValueError):
        crb_half_z_reductions(ClosedFormCase.HALF_Z_EQUATOR, {"phi_diff": math.nan})
    with pytest.raises(ValueError):
        crb_one_z(0.3, 0.1, 0.2)  # no closed form at that relative phase
    with pytest.raises(ValueError):
        crb_half_z(-0.5, 0.1, 0.0, 0.0)


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
