"""Cat-state construction and normalization."""
import math

import numpy as np
import pytest

from spincat import (
    CatParams,
    CoherentParams,
    DegenerateCatError,
    SpinJ,
    cat_state,
    coherent_overlap,
    coherent_state,
    normalization,
)


@pytest.mark.parametrize("two_j", [1, 2, 3, 10])
def test_pole_cat_is_noon_state(two_j):
    j = SpinJ(two_j)
    cat = cat_state(
        CatParams(j, CoherentParams(0.0, 0.0), CoherentParams(math.pi, 0.0))
    )
    expected = np.zeros(j.dim, dtype=complex)
    expected[0] = expected[-1] = 1 / math.sqrt(2)
    assert np.abs(cat.amplitudes - expected).max() < 1e-15


def test_identical_components_reduce_to_coherent():
    j = SpinJ(3)
    p = CoherentParams(1.1, 0.6)
    c = CatParams(j, p, p)
    assert normalization(c) == pytest.approx(0.5, abs=1e-15)
    v = cat_state(c).amplitudes
    assert np.abs(v - coherent_state(j, p).amplitudes).max() < 1e-14


def test_normalization_matches_overlap_formula():
    thetas = np.linspace(0.2, 2.9, 7)
    dphis = [0.0, 0.7, 2.0, math.pi]
    for two_j in (1, 2, 4):
        j = SpinJ(two_j)
        for t1 in thetas:
            for t2 in thetas:
                for dphi in dphis:
                    c = CatParams(
                        j,
                        CoherentParams(float(t1), 0.3),
                        CoherentParams(float(t2), 0.3 + dphi),
                    )
                    n2 = 2.0 + 2.0 * coherent_overlap(j, c.p1, c.p2).real
                    if n2 < 1e-3:
                        continue  # the overlap form itself cancels here
                    assert normalization(c) == pytest.approx(
                        1.0 / math.sqrt(n2), abs=1e-12
                    )


def test_equator_same_phase_norm_is_half():
    c = CatParams(
        SpinJ(1), CoherentParams(math.pi / 2, 0.8), CoherentParams(math.pi / 2, 0.8)
    )
    assert normalization(c) == pytest.approx(0.5, abs=1e-15)


def test_degenerate_cat_raises():
    c = CatParams(
        SpinJ(1), CoherentParams(math.pi, 0.0), CoherentParams(math.pi, math.pi)
    )
    with pytest.raises(DegenerateCatError):
        normalization(c)
    with pytest.raises(DegenerateCatError):
        cat_state(c)
    # DegenerateCatError is a domain error, catchable as ValueError
    assert issubclass(DegenerateCatError, ValueError)


def test_component_swap_is_exact():
    c = CatParams(SpinJ(4), CoherentParams(0.9, 1.7), CoherentParams(2.2, 4.0))
    assert np.array_equal(cat_state(c).amplitudes, cat_state(CatParams(c.j, c.p2, c.p1)).amplitudes)


def test_cat_state_is_unit_norm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        j = SpinJ(int(rng.integers(1, 13)))
        c = CatParams(
            j,
            CoherentParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))),
            CoherentParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))),
        )
        v = cat_state(c).amplitudes
        assert abs(np.vdot(v, v).real - 1.0) < 1e-12
