"""The input contract of the public entry points, one table row per
(callable, argument).

Each row is called with valid arguments except the one it names, which
takes every bad value in turn. The call must raise ValueError or TypeError
whose message names the argument (or the sum it is part of), and never
return, raise another type or warn. Real arguments take anything float()
takes but a bool or a complex number; integer arguments anything
operator.index() takes but a bool; object arguments an instance of their
class; the angle arrays of the kernels ints or floats, and the amplitudes
of a DickeVector ints, floats or complex numbers.
"""
import inspect
import math
import re
import warnings

import numpy as np
import pytest

import spincat
from spincat import (
    CatParams,
    ClosedFormCase,
    CoherentParams,
    DickeVector,
    Generator,
    HlSearchSpec,
    ScanSpec,
    SpinJ,
    SweepReport,
    build_operators,
    cat_crb,
    cat_crb_batch,
    cat_state,
    closed_form,
    coherent_overlap,
    coherent_state,
    crb,
    crb_from_qfi,
    crb_half_x,
    crb_half_z,
    evolve,
    find_hl,
    grid_scan,
    normalization,
    qfi_fidelity_oracle,
    qfi_pure,
    qfi_sld_oracle,
    rotation_matrix,
    sweep_family,
)

J, G = SpinJ(2), Generator.Y
CAT = CatParams(J, CoherentParams(0.4, 0.3), CoherentParams(2.0, 1.7))
STATE = cat_state(CAT)
REPORT = SweepReport(ClosedFormCase.ONE_Z_PHIHALF, 144, 144, 1.7e-13, 0, None)
ANGLES = {"theta1": 0.7, "theta2": 1.9, "phi1": 0.4, "phi2": 2.2}

BAD = [True, np.True_, math.nan, math.inf, -math.inf, 2**2000, "x", 1 + 1j, None]

# (label, callable, valid keyword arguments, the kind of each checked one);
# kinds: "real", "integer", "object", "array", "amplitudes", "real*" for a
# real argument that 1e308 lies outside the range of, and "theta" for a
# polar angle, real or array, which refuses 1e308 and values just outside
# the slack [-1e-9, pi + 1e-9] it clamps onto [0, pi]
ROWS = [
    ("SpinJ", SpinJ, {"two_j": 2}, {"two_j": "integer"}),
    ("SpinJ.from_j", SpinJ.from_j, {"j": 1.0}, {"j": "real*"}),
    ("DickeVector", DickeVector, {"j": J, "amplitudes": STATE.amplitudes},
     {"j": "object", "amplitudes": "amplitudes"}),
    ("DickeVector.inner", STATE.inner, {"other": STATE}, {"other": "object"}),
    ("build_operators", build_operators, {"j": J}, {"j": "object"}),
    ("CoherentParams", CoherentParams, {"theta": 0.4, "phi": 0.3},
     {"theta": "theta", "phi": "real"}),
    ("coherent_state", coherent_state, {"j": J, "p": CAT.p1}, {"j": "object", "p": "object"}),
    ("coherent_overlap", coherent_overlap, {"j": J, "p1": CAT.p1, "p2": CAT.p2},
     {"j": "object", "p1": "object", "p2": "object"}),
    ("rotation_matrix", rotation_matrix, {"j": J, "p": CAT.p1}, {"j": "object", "p": "object"}),
    ("Generator.matrix", Generator.Z.matrix, {"j": J}, {"j": "object"}),
    ("CatParams", CatParams, {"j": J, "p1": CAT.p1, "p2": CAT.p2},
     {"j": "object", "p1": "object", "p2": "object"}),
    *((f.__name__, f, {"c": CAT}, {"c": "object"}) for f in (normalization, cat_state)),
    ("cat_crb", cat_crb, {"c": CAT, "g": G}, {"c": "object", "g": "object"}),
    ("cat_crb_batch", cat_crb_batch, {"j": J, "g": G, **ANGLES},
     {"j": "object", "g": "object", "theta1": "theta", "theta2": "theta",
      "phi1": "array", "phi2": "array"}),
    *(
        (f.__name__, f, {"state": STATE, "g": G}, {"state": "object", "g": "object"})
        for f in (qfi_pure, qfi_sld_oracle, crb)
    ),
    ("crb_from_qfi", crb_from_qfi, {"qfi": 0.5}, {"qfi": "real"}),
    ("evolve", evolve, {"state": STATE, "g": G, "xi": 0.3},
     {"state": "object", "g": "object", "xi": "real"}),
    ("qfi_fidelity_oracle", qfi_fidelity_oracle, {"state": STATE, "g": G, "dxi": 1e-3},
     {"state": "object", "g": "object", "dxi": "real*"}),
    ("closed_form", closed_form,
     {"case": ClosedFormCase.HALF_Z_PHI0, "theta1": 0.3, "theta2": 1.0},
     {"case": "object", "theta1": "theta", "theta2": "theta"}),
    *(
        (f.__name__, f, ANGLES,
         {"theta1": "theta", "theta2": "theta", "phi1": "real", "phi2": "real"})
        for f in (crb_half_z, crb_half_x)
    ),
    ("sweep_family", sweep_family, {"case": ClosedFormCase.HALF_Z_PHI0, "resolution": 5},
     {"case": "object", "resolution": "integer"}),
    ("SweepReport.passed", REPORT.passed, {"tol": 1e-9}, {"tol": "real"}),
    ("ScanSpec", ScanSpec,
     {"j": J, "generator": G, "phi1": 0.0, "phi2": 1.0, "resolution": 5, "cap": 3.0},
     {"j": "object", "generator": "object", "phi1": "real", "phi2": "real",
      "resolution": "integer", "cap": "real"}),
    ("HlSearchSpec", HlSearchSpec, {"j": J, "generator": G, "tolerance": 0.01, "seeds": 2},
     {"j": "object", "generator": "object", "tolerance": "real*", "seeds": "integer"}),
    ("grid_scan", grid_scan, {"spec": ScanSpec(J, G, 0.0, 1.0, resolution=5)}, {"spec": "object"}),
    ("find_hl", find_hl, {"spec": HlSearchSpec(J, G, seeds=2)}, {"spec": "object"}),
]


def _bad_values(kind: str) -> list:
    # an unhashable object must be named too, not refused by a cache
    extra = {
        "integer": [1e308, 2.0, "5"],
        "real*": [1e308],
        "theta": [1e308, math.pi + 5e-9, -5e-9],
        "object": [[1]],
        # unit-norm bool and object arrays, and a string array complex() cannot read
        "amplitudes": [[True, False, False], np.array([1, 0, 0], dtype=object), ["a", "b", "c"]],
    }
    return BAD + extra.get(kind, [])


CASES = [
    pytest.param(call, valid, name, bad, id=f"{label}-{name}-{bad!r}"[:60])
    for label, call, valid, kinds in ROWS
    for name, kind in kinds.items()
    for bad in _bad_values(kind)
]


@pytest.mark.parametrize("call,valid,name,bad", CASES)
def test_every_bad_value_is_refused_by_name(call, valid, name, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            call(**{**valid, name: bad})
    assert type(info.value) in (ValueError, TypeError)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


def test_every_row_runs_on_its_valid_arguments():
    for label, call, valid, _ in ROWS:
        call(**valid)


# one positive row per rule: a numeric string and a NumPy float are real
# arguments, a NumPy integer an integer one, integer arrays kernel angles and
# amplitudes
@pytest.mark.parametrize(
    "got,want",
    [
        (lambda: CoherentParams("0.5", "0.3"), lambda: CoherentParams(0.5, 0.3)),
        (lambda: SpinJ.from_j("1"), lambda: SpinJ(2)),
        (lambda: crb_from_qfi("0.5"), lambda: crb_from_qfi(0.5)),
        (lambda: evolve(STATE, G, "0.5").amplitudes.tobytes(),
         lambda: evolve(STATE, G, 0.5).amplitudes.tobytes()),
        (lambda: qfi_fidelity_oracle(STATE, G, "1e-3"), lambda: qfi_fidelity_oracle(STATE, G, 1e-3)),
        (lambda: SpinJ(np.int64(2)), lambda: SpinJ(2)),
        (lambda: type(SpinJ(np.int64(2)).two_j), lambda: int),
        (lambda: SpinJ(np.uint8(2)), lambda: SpinJ(2)),
        (lambda: type(SpinJ(np.uint8(2)).two_j), lambda: int),
        (lambda: SpinJ(np.int32(2)), lambda: SpinJ(2)),
        (lambda: type(SpinJ(np.int32(2)).two_j), lambda: int),
        (lambda: CoherentParams(np.float32(0.5), 0.3), lambda: CoherentParams(0.5, 0.3)),
        (lambda: type(CoherentParams(np.float32(0.5), 0.3).theta), lambda: float),
        (lambda: crb_half_z(np.float32(0.5), 1, "0.2", 0), lambda: crb_half_z(0.5, 1.0, 0.2, 0.0)),
        (lambda: [a.tobytes() for a in cat_crb_batch(J, G, [0, 1], 1, [0, 3], 0)],
         lambda: [a.tobytes() for a in cat_crb_batch(J, G, [0.0, 1.0], 1.0, [0.0, 3.0], 0.0)]),
        (lambda: DickeVector(J, [0, 1, 0]).amplitudes.tobytes(),
         lambda: DickeVector(J, [0.0, 1.0, 0.0]).amplitudes.tobytes()),
    ],
    ids=[
        "CoherentParams-str", "from_j-str", "crb_from_qfi-str",
        "evolve-str", "qfi_fidelity_oracle-str", "SpinJ-int64", "SpinJ-int64-stores-int",
        "SpinJ-uint8", "SpinJ-uint8-stores-int", "SpinJ-int32", "SpinJ-int32-stores-int",
        "CoherentParams-float32", "CoherentParams-float32-stores-float",
        "crb_half_z-mixed", "cat_crb_batch-int-arrays", "DickeVector-int-amplitudes",
    ],
)
def test_each_rule_takes_its_valid_kinds(got, want):
    assert got() == want()


@pytest.mark.parametrize(
    "name",
    [n for n in spincat.__all__ if inspect.isclass(getattr(spincat, n)) or inspect.isfunction(getattr(spincat, n))],
)
def test_every_public_class_and_function_has_a_docstring_of_its_own(name):
    # a class's own __doc__, not one inherited or the Name(...) signature a
    # dataclass writes when it has none
    obj = getattr(spincat, name)
    doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
    assert doc and doc.strip() and not doc.startswith(f"{name}("), doc


# the public methods and properties of the public classes, whose contracts
# the README leaves to their docstrings
MEMBERS = [
    (f"{n}.{k}", v.fget if isinstance(v, property) else getattr(v, "__func__", v))
    for n in spincat.__all__
    if inspect.isclass(cls := getattr(spincat, n))
    for k, v in vars(cls).items()
    if not k.startswith("_") and (isinstance(v, property) or callable(getattr(v, "__func__", v)))
]


@pytest.mark.parametrize("name,member", MEMBERS, ids=[name for name, _ in MEMBERS])
def test_every_public_method_and_property_has_a_docstring(name, member):
    assert member.__doc__ and member.__doc__.strip(), name
