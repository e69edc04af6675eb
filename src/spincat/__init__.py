"""Quantum Fisher information and Cramer-Rao bounds for spin cat states.

The library builds equal-weight superpositions of two spin coherent
states, computes the quantum Fisher information for rotations generated
by Jx, Jy or Jz, cross-checks every closed-form bound it knows against a
numeric engine, and scans or searches parameter space for
Heisenberg-limit regions.
"""
from .catstate import CatParams, DegenerateCatError, cat_state, normalization
from .closedform import (
    FAMILIES,
    ClosedFormCase,
    FamilyDefinition,
    SweepReport,
    closed_form,
    crb_half_x,
    crb_half_z,
    sweep_family,
)
from .coherent import CoherentParams, coherent_overlap, coherent_state, rotation_matrix
from .dicke import DickeVector, SpinJ, SpinOperators, build_operators
from .metrology import (
    CrbResult,
    Generator,
    cat_crb,
    cat_crb_batch,
    crb,
    crb_from_qfi,
    evolve,
    qfi_fidelity_oracle,
    qfi_pure,
    qfi_sld_oracle,
)
from .scan import (
    MAX_RESOLUTION,
    MAX_SEEDS,
    GridResult,
    HlPoint,
    HlSearchSpec,
    NoHlFoundError,
    ScanSpec,
    find_hl,
    grid_scan,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SpinJ",
    "DickeVector",
    "SpinOperators",
    "build_operators",
    "CoherentParams",
    "coherent_state",
    "coherent_overlap",
    "rotation_matrix",
    "CatParams",
    "DegenerateCatError",
    "cat_state",
    "normalization",
    "Generator",
    "CrbResult",
    "evolve",
    "qfi_pure",
    "qfi_sld_oracle",
    "qfi_fidelity_oracle",
    "crb_from_qfi",
    "crb",
    "cat_crb",
    "cat_crb_batch",
    "ClosedFormCase",
    "closed_form",
    "crb_half_z",
    "crb_half_x",
    "FamilyDefinition",
    "FAMILIES",
    "SweepReport",
    "sweep_family",
    "MAX_RESOLUTION",
    "MAX_SEEDS",
    "ScanSpec",
    "GridResult",
    "grid_scan",
    "HlSearchSpec",
    "HlPoint",
    "NoHlFoundError",
    "find_hl",
]
