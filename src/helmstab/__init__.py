"""Spectral Helmholtz solver on the unit square with stability certification.

Separation-of-variables solutions for mixed Dirichlet/Neumann/impedance
boundary data, closed-form modal norms, wavenumber-explicit stability
certificates, sharpness reproductions, and a finite-difference oracle.
"""

from .eigenbasis import (
    MAX_MODE,
    BasisFamily,
    BoundaryOperator,
    DataNormReport,
    Spectrum,
    basis_value,
    project,
    select_eigenpairs,
)
from .modal1d import (
    EPS_CUTOFF,
    LiftingFamilyChoice,
    ModeTable,
    ResonantLiftingError,
    Side,
    choose_lifting_family,
    energy_densities,
    gap_lower_bound,
    mode_table,
)
from .solver import (
    Block,
    BoundaryConfig,
    EnergyReport,
    ProjectionTail,
    SeriesSolution,
    energy_parseval,
    energy_quadrature,
    evaluate,
    evaluate_grid,
    lift,
    solve_datum,
    solve_problem,
    solve_source,
    superpose,
)
from .bounds import (
    SHARPNESS_IDS,
    THEOREMS,
    BoundCertificate,
    SharpnessCase,
    SweepReport,
    Theorem,
    TheoremId,
    certify,
    rhs_bound,
    sharpness_case,
    sweep,
)
from .oracle import ComparisonReport, GridSolution, compare, fdm_energy, fdm_solve

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
