"""Simulator and verification harness for period-finding recovery of unit
groups and principal-ideal generators of real quadratic orders."""

from .errors import (
    DomainTooLarge,
    EmptySet,
    IllConditioned,
    Inconclusive,
    NotCoprime,
    NotReduced,
    NotSquarefree,
    PrecisionExhausted,
    RankDeficient,
    RegulusError,
    RestartRequired,
    Singular,
    ZeroElement,
)
from .numfield import (
    DEFAULT_PRECISION,
    FieldElement,
    LogVector,
    QuadraticField,
    field_norm,
    is_unit,
    log_embed,
    make_field,
    torsion_units,
)
from .ideals import (
    Cycle,
    ExperimentParams,
    ReducedIdeal,
    closest_ideal,
    cycle_from,
    grid_label,
    grid_label_index,
    is_reduced,
    principal_cycle,
    rho_step,
    start_ideal,
)
from .lattice import RealLattice, dual_basis, primal_from_dual, recover_basis, reduce_mod
from .qsim import (
    CycleHider,
    PreimageState,
    SpectrumDistribution,
    accept,
    centred,
    collapse,
    dual_candidate,
    qft_spectrum,
    spectrum_probability,
)
from .oracle import (
    SyntheticOracle,
    centre,
    certified_nonprincipal,
    cf_regulator,
    class_cycles,
    exhaustive_preimage,
    make_synthetic,
    pell_solution,
    reduced_ideals,
)
from .unitgroup import UnitGroupResult, empirical_success, run_unit_group
from .pip_solver import PipInstance, PipResult, combine_coprime, run_pip, verify_generator

__all__ = [name for name in dir() if not name.startswith("_")]
