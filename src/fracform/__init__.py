"""Numerical toolkit for fractional Sobolev energies on the line and the
machinery around them: excursion-erasure decompositions, Cantor-type scale
functions, Riesz capacities by constrained minimization, and general
symmetric jump forms."""

from .energy import (
    DIVERGENT,
    EnergyParams,
    EnergyReport,
    ErasedPreconditionError,
    calibrate_c_of_alpha,
    check_erased_bound,
    dirichlet_energy,
    fourier_energy,
    fourier_gagliardo_ratio,
    gagliardo_energy,
    hardy_boundary_identity,
    indicator_energy_closed_form,
)
from .fourier import FourierTable, discrete_fourier, transform_at
from .grids import (
    GridFunction,
    IntervalSet,
    PlateauSpec,
    StepFunction,
    epsilon_contraction,
    make_plateau,
    snap_to_dyadic_step,
)
from .ladder import (
    LadderNode,
    LadderTree,
    arm_split,
    bv_fourier_bound_check,
    is_erased_function,
    ladder_decompose,
    ladder_star,
    skorokhod_star,
    step_rate_experiment,
)
from .levy import (
    GrowthFit,
    LevyTriplet,
    PowerLawDensity,
    SymbolCurve,
    finite_variation_test,
    growth_exponent_fit,
    levy_gagliardo_energy,
    levy_indicator_energy,
    levy_symbol,
    plateau_energy_bound_check,
)
from .scalecap import (
    CapacityEstimate,
    CapacitySolverError,
    Composition,
    FatCantorSpec,
    ScaleFunction,
    SignedMeasure,
    build_fat_cantor,
    capacity_estimate,
    compose_scale,
    concentration_test,
    duality_pairing_check,
    pushforward_measure,
    scale_from_open_set,
)

__version__ = "0.1.0"
