"""Wave dynamics of a nematic director with a variable order parameter.

Solvers and verification tools for a two-field variational wave model: a
Duhamel/fixed-point integrator for the complex semilinear form, a
semi-Lagrangian characteristics solver for the quasilinear polar form, a
Lagrangian marker scheme for the reduced slow-time system, and the
asymptotic machinery connecting the two, plus shared energy diagnostics
and a potential-validation gate.
"""

from .asymptotic import (AsymptoticConfig, ELResidualReport, ExtractedSlow,
                         RescalingMap, SlowCoefficients, action_gradient,
                         action_value, convergence_study, discrete_el_residual,
                         embed, extract, rescaling_map, standardize,
                         strong_residual)
from .diagnostics import (ENERGY_HEADER, EnergyReport, conservation_residuals,
                          energy_density_complex, energy_density_polar,
                          fit_order, write_energy_csv)
from .errors import (AprioriViolationError, ConfigError, DegeneracyError,
                     DomainError, NonContractionError, StateEscapeError,
                     VarwaveError, WavebreakingError)
from .fields import (ComplexField, Grid1D, centered_derivative, integrate,
                     interpolate, read_snapshot_csv, state_distance,
                     write_snapshot_csv)
from .hunter_saxton import (HSResult, MarkerState, breaking_time_riccati,
                            evolve_markers, make_markers, marker_rhs,
                            sample_eulerian)
from .potentials import (AprioriConstants, PotentialSpec, ValidationReport,
                         WaveSpeed, apriori_constants, ensure_valid,
                         flat_point_potential, positivity_threshold,
                         quadratic_potential, rational_potential,
                         reference_potential, validate_potential, wave_speed,
                         zero_potential)
from .profiles import (Profile, bump_slope, constant, gaussian, make_profile,
                       sine_packet)
from .quasilinear import (FixpointTrace, PolarState, QuasilinearConfig,
                          QuasilinearResult, advance, read_polar_snapshot_csv,
                          resolve_budgets, rhs_sources, transport_step,
                          write_polar_snapshot_csv)
from .semilinear import (PicardTrace, SemilinearConfig, SemilinearResult,
                         contraction_window, free_wave, picard_iterates,
                         picard_solve, source_term)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "VarwaveError", "ConfigError", "DomainError", "DegeneracyError",
    "NonContractionError", "WavebreakingError", "StateEscapeError",
    "AprioriViolationError",
    # fields
    "Grid1D", "ComplexField", "interpolate", "integrate",
    "centered_derivative", "state_distance", "write_snapshot_csv",
    "read_snapshot_csv",
    # potentials
    "PotentialSpec", "ValidationReport", "WaveSpeed", "AprioriConstants",
    "rational_potential", "reference_potential", "flat_point_potential",
    "quadratic_potential", "zero_potential", "validate_potential",
    "ensure_valid", "positivity_threshold", "apriori_constants", "wave_speed",
    # diagnostics
    "EnergyReport", "energy_density_polar", "energy_density_complex",
    "conservation_residuals", "fit_order", "write_energy_csv", "ENERGY_HEADER",
    # semilinear
    "SemilinearConfig", "SemilinearResult", "PicardTrace", "free_wave",
    "picard_solve", "picard_iterates", "contraction_window", "source_term",
    # profiles
    "Profile", "gaussian", "sine_packet", "bump_slope", "constant",
    "make_profile",
    # quasilinear
    "PolarState", "QuasilinearConfig", "QuasilinearResult", "FixpointTrace",
    "rhs_sources", "transport_step", "advance", "resolve_budgets",
    "write_polar_snapshot_csv", "read_polar_snapshot_csv",
    # markers
    "MarkerState", "HSResult", "make_markers", "marker_rhs", "evolve_markers",
    "sample_eulerian", "breaking_time_riccati",
    # asymptotic
    "AsymptoticConfig", "SlowCoefficients", "RescalingMap", "ExtractedSlow",
    "ELResidualReport", "embed", "extract", "rescaling_map", "standardize",
    "action_value", "action_gradient", "strong_residual",
    "discrete_el_residual", "convergence_study",
]
