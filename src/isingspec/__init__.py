"""Resonator spectroscopy of a transverse-field Ising chain.

The chain is solved exactly by its free-fermion representation; a single
lossy bosonic mode coupled to every site picks up a photon-number-dependent
field shift, and the mode's first-order correlation function and spectrum
witness the chain's critical point through spectral broadening.  Dense
small-system diagonalization validates every analytic path.
"""

from .chain import (
    ModeTable,
    bogoliubov_angle,
    build_mode_table,
    dispersion,
    momentum_grid,
)
from .decoherence import (
    LineDecomposition,
    ModeCoefficients,
    decoherence_factor,
    enumerate_lines,
    mode_coefficients,
    mode_factor,
)
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    IsingSpecError,
    NumericsError,
    ParameterError,
    ValidityError,
)
from .params import ChainParams, PhysicalParams, branch_lambda, derive_chain_params
from .probe import ProbeState, coherent_state, fock_superposition, mean_photon_number
from .spectrum import (
    BroadeningMetrics,
    CorrelationSeries,
    FarFieldReport,
    Spectrum,
    TimeGrid,
    auto_time_grid,
    broadening_metrics,
    correlation_series,
    far_field_check,
    fitted_peak,
    lorentzian,
    spectrum_analytic,
    spectrum_fft,
    threshold_crossing_time,
    weighted_echo,
)
from .oracle import (
    build_dense,
    comparison_suite,
    free_fermion_ground_energy,
    ground_state_even,
    oracle_decoherence,
    oracle_mode_factor,
    oracle_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BroadeningMetrics",
    "CapacityError",
    "ChainParams",
    "ConfigError",
    "CorrelationSeries",
    "DegenerateInputError",
    "FarFieldReport",
    "IsingSpecError",
    "LineDecomposition",
    "ModeCoefficients",
    "ModeTable",
    "NumericsError",
    "ParameterError",
    "PhysicalParams",
    "ProbeState",
    "Spectrum",
    "TimeGrid",
    "ValidityError",
    "auto_time_grid",
    "bogoliubov_angle",
    "branch_lambda",
    "broadening_metrics",
    "build_dense",
    "build_mode_table",
    "coherent_state",
    "comparison_suite",
    "correlation_series",
    "decoherence_factor",
    "derive_chain_params",
    "dispersion",
    "enumerate_lines",
    "far_field_check",
    "fitted_peak",
    "fock_superposition",
    "free_fermion_ground_energy",
    "ground_state_even",
    "lorentzian",
    "mean_photon_number",
    "mode_coefficients",
    "mode_factor",
    "momentum_grid",
    "oracle_decoherence",
    "oracle_mode_factor",
    "oracle_spectrum",
    "spectrum_analytic",
    "spectrum_fft",
    "threshold_crossing_time",
    "weighted_echo",
]
