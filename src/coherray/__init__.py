"""coherray: energy of N phase-coherent waves, classical and quantized.

The package computes the collective field energy of phase-locked wave
ensembles four independent ways (closed form, grid integration,
far-field quadrature, operator expectation) and cross-checks them, plus
the mode-overlap machinery that governs how distinct modes exchange
energy. Natural units c = hbar = 1 throughout; every headline result is
a dimensionless enhancement over the uncorrelated ensemble.
"""

# set before the submodule imports: experiments reads it while importing
__version__ = "0.1.0"

from .core import (
    BoxVolume,
    ConfigError,
    EnergyReport,
    FarFieldViolationError,
    MissingSettingError,
    PhasedWaveSet,
    SourceArray,
    WaveMode,
    make_linear_array,
    phase_sum,
    reduce_phase,
)
from .classical import (
    DetectorGrid,
    SpectrumCurve,
    classical_energy,
    farfield_power,
    farfield_powers,
    field_energy_grid,
    single_wave_energy,
    transmission_spectrum,
)
from .quantum import (
    FockSpace,
    QuantumState,
    biphoton_energy,
    build_operators,
    expectation_energy,
    single_mode_hamiltonian,
)
from .multimode import (
    ModePair,
    WavepacketSpectrum,
    box_overlap,
    classify_overlap,
    multimode_energy,
    overlap_integral,
    overlap_integral_quadrature,
    wavepacket_energy,
)
from .experiments import (
    ScalingFit,
    SweepSpec,
    XorShift64Star,
    dicke_scaling_check,
    run_sweep,
)

__all__ = [
    "BoxVolume",
    "ConfigError",
    "DetectorGrid",
    "EnergyReport",
    "FarFieldViolationError",
    "FockSpace",
    "MissingSettingError",
    "ModePair",
    "PhasedWaveSet",
    "QuantumState",
    "ScalingFit",
    "SourceArray",
    "SpectrumCurve",
    "SweepSpec",
    "WaveMode",
    "WavepacketSpectrum",
    "XorShift64Star",
    "biphoton_energy",
    "box_overlap",
    "build_operators",
    "classical_energy",
    "classify_overlap",
    "dicke_scaling_check",
    "expectation_energy",
    "farfield_power",
    "farfield_powers",
    "field_energy_grid",
    "make_linear_array",
    "multimode_energy",
    "overlap_integral",
    "overlap_integral_quadrature",
    "phase_sum",
    "reduce_phase",
    "run_sweep",
    "single_mode_hamiltonian",
    "single_wave_energy",
    "transmission_spectrum",
    "wavepacket_energy",
]
