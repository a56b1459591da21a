"""Simulation and analysis of the joint time-space coherence of high-gain
parametric down-conversion: phase-matched spectra, correlation maps, and a
beam-splitter-scanning interferometer emulator."""

__version__ = "0.1.0"

import types as _types

from .errors import (
    ConfigurationError,
    EdgeDecayError,
    EvanescentWaveError,
    MapExtentError,
    PdcohError,
    ResolutionError,
    RootNotFoundError,
    SamplingError,
    WavelengthRangeError,
)
from .dispersion import (
    ORDINARY,
    ExtraordinaryAtAngle,
    Ordinary,
    SellmeierSet,
    SHIPPED_SETS,
    gvd,
    index,
    load_sellmeier,
    wavenumber,
    zero_dispersion_wavelength,
)
from .phasematch import (
    CrystalConfig,
    collinear_degenerate_angle,
    delta_k,
    external_angle,
    phase_matched_locus,
)
from .spectrum import (
    GridSpec,
    SpectralGrid,
    WavelengthAngleGrid,
    build_spectrum,
    auto_grid,
    spectral_density,
    to_wavelength_angle,
)
from .coherence import (
    CoherenceColumn,
    CoherenceMap,
    CoherenceMetrics,
    correlation_columns,
    correlation_map,
    direct_correlation,
    factorability_defect,
    instrument_blur,
    metrics,
)
from .interferometer import (
    AssembledMap,
    FringeTrace,
    InterferometerConfig,
    assemble_map,
    extract_visibility,
    fringe_period_path_m,
    fringe_period_stage_m,
    synthesize_trace,
)

# every name imported above, once
__all__ = ["__version__"] + [name for name, value in globals().items() if not (
    name.startswith("_") or isinstance(value, _types.ModuleType))]
