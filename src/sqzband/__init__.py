"""Analytical model, synthetic data and fits for a parametrically squeezed
optomechanical oscillator read out by two-tone heterodyne detection."""

__version__ = "0.1.0"

from .core import (
    DerivedRates,
    IntracavityField,
    PumpConfig,
    SystemParams,
    derive_all,
    intracavity_amplitudes,
    occupancy,
    optical_damping,
    parametric_rate,
    scattering_rates,
    self_consistent_frequency,
    thermal_occupation,
)
from .data import OnOffPair, SpectrumData
from .errors import (
    AntiDampingError,
    ConfigError,
    FitFailureError,
    GridError,
    InternalConsistencyError,
    ParametricInstabilityError,
    SelfConsistencyError,
    SqzbandError,
    StabilityError,
    ZeroPumpError,
)
from .fitter import (
    BiasStudyReport,
    CampaignReport,
    ExperimentTruth,
    FitResult,
    apply_mask,
    bias_study,
    fit_double_pair,
    fit_pair_two_stage,
    fit_single_pair,
    recovery_campaign,
)
from .lineshape import (
    Lorentzian,
    Ratios,
    antistokes_spectrum,
    heterodyne_composite,
    quadrature_spectrum,
    quadrature_variances,
    sideband_areas,
    sideband_components,
    sideband_ratios,
    squeezing_criterion,
    stokes_spectrum,
)
from .oracle import (
    EnvelopeTrace,
    NoiseCorrelators,
    PropagatedSpectra,
    TransferMatrix,
    propagate_spectra,
    quadrature_series,
    sde_simulate,
    welch_psd,
)
from .synthesizer import (
    DetectionConfig,
    band_mask,
    lockin_demodulate,
    segment_average,
    synth_onoff_from_rates,
    synth_periodogram,
    synth_timeseries,
    synthetic_grid_hz,
)

__all__ = [name for name in dir() if not name.startswith("_")]
