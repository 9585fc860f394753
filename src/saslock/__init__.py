"""Rubidium D2 saturated-absorption spectroscopy and laser-lock simulator.

Submodules:

* ``atomic_data``: the D2 line table, crossover derivation, feature lookup
* ``lineshape``: Lorentzian/Gaussian profiles, Doppler and saturation widths
* ``spectrum``: sweep synthesis, depth markers/metrics, error signals
* ``plant``: the current/temperature-tuned DBR laser model
* ``servo``: PID, lock-acquisition state machine, closed-loop runner
* ``harness``: scenario configs, bench experiments, scope-CSV ingestion
* ``cli``: the ``saslock`` command
"""

from .atomic_data import (
    Isotope,
    LineTable,
    TransitionLine,
    derive_crossovers,
    find_feature,
    load_default_line_data,
    load_line_data,
    pump_repump_separation,
    transitions,
)
from .lineshape import (
    GaussianParams,
    LorentzianParams,
    doppler_fwhm,
    doppler_gaussian,
    lorentzian,
    saturation_broadened_width,
)
from .spectrum import (
    DepthMarkers,
    DepthMetrics,
    MarkerSelection,
    MediumConfig,
    NoiseConfig,
    SweepTrace,
    depth_metrics,
    error_signal,
    extract_markers,
    synthesize_sweep,
)
from .plant import LaserState, PlantConfig, RampConfig, ramp_waveform, step_plant
from .servo import (
    Disturbances,
    LockConfig,
    LockState,
    PidConfig,
    PidState,
    closed_loop_run,
    find_lock_point,
    lock_step,
    pid_step,
)
from .harness import ScenarioConfig, load_config, load_default_config

__version__ = "0.1.0"
