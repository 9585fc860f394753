"""Discrete-time model of the current- and temperature-tuned DBR laser.

Detuning responds affinely to drive current and mount temperature:

    detuning = base + k_current * (current - bias)
             + k_temp * (temperature - temp_reference)
             + ramp(t) + frequency noise

The servo reaches the current through a voltage-to-current gain k_ctrl, so
the net optical gain seen by the controller is k_ctrl * k_current (defaults:
+1 mA/V and -1 GHz/mA, i.e. -1 GHz per control volt). Temperature relaxes
first order toward its setpoint (plus any disturbance) while a slow linear
drift term models the mount's residual creep. Leaving the mode-hop-free
envelope is a hard fault, not a frequency jump.
"""

import math
from dataclasses import dataclass

from .errors import ModeHopError


@dataclass(frozen=True)
class PlantConfig:
    k_current: float = -1.0e12    # Hz/A  (-1 GHz/mA)
    k_temp: float = 28.0e9        # Hz/K
    k_ctrl: float = 1.0e-3        # A/V   (net k_ctrl*k_current = -1 GHz/V)
    linewidth: float = 0.5e6      # Hz, white-frequency-noise equivalent
    mode_hop_span: float = 30.0e9  # Hz, fault envelope around base detuning
    drift_rate: float = 2.7777777777777776e-08  # K/s (0.1 mK/h), as default.cfg pins it
    base_detuning: float = 0.0    # Hz at bias current and reference temperature
    bias_current: float = 0.12    # A
    temp_reference: float = 312.65  # K
    tau_thermal: float = 2.0      # s

    def __post_init__(self):
        if self.k_current == 0:
            raise ValueError("k_current must be nonzero")
        if self.linewidth < 0:
            raise ValueError(f"linewidth must be >= 0, got {self.linewidth}")
        if not self.mode_hop_span > 0:
            raise ValueError(f"mode_hop_span must be > 0, got {self.mode_hop_span}")
        if not self.tau_thermal > 0:
            raise ValueError(f"tau_thermal must be > 0, got {self.tau_thermal}")


@dataclass(frozen=True)
class RampConfig:
    frequency: float = 500.0  # Hz repetition rate
    span: float = 3.0e9       # peak-to-peak optical detuning, Hz
    shape: str = "triangle"   # or "sawtooth"
    enabled: bool = True

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError(f"ramp frequency must be > 0, got {self.frequency}")
        if self.span < 0:
            raise ValueError(f"ramp span must be >= 0, got {self.span}")
        if self.shape not in ("triangle", "sawtooth"):
            raise ValueError(f"unknown ramp shape {self.shape!r}")


@dataclass(frozen=True)
class LaserState:
    current: float          # A
    temperature: float      # K
    control_voltage: float  # V
    detuning: float         # Hz relative to carrier
    elapsed: float          # s


def initial_state(cfg: PlantConfig) -> LaserState:
    return LaserState(
        current=cfg.bias_current,
        temperature=cfg.temp_reference,
        control_voltage=0.0,
        detuning=cfg.base_detuning,
        elapsed=0.0,
    )


def ramp_waveform(t, r: RampConfig):
    """Ramp detuning offset at time t; zero when disabled.

    Triangle starts at -span/2, peaks at +span/2 half a period later;
    sawtooth rises linearly then resets.
    """
    if not r.enabled or r.span == 0:
        return 0.0
    phase = (t * r.frequency) % 1.0
    if r.shape == "sawtooth":
        return -r.span / 2.0 + r.span * phase
    if phase < 0.5:
        return -r.span / 2.0 + 2.0 * r.span * phase
    return r.span / 2.0 - 2.0 * r.span * (phase - 0.5)


def frequency_noise_sigma(linewidth, dt):
    """Standard deviation (Hz) of one white-frequency-noise sample.

    The variance is linewidth / (2 pi dt): integrating white frequency
    noise of per-sample variance sigma^2 gives phase diffusion
    D = (2 pi)^2 sigma^2 dt and a Lorentzian line of FWHM D / (2 pi),
    so this choice reproduces the configured linewidth.
    """
    return math.sqrt(linewidth / (2.0 * math.pi * dt))


def frequency_noise_sample(linewidth, dt, rng):
    """One white-frequency-noise sample (Hz) of `frequency_noise_sigma`."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if linewidth == 0:
        return 0.0
    return rng.normal(0.0, frequency_noise_sigma(linewidth, dt))


def _plant_constants(cfg: PlantConfig, dt):
    """The constants of `_plant_update` for one config and time step."""
    return (dt, cfg.k_current, cfg.k_temp, cfg.k_ctrl, cfg.bias_current,
            cfg.temp_reference, cfg.drift_rate, dt / cfg.tau_thermal,
            cfg.mode_hop_span, cfg.mode_hop_span / 2.0)


def _plant_update(consts, temperature, elapsed, base, setpoint, disturbance, control,
                  ramp, noise):
    """The plant update over plain floats; returns (temperature, elapsed,
    current, detuning).

    `consts` is `_plant_constants(cfg, dt)`, `base` the detuning at bias
    current and reference temperature, and `ramp` a RampConfig whose
    waveform is added, or None. Raises ModeHopError when the detuning
    leaves the envelope around `base` or is not finite. `step_plant` runs
    the plant through this function; the closed-loop kernel writes it out
    and is tested against it.
    """
    (dt, k_current, k_temp, k_ctrl, bias, temp_reference, drift_rate, thermal_gain,
     span, half_span) = consts
    elapsed += dt
    target = setpoint + drift_rate * elapsed + disturbance
    temperature += thermal_gain * (target - temperature)
    current = bias + k_ctrl * control
    ramp_offset = 0.0 if ramp is None else ramp_waveform(elapsed, ramp)
    detuning = (
        base
        + k_current * (current - bias)
        + k_temp * (temperature - temp_reference)
        + ramp_offset
        + noise
    )
    # Written so that a NaN detuning fails the envelope test too.
    if not abs(detuning - base) <= half_span:
        raise ModeHopError(detuning, span, elapsed)
    return temperature, elapsed, current, detuning


def step_plant(
    state: LaserState,
    cfg: PlantConfig,
    ramp: RampConfig,
    inputs,
    dt,
    rng=None,
) -> LaserState:
    """Advance the laser one time step.

    `inputs` carries temp_setpoint (K), disturbance (K), control_voltage (V)
    and ramp_enabled (bool, ANDed with the ramp config). Raises ModeHopError
    when the new detuning leaves the mode-hop-free envelope or is not finite.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    control_voltage = inputs.get("control_voltage", state.control_voltage)
    noise = 0.0
    if rng is not None and cfg.linewidth > 0:
        noise = frequency_noise_sample(cfg.linewidth, dt, rng)
    temperature, elapsed, current, detuning = _plant_update(
        _plant_constants(cfg, dt),
        state.temperature,
        state.elapsed,
        cfg.base_detuning,
        inputs.get("temp_setpoint", cfg.temp_reference),
        inputs.get("disturbance", 0.0),
        control_voltage,
        ramp if inputs.get("ramp_enabled", True) else None,
        noise,
    )
    return LaserState(
        current=current,
        temperature=temperature,
        control_voltage=control_voltage,
        detuning=detuning,
        elapsed=elapsed,
    )
