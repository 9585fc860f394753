"""Servo electronics and lock supervision.

The controller is a positional PID with trapezoidal integration, a
moving-average-smoothed derivative, an output offset, and clamping
anti-windup (the integrator freezes whenever integrating would push a
saturated output further into its rail, and is itself bounded so the
quiescent output always lies inside the output range).

Lock acquisition is a four-phase supervisor:

    sweeping -> engaging -> locked -> lost -> sweeping (relock)

During `sweeping` the ramp scans the spectrum and the PID is held at its
quiescent output. `engaging` disables the ramp, snaps the laser to the lock
point and closes the loop; `locked` is declared once the filtered error has
stayed inside the lock threshold for the hold time. Loss is declared when
the filtered error exceeds the loss threshold for the loss time, or
immediately when the supervisor sees the laser escape the lock point's
neighborhood (an off-feature laser produces a near-zero error signal, so an
error threshold alone cannot detect that escape). After a relock delay the
supervisor sweeps again.

The control law and the supervisor each have one single-step
implementation, a function over plain floats and tuples (`_pid_update`,
`_supervise`). `pid_step` and `lock_step` wrap them in the
PidState/LockState dataclasses for callers that step by hand.

`closed_loop_run` is a flat kernel: on the engaging and locked path a step
calls no Python function, except `_interp` when the error-map guess
misses. It unpacks the per-run constants once, from `_supervisor_law`,
`_pid_gains` and `plant._plant_constants`, and writes out the
supervisor's phase dispatch (locked first), the PID law, the plant update
with its envelope test, and the error-map lookup. The lookup guesses the
interval from the uniform map step and checks it against the axis; this
is the only guess, and a miss goes to `_interp`, which is numpy's interp
with the interval found by bisection. The noise streams are drawn in
blocks. The run keeps no PID state, so with kd == 0 its law keeps no
derivative window. Each step stores into the preallocated logs through
memoryviews, but phases are not stored per step: the kernel records the
step where each run of one phase begins, and the log derives per-sample
codes, indices into `PHASES`, from those records. What does not change
within a run is settled before the loop: the step where the temperature
step begins, the negated thresholds, and `int` bound to a local, so that a
locked step reads no global name.

The noise-free error map is a pure function of the line table, medium,
plant, ramp and lock configs. `closed_loop_run` builds it, unless the
caller passes the map `build_error_map` gave for those configs; the
harness builds it once per config and hands it to each of its runs.

The single-step functions are the kernel's reference: the logs, records
and meta of a run are bit-identical to a loop that calls `_interp`,
`_supervise` and `plant._plant_update` once per step, and the tests hold
the kernel to that loop.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import astuple, dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from .atomic_data import find_feature
from .errors import ModeHopError, SaslockError, UnlockableError
from .lineshape import saturation_broadened_width
from .plant import _plant_constants, frequency_noise_sigma, ramp_waveform
from .spectrum import NoiseConfig, error_signal, synthesize_sweep, write_series_csv

LOCKLOG_FORMAT_VERSION = "sas-locklog/1"

# The derivative window is re-summed every step, so its length is capped.
MAX_DERIVATIVE_SMOOTHING = 1024

# The error map samples the ramp span plus this margin on each side at this
# step, so its sample count grows with the span.
ERROR_MAP_STEP_HZ = 0.5e6
ERROR_MAP_MARGIN_HZ = 50e6

# A lock point's zero crossing must be at least this steep, as a fraction of
# the feature's error amplitude over the derivative scale.
MIN_SLOPE_FRAC = 0.02

LEGAL_TRANSITIONS = {
    "sweeping": ("sweeping", "engaging"),
    "engaging": ("engaging", "locked"),
    "locked": ("locked", "lost"),
    "lost": ("lost", "sweeping"),
}
PHASES = tuple(LEGAL_TRANSITIONS)   # a phase's code is its index here


# ---------------------------------------------------------------------------
# PID
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PidConfig:
    kp: float = 0.006     # V/V
    ki: float = 40.0      # V/(V s)
    kd: float = 0.0       # V s/V
    offset: float = 0.0   # V
    output_min: float = -10.0
    output_max: float = 10.0
    derivative_smoothing: int = 5  # samples

    def __post_init__(self):
        if not self.output_min < self.output_max:
            raise ValueError(
                f"output_min must be < output_max, got [{self.output_min}, {self.output_max}]"
            )
        if not 1 <= self.derivative_smoothing <= MAX_DERIVATIVE_SMOOTHING:
            raise ValueError(
                f"derivative_smoothing must be in [1, {MAX_DERIVATIVE_SMOOTHING}], "
                f"got {self.derivative_smoothing}"
            )


@dataclass(frozen=True)
class PidState:
    integrator: float = 0.0
    prev_error: float = None    # None until the first step
    last_output: float = 0.0
    error_window: tuple = ()    # recent errors for the smoothed derivative
    prev_smoothed: float = None


# A PID state as plain values: (integrator, prev_error, last_output,
# error_window, prev_smoothed), the fields of PidState in order.
_PID_START = (0.0, None, 0.0, (), None)


def _pid_gains(cfg: PidConfig, keep_window=True):
    # The integrator rails keep the quiescent output (zero error) inside the
    # output rails.
    # A caller that drops the PID state may skip the derivative window when
    # kd is zero: kd * d is then +-0.0 for a finite d, which changes at most
    # the sign of a zero sum, and adding the offset undoes that unless the
    # offset is -0.0. A non-finite d drops the term in both paths.
    keep_window = keep_window or cfg.kd != 0 or math.copysign(1.0, cfg.offset) < 0
    return (cfg.kp, cfg.ki, cfg.kd, cfg.offset, cfg.output_min, cfg.output_max,
            cfg.output_min - cfg.offset, cfg.output_max - cfg.offset,
            cfg.derivative_smoothing, keep_window)


def _pid_update(gains, state, error, dt):
    """The control law over plain values; returns (new state, control).

    `gains` is `_pid_gains(cfg)` and `state` a PID state tuple. `pid_step`
    runs the law through this function; the closed-loop kernel writes it
    out and is tested against it.
    Without the window flag of `gains` the window and the smoothed error
    pass through unchanged.
    """
    kp, ki, kd, offset, out_min, out_max, int_min, int_max, smoothing, keep_window = gains
    integrator, prev_error, _, window, smoothed = state

    if prev_error is None:
        prev_error = error
    # The clamps spell out min(max(x, lo), hi), which costs two calls per
    # step; the comparisons are the ones min and max make, NaN included.
    candidate = integrator + ki * 0.5 * (error + prev_error) * dt
    candidate = int_min if int_min > candidate else candidate
    candidate = int_max if int_max < candidate else candidate

    raw = kp * error + candidate
    if keep_window:
        window = (window + (error,))[-smoothing:]
        prev_smoothed = smoothed
        smoothed = sum(window) / len(window)
        if prev_smoothed is None:
            prev_smoothed = smoothed
        raw += kd * ((smoothed - prev_smoothed) / dt)
    raw += offset
    if raw != raw:
        # Finite inputs can overflow a term to inf (a jump of 1e300 over
        # dt=1e-10), and kd = 0 times inf, or inf - inf, is NaN. Such a step
        # drops the derivative term and, if the integral step is NaN too
        # (ki = 0), keeps the integrator; the rest cannot be NaN.
        if candidate != candidate:
            candidate = integrator
        raw = kp * error + candidate + offset
    control = out_min if out_min > raw else raw
    control = out_max if out_max < control else control

    # Saturated: integrate only when it pulls the output off the rail.
    if (raw > out_max and candidate > integrator) or (raw < out_min and candidate < integrator):
        candidate = integrator
    return (candidate, error, control, window, smoothed), control


def pid_step(cfg: PidConfig, st: PidState, error, dt):
    """One controller update; returns (new state, clamped control output).

    The first step integrates rectangle-style (prev error taken equal to the
    current one), so a constant error integrates exactly from step one.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    state, control = _pid_update(_pid_gains(cfg), astuple(st), error, dt)
    return PidState(*state), control


# ---------------------------------------------------------------------------
# Lock point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockPoint:
    detuning: float        # Hz where the conditioned error crosses zero
    slope: float           # V/Hz at the crossing
    required_offset: float  # V added to the raw error signal
    amplitude: float       # peak |conditioned error| of the feature, V
    curve: np.ndarray = field(repr=False, compare=False)  # conditioned error over the trace, V


def find_lock_point(trace, table, target_feature, mode="derivative",
                    derivative_scale_hz=None) -> LockPoint:
    """Locate the zero crossing of the conditioned error on a named feature.

    The conditioned error, returned over the whole trace as `curve`, is the
    differential plus the servo offset, or the derivative times
    `derivative_scale_hz`. Derivative mode locks to the feature's center
    (the derivative of a symmetric dip crosses zero there, no offset
    needed). Differential mode locks to the low-frequency half-height side,
    with required_offset equal to minus half the dip amplitude. Raises
    UnlockableError when the feature is absent from the trace or its slope
    is unusably small.
    """
    feature = find_feature(table, target_feature)
    if derivative_scale_hz is None:
        derivative_scale_hz = feature.gamma_natural

    axis = trace.detuning_axis
    if not (axis[0] <= feature.detuning <= axis[-1]):
        raise UnlockableError(
            target_feature, f"at {feature.detuning / 1e6:.1f} MHz lies outside the swept range"
        )
    span = 6.0 * derivative_scale_hz
    sl = trace.window_slice(feature.detuning - span, feature.detuning + span)
    if sl.stop - sl.start < 5:
        raise UnlockableError(target_feature, "has too few samples across it")

    if mode == "differential":
        segment = trace.differential[sl]
        baseline = float(np.median(np.concatenate([segment[:3], segment[-3:]])))
        k = int(np.argmax(np.abs(segment - baseline)))
        dip_amplitude = float(segment[k] - baseline)
        required_offset = -(baseline + dip_amplitude / 2.0)
        curve = trace.differential + required_offset
        amplitude = abs(dip_amplitude / 2.0)
    elif mode == "derivative":
        required_offset = 0.0
        curve = error_signal(trace, "derivative") * derivative_scale_hz
        amplitude = float(np.abs(curve[sl]).max())
    else:
        raise ValueError(f"unknown lock mode {mode!r}")

    if amplitude < 1e-9:
        raise UnlockableError(target_feature, "produces no error signal")

    # Zero crossings inside the feature window, nearest the nominal center;
    # differential mode restricts to the low-frequency side of the extremum.
    y = curve[sl]
    x = axis[sl]
    crossings = []
    limit = len(y) - 1
    if mode == "differential":
        limit = int(np.argmax(np.abs(y - np.median(y))))
    for i in range(limit):
        if y[i] == 0.0 or (y[i] < 0) != (y[i + 1] < 0):
            frac = y[i] / (y[i] - y[i + 1]) if y[i] != y[i + 1] else 0.0
            x0 = x[i] + frac * (x[i + 1] - x[i])
            slope = (y[i + 1] - y[i]) / (x[i + 1] - x[i])
            crossings.append((x0, slope))
    min_slope = MIN_SLOPE_FRAC * amplitude / derivative_scale_hz
    crossings = [(x0, sl_) for x0, sl_ in crossings if abs(sl_) >= min_slope]
    if not crossings:
        raise UnlockableError(
            target_feature, "has no usable zero crossing (slope below threshold)"
        )
    x0, slope = min(crossings, key=lambda c: abs(c[0] - feature.detuning))
    return LockPoint(
        detuning=float(x0),
        slope=float(slope),
        required_offset=float(required_offset),
        amplitude=amplitude,
        curve=curve,
    )


# ---------------------------------------------------------------------------
# Lock-acquisition state machine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockConfig:
    target_feature: str = "Rb87:F2->co(2,3)"
    mode: str = "derivative"          # error-signal mode
    polarity: str = "auto"            # "auto", "+1", "-1" (flip for testing)
    lock_threshold_frac: float = 0.02  # of the feature error amplitude
    loss_threshold_frac: float = 0.50
    hold_time: float = 0.020          # s inside threshold before locked
    loss_time: float = 0.010          # s outside threshold before lost
    relock_delay: float = 0.100       # s frozen before re-sweeping
    sweep_time: float = 0.004         # s of ramped sweeping before engage
    filter_time: float = 0.005        # s, lock-detector error filter
    escape_span_hz: float = None      # None -> 2x broadened dip FWHM
    lock_threshold_v: float = None    # resolved by the runner
    loss_threshold_v: float = None

    def __post_init__(self):
        if self.mode not in ("derivative", "differential"):
            raise ValueError(f"unknown lock mode {self.mode!r}")
        if self.polarity not in ("auto", "+1", "-1"):
            raise ValueError(f"polarity must be auto/+1/-1, got {self.polarity!r}")
        for name in ("hold_time", "loss_time", "relock_delay", "sweep_time", "filter_time"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 < self.lock_threshold_frac < self.loss_threshold_frac:
            raise ValueError(
                "thresholds must satisfy 0 < lock_threshold_frac < loss_threshold_frac, got "
                f"{self.lock_threshold_frac} and {self.loss_threshold_frac}"
            )


@dataclass(frozen=True)
class LockState:
    phase: str = "sweeping"
    time_in_phase: float = 0.0
    qualify_time: float = 0.0   # time the transition condition has held
    error_filter: float = 0.0   # first-order filtered error, V


def _supervisor_law(pid_cfg: PidConfig, lock_cfg: LockConfig, dt, keep_window=True):
    if lock_cfg.lock_threshold_v is None or lock_cfg.loss_threshold_v is None:
        raise SaslockError("lock thresholds not resolved; use resolve_thresholds()")
    return (_pid_gains(pid_cfg, keep_window), lock_cfg.lock_threshold_v,
            lock_cfg.loss_threshold_v, lock_cfg.hold_time, lock_cfg.loss_time, lock_cfg.relock_delay,
            lock_cfg.sweep_time, min(1.0, dt / lock_cfg.filter_time))


def _supervise(law, phase, time_in_phase, qualify, filtered, pid, error, force_lost, dt):
    """Supervisor and controller step over plain values.

    `law` is `_supervisor_law(..., dt)`, `filtered` the lock detector's filtered
    error and `pid` a PID state tuple. Returns (phase, time_in_phase,
    qualify, filtered, pid, control). `lock_step` runs the supervisor
    through this function; the closed-loop kernel writes it out and is
    tested against it.
    """
    gains, lock_v, loss_v, hold_time, loss_time, relock_delay, sweep_time, alpha = law
    filtered += alpha * (error - filtered)
    time_in_phase += dt

    if phase == "sweeping":
        control = gains[3]  # the PID is held at its quiescent output
        if time_in_phase >= sweep_time:
            # The closed loop starts clean.
            phase, time_in_phase, qualify, filtered, pid = "engaging", 0.0, 0.0, 0.0, _PID_START
    elif phase == "engaging":
        pid, control = _pid_update(gains, pid, error, dt)
        qualify = qualify + dt if abs(filtered) < lock_v else 0.0
        if qualify >= hold_time:
            phase, time_in_phase, qualify = "locked", 0.0, 0.0
    elif phase == "locked":
        pid, control = _pid_update(gains, pid, error, dt)
        if force_lost:
            phase, time_in_phase, qualify = "lost", 0.0, 0.0
        else:
            qualify = qualify + dt if abs(filtered) > loss_v else 0.0
            if qualify >= loss_time:
                phase, time_in_phase, qualify = "lost", 0.0, 0.0
    elif phase == "lost":
        control = pid[2]  # frozen at the last output
        if time_in_phase >= relock_delay:
            phase, time_in_phase, qualify, filtered, pid = "sweeping", 0.0, 0.0, 0.0, _PID_START
    else:
        raise SaslockError(f"unknown lock phase {phase!r}")
    return phase, time_in_phase, qualify, filtered, pid, control


def lock_step(lock: LockState, pid: PidState, pid_cfg: PidConfig, lock_cfg: LockConfig,
              measurement, dt):
    """Advance supervisor and controller one step.

    measurement: {"error": V (loop-polarity applied), "force_lost": bool}.
    Returns (LockState, PidState, control V, ramp_enable).
    """
    law = _supervisor_law(pid_cfg, lock_cfg, dt)
    if lock.phase in ("engaging", "locked") and not dt > 0:
        # Only the PID needs a positive step, as in pid_step.
        raise ValueError(f"dt must be > 0, got {dt}")
    # A LockState's fields are the supervisor's first four values, in order.
    *lock_values, state, control = _supervise(
        law, *astuple(lock), astuple(pid), measurement["error"],
        measurement.get("force_lost", False), dt,
    )
    new_lock = LockState(*lock_values)
    return new_lock, PidState(*state), control, new_lock.phase == "sweeping"


def validate_phase_sequence(phases):
    """Raise if a logged phase sequence contains an illegal transition."""
    for a, b in zip(phases, phases[1:]):
        if b not in LEGAL_TRANSITIONS[a]:
            raise SaslockError(f"illegal lock transition {a} -> {b}")


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disturbances:
    temp_step_k: float = 0.0
    temp_step_time_s: float = None
    detuning_step_hz: float = 0.0
    detuning_step_time_s: float = None


@dataclass
class TimeSeriesLog:
    t: np.ndarray
    detuning: np.ndarray
    error: np.ndarray
    control: np.ndarray
    temperature: np.ndarray
    transitions: list   # (step, phase) where each run of one phase begins
    meta: dict

    def __len__(self):
        return len(self.t)

    def phase_codes(self):
        """The int8 code of each sample's phase, its index in PHASES."""
        codes = np.array([PHASES.index(phase) for _, phase in self.transitions], dtype=np.int8)
        return np.repeat(codes, np.diff([*(k for k, _ in self.transitions), len(self)]))

    @property
    def phase(self):
        """The name of each sample's phase, as a tuple."""
        return tuple(map(PHASES.__getitem__, self.phase_codes().tolist()))


def resolve_thresholds(lock_cfg: LockConfig, lock_point: LockPoint, dip_fwhm_hz):
    """Fill in volt-valued thresholds and the escape span from the lock point.

    The default escape span (2x the broadened dip width) sits inside the
    differential's local minima flanking the target dip, where a
    wrong-polarity loop finds spurious zero crossings to rest on, so a loop
    settling anywhere other than the true lock point is treated as lost
    rather than reported as a false lock.
    """
    return replace(
        lock_cfg,
        lock_threshold_v=lock_cfg.lock_threshold_frac * lock_point.amplitude,
        loss_threshold_v=lock_cfg.loss_threshold_frac * lock_point.amplitude,
        escape_span_hz=(
            lock_cfg.escape_span_hz
            if lock_cfg.escape_span_hz is not None
            else 2.0 * dip_fwhm_hz
        ),
    )


def _swept_span(plant_cfg, ramp_cfg):
    """The detuning range (lo, hi) the ramp sweeps: base_detuning +- span / 2."""
    return (plant_cfg.base_detuning - ramp_cfg.span / 2.0,
            plant_cfg.base_detuning + ramp_cfg.span / 2.0)


def error_map_extent(plant_cfg, ramp_cfg):
    """(lo, hi, samples) of the error map: the swept span and a margin.

    samples, at least 64, is a float that build_error_map floors, so that a
    cap is checked on it before int() of an infinite count could overflow.
    """
    lo, hi = _swept_span(plant_cfg, ramp_cfg)
    lo, hi = lo - ERROR_MAP_MARGIN_HZ, hi + ERROR_MAP_MARGIN_HZ
    return lo, hi, max(64.0, (hi - lo) / ERROR_MAP_STEP_HZ)


def build_error_map(table, medium, plant_cfg, ramp_cfg, lock_cfg):
    """Noise-free conditioned error vs detuning over the ramp-covered range.

    Returns (axis, error, lock point, dip FWHM, peak |error| over the swept span).
    """
    lo, hi, samples = error_map_extent(plant_cfg, ramp_cfg)
    trace = synthesize_sweep(table, medium, (lo, hi, int(samples)), NoiseConfig(enabled=False))

    feature = find_feature(table, lock_cfg.target_feature)
    dip_fwhm = saturation_broadened_width(feature.gamma_natural, medium.saturation_s)
    scale = dip_fwhm / 2.0
    lock_point = find_lock_point(
        trace, table, lock_cfg.target_feature, lock_cfg.mode, derivative_scale_hz=scale
    )
    curve = lock_point.curve
    axis = trace.detuning_axis
    swept_lo, swept_hi = _swept_span(plant_cfg, ramp_cfg)
    pre_lock_error_peak = float(np.abs(curve[(axis >= swept_lo) & (axis <= swept_hi)]).max())
    return axis, curve, lock_point, dip_fwhm, pre_lock_error_peak


# Noise is drawn this many steps at a time: a Generator gives the same
# values in blocks as in single draws. One block of n draws per stream, as
# a list of floats, raised the peak RSS of `saslock all` by about 4 MB.
_NOISE_BLOCK = 1024


def _normal_stream(rng, sigma, n):
    """n draws of normal(0, sigma) from rng, drawn in blocks."""
    return chain.from_iterable(
        rng.normal(0.0, sigma, min(_NOISE_BLOCK, n - start)).tolist()
        for start in range(0, n, _NOISE_BLOCK)
    )


def _interp(x, xp, fp, slopes):
    """np.interp(x, xp, fp) for one float, with the same arithmetic.

    xp, fp are lists over an increasing axis and slopes[j] is
    (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]), as numpy computes it. Bisection
    finds numpy's interval j, the last with xp[j] <= x.
    """
    if x != x:
        return x
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j >= len(slopes) or xp[j] == x:
        return fp[j]
    y = slopes[j] * (x - xp[j]) + fp[j]
    if y != y:
        # numpy retries from the right end, then falls back on a flat segment.
        y = slopes[j] * (x - xp[j + 1]) + fp[j + 1]
        if y != y and fp[j] == fp[j + 1]:
            y = fp[j]
    return y


def closed_loop_run(
    table,
    medium,
    plant_cfg,
    ramp_cfg,
    pid_cfg,
    lock_cfg,
    *,
    duration,
    dt=1e-4,
    seed=0,
    detector_noise_v=0.002,
    noise_enabled=True,
    disturbances: Disturbances = Disturbances(),
    start_locked=False,
    error_map=None,
) -> TimeSeriesLog:
    """Step plant and servo on a shared clock; returns the full time series.

    The spectroscopy readout is quasi-static: at every step the conditioned
    error is interpolated from a precomputed noise-free error map at the
    plant's instantaneous detuning, plus detector noise. The detuning step's
    time must be > 0: it applies after the step whose interval (t, t + dt]
    holds it. The temperature step's time must be finite: it applies from
    the first step with t >= its time, which is found before the loop. A
    mode-hop fault, or a detuning that is no longer finite, aborts the
    scenario with a partial log (meta["aborted"], meta["abort_reason"]).

    `error_map` is what `build_error_map` returns for the same table,
    medium, plant, ramp and lock configs; without it the run builds its own.

    The loop is the flat kernel of the module docstring: the supervisor,
    the PID law, the plant update and the error-map lookup are written out
    in it, and `_supervise`, `_pid_update`, `_plant_update` and `_interp`
    are the reference it must match bit for bit.
    """
    if not duration > 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    detuning_step_time = disturbances.detuning_step_time_s
    if detuning_step_time is not None and not detuning_step_time > 0:
        raise ValueError(f"detuning_step_time_s must be > 0, got {detuning_step_time}")
    temp_step_time = disturbances.temp_step_time_s
    if temp_step_time is not None and not math.isfinite(temp_step_time):
        raise ValueError(f"temp_step_time_s must be finite, got {temp_step_time}")

    if error_map is None:
        error_map = build_error_map(table, medium, plant_cfg, ramp_cfg, lock_cfg)
    map_axis, curve, lock_point, dip_fwhm, pre_lock_error_peak = error_map
    lock_cfg = resolve_thresholds(lock_cfg, lock_point, dip_fwhm)
    # The PID state is internal to the run, so the window may be skipped.
    gains, lock_v, loss_v, hold_time, loss_time, relock_delay, sweep_time, alpha = (
        _supervisor_law(pid_cfg, lock_cfg, dt, keep_window=False)
    )
    kp, ki, kd, offset, out_min, out_max, int_min, int_max, smoothing, keep_window = gains
    ki_half = ki * 0.5   # the law's first product, ki * 0.5 * (error + prev_error) * dt
    (_, k_current, k_temp, k_ctrl, bias, temp_reference, drift_rate, thermal_gain,
     span, half_span) = _plant_constants(plant_cfg, dt)

    net_gain = k_ctrl * k_current  # Hz per control volt
    polarity = -math.copysign(1.0, net_gain * lock_point.slope)
    if lock_cfg.polarity == "-1":
        polarity = -polarity

    n = int(round(duration / dt))
    # The first step with k * dt >= the step's time, by the loop's own test:
    # k * dt never falls as k rises. n when no step of the run reaches it.
    temp_step_at = n if temp_step_time is None else bisect_left(
        range(n), True, key=lambda k: k * dt >= temp_step_time)
    seq = np.random.SeedSequence(seed).spawn(2)
    plant_rng = np.random.default_rng(seq[0])
    meas_rng = np.random.default_rng(seq[1])
    if noise_enabled and plant_cfg.linewidth > 0:
        plant_noise = _normal_stream(plant_rng, frequency_noise_sigma(plant_cfg.linewidth, dt), n)
    else:
        plant_noise = repeat(0.0, n)
    meas_sigma = detector_noise_v * math.sqrt(2.0) if noise_enabled else 0.0
    add_meas_noise = meas_sigma > 0
    meas_noise = _normal_stream(meas_rng, meas_sigma, n) if add_meas_noise else repeat(0.0, n)

    map_x = map_axis.tolist()
    map_y = curve.tolist()
    map_slopes = (np.diff(curve) / np.diff(map_axis)).tolist()
    map_lo = map_x[0]
    map_per_hz = (len(map_x) - 1) / (map_x[-1] - map_lo)

    lock_detuning = lock_point.detuning
    escape_span = lock_cfg.escape_span_hz
    # Held in locals, so that the engaging and locked path reads no global.
    neg_lock_v, neg_loss_v, neg_escape_span, neg_half_span = (
        -lock_v, -loss_v, -escape_span, -half_span)
    to_int = int
    temp_step_k = disturbances.temp_step_k
    detuning_step_hz = disturbances.detuning_step_hz

    base = lock_detuning if start_locked else plant_cfg.base_detuning
    detuning = base
    temperature = temp_reference
    elapsed = disturbance = 0.0
    phase = "locked" if start_locked else "sweeping"
    # Only sweeping and lost read time_in_phase, so only they advance it.
    time_in_phase = qualify = filtered = 0.0
    # The PID state; its last output is `control`, which lost holds.
    integrator, prev_error, _, window, smoothed = _PID_START
    nan = math.nan

    # The loop stores through memoryviews of the preallocated logs: an item
    # store costs about half of an ndarray's.
    log_detuning = np.empty(n)
    log_error = np.empty(n)
    log_control = np.empty(n)
    log_temperature = np.empty(n)
    store_detuning = memoryview(log_detuning)
    store_error = memoryview(log_error)
    store_control = memoryview(log_control)
    store_temperature = memoryview(log_temperature)
    transitions = {0: phase}   # step -> the phase that begins there
    steps = n
    aborted = False
    abort_reason = ""

    for k, plant_noise_hz, meas_noise_v in zip(range(n), plant_noise, meas_noise):
        if k == temp_step_at:
            disturbance = temp_step_k

        # The map-step guess of the interval; a knot, a miss or NaN goes to _interp.
        try:
            j = to_int((detuning - map_lo) * map_per_hz)
            x_j = map_x[j]
            error_raw = (map_slopes[j] * (detuning - x_j) + map_y[j]
                         if x_j < detuning < map_x[j + 1] else nan)
        except (IndexError, OverflowError, ValueError):
            error_raw = nan
        if error_raw != error_raw:
            error_raw = _interp(detuning, map_x, map_y, map_slopes)
        if add_meas_noise:
            error_raw += meas_noise_v
        error = polarity * error_raw

        # _supervise, locked first; a comparison pair spells out abs().
        if phase == "locked" or phase == "engaging":
            filtered += alpha * (error - filtered)

            # _pid_update
            if prev_error is None:
                prev_error = error
            candidate = integrator + ki_half * (error + prev_error) * dt
            if int_min > candidate:
                candidate = int_min
            if int_max < candidate:
                candidate = int_max
            raw = kp * error + candidate
            if keep_window:
                window = (window + (error,))[-smoothing:]
                prev_smoothed = smoothed
                smoothed = sum(window) / len(window)
                if prev_smoothed is None:
                    prev_smoothed = smoothed
                raw += kd * ((smoothed - prev_smoothed) / dt)
            raw += offset
            if raw != raw:
                if candidate != candidate:
                    candidate = integrator
                raw = kp * error + candidate + offset
            control = out_min if out_min > raw else raw
            if out_max < control:
                control = out_max
            if not (raw > out_max and candidate > integrator
                    or raw < out_min and candidate < integrator):
                integrator = candidate
            prev_error = error

            if phase == "locked":
                if filtered > loss_v or filtered < neg_loss_v:
                    qualify += dt
                else:
                    qualify = 0.0
                # An escape from the lock point is lost at once. Engaging
                # restarts qualify, so counting it on that step is harmless.
                escape = detuning - lock_detuning
                if escape > escape_span or escape < neg_escape_span or qualify >= loss_time:
                    phase = transitions[k] = "lost"
                    time_in_phase = 0.0
            elif neg_lock_v < filtered < lock_v:
                qualify += dt
                if qualify >= hold_time:
                    phase = transitions[k] = "locked"
                    qualify = 0.0
            else:
                qualify = 0.0
        elif phase == "sweeping":
            control = offset   # the PID is held at its quiescent output
            time_in_phase += dt
            if time_in_phase >= sweep_time:
                # Engage: the closed loop starts clean, with the laser parked
                # on the lock point.
                phase = transitions[k] = "engaging"
                qualify = filtered = 0.0
                integrator, prev_error, _, window, smoothed = _PID_START
                base = lock_detuning - net_gain * control - k_temp * (temperature - temp_reference)
        else:
            # lost: the control stays frozen at the last PID output.
            time_in_phase += dt
            if time_in_phase >= relock_delay:
                phase = transitions[k] = "sweeping"
                time_in_phase = 0.0

        # _plant_update
        elapsed += dt
        temperature += thermal_gain * (temp_reference + drift_rate * elapsed + disturbance
                                       - temperature)
        detuning = (
            base
            + k_current * (bias + k_ctrl * control - bias)
            + k_temp * (temperature - temp_reference)
            + (ramp_waveform(elapsed, ramp_cfg) if phase == "sweeping" else 0.0)
            + plant_noise_hz
        )
        # The envelope test; a NaN detuning fails it too.
        if not neg_half_span <= detuning - base <= half_span:
            exc = ModeHopError(detuning, span, elapsed)
            steps = k   # the aborting step is not logged
            aborted = True
            abort_reason = str(exc)
            if not math.isfinite(detuning):
                abort_reason = (
                    f"non-finite state: detuning {exc.detuning_hz!r} Hz, control {control!r} V "
                    f"at t={exc.elapsed_s:.6f} s"
                )
            break

        if detuning_step_time is not None and (t := k * dt) < detuning_step_time <= t + dt:
            base += detuning_step_hz

        store_detuning[k] = detuning
        store_error[k] = error_raw
        store_control[k] = control
        store_temperature[k] = temperature

    meta = {
        "format": LOCKLOG_FORMAT_VERSION,
        "seed": seed,
        "dt": dt,
        "lock_point_hz": lock_point.detuning,
        "lock_amplitude_v": lock_point.amplitude,
        "pre_lock_error_peak_v": pre_lock_error_peak,
        "lock_threshold_v": lock_cfg.lock_threshold_v,
        "loss_threshold_v": lock_cfg.loss_threshold_v,
        "escape_span_hz": lock_cfg.escape_span_hz,
        "polarity": polarity,
        "aborted": aborted,
        "abort_reason": abort_reason,
    }
    return TimeSeriesLog(
        t=np.arange(steps) * dt,
        detuning=log_detuning[:steps],
        error=log_error[:steps],
        control=log_control[:steps],
        temperature=log_temperature[:steps],
        transitions=[(k, phase) for k, phase in transitions.items() if k < steps],
        meta=meta,
    )


def write_locklog_csv(log: TimeSeriesLog, fileobj):
    write_series_csv(fileobj, LOCKLOG_FORMAT_VERSION, log.meta,
                     ("seed", "dt", "lock_point_hz", "polarity", "aborted"),
                     {"t_s": log.t, "detuning_hz": log.detuning, "error_v": log.error,
                      "control_v": log.control, "temperature_k": log.temperature,
                      "phase": (log.phase_codes(), PHASES)})
