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

The control law and the supervisor each have one implementation, a function
over plain floats and tuples (`_pid_update`, `_supervise`). `pid_step` and
`lock_step` wrap them in the PidState/LockState dataclasses for callers
that step by hand. `closed_loop_run` is a flat kernel: it sets up the error
map as lists with per-interval slopes (looked up with numpy's interp
arithmetic), draws both noise streams in blocks and hoists the plant
constants, then runs one loop over local floats that calls `_supervise` and
`plant._plant_update`, the function under `plant.step_plant`. No dataclass
or dict is built per step, and the logs are bit-identical to stepping the public
functions one call at a time.
"""

import math
from bisect import bisect_right
from dataclasses import astuple, dataclass, replace
from itertools import repeat

import numpy as np

from .atomic_data import find_feature
from .errors import ModeHopError, SaslockError, UnlockableError
from .lineshape import saturation_broadened_width
from .plant import _plant_constants, _plant_update
from .spectrum import NoiseConfig, error_signal, synthesize_sweep, write_series_csv

LOCKLOG_FORMAT_VERSION = "sas-locklog/1"

# The derivative window is re-summed every step, so its length is capped.
MAX_DERIVATIVE_SMOOTHING = 1024

# The error map samples the ramp span plus this margin on each side at this
# step, so its sample count grows with the span.
ERROR_MAP_STEP_HZ = 0.5e6
ERROR_MAP_MARGIN_HZ = 50e6

PHASES = ("sweeping", "engaging", "locked", "lost")
LEGAL_TRANSITIONS = {
    "sweeping": ("sweeping", "engaging"),
    "engaging": ("engaging", "locked"),
    "locked": ("locked", "lost"),
    "lost": ("lost", "sweeping"),
}


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


def _pid_gains(cfg: PidConfig):
    # The integrator rails keep the quiescent output (zero error) inside the
    # output rails.
    return (cfg.kp, cfg.ki, cfg.kd, cfg.offset, cfg.output_min, cfg.output_max,
            cfg.output_min - cfg.offset, cfg.output_max - cfg.offset,
            cfg.derivative_smoothing)


def _pid_update(gains, state, error, dt):
    """The control law over plain values; returns (new state, control).

    `gains` is `_pid_gains(cfg)` and `state` a PID state tuple. `pid_step`
    and the closed-loop kernel both run the law through this function.
    """
    kp, ki, kd, offset, out_min, out_max, int_min, int_max, smoothing = gains
    integrator, prev_error, _, window, prev_smoothed = state

    window = (window + (error,))[-smoothing:]
    smoothed = sum(window) / len(window)
    if prev_smoothed is None:
        prev_smoothed = smoothed
    derivative = (smoothed - prev_smoothed) / dt

    if prev_error is None:
        prev_error = error
    # The clamps spell out min(max(x, lo), hi), which costs two calls per
    # step; the comparisons are the ones min and max make, NaN included.
    candidate = integrator + ki * 0.5 * (error + prev_error) * dt
    candidate = int_min if int_min > candidate else candidate
    candidate = int_max if int_max < candidate else candidate

    raw = kp * error + candidate + kd * derivative + offset
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
    slope_sign: int        # sign of d(error)/d(detuning) at the crossing
    slope: float           # V/Hz at the crossing
    required_offset: float  # V added to the raw error signal
    amplitude: float       # peak |conditioned error| of the feature, V


def conditioned_error_curve(trace, mode, derivative_scale_hz, required_offset=0.0,
                            smoothing_window=1):
    """Error signal in volts over a sweep trace.

    Differential mode adds the servo offset; derivative mode multiplies the
    finite-difference derivative by `derivative_scale_hz` so its magnitude is
    comparable to the differential's.
    """
    raw = error_signal(trace, mode, smoothing_window)
    if mode == "derivative":
        return raw * derivative_scale_hz
    return raw + required_offset


def find_lock_point(trace, table, target_feature, mode="derivative",
                    derivative_scale_hz=None, min_slope_frac=0.02) -> LockPoint:
    """Locate the zero crossing of the conditioned error on a named feature.

    Derivative mode locks to the feature's center (the derivative of a
    symmetric dip crosses zero there, no offset needed). Differential mode
    locks to the low-frequency half-height side, with required_offset equal
    to minus half the dip amplitude. Raises UnlockableError when the feature
    is absent from the trace or its slope is unusably small.
    """
    feature = find_feature(table, target_feature)
    if derivative_scale_hz is None:
        derivative_scale_hz = feature.gamma_natural

    axis = trace.detuning_axis
    if not (axis[0] <= feature.detuning <= axis[-1]):
        raise UnlockableError(
            f"feature {target_feature!r} at {feature.detuning / 1e6:.1f} MHz "
            "outside the swept range"
        )
    span = 6.0 * derivative_scale_hz
    sl = trace.window_slice(feature.detuning - span, feature.detuning + span)
    if sl.stop - sl.start < 5:
        raise UnlockableError("too few samples across the target feature")

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
        curve = conditioned_error_curve(trace, mode, derivative_scale_hz)
        amplitude = float(np.abs(curve[sl]).max())
    else:
        raise ValueError(f"unknown lock mode {mode!r}")

    if amplitude < 1e-9:
        raise UnlockableError(f"feature {target_feature!r} produces no error signal")

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
    min_slope = min_slope_frac * amplitude / derivative_scale_hz
    crossings = [(x0, sl_) for x0, sl_ in crossings if abs(sl_) >= min_slope]
    if not crossings:
        raise UnlockableError(
            f"no usable zero crossing on {target_feature!r} (slope below threshold)"
        )
    x0, slope = min(crossings, key=lambda c: abs(c[0] - feature.detuning))
    return LockPoint(
        detuning=float(x0),
        slope_sign=int(math.copysign(1.0, slope)),
        slope=float(slope),
        required_offset=float(required_offset),
        amplitude=amplitude,
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
    target_feature: str = ""
    lock_point_detuning: float = float("nan")
    time_in_phase: float = 0.0
    qualify_time: float = 0.0   # time the transition condition has held
    error_filter: float = None  # first-order filtered error, V


def _supervisor_law(pid_cfg: PidConfig, lock_cfg: LockConfig, dt):
    if lock_cfg.lock_threshold_v is None or lock_cfg.loss_threshold_v is None:
        raise SaslockError("lock thresholds not resolved; use resolve_thresholds()")
    return (_pid_gains(pid_cfg), lock_cfg.lock_threshold_v, lock_cfg.loss_threshold_v,
            lock_cfg.hold_time, lock_cfg.loss_time, lock_cfg.relock_delay,
            lock_cfg.sweep_time, min(1.0, dt / lock_cfg.filter_time))


def _supervise(law, phase, time_in_phase, qualify, filtered, pid, error, force_lost, dt):
    """Supervisor and controller step over plain values.

    `law` is `_supervisor_law(..., dt)`, `filtered` the lock detector's filtered
    error and `pid` a PID state tuple. Returns (phase, time_in_phase,
    qualify, filtered, pid, control). `lock_step` and the closed-loop
    kernel both run the supervisor through this function.
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
    phase, time_in_phase, qualify, filtered, state, control = _supervise(
        law,
        lock.phase,
        lock.time_in_phase,
        lock.qualify_time,
        0.0 if lock.error_filter is None else lock.error_filter,
        astuple(pid),
        measurement["error"],
        measurement.get("force_lost", False),
        dt,
    )
    new_lock = LockState(
        phase=phase,
        target_feature=lock.target_feature,
        lock_point_detuning=lock.lock_point_detuning,
        time_in_phase=time_in_phase,
        qualify_time=qualify,
        error_filter=filtered,
    )
    return new_lock, PidState(*state), control, phase == "sweeping"


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
    phase: list
    meta: dict

    def __len__(self):
        return len(self.t)


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


def build_error_map(table, medium, plant_cfg, ramp_cfg, lock_cfg,
                    map_step_hz=ERROR_MAP_STEP_HZ, margin_hz=ERROR_MAP_MARGIN_HZ):
    """Noise-free conditioned error vs detuning over the ramp-covered range."""
    lo = plant_cfg.base_detuning - ramp_cfg.span / 2.0 - margin_hz
    hi = plant_cfg.base_detuning + ramp_cfg.span / 2.0 + margin_hz
    n = max(64, int((hi - lo) / map_step_hz))
    trace = synthesize_sweep(table, medium, (lo, hi, n), NoiseConfig(enabled=False))

    feature = find_feature(table, lock_cfg.target_feature)
    dip_fwhm = saturation_broadened_width(feature.gamma_natural, medium.saturation_s)
    scale = dip_fwhm / 2.0
    lock_point = find_lock_point(
        trace, table, lock_cfg.target_feature, lock_cfg.mode, derivative_scale_hz=scale
    )
    curve = conditioned_error_curve(
        trace, lock_cfg.mode, scale, required_offset=lock_point.required_offset
    )
    return trace.detuning_axis, curve, lock_point, dip_fwhm


# Noise is drawn this many steps at a time: a Generator gives the same
# values in blocks as in single draws. One block of n draws per stream, as
# a list of floats, raised the peak RSS of `saslock all` by about 4 MB.
_NOISE_BLOCK = 1024


def _normal_stream(rng, sigma, n):
    """n draws of normal(0, sigma) from rng, drawn in blocks."""
    for start in range(0, n, _NOISE_BLOCK):
        yield from rng.normal(0.0, sigma, min(_NOISE_BLOCK, n - start)).tolist()


def _interp(x, xp, fp, slopes):
    """np.interp(x, xp, fp) for one float, with the same arithmetic.

    xp, fp are lists over an increasing axis and slopes[j] is
    (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]), as numpy computes it.
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
) -> TimeSeriesLog:
    """Step plant and servo on a shared clock; returns the full time series.

    The spectroscopy readout is quasi-static: at every step the conditioned
    error is interpolated from a precomputed noise-free error map at the
    plant's instantaneous detuning, plus detector noise. A mode-hop fault,
    or a detuning that is no longer finite, aborts the scenario with a
    partial log (meta["aborted"], meta["abort_reason"]). The loop is the
    flat kernel described in the module docstring.
    """
    if not duration > 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")

    map_axis, curve, lock_point, dip_fwhm = build_error_map(
        table, medium, plant_cfg, ramp_cfg, lock_cfg
    )
    lock_cfg = resolve_thresholds(lock_cfg, lock_point, dip_fwhm)
    law = _supervisor_law(pid_cfg, lock_cfg, dt)

    net_gain = plant_cfg.k_ctrl * plant_cfg.k_current  # Hz per control volt
    polarity = -math.copysign(1.0, net_gain * lock_point.slope)
    if lock_cfg.polarity == "-1":
        polarity = -polarity

    sweep_lo = plant_cfg.base_detuning - ramp_cfg.span / 2.0
    sweep_hi = plant_cfg.base_detuning + ramp_cfg.span / 2.0
    swept = (map_axis >= sweep_lo) & (map_axis <= sweep_hi)
    pre_lock_error_peak = float(np.abs(curve[swept]).max())

    n = int(round(duration / dt))
    seq = np.random.SeedSequence(seed).spawn(2)
    plant_rng = np.random.default_rng(seq[0])
    meas_rng = np.random.default_rng(seq[1])
    if noise_enabled and plant_cfg.linewidth > 0:
        plant_sigma = math.sqrt(plant_cfg.linewidth / (2.0 * math.pi * dt))
        plant_noise = _normal_stream(plant_rng, plant_sigma, n)
    else:
        plant_noise = repeat(0.0, n)
    meas_sigma = detector_noise_v * math.sqrt(2.0) if noise_enabled else 0.0
    add_meas_noise = meas_sigma > 0
    meas_noise = _normal_stream(meas_rng, meas_sigma, n) if add_meas_noise else repeat(0.0, n)

    map_x = map_axis.tolist()
    map_y = curve.tolist()
    map_slopes = (np.diff(curve) / np.diff(map_axis)).tolist()

    lock_detuning = lock_point.detuning
    escape_span = lock_cfg.escape_span_hz
    temp_step_time = disturbances.temp_step_time_s
    temp_step_k = disturbances.temp_step_k
    detuning_step_time = disturbances.detuning_step_time_s
    detuning_step_hz = disturbances.detuning_step_hz
    plant = _plant_constants(plant_cfg, dt)
    k_temp = plant_cfg.k_temp
    temp_reference = plant_cfg.temp_reference

    base = lock_detuning if start_locked else plant_cfg.base_detuning
    detuning = base
    temperature = temp_reference
    elapsed = 0.0
    disturbance = 0.0
    phase = "locked" if start_locked else "sweeping"
    time_in_phase = qualify = filtered = 0.0
    pid = _PID_START

    log_detuning = np.empty(n)
    log_error = np.empty(n)
    log_control = np.empty(n)
    log_temperature = np.empty(n)
    log_phase = []
    aborted = False
    abort_reason = ""

    for k, plant_noise_hz, meas_noise_v in zip(range(n), plant_noise, meas_noise):
        t = k * dt
        if temp_step_time is not None and t >= temp_step_time:
            disturbance = temp_step_k

        error_raw = _interp(detuning, map_x, map_y, map_slopes)
        if add_meas_noise:
            error_raw += meas_noise_v

        force_lost = (phase == "engaging" or phase == "locked") and (
            abs(detuning - lock_detuning) > escape_span
        )
        prev_phase = phase
        phase, time_in_phase, qualify, filtered, pid, control = _supervise(
            law, phase, time_in_phase, qualify, filtered, pid, polarity * error_raw,
            force_lost, dt,
        )
        if prev_phase == "sweeping" and phase == "engaging":
            # Engage: park the laser on the lock point before closing the loop.
            base = lock_detuning - net_gain * control - k_temp * (temperature - temp_reference)

        try:
            temperature, elapsed, _, detuning = _plant_update(
                plant, temperature, elapsed, base, temp_reference, disturbance, control,
                ramp_cfg if phase == "sweeping" else None, plant_noise_hz,
            )
        except ModeHopError as exc:
            aborted = True
            abort_reason = str(exc)
            if not math.isfinite(exc.detuning_hz):
                abort_reason = (
                    f"non-finite state: detuning {exc.detuning_hz!r} Hz, control {control!r} V "
                    f"at t={exc.elapsed_s:.6f} s"
                )
            break

        if detuning_step_time is not None and t < detuning_step_time <= t + dt:
            base += detuning_step_hz

        log_detuning[k] = detuning
        log_error[k] = error_raw
        log_control[k] = control
        log_temperature[k] = temperature
        log_phase.append(phase)

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
    steps = len(log_phase)
    return TimeSeriesLog(
        t=np.arange(steps) * dt,
        detuning=log_detuning[:steps],
        error=log_error[:steps],
        control=log_control[:steps],
        temperature=log_temperature[:steps],
        phase=log_phase,
        meta=meta,
    )


def write_locklog_csv(log: TimeSeriesLog, fileobj):
    write_series_csv(fileobj, LOCKLOG_FORMAT_VERSION, log.meta,
                     ("seed", "dt", "lock_point_hz", "polarity", "aborted"),
                     {"t_s": log.t, "detuning_hz": log.detuning, "error_v": log.error,
                      "control_v": log.control, "temperature_k": log.temperature,
                      "phase": log.phase})
