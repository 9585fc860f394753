"""PID controller, lock-point finder, state machine, and closed loop."""

import math
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from saslock.errors import ModeHopError, SaslockError, UnlockableError
from saslock.plant import (
    PlantConfig,
    RampConfig,
    _plant_constants,
    _plant_update,
    frequency_noise_sigma,
)
from saslock.servo import (
    _PID_START,
    LOCKLOG_FORMAT_VERSION,
    Disturbances,
    LockConfig,
    LockState,
    PidConfig,
    PidState,
    TimeSeriesLog,
    _interp,
    _normal_stream,
    _pid_gains,
    _pid_update,
    _supervise,
    _supervisor_law,
    build_error_map,
    closed_loop_run,
    find_lock_point,
    lock_step,
    pid_step,
    resolve_thresholds,
    validate_phase_sequence,
)
from saslock.spectrum import SweepTrace, error_signal
from test_golden import SCENARIOS, run_scenario

PLANT = PlantConfig(base_detuning=0.5e9)
RAMP = RampConfig(span=3.0e9)


def run_pid(cfg, errors, dt=0.1):
    st = PidState()
    outputs = []
    for e in errors:
        st, u = pid_step(cfg, st, e, dt)
        outputs.append(u)
    return st, outputs


class TestPid:
    def test_pure_proportional(self):
        cfg = PidConfig(kp=2.0, ki=0.0, kd=0.0)
        _, out = run_pid(cfg, [0.5])
        assert out[0] == 1.0

    def test_trapezoidal_integral_exact_on_constant(self):
        cfg = PidConfig(kp=0.0, ki=1.0, kd=0.0)
        _, out = run_pid(cfg, [1.0] * 10, dt=0.1)
        assert abs(out[-1] - 1.0) < 1e-12

    def test_quiescent_output_is_offset(self):
        cfg = PidConfig(kp=1.0, ki=1.0, kd=1.0, offset=0.7)
        _, out = run_pid(cfg, [0.0, 0.0, 0.0])
        assert out == [0.7, 0.7, 0.7]

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0])
    def test_linear_in_error(self, alpha):
        cfg = PidConfig(kp=1.3, ki=7.0, kd=0.02, offset=0.0, derivative_smoothing=3)
        errors = [0.01, 0.03, -0.02, 0.05, 0.0, -0.04]
        _, base = run_pid(cfg, errors)
        _, scaled = run_pid(cfg, [alpha * e for e in errors])
        for u, v in zip(base, scaled):
            assert v == pytest.approx(alpha * u, rel=1e-12, abs=1e-15)

    def test_output_always_clamped_fuzz(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            cfg = PidConfig(
                kp=rng.uniform(-50, 50),
                ki=rng.uniform(-500, 500),
                kd=rng.uniform(-5, 5),
                offset=rng.uniform(-5, 5),
                output_min=-float(rng.uniform(0.1, 10)),
                output_max=float(rng.uniform(0.1, 10)),
                derivative_smoothing=int(rng.integers(1, 6)),
            )
            st = PidState()
            for _ in range(5):
                st, u = pid_step(cfg, st, float(rng.normal(0, 10)), float(rng.uniform(1e-5, 0.5)))
                assert cfg.output_min <= u <= cfg.output_max

    def test_antiwindup_recovery_is_prompt(self):
        cfg = PidConfig(kp=1.0, ki=10.0, kd=0.0, output_min=-1.0, output_max=1.0,
                        derivative_smoothing=3)
        st = PidState()
        for _ in range(500):  # deep saturation drive
            st, u = pid_step(cfg, st, 5.0, 0.01)
        assert u == 1.0
        recovery = None
        for k in range(cfg.derivative_smoothing + 1):
            st, u = pid_step(cfg, st, -5.0, 0.01)
            if u < cfg.output_max:
                recovery = k
                break
        assert recovery is not None and recovery <= cfg.derivative_smoothing + 1

    def test_integrator_bounded_for_quiescent_output(self):
        cfg = PidConfig(kp=0.0, ki=100.0, kd=0.0, offset=0.0, output_min=-2.0, output_max=2.0)
        st = PidState()
        for _ in range(1000):
            st, _ = pid_step(cfg, st, 1.0, 0.1)
        assert cfg.output_min <= st.integrator + cfg.offset <= cfg.output_max

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            PidConfig(output_min=1.0, output_max=-1.0)
        with pytest.raises(ValueError):
            PidConfig(derivative_smoothing=0)


def reference_pid_step(cfg, st, error, dt):
    """The PID law as first written over PidState, kept as the reference."""
    window = (st.error_window + (error,))[-cfg.derivative_smoothing:]
    smoothed = sum(window) / len(window)
    prev_smoothed = smoothed if st.prev_smoothed is None else st.prev_smoothed
    derivative = (smoothed - prev_smoothed) / dt
    prev_error = error if st.prev_error is None else st.prev_error
    candidate = st.integrator + cfg.ki * 0.5 * (error + prev_error) * dt
    candidate = min(max(candidate, cfg.output_min - cfg.offset), cfg.output_max - cfg.offset)
    raw = cfg.kp * error + candidate + cfg.kd * derivative + cfg.offset
    control = min(max(raw, cfg.output_min), cfg.output_max)
    if control == raw:
        integrator = candidate
    else:
        pushes_further = (raw > cfg.output_max and candidate > st.integrator) or (
            raw < cfg.output_min and candidate < st.integrator
        )
        integrator = st.integrator if pushes_further else candidate
    return PidState(integrator, error, control, window, smoothed), control


def bounded(limit):
    return strategies.floats(-limit, limit, allow_nan=False, allow_infinity=False)


@strategies.composite
def pid_configs(draw):
    low = draw(strategies.floats(-100.0, 100.0))
    return PidConfig(
        kp=draw(bounded(1e3)),
        ki=draw(bounded(1e6)),
        kd=draw(bounded(1e3)),
        offset=draw(bounded(100.0)),
        output_min=low,
        output_max=low + draw(strategies.floats(1e-6, 100.0)),
        derivative_smoothing=draw(strategies.integers(1, 8)),
    )


class TestPidProperties:
    """Properties of the control law.

    The rails hold for errors up to 1e300 and steps down to 1e-10, where the
    derivative overflows. The reference agrees with the law where no term
    overflows; past that the reference can produce NaN.
    """

    cases = dict(
        cfg=pid_configs(),
        errors=strategies.lists(bounded(1e3), min_size=1, max_size=40),
        dt=strategies.floats(1e-7, 10.0),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        cfg=pid_configs(),
        errors=strategies.lists(bounded(1e300), min_size=1, max_size=40),
        # Often the smallest step, which overflows the derivative, and kd = 0,
        # which used to turn that overflow into NaN.
        dt=strategies.just(1e-10) | strategies.floats(1e-10, 10.0),
        no_kd=strategies.booleans(),
    )
    def test_output_inside_rails(self, cfg, errors, dt, no_kd):
        if no_kd:
            cfg = replace(cfg, kd=0.0)
        state = PidState()
        for error in errors:
            state, control = pid_step(cfg, state, error, dt)
            assert cfg.output_min <= control <= cfg.output_max

    def test_overflowing_derivative_without_kd(self):
        # kd = 0 times an infinite derivative used to make the output NaN.
        cfg = PidConfig()
        state, control = pid_step(cfg, PidState(), 1e300, 1e-10)
        assert control == cfg.output_max
        state, control = pid_step(cfg, state, -1e300, 1e-10)
        assert control == cfg.output_min
        assert state.integrator == 0.0

    @settings(max_examples=100, deadline=None)
    @given(**cases)
    def test_wrapper_kernel_and_reference_agree(self, cfg, errors, dt):
        gains = _pid_gains(cfg)
        state, kernel_state, ref_state = PidState(), _PID_START, PidState()
        for error in errors:
            state, control = pid_step(cfg, state, error, dt)
            kernel_state, kernel_control = _pid_update(gains, kernel_state, error, dt)
            ref_state, ref_control = reference_pid_step(cfg, ref_state, error, dt)
            assert repr(state) == repr(ref_state) == repr(PidState(*kernel_state))
            assert repr(control) == repr(kernel_control) == repr(ref_control)

    @settings(max_examples=300, deadline=None)
    @given(
        cfg=pid_configs(),
        kp=strategies.sampled_from([0.0, -0.0]) | bounded(1e3),
        kd=strategies.sampled_from([0.0, -0.0]),
        offset=strategies.sampled_from([0.0, -0.0]) | bounded(100.0),
        integrator=strategies.sampled_from([0.0, -0.0]) | bounded(100.0),
        errors=strategies.lists(strategies.sampled_from([0.0, -0.0]) | bounded(1e300),
                                min_size=1, max_size=40),
        dt=strategies.just(1e-10) | strategies.floats(1e-10, 10.0),
    )
    @example(cfg=PidConfig(), kp=1.0, kd=0.0, offset=-0.0, integrator=-0.0, errors=[-0.0],
             dt=1e-4)
    def test_skipping_the_window_without_kd_keeps_every_bit(self, cfg, kp, kd, offset,
                                                            integrator, errors, dt):
        # kp * error + integral is -0.0 when both terms are, as in the
        # example; kd * derivative = +0.0 turns that sum +0.0, and a -0.0
        # offset then keeps the difference.
        cfg = replace(cfg, kp=kp, kd=kd, offset=offset)
        full, skip = _pid_gains(cfg), _pid_gains(cfg, keep_window=False)
        full_state = skip_state = (integrator,) + _PID_START[1:]
        for error in errors:
            full_state, full_control = _pid_update(full, full_state, error, dt)
            skip_state, skip_control = _pid_update(skip, skip_state, error, dt)
            assert repr(skip_control) == repr(full_control)
            assert repr(skip_state[0]) == repr(full_state[0])


@strategies.composite
def interp_cases(draw):
    xp = sorted(draw(strategies.lists(bounded(1e9), min_size=2, max_size=30, unique=True)))
    fp = draw(strategies.lists(bounded(1.0), min_size=len(xp), max_size=len(xp)))
    x = draw(strategies.one_of(bounded(2e9), strategies.sampled_from(xp)))
    return x, xp, fp


@settings(max_examples=150, deadline=None)
@given(interp_cases())
def test_interp_matches_numpy_bitwise(case):
    x, xp, fp = case
    with np.errstate(over="ignore"):  # knots a few ulps apart give infinite slopes
        slopes = (np.diff(fp) / np.diff(xp)).tolist()
    assert repr(_interp(x, xp, fp, slopes)) == repr(float(np.interp(x, xp, fp)))


@strategies.composite
def uniform_axis_cases(draw):
    lo = draw(bounded(1e10))
    width = draw(strategies.floats(1e6, 1e10))
    n = draw(strategies.integers(2, 10_000))
    rng = np.random.default_rng(draw(strategies.integers(0, 2**32)))
    xp = np.linspace(lo, lo + width, n).tolist()
    fp = rng.uniform(-1.0, 1.0, n).tolist()
    # Knots and their neighbours are where rounding moves the guessed index.
    knots = [xp[0], xp[-1]] + [xp[k] for k in rng.integers(0, n, 20)]
    xs = [x for knot in knots
          for x in (math.nextafter(knot, -math.inf), knot, math.nextafter(knot, math.inf))]
    xs += [lo - width, xp[-1] + width, math.inf, -math.inf, math.nan,
           draw(strategies.floats(lo - width, lo + 2 * width))]
    return xs, xp, fp


@settings(max_examples=200, deadline=None)
@given(uniform_axis_cases())
def test_indexed_interp_matches_numpy_bitwise(case):
    xs, xp, fp = case
    slopes = (np.diff(fp) / np.diff(xp)).tolist()
    for x, expected in zip(xs, np.interp(xs, xp, fp).tolist()):
        assert repr(_interp(x, xp, fp, slopes)) == repr(expected), x


def dip_trace(center=0.0, amplitude=0.2, width=10e6, span=60e6, n=601):
    nu = np.linspace(center - span, center + span, n)
    diff = amplitude / (1.0 + 4.0 * ((nu - center) / width) ** 2)
    ref = np.full_like(nu, 0.8)
    return SweepTrace(nu, ref, ref + diff, diff, {})


class TestFindLockPoint:
    def test_derivative_mode_centers_on_dip(self, table):
        trace = dip_trace(center=find_feature_detuning(table))
        lp = find_lock_point(trace, table, "Rb87:F2->co(2,3)", "derivative",
                             derivative_scale_hz=5e6)
        step = trace.step_hz()
        assert abs(lp.detuning - find_feature_detuning(table)) <= step
        assert lp.required_offset == 0.0
        assert lp.slope != 0.0

    def test_differential_mode_half_height_offset(self, table):
        amplitude = 0.2
        trace = dip_trace(center=find_feature_detuning(table), amplitude=amplitude)
        lp = find_lock_point(trace, table, "Rb87:F2->co(2,3)", "differential")
        assert lp.required_offset == pytest.approx(-amplitude / 2, rel=0.02)
        # lock point on the low-frequency flank, half a width-ish off center
        assert lp.detuning < find_feature_detuning(table)

    @pytest.mark.parametrize("mode", ["derivative", "differential"])
    def test_lock_point_carries_its_error_curve(self, table, mode):
        trace = dip_trace(center=find_feature_detuning(table))
        lp = find_lock_point(trace, table, "Rb87:F2->co(2,3)", mode, derivative_scale_hz=5e6)
        expected = (error_signal(trace, "derivative") * 5e6 if mode == "derivative"
                    else trace.differential + lp.required_offset)
        assert lp.curve.tobytes() == expected.tobytes()
        # The curve is left out of repr and ==.
        assert "curve" not in repr(lp)
        assert lp == replace(lp, curve=None)

    def test_flat_trace_unlockable(self, table):
        center = find_feature_detuning(table)
        nu = np.linspace(center - 50e6, center + 50e6, 301)
        flat = SweepTrace(nu, np.full(301, 0.8), np.full(301, 0.8), np.zeros(301), {})
        with pytest.raises(UnlockableError):
            find_lock_point(flat, table, "Rb87:F2->co(2,3)", "derivative")

    def test_feature_outside_trace(self, table):
        trace = dip_trace(center=0.0)
        with pytest.raises(UnlockableError):
            find_lock_point(trace, table, "Rb87:F1->co(1,2)", "derivative")


def find_feature_detuning(table):
    from saslock.atomic_data import find_feature
    return find_feature(table, "Rb87:F2->co(2,3)").detuning


RESOLVED_LOCK = replace(
    LockConfig(),
    lock_threshold_v=0.005,
    loss_threshold_v=0.1,
    escape_span_hz=20e6,
)


class TestLockStep:
    def drive(self, lock, pid, steps, error=0.0, dt=1e-3, force_lost=False):
        phases = []
        cfg = PidConfig()
        for _ in range(steps):
            lock, pid, control, ramp = lock_step(
                lock, pid, cfg, RESOLVED_LOCK, {"error": error, "force_lost": force_lost}, dt
            )
            phases.append(lock.phase)
        return lock, pid, phases

    def test_sweeping_engages_after_sweep_time(self):
        lock, pid, phases = self.drive(LockState(), PidState(), 10, dt=1e-3)
        assert phases[2] == "sweeping"   # 3 ms in, still sweeping
        assert phases[3] == "engaging"   # 4 ms reached
        assert phases[-1] == "engaging"

    def test_engaging_locks_after_hold(self):
        lock = LockState(phase="engaging")
        lock, _, phases = self.drive(lock, PidState(), 30, error=0.0, dt=1e-3)
        assert phases[-1] == "locked"
        assert phases[18] == "engaging"  # hold time not yet elapsed

    def test_locked_stays_locked_with_zero_error(self):
        lock = LockState(phase="locked")
        pid = PidState()
        controls = set()
        cfg = PidConfig()
        for _ in range(200):
            lock, pid, control, _ = lock_step(
                lock, pid, cfg, RESOLVED_LOCK, {"error": 0.0}, 1e-3
            )
            controls.add(round(control, 15))
        assert lock.phase == "locked"
        assert controls == {0.0}

    def test_loss_then_relock_cycle(self):
        lock = LockState(phase="locked")
        pid = PidState()
        seen = []
        cfg = PidConfig()
        for k in range(250):
            error = 10 * RESOLVED_LOCK.loss_threshold_v if k < 50 else 0.0
            lock, pid, _, _ = lock_step(lock, pid, cfg, RESOLVED_LOCK, {"error": error}, 1e-3)
            seen.append(lock.phase)
        assert "lost" in seen
        assert "sweeping" in seen  # relock restarts the sweep
        validate_phase_sequence(seen)

    def test_force_lost_immediate(self):
        lock = LockState(phase="locked")
        lock, _, phases = self.drive(lock, PidState(), 1, force_lost=True)
        assert phases == ["lost"]

    def test_dt_checked_only_where_the_pid_runs(self):
        # Sweeping and lost hold the PID, so a zero step passes there as it
        # always has; engaging and locked run pid_step's dt check.
        cfg = PidConfig()
        for phase in ("sweeping", "lost"):
            lock, _, control, _ = lock_step(
                LockState(phase=phase), PidState(), cfg, RESOLVED_LOCK, {"error": 0.0}, 0.0
            )
            assert lock.phase == phase and control == 0.0
        for phase in ("engaging", "locked"):
            with pytest.raises(ValueError, match="dt"):
                lock_step(LockState(phase=phase), PidState(), cfg, RESOLVED_LOCK,
                          {"error": 0.0}, 0.0)

    def test_unresolved_thresholds_rejected(self):
        with pytest.raises(SaslockError):
            lock_step(LockState(), PidState(), PidConfig(), LockConfig(), {"error": 0.0}, 1e-3)

    def test_illegal_sequence_detected(self):
        with pytest.raises(SaslockError, match="illegal"):
            validate_phase_sequence(["locked", "sweeping"])


class TestClosedLoop:
    def test_equilibrium_at_lock_point(self, table, default_cfg):
        log = closed_loop_run(
            table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(),
            duration=0.05, noise_enabled=False, start_locked=True,
        )
        assert set(log.phase) == {"locked"}
        assert np.abs(log.error).max() < 1e-9
        assert log.control.max() - log.control.min() < 1e-9

    def test_lock_acquisition_from_sweep(self, table, default_cfg):
        log = closed_loop_run(
            table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(),
            duration=0.1, seed=11,
        )
        validate_phase_sequence(log.phase)
        assert log.phase[0] == "sweeping"
        assert log.phase[-1] == "locked"
        locked = np.asarray([p == "locked" for p in log.phase])
        residual = log.detuning[locked] - log.meta["lock_point_hz"]
        assert np.abs(residual).max() < 1.0e6

    def test_small_offsets_decay_monotonically(self, table, default_cfg):
        dip_fwhm = 10.5e6
        log = closed_loop_run(
            table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(),
            duration=0.25, noise_enabled=False, start_locked=True,
            disturbances=Disturbances(
                detuning_step_hz=dip_fwhm / 4, detuning_step_time_s=0.05
            ),
        )
        after = log.t >= 0.05
        offsets = np.abs(log.detuning[after] - log.meta["lock_point_hz"])
        # envelope over 1 ms windows decays monotonically down to a 1 kHz floor
        win = 10
        envelope = [offsets[i:i + win].max() for i in range(0, len(offsets) - win, win)]
        prev = envelope[0]
        for value in envelope[1:]:
            if prev < 1e3:
                break
            assert value <= prev * 1.02
            prev = value
        assert offsets[-1] < 0.05e6

    def test_wrong_polarity_diverges(self, table, default_cfg):
        common = dict(
            duration=0.2,
            noise_enabled=False,
            start_locked=True,
            disturbances=Disturbances(detuning_step_hz=0.2e6, detuning_step_time_s=0.01),
        )
        good = closed_loop_run(
            table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(), **common
        )
        bad = closed_loop_run(
            table, default_cfg.medium, PLANT, RAMP, PidConfig(),
            LockConfig(polarity="-1", escape_span_hz=5e9), **common
        )
        step_idx = int(np.searchsorted(good.t, 0.0101))
        e0_bad = abs(bad.error[step_idx])
        grown = np.abs(bad.error[step_idx:step_idx + 100])
        assert grown.max() > 2 * e0_bad
        # and the laser leaves the lock point instead of returning
        final_bad = abs(bad.detuning[-1] - bad.meta["lock_point_hz"])
        final_good = abs(good.detuning[-1] - good.meta["lock_point_hz"])
        assert final_bad > 10 * max(final_good, 1.0)

    def test_capture_range_by_bisection(self, table, default_cfg):
        def lost_for(step_hz):
            log = closed_loop_run(
                table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(),
                duration=0.6, seed=3, noise_enabled=False,
                disturbances=Disturbances(detuning_step_hz=step_hz, detuning_step_time_s=0.2),
            )
            validate_phase_sequence(log.phase)
            return "lost" in log.phase

        dip_fwhm = 10.5e6
        lo, hi = -15e6, -40e6  # recovers at lo, loses at hi
        assert not lost_for(lo)
        assert lost_for(hi)
        for _ in range(5):
            mid = (lo + hi) / 2
            if lost_for(mid):
                hi = mid
            else:
                lo = mid
        threshold = abs(hi)
        assert dip_fwhm < threshold < 4 * dip_fwhm

    def test_differential_mode_locks_on_fringe_side(self, table, default_cfg):
        log = closed_loop_run(
            table, default_cfg.medium, PLANT, RAMP, PidConfig(),
            LockConfig(mode="differential"), duration=0.3, seed=11,
        )
        validate_phase_sequence(log.phase)
        assert log.phase[-1] == "locked"
        # side-of-fringe: lock point sits below the dip center by about the
        # broadened half width
        center = find_feature_detuning(table)
        offset = log.meta["lock_point_hz"] - center
        assert -9e6 < offset < -2e6

    def test_relock_after_loss(self, table, default_cfg):
        log = closed_loop_run(
            table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(),
            duration=0.9, seed=3, noise_enabled=False,
            disturbances=Disturbances(detuning_step_hz=-60e6, detuning_step_time_s=0.2),
        )
        validate_phase_sequence(log.phase)
        assert "lost" in log.phase
        assert log.phase[-1] == "locked"  # supervisor re-acquired

    def test_non_finite_state_aborts(self, table, default_cfg):
        log = closed_loop_run(
            table, default_cfg.medium, PLANT, RAMP, PidConfig(kp=float("nan")), LockConfig(),
            duration=0.1,
        )
        assert log.meta["aborted"]
        assert "non-finite" in log.meta["abort_reason"]
        # The step that engages still holds the quiescent output; the first
        # closed-loop step after it makes the detuning NaN and aborts.
        assert set(log.phase[:-1]) == {"sweeping"} and log.phase[-1] == "engaging"
        assert np.isfinite(log.detuning).all() and np.isfinite(log.control).all()

    def test_rejects_non_positive_dt(self, table, default_cfg):
        for dt in (0.0, -1e-4):
            with pytest.raises(ValueError, match="dt"):
                closed_loop_run(
                    table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(),
                    duration=0.1, dt=dt,
                )

    @pytest.mark.parametrize("duration", [0, -1.0, float("nan")])
    def test_rejects_non_positive_duration(self, table, default_cfg, duration):
        with pytest.raises(ValueError, match="duration"):
            closed_loop_run(
                table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(),
                duration=duration,
            )

    def test_mode_hop_aborts_with_partial_log(self, table, default_cfg):
        tiny = replace(PLANT, mode_hop_span=2.0e9)
        log = closed_loop_run(
            table, default_cfg.medium, tiny, RAMP, PidConfig(), LockConfig(),
            duration=0.1, noise_enabled=False,
        )
        assert log.meta["aborted"]
        assert "mode hop" in log.meta["abort_reason"]
        assert len(log) < int(0.1 / 1e-4)


def reference_closed_loop(table, medium, plant_cfg, ramp_cfg, pid_cfg, lock_cfg, *, duration,
                          dt, seed, noise_enabled, disturbances, start_locked,
                          detector_noise_v=0.002):
    """closed_loop_run as one call of _interp, _supervise and _plant_update per step.

    This is the loop the flat kernel replaced, kept to test the kernel against.
    """
    map_axis, curve, lock_point, dip_fwhm, pre_lock_error_peak = build_error_map(
        table, medium, plant_cfg, ramp_cfg, lock_cfg
    )
    lock_cfg = resolve_thresholds(lock_cfg, lock_point, dip_fwhm)
    law = _supervisor_law(pid_cfg, lock_cfg, dt, keep_window=False)

    net_gain = plant_cfg.k_ctrl * plant_cfg.k_current
    polarity = -math.copysign(1.0, net_gain * lock_point.slope)
    if lock_cfg.polarity == "-1":
        polarity = -polarity

    n = int(round(duration / dt))
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

    detunings, errors, controls, temperatures = [], [], [], []
    transitions = {0: phase}
    steps = n
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
        if phase is not prev_phase:
            transitions[k] = phase
            if phase == "engaging":
                base = lock_detuning - net_gain * control - k_temp * (temperature - temp_reference)

        try:
            temperature, elapsed, _, detuning = _plant_update(
                plant, temperature, elapsed, base, temp_reference, disturbance, control,
                ramp_cfg if phase == "sweeping" else None, plant_noise_hz,
            )
        except ModeHopError as exc:
            steps = k
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

        detunings.append(detuning)
        errors.append(error_raw)
        controls.append(control)
        temperatures.append(temperature)

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
        detuning=np.array(detunings, dtype=float),
        error=np.array(errors, dtype=float),
        control=np.array(controls, dtype=float),
        temperature=np.array(temperatures, dtype=float),
        transitions=[(k, phase) for k, phase in transitions.items() if k < steps],
        meta=meta,
    )


def step_times(dt):
    """Times inside a 0.3 s run, often a step's own time k * dt or its end
    k * dt + dt, which can round past the next step's time."""
    steps = strategies.integers(0, int(0.3 / dt))
    return (strategies.floats(1e-4, 0.3) | steps.map(lambda k: k * dt + dt)
            | steps.filter(bool).map(lambda k: k * dt))


@strategies.composite
def closed_loop_cases(draw):
    dt = draw(strategies.sampled_from([1e-4, 2.5e-4]))
    # kd != 0, or a -0.0 offset, keeps the derivative window; an infinite
    # kd makes a still derivative NaN, which drops the term. Narrow rails
    # saturate the output.
    rail = draw(strategies.sampled_from([10.0, 10.0, 0.2]))
    pid = PidConfig(
        kp=draw(strategies.sampled_from([0.006, 0.006, 0.006, 0.02, math.nan])),
        # A slow integrator leaves a 5 MHz step near the error's peak, past
        # the loss threshold.
        ki=draw(strategies.sampled_from([40.0, 40.0, 0.4])),
        kd=draw(strategies.sampled_from([0.0, 0.0, 1e-7, 1e-5, math.inf])),
        offset=draw(strategies.sampled_from([0.0, -0.0])),
        output_min=-rail,
        output_max=rail,
        derivative_smoothing=draw(strategies.integers(1, 8)),
    )
    # A wide escape span leaves the loss to the error threshold.
    lock = LockConfig(
        polarity=draw(strategies.sampled_from(["auto", "+1", "-1"])),
        hold_time=draw(strategies.sampled_from([0.02, 0.005])),
        loss_time=draw(strategies.sampled_from([0.01, 0.002])),
        relock_delay=draw(strategies.sampled_from([0.1, 0.01])),
        escape_span_hz=draw(strategies.sampled_from([None, None, 5e9])),
    )
    # A small envelope aborts the run: 2 GHz while sweeping, 100 kHz on noise.
    spans = [30e9, 30e9, 30e9, 2e9, 1e5]
    plant = replace(PLANT, mode_hop_span=draw(strategies.sampled_from(spans)))
    ramp = replace(RAMP, shape=draw(strategies.sampled_from(["triangle", "sawtooth"])))
    disturbances = Disturbances(
        temp_step_k=draw(strategies.sampled_from([0.1, -1.0])),
        temp_step_time_s=draw(strategies.none() | step_times(dt)),
        detuning_step_hz=draw(strategies.sampled_from([0.2e6, 5e6, -20e6, -60e6])),
        detuning_step_time_s=draw(strategies.none() | step_times(dt)),
    )
    run = dict(
        duration=draw(strategies.floats(0.01, 0.3)),
        dt=dt,
        seed=draw(strategies.integers(0, 2**32 - 1)),
        noise_enabled=draw(strategies.booleans()),
        disturbances=disturbances,
        start_locked=draw(strategies.booleans()),
    )
    return plant, ramp, pid, lock, run


TIE_DT = 2**-13
TIE_LOCK = LockConfig(hold_time=160 * TIE_DT, loss_time=80 * TIE_DT, relock_delay=400 * TIE_DT,
                      sweep_time=32 * TIE_DT)
TIE_DISTURBANCES = Disturbances(temp_step_k=0.1, temp_step_time_s=1024 * TIE_DT,
                                detuning_step_hz=5e6, detuning_step_time_s=512 * TIE_DT)


@settings(max_examples=100, deadline=None)
@given(closed_loop_cases())
# 6 * dt + dt and 7 * dt round to either side of this time, so steps 6 and 7
# both take the detuning step.
@example((PLANT, RAMP, PidConfig(), LockConfig(), dict(
    duration=0.01, dt=1e-4, seed=0, noise_enabled=False, start_locked=True,
    disturbances=Disturbances(detuning_step_hz=5e6, detuning_step_time_s=0.0007000000000000001),
)))
# A 0.1 K step needs more than the 0.2 V rails: the output saturates, with
# the integrator held, until the laser escapes and relocks.
@example((PLANT, RAMP, PidConfig(output_min=-0.2, output_max=0.2), LockConfig(), dict(
    duration=0.3, dt=1e-4, seed=0, noise_enabled=False, start_locked=True,
    disturbances=Disturbances(temp_step_k=0.1, temp_step_time_s=0.01),
)))
# A slow integrator holds the filtered error past the loss threshold after
# a step onto the error's peak: lost by threshold, then a relock.
@example((PLANT, RAMP, PidConfig(ki=0.4), LockConfig(relock_delay=0.01), dict(
    duration=0.2, dt=1e-4, seed=1, noise_enabled=True, start_locked=True,
    disturbances=Disturbances(detuning_step_hz=5e6, detuning_step_time_s=0.05),
)))
# With dt = 2**-13 the phase clocks sum exactly, so every phase time and
# disturbance time below, a multiple of dt, ties the kernel's >= tests:
# sweeping, engaging, a threshold loss after the detuning step, the relock
# delay and the temperature step all end on a tie.
@example((PLANT, RAMP, PidConfig(ki=0.4), TIE_LOCK, dict(
    duration=2048 * TIE_DT, dt=TIE_DT, seed=1, noise_enabled=True, start_locked=False,
    disturbances=TIE_DISTURBANCES,
)))
@example((PLANT, RAMP, PidConfig(ki=0.4), TIE_LOCK, dict(
    duration=2048 * TIE_DT, dt=TIE_DT, seed=1, noise_enabled=False, start_locked=True,
    disturbances=TIE_DISTURBANCES,
)))
def test_kernel_matches_the_reference_loop(table, default_cfg, case):
    plant, ramp, pid, lock, run = case
    log = closed_loop_run(table, default_cfg.medium, plant, ramp, pid, lock, **run)
    ref = reference_closed_loop(table, default_cfg.medium, plant, ramp, pid, lock, **run)
    for name in ("t", "detuning", "error", "control", "temperature"):
        assert getattr(log, name).tobytes() == getattr(ref, name).tobytes(), name
    assert log.transitions == ref.transitions
    assert repr(log.meta) == repr(ref.meta)


def test_detuning_step_time_must_be_positive(table, default_cfg):
    for time_s in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="detuning_step_time_s"):
            closed_loop_run(
                table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(),
                duration=0.1, disturbances=Disturbances(detuning_step_hz=1e6,
                                                        detuning_step_time_s=time_s),
            )


def test_temp_step_time_must_be_finite(table, default_cfg):
    def temperature(time_s):
        return closed_loop_run(
            table, default_cfg.medium, PLANT, RAMP, PidConfig(), LockConfig(),
            duration=0.01, start_locked=True,
            disturbances=Disturbances(temp_step_k=1.0, temp_step_time_s=time_s),
        ).temperature

    for time_s in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="temp_step_time_s"):
            temperature(time_s)
    # A time <= 0 applies the step from the first step.
    assert temperature(-1.0).tobytes() == temperature(0.0).tobytes()
    assert temperature(0.0)[0] > temperature(None)[0]

    # The step's first step is found before the loop by the loop's own test,
    # k * dt >= time, and no finite time overflows that search.
    def temperature_bytes(time_s):
        return temperature(time_s).tobytes()

    never, first = temperature_bytes(None), temperature_bytes(0.0)
    assert temperature_bytes(1e300) == temperature_bytes(1.0) == never
    assert temperature_bytes(-1e300) == temperature_bytes(-0.0) == first
    # The least positive time is first reached by step 1, at t = dt.
    assert temperature_bytes(5e-324) == temperature_bytes(1e-4) != first


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_prebuilt_error_map_gives_the_same_run(name, default_cfg, table):
    # The harness hands each run its config's map; a run that builds its
    # own must log the same bytes.
    spec = SCENARIOS[name]
    plant, ramp, lock = (replace(getattr(default_cfg, section), **spec.get(section, {}))
                         for section in ("plant", "ramp", "lock"))
    error_map = build_error_map(table, default_cfg.medium, plant, ramp, lock)
    own = run_scenario(default_cfg, table, spec)
    given_map = run_scenario(default_cfg, table, {**spec, "error_map": error_map})
    for column in ("t", "detuning", "error", "control", "temperature"):
        assert getattr(given_map, column).tobytes() == getattr(own, column).tobytes(), column
    assert given_map.transitions == own.transitions
    assert repr(given_map.meta) == repr(own.meta)
