"""PID controller, lock-point finder, state machine, and closed loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from saslock.errors import SaslockError, UnlockableError
from saslock.plant import PlantConfig, RampConfig
from saslock.servo import (
    _PID_START,
    Disturbances,
    LockConfig,
    LockState,
    PidConfig,
    PidState,
    _interp,
    _pid_gains,
    _pid_update,
    closed_loop_run,
    find_lock_point,
    lock_step,
    pid_step,
    validate_phase_sequence,
)
from saslock.spectrum import SweepTrace

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
    per_hz = (len(xp) - 1) / (xp[-1] - xp[0])
    for x, expected in zip(xs, np.interp(xs, xp, fp).tolist()):
        assert repr(_interp(x, xp, fp, slopes, per_hz)) == repr(expected), x


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

    def test_mode_hop_aborts_with_partial_log(self, table, default_cfg):
        tiny = replace(PLANT, mode_hop_span=2.0e9)
        log = closed_loop_run(
            table, default_cfg.medium, tiny, RAMP, PidConfig(), LockConfig(),
            duration=0.1, noise_enabled=False,
        )
        assert log.meta["aborted"]
        assert "mode hop" in log.meta["abort_reason"]
        assert len(log) < int(0.1 / 1e-4)
