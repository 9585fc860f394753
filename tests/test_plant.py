"""DBR plant model: ramp, tuning coefficients, drift, noise, mode hops."""

import math

import numpy as np
import pytest
from scipy.signal import welch

from saslock.errors import ModeHopError
from saslock.plant import (
    PlantConfig,
    RampConfig,
    frequency_noise_sample,
    initial_state,
    ramp_waveform,
    step_plant,
)

QUIET = PlantConfig(linewidth=0.0)
NO_RAMP = RampConfig(enabled=False)


def run_steps(cfg, ramp, inputs, n, dt, rng=None, state=None):
    state = initial_state(cfg) if state is None else state
    out = [state]
    for _ in range(n):
        state = step_plant(state, cfg, ramp, inputs, dt, rng)
        out.append(state)
    return out


class TestRamp:
    triangle = RampConfig(frequency=500.0, span=3.0e9, shape="triangle")

    def test_starts_at_minimum(self):
        assert ramp_waveform(0.0, self.triangle) == -1.5e9

    def test_peak_at_half_period(self):
        assert ramp_waveform(1.0e-3, self.triangle) == pytest.approx(1.5e9)

    def test_disabled_is_zero(self):
        off = RampConfig(enabled=False)
        for t in (0.0, 1e-3, 0.123):
            assert ramp_waveform(t, off) == 0.0

    def test_periodicity(self):
        for t in (0.0, 0.4e-3, 1.7e-3):
            assert ramp_waveform(t, self.triangle) == pytest.approx(
                ramp_waveform(t + 2.0e-3, self.triangle), abs=1.0
            )

    def test_sawtooth_rises_then_resets(self):
        saw = RampConfig(frequency=500.0, span=1.0e9, shape="sawtooth")
        values = [ramp_waveform(t, saw) for t in np.linspace(0, 2e-3, 41)[:-1]]
        assert values[0] == -0.5e9
        assert all(b > a for a, b in zip(values, values[1:]))  # monotone rise
        assert max(values) < 0.5e9
        assert ramp_waveform(2.0e-3, saw) == pytest.approx(-0.5e9, abs=1.0)  # reset

    def test_triangle_zero_mean_over_period(self):
        n = 200
        ts = np.arange(n) / (n * self.triangle.frequency)
        mean = np.mean([ramp_waveform(t, self.triangle) for t in ts])
        assert abs(mean) < 1e-9 * self.triangle.span


class TestPlantResponse:
    def test_static_plant_constant_detuning(self):
        inputs = {"control_voltage": 0.3, "temp_setpoint": QUIET.temp_reference}
        states = run_steps(QUIET, NO_RAMP, inputs, 50, 1e-4)
        detunings = {s.detuning for s in states[1:]}
        assert len(detunings) == 1

    def test_control_volt_moves_detuning_minus_1ghz(self):
        base = run_steps(QUIET, NO_RAMP, {"control_voltage": 0.0}, 1, 1e-4)[-1]
        up = run_steps(QUIET, NO_RAMP, {"control_voltage": 1.0}, 1, 1e-4)[-1]
        assert up.detuning - base.detuning == pytest.approx(-1.0e9, rel=1e-12)

    def test_temperature_step_moves_detuning_2p8ghz(self):
        # +0.1 K settled through the thermal relaxation shifts by k_temp * 0.1.
        cfg = PlantConfig(linewidth=0.0, tau_thermal=0.01)
        inputs = {"control_voltage": 0.0, "disturbance": 0.1}
        settled = run_steps(cfg, NO_RAMP, inputs, 20000, 1e-3)[-1]
        base = initial_state(cfg)
        drift_offset = cfg.k_temp * cfg.drift_rate * settled.elapsed
        shift = settled.detuning - base.detuning - drift_offset
        assert shift == pytest.approx(2.8e9, rel=1e-4)

    def test_affine_coefficients_by_finite_difference(self):
        dv = 0.25
        base = run_steps(QUIET, NO_RAMP, {"control_voltage": 0.0}, 1, 1e-4)[-1]
        up = run_steps(QUIET, NO_RAMP, {"control_voltage": dv}, 1, 1e-4)[-1]
        gain = (up.detuning - base.detuning) / dv
        assert gain == pytest.approx(QUIET.k_ctrl * QUIET.k_current, rel=1e-12)

        cfg = PlantConfig(linewidth=0.0, tau_thermal=0.005)
        dT = 0.02
        settled = run_steps(cfg, NO_RAMP, {"disturbance": dT}, 20000, 1e-3)[-1]
        ref = run_steps(cfg, NO_RAMP, {"disturbance": 0.0}, 20000, 1e-3)[-1]
        slope = (settled.detuning - ref.detuning) / dT
        assert slope == pytest.approx(cfg.k_temp, rel=1e-6)

    def test_ramp_on_mean_equals_ramp_off(self):
        ramp = RampConfig(frequency=500.0, span=1.0e9, shape="triangle")
        dt = 1.0 / (500.0 * 200)  # 200 samples per period
        on = run_steps(QUIET, ramp, {"control_voltage": 0.0}, 200, dt)
        mean_on = np.mean([s.detuning for s in on[1:]])
        off = run_steps(QUIET, NO_RAMP, {"control_voltage": 0.0}, 1, dt)[-1]
        assert mean_on == pytest.approx(off.detuning, abs=1e-9 * ramp.span + 1e-9)

    def test_equal_seeds_equal_trajectories(self):
        cfg = PlantConfig()
        t1 = run_steps(cfg, NO_RAMP, {}, 500, 1e-4, np.random.default_rng(99))
        t2 = run_steps(cfg, NO_RAMP, {}, 500, 1e-4, np.random.default_rng(99))
        assert [s.detuning for s in t1] == [s.detuning for s in t2]

    def test_thermal_drift_linear_accumulation(self):
        cfg = PlantConfig(linewidth=0.0)
        inputs = {"control_voltage": 0.0}
        # settle the relaxation lag before measuring
        state = run_steps(cfg, NO_RAMP, inputs, 200, 1.0)[-1]
        t0 = state.temperature
        state = run_steps(cfg, NO_RAMP, inputs, 3600, 1.0, state=state)[-1]
        accumulated = state.temperature - t0
        assert abs(accumulated - 0.1e-3) < 1e-12

    def test_mode_hop_fault(self):
        cfg = PlantConfig(linewidth=0.0, mode_hop_span=1.0e9)
        with pytest.raises(ModeHopError) as err:
            run_steps(cfg, NO_RAMP, {"control_voltage": 5.0}, 1, 1e-4)
        assert err.value.span_hz == 1.0e9
        assert abs(err.value.detuning_hz) > 0.5e9

    def test_non_finite_detuning_is_a_fault(self):
        # abs(nan) > span is False, so the envelope test must reject NaN itself.
        with pytest.raises(ModeHopError) as err:
            run_steps(QUIET, NO_RAMP, {"control_voltage": float("nan")}, 1, 1e-4)
        assert math.isnan(err.value.detuning_hz)


class TestFrequencyNoise:
    def test_zero_linewidth_is_silent(self):
        rng = np.random.default_rng(1)
        assert frequency_noise_sample(0.0, 1e-4, rng) == 0.0

    def test_zero_mean(self):
        rng = np.random.default_rng(7)
        n = 1_000_000
        sigma = math.sqrt(0.5e6 / (2 * math.pi * 1e-4))
        samples = rng.normal(0.0, sigma, n)
        assert abs(samples.mean()) < 5 * sigma / math.sqrt(n)

    def test_variance_scaling_documented(self):
        rng = np.random.default_rng(11)
        dt, lw = 1e-5, 0.5e6
        draws = np.asarray([frequency_noise_sample(lw, dt, rng) for _ in range(20000)])
        expected_var = lw / (2 * math.pi * dt)
        assert draws.var() == pytest.approx(expected_var, rel=0.05)

    def test_integrated_line_fwhm_matches_linewidth(self):
        # Periodogram of exp(i phi) with phi the integrated frequency noise.
        rng = np.random.default_rng(123)
        dt, lw = 1e-7, 0.5e6
        n = 1 << 19
        sigma = math.sqrt(lw / (2 * math.pi * dt))
        nu = rng.normal(0.0, sigma, n)
        phase = 2 * math.pi * np.cumsum(nu) * dt
        f, psd = welch(np.exp(1j * phase), fs=1 / dt, nperseg=1 << 13, return_onesided=False)
        f, psd = np.fft.fftshift(f), np.fft.fftshift(psd)
        smooth = np.convolve(psd, np.ones(9) / 9, mode="same")
        above = smooth >= smooth.max() / 2
        fwhm = f[above].max() - f[above].min()
        assert abs(fwhm - lw) / lw < 0.20

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            frequency_noise_sample(0.5e6, 0.0, np.random.default_rng(0))
