"""Sweep synthesis, marker extraction, depth metrics, fitting, error signals."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from saslock.atomic_data import Isotope, LineTable, TransitionLine, find_feature
from saslock.errors import (
    FitConvergenceError,
    NoSubDopplerFeaturesError,
    SweepError,
)
from saslock.harness import manifold_window
from saslock.spectrum import (
    TRACE_FORMAT_VERSION,
    DepthMarkers,
    MarkerSelection,
    MediumConfig,
    NoiseConfig,
    SweepTrace,
    depth_metrics,
    error_signal,
    extract_markers,
    fit_lineshape,
    moving_median,
    read_trace_csv,
    subdoppler_extrema,
    synthesize_sweep,
    trace_to_csv,
)

SWEEP = (-1.4e9, 2.4e9, 4096)


def single_line_table():
    iso = Isotope("Rb87", 1.0, 1.443160648e-25)
    line = TransitionLine("Rb87", 2, "F'=3", 0.0, 1.0, 6.0666e6)
    return LineTable(carrier_hz=3.8423e14, isotopes=(iso,), lines=(line,))


class TestSynthesis:
    def test_zero_saturation_probe_equals_reference(self, table):
        medium = MediumConfig(saturation_s=0.0)
        trace = synthesize_sweep(table, medium, SWEEP)
        assert np.array_equal(trace.probe, trace.reference)
        assert np.all(trace.differential == 0.0)

    def test_single_line_single_feature(self):
        table = single_line_table()
        medium = MediumConfig()
        trace = synthesize_sweep(table, medium, (-0.8e9, 0.8e9, 2048))
        peaks = subdoppler_extrema(trace, (-0.4e9, 0.4e9))
        assert len(peaks) == 1
        step = trace.step_hz()
        assert abs(trace.detuning_axis[peaks[0]] - 0.0) <= step

    def test_isotope_valley_order(self, table, clean_trace):
        # Rb87 F=2 valley sits at lower detuning than the Rb85 F=3 valley.
        axis = clean_trace.detuning_axis
        ref = clean_trace.reference
        win87 = (axis > -0.6e9) & (axis < 0.45e9)
        win85 = (axis > 0.45e9) & (axis < 1.7e9)
        nu87 = axis[win87][np.argmin(ref[win87])]
        nu85 = axis[win85][np.argmin(ref[win85])]
        assert nu87 < nu85

    def test_probe_never_below_reference(self, clean_trace):
        assert np.all(clean_trace.probe >= clean_trace.reference)
        assert np.all(clean_trace.differential >= 0.0)

    def test_deeper_medium_absorbs_more(self, table, default_cfg):
        base = synthesize_sweep(table, default_cfg.medium, SWEEP)
        deeper = synthesize_sweep(
            table,
            replace(default_cfg.medium, peak_optical_depth=2 * default_cfg.medium.peak_optical_depth),
            SWEEP,
        )
        assert np.all(deeper.reference <= base.reference + 1e-15)

    def test_noise_off_bit_for_bit(self, table, default_cfg):
        a = synthesize_sweep(table, default_cfg.medium, SWEEP)
        b = synthesize_sweep(table, default_cfg.medium, SWEEP)
        assert np.array_equal(a.probe, b.probe)
        assert np.array_equal(a.reference, b.reference)

    def test_noise_deterministic_per_seed(self, table, default_cfg):
        n1 = synthesize_sweep(table, default_cfg.medium, SWEEP, NoiseConfig(True, seed=5))
        n2 = synthesize_sweep(table, default_cfg.medium, SWEEP, NoiseConfig(True, seed=5))
        n3 = synthesize_sweep(table, default_cfg.medium, SWEEP, NoiseConfig(True, seed=6))
        assert np.array_equal(n1.probe, n2.probe)
        assert not np.array_equal(n1.probe, n3.probe)

    def test_detectors_nonnegative_with_noise(self, table, default_cfg):
        noisy = synthesize_sweep(
            table, default_cfg.medium, SWEEP, NoiseConfig(True, seed=1, sigma_v=0.5)
        )
        assert np.all(noisy.reference >= 0.0)
        assert np.all(noisy.probe >= 0.0)

    def test_bad_sweeps_rejected(self, table, default_cfg):
        with pytest.raises(SweepError):
            synthesize_sweep(table, default_cfg.medium, (1e9, -1e9, 1024))
        with pytest.raises(SweepError):
            synthesize_sweep(table, default_cfg.medium, (-1e9, 1e9, 8))
        empty = LineTable(carrier_hz=3.8e14, isotopes=(), lines=())
        with pytest.raises(SweepError):
            synthesize_sweep(empty, default_cfg.medium, SWEEP)


class TestMarkers:
    def synthetic_trace(self, table, medium):
        """Flat 1 V baseline, a smooth valley to 0.6, C spike to 0.55, D to 0.75."""
        nu = np.linspace(SWEEP[0], SWEEP[1], SWEEP[2])
        valley_center, valley_fwhm = -90.0e6, 600.0e6
        valley = 1.0 - 0.4 * np.exp(-4 * np.log(2) * ((nu - valley_center) / valley_fwhm) ** 2)
        # Spikes must be well inside the dip-suppression window (so B stays
        # clean) yet wide enough that light smoothing keeps their levels.
        c_line = find_feature(table, "Rb85:F3->F'=2")
        d_line = find_feature(table, "Rb87:F2->co(2,3)")
        spike_w = 15.0e6
        c_base = 1.0  # C's spike sits on flat baseline inside the Rb85 window

        def lor(x, x0):
            return 1.0 / (1.0 + 4.0 * ((x - x0) / spike_w) ** 2)

        d_base = 1.0 - 0.4 * np.exp(
            -4 * np.log(2) * ((d_line.detuning - valley_center) / valley_fwhm) ** 2
        )
        probe = (
            valley
            + (0.55 - c_base) * lor(nu, c_line.detuning)
            + (0.75 - d_base) * lor(nu, d_line.detuning)
        )
        return SweepTrace(nu, valley, probe, probe - valley, {})

    def test_constructed_markers_recovered(self, table, default_cfg):
        medium = default_cfg.medium
        trace = self.synthetic_trace(table, medium)
        markers = extract_markers(
            trace, manifold_window(table, default_cfg), MarkerSelection(), table, medium
        )
        assert markers.A == pytest.approx(1.0, rel=0.01)
        assert markers.B == pytest.approx(0.6, rel=0.01)
        assert markers.C == pytest.approx(0.55, rel=0.01)
        assert markers.D == pytest.approx(0.75, rel=0.01)

    def test_no_dips_error(self, table, default_cfg):
        medium = MediumConfig(saturation_s=0.0)
        trace = synthesize_sweep(table, medium, SWEEP)
        with pytest.raises(NoSubDopplerFeaturesError):
            extract_markers(
                trace, manifold_window(table, default_cfg), MarkerSelection(), table, medium
            )

    def test_default_simulation_geometry(self, table, default_cfg, clean_trace):
        markers = extract_markers(
            clean_trace,
            manifold_window(table, default_cfg),
            MarkerSelection(),
            table,
            default_cfg.medium,
        )
        assert markers.A > markers.B          # absorption valley
        assert markers.D > markers.B          # crossover dip rises above the floor
        assert markers.C < markers.B          # selected hyperfine line in the deeper valley

    def test_selection_must_exist(self, table, default_cfg, clean_trace):
        bad = MarkerSelection(hyperfine_feature="Rb87:F9->F'=1")
        from saslock.errors import UnknownFeatureError
        with pytest.raises(UnknownFeatureError):
            extract_markers(
                clean_trace,
                manifold_window(table, default_cfg),
                bad,
                table,
                default_cfg.medium,
            )

    def test_census_exactly_six(self, table, default_cfg, clean_trace):
        window = manifold_window(table, default_cfg)
        peaks = subdoppler_extrema(clean_trace, window)
        assert len(peaks) == 6

    def test_census_generalizes_to_rb85_manifold(self, table, clean_trace):
        # Rb85 F=3 also has 3 direct lines + 3 crossovers above the
        # broadened width, so the same count rule applies.
        from saslock.atomic_data import transitions
        lines = transitions(table, "Rb85", 3)
        window = (lines[0].detuning - 40e6, lines[-1].detuning + 40e6)
        assert len(subdoppler_extrema(clean_trace, window)) == 6


def reference_moving_median(y, window):
    """The per-sample median loop `moving_median` replaced, kept as its oracle."""
    y = np.asarray(y, dtype=float)
    if window <= 1:
        return y.copy()
    pad = window // 2
    padded = np.pad(y, pad, mode="edge")
    return np.asarray([np.median(padded[i : i + window]) for i in range(len(y))])


@strategies.composite
def median_cases(draw):
    values = strategies.one_of(
        strategies.floats(allow_nan=False, width=64),
        # few distinct levels, so windows are full of ties
        strategies.integers(-3, 3).map(lambda k: 0.25 * k),
    )
    y = draw(strategies.lists(values, min_size=1, max_size=120))
    # odd windows from 1 up to beyond the length of the data
    half = draw(strategies.integers(0, len(y) + 2))
    return np.asarray(y, dtype=float), 2 * half + 1


@settings(max_examples=300, deadline=None)
@given(median_cases())
def test_moving_median_matches_per_sample_median(case):
    y, window = case
    got = moving_median(y, window)
    want = reference_moving_median(y, window)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included


def test_moving_median_rejects_even_window():
    with pytest.raises(ValueError, match="odd"):
        moving_median(np.arange(9.0), 4)


class TestDepthMetrics:
    def test_documented_example(self):
        m = DepthMarkers(A=1.0, B=0.6, C=0.55, D=0.75)
        d = depth_metrics(m)
        assert d.doppler_depth == pytest.approx(40.0, rel=1e-12)
        assert d.hyperfine_depth == pytest.approx(5.0, rel=1e-12)
        assert d.crossover_depth == pytest.approx(15.0, rel=1e-12)

    def test_flat_trace_zeros(self):
        m = DepthMarkers(A=0.8, B=0.8, C=0.8, D=0.8)
        d = depth_metrics(m)
        assert (d.doppler_depth, d.hyperfine_depth, d.crossover_depth) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("k", [0.5, 2.0, 17.0])
    def test_scale_invariance(self, k):
        m = DepthMarkers(A=1.0, B=0.6, C=0.55, D=0.75)
        scaled = DepthMarkers(A=k * 1.0, B=k * 0.6, C=k * 0.55, D=k * 0.75)
        d0, d1 = depth_metrics(m), depth_metrics(scaled)
        assert d1.doppler_depth == pytest.approx(d0.doppler_depth, rel=1e-12)
        assert d1.hyperfine_depth == pytest.approx(d0.hyperfine_depth, rel=1e-12)
        assert d1.crossover_depth == pytest.approx(d0.crossover_depth, rel=1e-12)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            DepthMarkers(A=0.0, B=0.0, C=0.0, D=0.0)


class TestFitting:
    def test_lorentzian_round_trip(self):
        x = np.linspace(-30e6, 30e6, 201)
        y = 0.2 + 0.5 / (1.0 + 4.0 * (x / 6.0e6) ** 2)
        fit = fit_lineshape(x, y, "lorentzian")
        assert fit.fwhm == pytest.approx(6.0e6, rel=1e-3)
        assert fit.center == pytest.approx(0.0, abs=1e3)
        assert fit.rms_residual < 1e-9

    def test_gaussian_round_trip(self):
        fwhm = 522.0e6
        x = np.linspace(-1.5e9, 1.5e9, 301)
        y = 1.0 - 0.4 * np.exp(-4 * np.log(2) * (x / fwhm) ** 2)
        fit = fit_lineshape(x, y, "gaussian")
        assert fit.fwhm == pytest.approx(fwhm, rel=5e-3)
        assert fit.amplitude == pytest.approx(-0.4, rel=1e-3)

    def test_constant_segment(self):
        x = np.linspace(0, 1e8, 64)
        y = np.full_like(x, 0.7)
        fit = fit_lineshape(x, y, "lorentzian")
        assert fit.amplitude == 0.0
        assert fit.offset == pytest.approx(0.7)
        assert fit.rms_residual == pytest.approx(0.0, abs=1e-15)

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(0)
        x = np.linspace(-1, 1, 64)
        y = rng.normal(0, 1, 64)
        with pytest.raises(FitConvergenceError):
            fit_lineshape(x, y, "lorentzian", max_iterations=2)

    def test_too_few_samples(self):
        with pytest.raises(SweepError):
            fit_lineshape(np.arange(5.0), np.arange(5.0), "lorentzian")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_lineshape(np.arange(10.0), np.arange(10.0), "voigt")


class TestErrorSignal:
    def dip_trace(self):
        nu = np.linspace(-50e6, 50e6, 501)
        diff = 0.2 / (1.0 + 4.0 * (nu / 10e6) ** 2)
        ref = np.full_like(nu, 0.8)
        return SweepTrace(nu, ref, ref + diff, diff, {})

    def test_differential_mode_is_identity(self):
        trace = self.dip_trace()
        out = error_signal(trace, "differential")
        assert np.array_equal(out, trace.differential)

    def test_derivative_antisymmetric_zero_at_center(self):
        trace = self.dip_trace()
        out = error_signal(trace, "derivative", smoothing_window=5)
        center = len(trace) // 2
        step = trace.step_hz()
        crossings = np.nonzero(np.diff(np.sign(out)))[0]
        nearest = crossings[np.argmin(np.abs(trace.detuning_axis[crossings]))]
        assert abs(trace.detuning_axis[nearest]) <= step
        inner = slice(10, len(trace) - 10)
        assert np.allclose(out[inner], -out[::-1][inner], atol=1e-3 * np.abs(out).max())

    def test_zero_differential_zero_derivative(self):
        nu = np.linspace(-1e6, 1e6, 101)
        flat = SweepTrace(nu, np.ones(101), np.ones(101), np.zeros(101), {})
        assert np.all(error_signal(flat, "derivative", 5) == 0.0)

    def test_output_length_matches(self):
        trace = self.dip_trace()
        assert len(error_signal(trace, "derivative", 7)) == len(trace)

    @pytest.mark.parametrize("window", [0, 2, 501, -3])
    def test_invalid_window_rejected(self, window):
        with pytest.raises(ValueError):
            error_signal(self.dip_trace(), "derivative", window)


# Floats whose repr round trip is easy to get wrong: signed zeros,
# subnormals, the normal limits and magnitudes near 1e+-300.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
               1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0]


@strategies.composite
def random_traces(draw):
    finite = strategies.floats(allow_nan=False, allow_infinity=False)
    axis = sorted(draw(strategies.lists(
        strategies.one_of(finite, strategies.sampled_from(EDGE_FLOATS)),
        min_size=2, max_size=40, unique=True,
    )))
    n = len(axis)
    level = strategies.one_of(
        strategies.floats(min_value=0.0, allow_infinity=False),
        strategies.sampled_from([x for x in EDGE_FLOATS if not x < 0]),
    )
    any_value = strategies.one_of(finite, strategies.sampled_from(EDGE_FLOATS))
    reference, probe = (draw(strategies.lists(level, min_size=n, max_size=n)) for _ in "rp")
    differential = draw(strategies.lists(any_value, min_size=n, max_size=n))
    meta = {"noise_seed": draw(strategies.one_of(strategies.none(), strategies.integers(0))),
            "config_hash": "0123456789abcdef", "samples_per_ramp": n}
    return SweepTrace(*map(np.asarray, (axis, reference, probe, differential)), meta)


class TestTraceCsv:
    @settings(max_examples=50, deadline=None)
    @given(random_traces())
    def test_round_trip_exact_for_any_floats(self, trace):
        again = read_trace_csv(trace_to_csv(trace))
        for name in ("detuning_axis", "reference", "probe", "differential"):
            assert getattr(again, name).tobytes() == getattr(trace, name).tobytes()
        assert again.meta == {"format": TRACE_FORMAT_VERSION,
                              **{key: str(value) for key, value in trace.meta.items()}}

    def test_round_trip_exact(self, clean_trace):
        text = trace_to_csv(clean_trace)
        again = read_trace_csv(text)
        assert np.array_equal(again.detuning_axis, clean_trace.detuning_axis)
        assert np.array_equal(again.probe, clean_trace.probe)
        assert np.array_equal(again.reference, clean_trace.reference)
        assert np.array_equal(again.differential, clean_trace.differential)

    def test_format_header_required(self):
        with pytest.raises(SweepError, match="format"):
            read_trace_csv("detuning_hz,reference_v,probe_v,differential_v\n0,1,1,0\n1,1,1,0\n")

    def test_non_monotone_rejected(self, clean_trace):
        lines = trace_to_csv(clean_trace).splitlines()
        lines[10], lines[200] = lines[200], lines[10]
        with pytest.raises(SweepError, match="increasing"):
            read_trace_csv("\n".join(lines))
