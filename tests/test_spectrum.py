"""Sweep synthesis, marker extraction, depth metrics, error signals."""

import io
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies

from saslock import spectrum
from saslock._reprcsv import _MUL_HI, _pow5_128, csv_rows, nearest_doubles
from saslock.atomic_data import Isotope, LineTable, TransitionLine, find_feature
from saslock.errors import NoSubDopplerFeaturesError, SweepError
from saslock.harness import _envelope_valleys, manifold_window
from saslock.servo import PHASES, TimeSeriesLog, write_locklog_csv
from saslock.spectrum import (
    TRACE_FORMAT_VERSION,
    DepthMarkers,
    MarkerSelection,
    MediumConfig,
    NoiseConfig,
    RunningMedian,
    SweepTrace,
    _prominences,
    depth_metrics,
    error_signal,
    extract_markers,
    find_peaks,
    moving_average,
    moving_median_min,
    read_series_csv,
    subdoppler_extrema,
    synthesize_sweep,
    write_series_csv,
    write_trace_csv,
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

    def test_markers_carry_the_census(self, table, default_cfg, clean_trace):
        window = manifold_window(table, default_cfg)
        markers = extract_markers(clean_trace, window, MarkerSelection(), table,
                                  default_cfg.medium)
        census = subdoppler_extrema(clean_trace, window)
        assert markers.features.tobytes() == census.tobytes()
        # The census is left out of repr and ==.
        bare = DepthMarkers(A=markers.A, B=markers.B, C=markers.C, D=markers.D)
        assert markers == bare
        assert repr(markers) == repr(bare)

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
    """The edge-padded running median as a per-sample np.median loop: the
    oracle of RunningMedian's order statistics."""
    y = np.asarray(y, dtype=float)
    if window <= 1:
        return y.copy()
    pad = window // 2
    padded = np.pad(y, pad, mode="edge")
    return np.asarray([np.median(padded[i : i + window]) for i in range(len(y))])


@strategies.composite
def median_min_cases(draw):
    # Mostly few distinct levels, signed zeros and infinities, so that
    # windows are full of ties and the smallest median can be any of them.
    levels = strategies.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, np.inf, -np.inf])
    if draw(strategies.integers(0, 3)) == 0:
        levels = strategies.one_of(levels, strategies.floats(allow_nan=False, width=64))
    max_size = draw(strategies.sampled_from([12, 120]))
    y = draw(strategies.lists(levels, min_size=1, max_size=max_size))
    half = draw(strategies.one_of(
        strategies.just(0),                              # window 1
        strategies.integers(0, len(y) + 2),              # up to past the data
        strategies.integers(len(y), 3 * len(y) + 2),     # wider than the data
    ))
    return np.asarray(y, dtype=float), 2 * half + 1


@settings(max_examples=300, deadline=None)
@given(median_min_cases())
def test_moving_median_min_matches_moving_median(case):
    y, window = case
    got = moving_median_min(y, window)
    want = reference_moving_median(y, window).min()
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes()  # signed zeros included


def test_moving_median_min_exhaustive_small():
    # Every sequence of up to 6 samples over three levels, every odd window
    # up to past the data: the corner cases a random draw can miss.
    for n in range(1, 7):
        for y in itertools.product([-0.0, 1.0, 2.0], repeat=n):
            y = np.asarray(y)
            for window in range(1, 2 * n + 2, 2):
                got = moving_median_min(y, window)
                want = reference_moving_median(y, window).min()
                assert np.float64(got).tobytes() == want.tobytes()


def test_running_median_counts_windows_wider_than_uint16():
    # A window of 2**16 + 1 samples holds more samples <= 1.0 than a uint16
    # count can: every median is 1.0, and a wrapped count would make it 9.0.
    y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.0, 1.0])
    window = 2**16 + 1
    median = RunningMedian(y, window)
    got = [median.order_statistic(k)[0] for k in range(len(y))]
    assert got == np.sort(reference_moving_median(y, window)).tolist() == [1.0] * len(y)
    assert moving_median_min(y, window) == 1.0


def reference_envelope_valleys(probe, window):
    """`_envelope_valleys` from a formed envelope: scipy's running median,
    np.percentile and the depth comparison."""
    from scipy.ndimage import median_filter

    envelope = median_filter(probe, size=window, mode="nearest") + 0.0
    baseline = float(np.percentile(envelope, 90))
    depth = baseline - envelope
    max_depth = float(depth.max())
    return baseline, max_depth, depth > 0.2 * max_depth


@strategies.composite
def envelope_cases(draw):
    """A probe trace (a random walk rounded into ties and signed zeros, a
    few levels, or finite floats of any size) and an odd window from 5 to
    past it."""
    n = draw(strategies.one_of(
        strategies.integers(1, 300),
        # (n - 1) * 0.9 rounds onto an integer, so the percentile's upper
        # order statistic has weight 0
        strategies.integers(1, 30).map(lambda m: 10 * m + 1),
    ))
    rng = np.random.default_rng(draw(strategies.integers(0, 2**32 - 1)))
    kind = draw(strategies.sampled_from(["walk", "levels", "floats"]))
    if kind == "walk":
        y = np.round(np.cumsum(rng.uniform(-1.0, 1.0, n)), draw(strategies.integers(0, 1)))
    elif kind == "levels":
        y = rng.choice([-0.0, 0.0, 0.5, -0.5, 1.0], n)
    else:  # subnormal to near the largest float, so the lerp can overflow
        y = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 1024, n))
    return y, 2 * draw(strategies.integers(2, n + 2)) + 1


@settings(max_examples=300, deadline=None)
@given(envelope_cases())
def test_envelope_valleys_match_formed_envelope(case):
    y, window = case
    got = _envelope_valleys(y, window)
    want = reference_envelope_valleys(y, window)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()  # baseline
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()  # max_depth
    assert got[2].dtype == bool and got[2].tolist() == want[2].tolist()


@pytest.mark.parametrize("window_filter", [moving_median_min, moving_average])
def test_window_filters_reject_even_window(window_filter):
    # moving_average used to return one sample too many for an even window.
    with pytest.raises(ValueError, match="odd"):
        window_filter(np.arange(10.0), 4)


@strategies.composite
def peak_cases(draw):
    """A random walk rounded so that it has plateaus and ties, a height drawn
    from its range, a prominence and a distance."""
    rng = np.random.default_rng(draw(strategies.integers(0, 2**32 - 1)))
    steps = rng.uniform(-1.0, 1.0, draw(strategies.integers(0, 300)))
    walk = np.round(np.cumsum(steps), draw(strategies.integers(0, 1)))
    if draw(strategies.booleans()):
        walk = np.abs(walk)  # like the |signal| the call sites search
    lo, hi = (float(walk.min()), float(walk.max())) if len(walk) else (0.0, 1.0)
    height = lo + draw(strategies.floats(0.0, 1.0)) * (hi - lo)
    return walk, height, draw(strategies.floats(0.0, 3.0)), draw(strategies.floats(1.0, 30.0))


# The option sets of the call sites: subdoppler_extrema, _feature_extremum
# and harness._top_peaks.
PEAK_OPTIONS = [("height", "prominence"), ("height",), ("height", "distance")]


@pytest.mark.parametrize("options", PEAK_OPTIONS)
@settings(max_examples=300, deadline=None)
@given(peak_cases())
def test_find_peaks_matches_scipy(options, case):
    from scipy.signal import find_peaks as scipy_find_peaks

    walk, height, prominence, distance = case
    kwargs = {k: v for k, v in
              dict(height=height, prominence=prominence, distance=distance).items()
              if k in options}
    got, got_props = find_peaks(walk, **kwargs)
    want, want_props = scipy_find_peaks(walk, **kwargs)
    assert got.tolist() == want.tolist()
    assert got_props["peak_heights"].tobytes() == want_props["peak_heights"].tobytes()


@settings(max_examples=300, deadline=None)
@given(peak_cases())
def test_prominences_match_scipy(case):
    # The values themselves, not only which side of a threshold they fall.
    from scipy.signal import peak_prominences

    walk, height, _, _ = case
    local_maxima, _ = find_peaks(walk)
    peaks = local_maxima[walk[local_maxima] >= height]
    if len(peaks):
        got = _prominences(walk, peaks, local_maxima)
        assert got.tobytes() == peak_prominences(walk, peaks)[0].tobytes()


def test_find_peaks_plateaus_and_edges():
    x = np.array([3.0, 1.0, 2.0, 2.0, 2.0, 2.0, 0.0, 5.0, 5.0])
    peaks, props = find_peaks(x)
    # The flat top's midpoint, rounded down; the edge plateau is no peak.
    assert peaks.tolist() == [3]
    assert props["peak_heights"].tolist() == [2.0]
    assert find_peaks(x, prominence=1.0)[0].tolist() == [3]
    assert find_peaks(x, prominence=1.0 + 1e-9)[0].tolist() == []


SCIPY_SUBPACKAGES = ("scipy", "scipy.signal", "scipy.stats", "scipy.optimize", "scipy.ndimage")


def modules_loaded_by(code, modules):
    """Which of `modules` are in sys.modules after `code` (which imports sys)
    runs in a fresh interpreter, as a printed list."""
    code += f"; print(sorted(m for m in {modules!r} if m in sys.modules))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy_subpackage():
    # numpy is all that start-up needs. The CSV kernel loads with the package,
    # so its tables are built before any run's large arrays.
    assert modules_loaded_by(
        "import sys, saslock; saslock.harness.load_default_config(); import saslock.cli",
        SCIPY_SUBPACKAGES + ("saslock._reprcsv",),
    ) == "['saslock._reprcsv']"


@pytest.mark.parametrize("command", ["sweep", "all", "analyze"])
def test_command_loads_no_scipy_subpackage(command, tmp_path, sweep_run):
    # Marker B and analyze's valley envelope take order statistics of the
    # running median without forming it, so no command needs scipy.
    argv = ["--out", str(tmp_path), command]
    if command == "analyze":
        scope = tmp_path / "scope.csv"
        scope.write_bytes((sweep_run[1] / "sweep_trace.csv").read_bytes())
        argv.append(str(scope))
    assert modules_loaded_by(
        f"import sys; from saslock.cli import main; assert main({argv!r}) == 0",
        SCIPY_SUBPACKAGES,
    ) == "[]"
    assert (tmp_path / "sweep_report.json").is_file() == (command != "analyze")


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
        out = error_signal(trace, "derivative")
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
        assert np.all(error_signal(flat, "derivative") == 0.0)

    def test_output_length_matches(self):
        trace = self.dip_trace()
        assert len(error_signal(trace, "derivative")) == len(trace)


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


def trace_text(trace):
    """The text write_trace_csv writes for `trace`."""
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


def read_series_text(tmp_path, text):
    """read_series_csv of `text`, written to a file."""
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    return read_series_csv(path)


class TestTraceCsv:
    """write_trace_csv's files read back through read_series_csv."""

    @staticmethod
    def assert_round_trip(tmp_path, trace):
        meta, header, rows = read_series_text(tmp_path, trace_text(trace))
        assert header == ["detuning_hz", "reference_v", "probe_v", "differential_v"]
        assert meta == {"format": TRACE_FORMAT_VERSION,
                        **{key: str(trace.meta.get(key))
                           for key in ("noise_seed", "config_hash", "samples_per_ramp")}}
        channels = (trace.detuning_axis, trace.reference, trace.probe, trace.differential)
        assert rows.shape == (len(trace), 4)
        for column, channel in zip(rows.T, channels):
            assert column.tobytes() == channel.tobytes()

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(random_traces())
    def test_round_trip_exact_for_any_floats(self, tmp_path, trace):
        self.assert_round_trip(tmp_path, trace)

    def test_round_trip_exact(self, tmp_path, clean_trace):
        self.assert_round_trip(tmp_path, clean_trace)

    @pytest.mark.parametrize("row, column", [(5, 2), (7, 1), (-1, 0)])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc", "1_0", "\uff11"])
    def test_non_finite_rejected(self, tmp_path, row, column, value):
        # "abc" used to escape as a ValueError naming no line. float() reads
        # "1_0" and a full-width "1", but np.loadtxt does not, and the rescan
        # must reject them too.
        lines = trace_text(synthesize_sweep(single_line_table(), MediumConfig(),
                                            (-1e9, 1e9, 16))).splitlines()
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        lineno = row + 1 if row >= 0 else len(lines)
        problem = "non-finite" if value in ("nan", "inf", "-inf") else "non-numeric"
        with pytest.raises(ValueError, match=f"^line {lineno}: {problem}"):
            read_series_text(tmp_path, "\n".join(lines))


def repr_series_csv(fmt, meta, keys, columns):
    """The series-CSV writer before the vectorized kernel: repr per float."""
    lines = [f"# format={fmt}", *(f"# {key}={meta.get(key)}" for key in keys), ",".join(columns)]
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) if isinstance(col, np.ndarray)
             else map(col[1].__getitem__, col[0]) for col in columns.values()]
    lines += [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def repr_lines(values):
    return "".join(f"{v!r}\n" for v in values.tolist())


def ulp_neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


class TestReprCsv:
    """csv_rows writes float64 values byte for byte as repr does."""

    @settings(max_examples=200, deadline=None)
    @given(strategies.lists(strategies.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert csv_rows([values]) == repr_lines(values)

    def test_edge_values(self):
        powers = [2.0**k for k in range(-1074, 1024)]
        assert len(powers) == 2098
        subnormals = np.arange(1, 2**52, 2**52 // 997, dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            powers, np.negative(powers), subnormals, -subnormals,
            # repr writes exponent form below 1e-4 and from 1e16 on
            ulp_neighbours([1e-5, 1e-4, 1e15, 1e16, 1e17, 9999999999999998.0, 0.00012345]),
            ulp_neighbours(EDGE_FLOATS), [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
            # N + 179/512, a temperature-step detuning: a tie that rounds to even
            [-133274580.34960938],
        ])
        assert csv_rows([values]) == repr_lines(values)

    def test_powers_of_two_one_per_block(self):
        # A block holding an exact bound rounds all its values on the exact-bound
        # path; alone, 45 powers of two need the rule for a digit at the lower bound.
        for value in [2.0**k for k in range(-1074, 1024)]:
            values = np.array([value, -value])
            assert csv_rows([values]) == repr_lines(values)

    @settings(max_examples=100, deadline=None)
    @given(strategies.lists(strategies.tuples(strategies.integers(10**8, 10**9 - 1),
                                              strategies.integers(0, 255), strategies.booleans()),
                            min_size=1, max_size=32))
    def test_halfway_digits_round_to_even(self, draws):
        # N + k/512 with k odd is an exact 18-digit decimal ending in 5.
        values = np.array([(n + (2 * k + 1) / 512) * (-1 if neg else 1) for n, k, neg in draws])
        assert csv_rows([values]) == repr_lines(values)

    def test_multiplier_high_words(self):
        # The bounds add (mul << 1) >> 64 to the product's middle word and
        # subtract mul >> 64 or (mul << 1) >> 64 from it. Each word, with its
        # carry, lies in [2**60, 2**63], so a carry compare never meets a
        # word of 0 (or 2**64) there.
        assert (_MUL_HI >= 2**60).all() and (_MUL_HI < 2**62).all()

    def test_random_bit_patterns(self):
        values = np.random.default_rng(9).integers(0, 2**64, 50_000, dtype=np.uint64,
                                                   endpoint=False).view(np.float64)
        assert csv_rows([values]) == repr_lines(values)


def float_and_redo(w, q):
    """The bits of float("{w}e{q}"), and whether nearest_doubles must leave
    w * 10**q to float(): q outside [-342, 308], a value below the normal
    range or rounding to inf, or a tie that rounds down to the even double."""
    x = float(f"{w}e{q}")
    if w == 0:
        return np.float64(x).view(np.uint64), False
    exact = Fraction(w) * Fraction(10) ** q if -400 < q < 400 else None
    tie_down = exact is not None and x < exact and (
        2 * exact == Fraction(x) + Fraction(math.nextafter(x, math.inf)))
    redo = exact is None or not -342 <= q <= 308 or exact < 2**-1022 or math.isinf(x) or tie_down
    return np.float64(x).view(np.uint64), redo


class TestNearestDoubles:
    """nearest_doubles rounds w * 10**q as float() does, and leaves only the
    values it cannot settle to float()."""

    @staticmethod
    def check(pairs):
        w = np.array([w for w, _ in pairs], dtype=np.uint64)
        q = np.array([q for _, q in pairs], dtype=np.int64)
        bits, redo = nearest_doubles(w, q)
        for k, (wk, qk) in enumerate(pairs):
            want, must_redo = float_and_redo(wk, qk)
            assert bool(redo[k]) == must_redo, (wk, qk)
            assert redo[k] or bits[k] == want, (wk, qk)

    @settings(max_examples=300, deadline=None)
    @given(strategies.lists(strategies.tuples(
        strategies.one_of(strategies.integers(0, 2**63 - 2),
                          strategies.integers(0, 19).map(lambda n: 10**n - 1),
                          strategies.integers(1, 10**17)),
        strategies.integers(-350, 320)), min_size=1, max_size=16))
    @example([(73177701707893310, -1)])           # needs the table's low word
    @example([(9007199254740993, 0), (45035996273704965, -1), (225179981368524825, -2),
              (1125899906842624125, -3), (5629499534213120625, -4), (1, 23), (841, 19),
              (1299435973, 10)])                  # ties that round down to even
    @example([(9007199254740995, 0), (45035996273704975, -1), (5, -1)])   # up, or no tie
    @example([(90071992547409919, -1), (17976931348623157, 292), (17976931348623159, 292)])
    @example([(22250738585072014, -324), (22250738585072011, -324), (5, -324), (1, -342)])
    @example([(1, -343), (1, 308), (1, 309), (0, 400), (0, -400), (2**63 - 2, -19)])
    def test_matches_float(self, pairs):
        self.check(pairs)

    def test_power_table(self):
        # 5**q scaled into [2**127, 2**128): truncated, but for -27 <= q < 0,
        # where Eisel-Lemire rounds the reciprocal up by one.
        high, low = _pow5_128()
        for q, h, lo in zip(range(-342, 309), high.tolist(), low.tolist()):
            p = 5 ** abs(q)
            scaled = p << 128 >> p.bit_length() if q >= 0 else (1 << 127 + p.bit_length()) // p
            assert h << 64 | lo == scaled + (-27 <= q < 0), q

    def test_random_decimals(self):
        rng = np.random.default_rng(26)
        w = rng.integers(1, 10**17, 20_000, dtype=np.int64) >> rng.integers(0, 57, 20_000)
        q = rng.integers(-345, 312, 20_000)
        self.check(list(zip(w.tolist(), q.tolist())))


class TestSeriesCsvWriter:
    """write_series_csv gives the bytes of the repr writer it replaced."""

    @staticmethod
    def columns(rows):
        rng = np.random.default_rng(rows)
        edge = [5e-324, -5e-324, 1e-300, -1e300, 1e300, 0.0, -0.0, 2.2250738585072014e-308]
        return {
            "t_s": np.arange(rows) * 1e-5,
            "edge": rng.choice(np.array(edge + EDGE_FLOATS), rows),
            "noise": rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows),
            "phase": (rng.integers(0, len(PHASES), rows), PHASES),
            "bits": rng.integers(0, 2**64, rows, dtype=np.uint64, endpoint=False).view(np.float64),
        }

    BLOCK_ROWS = spectrum._CSV_BLOCK // 5        # rows per block of these five columns

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_matches_repr_writer(self, rows):
        columns = self.columns(rows)
        meta = {"seed": 7, "dt": 1e-05}
        buf = io.StringIO()
        write_series_csv(buf, "sas-test/1", meta, ("seed", "dt", "absent"), columns)
        assert buf.getvalue() == repr_series_csv("sas-test/1", meta, ("seed", "dt", "absent"),
                                                 columns)

    @pytest.mark.parametrize("cell", ["lock\u00e9d", "lo\0cked"])
    def test_text_cells_must_be_ascii_without_nul(self, cell):
        # NUL pads the cells in the row matrix, so a text cell cannot hold one.
        columns = {"x": np.ones(3), "phase": (np.arange(3), ["locked", cell, "lost"])}
        with pytest.raises(ValueError):
            write_series_csv(io.StringIO(), "sas-test/1", {}, (), columns)

    def test_zero_step_locklog_writes_header(self):
        meta = {"seed": 3, "dt": 1e-05, "lock_point_hz": -1.5e8, "polarity": 1, "aborted": False}
        log = TimeSeriesLog(*(np.zeros(0) for _ in range(5)), transitions=[], meta=meta)
        buf = io.StringIO()
        write_locklog_csv(log, buf)
        assert buf.getvalue() == (
            "# format=sas-locklog/1\n# seed=3\n# dt=1e-05\n# lock_point_hz=-150000000.0\n"
            "# polarity=1\n# aborted=False\n"
            "t_s,detuning_hz,error_v,control_v,temperature_k,phase\n"
        )
