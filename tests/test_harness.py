"""Scenario config validation, bench experiments, ingestion, plots, CLI."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies

from saslock.cli import main as cli_main
from saslock.errors import ConfigError, IngestError, SweepError
from saslock.harness import (
    IngestConfig,
    _parse_numeric_csv,
    _top_peaks,
    default_config_path,
    ingest_scope_csv,
    load_default_config,
    manifold_window,
    parse_config,
    run_fluorescence_experiment,
    run_lock_experiment,
    run_sweep_experiment,
    run_temp_step_experiment,
)
from saslock.spectrum import NoiseConfig, extract_markers, synthesize_sweep
from saslock.svgplot import render_line_plot

DEFAULT_TEXT = default_config_path().read_text(encoding="utf-8")


def patched_config(**replacements):
    text = DEFAULT_TEXT
    for old, new in replacements.items():
        assert old in text, f"patch target {old!r} missing from default config"
        text = text.replace(old, new)
    return text


class TestConfigParsing:
    def test_default_config_loads(self, default_cfg):
        assert default_cfg.medium.saturation_s == 2.0
        assert default_cfg.lock.target_feature == "Rb87:F2->co(2,3)"

    def test_missing_format_header(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("[medium]\ntemperature_k=300\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("format=sas-config/1\n[teleport]\nx=1\n")

    def test_unknown_key_rejected(self):
        text = patched_config(**{"temperature_k=312.65": "temperature_k=312.65\nhumidity=0.4"})
        with pytest.raises(ConfigError, match="unknown key 'humidity'"):
            parse_config(text)

    def test_inverted_sweep_bounds_rejected(self):
        text = patched_config(**{"start_hz=-1.4e9": "start_hz=2.5e9"})
        with pytest.raises(ConfigError, match="inverted"):
            parse_config(text)

    def test_zero_plant_gain_rejected(self):
        text = patched_config(**{"k_current_hz_per_a=-1.0e12": "k_current_hz_per_a=0"})
        with pytest.raises(ConfigError, match="k_current"):
            parse_config(text)

    def test_nonpositive_temperature_rejected(self):
        text = patched_config(**{"temperature_k=312.65": "temperature_k=-3"})
        with pytest.raises(ConfigError, match="medium"):
            parse_config(text)

    def test_unknown_feature_rejected(self):
        text = patched_config(**{"crossover_feature=Rb87:F2->co(2,3)":
                                 "crossover_feature=Rb87:F2->co(8,9)"})
        with pytest.raises(ConfigError, match="co\\(8,9\\)"):
            parse_config(text)

    @pytest.mark.parametrize("patch", [
        ("target_feature=Rb87:F2->co(2,3)", "target_feature=Rb87:F9->F'=3"),
        ("feature_b=Rb85:F3->co(3,4)", "feature_b=Rb85:F3->co(3,9)"),
        ("manifold=Rb87:F2", "manifold=Rb87:F9"),
        ("manifold=Rb87:F2", "manifold=Rb87:2"),
        ("manifold=Rb87:F2", "manifold=Rb87:FF2"),
        ("path=bundled", "path=/nonexistent/rb_d2_lines.txt"),
    ])
    def test_unknown_name_or_path_rejected(self, patch):
        old, new = patch
        with pytest.raises(ConfigError, match=r"^<string>: "):
            parse_config(patched_config(**{old: new}))

    @pytest.mark.parametrize("patch", [
        ("samples=4096", "samples=100000000000"),
        ("samples=4096", f"samples={2**22 + 1}"),
        ("lock_threshold_frac=0.02", "lock_threshold_frac=-1"),
        ("lock_threshold_frac=0.02", "lock_threshold_frac=0"),
        ("loss_threshold_frac=0.5", "loss_threshold_frac=0.01"),
        ("derivative_smoothing=5", "derivative_smoothing=100000000"),
        ("derivative_smoothing=5", "derivative_smoothing=1025"),
        ("dt_s=1.0e-4", "dt_s=1e-12"),
        ("temp_step_duration_s=13.0", "temp_step_duration_s=1001.0"),
        ("seed=20240917", "seed=-1"),
        ("span_hz=3.0e9", "span_hz=1e20"),
        ("span_hz=3.0e9", "span_hz=2.097053e12"),
    ])
    def test_out_of_range_value_rejected(self, patch):
        old, new = patch
        with pytest.raises(ConfigError):
            parse_config(patched_config(**{old: new}))

    @pytest.mark.parametrize("patch", [
        ("samples=4096", f"samples={2**22}"),
        ("derivative_smoothing=5", "derivative_smoothing=1024"),
        ("temp_step_duration_s=13.0", "temp_step_duration_s=1000.0"),
        # an error map of (span + 100 MHz) / 0.5 MHz = 2**22 samples
        ("span_hz=3.0e9", "span_hz=2.097052e12"),
    ])
    def test_values_at_the_caps_accepted(self, patch):
        old, new = patch
        parse_config(patched_config(**{old: new}))

    @pytest.mark.parametrize("patch", [
        ("hyperfine_feature=Rb85:F3->F'=2", "hyperfine_feature=Rb85:F3->co(3,4)"),
        ("crossover_feature=Rb87:F2->co(2,3)", "crossover_feature=Rb87:F2->F'=3"),
    ])
    def test_marker_feature_kind_checked(self, patch):
        old, new = patch
        key = new.partition("=")[0]
        with pytest.raises(ConfigError, match=rf"^<string>: \[markers\] {key} must name a"):
            parse_config(patched_config(**{old: new}))

    @settings(max_examples=100, deadline=None)
    @given(strategies.lists(
        strategies.tuples(
            strategies.integers(0, len(DEFAULT_TEXT.splitlines()) - 1),
            strategies.sampled_from(["value", "delete", "insert"]),
            strategies.one_of(
                strategies.text(max_size=24),
                strategies.integers().map(str),
                strategies.floats().map(repr),
                strategies.sampled_from([
                    "", "-1", "0", "1e-12", "1e400", "nan", "100000000000", "true",
                    "Rb87:2", "Rb87:FF2", "Rb87:F9", "Rb87:F9->F'=3", "Rb87:F2->co(2,3)",
                    "/nonexistent", "bundled", "[lock]", "[nowhere]", "format=sas-config/1",
                ]),
            ),
        ),
        min_size=1, max_size=4,
    ))
    def test_edited_config_raises_only_config_error(self, edits):
        lines = DEFAULT_TEXT.splitlines()
        for index, kind, text in edits:
            index %= len(lines) or 1
            if kind == "insert" or not lines:
                lines.insert(index, text)
            elif kind == "delete":
                del lines[index]
            else:
                lines[index] = lines[index].partition("=")[0] + "=" + text
        try:
            parse_config("\n".join(lines))
        except ConfigError:
            pass

    @pytest.mark.parametrize("patch", [
        ("saturation_s=2.0", "saturation_s=nan"),
        ("temperature_k=312.65", "temperature_k=inf"),
        ("kp=0.006", "kp=nan"),
        ("dt_s=1.0e-4", "dt_s=inf"),
        ("linewidth_hz=5.0e5", "linewidth_hz=nan"),
    ])
    def test_non_finite_value_rejected(self, patch):
        old, new = patch
        key, value = new.split("=")
        message = rf"line \d+: bad value for '{key}': not a finite number: '{value}'"
        with pytest.raises(ConfigError, match=message):
            parse_config(patched_config(**{old: new}))

    def test_bad_value_reports_line(self):
        text = patched_config(**{"saturation_s=2.0": "saturation_s=plenty"})
        with pytest.raises(ConfigError, match="saturation_s"):
            parse_config(text)


class TestSweepExperiment:
    def test_depth_thresholds_pass(self, sweep_run):
        report, _ = sweep_run
        assert report.passed
        by_name = {c.name: c for c in report.criteria}
        assert by_name["doppler_depth"].measured > 30.0
        assert by_name["hyperfine_depth"].measured > 2.5
        assert by_name["crossover_depth"].measured > 15.0

    def test_experimental_column_reported_not_matched(self, sweep_run):
        report, _ = sweep_run
        ref = report.notes["experimental_reference_pct"]
        assert ref == {"doppler": 236.0, "hyperfine": 38.3, "crossover": 256.0}
        assert "not reproducible" in report.notes["experimental_reference_note"]

    def test_rerun_is_byte_identical(self, sweep_run, sweep_rerun):
        _, out1 = sweep_run
        _, out2 = sweep_rerun
        for name in ("sweep_trace.csv", "sweep_trace.svg", "sweep_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_saturation_flagged(self, default_cfg, tmp_path):
        cfg = replace(default_cfg, medium=replace(default_cfg.medium, saturation_s=0.0))
        report = run_sweep_experiment(cfg, tmp_path)
        assert not report.passed
        assert "no_sub_doppler_features" in report.notes

    def test_noise_off_census_criterion(self, noise_off_cfg, tmp_path):
        report = run_sweep_experiment(noise_off_cfg, tmp_path)
        by_name = {c.name: c for c in report.criteria}
        assert by_name["subdoppler_feature_census"].passed
        assert by_name["subdoppler_feature_census"].measured == 6.0

    def test_report_schema(self, sweep_run):
        report, out = sweep_run
        payload = json.loads((out / "sweep_report.json").read_text())
        assert payload["format"] == "sas-report/1"
        assert payload["config_hash"] == report.config_hash
        assert {c["name"] for c in payload["criteria"]} >= {"doppler_depth"}


class TestLockExperiment:
    def test_locks_and_holds(self, lock_run):
        report, _ = lock_run
        assert report.passed
        by_name = {c.name: c for c in report.criteria}
        assert by_name["lock_achieved"].passed
        assert by_name["post_lock_rms_error"].measured < 2.0       # percent
        assert by_name["post_lock_control_stability"].measured < 1.0

    def test_rerun_byte_identical(self, lock_run, lock_rerun):
        _, out1 = lock_run
        _, out2 = lock_rerun
        for name in ("lock_timeseries.csv", "lock_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_flipped_polarity_fails_to_lock(self, default_cfg, tmp_path):
        cfg = replace(
            default_cfg,
            lock=replace(default_cfg.lock, polarity="-1"),
            run=replace(default_cfg.run, lock_duration_s=0.4),
        )
        report = run_lock_experiment(cfg, tmp_path)
        assert not report.passed
        by_name = {c.name: c for c in report.criteria}
        assert not by_name["lock_achieved"].passed
        assert report.measured["phase_history"][-1]["phase"] != "locked"

    def test_phase_history_recorded(self, lock_run):
        report, _ = lock_run
        phases = [h["phase"] for h in report.measured["phase_history"]]
        assert phases == ["sweeping", "engaging", "locked"]

    def test_mode_hop_abort_fails_report(self, default_cfg, tmp_path):
        # The ramp leaves a 2 GHz envelope on the first step: the log is empty.
        cfg = replace(default_cfg, plant=replace(default_cfg.plant, mode_hop_span=2.0e9))
        report = run_lock_experiment(cfg, tmp_path)
        assert not report.passed
        assert "mode hop" in report.measured["abort_reason"]
        by_name = {c.name: c for c in report.criteria}
        assert not by_name["run_completed"].passed
        assert report.artifacts == ["lock_timeseries.csv", "lock_report.json"]
        assert json.loads((tmp_path / "lock_report.json").read_text())["passed"] is False


class TestTempStepExperiment:
    def test_positive_step_2p8v(self, temp_step_pos):
        report, _ = temp_step_pos
        assert report.passed
        dv = report.measured["delta_control_v"]
        assert dv == pytest.approx(2.8, rel=0.02)
        assert abs(report.measured["final_detuning_offset_hz"]) < 0.5e6

    def test_negative_step_symmetric(self, temp_step_neg):
        report, _ = temp_step_neg
        assert report.passed
        assert report.measured["delta_control_v"] == pytest.approx(-2.8, rel=0.02)

    def test_zero_step_noise_floor(self, default_cfg, tmp_path):
        cfg = replace(
            default_cfg,
            run=replace(default_cfg.run, temp_step_k=0.0, temp_step_duration_s=3.0),
        )
        report = run_temp_step_experiment(cfg, tmp_path)
        assert report.passed
        assert abs(report.measured["delta_control_v"]) < 0.056

    def test_abort_after_lock_fails_report(self, default_cfg, tmp_path):
        # An infinite step locks first, then drives the state non-finite.
        cfg = replace(
            default_cfg,
            run=replace(
                default_cfg.run,
                temp_step_k=float("inf"),
                temp_step_time_s=0.1,
                temp_step_duration_s=0.2,
            ),
        )
        report = run_temp_step_experiment(cfg, tmp_path)
        by_name = {c.name: c for c in report.criteria}
        assert by_name["locked_before_step"].passed
        assert not by_name["run_completed"].passed
        assert not report.passed
        assert "non-finite" in report.measured["abort_reason"]

    def test_resettle_metrics_present(self, temp_step_pos):
        report, _ = temp_step_pos
        assert report.measured["max_detuning_excursion_hz"] < 2.0e6
        assert report.measured["resettle_time_s"] >= 0.0


class TestFluorescenceExperiment:
    def test_three_brightness_levels(self, fluorescence_run):
        report, _ = fluorescence_run
        assert report.passed
        m = report.measured
        assert m["brightness_locked"] >= 0.99
        assert m["brightness_low_detuning"] == pytest.approx(0.5, abs=0.005)
        assert m["brightness_large_detuning"] < 1e-10

    def test_mode_hop_abort_fails_report(self, default_cfg, tmp_path):
        # The ramp leaves a 2 GHz envelope on the first step: the run never locks.
        cfg = replace(default_cfg, plant=replace(default_cfg.plant, mode_hop_span=2.0e9))
        report = run_fluorescence_experiment(cfg, tmp_path)
        assert not report.passed
        assert "mode hop" in report.measured["abort_reason"]
        by_name = {c.name: c for c in report.criteria}
        assert not by_name["run_completed"].passed
        assert not by_name["lock_achieved"].passed
        assert json.loads((tmp_path / "fluorescence_report.json").read_text())["passed"] is False

    def test_monotone_decrease(self, fluorescence_run):
        report, _ = fluorescence_run
        assert {c.name: c for c in report.criteria}["monotone_decrease"].passed


class TestIngest:
    def test_round_trip_markers_within_1pct(self, default_cfg, sweep_run, table):
        report, out = sweep_run
        trace = ingest_scope_csv(out / "sweep_trace.csv", table, default_cfg.ingest)
        markers = extract_markers(
            trace, manifold_window(table, default_cfg),
            default_cfg.markers.selection(), table, default_cfg.medium,
        )
        for key in "ABCD":
            original = report.measured["markers_v"][key]
            assert getattr(markers, key) == pytest.approx(original, rel=0.01)

    def test_shuffled_rows_rejected(self, sweep_run, table, default_cfg, tmp_path):
        _, out = sweep_run
        lines = (out / "sweep_trace.csv").read_text().splitlines()
        lines[10], lines[600] = lines[600], lines[10]
        bad = tmp_path / "shuffled.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match="monotone"):
            ingest_scope_csv(bad, table, default_cfg.ingest)

    def test_compressed_axis_recovers_separation(self, table, default_cfg, tmp_path):
        # Build a two-valley trace covering pump and repump manifolds, export
        # with the axis compressed 2x, and check the calibrated separation.
        from saslock.spectrum import synthesize_sweep
        trace = synthesize_sweep(
            table, default_cfg.medium, (-1.0e9, 7.4e9, 8192), NoiseConfig()
        )
        rows = []
        for i in range(len(trace)):
            rows.append(
                f"{float(trace.detuning_axis[i]) / 2e9!r},"
                f"{float(trace.reference[i])!r},{float(trace.probe[i])!r}"
            )
        path = tmp_path / "compressed.csv"
        path.write_text("time_s,reference_v,probe_v\n" + "\n".join(rows) + "\n")
        icfg = IngestConfig(
            time_column="time_s",
            reference_column="reference_v",
            probe_column="probe_v",
            feature_a="Rb87:F2->co(2,3)",
            feature_b="Rb87:F1->co(1,2)",
            known_separation_hz=0.0,  # calibrate against the table splitting
        )
        got = ingest_scope_csv(path, table, icfg)
        from saslock.atomic_data import find_feature, pump_repump_separation
        # the pump/repump crossovers must land back on their table detunings
        known = pump_repump_separation(table, icfg.feature_a, icfg.feature_b)
        assert known == pytest.approx(6.5e9, rel=0.02)  # the "about 6.5 GHz" splitting
        step = float(got.detuning_axis[1] - got.detuning_axis[0])
        for name in (icfg.feature_a, icfg.feature_b):
            nominal = find_feature(table, name).detuning
            window = np.abs(got.detuning_axis - nominal) < 40e6
            k = int(np.argmax(np.abs(got.differential[window])))
            located = got.detuning_axis[window][k]
            assert abs(located - nominal) <= 2 * step
        # so the calibrated axis reproduces the known separation to well under 0.5%
        assert known == pytest.approx(6622886360.85, rel=1e-6)

    def test_close_peaks_count_as_one_feature(self):
        # A broad feature with ripple on its top, and a weaker one far away:
        # the ripple maxima must not crowd the weaker feature out.
        k = np.arange(400.0)
        signal = (np.exp(-((k - 100) / 40) ** 2) + 0.6 * np.exp(-((k - 300) / 10) ** 2)
                  + 0.02 * np.sin(2 * np.pi * k / 7))
        assert _top_peaks(signal, 0, 400, count=2, spacing=1) == [100, 106]
        assert _top_peaks(signal, 0, 400, count=2, spacing=31) == [100, 301]

    def test_missing_column_rejected(self, sweep_run, table, default_cfg):
        _, out = sweep_run
        icfg = replace(default_cfg.ingest, probe_column="nonexistent")
        with pytest.raises(IngestError, match="nonexistent"):
            ingest_scope_csv(out / "sweep_trace.csv", table, icfg)


def numeric_rows(count, start=0):
    return "".join(f"{k * 0.5!r},{k + 1.0!r},{-k!r}\n" for k in range(start, start + count))


def parse(tmp_path, text):
    path = tmp_path / "src.csv"
    path.write_text(text, encoding="utf-8")
    return _parse_numeric_csv(path)


class TestScopeCsvParsing:
    def test_non_numeric_row_names_its_line(self, tmp_path):
        text = "time_s,reference_v,probe_v\n" + numeric_rows(20) + "0.5,oops,1\n" + numeric_rows(3)
        with pytest.raises(IngestError, match=r"src\.csv: line 22\b"):
            parse(tmp_path, text)

    def test_ragged_rows_rejected(self, tmp_path):
        text = numeric_rows(10) + "1.0,2.0\n" + numeric_rows(10)
        with pytest.raises(IngestError, match=r"line 11: ragged"):
            parse(tmp_path, text)

    def test_too_few_rows_rejected(self, tmp_path):
        with pytest.raises(IngestError, match=r"too few data rows \(15\)"):
            parse(tmp_path, "t,r,p\n" + numeric_rows(15))

    def test_header_comments_and_blank_lines(self, tmp_path):
        text = (
            "# scope export\n\n time_s , reference_v,probe_v\n# units: s,V,V\n"
            + numeric_rows(10) + "\n   \n# mid-file note\n" + numeric_rows(10, start=10)
        )
        header, data = parse(tmp_path, text)
        assert header == ["time_s", "reference_v", "probe_v"]
        assert data.shape == (20, 3)
        k = np.arange(20.0)
        assert np.array_equal(data, np.column_stack([0.5 * k, k + 1.0, -k]))

    def test_trailing_comment_on_data_row(self, tmp_path):
        text = "t,r,p\n" + numeric_rows(8) + "4.0,9.0,-8.0  # trigger\n" + numeric_rows(8, start=9)
        _, data = parse(tmp_path, text)
        assert data.shape == (17, 3)
        assert list(data[8]) == [4.0, 9.0, -8.0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        text = "t,r,p\n# note\n" + numeric_rows(20) + f"1.0,{value},2.0\n" + numeric_rows(3)
        with pytest.raises(IngestError, match=r"src\.csv: line 23: non-finite"):
            parse(tmp_path, text)

    def test_comments_only_rejected(self, tmp_path):
        with pytest.raises(IngestError, match=r"too few data rows \(0\)"):
            parse(tmp_path, "# nothing\n\n  # here\n")
        with pytest.raises(IngestError, match=r"too few data rows \(0\)"):
            parse(tmp_path, "t,r,p\n# nothing\n")

    def test_headerless_rows(self, tmp_path):
        header, data = parse(tmp_path, numeric_rows(16))
        assert header is None
        assert data.shape == (16, 3)


INGEST_ROWS = 8192


def write_scope_export(path, trace, time_s, rows_reversed):
    """A `time_s,reference_v,probe_v` scope export of `trace` on the axis `time_s`."""
    columns = [time_s, trace.reference, trace.probe]
    if rows_reversed:
        columns = [c[::-1] for c in columns]
    path.write_text(
        "time_s,reference_v,probe_v\n"
        + "".join(f"{t!r},{r!r},{p!r}\n" for t, r, p in zip(*(c.tolist() for c in columns))),
        encoding="utf-8",
    )


@pytest.mark.parametrize("orientation", ["rising", "falling"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    noise_seed=strategies.integers(0, 2**32 - 1),
    span_s=strategies.floats(1e-3, 1e-1),
    offset_s=strategies.floats(-0.05, 0.05),
    rows_reversed=strategies.booleans(),
)
def test_ingest_recovers_affine_axis(default_cfg, table, tmp_path, orientation,
                                     noise_seed, span_s, offset_s, rows_reversed):
    # Export a noisy sweep on a random affine time axis; detuning rises or
    # falls with time, and the rows run in either time order.
    start, stop, _ = default_cfg.sweep
    noise = replace(default_cfg.noise, enabled=True, seed=noise_seed)
    trace = synthesize_sweep(table, default_cfg.medium, (start, stop, INGEST_ROWS), noise)
    window, selection = manifold_window(table, default_cfg), default_cfg.markers.selection()
    truth = extract_markers(trace, window, selection, table, default_cfg.medium)
    sign = 1.0 if orientation == "rising" else -1.0
    time_s = offset_s + sign * span_s * np.arange(INGEST_ROWS) / (INGEST_ROWS - 1)
    path = tmp_path / "scope.csv"
    write_scope_export(path, trace, time_s, rows_reversed)

    icfg = replace(default_cfg.ingest, time_column="time_s")
    got = ingest_scope_csv(path, table, icfg)
    slope = got.meta["calibration"]["slope_hz_per_unit"]
    assert slope == pytest.approx(sign * (stop - start) / span_s, rel=1e-3)
    markers = extract_markers(got, window, selection, table, default_cfg.medium)
    for key in "ABCD":
        assert getattr(markers, key) == pytest.approx(getattr(truth, key), rel=0.01)


class TestPlots:
    def test_sweep_svg_has_three_polylines(self, sweep_run):
        _, out = sweep_run
        svg = (out / "sweep_trace.svg").read_text()
        assert svg.count("<polyline") == 3
        assert "detuning (GHz)" in svg

    def test_empty_plot_rejected(self):
        with pytest.raises(SweepError):
            render_line_plot([], [], title="t", x_label="x", y_label="y")

    def test_identical_inputs_identical_bytes(self, clean_trace):
        kwargs = dict(title="t", x_label="x", y_label="y")
        a = render_line_plot(clean_trace.detuning_axis, [("p", clean_trace.probe)], **kwargs)
        b = render_line_plot(clean_trace.detuning_axis, [("p", clean_trace.probe)], **kwargs)
        assert a == b


class TestCli:
    def test_sweep_exit_zero(self, tmp_path, capsys):
        code = cli_main(["--out", str(tmp_path), "sweep"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[sweep] PASS" in out

    def test_bad_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("format=sas-config/1\n[medium]\ntemperature_k=-1\n")
        code = cli_main(["--config", str(bad), "--out", str(tmp_path), "sweep"])
        assert code == 2

    def test_criterion_failure_exit_one(self, tmp_path):
        cfg = tmp_path / "s0.cfg"
        cfg.write_text(patched_config(**{"saturation_s=2.0": "saturation_s=0.0"}))
        code = cli_main(["--config", str(cfg), "--out", str(tmp_path), "sweep"])
        assert code == 1

    def test_analyze_round_trip(self, sweep_run, tmp_path, capsys):
        _, out = sweep_run
        code = cli_main(["--out", str(tmp_path), "analyze", str(out / "sweep_trace.csv")])
        printed = capsys.readouterr().out
        assert code == 0
        assert "doppler=" in printed

    @pytest.mark.parametrize("patch", [
        ("target_feature=Rb87:F2->co(2,3)", "target_feature=Rb87:F9->F'=3"),
        ("path=bundled", "path=/nonexistent"),
        ("manifold=Rb87:F2", "manifold=Rb87:FF2"),
        ("samples=4096", "samples=100000000000"),
        ("dt_s=1.0e-4", "dt_s=1e-12"),
        ("span_hz=3.0e9", "span_hz=1e20"),
        ("hyperfine_feature=Rb85:F3->F'=2", "hyperfine_feature=Rb85:F3->co(3,4)"),
        ("crossover_feature=Rb87:F2->co(2,3)", "crossover_feature=Rb87:F2->F'=3"),
    ])
    def test_bad_config_value_exit_two(self, patch, tmp_path, capsys):
        old, new = patch
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(patched_config(**{old: new}))
        code = cli_main(["--config", str(cfg), "--out", str(tmp_path), "sweep"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: ")

    def test_negative_seed_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--out", str(tmp_path), "--seed", "-1", "sweep"])
        assert exc.value.code == 2

    def test_run_failure_exit_three(self, tmp_path, capsys):
        code = cli_main(["--out", str(tmp_path), "analyze", str(tmp_path / "missing.csv")])
        assert code == 3
        assert "run failed" in capsys.readouterr().err

    def test_env_var_config_dir(self, tmp_path, monkeypatch, capsys):
        confdir = tmp_path / "conf"
        confdir.mkdir()
        (confdir / "default.cfg").write_text(DEFAULT_TEXT)
        monkeypatch.setenv("SASLOCK_CONFIG_DIR", str(confdir))
        code = cli_main(["--out", str(tmp_path / "out"), "sweep"])
        assert code == 0
        assert "[sweep] PASS" in capsys.readouterr().out

    def test_csv_report_format(self, tmp_path):
        code = cli_main(["--out", str(tmp_path), "--format", "csv", "sweep"])
        assert code == 0
        body = (tmp_path / "sweep_report.csv").read_text()
        assert body.startswith("criterion,passed,measured,requirement,units")
        assert "doppler_depth,True" in body
