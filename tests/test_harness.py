"""Scenario config validation, bench experiments, ingestion, plots, CLI."""

import json
import math
import re
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies

from saslock import atomic_data, servo, spectrum
from saslock.atomic_data import find_feature
from saslock.cli import main as cli_main
from saslock.errors import ConfigError, IngestError, SweepError
from saslock.harness import (
    _SCHEMA,
    IngestConfig,
    ScenarioConfig,
    _phases,
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
from saslock.servo import (
    LEGAL_TRANSITIONS,
    TimeSeriesLog,
    closed_loop_run,
    validate_phase_sequence,
)
from saslock.spectrum import (
    NoiseConfig,
    extract_markers,
    read_series_csv,
    synthesize_sweep,
)
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

    def test_default_config_equals_class_defaults(self, default_cfg):
        assert default_cfg == ScenarioConfig()

    def test_schema_keys_match_bundled_file(self):
        # Adding a field to a config class adds a key; the bundled file must
        # then gain it too.
        pairs, section = set(), None
        for line in DEFAULT_TEXT.splitlines():
            if line.startswith("["):
                section = line[1:-1]
            elif section and "=" in line:
                pairs.add((section, line.partition("=")[0]))
        assert {(s, key) for s, keys in _SCHEMA.items() for key in keys} == pairs

    @pytest.mark.parametrize("key", ["escape_span_hz", "lock_threshold_v", "loss_threshold_v"])
    def test_run_time_lock_field_is_not_a_key(self, key):
        text = patched_config(**{"filter_time_s=0.005": f"filter_time_s=0.005\n{key}=1.0"})
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[lock\\]"):
            parse_config(text)

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
        # the temperature step must fall on a logged time, (0, 12.9999] s
        ("temp_step_time_s=1.0", "temp_step_time_s=0.0"),
        ("temp_step_time_s=1.0", "temp_step_time_s=20.0"),
        ("temp_step_time_s=1.0", "temp_step_time_s=12.999900000000002"),
        # sweep_time_s=0.004 needs 10 steps: 2 steps, and 9.999999999999998
        ("dt_s=1.0e-4", "dt_s=0.5"),
        ("dt_s=1.0e-4", "dt_s=0.0004000000000000001"),
        # the lock target must lie on the error map, base_detuning_hz +-
        # (span_hz / 2 + 50 MHz); at 1e26 the map's two ends round together
        ("base_detuning_hz=5.0e8", "base_detuning_hz=1e20"),
        ("base_detuning_hz=5.0e8", "base_detuning_hz=1e26"),
        ("base_detuning_hz=5.0e8", "base_detuning_hz=3.0e9"),
        ("base_detuning_hz=5.0e8", "base_detuning_hz=1e308"),
        ("base_detuning_hz=5.0e8", "base_detuning_hz=-1e308"),
        # huge finite extents are compared with the cap before int()
        ("span_hz=3.0e9", "span_hz=1e308"),
        ("span_hz=3.0e9", "span_hz=1.7e308"),
        # the marker window, Rb87:F2's lines +- window_margin_hz, must lie
        # inside the sweep
        ("start_hz=-1.4e9", "start_hz=1.4e9"),
        ("start_hz=-1.4e9", "start_hz=-0.0"),
        ("start_hz=-1.4e9", "start_hz=-1.4e7"),
        ("start_hz=-1.4e9", "start_hz=-4.2e8"),
        ("stop_hz=2.4e9", "stop_hz=2.4e7"),
        ("stop_hz=2.4e9", "stop_hz=0"),
        ("window_margin_hz=6.0e7", "window_margin_hz=6e9"),
        # an inverted marker window
        ("window_margin_hz=6.0e7", "window_margin_hz=-3e8"),
        # one sample short of the fewest a sweep takes
        ("samples=4096", "samples=15"),
        # one step past the map's low end on the target, and a zero-width
        # marker window: (old, new, message)
        ("base_detuning_hz=5.0e8",
         f"base_detuning_hz={math.nextafter(1416674050.0, math.inf)!r}",
         "outside the error map"),
        ("window_margin_hz=6.0e7", "window_margin_hz=-211796250.0", "inverted"),
    ])
    def test_out_of_range_value_rejected(self, patch):
        old, new, *message = patch
        with pytest.raises(ConfigError, match=message[0] if message else None):
            parse_config(patched_config(**{old: new}))

    @pytest.mark.parametrize("patch", [
        ("samples=4096", f"samples={2**22}"),
        ("derivative_smoothing=5", "derivative_smoothing=1024"),
        ("temp_step_duration_s=13.0", "temp_step_duration_s=1000.0"),
        # an error map of (span + 100 MHz) / 0.5 MHz = 2**22 samples
        ("span_hz=3.0e9", "span_hz=2.097052e12"),
        # the last logged time of 130,000 steps of 1e-4 s
        ("temp_step_time_s=1.0", "temp_step_time_s=12.9999"),
        # 10 steps of sweep_time_s=0.004, the shortest lock time
        ("dt_s=1.0e-4", "dt_s=0.0004"),
        # the fewest samples a sweep takes
        ("samples=4096", "samples=16"),
        # the error map's low end, base - span / 2 - 50 MHz, on the target
        ("base_detuning_hz=5.0e8", "base_detuning_hz=1416674050.0"),
    ])
    def test_values_at_the_caps_accepted(self, patch):
        old, new = patch
        parse_config(patched_config(**{old: new}))

    def test_equal_sweep_bounds_rejected(self):
        # The marker window check rejects an empty sweep too; the match pins
        # the rejection to the bound check itself.
        with pytest.raises(ConfigError, match="sweep bounds inverted"):
            parse_config(patched_config(**{"start_hz=-1.4e9": "start_hz=2.4e9"}))

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

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("Yes", True), ("on", True), ("1", True),
        ("false", False), ("NO", False), ("off", False), ("0", False),
    ])
    def test_boolean_spellings(self, text, value):
        cfg = parse_config(patched_config(**{"enabled=true": f"enabled={text}"}))
        assert cfg.noise.enabled is value and cfg.ramp.enabled is value

    @pytest.mark.parametrize("patch, message", [
        (("enabled=true", "enabled=maybe"), "bad value for 'enabled': not a boolean: 'maybe'"),
        (("samples=4096", "samples=4096.0"), "bad value for 'samples': invalid literal for int"),
        (("seed=20240917", "seed=2e7"), "bad value for 'seed': invalid literal for int"),
    ])
    def test_badly_typed_value_rejected(self, patch, message):
        old, new = patch
        with pytest.raises(ConfigError, match=rf"line \d+: {re.escape(message)}"):
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

    def test_short_run_fails_post_lock_window(self, default_cfg, tmp_path):
        # 0.1 s of run cannot show the 1 s of lock the post-lock criteria name.
        cfg = replace(default_cfg, run=replace(default_cfg.run, lock_duration_s=0.1))
        report = run_lock_experiment(cfg, tmp_path)
        by_name = {c.name: c for c in report.criteria}
        assert by_name["lock_achieved"].passed
        assert not by_name["post_lock_window"].passed
        assert 0.0 < by_name["post_lock_window"].measured < 0.1
        assert not report.passed

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

    def test_step_before_a_locked_window_fails(self, default_cfg, tmp_path):
        # Lock is reached about 45 ms in, so 0.3 s gives less than the 0.5 s
        # of locked samples the pre-step mean names.
        cfg = replace(
            default_cfg,
            run=replace(default_cfg.run, temp_step_k=0.0, temp_step_time_s=0.3,
                        temp_step_duration_s=1.5),
        )
        report = run_temp_step_experiment(cfg, tmp_path)
        by_name = {c.name: c for c in report.criteria}
        assert by_name["delta_control"].passed
        assert not by_name["pre_step_window"].passed
        assert 0.2 < by_name["pre_step_window"].measured < 0.3
        assert "post_step_window" not in by_name
        assert not report.passed

    def test_step_means_average_locked_samples(self, default_cfg, tmp_path):
        # The config of test_step_before_a_locked_window_fails: the pre-step
        # window also holds samples from before the lock.
        cfg = replace(
            default_cfg,
            run=replace(default_cfg.run, temp_step_k=0.0, temp_step_time_s=0.3,
                        temp_step_duration_s=1.5),
        )
        report = run_temp_step_experiment(cfg, tmp_path)
        meta, columns = read_locklog(tmp_path / "temp_step_timeseries.csv")
        t, locked = locked_samples(tmp_path / "temp_step_timeseries.csv")
        control = np.array([float(v) for v in columns["control_v"]])
        detuning = np.array([float(v) for v in columns["detuning_hz"]])
        pre = locked & (t >= 0.3 - 0.5) & (t < 0.3)
        post = locked & (t >= t[-1] - 0.5)
        assert 0 < np.count_nonzero(pre) < np.count_nonzero(t < 0.3)
        assert report.measured["delta_control_v"] == np.mean(control[post]) - np.mean(control[pre])
        assert report.measured["final_detuning_offset_hz"] == (
            np.mean(detuning[post]) - float(meta["lock_point_hz"]))

    def test_lock_lost_for_the_post_step_window(self, default_cfg, tmp_path):
        # A 0.5 K step rails the control, and the lock is lost for good well
        # before the last 0.5 s: there is no locked sample to average.
        cfg = replace(
            default_cfg,
            run=replace(default_cfg.run, temp_step_k=0.5, temp_step_time_s=0.3,
                        temp_step_duration_s=1.2),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_temp_step_experiment(cfg, tmp_path)
        by_name = {c.name: c for c in report.criteria}
        assert list(by_name) == ["locked_before_step", "lock_held", "pre_step_window",
                                 "post_step_window"]
        assert not by_name["lock_held"].passed
        assert by_name["post_step_window"].measured == 0.0
        assert "delta_control_v" not in report.measured
        assert not report.passed

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

    def test_short_run_fails_steady_window(self, default_cfg, tmp_path):
        cfg = replace(default_cfg, run=replace(default_cfg.run, fluor_duration_s=0.1))
        report = run_fluorescence_experiment(cfg, tmp_path)
        by_name = {c.name: c for c in report.criteria}
        assert by_name["locked_brightness"].passed
        assert not by_name["steady_window"].passed
        assert 0.0 < by_name["steady_window"].measured < 0.1
        assert not report.passed

    def test_lock_lost_for_the_steady_window(self, default_cfg, tmp_path):
        # With the polarity flipped the loop locks for one sample at a time;
        # at 0.25 s the last of these falls before the last 0.1 s.
        cfg = replace(
            default_cfg,
            lock=replace(default_cfg.lock, polarity="-1"),
            run=replace(default_cfg.run, fluor_duration_s=0.25),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_fluorescence_experiment(cfg, tmp_path)
        assert [(c.name, c.passed, c.measured) for c in report.criteria] == [
            ("steady_window", False, 0.0)]
        assert report.measured == {}
        assert not report.passed

    def test_monotone_decrease(self, fluorescence_run):
        report, _ = fluorescence_run
        assert {c.name: c for c in report.criteria}["monotone_decrease"].passed


def read_locklog(csv_path):
    """The metadata and the columns of a written time-series CSV, as text."""
    lines = csv_path.read_text().splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    lines = [ln for ln in lines if not ln.startswith("#")]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    return meta, {name: [r[i] for r in rows] for i, name in enumerate(header)}


def locked_samples(csv_path):
    """Times and locked flags of the samples of a written time-series CSV."""
    _, columns = read_locklog(csv_path)
    return (np.array([float(v) for v in columns["t_s"]]),
            np.array([p == "locked" for p in columns["phase"]], dtype=bool))


def assert_window_covered(report, judged, name, csv_path, window, window_s, dt):
    """A report that judges the criterion `judged` over a window either
    fails the criterion `name` or saw locked samples over all of the window,
    recounted from its time series."""
    by_name = {c.name: c for c in report.criteria}
    if judged not in by_name:
        assert not report.passed
        return
    t, locked = locked_samples(csv_path)
    covered = np.count_nonzero(locked & window(t))
    assert (name in by_name) == (covered < round(window_s / dt))
    if name in by_name:
        assert not by_name[name].passed and not report.passed


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    dt_s=strategies.floats(1e-4, 4e-4),
    lock_s=strategies.floats(0.02, 1.3),
    fluor_s=strategies.floats(0.02, 0.3),
    step_duration_s=strategies.floats(0.05, 1.2),
    step_frac=strategies.floats(0.0, 1.0),
)
def test_windowed_criteria_see_their_whole_window(tmp_path, dt_s, lock_s, fluor_s,
                                                  step_duration_s, step_frac):
    # Coarse steps and short runs: a criterion over a window of lock must
    # not pass on part of it.
    try:
        cfg = parse_config(patched_config(**{
            "dt_s=1.0e-4": f"dt_s={dt_s!r}",
            "lock_duration_s=1.2": f"lock_duration_s={lock_s!r}",
            "fluor_duration_s=0.3": f"fluor_duration_s={fluor_s!r}",
            "temp_step_duration_s=13.0": f"temp_step_duration_s={step_duration_s!r}",
            "temp_step_time_s=1.0": f"temp_step_time_s={step_frac * step_duration_s!r}",
        }))
    except ConfigError:
        return
    report = run_lock_experiment(cfg, tmp_path / "lock")
    assert_window_covered(report, "post_lock_rms_error", "post_lock_window",
                          tmp_path / "lock" / "lock_timeseries.csv",
                          lambda t: t >= t[-1] - 1.0, 1.0, dt_s)

    t_step = cfg.run.temp_step_time_s
    report = run_temp_step_experiment(cfg, tmp_path / "step")
    csv_path = tmp_path / "step" / "temp_step_timeseries.csv"
    assert_window_covered(report, "delta_control", "pre_step_window", csv_path,
                          lambda t: (t >= t_step - 0.5) & (t < t_step), 0.5, dt_s)
    assert_window_covered(report, "delta_control", "post_step_window", csv_path,
                          lambda t: t >= t[-1] - 0.5, 0.5, dt_s)

    # The fluorescence run writes no time series; the lock run of the same
    # duration is the same closed loop, and writes it.
    report = run_fluorescence_experiment(cfg, tmp_path / "fluor")
    run_lock_experiment(replace(cfg, run=replace(cfg.run, lock_duration_s=fluor_s)),
                        tmp_path / "fluor")
    assert_window_covered(report, "locked_brightness", "steady_window",
                          tmp_path / "fluor" / "lock_timeseries.csv",
                          lambda t: t >= t[-1] - 0.1, 0.1, dt_s)


def reference_phases(log):
    """The locked flags and phase history of a log, by a loop over its samples."""
    history, prev = [], None
    for i, p in enumerate(log.phase):
        if p != prev:
            history.append({"phase": p, "t_s": float(log.t[i])})
            prev = p
    return [p == "locked" for p in log.phase], history


def transition_records(phases):
    """(step, phase) for each sample whose phase differs from the one before."""
    return [(k, p) for k, p in enumerate(phases) if k == 0 or p != phases[k - 1]]


def assert_phase_pass_matches_reference(log):
    # One record per run of one phase, each inside the log.
    assert log.transitions == transition_records(log.phase)
    locked, history = _phases(log)
    expected_locked, expected_history = reference_phases(log)
    assert locked.dtype == bool and locked.tolist() == expected_locked
    assert history == expected_history


@strategies.composite
def legal_phase_sequences(draw):
    """Phase logs that follow LEGAL_TRANSITIONS from any first phase (a run
    may start locked)."""
    n = draw(strategies.integers(0, 60))
    phases = [draw(strategies.sampled_from(list(LEGAL_TRANSITIONS)))][:n]
    for _ in range(n - 1):
        phases.append(draw(strategies.sampled_from(LEGAL_TRANSITIONS[phases[-1]])))
    return phases


@settings(max_examples=200, deadline=None)
@given(phases=legal_phase_sequences(), dt=strategies.floats(1e-6, 1e-2))
@example(phases=[], dt=1e-4)
@example(phases=["locked"], dt=1e-4)
def test_phase_pass_matches_reference_loop(phases, dt):
    validate_phase_sequence(phases)
    n = len(phases)
    zeros = np.zeros(n)
    log = TimeSeriesLog(np.arange(n) * dt, zeros, zeros, zeros, zeros,
                        transition_records(phases), {})
    assert log.phase == tuple(phases)
    assert_phase_pass_matches_reference(log)


def test_phase_pass_on_a_relocking_run(default_cfg, table):
    # The golden scenario polarity_flipped_relocks.
    cfg = default_cfg
    log = closed_loop_run(
        table, cfg.medium, cfg.plant, cfg.ramp, cfg.pid, replace(cfg.lock, polarity="-1"),
        duration=0.3, dt=cfg.run.dt_s, seed=cfg.noise.seed, detector_noise_v=cfg.noise.sigma_v,
    )
    assert [h["phase"] for h in _phases(log)[1]].count("locked") >= 2
    assert_phase_pass_matches_reference(log)


@pytest.mark.parametrize("pid, lock, start_locked, duration, phases", [
    # With a hold time of one step, engaging -> locked at the step that
    # aborts: that step and its record are not logged.
    ({"kp": float("nan")}, {"hold_time": 1e-4}, False, 0.1, ["sweeping"] * 40 + ["engaging"]),
    # Aborted at step 0: nothing is logged, not even the initial phase.
    ({"kp": float("nan")}, {}, True, 0.1, []),
    # Engaged at step 0: its record replaces the initial phase's.
    ({}, {"sweep_time": 1e-4}, False, 1e-3, ["engaging"] * 10),
])
def test_phase_records_of_short_runs(default_cfg, table, pid, lock, start_locked, duration,
                                     phases):
    cfg = default_cfg
    log = closed_loop_run(
        table, cfg.medium, cfg.plant, cfg.ramp, replace(cfg.pid, **pid),
        replace(cfg.lock, **lock), duration=duration, dt=1e-4, noise_enabled=False,
        start_locked=start_locked,
    )
    assert log.meta["aborted"] == ("kp" in pid)
    assert log.phase == tuple(phases)
    assert_phase_pass_matches_reference(log)


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
        assert _top_peaks(signal, 0, 400, spacing=1)[:2] == [100, 106]
        assert _top_peaks(signal, 0, 400, spacing=31)[:2] == [100, 301]

    def test_symmetric_export_is_ambiguous(self, table, default_cfg, tmp_path):
        # Two mirror-image Doppler valleys with one saturation feature each:
        # either valley order maps the two peaks onto the two calibration
        # features equally well, so the slope's sign cannot be told.
        k = np.arange(4096.0)
        valleys = sum(0.5 * np.exp(-(((k - c) / 300) ** 2)) for c in (1024, 3071))
        bumps = sum(0.05 * np.exp(-(((k - c) / 8) ** 2)) for c in (1024, 3071))
        reference = 1.0 - valleys
        probe = reference + bumps
        path = tmp_path / "symmetric.csv"
        path.write_text(
            "time_s,reference_v,probe_v\n"
            + "".join(f"{t!r},{r!r},{p!r}\n" for t, r, p in
                      zip((k * 1e-5).tolist(), reference.tolist(), probe.tolist())),
            encoding="utf-8",
        )
        icfg = replace(default_cfg.ingest, time_column="time_s")
        with pytest.raises(IngestError, match="ambiguous.*relative margin 0"):
            ingest_scope_csv(path, table, icfg)
        # One more feature in the second valley breaks the tie.
        extra = probe + 0.02 * np.exp(-(((k - 2900) / 8) ** 2))
        path.write_text(
            "time_s,reference_v,probe_v\n"
            + "".join(f"{t!r},{r!r},{p!r}\n" for t, r, p in
                      zip((k * 1e-5).tolist(), reference.tolist(), extra.tolist())),
            encoding="utf-8",
        )
        got = ingest_scope_csv(path, table, icfg)
        assert got.meta["calibration"]["order_margin"] > 0.01

    def test_missing_column_rejected(self, sweep_run, table, default_cfg):
        _, out = sweep_run
        # sweep_trace.csv has 4 columns: index 7 is past its end, and -1
        # would count from it.
        for column in ("nonexistent", "7", "-1"):
            icfg = replace(default_cfg.ingest, probe_column=column)
            with pytest.raises(IngestError, match=column):
                ingest_scope_csv(out / "sweep_trace.csv", table, icfg)


def numeric_rows(count, start=0):
    return "".join(f"{k * 0.5!r},{k + 1.0!r},{-k!r}\n" for k in range(start, start + count))


def write_source(tmp_path, text):
    path = tmp_path / "src.csv"
    path.write_text(text, encoding="utf-8")
    return path


def parse(tmp_path, text):
    """(header, rows) of `text` as the scope reader returns them."""
    _, header, rows = read_series_csv(write_source(tmp_path, text))
    return header, rows


def ingest(tmp_path, text, table, cfg):
    return ingest_scope_csv(write_source(tmp_path, text), table, cfg.ingest)


class TestScopeCsvParsing:
    def test_non_numeric_row_names_its_line(self, tmp_path, table, default_cfg):
        text = "time_s,reference_v,probe_v\n" + numeric_rows(20) + "0.5,oops,1\n" + numeric_rows(3)
        with pytest.raises(IngestError, match=r"src\.csv: line 22\b"):
            ingest(tmp_path, text, table, default_cfg)

    def test_ragged_rows_rejected(self, tmp_path, table, default_cfg):
        text = numeric_rows(10) + "1.0,2.0\n" + numeric_rows(10)
        with pytest.raises(IngestError, match=r"line 11: ragged"):
            ingest(tmp_path, text, table, default_cfg)

    def test_too_few_rows_rejected(self, tmp_path, table, default_cfg):
        with pytest.raises(IngestError, match=r"too few data rows \(15\)"):
            ingest(tmp_path, "t,r,p\n" + numeric_rows(15), table, default_cfg)

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
    def test_non_finite_value_names_its_line(self, tmp_path, table, default_cfg, value):
        text = "t,r,p\n# note\n" + numeric_rows(20) + f"1.0,{value},2.0\n" + numeric_rows(3)
        with pytest.raises(IngestError, match=r"src\.csv: line 23: non-finite"):
            ingest(tmp_path, text, table, default_cfg)

    def test_comments_only_rejected(self, tmp_path, table, default_cfg):
        with pytest.raises(IngestError, match=r"too few data rows \(0\)"):
            ingest(tmp_path, "# nothing\n\n  # here\n", table, default_cfg)
        with pytest.raises(IngestError, match=r"too few data rows \(0\)"):
            ingest(tmp_path, "t,r,p\n# nothing\n", table, default_cfg)

    def test_headerless_rows(self, tmp_path):
        header, data = parse(tmp_path, numeric_rows(16))
        assert header is None
        assert data.shape == (16, 3)


@strategies.composite
def commented_trace_csvs(draw):
    """sas-trace/1 text of random float rows with blank lines, '#' lines and
    trailing comments mixed in; returns (lines, rows, line number of each row)."""
    finite = strategies.floats(allow_nan=False, allow_infinity=False)
    level = strategies.floats(min_value=0.0, allow_infinity=False)
    axis = sorted(draw(strategies.lists(finite, min_size=2, max_size=24, unique=True)))
    rows = [[x, draw(level), draw(level), draw(finite)] for x in axis]
    noise = strategies.lists(strategies.sampled_from(["", "  ", "# note", "  #", " # a, b"]),
                             max_size=2)
    comment = strategies.sampled_from(["", " # trigger", "# x,1"])
    lines = [*draw(noise), "# format=sas-trace/1", *draw(noise),
             "detuning_hz,reference_v,probe_v,differential_v" + draw(comment)]
    linenos = []
    for row in rows:
        lines += draw(noise)
        lines.append(",".join(map(repr, row)) + draw(comment))
        linenos.append(len(lines))
    return lines, np.array(rows), linenos


@strategies.composite
def clean_series_csvs(draw):
    """(text, padded): CSV text with leading blank and `# key=value` lines, an
    optional header and at least one row of finite floats, with no blank or
    '#' line after the header, and whether a cell of a row has blanks."""
    finite = strategies.floats(allow_nan=False, allow_infinity=False)
    width = draw(strategies.integers(1, 4))
    pad = strategies.sampled_from(["", " ", "\t"])
    head = draw(strategies.lists(strategies.sampled_from(
        ["", "  ", "# format=sas-test/1", "  # seed = 7", "#note"]), max_size=3))
    if draw(strategies.booleans()):
        head.append(",".join(draw(pad) + f"c{i}" for i in range(width)))
    rows = draw(strategies.lists(strategies.lists(finite, min_size=width, max_size=width),
                                 min_size=1, max_size=12))
    body = [",".join(draw(pad) + repr(v) + draw(pad) for v in row) for row in rows]
    return "\n".join(head + body) + "\n", any(" " in row or "\t" in row for row in body)


@strategies.composite
def plain_bodies(draw, min_width=1):
    """(head, rows, eol): a `# key=value` line or none and a header, then rows
    of cells in the plain grammar `[+-]digits[.digits][(e|E)[+-]digits]`,
    with '\n' or '\r\n' line ends. Some cells have 19 digits, which numpy's
    int64 parser holds, and some 20, which it does not."""
    finite = strategies.floats(allow_nan=False, allow_infinity=False)
    moderate = strategies.floats(-1e300, 1e300)     # "%.17e" would round max to inf
    digits = strategies.one_of(strategies.integers(10**18, 9 * 10**18 - 1),
                               strategies.integers(10**19, 10**20 - 1)).map(str)
    cell = strategies.one_of(
        finite.map(repr),
        strategies.sampled_from(["5e-324", "1.7976931348623157e308", "-0.0", ".5", "5.", "+5",
                                 "-7", "0", "1E+05", "2.5e-07"]),
        strategies.integers(-10**6, 10**6).map(str),
        strategies.tuples(moderate, strategies.sampled_from(["%.6E", "%+.3e", "%.17e"]))
        .map(lambda pair: pair[1] % pair[0]),
        strategies.floats(-1e7, 1e7).map("%.10f".__mod__),
        strategies.tuples(digits, strategies.integers(0, 20))
        .map(lambda pair: pair[0][:pair[1]] + "." + pair[0][pair[1]:]),
    )
    width = draw(strategies.integers(min_width, 4))
    rows = draw(strategies.lists(strategies.lists(cell, min_size=width, max_size=width),
                                 min_size=1, max_size=12))
    head = ["# format=sas-test/1"] * draw(strategies.booleans()) + [
        ",".join(f"c{i}" for i in range(width))]
    return head, rows, draw(strategies.sampled_from(["\n", "\r\n"]))


def plain_text(head, rows, eol):
    return eol.join(head + [",".join(row) for row in rows]) + eol


def spy_loadtxt(calls):
    """np.loadtxt patched to append the `comments` of each call to `calls`."""
    loadtxt = np.loadtxt

    def spy(lines, **kwargs):
        calls.append(kwargs["comments"])
        return loadtxt(lines, **kwargs)

    return mock.patch.object(np, "loadtxt", spy)


class TestSeriesCsvProperties:
    """read_series_csv, alone and under ingest_scope_csv."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(commented_trace_csvs())
    def test_clean_rows_read_back_exactly(self, tmp_path, case):
        lines, rows, _ = case
        header, data = parse(tmp_path, "\n".join(lines) + "\n")
        assert header == ["detuning_hz", "reference_v", "probe_v", "differential_v"]
        assert data.tobytes() == rows.tobytes()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(commented_trace_csvs(), strategies.data())
    def test_corrupt_cell_names_its_line(self, tmp_path, table, default_cfg, case, data):
        lines, rows, linenos = case
        k = data.draw(strategies.integers(0, len(rows) - 1))
        column = data.draw(strategies.integers(0, 3))
        corruption = data.draw(strategies.sampled_from(["abc", "nan", "inf", None]))
        body, sep, comment = lines[linenos[k] - 1].partition("#")
        cells = body.strip().split(",")
        if corruption is None:
            del cells[column]
        else:
            cells[column] = corruption
        lines[linenos[k] - 1] = ",".join(cells) + sep + comment
        text = "\n".join(lines) + "\n"
        with pytest.raises(ValueError, match=f"^line {linenos[k]}: "):
            read_series_csv(write_source(tmp_path, text))
        path = re.escape(str(tmp_path / "src.csv"))
        with pytest.raises(IngestError, match=f"^{path}: line {linenos[k]}: "):
            ingest(tmp_path, text, table, default_cfg)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(clean_series_csvs())
    def test_clean_body_reads_as_the_filtered_one(self, tmp_path, case):
        # A plain body takes the plain route, and a padded one np.loadtxt's;
        # a '#' on the last row sends the same rows down the filter route.
        text, padded = case
        calls = []
        loadtxt = np.loadtxt

        def spy(lines, **kwargs):
            calls.append((lines, kwargs["comments"]))
            return loadtxt(lines, **kwargs)

        clean, commented = tmp_path / "clean.csv", tmp_path / "commented.csv"
        clean.write_text(text, encoding="utf-8")
        commented.write_text(text[:-1] + " # c\n", encoding="utf-8")
        with mock.patch.object(np, "loadtxt", spy):
            meta, header, rows = read_series_csv(clean)
            assert calls == ([(clean, None)] if padded else [])
            calls.clear()
            filtered = read_series_csv(commented)
            assert [comments for _, comments in calls] == [None, "#"]
            assert calls[0][0] == commented
        assert (meta, header) == filtered[:2]
        assert rows.shape == filtered[2].shape
        assert rows.tobytes() == filtered[2].tobytes()

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("text, meta, header, count", [
        ("\n  \n# format=x\n\t\n#note\n \n# gain = 2\n\nt,r,p\n" + numeric_rows(4),
         {"format": "x", "gain": "2"}, ["t", "r", "p"], 4),
        ("# format=x\n\n" + numeric_rows(4), {"format": "x"}, None, 4),
        (numeric_rows(4), {}, None, 4),
        ("# format=x\n \nt,r,p\n", {"format": "x"}, ["t", "r", "p"], 0),
    ], ids=["blank-lines-among-comments", "numeric-first-row", "no-head", "header-without-rows"])
    def test_head_reads_as_the_filtered_one(self, tmp_path, eol, text, meta, header, count):
        # The plain route reads a body with rows and '\n' or '\r\n' line ends,
        # and np.loadtxt the rest. The head's physical lines are skipped, as
        # readline counts them, at every line end; the commented copy takes
        # the filter route.
        commented = text[:-1] + " # c\n" if count else text + "# c\n"
        plain = [] if count and eol != "\r" else [None]
        results = []
        for body, routes in ((text, plain), (commented, [None, "#"])):
            path = tmp_path / "head.csv"
            path.write_bytes(body.replace("\n", eol).encode("utf-8"))
            calls = []
            with spy_loadtxt(calls):
                results.append(read_series_csv(path))
            assert calls == routes
        (got_meta, got_header, rows), filtered = results
        assert (got_meta, got_header) == filtered[:2] == (meta, header)
        assert rows.shape == filtered[2].shape
        assert rows.tobytes() == filtered[2].tobytes()
        assert len(rows) == count

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plain_bodies(), strategies.sampled_from([1, 7, 64, spectrum._READ_BLOCK]),
           strategies.integers(0, 2))
    def test_plain_body_reads_as_loadtxt(self, tmp_path, case, block, empty_lines):
        # The plain route reads every body in its grammar, and empty last
        # lines, in blocks of any size, bit for bit as np.loadtxt does; a
        # 20-digit cell declines.
        head, rows, eol = case
        path = tmp_path / "plain.csv"
        path.write_bytes((plain_text(head, rows, eol) + eol * empty_lines).encode("utf-8"))
        expected = np.loadtxt(path, delimiter=",", skiprows=len(head), ndmin=2)
        calls = []
        with spy_loadtxt(calls), mock.patch.object(spectrum, "_READ_BLOCK", block):
            _, header, got = read_series_csv(path)
        saturates = any(sum(map(str.isdigit, c.lower().partition("e")[0])) >= 20
                        for row in rows for c in row)
        assert calls == ([None] if saturates else [])
        assert header == head[-1].split(",")
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.parametrize("cell", ["1.2.3", "1e", "e5", "--1", "1-2", "", "1 2"])
    @given(case=plain_bodies(min_width=2), data=strategies.data())
    def test_malformed_cell_declines_and_names_its_line(self, tmp_path, cell, case, data):
        head, rows, eol = case
        k = data.draw(strategies.integers(0, len(rows) - 1))
        rows[k][data.draw(strategies.integers(0, len(rows[k]) - 1))] = cell
        calls = []
        with spy_loadtxt(calls), pytest.raises(ValueError, match=f"^line {len(head) + k + 1}: "):
            read_series_csv(write_source(tmp_path, plain_text(head, rows, eol)))
        assert calls == [None, "#"]

    def test_key_value_line_after_the_header_reaches_meta(self, tmp_path):
        text = "# format=x\nt,r,p\n" + numeric_rows(4) + "# gain = 2\n" + numeric_rows(4, start=4)
        meta, header, rows = read_series_csv(write_source(tmp_path, text))
        assert meta == {"format": "x", "gain": "2"}
        assert header == ["t", "r", "p"]
        assert rows.tobytes() == np.array([[k * 0.5, k + 1.0, -k] for k in range(8)]).tobytes()


INGEST_ROWS = 8192


def write_scope_export(path, trace, time_s, rows_reversed, **extra):
    """A `time_s,reference_v,probe_v` scope export of `trace` on the axis `time_s`,
    with one more column for each of `extra`, by name."""
    columns = [time_s, trace.reference, trace.probe, *extra.values()]
    if rows_reversed:
        columns = [c[::-1] for c in columns]
    path.write_text(
        ",".join(["time_s", "reference_v", "probe_v", *extra]) + "\n"
        + "".join(",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist() for c in columns))),
        encoding="utf-8",
    )


def noisy_sweep(cfg, table, noise_seed):
    start, stop, _ = cfg.sweep
    noise = replace(cfg.noise, enabled=True, seed=noise_seed)
    return synthesize_sweep(table, cfg.medium, (start, stop, INGEST_ROWS), noise)


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


@pytest.mark.parametrize("orientation", ["rising", "falling"])
@pytest.mark.parametrize("noise_seed", [1, 2])
def test_row_reversed_export_ingests_identically(default_cfg, table, tmp_path, orientation,
                                                  noise_seed):
    # Either row order of one export gives the same trace, byte for byte:
    # ingest turns the columns round to rising detuning, whatever the order.
    trace = noisy_sweep(default_cfg, table, noise_seed)
    sign = 1.0 if orientation == "rising" else -1.0
    time_s = 0.01 + sign * 0.02 * np.arange(INGEST_ROWS) / (INGEST_ROWS - 1)
    icfg = replace(default_cfg.ingest, time_column="time_s")
    got = []
    for rows_reversed in (False, True):
        path = tmp_path / f"scope-{rows_reversed}.csv"
        write_scope_export(path, trace, time_s, rows_reversed)
        got.append(ingest_scope_csv(path, table, icfg))
    forward, backward = got
    assert forward.meta == backward.meta
    assert math.copysign(1.0, forward.meta["calibration"]["slope_hz_per_unit"]) == sign
    for name in ("detuning_axis", "reference", "probe", "differential"):
        assert getattr(forward, name).tobytes() == getattr(backward, name).tobytes()


class TestIngestOptions:
    """The ingest keys that the bundled config leaves off."""

    @staticmethod
    def slope(trace):
        return trace.meta["calibration"]["slope_hz_per_unit"]

    @pytest.fixture
    def export(self, default_cfg, table, tmp_path):
        """(path, differential): an export with `2 * (probe - reference)` in
        its own `twice_differential_v` column."""
        trace = noisy_sweep(default_cfg, table, 1)
        differential = 2 * (trace.probe - trace.reference)
        time_s = 0.01 + 0.02 * np.arange(INGEST_ROWS) / (INGEST_ROWS - 1)
        path = tmp_path / "scope.csv"
        write_scope_export(path, trace, time_s, False, twice_differential_v=differential)
        return path, differential

    def test_known_separation_scales_the_slope(self, default_cfg, table, export):
        path, _ = export
        icfg = replace(default_cfg.ingest, time_column="time_s")
        separation = abs(find_feature(table, icfg.feature_b).detuning
                         - find_feature(table, icfg.feature_a).detuning)
        slopes = [self.slope(ingest_scope_csv(path, table, replace(icfg, known_separation_hz=s)))
                  for s in (0.0, separation, 2 * separation)]
        assert slopes[1].hex() == slopes[0].hex()
        assert slopes[2] == 2 * slopes[0]

    def test_named_differential_column(self, default_cfg, table, export):
        path, differential = export
        icfg = replace(default_cfg.ingest, time_column="time_s")
        computed = ingest_scope_csv(path, table, icfg)
        named = ingest_scope_csv(path, table,
                                 replace(icfg, differential_column="twice_differential_v"))
        assert named.differential.tobytes() == differential.tobytes()
        assert self.slope(named) == self.slope(computed)


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
        ("span_hz=3.0e9", "span_hz=1e308"),
        ("base_detuning_hz=5.0e8", "base_detuning_hz=1e20"),
        ("base_detuning_hz=5.0e8", "base_detuning_hz=1e26"),
        ("base_detuning_hz=5.0e8", "base_detuning_hz=1e308"),
        # the marker window, Rb87:F2's lines +- window_margin_hz, must lie
        # inside the sweep
        ("start_hz=-1.4e9", "start_hz=1.4e9"),
        ("start_hz=-1.4e9", "start_hz=-0.0"),
        ("start_hz=-1.4e9", "start_hz=-1.4e7"),
        ("start_hz=-1.4e9", "start_hz=-4.2e8"),
        ("stop_hz=2.4e9", "stop_hz=2.4e7"),
        ("stop_hz=2.4e9", "stop_hz=0"),
        ("window_margin_hz=6.0e7", "window_margin_hz=6e9"),
        # an inverted marker window
        ("window_margin_hz=6.0e7", "window_margin_hz=-3e8"),
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

    @pytest.mark.parametrize("patch, message", [
        # 942.4 MHz lies inside the sweep, but 4096 samples over 141 GHz
        # leave too few in its search window.
        (("start_hz=-1.4e9", "start_hz=-1.4e11"),
         "run failed: feature at 942.4 MHz has 2 samples in its +-36 MHz search window, "
         "fewer than 5; raise [sweep] samples\n"),
        (("stop_hz=2.4e9", "stop_hz=7.2e8"),
         "run failed: feature at 942.4 MHz outside trace span\n"),
    ])
    def test_feature_search_window_failure_exit_three(self, patch, message, tmp_path, capsys):
        old, new = patch
        cfg = tmp_path / "window.cfg"
        cfg.write_text(patched_config(**{old: new}))
        code = cli_main(["--config", str(cfg), "--out", str(tmp_path), "sweep"])
        assert code == 3
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("patch, message, sweep_code", [
        ({"saturation_s=2.0": "saturation_s=0.0"}, "produces no error signal", 1),
        ({"dip_contrast=0.3": "dip_contrast=0.0"}, "produces no error signal", 1),
        ({"temperature_k=312.65": "temperature_k=3.1265",
          "crossover_enhancement=5.0": "crossover_enhancement=500"}, "no usable zero crossing", 1),
        ({"base_detuning_hz=5.0e8": "base_detuning_hz=1.4166e9"}, "no usable zero crossing", 0),
        # the error map's low end on the target
        ({"base_detuning_hz=5.0e8": "base_detuning_hz=1416674050.0"},
         "no usable zero crossing", 0),
    ])
    def test_unlockable_target_exit_two(self, patch, message, sweep_code, tmp_path, capsys):
        # The noise-free error map decides these before the loop runs, and
        # its error names the config and the key. The sweep builds no map
        # and still runs to its verdict.
        cfg, out = tmp_path / "unlockable.cfg", tmp_path / "out"
        cfg.write_text(patched_config(**patch))
        code = cli_main(["--config", str(cfg), "--out", str(out), "lock"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: [lock] target_feature 'Rb87:F2->co(2,3)' ")
        assert message in err
        assert not (out / "lock_timeseries.csv").exists()
        assert cli_main(["--config", str(cfg), "--out", str(out), "sweep"]) == sweep_code

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


def spy_calls(monkeypatch, module, name):
    """Calls of module.name, recorded wherever the package binds the function."""
    original = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for bound in [m for key, m in sys.modules.items() if key.startswith("saslock.")]:
        if vars(bound).get(name) is original:
            monkeypatch.setattr(bound, name, spy)
    return calls


class TestOncePerConfig:
    """A command parses the line table once and builds the noise-free error
    map at most once, and only when it locks."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return {"maps": spy_calls(monkeypatch, servo, "build_error_map"),
                "tables": spy_calls(monkeypatch, atomic_data, "parse_line_data")}

    def test_all_builds_one_map(self, calls, tmp_path):
        # Shorter runs than the default's: the counts do not depend on them.
        cfg = tmp_path / "short.cfg"
        cfg.write_text(patched_config(**{"lock_duration_s=1.2": "lock_duration_s=0.3",
                                         "temp_step_duration_s=13.0": "temp_step_duration_s=1.5"}))
        code = cli_main(["--config", str(cfg), "--out", str(tmp_path / "out"), "all"])
        assert code in (0, 1)
        assert [p.name for p in sorted((tmp_path / "out").glob("*_report.json"))] == [
            "fluorescence_report.json", "lock_report.json", "sweep_report.json",
            "temp_step_report.json"]
        assert (len(calls["maps"]), len(calls["tables"])) == (1, 1)

    def test_sweep_and_analyze_build_no_map(self, calls, sweep_run, tmp_path):
        assert cli_main(["--out", str(tmp_path), "sweep"]) == 0
        _, out = sweep_run
        assert cli_main(["--out", str(tmp_path), "analyze", str(out / "sweep_trace.csv")]) == 0
        assert (len(calls["maps"]), len(calls["tables"])) == (0, 2)

    def test_config_load_builds_no_map(self, calls):
        cfg = load_default_config()
        assert (len(calls["maps"]), len(calls["tables"])) == (0, 1)
        assert cfg.load_table() is cfg.load_table()
        assert cfg.error_map is cfg.error_map
        assert (len(calls["maps"]), len(calls["tables"])) == (1, 1)
        # A copy is a new config object, with its own table and map.
        copy = replace(cfg, lock=replace(cfg.lock, mode="differential"))
        assert copy.error_map[2] != cfg.error_map[2]
        assert (len(calls["maps"]), len(calls["tables"])) == (2, 2)
