"""Scenario configuration, the four bench experiments, and trace ingestion.

Configs are flat, sectioned ``key=value`` text files (format
``sas-config/1``), validated strictly: unknown sections or keys are
rejected, and every value passes through its owning module's invariants
before anything runs. A bundled ``defaults/default.cfg`` pins the exact
parameters the acceptance suite depends on.

Each experiment is a pure function of (config, seed): reports carry the
config hash and seed, artifact paths are relative to the output directory,
and no wall-clock time enters any artifact, so reruns are byte-identical.
"""

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property, partial
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from .atomic_data import (
    LineTable,
    find_feature,
    load_default_line_data,
    load_line_data,
    manifold_features,
    parse_manifold_name,
    transitions,
)
from .errors import (
    ConfigError,
    IngestError,
    LineDataError,
    NoSubDopplerFeaturesError,
    UnknownFeatureError,
    UnlockableError,
)
from .plant import PlantConfig, RampConfig
from .servo import (
    PHASES,
    Disturbances,
    LockConfig,
    PidConfig,
    TimeSeriesLog,
    build_error_map,
    closed_loop_run,
    error_map_extent,
    write_locklog_csv,
)
from .spectrum import (
    TRACE_FORMAT_VERSION,
    MarkerSelection,
    MediumConfig,
    NoiseConfig,
    RunningMedian,
    SweepTrace,
    depth_metrics,
    extract_markers,
    find_peaks,
    isotope_doppler_fwhm,
    moving_average,
    odd_window,
    read_series_csv,
    sha256_16,
    synthesize_sweep,
    window_outside,
    write_trace_csv,
)
from .svgplot import render_line_plot

CONFIG_FORMAT_VERSION = "sas-config/1"
REPORT_FORMAT_VERSION = "sas-report/1"

# Standard-value thresholds (percent) for the three depth ratios, plus a
# published experimental column echoed for reference only: those raw-voltage
# ratios exceed 100% and cannot be reproduced by the documented convention on
# a transmission trace.
STANDARD_DEPTH_THRESHOLDS = {"doppler": 30.0, "hyperfine": 2.5, "crossover": 15.0}
EXPERIMENTAL_DEPTHS_REFERENCE = {"doppler": 236.0, "hyperfine": 38.3, "crossover": 256.0}

# Resource caps, checked before anything runs: the sample count of a sweep
# and of the error map behind every closed-loop run, and a closed-loop
# run's step count (duration / dt). The bundled temperature step takes
# 130,000 steps; a 262,144-sample sweep runs in a few seconds.
MAX_SWEEP_SAMPLES = 2**22
MAX_RUN_STEPS = 10**7

# Each of the lock supervisor's time scales must last at least this many
# steps of dt_s. At ten steps the detector filter's alpha = dt / filter_time
# is at most 0.1, and no phase can begin and end within a step or two.
MIN_STEPS_PER_LOCK_TIME = 10

# Ingest calibration refuses to choose between the two valley orders when
# their best scores differ by less than this fraction: rounding would then
# decide the sign of the slope.
CALIBRATION_MIN_MARGIN = 1e-6


@dataclass(frozen=True)
class MarkerConfig:
    manifold: str = "Rb87:F2"            # isotope:F<g> whose valley defines B
    window_margin_hz: float = 60.0e6     # window padding past the manifold's lines
    hyperfine_feature: str = "Rb85:F3->F'=2"
    crossover_feature: str = "Rb87:F2->co(2,3)"

    def selection(self):
        return MarkerSelection(self.hyperfine_feature, self.crossover_feature)


@dataclass(frozen=True)
class RunConfig:
    dt_s: float = 1.0e-4
    lock_duration_s: float = 1.2
    temp_step_k: float = 0.1
    temp_step_time_s: float = 1.0
    temp_step_duration_s: float = 13.0
    fluor_duration_s: float = 0.3
    fluor_low_detuning_fwhm: float = 0.5
    fluor_large_detuning_fwhm: float = 3.0

    def __post_init__(self):
        for name in ("dt_s", "lock_duration_s", "temp_step_duration_s", "fluor_duration_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("lock_duration_s", "temp_step_duration_s", "fluor_duration_s"):
            if getattr(self, name) / self.dt_s > MAX_RUN_STEPS:
                raise ValueError(f"{name} / dt_s exceeds {MAX_RUN_STEPS} steps")
        # The step must fall on a logged time: the response is measured after it.
        t_last = (round(self.temp_step_duration_s / self.dt_s) - 1) * self.dt_s
        if not 0 < self.temp_step_time_s <= t_last:
            raise ValueError(f"temp_step_time_s must be in (0, {t_last!r}], the last logged "
                             f"time of the run, got {self.temp_step_time_s!r}")


@dataclass(frozen=True)
class IngestConfig:
    time_column: str = "detuning_hz"
    reference_column: str = "reference_v"
    probe_column: str = "probe_v"
    differential_column: str = ""        # empty: computed as probe - reference
    feature_a: str = "Rb87:F2->co(2,3)"
    feature_b: str = "Rb85:F3->co(3,4)"
    known_separation_hz: float = 0.0     # 0: use the table separation


@dataclass(frozen=True)
class ScenarioConfig:
    lines_path: str = "bundled"
    medium: MediumConfig = MediumConfig()
    sweep: tuple = (-1.4e9, 2.4e9, 4096)
    noise: NoiseConfig = NoiseConfig(enabled=True, seed=20240917)
    markers: MarkerConfig = MarkerConfig()
    plant: PlantConfig = PlantConfig(base_detuning=0.5e9)
    ramp: RampConfig = RampConfig()
    pid: PidConfig = PidConfig()
    lock: LockConfig = LockConfig()
    run: RunConfig = RunConfig()
    ingest: IngestConfig = IngestConfig()
    # The file or name the config was parsed from; not part of its value.
    source: str = field(default="<config>", repr=False, compare=False)

    def load_table(self) -> LineTable:
        """The line table, parsed on the first call for this config object."""
        return self._table

    @cached_property
    def _table(self):
        if self.lines_path == "bundled":
            return load_default_line_data()
        return load_line_data(self.lines_path)

    @cached_property
    def error_map(self):
        """The noise-free error map of `build_error_map` that `closed_loop_run`
        takes, built on first use for this config object. It is a pure
        function of the config, so a target it cannot lock on is a ConfigError.
        """
        try:
            return build_error_map(self.load_table(), self.medium, self.plant, self.ramp,
                                   self.lock)
        except UnlockableError as exc:
            raise ConfigError(
                f"{self.source}: [lock] target_feature {exc.feature!r} {exc.reason}") from None

    def fingerprint(self):
        return sha256_16(repr(self))


# --- config file schema: section -> {file key -> (field, type)} ---
# Each config dataclass held by a ScenarioConfig field is a section, and its
# fields are the section's keys, cast by their annotations. A field that
# defaults to None is resolved by the runner and is not a key. [lines] and
# [sweep] fill plain ScenarioConfig fields.

# Fields whose file key differs from the field name, mostly by a unit suffix.
_FILE_KEYS = {
    "temperature": "temperature_k",
    "sigma_v": "detector_sigma_v",
    "k_current": "k_current_hz_per_a",
    "k_temp": "k_temp_hz_per_k",
    "k_ctrl": "k_ctrl_a_per_v",
    "linewidth": "linewidth_hz",
    "mode_hop_span": "mode_hop_span_hz",
    "drift_rate": "drift_rate_k_per_s",
    "base_detuning": "base_detuning_hz",
    "bias_current": "bias_current_a",
    "temp_reference": "temp_reference_k",
    "tau_thermal": "tau_thermal_s",
    "frequency": "frequency_hz",
    "span": "span_hz",
    "offset": "offset_v",
    "output_min": "output_min_v",
    "output_max": "output_max_v",
    "hold_time": "hold_time_s",
    "loss_time": "loss_time_s",
    "relock_delay": "relock_delay_s",
    "sweep_time": "sweep_time_s",
    "filter_time": "filter_time_s",
}

_SECTIONS = {f.name: f.type for f in fields(ScenarioConfig) if is_dataclass(f.default)}

_SCHEMA = {
    "lines": {"path": ("lines_path", str)},
    "sweep": {
        "start_hz": ("start", float),
        "stop_hz": ("stop", float),
        "samples": ("samples", int),
    },
    **{
        section: {_FILE_KEYS.get(f.name, f.name): (f.name, f.type)
                  for f in fields(cls) if f.default is not None}
        for section, cls in _SECTIONS.items()
    },
}


def _cast(text, kind):
    """The value of type `kind` (float, int, bool or str) that `text` spells."""
    if kind is bool:
        t = text.strip().lower()
        if t in ("true", "yes", "on", "1"):
            return True
        if t in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    value = kind(text)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_config(text, source="<string>") -> ScenarioConfig:
    """Parse and fully validate a sas-config/1 file."""
    sections = {}
    current = None
    fmt_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not fmt_seen:
            if line != f"format={CONFIG_FORMAT_VERSION}":
                raise ConfigError(
                    f"{source}: line {lineno}: expected 'format={CONFIG_FORMAT_VERSION}' header"
                )
            fmt_seen = True
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"{source}: line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ConfigError(f"{source}: line {lineno}: key outside any section")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}: line {lineno}: expected key=value")
        key = key.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"{source}: line {lineno}: unknown key {key!r} in [{current}]")
        field_name, kind = _SCHEMA[current][key]
        try:
            sections[current][field_name] = _cast(value.strip(), kind)
        except ValueError as exc:
            raise ConfigError(f"{source}: line {lineno}: bad value for {key!r}: {exc}") from None
    if not fmt_seen:
        raise ConfigError(f"{source}: missing format header")

    kwargs = sections.pop("lines", {})
    if "sweep" in sections:
        s = sections["sweep"]
        start, stop, samples = ScenarioConfig.sweep
        kwargs["sweep"] = (s.get("start", start), s.get("stop", stop), s.get("samples", samples))
    for section, cls in _SECTIONS.items():
        if section in sections:
            try:
                kwargs[section] = cls(**sections[section])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{source}: invalid [{section}] section: {exc}") from None

    cfg = ScenarioConfig(**kwargs, source=source)
    validate_config(cfg)
    return cfg


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"), source=str(path))


def default_config_path():
    return resources.files("saslock").joinpath("defaults/default.cfg")


def load_default_config() -> ScenarioConfig:
    return parse_config(
        default_config_path().read_text(encoding="utf-8"), source="bundled:default.cfg"
    )


def validate_config(cfg: ScenarioConfig):
    """Cross-field checks the per-dataclass invariants cannot see."""
    source = cfg.source
    start, stop, n = cfg.sweep
    if not stop > start:
        raise ConfigError(f"{source}: sweep bounds inverted: [{start}, {stop}]")
    if not 16 <= int(n) <= MAX_SWEEP_SAMPLES:
        raise ConfigError(f"{source}: sweep needs 16 to {MAX_SWEEP_SAMPLES} samples, got {n}")
    map_lo, map_hi, map_samples = error_map_extent(cfg.plant, cfg.ramp)
    if map_samples > MAX_SWEEP_SAMPLES:
        raise ConfigError(
            f"{source}: ramp span_hz={cfg.ramp.span!r} needs an error map of "
            f"{map_samples:.4g} samples, more than {MAX_SWEEP_SAMPLES}"
        )
    if cfg.plant.k_ctrl == 0:
        raise ConfigError(f"{source}: plant k_ctrl must be nonzero")
    dt = cfg.run.dt_s
    for name in ("sweep_time", "hold_time", "loss_time", "filter_time", "relock_delay"):
        value = getattr(cfg.lock, name)
        if value / dt < MIN_STEPS_PER_LOCK_TIME:
            raise ConfigError(
                f"{source}: [lock] {name}_s={value!r} is {value / dt:.4g} steps of "
                f"dt_s={dt!r}; it needs at least {MIN_STEPS_PER_LOCK_TIME}"
            )
    try:
        table = cfg.load_table()
        hyperfine = find_feature(table, cfg.markers.hyperfine_feature)
        crossover = find_feature(table, cfg.markers.crossover_feature)
        target = find_feature(table, cfg.lock.target_feature)
        for name in (cfg.ingest.feature_a, cfg.ingest.feature_b):
            find_feature(table, name)
        marker_window = manifold_window(table, cfg)
    except (LineDataError, UnknownFeatureError, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{source}: {exc}") from None
    if marker_window[0] >= marker_window[1]:  # extract_markers' run-time check
        raise ConfigError(f"{source}: [markers] window {marker_window!r} Hz is inverted")
    if window_outside(marker_window, start, stop):  # the sweep's axis ends at exactly these
        raise ConfigError(f"{source}: [markers] window {marker_window!r} Hz around "
                          f"{cfg.markers.manifold} lies outside the sweep [{start!r}, {stop!r}] Hz")
    if not map_lo <= target.detuning <= map_hi:  # the map's axis ends at exactly these
        raise ConfigError(f"{source}: [lock] target_feature {cfg.lock.target_feature!r} at "
                          f"{target.detuning / 1e6:.1f} MHz lies outside the error map "
                          f"[{map_lo!r}, {map_hi!r}] Hz")
    if hyperfine.is_crossover:
        raise ConfigError(f"{source}: [markers] hyperfine_feature must name a direct line, "
                          f"got {cfg.markers.hyperfine_feature!r}")
    if not crossover.is_crossover:
        raise ConfigError(f"{source}: [markers] crossover_feature must name a crossover, "
                          f"got {cfg.markers.crossover_feature!r}")


def manifold_window(table: LineTable, cfg: ScenarioConfig):
    """Detuning window (lo, hi) around the marker manifold's direct lines."""
    lines = transitions(table, *parse_manifold_name(cfg.markers.manifold))
    margin = cfg.markers.window_margin_hz
    return (lines[0].detuning - margin, lines[-1].detuning + margin)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Criterion:
    name: str
    passed: bool
    measured: float
    requirement: str
    units: str = ""


@dataclass
class ExperimentReport:
    experiment: str
    passed: bool
    criteria: list
    measured: dict
    artifacts: list
    config_hash: str
    seed: int
    format: str = REPORT_FORMAT_VERSION
    notes: dict = field(default_factory=dict)

    def to_json(self):
        payload = {**vars(self), "criteria": [vars(c) for c in self.criteria]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        rows = ["criterion,passed,measured,requirement,units"]
        for c in self.criteria:
            rows.append(f"{c.name},{c.passed},{c.measured!r},{c.requirement},{c.units}")
        return "\n".join(rows) + "\n"


def _write_artifact(out_dir, name, content):
    """Write `content` to out_dir/name and return the name.

    content is the text, or a function that writes it into the open file.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", encoding="utf-8") as f:
        if callable(content):
            content(f)
        else:
            f.write(content)
    return name


def _finalize(out_dir, fmt, experiment, cfg, seed, criteria, measured, artifacts, notes=None):
    """Build an experiment's report, passed when every criterion passed, and write it."""
    report = ExperimentReport(
        experiment, all(c.passed for c in criteria), criteria, measured, artifacts,
        cfg.fingerprint(), seed, notes=notes or {},
    )
    ext = "json" if fmt == "json" else "csv"
    text = report.to_json() if fmt == "json" else report.to_csv()
    name = _write_artifact(out_dir, f"{report.experiment}_report.{ext}", text)
    report.artifacts.append(name)
    return report


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_sweep_experiment(cfg: ScenarioConfig, out_dir, fmt="json", seed=None) -> ExperimentReport:
    """Full two-isotope sweep: trace, depth markers, and the three depth ratios."""
    table = cfg.load_table()
    noise = cfg.noise if seed is None else replace(cfg.noise, seed=seed)
    trace = synthesize_sweep(table, cfg.medium, cfg.sweep, noise)
    window = manifold_window(table, cfg)

    criteria = []
    measured = {}
    notes = {
        "experimental_reference_pct": EXPERIMENTAL_DEPTHS_REFERENCE,
        "experimental_reference_note": (
            "reference only; raw-voltage ratios above 100% are not reproducible "
            "under the documented marker convention"
        ),
    }

    artifacts = []
    csv_name = _write_artifact(out_dir, "sweep_trace.csv", partial(write_trace_csv, trace))
    artifacts.append(csv_name)

    annotations = [
        (ln.detuning, ln.f_excited_label)
        for ln in table.lines
        if window[0] <= ln.detuning <= window[1]
    ]
    svg = render_line_plot(
        trace.detuning_axis / 1e9,
        [
            ("reference", trace.reference),
            ("probe", trace.probe),
            ("differential", trace.differential),
        ],
        title="saturated absorption sweep",
        x_label="detuning (GHz)",
        y_label="detector signal (V)",
        annotations=[(d / 1e9, lbl) for d, lbl in annotations],
    )
    artifacts.append(_write_artifact(out_dir, "sweep_trace.svg", svg))

    try:
        markers = extract_markers(trace, window, cfg.markers.selection(), table, cfg.medium)
        depths = depth_metrics(markers)
    except NoSubDopplerFeaturesError as exc:
        notes["no_sub_doppler_features"] = str(exc)
        criteria.append(Criterion("sub_doppler_features_present", False, 0.0, "> 0 features"))
        return _finalize(out_dir, fmt, "sweep", cfg, noise.seed, criteria, measured, artifacts,
                         notes)

    census = len(markers.features)
    expected_census = len(manifold_features(table, *parse_manifold_name(cfg.markers.manifold)))

    measured["markers_v"] = {"A": markers.A, "B": markers.B, "C": markers.C, "D": markers.D}
    measured["subdoppler_feature_count"] = census
    for name, threshold in STANDARD_DEPTH_THRESHOLDS.items():
        depth = getattr(depths, f"{name}_depth")
        measured[f"{name}_depth_pct"] = depth
        criteria.append(Criterion(f"{name}_depth", depth > threshold, depth, f"> {threshold}", "%"))
    if not cfg.noise.enabled:
        # The exact feature count is only meaningful without detector noise,
        # which can bury the weakest hyperfine line.
        criteria.append(
            Criterion(
                "subdoppler_feature_census",
                census == expected_census,
                float(census),
                f"== {expected_census}",
                "features",
            )
        )

    return _finalize(out_dir, fmt, "sweep", cfg, noise.seed, criteria, measured, artifacts, notes)


def _phases(log: TimeSeriesLog):
    """(locked, history) of a run: locked[i] is true where sample i is in the
    locked phase, and history gives each run of one phase as {"phase", "t_s"},
    one per transition record of the log.
    """
    history = [{"phase": phase, "t_s": float(log.t[k])} for k, phase in log.transitions]
    return log.phase_codes() == PHASES.index("locked"), history


def _run_closed_loop(cfg, seed, duration, disturbances=Disturbances()):
    """The closed-loop run of `cfg`, on the config's error map."""
    return closed_loop_run(
        cfg.load_table(),
        cfg.medium,
        cfg.plant,
        cfg.ramp,
        cfg.pid,
        cfg.lock,
        duration=duration,
        dt=cfg.run.dt_s,
        seed=seed,
        detector_noise_v=cfg.noise.sigma_v,
        noise_enabled=cfg.noise.enabled,
        disturbances=disturbances,
        error_map=cfg.error_map,
    )


def run_lock_experiment(cfg: ScenarioConfig, out_dir, fmt="json", seed=None) -> ExperimentReport:
    """Sweep, engage, and hold the lock; judge error and control stability."""
    seed = cfg.noise.seed if seed is None else seed
    log = _run_closed_loop(cfg, seed, cfg.run.lock_duration_s)

    artifacts = _write_locklog(log, out_dir, "lock_timeseries")

    locked, history = _phases(log)
    criteria = []
    measured = {
        "pre_lock_error_peak_v": log.meta["pre_lock_error_peak_v"],
        "lock_point_hz": log.meta["lock_point_hz"],
        "phase_history": history,
    }
    final_locked = len(locked) > 0 and bool(locked[-1])
    criteria.append(
        Criterion("lock_achieved", final_locked, float(final_locked), "final phase locked")
    )
    completed = _check_completed(log, criteria, measured)
    if completed and final_locked:
        window = locked & (log.t >= log.t[-1] - 1.0)
        rms = float(np.sqrt(np.mean(log.error[window] ** 2)))
        peak = log.meta["pre_lock_error_peak_v"]
        ctrl = log.control[window]
        pkpk = float(ctrl.max() - ctrl.min())
        full_scale = cfg.pid.output_max - cfg.pid.output_min
        drift = float(ctrl[-1] - ctrl[0])
        measured.update(
            post_lock_rms_error_v=rms,
            post_lock_rms_error_frac_of_peak=rms / peak,
            post_lock_control_pkpk_v=pkpk,
            post_lock_control_drift_v=drift,
        )
        criteria.append(Criterion("post_lock_rms_error", rms < 0.02 * peak, rms / peak * 100.0,
                                  "< 2% of pre-lock error peak", "%"))
        criteria.append(Criterion("post_lock_control_stability", pkpk < 0.01 * full_scale,
                                  pkpk / full_scale * 100.0, "< 1% of full scale over 1 s", "%"))
        _check_window(criteria, "post_lock_window", window, 1.0, cfg.run.dt_s)
    return _finalize(out_dir, fmt, "lock", cfg, seed, criteria, measured, artifacts)


def run_temp_step_experiment(cfg: ScenarioConfig, out_dir, fmt="json", seed=None) -> ExperimentReport:
    """Apply a temperature step while locked; measure the servo's response."""
    seed = cfg.noise.seed if seed is None else seed
    t_step = cfg.run.temp_step_time_s
    disturbances = Disturbances(temp_step_k=cfg.run.temp_step_k, temp_step_time_s=t_step)
    log = _run_closed_loop(cfg, seed, cfg.run.temp_step_duration_s, disturbances)

    artifacts = _write_locklog(log, out_dir, "temp_step_timeseries")

    locked, history = _phases(log)
    criteria = []
    measured = {"phase_history": history, "temp_step_k": cfg.run.temp_step_k}

    step_idx = int(np.searchsorted(log.t, t_step))
    locked_before = step_idx > 0 and bool(locked[step_idx - 1])
    criteria.append(
        Criterion("locked_before_step", locked_before, float(locked_before), "locked at step time")
    )
    completed = _check_completed(log, criteria, measured)
    if not (locked_before and completed):
        return _finalize(out_dir, fmt, "temp_step", cfg, seed, criteria, measured, artifacts)

    held = bool(locked[-1])
    criteria.append(Criterion("lock_held", held, float(held), "locked at end of run"))

    # pre holds at least the locked sample before the step; post is empty
    # when the lock was lost for all of the last 0.5 s.
    pre = locked & (log.t >= t_step - 0.5) & (log.t < t_step)
    post = locked & (log.t >= log.t[-1] - 0.5)
    if post.any():
        lock_point = log.meta["lock_point_hz"]
        delta_v = float(np.mean(log.control[post]) - np.mean(log.control[pre]))
        net_gain = cfg.plant.k_ctrl * cfg.plant.k_current
        expected_v = -cfg.run.temp_step_k * cfg.plant.k_temp / net_gain

        after = log.t >= t_step
        resettle_band = 0.5e6
        smooth_dev = np.abs(
            moving_average(log.detuning[after] - lock_point, odd_window(0.01 / cfg.run.dt_s))
        )
        outside = np.nonzero(smooth_dev > resettle_band)[0]
        final_offset = float(np.mean(log.detuning[post]) - lock_point)
        measured.update(
            delta_control_v=delta_v,
            expected_delta_control_v=expected_v,
            max_detuning_excursion_hz=float(np.max(np.abs(log.detuning[after] - lock_point))),
            resettle_time_s=float(log.t[after][outside[-1]] - t_step) if len(outside) else 0.0,
            final_detuning_offset_hz=final_offset,
        )

        if expected_v == 0:
            tol = 0.02 * abs(cfg.plant.k_temp * 0.1 / net_gain)  # noise floor for a zero step
            criteria.append(
                Criterion("delta_control", abs(delta_v) < tol, delta_v, f"|dV| < {tol:.3g}", "V")
            )
        else:
            ok = abs(delta_v - expected_v) <= 0.02 * abs(expected_v)
            criteria.append(
                Criterion("delta_control", ok, delta_v, f"{expected_v:.4g} V +/- 2%", "V")
            )
        criteria.append(Criterion("detuning_resettled", abs(final_offset) < resettle_band,
                                  final_offset, "|offset| < 0.5 MHz", "Hz"))
    _check_window(criteria, "pre_step_window", pre, 0.5, cfg.run.dt_s)
    _check_window(criteria, "post_step_window", post, 0.5, cfg.run.dt_s)
    return _finalize(out_dir, fmt, "temp_step", cfg, seed, criteria, measured, artifacts)


def fluorescence_proxy(delta_hz, doppler_fwhm_hz):
    """Normalized Doppler-profile brightness at detuning offset delta."""
    # Not lineshape.gaussian_kernel: its rounding differs in the last bit at
    # some offsets, which would change the fluorescence report.
    x = 2.0 * delta_hz / doppler_fwhm_hz
    return math.exp(-math.log(2.0) * x * x)


def run_fluorescence_experiment(cfg: ScenarioConfig, out_dir, fmt="json", seed=None) -> ExperimentReport:
    """Brightness of a downstream vapor cell: locked vs small vs large offset."""
    seed = cfg.noise.seed if seed is None else seed
    table = cfg.load_table()
    feature = find_feature(table, cfg.lock.target_feature)
    fwhm = isotope_doppler_fwhm(table, cfg.medium, feature.isotope)

    log = _run_closed_loop(cfg, seed, cfg.run.fluor_duration_s)
    locked, _ = _phases(log)
    criteria, measured = [], {}
    if not locked.any():
        criteria.append(Criterion("lock_achieved", False, 0.0, "locked during run"))
    if not (_check_completed(log, criteria, measured) and locked.any()):
        return _finalize(out_dir, fmt, "fluorescence", cfg, seed, criteria, measured, [])

    steady = locked & (log.t >= log.t[-1] - 0.1)
    if not steady.any():
        # Lost for all of the last 0.1 s: no locked detuning to average.
        _check_window(criteria, "steady_window", steady, 0.1, cfg.run.dt_s)
        return _finalize(out_dir, fmt, "fluorescence", cfg, seed, criteria, measured, [])
    delta_locked = abs(float(np.mean(log.detuning[steady])) - log.meta["lock_point_hz"])
    delta_low = cfg.run.fluor_low_detuning_fwhm * fwhm
    delta_large = cfg.run.fluor_large_detuning_fwhm * fwhm

    f_locked = fluorescence_proxy(delta_locked, fwhm)
    f_low = fluorescence_proxy(delta_low, fwhm)
    f_large = fluorescence_proxy(delta_large, fwhm)

    grid = np.linspace(0.0, 4.0 * fwhm, 257)
    values = np.asarray([fluorescence_proxy(d, fwhm) for d in grid])
    strictly_decreasing = bool(np.all(np.diff(values) < 0))

    measured = {
        "doppler_fwhm_hz": fwhm,
        "delta_locked_hz": delta_locked,
        "brightness_locked": f_locked,
        "brightness_low_detuning": f_low,
        "brightness_large_detuning": f_large,
    }
    criteria = [
        Criterion("locked_brightness", f_locked >= 0.99, f_locked, ">= 0.99"),
        Criterion("half_width_brightness", abs(f_low - 0.5) <= 0.005, f_low,
                  "0.5 +/- 1% at half-FWHM offset"),
        Criterion("large_detuning_dark", f_large < 1e-10, f_large, "< 1e-10 at 3 FWHM"),
        Criterion("monotone_decrease", strictly_decreasing, float(strictly_decreasing),
                  "F strictly decreasing in |delta|"),
    ]
    _check_window(criteria, "steady_window", steady, 0.1, cfg.run.dt_s)
    return _finalize(out_dir, fmt, "fluorescence", cfg, seed, criteria, measured, [])


def _check_window(criteria, name, window, window_s, dt):
    """Fail a report whose criteria over a window of lock saw less of it.

    `window` masks the locked samples inside the window; at the step dt
    they must cover it. Like run_completed, the criterion is added only
    when it fails.
    """
    covered = int(np.count_nonzero(window))
    if covered < round(window_s / dt):
        criteria.append(Criterion(name, False, covered * dt,
                                  f"locked samples cover {window_s} s", "s"))


def _check_completed(log, criteria, measured):
    """Fail a report whose closed-loop run aborted, recording why it stopped."""
    if log.meta["aborted"]:
        measured["abort_reason"] = log.meta["abort_reason"]
        criteria.append(
            Criterion("run_completed", False, 0.0, "no abort before the end of the run")
        )
    return not log.meta["aborted"]


def _write_locklog(log, out_dir, stem):
    """Write a run's time series as CSV and, unless it is empty, as SVG."""
    artifacts = [_write_artifact(out_dir, f"{stem}.csv", partial(write_locklog_csv, log))]
    if len(log):
        svg = render_line_plot(
            log.t,
            [
                ("error (V)", log.error),
                ("control (V)", log.control),
            ],
            title="lock time series",
            x_label="time (s)",
            y_label="signal (V)",
        )
        artifacts.append(_write_artifact(out_dir, f"{stem}.svg", svg))
    return artifacts


# ---------------------------------------------------------------------------
# Scope CSV ingestion
# ---------------------------------------------------------------------------


def _column(header, data, key, source):
    if key == "":
        return None
    try:
        index = int(key)
    except ValueError:
        pass
    else:
        if not 0 <= index < data.shape[1]:
            raise IngestError(f"{source}: column {key!r} not found "
                              f"(the file has {data.shape[1]} columns)")
        return data[:, index]
    if header is None or key not in header:
        raise IngestError(f"{source}: column {key!r} not found (header: {header})")
    return data[:, header.index(key)]


def ingest_scope_csv(path, table: LineTable, ingest_cfg: IngestConfig) -> SweepTrace:
    """Calibrate an oscilloscope export into a detuning-domain SweepTrace.

    The horizontal axis (time or anything monotone) is mapped to detuning by
    a two-point linear fit: the named calibration features are located as the
    strongest saturation peak inside the first and last Doppler valley of the
    trace and pinned to their table detunings (or to feature_a's detuning
    plus the known separation, when one is supplied).
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"scope CSV not found: {path}")
    try:
        _, header, data = read_series_csv(path)
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None
    if len(data) < 16:
        raise IngestError(f"{path}: too few data rows ({len(data)})")

    time = _column(header, data, ingest_cfg.time_column, str(path))
    reference = _column(header, data, ingest_cfg.reference_column, str(path))
    probe = _column(header, data, ingest_cfg.probe_column, str(path))
    differential = _column(header, data, ingest_cfg.differential_column, str(path))
    if time is None or reference is None or probe is None:
        raise IngestError(f"{path}: time/reference/probe columns are required")
    if differential is None:
        differential = probe - reference

    steps = np.diff(time)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise IngestError(f"{path}: time axis is not monotone")
    rising = slice(None, None, 1 if steps[0] > 0 else -1)

    feat_a = find_feature(table, ingest_cfg.feature_a)
    feat_b = find_feature(table, ingest_cfg.feature_b)
    if feat_a.detuning == feat_b.detuning:
        raise IngestError("calibration features must be distinct")

    nu_a = feat_a.detuning
    t_a, t_b, margin = _calibration_feature_times(
        time[rising], probe[rising], differential[rising], table, nu_a, feat_b.detuning
    )
    if ingest_cfg.known_separation_hz:
        sep = ingest_cfg.known_separation_hz * math.copysign(
            1.0, feat_b.detuning - feat_a.detuning
        )
    else:
        sep = feat_b.detuning - feat_a.detuning
    slope = sep / (t_b - t_a)
    detuning = nu_a + (time - t_a) * slope
    # Views, as calibration's: the trace is turned round once, so that detuning rises.
    order = slice(None, None, 1 if detuning[-1] > detuning[0] else -1)
    meta = {
        "format": TRACE_FORMAT_VERSION,
        "noise_seed": None,
        "config_hash": "ingested",
        "samples_per_ramp": len(time),
        "calibration": {
            "feature_a": ingest_cfg.feature_a,
            "feature_b": ingest_cfg.feature_b,
            "slope_hz_per_unit": slope,
            "order_margin": margin,
        },
    }
    return SweepTrace(detuning[order], reference[order], probe[order], differential[order], meta)


def _valley_regions(time, probe):
    """Index ranges of Doppler valleys, from a dip-suppressed envelope.

    The envelope is the probe's running median over n/64 samples (plain
    averaging lets a strong crossover punch through the valley threshold and
    split one valley into fragments); `_envelope_valleys` reads the valleys
    off it. Nearby fragments are merged and slivers dropped.
    """
    n = len(time)
    _, max_depth, valley = _envelope_valleys(probe, odd_window(n // 64, 5))
    if max_depth <= 0:
        raise IngestError("no absorption valleys in the trace")

    edges = np.diff(valley.astype(np.int8), prepend=0, append=0)
    regions = np.column_stack(
        [np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)]
    ).tolist()
    min_gap = max(3, n // 256)
    merged = []
    for region in regions:
        if merged and region[0] - merged[-1][1] < min_gap:
            merged[-1][1] = region[1]
        else:
            merged.append(region)
    return [r for r in merged if r[1] - r[0] >= min_gap]


def _envelope_valleys(probe, window):
    """Baseline, deepest depth and valley mask of the probe's envelope.

    The envelope is the edge-padded running median over `window` samples.
    The baseline is its 90th percentile, the off-resonance level (the median
    sags when valleys and their wings cover much of the sweep); a sample's
    depth is baseline - envelope, and it lies in a valley where the depth
    exceeds a fifth of the deepest. The envelope is never formed: all three
    are the values np.percentile and the depth comparison give on it, bit
    for bit, from a few of its order statistics.
    """
    envelope = RunningMedian(probe, window)
    n = len(probe)
    # np.percentile interpolates between the k-th and (k + 1)-th smallest
    # medians; a stand-in array holding them at those ranks keeps its bytes.
    k = int((n - 1) * 0.9)
    low, count = envelope.order_statistic(k)
    high = low if k + 1 == n or count > k + 1 else envelope.order_statistic(k + 1)[0]
    stand_in = np.full(n, low)
    stand_in[k + 1:] = high
    baseline = float(np.percentile(stand_in, 90, overwrite_input=True))
    # baseline - v falls as v rises, in floating point too, so the deepest
    # depth is the smallest median's, and the valley medians are those at or
    # below the largest sample value whose depth passes the threshold.
    max_depth = baseline - envelope.order_statistic(0)[0]
    passing = np.count_nonzero(baseline - envelope.values > 0.2 * max_depth)
    if passing == 0:  # max_depth is 0, infinite or NaN
        return baseline, max_depth, np.zeros(n, dtype=bool)
    return baseline, max_depth, envelope.at_most(envelope.values[passing - 1])


def _calibration_feature_times(time, probe, differential, table, nu_a, nu_b):
    """Times of the two calibration features (at detunings nu_a, nu_b).

    The candidates are the four highest saturation peaks of the first and
    last Doppler valley. Valleys can hold near-equal peaks (the repump
    crossovers differ by well under a percent in amplitude), so every
    candidate pair is scored by how close the six highest peaks of every
    valley land to table features under that pair's two-point axis, and the
    best-scoring pair wins. Also returns the relative margin between the
    best scores of the two valley orders, and raises IngestError when it is
    below CALIBRATION_MIN_MARGIN.
    """
    n = len(time)
    regions = _valley_regions(time, probe)
    if len(regions) < 2:
        raise IngestError(f"need two Doppler valleys for calibration, found {len(regions)}")

    # Noise splits a smoothed feature's top into wiggles, so peaks closer
    # than the smoothing window count as one feature.
    window = odd_window(n // 512, 3)
    sub = np.abs(moving_average(differential, window))
    tops = [_top_peaks(sub, lo, hi, spacing=window) for lo, hi in regions]
    first, last = tops[0][:4], tops[-1][:4]
    all_peaks = sorted({k for peaks in tops for k in peaks})
    peak_times = time[np.asarray(all_peaks, dtype=int)]

    features = np.asarray(sorted({
        ln.detuning
        for iso, fg in table.manifolds()
        for ln in manifold_features(table, iso, fg)
    }))

    def score(ia, ib):
        slope = (nu_b - nu_a) / (time[ib] - time[ia])
        mapped = nu_a + (peak_times - time[ia]) * slope
        return float(np.abs(mapped[:, None] - features[None, :]).min(axis=1).sum())

    # Detuning may rise or fall with time, so feature_a may lie in either end
    # valley: pairs are scored in both orders, and each order keeps its best.
    # The second order holds the first's pairs reversed, so both or neither
    # have one.
    best = [
        min(((score(ia, ib), ia, ib) for ia, ib in pairs if time[ib] != time[ia]),
            key=lambda scored: scored[0], default=None)
        for pairs in (product(first, last), product(last, first))
    ]
    if best[0] is None:
        raise IngestError("calibration candidates collapse to one point")
    (score_a, *_), (score_b, *_) = best
    # Scores are sums of misses in Hz; the floor of 1 Hz per peak keeps two
    # near-perfect fits from dividing rounding error by rounding error.
    margin = abs(score_a - score_b) / max(score_a, score_b, float(len(peak_times)))
    if margin < CALIBRATION_MIN_MARGIN:
        raise IngestError(
            f"calibration is ambiguous: both valley orders fit the peaks alike "
            f"(scores {score_a!r} and {score_b!r} Hz, relative margin {margin:.3g})"
        )
    _, ia, ib = best[1] if score_b < score_a else best[0]
    return float(time[ia]), float(time[ib]), margin


def _top_peaks(signal, lo, hi, spacing):
    """Indices of the 6 highest peaks of signal[lo:hi], highest first.

    Of two peaks closer than `spacing` samples only the higher one counts.
    """
    seg = signal[lo:hi]
    peaks, props = find_peaks(seg, height=0.05 * float(seg.max()), distance=spacing)
    if len(peaks) == 0:
        raise IngestError("calibration valley holds no saturation features")
    order = np.argsort(props["peak_heights"])[::-1][:6]
    return [lo + int(peaks[i]) for i in order]
