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
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from importlib import resources
from itertools import chain, product
from pathlib import Path

import numpy as np
from scipy.signal import find_peaks

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
)
from .plant import PlantConfig, RampConfig
from .servo import (
    ERROR_MAP_MARGIN_HZ,
    ERROR_MAP_STEP_HZ,
    Disturbances,
    LockConfig,
    PidConfig,
    TimeSeriesLog,
    closed_loop_run,
    write_locklog_csv,
)
from .spectrum import (
    TRACE_FORMAT_VERSION,
    MarkerParams,
    MarkerSelection,
    MediumConfig,
    NoiseConfig,
    SweepTrace,
    depth_metrics,
    extract_markers,
    isotope_doppler_fwhm,
    moving_average,
    moving_median,
    odd_window,
    sha256_16,
    subdoppler_extrema,
    synthesize_sweep,
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

    def load_table(self) -> LineTable:
        if self.lines_path == "bundled":
            return load_default_line_data()
        return load_line_data(self.lines_path)

    def fingerprint(self):
        return sha256_16(repr(self))


# --- config file schema: section -> (constructor, {file key -> field, caster}) ---

def _bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


_SCHEMA = {
    "lines": {"path": ("lines_path", str)},
    "medium": {
        "temperature_k": ("temperature", _finite_float),
        "peak_optical_depth": ("peak_optical_depth", _finite_float),
        "saturation_s": ("saturation_s", _finite_float),
        "crossover_enhancement": ("crossover_enhancement", _finite_float),
        "dip_contrast": ("dip_contrast", _finite_float),
    },
    "sweep": {
        "start_hz": ("start", _finite_float),
        "stop_hz": ("stop", _finite_float),
        "samples": ("samples", int),
    },
    "noise": {
        "enabled": ("enabled", _bool),
        "seed": ("seed", int),
        "detector_sigma_v": ("sigma_v", _finite_float),
    },
    "markers": {
        "manifold": ("manifold", str),
        "window_margin_hz": ("window_margin_hz", _finite_float),
        "hyperfine_feature": ("hyperfine_feature", str),
        "crossover_feature": ("crossover_feature", str),
    },
    "plant": {
        "k_current_hz_per_a": ("k_current", _finite_float),
        "k_temp_hz_per_k": ("k_temp", _finite_float),
        "k_ctrl_a_per_v": ("k_ctrl", _finite_float),
        "linewidth_hz": ("linewidth", _finite_float),
        "mode_hop_span_hz": ("mode_hop_span", _finite_float),
        "drift_rate_k_per_s": ("drift_rate", _finite_float),
        "base_detuning_hz": ("base_detuning", _finite_float),
        "bias_current_a": ("bias_current", _finite_float),
        "temp_reference_k": ("temp_reference", _finite_float),
        "tau_thermal_s": ("tau_thermal", _finite_float),
    },
    "ramp": {
        "frequency_hz": ("frequency", _finite_float),
        "span_hz": ("span", _finite_float),
        "shape": ("shape", str),
        "enabled": ("enabled", _bool),
    },
    "pid": {
        "kp": ("kp", _finite_float),
        "ki": ("ki", _finite_float),
        "kd": ("kd", _finite_float),
        "offset_v": ("offset", _finite_float),
        "output_min_v": ("output_min", _finite_float),
        "output_max_v": ("output_max", _finite_float),
        "derivative_smoothing": ("derivative_smoothing", int),
    },
    "lock": {
        "target_feature": ("target_feature", str),
        "mode": ("mode", str),
        "polarity": ("polarity", str),
        "lock_threshold_frac": ("lock_threshold_frac", _finite_float),
        "loss_threshold_frac": ("loss_threshold_frac", _finite_float),
        "hold_time_s": ("hold_time", _finite_float),
        "loss_time_s": ("loss_time", _finite_float),
        "relock_delay_s": ("relock_delay", _finite_float),
        "sweep_time_s": ("sweep_time", _finite_float),
        "filter_time_s": ("filter_time", _finite_float),
    },
    "run": {
        "dt_s": ("dt_s", _finite_float),
        "lock_duration_s": ("lock_duration_s", _finite_float),
        "temp_step_k": ("temp_step_k", _finite_float),
        "temp_step_time_s": ("temp_step_time_s", _finite_float),
        "temp_step_duration_s": ("temp_step_duration_s", _finite_float),
        "fluor_duration_s": ("fluor_duration_s", _finite_float),
        "fluor_low_detuning_fwhm": ("fluor_low_detuning_fwhm", _finite_float),
        "fluor_large_detuning_fwhm": ("fluor_large_detuning_fwhm", _finite_float),
    },
    "ingest": {
        "time_column": ("time_column", str),
        "reference_column": ("reference_column", str),
        "probe_column": ("probe_column", str),
        "differential_column": ("differential_column", str),
        "feature_a": ("feature_a", str),
        "feature_b": ("feature_b", str),
        "known_separation_hz": ("known_separation_hz", _finite_float),
    },
}

_SECTION_BUILDERS = {
    "medium": ("medium", MediumConfig),
    "noise": ("noise", NoiseConfig),
    "markers": ("markers", MarkerConfig),
    "plant": ("plant", PlantConfig),
    "ramp": ("ramp", RampConfig),
    "pid": ("pid", PidConfig),
    "lock": ("lock", LockConfig),
    "run": ("run", RunConfig),
    "ingest": ("ingest", IngestConfig),
}


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
        field_name, caster = _SCHEMA[current][key]
        try:
            sections[current][field_name] = caster(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}: line {lineno}: bad value for {key!r}: {exc}") from None
    if not fmt_seen:
        raise ConfigError(f"{source}: missing format header")

    kwargs = {}
    if "lines" in sections:
        kwargs["lines_path"] = sections["lines"].get("lines_path", "bundled")
    if "sweep" in sections:
        s = sections["sweep"]
        defaults = ScenarioConfig().sweep
        kwargs["sweep"] = (
            s.get("start", defaults[0]),
            s.get("stop", defaults[1]),
            s.get("samples", defaults[2]),
        )
    for section, (attr, ctor) in _SECTION_BUILDERS.items():
        if section in sections:
            try:
                kwargs[attr] = ctor(**sections[section])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{source}: invalid [{section}] section: {exc}") from None

    cfg = ScenarioConfig(**kwargs)
    validate_config(cfg, source)
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


def validate_config(cfg: ScenarioConfig, source="<config>"):
    """Cross-field checks the per-dataclass invariants cannot see."""
    start, stop, n = cfg.sweep
    if not stop > start:
        raise ConfigError(f"{source}: sweep bounds inverted: [{start}, {stop}]")
    if not 16 <= int(n) <= MAX_SWEEP_SAMPLES:
        raise ConfigError(f"{source}: sweep needs 16 to {MAX_SWEEP_SAMPLES} samples, got {n}")
    map_samples = (cfg.ramp.span + 2 * ERROR_MAP_MARGIN_HZ) / ERROR_MAP_STEP_HZ
    if map_samples > MAX_SWEEP_SAMPLES:
        raise ConfigError(
            f"{source}: ramp span_hz={cfg.ramp.span!r} needs an error map of "
            f"{map_samples:.4g} samples, more than {MAX_SWEEP_SAMPLES}"
        )
    if cfg.plant.k_ctrl == 0:
        raise ConfigError(f"{source}: plant k_ctrl must be nonzero")
    try:
        table = cfg.load_table()
        hyperfine = find_feature(table, cfg.markers.hyperfine_feature)
        crossover = find_feature(table, cfg.markers.crossover_feature)
        for name in (cfg.lock.target_feature, cfg.ingest.feature_a, cfg.ingest.feature_b):
            find_feature(table, name)
        manifold_window(table, cfg)
    except (LineDataError, UnknownFeatureError, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{source}: {exc}") from None
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

    census = subdoppler_extrema(trace, window)
    expected_census = _expected_feature_count(table, cfg)

    measured["markers_v"] = {"A": markers.A, "B": markers.B, "C": markers.C, "D": markers.D}
    measured["subdoppler_feature_count"] = int(len(census))
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
                len(census) == expected_census,
                float(len(census)),
                f"== {expected_census}",
                "features",
            )
        )

    return _finalize(out_dir, fmt, "sweep", cfg, noise.seed, criteria, measured, artifacts, notes)


def _expected_feature_count(table, cfg):
    n = len(transitions(table, *parse_manifold_name(cfg.markers.manifold)))
    return n + n * (n - 1) // 2


def _phase_history(log: TimeSeriesLog):
    history = []
    prev = None
    for i, p in enumerate(log.phase):
        if p != prev:
            history.append({"phase": p, "t_s": float(log.t[i])})
            prev = p
    return history


def _run_closed_loop(cfg, seed, duration, disturbances=Disturbances()):
    table = cfg.load_table()
    return closed_loop_run(
        table,
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
    )


def run_lock_experiment(cfg: ScenarioConfig, out_dir, fmt="json", seed=None) -> ExperimentReport:
    """Sweep, engage, and hold the lock; judge error and control stability."""
    seed = cfg.noise.seed if seed is None else seed
    log = _run_closed_loop(cfg, seed, cfg.run.lock_duration_s)

    artifacts = _write_locklog(log, out_dir, "lock_timeseries")

    criteria = []
    measured = {
        "pre_lock_error_peak_v": log.meta["pre_lock_error_peak_v"],
        "lock_point_hz": log.meta["lock_point_hz"],
        "phase_history": _phase_history(log),
    }
    locked_mask = np.asarray([p == "locked" for p in log.phase])
    final_locked = len(log.phase) > 0 and log.phase[-1] == "locked"
    criteria.append(
        Criterion("lock_achieved", final_locked, float(final_locked), "final phase locked")
    )
    completed = _check_completed(log, criteria, measured)
    if completed and final_locked and locked_mask.any():
        window = locked_mask & (log.t >= log.t[-1] - 1.0)
        rms = float(np.sqrt(np.mean(log.error[window] ** 2)))
        peak = log.meta["pre_lock_error_peak_v"]
        ctrl = log.control[window]
        pkpk = float(ctrl.max() - ctrl.min())
        full_scale = cfg.pid.output_max - cfg.pid.output_min
        drift = float(ctrl[-1] - ctrl[0])
        measured.update(
            {
                "post_lock_rms_error_v": rms,
                "post_lock_rms_error_frac_of_peak": rms / peak,
                "post_lock_control_pkpk_v": pkpk,
                "post_lock_control_drift_v": drift,
            }
        )
        criteria.append(
            Criterion(
                "post_lock_rms_error",
                rms < 0.02 * peak,
                rms / peak * 100.0,
                "< 2% of pre-lock error peak",
                "%",
            )
        )
        criteria.append(
            Criterion(
                "post_lock_control_stability",
                pkpk < 0.01 * full_scale,
                pkpk / full_scale * 100.0,
                "< 1% of full scale over 1 s",
                "%",
            )
        )
    return _finalize(out_dir, fmt, "lock", cfg, seed, criteria, measured, artifacts)


def run_temp_step_experiment(cfg: ScenarioConfig, out_dir, fmt="json", seed=None) -> ExperimentReport:
    """Apply a temperature step while locked; measure the servo's response."""
    seed = cfg.noise.seed if seed is None else seed
    t_step = cfg.run.temp_step_time_s
    disturbances = Disturbances(temp_step_k=cfg.run.temp_step_k, temp_step_time_s=t_step)
    log = _run_closed_loop(cfg, seed, cfg.run.temp_step_duration_s, disturbances)

    artifacts = _write_locklog(log, out_dir, "temp_step_timeseries")

    criteria = []
    measured = {"phase_history": _phase_history(log), "temp_step_k": cfg.run.temp_step_k}

    step_idx = int(np.searchsorted(log.t, t_step))
    locked_before = step_idx > 0 and log.phase[step_idx - 1] == "locked"
    criteria.append(
        Criterion("locked_before_step", locked_before, float(locked_before), "locked at step time")
    )
    completed = _check_completed(log, criteria, measured)
    if not (locked_before and completed):
        return _finalize(out_dir, fmt, "temp_step", cfg, seed, criteria, measured, artifacts)

    lock_point = log.meta["lock_point_hz"]
    held = log.phase[-1] == "locked"
    criteria.append(Criterion("lock_held", held, float(held), "locked at end of run"))

    pre = (log.t >= t_step - 0.5) & (log.t < t_step)
    post = log.t >= log.t[-1] - 0.5
    delta_v = float(np.mean(log.control[post]) - np.mean(log.control[pre]))

    net_gain = cfg.plant.k_ctrl * cfg.plant.k_current
    expected_v = -cfg.run.temp_step_k * cfg.plant.k_temp / net_gain
    measured["delta_control_v"] = delta_v
    measured["expected_delta_control_v"] = expected_v

    after = log.t >= t_step
    excursion = float(np.max(np.abs(log.detuning[after] - lock_point)))
    resettle_band = 0.5e6
    smooth_dev = np.abs(
        moving_average(log.detuning[after] - lock_point, odd_window(0.01 / cfg.run.dt_s))
    )
    outside = np.nonzero(smooth_dev > resettle_band)[0]
    resettle_time = float(log.t[after][outside[-1]] - t_step) if len(outside) else 0.0
    final_offset = float(np.mean(log.detuning[post]) - lock_point)
    measured.update(
        {
            "max_detuning_excursion_hz": excursion,
            "resettle_time_s": resettle_time,
            "final_detuning_offset_hz": final_offset,
        }
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
    criteria.append(
        Criterion(
            "detuning_resettled",
            abs(final_offset) < resettle_band,
            final_offset,
            "|offset| < 0.5 MHz",
            "Hz",
        )
    )
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
    locked_mask = np.asarray([p == "locked" for p in log.phase])
    locked = bool(locked_mask.any())
    criteria, measured = [], {}
    if not locked:
        criteria.append(Criterion("lock_achieved", False, 0.0, "locked during run"))
    if not (_check_completed(log, criteria, measured) and locked):
        return _finalize(out_dir, fmt, "fluorescence", cfg, seed, criteria, measured, [])

    steady = locked_mask & (log.t >= log.t[-1] - 0.1)
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
        Criterion(
            "half_width_brightness",
            abs(f_low - 0.5) <= 0.005,
            f_low,
            "0.5 +/- 1% at half-FWHM offset",
        ),
        Criterion("large_detuning_dark", f_large < 1e-10, f_large, "< 1e-10 at 3 FWHM"),
        Criterion(
            "monotone_decrease", strictly_decreasing, float(strictly_decreasing), "F strictly decreasing in |delta|"
        ),
    ]
    return _finalize(out_dir, fmt, "fluorescence", cfg, seed, criteria, measured, [])


def run_all(cfg: ScenarioConfig, out_dir, fmt="json", seed=None):
    return [
        run_sweep_experiment(cfg, out_dir, fmt, seed),
        run_lock_experiment(cfg, out_dir, fmt, seed),
        run_temp_step_experiment(cfg, out_dir, fmt, seed),
        run_fluorescence_experiment(cfg, out_dir, fmt, seed),
    ]


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


def _parse_numeric_csv(path):
    """Rows of finite floats from a generic CSV file; returns (header or None, array).

    Blank lines and '#' comments, whole-line or trailing, are skipped. The
    first remaining line is the header when it is not all numbers, and
    np.loadtxt parses the rows after it straight from the file.
    """
    with open(path, encoding="utf-8") as f:
        # np.loadtxt would read a line of blanks, or blanks before '#', as a row
        content = (line for line in f if line.lstrip()[:1] not in ("", "#"))
        first = next(content, "")
        parts = [p.strip() for p in _body(first).split(",")]
        try:
            [float(p) for p in parts]
            header, rows = None, chain([first], content)
        except ValueError:
            header, rows = parts, content
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(rows, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise _bad_row(path, header) or IngestError(f"{path}: {exc}") from None
    if len(data) < 16:
        raise IngestError(f"{path}: too few data rows ({len(data)})")
    if not np.isfinite(data).all():
        raise _bad_row(path, header) or IngestError(f"{path}: non-finite values")
    return header, data


def _body(line):
    """A CSV line without its '#' comment and surrounding blanks."""
    return line.split("#", 1)[0].strip()


def _bad_row(path, header):
    """IngestError naming the first data line of `path` that is not a row of
    finite floats as wide as the first row, or None if every line is."""
    with open(path, encoding="utf-8") as f:
        lines = [(n, body) for n, body in enumerate(map(_body, f), start=1) if body]
    width = None
    for lineno, body in lines[header is not None:]:
        try:
            values = [float(p) for p in body.split(",")]
        except ValueError:
            return IngestError(f"{path}: line {lineno}: non-numeric row {body!r}")
        width = width or len(values)
        if len(values) != width:
            return IngestError(
                f"{path}: line {lineno}: ragged rows ({len(values)} values, first row {width})"
            )
        if not all(map(math.isfinite, values)):
            return IngestError(f"{path}: line {lineno}: non-finite value in row {body!r}")
    return None


def _column(header, data, key, source):
    if key == "":
        return None
    try:
        return data[:, int(key)]
    except ValueError:
        pass
    if header is None or key not in header:
        raise IngestError(f"{source}: column {key!r} not found (header: {header})")
    return data[:, header.index(key)]


def ingest_scope_csv(path, table: LineTable, ingest_cfg: IngestConfig,
                     params: MarkerParams = MarkerParams()) -> SweepTrace:
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
    header, data = _parse_numeric_csv(path)

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
    if steps[0] < 0:
        time, reference, probe, differential = (
            time[::-1].copy(), reference[::-1].copy(), probe[::-1].copy(), differential[::-1].copy()
        )

    feat_a = find_feature(table, ingest_cfg.feature_a)
    feat_b = find_feature(table, ingest_cfg.feature_b)
    if feat_a.detuning == feat_b.detuning:
        raise IngestError("calibration features must be distinct")

    nu_a = feat_a.detuning
    t_a, t_b = _calibration_feature_times(
        time, probe, differential, table, nu_a, feat_b.detuning
    )
    if ingest_cfg.known_separation_hz:
        sep = ingest_cfg.known_separation_hz * math.copysign(
            1.0, feat_b.detuning - feat_a.detuning
        )
    else:
        sep = feat_b.detuning - feat_a.detuning
    slope = sep / (t_b - t_a)
    detuning = nu_a + (time - t_a) * slope

    if slope < 0:
        detuning, reference, probe, differential = (
            detuning[::-1].copy(), reference[::-1].copy(), probe[::-1].copy(),
            differential[::-1].copy(),
        )
    meta = {
        "format": TRACE_FORMAT_VERSION,
        "noise_seed": None,
        "config_hash": "ingested",
        "samples_per_ramp": len(time),
        "calibration": {
            "feature_a": ingest_cfg.feature_a,
            "feature_b": ingest_cfg.feature_b,
            "slope_hz_per_unit": slope,
        },
    }
    return SweepTrace(detuning, reference, probe, differential, meta)


def _valley_regions(time, probe):
    """Index ranges of Doppler valleys, from a dip-suppressed envelope.

    A moving median supplies the envelope (plain averaging lets a strong
    crossover punch through the valley threshold and split one valley into
    fragments); nearby fragments are merged and slivers dropped.
    """
    n = len(time)
    envelope = moving_median(probe, odd_window(n // 64, 5))
    # Off-resonance level from a high percentile: the median sags when
    # valleys and their wings cover much of the sweep.
    baseline = float(np.percentile(envelope, 90))
    depth = baseline - envelope
    max_depth = float(depth.max())
    if max_depth <= 0:
        raise IngestError("no absorption valleys in the trace")
    valley = depth > 0.2 * max_depth

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


def _calibration_feature_times(time, probe, differential, table, nu_a, nu_b):
    """Times of the two calibration features (at detunings nu_a, nu_b).

    Candidate saturation peaks come from the first and last Doppler valley.
    Valleys can hold near-equal peaks (the repump crossovers differ by well
    under a percent in amplitude), so every candidate pair is scored by how
    close all detected peaks land to table features under that pair's
    two-point axis, and the best-scoring pair wins.
    """
    n = len(time)
    regions = _valley_regions(time, probe)
    if len(regions) < 2:
        raise IngestError(f"need two Doppler valleys for calibration, found {len(regions)}")

    # Noise splits a smoothed feature's top into wiggles, so peaks closer
    # than the smoothing window count as one feature.
    window = odd_window(n // 512, 3)
    sub = np.abs(moving_average(differential, window))
    first = _top_peaks(sub, *regions[0], count=4, spacing=window)
    last = _top_peaks(sub, *regions[-1], count=4, spacing=window)
    all_peaks = sorted({
        k for lo, hi in regions for k in _top_peaks(sub, lo, hi, count=6, spacing=window)
    })
    peak_times = time[np.asarray(all_peaks, dtype=int)]

    features = np.asarray(sorted({
        ln.detuning
        for iso, fg in table.manifolds()
        for ln in manifold_features(table, iso, fg)
    }))

    # Detuning may rise or fall with time, so feature_a may lie in either end
    # valley: pairs are scored in both orders.
    best = None
    for ia, ib in [*product(first, last), *product(last, first)]:
        if time[ib] == time[ia]:
            continue
        slope = (nu_b - nu_a) / (time[ib] - time[ia])
        mapped = nu_a + (peak_times - time[ia]) * slope
        misses = np.abs(mapped[:, None] - features[None, :]).min(axis=1)
        score = float(misses.sum())
        if best is None or score < best[0]:
            best = (score, ia, ib)
    if best is None:
        raise IngestError("calibration candidates collapse to one point")
    _, ia, ib = best
    return float(time[ia]), float(time[ib])


def _top_peaks(signal, lo, hi, count, spacing):
    """Indices of the `count` highest peaks of signal[lo:hi], highest first.

    Of two peaks closer than `spacing` samples only the higher one counts.
    """
    seg = signal[lo:hi]
    peaks, props = find_peaks(seg, height=0.05 * float(seg.max()), distance=spacing)
    if len(peaks) == 0:
        raise IngestError("calibration valley holds no saturation features")
    order = np.argsort(props["peak_heights"])[::-1][:count]
    return [lo + int(peaks[i]) for i in order]
