"""Synthetic saturated-absorption sweep traces and their analysis.

Absorption model
----------------
The vapor's optical depth is a sum of Doppler envelopes, one peak-normalized
Gaussian per direct line, weighted by line strength and isotope abundance:

    OD(nu) = k * sum_m abundance_m * sum_l strength_l * G_l(nu)

The scale k is fixed so the strongest manifold peaks at
``peak_optical_depth``, evaluated on an internal grid covering the whole
table (so the scale does not depend on the requested sweep bounds).

The counterpropagating pump bleaches absorption near every direct and
crossover detuning. Bleaching multiplies the local optical depth:

    probe OD(nu) = OD(nu) * max(0, 1 - dips(nu))

where dips(nu) sums peak-normalized Lorentzians of FWHM
Gamma*sqrt(1+s) and amplitude

    dip_contrast * s/(1+s) * strength_feature / strength_strongest_direct

per manifold (crossover strengths already include their enhancement, so
strong crossovers bleach more than any direct line, as observed in real Rb
spectra).

Channels: reference = gain * exp(-OD), probe = gain * exp(-probe OD),
differential = probe - reference. Detector gain is 1 V at full
transmission; optional additive white Gaussian noise uses independent
streams for the two detectors, both spawned from one seed.
"""

import hashlib
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import median_filter
from scipy.optimize import OptimizeWarning, curve_fit
from scipy.signal import find_peaks

from .atomic_data import LineTable, find_feature, manifold_features, transitions
from .errors import (
    FitConvergenceError,
    NoSubDopplerFeaturesError,
    SweepError,
    UnknownFeatureError,
)
from .lineshape import (
    doppler_fwhm,
    gaussian_kernel,
    lorentzian_kernel,
    saturation_broadened_width,
)

TRACE_FORMAT_VERSION = "sas-trace/1"


@dataclass(frozen=True)
class MediumConfig:
    """Vapor-cell and pump parameters of the synthesized spectrum."""

    temperature: float = 312.65        # K
    peak_optical_depth: float = 1.2    # OD of the strongest manifold
    saturation_s: float = 2.0          # pump saturation parameter
    crossover_enhancement: float = 5.0
    dip_contrast: float = 0.3          # geometry/overlap factor, <= 1

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if not self.peak_optical_depth > 0:
            raise ValueError(f"peak_optical_depth must be > 0, got {self.peak_optical_depth}")
        if self.saturation_s < 0:
            raise ValueError(f"saturation_s must be >= 0, got {self.saturation_s}")
        if not self.crossover_enhancement > 0:
            raise ValueError(
                f"crossover_enhancement must be > 0, got {self.crossover_enhancement}"
            )
        if not 0.0 <= self.dip_contrast <= 1.0:
            raise ValueError(f"dip_contrast must be in [0, 1], got {self.dip_contrast}")


@dataclass(frozen=True)
class NoiseConfig:
    enabled: bool = False
    seed: int = 0
    sigma_v: float = 0.002  # per-detector additive white noise, volts

    def __post_init__(self):
        if self.sigma_v < 0:
            raise ValueError(f"sigma_v must be >= 0, got {self.sigma_v}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SweepTrace:
    detuning_axis: np.ndarray  # Hz, strictly monotone
    reference: np.ndarray      # detector volts, >= 0
    probe: np.ndarray          # detector volts, >= 0
    differential: np.ndarray   # probe - reference, volts
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.detuning_axis)
        if n < 2:
            raise SweepError(f"trace needs at least 2 samples, got {n}")
        for name in ("reference", "probe", "differential"):
            if len(getattr(self, name)) != n:
                raise SweepError(f"channel {name} length differs from the axis")
        if not np.all(np.diff(self.detuning_axis) > 0):
            raise SweepError("detuning axis must be strictly increasing")
        if np.any(self.reference < 0) or np.any(self.probe < 0):
            raise SweepError("detector channels must be non-negative")

    def __len__(self):
        return len(self.detuning_axis)

    def step_hz(self):
        return float(self.detuning_axis[1] - self.detuning_axis[0])

    def window_slice(self, lo_hz, hi_hz):
        i0, i1 = np.searchsorted(self.detuning_axis, [lo_hz, hi_hz])
        return slice(int(i0), int(i1))


@dataclass(frozen=True)
class DepthMarkers:
    """Voltage levels A/B/C/D read off a sweep trace.

    A: off-resonance baseline; B: Doppler valley floor with saturation
    features suppressed; C: probe level at the selected hyperfine feature's
    extremum; D: probe level at the selected crossover's extremum.
    """

    A: float
    B: float
    C: float
    D: float

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError(f"baseline A must be > 0, got {self.A}")


@dataclass(frozen=True)
class DepthMetrics:
    doppler_depth: float    # (A-B)/A * 100
    hyperfine_depth: float  # (B-C)/A * 100
    crossover_depth: float  # (D-B)/A * 100


@dataclass(frozen=True)
class MarkerSelection:
    """Features whose probe levels become markers C and D.

    Marker B is the floor of the manifold window passed to extract_markers.
    The hyperfine feature may live in a different (deeper) manifold; with
    the documented (B-C)/A convention that is the geometry that yields a
    positive hyperfine depth on a transmission trace, since saturation
    features inside one valley always sit above that valley's own floor.
    """

    hyperfine_feature: str = "Rb85:F3->F'=2"
    crossover_feature: str = "Rb87:F2->co(2,3)"


@dataclass(frozen=True)
class MarkerParams:
    """Length scales (Hz) for marker extraction; defaults suit the D2 table."""

    floor_median_window_hz: float = 52.5e6   # ~5x broadened dip FWHM
    extremum_smooth_hz: float = 3.0e6        # light smoothing for C/D readout
    search_radius_hz: float = 12.0e6         # extremum search around a feature
    doppler_margin_fwhm: float = 1.25        # manifold window margin, units of Doppler FWHM
    min_prominence_v: float = 1.0e-3         # absolute feature-detection floor


def isotope_doppler_fwhm(table, medium, isotope):
    """Doppler FWHM (Hz) of one isotope's lines in the vapor, at the carrier."""
    iso = table.isotope(isotope)
    return doppler_fwhm(medium.temperature, iso.mass, table.carrier_hz)


def _optical_depth_scale(table: LineTable, medium: MediumConfig):
    """k such that the strongest manifold's peak OD equals peak_optical_depth."""
    best = 0.0
    windows = doppler_windows(table, medium, 1.0)
    for (isotope, f_ground), (lo, hi) in zip(table.manifolds(), windows):
        fwhm = isotope_doppler_fwhm(table, medium, isotope)
        grid = np.linspace(lo, hi, 2048)
        raw = sum(
            gaussian_kernel(grid, ln.detuning, fwhm, ln.strength)
            for ln in transitions(table, isotope, f_ground)
        )
        best = max(best, table.isotope(isotope).abundance * float(raw.max()))
    if best <= 0:
        raise SweepError("line table has no absorbing lines")
    return medium.peak_optical_depth / best


def _doppler_od(table, medium, nu, scale):
    od = np.zeros_like(nu)
    for isotope, f_ground in table.manifolds():
        fwhm = isotope_doppler_fwhm(table, medium, isotope)
        abundance = table.isotope(isotope).abundance
        for ln in transitions(table, isotope, f_ground):
            od += gaussian_kernel(nu, ln.detuning, fwhm, scale * abundance * ln.strength)
    return od


def _bleach_dips(table, medium, nu):
    """Sum of peak-normalized Lorentzian bleaching profiles, all manifolds."""
    dips = np.zeros_like(nu)
    if medium.saturation_s == 0 or medium.dip_contrast == 0:
        return dips
    s = medium.saturation_s
    for isotope, f_ground in table.manifolds():
        feats = manifold_features(
            table, isotope, f_ground, enhancement=medium.crossover_enhancement
        )
        strongest_direct = max(ln.strength for ln in feats if not ln.is_crossover)
        for ln in feats:
            width = saturation_broadened_width(ln.gamma_natural, s)
            amp = medium.dip_contrast * (s / (1.0 + s)) * (ln.strength / strongest_direct)
            dips += lorentzian_kernel(nu, ln.detuning, width, amp)
    return dips


def synthesize_sweep(
    table: LineTable,
    medium: MediumConfig,
    sweep,
    noise: NoiseConfig = NoiseConfig(),
) -> SweepTrace:
    """Simulate the three detector channels over a linear frequency sweep.

    `sweep` is a (start_hz, stop_hz, n_samples) triple. Deterministic for a
    given noise seed; bit-for-bit reproducible with noise disabled.
    """
    start, stop, n = sweep
    if not table.lines:
        raise SweepError("empty line table")
    if not (stop > start):
        raise SweepError(f"sweep bounds inverted: [{start}, {stop}]")
    n = int(n)
    if n < 16:
        raise SweepError(f"sweep needs at least 16 samples, got {n}")

    nu = np.linspace(float(start), float(stop), n)
    scale = _optical_depth_scale(table, medium)
    od = _doppler_od(table, medium, nu, scale)
    bleach = np.clip(1.0 - _bleach_dips(table, medium, nu), 0.0, None)

    gain = 1.0
    reference = gain * np.exp(-od)
    probe = gain * np.exp(-od * bleach)

    if noise.enabled and noise.sigma_v > 0:
        streams = np.random.SeedSequence(noise.seed).spawn(2)
        reference = reference + np.random.default_rng(streams[0]).normal(0.0, noise.sigma_v, n)
        probe = probe + np.random.default_rng(streams[1]).normal(0.0, noise.sigma_v, n)
        reference = np.clip(reference, 0.0, None)
        probe = np.clip(probe, 0.0, None)

    differential = probe - reference
    meta = {
        "format": TRACE_FORMAT_VERSION,
        "noise_seed": noise.seed if noise.enabled else None,
        "config_hash": config_fingerprint(table, medium, sweep, noise),
        "samples_per_ramp": n,
    }
    return SweepTrace(nu, reference, probe, differential, meta)


def sha256_16(*parts):
    """First 16 hex digits of the sha256 of the concatenated text parts."""
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


def config_fingerprint(table, medium, sweep, noise):
    return sha256_16(
        repr(table.carrier_hz),
        *(repr((ln.name, ln.detuning, ln.strength, ln.gamma_natural)) for ln in table.lines),
        repr(medium),
        repr(tuple(sweep)),
        repr(noise),
    )


# ---------------------------------------------------------------------------
# Marker extraction and depth metrics
# ---------------------------------------------------------------------------


def odd_window(n, minimum=1):
    """max(minimum, int(n)), rounded up to an odd window length."""
    n = max(minimum, int(n))
    return n if n % 2 else n + 1


def moving_median(y, window):
    """Edge-padded moving median; suppresses features narrower than window/2.

    The window must be odd, so each output is one input element: the same
    value, bit for bit, as np.median over the edge-padded window, for finite
    or infinite input (NaN is ordered differently). Adding 0.0 turns -0.0
    into 0.0, as np.median's one-element mean does.
    """
    y = np.asarray(y, dtype=float)
    if window <= 1:
        return y.copy()
    if window % 2 == 0:
        raise ValueError(f"moving_median needs an odd window, got {window}")
    out = median_filter(y, size=window, mode="nearest")
    out += 0.0
    return out


def moving_average(y, window):
    if window <= 1:
        return np.asarray(y, dtype=float).copy()
    pad = window // 2
    padded = np.pad(np.asarray(y, dtype=float), pad, mode="edge")
    kernel = np.ones(window) / window
    return np.convolve(padded, kernel, mode="valid")


def _robust_sigma(residual):
    mad = np.median(np.abs(residual - np.median(residual)))
    return 1.4826 * mad


def _elevation(trace, sl, params):
    """Smoothed differential (the sub-Doppler signal) and a noise threshold.

    The differential channel is zero away from saturation features, making
    it the natural detection domain: no Doppler-floor estimate is needed
    and sloped envelopes cannot bias weak features away.
    """
    nsm = odd_window(round(params.extremum_smooth_hz / trace.step_hz()), 3)
    smooth_diff = moving_average(trace.differential[sl], nsm)
    sigma = _robust_sigma(trace.differential[sl] - moving_average(trace.differential[sl], 5))
    threshold = max(params.min_prominence_v, 5.0 * sigma / math.sqrt(nsm))
    return smooth_diff, threshold


def subdoppler_extrema(trace: SweepTrace, window_hz, params: MarkerParams = MarkerParams()):
    """Indices of saturation features in a detuning window.

    Features are peaks of |smoothed differential| clearing
    max(min_prominence_v, noise-scaled threshold) in height and prominence.
    """
    lo, hi = window_hz
    pad = 2.0 * params.search_radius_hz
    sl = trace.window_slice(lo - pad, hi + pad)
    if sl.stop - sl.start < 8:
        raise SweepError("marker window contains too few samples")
    elev, threshold = _elevation(trace, sl, params)
    peaks, _ = find_peaks(np.abs(elev), prominence=threshold, height=threshold)
    axis = trace.detuning_axis[sl]
    peaks = peaks[(axis[peaks] >= lo) & (axis[peaks] <= hi)]
    return peaks + sl.start


def _feature_extremum(trace, detuning, params):
    """Smoothed probe level at the feature extremum nearest `detuning`.

    Features may poke above or below the Doppler floor (synthetic traces can
    carry either sign), so peaks of |differential| are searched; the one
    closest to the nominal detuning wins and the probe level is read there.
    """
    pad = 3.0 * params.search_radius_hz
    sl = trace.window_slice(detuning - pad, detuning + pad)
    if sl.stop - sl.start < 5:
        raise SweepError(f"feature at {detuning / 1e6:.1f} MHz outside trace span")
    elev, threshold = _elevation(trace, sl, params)
    axis = trace.detuning_axis[sl]
    inner = (axis >= detuning - params.search_radius_hz) & (
        axis <= detuning + params.search_radius_hz
    )
    # Height only: a strong neighbor's tail can eat a weak feature's
    # prominence without hiding its local maximum.
    peaks, _ = find_peaks(np.abs(elev), height=threshold)
    peaks = peaks[inner[peaks]]
    if len(peaks) == 0:
        inner_max = float(np.abs(elev[inner]).max()) if inner.any() else 0.0
        raise NoSubDopplerFeaturesError(
            f"no saturation feature near {detuning / 1e6:.1f} MHz "
            f"(signal {inner_max:.2e} V below threshold {threshold:.2e} V)"
        )
    k = peaks[np.argmin(np.abs(axis[peaks] - detuning))]
    smooth_probe = moving_average(
        trace.probe[sl], odd_window(round(params.extremum_smooth_hz / trace.step_hz()), 3)
    )
    return float(smooth_probe[k]), sl.start + int(k)


def doppler_windows(table: LineTable, medium: MediumConfig, margin_fwhm=1.25):
    """(lo, hi) detuning intervals covered by each manifold's Doppler envelope."""
    out = []
    for isotope, f_ground in table.manifolds():
        lines = transitions(table, isotope, f_ground)
        fwhm = isotope_doppler_fwhm(table, medium, isotope)
        out.append(
            (
                min(ln.detuning for ln in lines) - margin_fwhm * fwhm,
                max(ln.detuning for ln in lines) + margin_fwhm * fwhm,
            )
        )
    return out


def extract_markers(
    trace: SweepTrace,
    manifold_window,
    selection: MarkerSelection,
    table: LineTable,
    medium: MediumConfig,
    params: MarkerParams = MarkerParams(),
) -> DepthMarkers:
    """Read the A/B/C/D voltage levels off a sweep trace.

    A is the probe median outside every manifold's Doppler envelope; B the
    minimum of the dip-suppressed (moving-median) probe inside
    `manifold_window`; C and D the probe levels at the selected features'
    extrema. Raises if the window holds no features or a selected feature
    is absent/unresolvable.
    """
    lo, hi = manifold_window
    if lo >= hi:
        raise SweepError(f"marker window inverted: [{lo}, {hi}]")
    axis = trace.detuning_axis
    if lo < axis[0] or hi > axis[-1]:
        raise SweepError("marker window outside trace span")

    outside = np.ones(len(axis), dtype=bool)
    for wlo, whi in doppler_windows(table, medium, params.doppler_margin_fwhm):
        outside &= ~((axis >= wlo) & (axis <= whi))
    if not outside.any():
        raise SweepError("no off-resonance samples for baseline A; widen the sweep")
    a_level = float(np.median(trace.probe[outside]))

    if len(subdoppler_extrema(trace, manifold_window, params)) == 0:
        raise NoSubDopplerFeaturesError("window contains no saturation features")

    sl = trace.window_slice(lo, hi)
    floor = moving_median(
        trace.probe[sl], odd_window(round(params.floor_median_window_hz / trace.step_hz()), 3)
    )
    b_level = float(floor.min())

    c_line = find_feature(table, selection.hyperfine_feature)
    d_line = find_feature(table, selection.crossover_feature)
    if c_line.is_crossover or not d_line.is_crossover:
        raise UnknownFeatureError(
            "selection must name a direct line for C and a crossover for D; got "
            f"{selection.hyperfine_feature!r} / {selection.crossover_feature!r}"
        )
    c_level, _ = _feature_extremum(trace, c_line.detuning, params)
    d_level, _ = _feature_extremum(trace, d_line.detuning, params)
    return DepthMarkers(A=a_level, B=b_level, C=c_level, D=d_level)


def depth_metrics(m: DepthMarkers) -> DepthMetrics:
    """The three depth ratios, in percent, exactly as defined."""
    if m.A == 0:
        raise ValueError("baseline A is zero; depth ratios undefined")
    return DepthMetrics(
        doppler_depth=(m.A - m.B) / m.A * 100.0,
        hyperfine_depth=(m.B - m.C) / m.A * 100.0,
        crossover_depth=(m.D - m.B) / m.A * 100.0,
    )


# ---------------------------------------------------------------------------
# Line-shape fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    model: str
    amplitude: float
    center: float
    fwhm: float
    offset: float
    rms_residual: float


def _lorentz_model(x, amp, center, fwhm, offset):
    return offset + lorentzian_kernel(x, center, fwhm, amp)


def _gauss_model(x, amp, center, fwhm, offset):
    return offset + gaussian_kernel(x, center, fwhm, amp)


def fit_lineshape(detuning, values, model="lorentzian", max_iterations=2000) -> FitResult:
    """Least-squares fit of amplitude/center/width/offset to a trace segment.

    Initializer: center at the extremum, width = half the segment span,
    offset from the segment edges. A flat segment short-circuits to the
    exact zero-amplitude solution. Non-convergence raises
    FitConvergenceError rather than returning silently.
    """
    x = np.asarray(detuning, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(x) < 8:
        raise SweepError(f"fit segment needs >= 8 samples, got {len(x)}")
    models = {"lorentzian": _lorentz_model, "gaussian": _gauss_model}
    if model not in models:
        raise ValueError(f"unknown model {model!r}")
    fn = models[model]

    offset0 = float(np.median([y[0], y[1], y[-2], y[-1]]))
    k = int(np.argmax(np.abs(y - offset0)))
    amp0 = float(y[k] - offset0)
    span = float(x[-1] - x[0])
    width0 = abs(span) / 2.0

    if abs(amp0) < 1e-12 * max(1.0, abs(offset0)):
        # Flat segment: amplitude 0, offset = mean is the least-squares optimum.
        offset = float(y.mean())
        residual = y - offset
        return FitResult(model, 0.0, float(x[k]), width0, offset,
                         float(np.sqrt(np.mean(residual**2))))

    try:
        with warnings.catch_warnings():
            # Perfect fits make the covariance singular; rms_residual is the
            # quality report here, so the estimate is not needed.
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(
                fn, x, y,
                p0=[amp0, float(x[k]), width0, offset0],
                maxfev=max_iterations,
            )
    except RuntimeError as exc:
        raise FitConvergenceError(f"{model} fit did not converge: {exc}") from None
    amp, center, fwhm, offset = popt
    residual = y - fn(x, *popt)
    return FitResult(
        model, float(amp), float(center), float(abs(fwhm)), float(offset),
        float(np.sqrt(np.mean(residual**2))),
    )


# ---------------------------------------------------------------------------
# Error-signal conditioning
# ---------------------------------------------------------------------------


def error_signal(trace: SweepTrace, mode="differential", smoothing_window=1):
    """Conditioned error signal over the sweep.

    ``differential`` returns the differential channel unchanged.
    ``derivative`` returns the centered finite-difference derivative of the
    moving-average-smoothed differential with respect to detuning, edges
    replicated, same length as the trace.
    """
    if smoothing_window < 1 or smoothing_window % 2 == 0 or smoothing_window >= len(trace):
        raise ValueError(
            f"smoothing_window must be odd, >= 1 and < trace length; got {smoothing_window}"
        )
    if mode == "differential":
        return trace.differential.copy()
    if mode != "derivative":
        raise ValueError(f"unknown error-signal mode {mode!r}")
    smooth = moving_average(trace.differential, smoothing_window)
    deriv = np.gradient(smooth, trace.detuning_axis)
    deriv[0] = deriv[1]
    deriv[-1] = deriv[-2]
    return deriv


# ---------------------------------------------------------------------------
# Time-series CSV export / import
# ---------------------------------------------------------------------------

# Rows are formatted this many at a time and written one by one, so the
# formatted text held at once stays small whatever the row count; the
# harness writes straight into the artifact file.
_CSV_BLOCK = 256

_TRACE_COLUMNS = ("detuning_hz", "reference_v", "probe_v", "differential_v")


def write_series_csv(fileobj, fmt, meta, keys, columns):
    """Write a `# format=` line, `# key=value` lines for `keys` of `meta`,
    the header of `columns` (a dict name -> column) and its rows.

    numpy columns are written as floats with repr, so reading them back is
    exact; other columns (lists of str) as they are.
    """
    w = fileobj.write
    w(f"# format={fmt}\n")
    for key in keys:
        w(f"# {key}={meta.get(key)}\n")
    w(",".join(columns) + "\n")
    for lo in range(0, len(next(iter(columns.values()))), _CSV_BLOCK):
        cells = [
            map(repr, np.asarray(col[lo:lo + _CSV_BLOCK], dtype=float).tolist())
            if isinstance(col, np.ndarray) else col[lo:lo + _CSV_BLOCK]
            for col in columns.values()
        ]
        for row in zip(*cells):
            w(",".join(row) + "\n")


def write_trace_csv(trace: SweepTrace, fileobj):
    """Serialize a trace as sas-trace/1 CSV with # metadata header."""
    channels = (trace.detuning_axis, trace.reference, trace.probe, trace.differential)
    write_series_csv(fileobj, TRACE_FORMAT_VERSION, trace.meta,
                     ("noise_seed", "config_hash", "samples_per_ramp"),
                     dict(zip(_TRACE_COLUMNS, channels)))


def trace_to_csv(trace: SweepTrace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


def read_trace_csv(text) -> SweepTrace:
    meta = {}
    rows = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != ",".join(_TRACE_COLUMNS):
                raise SweepError(f"line {lineno}: unexpected trace CSV header {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise SweepError(f"line {lineno}: expected 4 columns, got {len(parts)}")
        rows.append([float(p) for p in parts])
    if meta.get("format") != TRACE_FORMAT_VERSION:
        raise SweepError(f"unsupported trace format {meta.get('format')!r}")
    if len(rows) < 2:
        raise SweepError("trace CSV holds fewer than 2 samples")
    arr = np.asarray(rows)
    if not np.all(np.diff(arr[:, 0]) > 0):
        raise SweepError("trace CSV detuning axis not strictly increasing")
    return SweepTrace(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], meta)
