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

Channels: reference = exp(-OD), probe = exp(-probe OD), differential =
probe - reference, in volts: detector gain is 1 V at full transmission.
Optional additive white Gaussian noise uses independent streams for the
two detectors, both spawned from one seed.
"""

import hashlib
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# The CSV kernel builds its tables at import. Built in the middle of a run,
# they could land above the run's large arrays in the heap and keep it from
# shrinking: `saslock sweep` at 262,144 samples then peaked 9-16 MB higher.
from ._reprcsv import csv_rows, nearest_doubles
from .atomic_data import LineTable, find_feature, manifold_features, transitions
from .errors import (
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
    extremum; D: probe level at the selected crossover's extremum. features:
    the window's saturation features (subdoppler_extrema), from extract_markers.
    """

    A: float
    B: float
    C: float
    D: float
    features: np.ndarray = field(default=None, repr=False, compare=False)

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


# Scales of marker extraction, chosen for the D2 table.
FLOOR_MEDIAN_WINDOW_HZ = 52.5e6  # ~5x broadened dip FWHM
EXTREMUM_SMOOTH_HZ = 3.0e6       # light smoothing for C/D readout
SEARCH_RADIUS_HZ = 12.0e6        # extremum search around a feature
DOPPLER_MARGIN_FWHM = 1.25       # manifold window margin, units of Doppler FWHM
MIN_PROMINENCE_V = 1.0e-3        # absolute feature-detection floor


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

    # Negated once: a -od per channel left 131,072-sample runs 1 MB more peak RSS.
    neg_od = -od
    reference = np.exp(neg_od)
    probe = np.exp(neg_od * bleach)

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


class RunningMedian:
    """The edge-padded running median of y over an odd window, queried by
    rank without being formed.

    Each median is one sample of y, and for a window of 2h + 1 samples a
    median is <= v exactly when more than h of its edge-padded samples are
    <= v. One cumulative sum counts those samples for every window at once,
    so bisection over the sorted distinct values of y finds any order
    statistic of the medians, bit for bit as np.median over each window
    gives them (adding 0.0 turns -0.0 into 0.0, as np.median's one-element
    mean does).
    """

    def __init__(self, y, window):
        if window % 2 == 0:
            raise ValueError(f"running median needs an odd window, got {window}")
        y = np.asarray(y, dtype=float)
        self.window = window
        self.values = np.unique(y)
        self._padded = np.pad(y, window // 2, mode="edge")
        # The running sum wraps in uint16, but each window's difference of it
        # stays exact while the window is shorter than 2**16 samples.
        self._dtype = np.uint16 if window < 2**16 else np.uint64

    def at_most(self, value, first=0, stop=None):
        """Mask of the windows first..stop-1 (default: all) whose median is
        <= value."""
        window = self.window
        stop = len(self._padded) - window + 1 if stop is None else stop
        below = np.cumsum(self._padded[first:stop + window - 1] <= value, dtype=self._dtype)
        count = below[window - 1:]
        count[1:] -= below[:-window]  # samples <= value in each window
        return count > window // 2

    def order_statistic(self, k):
        """The k-th smallest median (k = 0 is the smallest), and the number
        of medians at or below it."""
        lo, hi = 0, len(self.values) - 1
        # Windows first..stop-1 hold every median <= values[hi], and so
        # every median that a later probe can count.
        first, stop = 0, len(self._padded) - self.window + 1
        count_hi = stop
        while lo < hi:
            mid = (lo + hi) // 2
            at_most = self.at_most(self.values[mid], first, stop)
            count = np.count_nonzero(at_most)
            if count > k:
                hi, count_hi = mid, count
                stop = first + len(at_most) - int(at_most[::-1].argmax())
                first += int(at_most.argmax())
            else:
                lo = mid + 1
        return float(self.values[lo]) + 0.0, count_hi


def moving_median_min(y, window):
    """The smallest edge-padded running median of y over an odd window."""
    if window <= 1:
        return float(np.min(y))
    return RunningMedian(y, window).order_statistic(0)[0]


def moving_average(y, window):
    """Edge-padded moving mean over an odd window, same length as y."""
    if window <= 1:
        return np.asarray(y, dtype=float).copy()
    if window % 2 == 0:
        raise ValueError(f"moving_average needs an odd window, got {window}")
    pad = window // 2
    padded = np.pad(np.asarray(y, dtype=float), pad, mode="edge")
    kernel = np.ones(window) / window
    return np.convolve(padded, kernel, mode="valid")


def find_peaks(x, height=None, distance=None, prominence=None):
    """The subset of scipy.signal.find_peaks with scalar `height`, `distance`
    (>= 1) and `prominence`, returning the same indices and `peak_heights`.

    A peak is a run of equal samples higher than both its neighbours, at
    the run's middle sample (rounded down); edge samples are never peaks.
    The filters run in scipy's order: height, distance, prominence. Of two
    peaks closer than `distance` samples the higher one stays, with ties
    broken by walking np.argsort(heights) (default kind) from the end, as
    scipy does. Prominence uses an unlimited window.
    """
    x = np.asarray(x, dtype=float)
    # change[k] is the last sample of a run of equal values: the run after
    # it, (change[k], change[k + 1]], is a peak if it rises into it and
    # falls out of it.
    change = np.flatnonzero(x[1:] != x[:-1])
    rises = x[change] < x[change + 1]
    falls = x[change + 1] < x[change]
    top = rises[:-1] & falls[1:]
    local_maxima = (change[:-1][top] + 1 + change[1:][top]) // 2

    peaks = local_maxima
    if height is not None:
        peaks = peaks[height <= x[peaks]]
    if distance is not None:
        peaks = peaks[_keep_apart(peaks, x[peaks], math.ceil(distance))]
    if prominence is not None and len(peaks):
        peaks = peaks[prominence <= _prominences(x, peaks, local_maxima)]
    return peaks, {"peak_heights": x[peaks]}


def _keep_apart(peaks, heights, distance):
    """Mask of the peaks that stay when, highest first, each kept peak drops
    its neighbours closer than `distance` samples."""
    keep = np.ones(len(peaks), dtype=bool)
    lo = np.searchsorted(peaks, peaks - distance, side="right").tolist()
    hi = np.searchsorted(peaks, peaks + distance).tolist()
    for j in np.argsort(heights)[::-1].tolist():
        if keep[j]:
            keep[lo[j]:j] = False
            keep[j + 1:hi[j]] = False
    return keep


def _prominences(x, peaks, local_maxima):
    """Prominences of `peaks` (a subset of `local_maxima`) with no window.

    On each side scipy walks from the peak to the nearest higher sample, or
    the edge, and takes the lowest sample on the way as the base. Past that
    higher sample the values rise or stay level up to a local maximum or
    the edge, so walking to the nearest local maximum higher than the peak
    finds the same base. Those local maxima are found for all peaks at once
    by binary lifting over range maxima, and np.minimum.reduceat takes the
    lowest samples.
    """
    h = x[peaks]
    tops = local_maxima[x[local_maxima] >= h.min()]
    n_tops = len(tops)
    # levels[k][i] = max(x[tops[i:i + 2**k]])
    levels = [x[tops]]
    while 2 ** len(levels) <= n_tops:
        span = 2 ** (len(levels) - 1)
        levels.append(np.maximum(levels[-1][:-span], levels[-1][span:]))
    # Grow [left, at) and (at, right) over tops no higher than the peak.
    at = np.searchsorted(tops, peaks)
    left, right = at.copy(), at + 1
    for k in range(len(levels) - 1, -1, -1):
        span = 2 ** k
        grow = left >= span
        grow[grow] = levels[k][left[grow] - span] <= h[grow]
        left[grow] -= span
        grow = right <= n_tops - span
        grow[grow] = levels[k][right[grow]] <= h[grow]
        right[grow] += span
    lbase = np.where(left > 0, tops[left - 1], 0)
    rbase = np.where(right < n_tops, tops[np.minimum(right, n_tops - 1)], len(x) - 1)
    left_min = np.minimum.reduceat(x, np.column_stack([lbase, peaks]).ravel())[::2]
    right_min = np.minimum(
        np.minimum.reduceat(x, np.column_stack([peaks, rbase]).ravel())[::2], x[rbase]
    )
    return h - np.maximum(left_min, right_min)


def _robust_sigma(residual):
    mad = np.median(np.abs(residual - np.median(residual)))
    return 1.4826 * mad


def _elevation(trace, sl):
    """Smoothed differential (the sub-Doppler signal) and a noise threshold.

    The differential channel is zero away from saturation features, making
    it the natural detection domain: no Doppler-floor estimate is needed
    and sloped envelopes cannot bias weak features away.
    """
    nsm = odd_window(round(EXTREMUM_SMOOTH_HZ / trace.step_hz()), 3)
    smooth_diff = moving_average(trace.differential[sl], nsm)
    sigma = _robust_sigma(trace.differential[sl] - moving_average(trace.differential[sl], 5))
    threshold = max(MIN_PROMINENCE_V, 5.0 * sigma / math.sqrt(nsm))
    return smooth_diff, threshold


def subdoppler_extrema(trace: SweepTrace, window_hz):
    """Indices of saturation features in a detuning window.

    Features are peaks of |smoothed differential| clearing
    max(MIN_PROMINENCE_V, noise-scaled threshold) in height and prominence.
    """
    lo, hi = window_hz
    pad = 2.0 * SEARCH_RADIUS_HZ
    sl = trace.window_slice(lo - pad, hi + pad)
    if sl.stop - sl.start < 8:
        raise SweepError("marker window contains too few samples")
    elev, threshold = _elevation(trace, sl)
    peaks, _ = find_peaks(np.abs(elev), prominence=threshold, height=threshold)
    axis = trace.detuning_axis[sl]
    peaks = peaks[(axis[peaks] >= lo) & (axis[peaks] <= hi)]
    return peaks + sl.start


def _feature_extremum(trace, detuning):
    """Smoothed probe level at the feature extremum nearest `detuning`.

    Features may poke above or below the Doppler floor (synthetic traces can
    carry either sign), so peaks of |differential| are searched; the one
    closest to the nominal detuning wins and the probe level is read there.
    """
    pad = 3.0 * SEARCH_RADIUS_HZ
    sl = trace.window_slice(detuning - pad, detuning + pad)
    if sl.stop - sl.start < 5:
        axis = trace.detuning_axis
        why = (f"has {sl.stop - sl.start} samples in its +-{pad / 1e6:.0f} MHz search window, "
               "fewer than 5; raise [sweep] samples" if axis[0] <= detuning <= axis[-1]
               else "outside trace span")
        raise SweepError(f"feature at {detuning / 1e6:.1f} MHz {why}")
    elev, threshold = _elevation(trace, sl)
    axis = trace.detuning_axis[sl]
    inner = (axis >= detuning - SEARCH_RADIUS_HZ) & (axis <= detuning + SEARCH_RADIUS_HZ)
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
        trace.probe[sl], odd_window(round(EXTREMUM_SMOOTH_HZ / trace.step_hz()), 3)
    )
    return float(smooth_probe[k]), sl.start + int(k)


def doppler_windows(table: LineTable, medium: MediumConfig, margin_fwhm):
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


def window_outside(window, lo, hi):
    """Whether the detuning window (a, b) reaches past the span [lo, hi]."""
    return window[0] < lo or window[1] > hi


def extract_markers(
    trace: SweepTrace,
    manifold_window,
    selection: MarkerSelection,
    table: LineTable,
    medium: MediumConfig,
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
    if window_outside(manifold_window, axis[0], axis[-1]):
        raise SweepError("marker window outside trace span")

    outside = np.ones(len(axis), dtype=bool)
    for wlo, whi in doppler_windows(table, medium, DOPPLER_MARGIN_FWHM):
        outside &= ~((axis >= wlo) & (axis <= whi))
    if not outside.any():
        raise SweepError("no off-resonance samples for baseline A; widen the sweep")
    a_level = float(np.median(trace.probe[outside]))

    features = subdoppler_extrema(trace, manifold_window)
    if len(features) == 0:
        raise NoSubDopplerFeaturesError("window contains no saturation features")

    sl = trace.window_slice(lo, hi)
    b_level = moving_median_min(
        trace.probe[sl], odd_window(round(FLOOR_MEDIAN_WINDOW_HZ / trace.step_hz()), 3)
    )

    c_line = find_feature(table, selection.hyperfine_feature)
    d_line = find_feature(table, selection.crossover_feature)
    if c_line.is_crossover or not d_line.is_crossover:
        raise UnknownFeatureError(
            "selection must name a direct line for C and a crossover for D; got "
            f"{selection.hyperfine_feature!r} / {selection.crossover_feature!r}"
        )
    c_level, _ = _feature_extremum(trace, c_line.detuning)
    d_level, _ = _feature_extremum(trace, d_line.detuning)
    return DepthMarkers(A=a_level, B=b_level, C=c_level, D=d_level, features=features)


def depth_metrics(m: DepthMarkers) -> DepthMetrics:
    """The three depth ratios, in percent, exactly as defined."""
    return DepthMetrics(
        doppler_depth=(m.A - m.B) / m.A * 100.0,
        hyperfine_depth=(m.B - m.C) / m.A * 100.0,
        crossover_depth=(m.D - m.B) / m.A * 100.0,
    )


# ---------------------------------------------------------------------------
# Error-signal conditioning
# ---------------------------------------------------------------------------


def error_signal(trace: SweepTrace, mode="differential"):
    """Conditioned error signal over the sweep.

    ``differential`` returns the differential channel unchanged.
    ``derivative`` returns the centered finite-difference derivative of the
    differential with respect to detuning, edges replicated, same length as
    the trace.
    """
    if mode == "differential":
        return trace.differential.copy()
    if mode != "derivative":
        raise ValueError(f"unknown error-signal mode {mode!r}")
    deriv = np.gradient(trace.differential, trace.detuning_axis)
    deriv[0] = deriv[1]
    deriv[-1] = deriv[-2]
    return deriv


# ---------------------------------------------------------------------------
# Time-series CSV export / import
# ---------------------------------------------------------------------------

# Cells are formatted about this many at a time (2,048 rows of the trace)
# and written as one string per block, straight into the artifact file.
# Per-call numpy overhead favours large blocks. Small ones keep the block's
# transient arrays near 2.7 MB and each per-cell array at most 64 KiB; past
# glibc's 128 KiB mmap threshold every temporary maps fresh pages, and at
# 20,000 cells the writers ran about 1.5 times slower.
_CSV_BLOCK = 8192

_TRACE_COLUMNS = ("detuning_hz", "reference_v", "probe_v", "differential_v")


def write_series_csv(fileobj, fmt, meta, keys, columns):
    """Write a `# format=` line, `# key=value` lines for `keys` of `meta`,
    the header of `columns` (a dict name -> column) and its rows.

    numpy columns are written as floats, byte for byte as repr writes them,
    so reading them back is exact. A text column is a pair (codes, names):
    an integer array and the ASCII names its codes index.
    """
    w = fileobj.write
    w(f"# format={fmt}\n")
    for key in keys:
        w(f"# {key}={meta.get(key)}\n")
    w(",".join(columns) + "\n")
    cols = [np.asarray(col, dtype=float) if isinstance(col, np.ndarray) else col
            for col in columns.values()]
    rows = len(cols[0]) if isinstance(cols[0], np.ndarray) else len(cols[0][0])
    block = max(1, _CSV_BLOCK // len(cols))
    for lo in range(0, rows, block):
        w(csv_rows([col[lo:lo + block] if isinstance(col, np.ndarray)
                    else (col[0][lo:lo + block], col[1]) for col in cols]))


def write_trace_csv(trace: SweepTrace, fileobj):
    """Serialize a trace as sas-trace/1 CSV with # metadata header."""
    channels = (trace.detuning_axis, trace.reference, trace.probe, trace.differential)
    write_series_csv(fileobj, TRACE_FORMAT_VERSION, trace.meta,
                     ("noise_seed", "config_hash", "samples_per_ramp"),
                     dict(zip(_TRACE_COLUMNS, channels)))


def read_series_csv(path):
    """Read comma-separated float rows from the file at `path`: (meta, header, rows).

    Blank lines and '#' comments, whole-line or trailing, are skipped; each
    whole-line `# key=value` comment goes into the dict `meta`. The first
    remaining line is the header (a list of str), or None when it is all
    numbers. The lines up to it, the head, are read one at a time; the body
    after it is read by the first of four routes that succeeds:
    - the plain route reads a body in which every cell is
      `[+-]digits[.digits][(e|E)[+-]digits]`, cells are split by ',' and
      lines end in '\n' or '\r\n', but for empty last lines, as float()
      reads each cell; numpy's C integer parser reads the digits, and
      nearest_doubles rounds them (_plain_rows);
    - np.loadtxt reads the path as it stands, with no comment character,
      skipping the head's lines; numpy parses a path in C, in chunks;
    - when that fails (a '#' or a line of blanks fails it) or a row is not
      finite or as wide as the header, the body is reread through a filter
      of blank and '#' lines;
    - when that fails too, the file is reread from the start to raise
      ValueError("line N: ...") for the first row that is not numeric, as
      wide as the header (or the first row) or finite.
    Every route that succeeds gives the same bits.
    """
    meta = {}

    def collect(line):
        key, sep, value = line.strip()[1:].partition("=")
        if sep:
            meta[key.strip()] = value.strip()

    with open(path, encoding="utf-8") as fileobj:
        head, start, first = 0, fileobj.tell(), fileobj.readline()
        while first and first.lstrip()[:1] in ("", "#"):
            collect(first)
            head, start, first = head + 1, fileobj.tell(), fileobj.readline()
        header = [cell.strip() for cell in _row_body(first).split(",")]
        try:
            [float(cell) for cell in header]
            header, body = None, start
        except ValueError:
            head, body = head + 1, fileobj.tell()
        # np.loadtxt would read a line of blanks, or blanks before '#', as a
        # row; collect() runs only on those lines, and returns None to drop them.
        filtered = (line for line in fileobj if line.lstrip()[:1] not in ("", "#") or collect(line))

        def loadtxt(lines, comments, skiprows):
            fileobj.seek(body)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                return np.loadtxt(lines, delimiter=",", comments=comments, ndmin=2,
                                  skiprows=skiprows, encoding="utf-8")

        for route in (lambda: _plain_rows(path, head), lambda: loadtxt(path, None, head),
                      lambda: loadtxt(filtered, "#", 0)):
            try:
                rows = route()
                if not np.isfinite(rows).all() or (
                        header and len(rows) and rows.shape[1] != len(header)):
                    raise ValueError("non-finite values or rows not as wide as the header")
                return meta, header, rows
            except ValueError as exc:
                error = str(exc)
        fileobj.seek(0)
        raise ValueError(_bad_row(fileobj, header) or error) from None


# The plain route reads this many bytes at a time, cut at a line end, so
# that the heap reuses its per-block arrays. On a 2-vCPU Xeon VM a 131,072-row
# export took 72 ms in 256 KiB blocks, 83 ms in 1 MiB blocks, 92 ms in 64 KiB
# blocks and 148 ms as one block, which faults in fresh pages for every array.
_READ_BLOCK = 1 << 18
_TOKENS = bytes.maketrans(b"\neE", b",,,")     # every mark that ends a run of digits
_DOT, _COMMA, _NEWLINE, _PLUS, _MINUS, _E = b".,\n+-e"


def _plain_rows(path, head):
    """The body after the first `head` lines of the file at `path` as a
    (rows, width) float64 array, when it has a row and every line but empty
    last ones, which np.loadtxt skips, is in the plain grammar; ValueError
    when not."""
    blocks, carry = [], b""
    with open(path, "rb") as raw:
        if b"\r" in b"".join(itertools.islice(raw, head)).replace(b"\r\n", b""):
            raise ValueError("a lone '\\r' ends a line of the head")
        body = raw.tell()
        raw.seek(max(body, raw.seek(0, 2) - 4096))
        tail = raw.read()
        end = raw.tell() - len(tail) + len(tail.rstrip(b"\r\n"))
        raw.seek(body)
        while chunk := raw.read(min(_READ_BLOCK, end - raw.tell())):
            carry += chunk
            cut = carry.rfind(b"\n") + 1
            if cut:
                blocks.append(_plain_block(carry[:cut]))
                carry = carry[cut:]
    if carry:
        blocks.append(_plain_block(carry + b"\n"))
    if not blocks or len({width for _, width in blocks}) > 1:
        raise ValueError("no rows, or ragged rows")
    return np.concatenate([values for values, _ in blocks]).reshape(-1, blocks[0][1])


def _plain_block(block):
    """(values, width) of `block`, whole lines that end in '\n', when each is
    `width` plain cells; ValueError when not.

    numpy's integer parser reads the digits of each cell with the point
    removed, and the digits of its exponent: one run of digits each. One scan
    of the marks that end a run (',', '\n', 'e', 'E') and of the points
    gives each run's fraction length, and nearest_doubles rounds.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    # The integer parser would skip blanks; a lone '\r' ends a line in text.
    if any(blank in block for blank in (b" ", b"\t", b"\v", b"\f", b"\r")):
        raise ValueError("a blank, or a lone '\\r'")
    ints = np.fromstring(block.translate(_TOKENS, b"."), dtype=np.int64, sep=",")
    w = np.abs(ints).view(np.uint64)
    if (w >= 2**63 - 1).any():
        raise ValueError("more digits than an int64 holds")
    b = np.frombuffer(block, dtype=np.uint8)
    exponents = b"e" in block or b"E" in block
    marks = b == _DOT
    marks |= b == _COMMA
    marks |= b == _NEWLINE
    if exponents:
        marks |= (b | 32) == _E
    at = np.flatnonzero(marks)
    kind = b[at]
    ends = np.flatnonzero(kind != _DOT)
    if len(ends) != len(ints):
        raise ValueError("a cell that the integer parser does not read")
    end, end_kind = at[ends], kind[ends]          # the mark that ends each run
    dots = np.flatnonzero(kind == _DOT)
    run = dots - np.arange(len(dots))             # the run that each point sits in
    after = b[at[dots] + 1]
    if (run[1:] <= run[:-1]).any() or (after == _PLUS).any() or (after == _MINUS).any():
        raise ValueError("a cell with two points, or a sign after its point")
    q = np.zeros(len(ints), dtype=np.int64)
    q[run] = at[dots] - end[run] + 1              # minus the fraction length
    dotted = np.zeros(len(ints), dtype=bool)
    dotted[run] = True
    # A run of zeros reads as 0, and so does a lone sign, which is no number.
    zeros = np.flatnonzero(ints == 0)
    start = np.where(zeros > 0, end[zeros - 1] + 1, 0)
    sign = b[start]
    signed = (sign == _PLUS) | (sign == _MINUS)
    if (end[zeros] - start - dotted[zeros] - signed == 0).any():
        raise ValueError("a sign without digits")
    negative = ints < 0
    negative[zeros] = sign == _MINUS
    if exponents:
        marked = np.flatnonzero((end_kind | 32) == _E)
        power = marked + 1                        # the exponent's run
        if ((end_kind[power] | 32) == _E).any() or dotted[power].any():
            raise ValueError("an exponent with a point or an exponent")
        q[marked] += ints[power]
        end[marked], end_kind[marked] = end[power], end_kind[power]
        w[power] = 0
    bits, redo = nearest_doubles(w, q)
    bits |= negative.view(np.uint8).astype(np.uint64) << 63
    values = bits.view(np.float64)
    for k in np.flatnonzero(redo).tolist():
        values[k] = float(block[end[k - 1] + 1 if k else 0:end[k]])
    if exponents:
        values, end_kind = np.delete(values, power), np.delete(end_kind, power)
    width = int(np.argmax(end_kind == _NEWLINE)) + 1
    if len(end_kind) % width or (
            (end_kind.reshape(-1, width) == _NEWLINE) != (np.arange(width) == width - 1)).any():
        raise ValueError("ragged rows")
    return values, width


def _row_body(line):
    """A CSV line without its '#' comment and surrounding blanks."""
    return line.split("#", 1)[0].strip()


def _loadtxt_float(cell):
    """float(cell) where np.loadtxt reads the cell as a float, else ValueError.

    np.loadtxt strips Unicode whitespace and parses the rest as ASCII, so it
    rejects the underscores and non-ASCII digits that float() accepts.
    """
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {cell!r}")
    return float(text)


def _bad_row(lines, header):
    """The "line N: ..." message for the first data line of `lines` that is not
    a row of finite floats as wide as the header (or the first row), or None."""
    bodies = [(n, body) for n, body in enumerate(map(_row_body, lines), start=1) if body]
    width = header and len(header)
    for lineno, body in bodies[header is not None:]:
        try:
            values = [_loadtxt_float(cell) for cell in body.split(",")]
        except ValueError:
            return f"line {lineno}: non-numeric row {body!r}"
        width = width or len(values)
        if len(values) != width:
            return f"line {lineno}: ragged rows ({len(values)} values, expected {width})"
        if not all(map(math.isfinite, values)):
            return f"line {lineno}: non-finite value in row {body!r}"
    return None

