"""M4 decimation of the SVG polylines.

Each property renders a plot twice: as written, and with `_m4` replaced
by one that keeps every sample, which is the undecimated plot.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from saslock import svgplot
from saslock.errors import SweepError
from saslock.svgplot import MARGIN_L, MARGIN_R, PLOT_COLUMNS, WIDTH, render_line_plot


def keep_all(runs, y_px):
    return range(len(y_px))


def render(x, ys, m4=svgplot._m4):
    """The SVG of x against the series ys, decimated by m4, and for each
    polyline the pixel values m4 saw and the indices it kept."""
    calls = []

    def recording(runs, y_px):
        kept = m4(runs, y_px)
        calls.append((y_px, list(kept)))
        return kept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svgplot, "_m4", recording)
        svg = render_line_plot(x, [(f"s{i}", y) for i, y in enumerate(ys)],
                               title="t", x_label="x", y_label="y")
    return svg, calls


def polylines(svg):
    """The vertices of each polyline, as the "x,y" strings written."""
    return [points.split(" ") for points in re.findall(r'points="([^"]*)"', svg)]


def pixel_columns(x):
    """The pixel column of each sample: floor(x_px - MARGIN_L), clamped."""
    x_px = svgplot._scale(x, x.min(), x.max(), MARGIN_L, WIDTH - MARGIN_R)
    return np.clip(np.floor(x_px - MARGIN_L), 0, PLOT_COLUMNS - 1)


def plot_inputs(seed, n, n_series, repeat_frac, decimals):
    """A non-decreasing x of n samples, about repeat_frac of its steps zero,
    and n_series random walks rounded to `decimals` (so with ties)."""
    rng = np.random.default_rng(seed)
    steps = rng.exponential(size=n) * (rng.random(n) >= repeat_frac)
    x = 1e3 * rng.normal() + np.cumsum(steps) * 10.0 ** int(rng.integers(-6, 7))
    ys = rng.normal(size=(n_series, n)).cumsum(axis=1).round(decimals)
    return x, list(ys)


@settings(max_examples=40, deadline=None)
@given(
    seed=strategies.integers(0, 2**32 - 1),
    n=strategies.integers(1, 6000),
    n_series=strategies.integers(1, 3),
    repeat_frac=strategies.sampled_from([0.0, 0.5, 0.95, 1.0]),
    decimals=strategies.integers(0, 3),
)
def test_m4_keeps_each_columns_first_last_min_max(seed, n, n_series, repeat_frac, decimals):
    x, ys = plot_inputs(seed, n, n_series, repeat_frac, decimals)
    svg, calls = render(x, ys)
    full_svg, _ = render(x, ys, keep_all)
    column = pixel_columns(x)
    assert len(calls) == n_series
    for (y_px, kept), points, full in zip(calls, polylines(svg), polylines(full_svg)):
        assert len(points) <= 4 * PLOT_COLUMNS
        assert points == [full[i] for i in kept]
        assert kept == sorted(set(kept))
        kept_column = column[kept]
        for c in np.unique(column):
            whole, dec = y_px[column == c], y_px[kept][kept_column == c]
            assert (dec[0], dec[-1]) == (whole[0], whole[-1])
            assert (dec.min(), dec.max()) == (whole.min(), whole.max())


@settings(max_examples=40, deadline=None)
@given(
    seed=strategies.integers(0, 2**32 - 1),
    n=strategies.integers(1, PLOT_COLUMNS),
    n_series=strategies.integers(1, 3),
)
def test_one_sample_per_column_is_undecimated(seed, n, n_series):
    rng = np.random.default_rng(seed)
    # Pixel steps of at least 1.01 px put every sample in its own column.
    x = np.cumsum(rng.uniform(1.01, 3.0, n))
    x = x[x < PLOT_COLUMNS - 1] * 10.0 ** int(rng.integers(-6, 7))
    ys = list(rng.normal(size=(n_series, len(x))))
    assert np.all(np.bincount(pixel_columns(x).astype(int)) <= 1)
    assert render(x, ys)[0] == render(x, ys, keep_all)[0]


def test_decimation_bounds_a_long_series():
    rng = np.random.default_rng(5)
    n = 262144
    x = np.linspace(-1.4, 2.4, n)
    svg, calls = render(x, list(rng.normal(size=(3, n))))
    assert [len(points) for points in polylines(svg)] == [len(kept) for _, kept in calls]
    assert all(3 * PLOT_COLUMNS <= len(kept) <= 4 * PLOT_COLUMNS for _, kept in calls)
    assert len(svg) < 500_000


def test_worst_case_is_four_vertices_per_column():
    # Four samples a column, each a distinct first, lowest, highest, last;
    # the sample on the right edge joins the last column.
    x = np.arange(4 * PLOT_COLUMNS + 1) / 4
    y = np.append(np.tile([0.0, -1.0, 1.0, 0.5], PLOT_COLUMNS), 0.25)
    (points,) = polylines(render(x, [y])[0])
    assert len(points) == 4 * PLOT_COLUMNS


@pytest.mark.parametrize("x", [[0.0, 2.0, 1.0], [3.0, 2.0], [0.0, np.nan, 1.0]])
def test_axis_must_be_non_decreasing(x):
    with pytest.raises(SweepError, match="non-decreasing"):
        render_line_plot(x, [("y", np.zeros(len(x)))], title="t", x_label="x", y_label="y")
