"""Scope-CSV exports for the scope_ingest workload.

Each export is a sweep from `synthesize_sweep` (detector noise on, noise
seed = workload seed) written as `time_s,reference_v,probe_v` rows with
`repr` floats, so the values read back exactly. The time axis is affine in
row number, with span and offset drawn from the workload seed; it rises
with detuning in the rising export and falls with it in the falling one.
The generator keeps the true detuning-per-second slope and the markers
`extract_markers` reads off the generating trace, for the correctness check.
"""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from saslock.harness import manifold_window
from saslock.spectrum import extract_markers, synthesize_sweep

ROWS = 131072


@dataclass(frozen=True)
class ScopeExport:
    path: Path
    orientation: str        # "rising" or "falling": detuning vs time
    true_slope: float       # Hz of detuning per second of time_s
    markers: object         # DepthMarkers of the generating trace


def write_exports(cfg, seed, out_dir):
    """Write the rising and falling exports of `seed` into the directory `out_dir`."""
    table = cfg.load_table()
    start, stop, _ = cfg.sweep
    noise = replace(cfg.noise, enabled=True, seed=seed)
    trace = synthesize_sweep(table, cfg.medium, (start, stop, ROWS), noise)
    markers = extract_markers(
        trace, manifold_window(table, cfg), cfg.markers.selection(), table, cfg.medium
    )
    rng = np.random.default_rng(seed)
    exports = []
    for orientation in ("rising", "falling"):
        span_s = float(rng.uniform(1e-3, 1e-1))
        offset_s = float(rng.uniform(-0.05, 0.05))
        time_s = offset_s + span_s * np.arange(ROWS) / (ROWS - 1)
        order = slice(None) if orientation == "rising" else slice(None, None, -1)
        reference = trace.reference[order]
        probe = trace.probe[order]
        path = out_dir / f"scope_{orientation}.csv"
        with open(path, "w", encoding="utf-8") as f:
            f.write("time_s,reference_v,probe_v\n")
            f.writelines(
                f"{t!r},{r!r},{p!r}\n"
                for t, r, p in zip(time_s.tolist(), reference.tolist(), probe.tolist())
            )
        slope = (stop - start) / span_s
        exports.append(ScopeExport(
            path, orientation, slope if orientation == "rising" else -slope, markers
        ))
    return exports

