"""Golden digests: the exact bytes saslock produces for pinned inputs.

`saslock all` on the bundled default config and seed writes the artifacts
pinned in ARTIFACTS. The closed-loop scenarios in SCENARIOS cover the
paths the default run does not take. A digest may change only in a change
that means to change the output; that change re-pins it here and says so.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from saslock.servo import Disturbances, closed_loop_run

ARTIFACTS = {
    "fluorescence_report.json": "a0025ca485b4daaaffac3b8752a44c6abd7001d6da3e90eb0a852dd67d971913",
    "lock_report.json": "f2e4e8ddc4b50aa29e1a08b6cd68288b6c846286093544238185bbc9dec0c558",
    "lock_timeseries.csv": "88a61dd1fd19bcb392c5ff095dcac53fb902686cec108bc4139d53d48adc74c3",
    "lock_timeseries.svg": "735846e53d6f445692e99875afef29fd1e26a76a48932ed7ff3e2d71b9340851",
    "sweep_report.json": "f167e8ba7c96995a5ec085fee20933b02413606b7f4c729ee550cb813e4e4a45",
    "sweep_trace.csv": "61a5327f686f132df51b71db89d00363fe8563a36d41bd7680e8a7f1a43987f3",
    "sweep_trace.svg": "3d7aa09bdf8db63154dc26d02a693768b986d419be8765edd8cea5814357f105",
    "temp_step_report.json": "4457ec823c16cfef2d5eab09ab1aa4f79eb639cf54a06f55af6c016f6ef20284",
    "temp_step_timeseries.csv": "63c94db13cc39c043871d45874fd950c4c4534438e966c21a07410c1a2e3c949",
    "temp_step_timeseries.svg": "5a4ead7230ee4f2924b6913f8c0358034be066528cd727c07de57c7c6675c2e6",
}


def test_saslock_all_artifacts(sweep_run, lock_run, temp_step_pos, fluorescence_run):
    # The session fixtures run the four experiments of `saslock all` with
    # its defaults, each into its own directory.
    digests = {}
    for _, out in (sweep_run, lock_run, temp_step_pos, fluorescence_run):
        for path in out.iterdir():
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == ARTIFACTS


# Each scenario: keyword arguments of closed_loop_run, with `plant`, `ramp`,
# `pid` and `lock` given as field overrides of the default config.
SCENARIOS = {
    "polarity_flipped_relocks": dict(duration=0.3, lock={"polarity": "-1"}),
    "start_locked_detuning_step": dict(
        duration=0.1,
        start_locked=True,
        disturbances=Disturbances(detuning_step_hz=3e6, detuning_step_time_s=0.02),
    ),
    "noise_off": dict(duration=0.1, noise_enabled=False),
    "sawtooth_ramp": dict(duration=0.1, ramp={"shape": "sawtooth"}),
    "smoothed_derivative": dict(duration=0.1, pid={"kd": 2e-6, "derivative_smoothing": 3}),
    "mode_hop_abort": dict(duration=0.01, plant={"mode_hop_span": 2.8e9}),
}

SCENARIO_DIGESTS = {
    "polarity_flipped_relocks": "6abeb59ab569bce8997d9643a754e71cd96e4330606cc99a242a2d846c4d0c04",
    "start_locked_detuning_step": "d0851bf7a402bcb15081d45207bb6b14befeb664dd01cb062505196db8709217",
    "noise_off": "8d93ab292d4dc3ae53208574df7e3876eee0c268ced33620a4ede70b28d08214",
    "sawtooth_ramp": "547fd69927feaac6f16ba21a123bee01bd11427f1518792879ff36bf59ada751",
    "smoothed_derivative": "0dfb0ee0c73044fbe71046c3243a914c94174698494d8e501104aa4dc66ff08b",
    "mode_hop_abort": "b1d3516ec203f59d2b49789acc5ccb738f00b2175775023cde00317778712418",
}


def run_scenario(cfg, table, spec):
    spec = dict(spec)
    sections = {
        name: replace(getattr(cfg, name), **spec.pop(name, {}))
        for name in ("plant", "ramp", "pid", "lock")
    }
    return closed_loop_run(
        table,
        cfg.medium,
        sections["plant"],
        sections["ramp"],
        sections["pid"],
        sections["lock"],
        dt=cfg.run.dt_s,
        seed=cfg.noise.seed,
        detector_noise_v=cfg.noise.sigma_v,
        **spec,
    )


def log_digest(log):
    """sha256 over the logged arrays, the phase sequence and the run metadata."""
    h = hashlib.sha256()
    for column in (log.t, log.detuning, log.error, log.control, log.temperature):
        h.update(np.asarray(column, dtype="<f8").tobytes())
    h.update("|".join(log.phase).encode())
    h.update(json.dumps(log.meta, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_closed_loop_scenario(name, default_cfg, table):
    log = run_scenario(default_cfg, table, SCENARIOS[name])
    assert log_digest(log) == SCENARIO_DIGESTS[name]
