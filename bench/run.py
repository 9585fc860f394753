"""saslock benchmark: one workload per call, or all three in turn.

    python3 bench/run.py --workload all_default --seed 20240917 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, with a summary table

Workloads (see bench/README.md): all_default, sweep_hires, scope_ingest.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
installs the span tracer (bench/tracer.py) and reports the per-layer
metrics. Either way it checks every operation's output, prints a summary,
writes the full record to bench/results/, and prints one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names and units come from BENCHMARK.json at the checkout root.
Operations run in this process, one at a time (set-up samples run in
fresh interpreters), with the BLAS/OpenMP pools pinned to one thread.
The gated times are CPU seconds rescaled to a reference CPU speed by
bench/speedprobe.py, because wall time on a shared host drifts with the
neighbours' load; raw wall times are reported beside them.
saslock is imported from the checkout's src/ and nowhere else.
"""

import os

# Pin the native thread pools before numpy loads, here and in child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SASLOCK_CONFIG_DIR", None)   # the CLI would read its default.cfg

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "results"
DEFAULT_SEED = 20240917
WORKLOADS = ("all_default", "sweep_hires", "scope_ingest")
SETUP_REPEATS = 3

SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[2])
from speedprobe import SpeedProbe
t0 = time.perf_counter()
with SpeedProbe() as probe:
    sys.path.insert(0, sys.argv[1])
    import saslock
    from saslock.harness import load_default_config
    load_default_config()
elapsed = time.perf_counter() - t0
if not saslock.__file__.startswith(sys.argv[1]):
    sys.exit("saslock imported from " + saslock.__file__)
print(json.dumps({"ref_s": probe.ref_s, "wall_s": elapsed, "cpu_s": probe.cpu_s,
                  "probe_s": probe.probe_s}))
"""


def import_saslock():
    """Put the checkout's src/ first on sys.path and check saslock loads from it."""
    package = SRC / "saslock"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no saslock package at {package}")
    sys.path.insert(0, str(SRC))
    import saslock
    if Path(saslock.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: saslock imported from {saslock.__file__}, not {package}")


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(repeats=SETUP_REPEATS):
    """Import saslock and load the default config in fresh interpreters.

    Returns one sample per interpreter: its wall and CPU seconds, the
    speed probe's time and the CPU seconds at the reference speed
    (bench/speedprobe.py).

    Call after this process has imported saslock, which writes the bytecode
    caches of a new checkout, so that every sample finds them.
    """
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def run_ops(workload, first, budget_s, min_ops, tracer=None, speed=False):
    """Run operations from index `first` for about budget_s seconds.

    Stops after the first whole cycle (`workload.pair` operations) that
    ends within half a cycle of the budget, and after at least `min_ops`.
    With `speed`, each operation also runs under a SpeedProbe and its
    record gets its CPU seconds, probe time and `ref_s`.
    Returns one record per operation.
    """
    from speedprobe import SpeedProbe
    from tracer import layer_metrics
    from workloads import Outcome

    records = []
    began = time.perf_counter()
    i = first
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset(i)
        probe = SpeedProbe() if speed else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with probe:
                result = workload.op(i)
        except Exception:  # a raising operation is counted as failed; the run goes on
            wall = time.perf_counter() - start
            outcome = Outcome(False, traceback.format_exc(limit=-3).strip())
        else:
            wall = time.perf_counter() - start
            outcome = workload.check(i, result)
        record = {"index": i, "wall_s": wall, "ok": outcome.ok, "reason": outcome.reason,
                  "artifact_bytes": outcome.artifact_bytes, **outcome.details}
        if speed:
            record.update(cpu_s=probe.cpu_s, probe_s=probe.probe_s, ref_s=probe.ref_s)
        if tracer is not None:
            record["layers"] = layer_metrics(tracer.stats, tracer.counts)
            record["root_span_s"] = tracer.root_span_seconds(i)
        records.append(record)
        i += 1
        if len(records) % workload.pair == 0 and len(records) >= min_ops:
            elapsed = time.perf_counter() - began
            per_cycle = elapsed / (len(records) // workload.pair)
            if elapsed + per_cycle / 2 >= budget_s:
                return records


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
    }


def src_loc():
    """Line count of src/saslock/*.py, as `wc -l` gives it."""
    return sum(p.read_text(encoding="utf-8").count("\n")
               for p in sorted((SRC / "saslock").glob("*.py")))


def layer_summary(untraced, traced):
    """Per-operation per-layer values: medians of times, means of counts."""
    values = {}
    for name in traced[0]["layers"]:
        series = [r["layers"][name] for r in traced]
        if name.endswith("_s") or name.endswith("us_per_step"):
            values[name] = statistics.median(series)
        else:
            values[name] = series[0] if len(set(series)) == 1 else statistics.fmean(series)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.top_span_coverage": statistics.median(
            r["root_span_s"] / r["wall_s"] for r in traced),
    })
    return values


def run_workload(args):
    import_saslock()
    import workloads
    from tracer import Tracer

    declared = declared_metrics(args.trace)
    work_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = None
    try:
        setup = [] if args.trace else measure_setup()
        workload = workloads.build(args.workload, work_dir, args.seed)
        if args.trace:
            untraced = run_ops(workload, 0, args.seconds / 2, workload.pair)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(workload, len(untraced), args.seconds / 2, workload.pair, tracer)
            finally:
                tracer.uninstall()
            records = untraced + traced
        else:
            records = run_ops(workload, 0, args.seconds, workload.pair, speed=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(not r["ok"] for r in records)
    report = {
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "known_defect_ops": sum("known_defect" in r for r in records),
        "known_defects": sorted({r["known_defect"] for r in records if "known_defect" in r}),
        "artifact_bytes": records[0]["artifact_bytes"],
        "sha256": records[0].get("sha256", {}),
    }
    if args.trace:
        computed = layer_summary(untraced, traced)
        report["traced_ops"] = len(traced)
        report["missing_targets"] = tracer.missing
        report["probe_errors"] = tracer.probe_errors
    else:
        computed = {
            "setup_s": statistics.median(s["ref_s"] for s in setup),
            "op_cpu_s": statistics.median(r["ref_s"] for r in records),
            "wall_s": statistics.median(r["wall_s"] for r in records),
            "probe_s": statistics.median(r["probe_s"] for r in records),
            "peak_rss_mb": peak_rss_mb,
            "artifact_bytes": report["artifact_bytes"],
            "fail_frac": report["fail_frac"],
        }
        report["setup_samples"] = setup
    absent = sorted(set(declared) - set(computed))
    if absent:
        raise SystemExit(f"bench: declared metrics not computed: {absent}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "repository": {"src_loc": src_loc()},
        "report": report,
        "metrics": computed,
        "operations": records,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = RESULTS_DIR / f"{stem}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    if tracer is not None:
        (RESULTS_DIR / f"{stem}-spans.json").write_text(
            json.dumps(tracer.spans) + "\n", encoding="utf-8")

    print_summary(record, result_path)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": computed[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def print_summary(record, result_path):
    report, env = record["report"], record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  ({report['attempted']} operations)")
    for name, value in record["metrics"].items():
        print(f"  {name:40s} {value!r}")
    print(f"  failed {report['failed']} of {report['attempted']} operations")
    if report["known_defect_ops"]:
        print(f"  KNOWN DEFECT in {report['known_defect_ops']} more operations, "
              "not counted as failed (see bench/README.md):")
    for defect in report["known_defects"]:
        print(f"    {defect}")
    for r in record["operations"]:
        if not r["ok"]:
            print(f"  op {r['index']} FAILED: {r['reason']}")
    for name, digest in report["sha256"].items():
        print(f"  sha256 {digest}  {name}")
    print(f"  src_loc {record['repository']['src_loc']}; python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']}, commit {env['commit']}")
    print(f"  full record: {result_path}")


def run_all(args):
    """Run each workload in its own process and tabulate the end-to-end report."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            status = 1
            continue
        path = RESULTS_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        rows.append(json.loads(path.read_text(encoding="utf-8")))
    if not args.trace and rows:
        header = ("workload", "setup_s", "op_cpu_s", "wall_s", "peak_rss_mb",
                  "artifact_bytes", "fail_frac", "failed/attempted", "known-defect ops")
        print("\n" + " | ".join(header))
        for rec in rows:
            m, rep = rec["metrics"], rec["report"]
            print(f"{rec['workload']} | {m['setup_s']:.4f} s | {m['op_cpu_s']:.4f} s | "
                  f"{m['wall_s']:.4f} s | "
                  f"{m['peak_rss_mb']:.1f} MB | {m['artifact_bytes']} B | "
                  f"{m['fail_frac']:g} | {rep['failed']}/{rep['attempted']} | "
                  f"{rep['known_defect_ops']}/{rep['attempted']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description="saslock benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
