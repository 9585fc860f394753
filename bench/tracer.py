"""Span tracing of saslock's layers, installed from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper
wherever the package binds it: the module attribute in its own module
(so calls from inside that module are seen), the same name in every
module that imported it, and values of module-level dicts (such as
`cli._RUNNERS`). `uninstall()` puts the originals back. Nothing under
`src/` is edited.

Three kinds of call site are recorded:

* ``span``: one span per call with name, start, end and parent, kept in
  memory and written out by the caller when the benchmark ends;
* ``agg``: per-step calls (145k each of `lock_step`, `pid_step` and
  `step_plant` on `all_default`), folded into a count and summed duration
  attached to the parent span, so the trace stays bounded;
* ``count``: call count only (`lineshape`, whose formulas are re-inlined
  in `spectrum`, so its real cost shows up in `spectrum`'s self time).

A span's self time is its duration minus the durations of its children,
spans and aggregated calls alike.
"""

import functools
import importlib
import inspect
import sys
import time

# target "module.function" -> (span name, kind). The two line-table loaders
# share one name: the bundled table goes through load_default_line_data and
# a file through load_line_data.
TARGETS = {
    "cli.main": ("cli.main", "span"),
    "harness.parse_config": ("harness.parse_config", "span"),
    "atomic_data.load_line_data": ("atomic_data.load_line_data", "span"),
    "atomic_data.load_default_line_data": ("atomic_data.load_line_data", "span"),
    "harness.run_sweep_experiment": ("harness.run_sweep_experiment", "span"),
    "harness.run_lock_experiment": ("harness.run_lock_experiment", "span"),
    "harness.run_temp_step_experiment": ("harness.run_temp_step_experiment", "span"),
    "harness.run_fluorescence_experiment": ("harness.run_fluorescence_experiment", "span"),
    "harness.ingest_scope_csv": ("harness.ingest_scope_csv", "span"),
    "servo.closed_loop_run": ("servo.closed_loop_run", "span"),
    "servo.build_error_map": ("servo.build_error_map", "span"),
    "servo.write_locklog_csv": ("servo.write_locklog_csv", "span"),
    "servo.lock_step": ("servo.lock_step", "agg"),
    "servo.pid_step": ("servo.pid_step", "agg"),
    "plant.step_plant": ("plant.step_plant", "agg"),
    "svgplot.render_line_plot": ("svgplot.render_line_plot", "span"),
    "spectrum.synthesize_sweep": ("spectrum.synthesize_sweep", "span"),
    "spectrum.trace_to_csv": ("spectrum.trace_to_csv", "span"),
    "spectrum.extract_markers": ("spectrum.extract_markers", "span"),
    "spectrum.moving_median": ("spectrum.moving_median", "span"),
    "lineshape.lorentzian": ("lineshape.calls", "count"),
    "lineshape.doppler_gaussian": ("lineshape.calls", "count"),
    "lineshape.doppler_fwhm": ("lineshape.calls", "count"),
    "lineshape.saturation_broadened_width": ("lineshape.calls", "count"),
}


# Work counts read off a traced call: name -> (before(args), after(args,
# result, before) -> {counter: amount}). `args` are the bound arguments.
# A probe that no longer fits its function records PROBE_ERRORS and skips
# the count; it never breaks the call.
PROBE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)
PROBES = {
    "servo.closed_loop_run": (None, lambda a, r, b: {"servo.steps": len(r)}),
    "servo.write_locklog_csv": (
        lambda a: a["fileobj"].tell(),
        lambda a, r, b: {
            "servo.locklog_rows": len(a["log"]),
            "servo.locklog_bytes": a["fileobj"].tell() - b,
        },
    ),
    "svgplot.render_line_plot": (
        None,
        lambda a, r, b: {
            "svgplot.vertices": len(a["x"]) * len(a["series"]),
            "svgplot.svg_bytes": len(r.encode("utf-8")),
        },
    ),
    "spectrum.synthesize_sweep": (None, lambda a, r, b: {"spectrum.samples": len(r)}),
    "spectrum.trace_to_csv": (
        None, lambda a, r, b: {"spectrum.trace_csv_bytes": len(r.encode("utf-8"))}
    ),
    "spectrum.moving_median": (
        None, lambda a, r, b: {"spectrum.moving_median_elems": len(r) * int(a["window"])}
    ),
    "harness.ingest_scope_csv": (None, lambda a, r, b: {"harness.ingest_rows": len(r)}),
}


class Tracer:
    """Records spans and counts for the calls made while installed."""

    def __init__(self):
        self.spans = []           # finished span records, in end order
        self.stats = {}           # span name -> {"calls", "incl_s", "self_s"}
        self.counts = {}          # counter name -> total
        self.missing = []         # targets the package no longer defines
        self.probe_errors = []    # probes that could not read their count
        self.op = None            # operation id stamped on each span
        self._stack = []          # open frames: [name, start, child_s, span_id, agg]
        self._next_id = 0
        self._patches = []        # (module or dict, key, original)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "saslock" or n.startswith("saslock.")]
        for target, (name, kind) in TARGETS.items():
            module_name, func_name = target.split(".")
            module = importlib.import_module(f"saslock.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(original, name, kind, PROBES.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                value[dkey] = wrapper
                                self._patches.append((value, dkey, original))

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, kind, probe):
        tracer = self
        clock = time.perf_counter
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        signature = inspect.signature(fn)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = before = None
            if probe is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    before = probe[0](bound) if probe[0] is not None else None
                except PROBE_ERRORS as exc:
                    tracer.probe_errors.append(f"{name}: {exc!r}")
                    bound = None
            frame = [name, 0.0, 0.0, None, None]
            if kind == "span":
                frame[3] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, end, kind)
            if bound is not None:
                tracer._probe(name, probe[1], bound, result, before)
            return result
        return traced

    def _close(self, frame, end, kind):
        name, start, child_s, span_id, agg = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        stat["calls"] += 1
        stat["incl_s"] += duration
        stat["self_s"] += duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if kind == "agg":
            # Fold this call, and the aggregated calls made inside it, into
            # the parent, so every count ends up on the enclosing span.
            if parent is not None:
                if parent[4] is None:
                    parent[4] = {}
                folded = parent[4]
                entry = folded.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += duration
                for key, (calls, dur) in (agg or {}).items():
                    entry = folded.setdefault(key, [0, 0.0])
                    entry[0] += calls
                    entry[1] += dur
            return
        self.spans.append({
            "id": span_id,
            "op": self.op,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent[3] if parent is not None else None,
            "aggregated": {k: {"calls": c, "dur_s": d} for k, (c, d) in (agg or {}).items()},
        })

    def _probe(self, name, after, bound, result, before):
        try:
            amounts = after(bound, result, before)
        except PROBE_ERRORS as exc:
            self.probe_errors.append(f"{name}: {exc!r}")
            return
        for counter, amount in amounts.items():
            self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- per-operation snapshots -------------------------------------------

    def reset(self, op):
        """Start a fresh operation: clears stats and counts, keeps spans."""
        self.stats = {}
        self.counts = {}
        self.op = op

    def root_span_seconds(self, op):
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["op"] == op and s["parent"] is None)


def layer_metrics(stats, counts):
    """Per-layer metrics of one operation, from its stats and counts.

    `_s` values are self times, except the harness experiments, which are
    inclusive, and `servo.us_per_step`, which is the closed loop's
    inclusive time over its steps.
    """
    idle = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def stat(name, key):
        return stats.get(name, idle)[key]

    loop_s = stat("servo.closed_loop_run", "incl_s")
    steps = counts.get("servo.steps", 0)
    out = {
        "cli.main_s": stat("cli.main", "self_s"),
        "harness.parse_config_s": stat("harness.parse_config", "self_s"),
        "atomic_data.load_line_data_s": stat("atomic_data.load_line_data", "self_s"),
        "atomic_data.load_line_data_calls": stat("atomic_data.load_line_data", "calls"),
    }
    for experiment in ("sweep", "lock", "temp_step", "fluorescence"):
        name = f"harness.run_{experiment}_experiment"
        out[f"{name}_s"] = stat(name, "incl_s")
    out.update({
        "servo.closed_loop_run_s": stat("servo.closed_loop_run", "self_s"),
        "servo.steps": steps,
        "servo.us_per_step": loop_s / steps * 1e6 if steps else 0.0,
    })
    for name in ("servo.lock_step", "servo.pid_step", "plant.step_plant",
                 "servo.build_error_map", "spectrum.synthesize_sweep",
                 "spectrum.moving_median"):
        out[f"{name}_s"] = stat(name, "self_s")
        out[f"{name}_calls"] = stat(name, "calls")
    for name in ("servo.write_locklog_csv", "svgplot.render_line_plot",
                 "spectrum.trace_to_csv", "spectrum.extract_markers",
                 "harness.ingest_scope_csv"):
        out[f"{name}_s"] = stat(name, "self_s")
    for name in ("servo.locklog_rows", "servo.locklog_bytes", "svgplot.vertices",
                 "svgplot.svg_bytes", "spectrum.samples", "spectrum.trace_csv_bytes",
                 "spectrum.moving_median_elems", "harness.ingest_rows", "lineshape.calls"):
        out[name] = counts.get(name, 0)
    return out
