"""Span tracer that wraps stitsim's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, arm tag).
Self time is a span's duration minus the time of its direct child spans.
Functions are patched under every stitsim module name that holds them, since
`from .x import f` copies the binding; methods are patched on the class
itself so that `isinstance` checks against the class keep working.  Spans stay
in memory (up to MAX_SPANS raw records, aggregates always) and are written out
once at the end.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

MAX_SPANS = 50_000
ROOT = "bench.call"

# (layer name, module, function); one layer may cover several functions.
FUNCTIONS = [
    ("analysis.window_stats", "stitsim.analysis", "window_stats"),
    ("analysis.tests", "stitsim.analysis", "ks_two_sample"),
    ("analysis.tests", "stitsim.analysis", "chi_square_2x2"),
    ("analysis.tests", "stitsim.analysis", "holm_adjust"),
    ("engine.new_process", "stitsim.engine", "new_process"),
    ("engine.crop", "stitsim.engine", "crop"),
    ("geometry.split", "stitsim.geometry", "split"),
    ("geometry.clip_segment", "stitsim.geometry", "clip_segment"),
    ("geometry.segment_hits_polygon", "stitsim.geometry", "segment_hits_polygon"),
    ("rules.divide", "stitsim.rules", "divide"),
    ("rules.rate", "stitsim.rules", "rate"),
    ("measures.sample_hitting", "stitsim.measures", "sample_hitting"),
    ("config.parse", "stitsim.config", "load_config"),
    ("config.parse", "stitsim.config", "parse_simulate"),
    ("config.parse", "stitsim.config", "parse_consistency"),
    ("config.parse", "stitsim.config", "parse_verify"),
    ("config.parse", "stitsim.config", "parse_rate"),
    ("cli.main", "stitsim.cli", "main"),
    ("output.dump_geometry", "stitsim.output", "dump_geometry"),
    ("output.render_svg", "stitsim.output", "render_svg"),
]

# (layer name, module, class, method)
METHODS = [
    ("geometry.Polygon", "stitsim.geometry", "Polygon", "__init__"),
    ("geometry.Polygon.contains_polygon", "stitsim.geometry", "Polygon", "contains_polygon"),
    ("engine.advance", "stitsim.engine", "ProcessState", "advance"),
]

# Layers that make up one consistency replicate; they never nest in each other.
REPLICATE_LAYERS = ("engine.new_process", "engine.advance", "engine.crop", "analysis.window_stats")

# Layers whose self time and call count are reported per layer.
TIMED_LAYERS = (
    "analysis.window_stats",
    "geometry.Polygon.contains_polygon",
    "engine.new_process",
    "engine.advance",
    "geometry.split",
    "geometry.Polygon",
    "rules.divide",
    "rules.rate",
    "measures.sample_hitting",
    "engine.crop",
    "geometry.clip_segment",
    "geometry.segment_hits_polygon",
)
SELF_ONLY_LAYERS = (
    "analysis.tests",
    "config.parse",
    "cli.main",
    "output.dump_geometry",
    "output.render_svg",
)


class Tracer:
    """Collects spans of wrapped calls; `install` patches, `uninstall` restores."""

    def __init__(self, arm_of=None):
        # arm_of(build_window) -> "direct" | "cropped" | None tags replicate spans
        self.arm_of = arm_of
        self.tag = None
        self.agg: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
        self.counters = {
            "engine.events": 0,
            "geometry.split.two_piece": 0,
            "engine.crop.segments_in": 0,
            "engine.crop.segments_out": 0,
            "output.bytes_written": 0,
        }
        self.arm_reps = {"direct": 0, "cropped": 0}
        self.arm_time = {"direct": 0.0, "cropped": 0.0}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # frames: [child_time, span_id, name]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            parent = stack[-1] if stack else None
            frame = [0.0, tracer._next_id, name]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(frame, parent, t0, t1)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _close(self, frame, parent, t0, t1):
        dur = t1 - t0
        child_time, span_id, name = frame
        if parent is not None:
            parent[0] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur - child_time
        a[2] += dur
        if name in REPLICATE_LAYERS and self.tag is not None:
            self.arm_time[self.tag] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[1] if parent else None, name, t0, t1, self.tag))
        else:
            self.dropped += 1

    def call(self, fn, *args, **kwargs):
        """Run one workload main call as the root span."""
        self.tag = None
        return self._wrap(ROOT, fn)(*args, **kwargs)

    # -- hooks ---------------------------------------------------------------

    def _on_new_process(self, args):
        self.tag = self.arm_of(args[0]) if self.arm_of else None
        if self.tag is not None:
            self.arm_reps[self.tag] += 1

    def _hooks(self, name):
        c = self.counters
        if name == "engine.new_process":
            return self._on_new_process, None
        if name == "geometry.split":

            def post(args, result):
                if result[0] is not None and result[1] is not None:
                    c["geometry.split.two_piece"] += 1

            return None, post
        if name == "engine.crop":

            def post(args, result):
                c["engine.crop.segments_in"] += len(args[0].segments)
                c["engine.crop.segments_out"] += len(result.segments)

            return None, post
        if name in ("output.dump_geometry", "output.render_svg"):

            def post(args, result):
                c["output.bytes_written"] += os.path.getsize(args[1])

            return None, post
        return None, None

    # -- patching ------------------------------------------------------------

    def install(self):
        for modname in {m for _, m, _ in FUNCTIONS} | {m for _, m, _, _ in METHODS}:
            importlib.import_module(modname)
        modules = [m for k, m in sys.modules.items() if k == "stitsim" or k.startswith("stitsim.")]
        replaced = {}
        for name, modname, attr in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, fn, *self._hooks(name))
            replaced[fn] = wrapped
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    self._restore.append((mod, key, fn))
                    setattr(mod, key, wrapped)
        # the CLI's command table holds the parse functions by value
        cli = sys.modules["stitsim.cli"]
        self._restore.append((cli, "_COMMANDS", cli._COMMANDS))
        cli._COMMANDS = {
            k: tuple(replaced.get(f, f) for f in entry) for k, entry in cli._COMMANDS.items()
        }
        for name, modname, clsname, meth in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[meth]
            wrapped = self._wrap(name, orig, *self._hooks(name))
            if name == "engine.advance":
                wrapped = self._count_events(wrapped)
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, wrapped)

    def _count_events(self, advance):
        c = self.counters

        def counted(state, t):
            before = len(state.segments)
            try:
                return advance(state, t)
            finally:
                c["engine.events"] += len(state.segments) - before

        return counted

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, untraced_s: float, traced_s: float, pool_efficiency: float) -> dict:
        """Per-layer values; a layer the workload never calls reads 0."""

        def calls(name):
            return self.agg.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return self.agg.get(name, [0, 0.0, 0.0])[1]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        out = {}
        for name in TIMED_LAYERS:
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        for name in SELF_ONLY_LAYERS:
            out[f"{name}.self_s"] = self_s(name)
        advance_s = self.agg.get("engine.advance", [0, 0.0, 0.0])[2]
        root = self.agg.get(ROOT, [0, 0.0, 0.0])
        out.update(
            {
                "engine.events": c["engine.events"],
                "engine.events_per_s": ratio(c["engine.events"], advance_s),
                "geometry.split.useful_ratio": ratio(
                    c["geometry.split.two_piece"], calls("geometry.split")
                ),
                "engine.crop.merge_ratio": ratio(
                    c["engine.crop.segments_out"], c["engine.crop.segments_in"]
                ),
                "analysis.arm_direct.reps_per_s": ratio(
                    self.arm_reps["direct"], self.arm_time["direct"]
                ),
                "analysis.arm_cropped.reps_per_s": ratio(
                    self.arm_reps["cropped"], self.arm_time["cropped"]
                ),
                "analysis.pool.efficiency": pool_efficiency,
                "output.bytes_written": c["output.bytes_written"],
                "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
                "trace.unattributed_frac": ratio(root[1], root[2]),
            }
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, name, t0, t1, tag in self.spans:
                fh.write(json.dumps([span_id, parent, name, t0, t1, tag]) + "\n")
