"""Per-layer tracing from outside the program.

The traced run wraps public functions of each layer at run time (the
program's sources stay untouched) and keeps one span per call in memory:
name, start, end, parent span, and the request it serves (the query name
plus its window id, or the submission name).  A layer's self time is its
spans' time minus the time their child spans cover; it is accumulated
while the run goes, and the spans are written out at the end as JSONL in
the ``repro.obs`` span format, so ``python -m repro.obs <file>`` renders
them.

Counts come from the wrappers' own call counts and return values and
from the program's public read APIs: ``metrics_snapshot()`` and the
engines' ``cache.stats``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from collections import Counter, defaultdict

#: (span name, module, class or None, attribute).  Every span name is a
#: layer; ``LAYER_METRICS`` maps it onto the reported self-time metric.
TARGETS = [
    ("siemens.generate_fleet", "repro.siemens", None, "generate_fleet"),
    ("siemens.deploy", "repro.siemens", None, "deploy"),
    ("optique.submit", "repro.optique.session", "Session", "submit"),
    ("optique.close", "repro.optique.session", "QueryHandle", "close"),
    ("starql.translate_text", "repro.starql.translator", "STARQLTranslator",
     "translate_text"),
    ("starql.parse", "repro.starql.parser", None, "parse_starql"),
    ("starql.translate", "repro.starql.translator", "STARQLTranslator",
     "translate"),
    ("rewriting.rewrite", "repro.rewriting.perfectref", "PerfectRef",
     "rewrite"),
    ("queries.minimize_ucq", "repro.rewriting.perfectref", None,
     "minimize_ucq"),
    ("mappings.unfold", "repro.mappings.unfolding", "Unfolder", "unfold"),
    ("analysis.check_sharing", "repro.analysis.sharing", None,
     "check_sharing"),
    ("analysis.index_plan", "repro.analysis.sharing", None, "index_plan"),
    ("relational.query", "repro.relational.database", "Database",
     "query_with_names"),
    ("exastream.register", "repro.exastream.gateway", "GatewayServer",
     "register"),
    ("exastream.bind", "repro.exastream.engine", "StreamEngine", "bind"),
    ("exastream.bind", "repro.exastream.sharded", "ShardedEngine", "bind"),
    ("exastream.deregister", "repro.exastream.gateway", "GatewayServer",
     "deregister"),
    ("exastream.step", "repro.exastream.gateway", "GatewayServer", "step"),
    ("sharded.combine_partials", "repro.exastream.sharded", None,
     "combine_partials"),
    ("udf.sequence", "repro.exastream.udf", "SequenceUDF", "__call__"),
    ("exastream.sink_offer", "repro.exastream.engine", "BoundedResultSink",
     "offer"),
    ("exastream.bus_publish", "repro.exastream.bus", "EventBus", "publish"),
    ("scheduler.observe", "repro.exastream.scheduler", "Scheduler",
     "observe"),
    ("durability.checkpoint", "repro.exastream.durability.checkpoint",
     "CheckpointManager", "checkpoint"),
    ("exastream.subscriber", "perfbench.workloads", "Deliveries", "__call__"),
]

#: span name -> per-layer self-time metric (several spans may share one)
LAYER_METRICS = {
    "siemens.generate_fleet": "siemens.fleet_s",
    "siemens.deploy": "siemens.deploy_s",
    "optique.submit": "optique.session_self_s",
    "optique.close": "optique.session_self_s",
    "starql.translate_text": "starql.prepare_self_s",
    "starql.parse": "starql.parse_s",
    "starql.translate": "starql.translate_self_s",
    "rewriting.rewrite": "rewriting.rewrite_self_s",
    "queries.minimize_ucq": "queries.minimize_s",
    "mappings.unfold": "mappings.unfold_s",
    "analysis.check_sharing": "analysis.advisory_s",
    "analysis.index_plan": "analysis.advisory_s",
    "relational.query": "relational.static_query_s",
    "exastream.register": "exastream.register_self_s",
    "exastream.bind": "exastream.bind_self_s",
    "exastream.deregister": "exastream.deregister_s",
    "exastream.step": "exastream.pulse_self_s",
    "exastream.window.recompute": "exastream.window_recompute_s",
    "exastream.window.pane": "exastream.window_pane_s",
    "sharded.window": "sharded.coord_self_s",
    "sharded.combine_partials": "sharded.merge_s",
    "udf.sequence": "udf.sequence_s",
    "exastream.sink_offer": "exastream.deliver_s",
    "exastream.bus_publish": "exastream.deliver_s",
    "exastream.subscriber": "exastream.deliver_s",
    "scheduler.observe": "scheduler.observe_s",
    "durability.checkpoint": "durability.checkpoint_s",
    "python.gc": "python.gc_pause_s",
}

#: every per-layer metric with its unit, in report order
PER_LAYER = [(name, "s") for name in dict.fromkeys(LAYER_METRICS.values())]
PER_LAYER += [
    ("sharded.shard_window_s", "s"),
    ("starql.translation_hit_ratio", "ratio"),
    ("rewriting.ucq_size", "count"),
    ("queries.containment_checks", "count"),
    ("mappings.fleet_size", "count"),
    ("relational.static_queries", "count"),
    ("relational.static_rows", "count"),
    ("relational.static_repeat_share", "ratio"),
    ("exastream.windows_recompute", "count"),
    ("exastream.windows_pane", "count"),
    ("exastream.pane_window_share", "ratio"),
    ("exastream.tuples_in", "count"),
    ("exastream.tuples_out", "count"),
    ("exastream.panes_built", "count"),
    ("mqo.hits", "count"),
    ("udf.sequence_calls", "count"),
    ("streams.window_hit_ratio", "ratio"),
    ("streams.pane_hit_ratio", "ratio"),
    ("durability.checkpoints", "count"),
    ("durability.checkpoint_bytes", "bytes"),
    ("durability.checkpoint_share", "ratio"),
    ("python.gc_collections", "count"),
    ("trace.coverage", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.ops_per_s", "1/s"),
]


class SpanRecorder:
    """An explicit span stack with online self-time accounting."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: open frames: [name, query, start, child seconds, span id, trace id]
        self.stack: list[list] = []
        #: closed spans: (name, trace, span, parent, query, start, end, attrs)
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: query attribution for root spans opened by the benchmark loop
        self.context = "setup"
        self._next_span = 1
        self._next_trace = 0

    def enter(self, name: str, query: str | None = None) -> list:
        stack = self.stack
        if stack:
            parent = stack[-1]
            trace, parent_id = parent[5], parent[4]
            if query is None:
                query = parent[1]
        else:
            self._next_trace += 1
            trace, parent_id = self._next_trace, None
            if query is None:
                query = self.context
        frame = [name, query, self.clock(), 0.0, self._next_span, trace,
                 parent_id]
        self._next_span += 1
        stack.append(frame)
        return frame

    def exit(self, frame: list, attrs: dict | None = None) -> float:
        end = self.clock()
        stack = self.stack
        while stack and stack[-1] is not frame:  # an exception unwound it
            stack.pop()
        if stack:
            stack.pop()
        duration = end - frame[2]
        own = duration - frame[3]
        self.self_s[frame[0]] += own
        self.calls[frame[0]] += 1
        if stack:
            stack[-1][3] += duration
        self.spans.append((frame[0], frame[5], frame[4], frame[6], frame[1],
                           frame[2], end, attrs))
        return own

    def write_jsonl(self, path) -> None:
        """The spans in the ``repro.obs`` JSONL span format."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, trace, span, parent, query, start, end, attrs in self.spans:
                record = {"name": name, "trace": trace, "span": span,
                          "parent": parent, "query": query,
                          "start": round(start, 9), "end": round(end, 9)}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record, sort_keys=True) + "\n")


class Probe:
    """Installs the wrappers, records spans, and computes layer metrics.

    A window's tier is its query's tier at registration, read from the
    plan with ``analyze_incremental`` (the traced deployment runs panes).
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._undo: list[tuple] = []
        #: query name -> "pane" or "recompute"
        self._tiers: dict[str, str] = {}
        self._sharded_depth = 0
        self.shard_window_s = 0.0
        self.windows = Counter()
        self.ucq_size = 0
        self.fleet_size = 0
        self.containment_checks = 0
        self.static_rows = 0
        self.static_repeats = 0
        self._static_seen: set = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, the window runtimes and the collector."""
        from repro.exastream.engine import PlanRuntime
        from repro.exastream.sharded import ShardedPlanRuntime

        hooks = {
            "rewriting.rewrite": self._on_rewrite,
            "mappings.unfold": self._on_unfold,
            "relational.query": self._on_static_query,
        }
        for span, module, owner, attribute in TARGETS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            self._patch(target, attribute,
                        self._wrap(span, getattr(target, attribute),
                                   hooks.get(span)))
        containment = importlib.import_module("repro.queries.containment")
        self._patch(containment, "is_contained_in",
                    self._count_containment(containment.is_contained_in))
        self._patch(PlanRuntime, "execute_window",
                    self._wrap_window(PlanRuntime.execute_window, False))
        self._patch(ShardedPlanRuntime, "execute_window",
                    self._wrap_window(ShardedPlanRuntime.execute_window, True))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for target, attribute, original in reversed(self._undo):
            setattr(target, attribute, original)
        self._undo.clear()

    def _patch(self, target, attribute, wrapper) -> None:
        self._undo.append((target, attribute, getattr(target, attribute)))
        setattr(target, attribute, wrapper)

    def _wrap(self, span, original, hook):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            query = kwargs.get("name") if span == "optique.submit" else None
            frame = recorder.enter(span, query)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.exit(frame)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _wrap_window(self, original, sharded: bool):
        recorder, probe = self.recorder, self

        @functools.wraps(original)
        def execute_window(runtime, window_id):
            tier = probe._tier(runtime)
            top = probe._sharded_depth == 0
            name = "sharded.window" if sharded else f"exastream.window.{tier}"
            frame = recorder.enter(name, runtime.plan.name)
            if sharded:
                probe._sharded_depth += 1
            try:
                result = original(runtime, window_id)
            finally:
                if sharded:
                    probe._sharded_depth -= 1
                own = recorder.exit(frame, {"window": window_id})
            if not sharded and not top:
                probe.shard_window_s += own
            if top and result is not None:
                probe.windows[tier] += 1
            return result

        return execute_window

    def _tier(self, runtime) -> str:
        plan = runtime.plan
        tier = self._tiers.get(plan.name)
        if tier is None:
            from repro.exastream import IncrementalMode, analyze_incremental

            pane = analyze_incremental(plan).mode is not IncrementalMode.RECOMPUTE
            tier = self._tiers[plan.name] = "pane" if pane else "recompute"
        return tier

    def _count_containment(self, original):
        @functools.wraps(original)
        def is_contained_in(*args, **kwargs):
            self.containment_checks += 1
            return original(*args, **kwargs)

        return is_contained_in

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_frame = self.recorder.enter("python.gc")
        else:
            self.recorder.exit(self._gc_frame,
                               {"generation": info["generation"]})

    def _on_rewrite(self, args, ucq) -> None:
        self.ucq_size += len(ucq)

    def _on_unfold(self, args, unfolding) -> None:
        self.fleet_size += unfolding.fleet_size

    def _on_static_query(self, args, result) -> None:
        key = (id(args[0]), args[1])
        if key in self._static_seen:
            self.static_repeats += 1
        self._static_seen.add(key)
        self.static_rows += len(result[1])

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float, ops_per_s: float, snapshot,
                cache_stats, checkpoint_bytes: int) -> dict:
        """Every per-layer metric, as ``{name: value}``.

        ``ops_per_s`` is the traced pass's throughput, normalised like
        the untraced one, so the two differ by the cost of tracing.
        """
        recorder = self.recorder
        values = {name: 0.0 for name, _ in PER_LAYER}
        for span, seconds in recorder.self_s.items():
            values[LAYER_METRICS[span]] += seconds
        calls = recorder.calls
        values["sharded.shard_window_s"] = self.shard_window_s
        prepared = calls["starql.translate_text"]
        values["starql.translation_hit_ratio"] = (
            1 - calls["starql.translate"] / prepared if prepared else 0.0
        )
        values["rewriting.ucq_size"] = self.ucq_size
        values["queries.containment_checks"] = self.containment_checks
        values["mappings.fleet_size"] = self.fleet_size
        static = calls["relational.query"]
        values["relational.static_queries"] = static
        values["relational.static_rows"] = self.static_rows
        values["relational.static_repeat_share"] = (
            self.static_repeats / static if static else 0.0
        )
        windows = self.windows["pane"] + self.windows["recompute"]
        values["exastream.windows_recompute"] = self.windows["recompute"]
        values["exastream.windows_pane"] = self.windows["pane"]
        values["exastream.pane_window_share"] = (
            self.windows["pane"] / windows if windows else 0.0
        )
        values["exastream.tuples_in"] = snapshot.total("query_tuples_in_total")
        values["exastream.tuples_out"] = snapshot.total(
            "query_tuples_out_total")
        values["exastream.panes_built"] = snapshot.total(
            "query_panes_built_total")
        values["mqo.hits"] = (
            snapshot.total("query_mqo_partial_hits_total")
            + snapshot.total("query_mqo_relation_hits_total")
        )
        values["udf.sequence_calls"] = calls["udf.sequence"]
        hits = sum(s.hits for s in cache_stats)
        lookups = hits + sum(s.misses for s in cache_stats)
        pane_hits = sum(s.pane_hits for s in cache_stats)
        pane_lookups = pane_hits + sum(s.pane_misses for s in cache_stats)
        values["streams.window_hit_ratio"] = hits / lookups if lookups else 0.0
        values["streams.pane_hit_ratio"] = (
            pane_hits / pane_lookups if pane_lookups else 0.0
        )
        values["durability.checkpoints"] = calls["durability.checkpoint"]
        values["durability.checkpoint_bytes"] = checkpoint_bytes
        values["durability.checkpoint_share"] = (
            recorder.self_s.get("durability.checkpoint", 0.0) / wall_s
        )
        values["python.gc_collections"] = calls["python.gc"]
        values["trace.coverage"] = sum(recorder.self_s.values()) / wall_s
        values["trace.wall_s"] = wall_s
        values["trace.ops_per_s"] = ops_per_s
        return values


def render_table(workload: str, values: dict, wall_s: float) -> str:
    """The per-layer self-time and count table of one traced run."""
    lines = [f"per-layer trace of {workload} (wall {wall_s:.3f} s, "
             f"coverage {values['trace.coverage']:.1%})",
             f"{'metric':<34} {'value':>14} {'share':>7}"]
    for name, unit in PER_LAYER:
        value = values[name]
        share = f"{value / wall_s:>7.1%}" if unit == "s" else ""
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"{name:<34} {shown:>14} {share:>7}  {unit}")
    return "\n".join(lines)
