"""The per-node Stream Engine: window-at-a-time plan execution.

Each worker node runs one :class:`StreamEngine` instance (Figure 2).  The
engine owns the registered stream sources, attached static databases, the
shared window cache (wCache) and the adaptive indexer, and executes
:class:`~repro.exastream.plan.ContinuousPlan` objects window by window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from collections.abc import Iterator
from typing import Any

from ..obs import Observability
from ..relational import Database
from ..sql import Expr
from ..streams import (
    AdaptiveIndexer,
    SharedWindowReader,
    StreamSource,
    WindowBatch,
    WindowCache,
)
from .metrics import EngineMetrics, QueryMetrics, Stopwatch
from .mqo.runtime import MQOBinding, PaneSideEntry
from .mqo.signature import plan_signature
from .operators import (
    Relation,
    StaticTable,
    accumulator_factory,
    compile_expr,
    hash_join,
    nested_loop_join,
)
from .partial_agg import (
    CombinerSpec,
    analyze_incremental,
    decompose_calls,
    finalize_rows,
)
from .plan import (
    AggregateCall,
    AggregateSpec,
    ContinuousPlan,
    WindowedStreamRef,
    as_equi_join,
    expr_aliases,
)
from .sharding import canonical_row_key
from .static_cache import static_cache_for
from .udf import UDFRegistry, builtin_registry

__all__ = ["WindowResult", "BoundedResultSink", "StreamEngine", "PlanRuntime"]


@dataclass
class WindowResult:
    """Output rows of one query for one window instance."""

    query: str
    window_id: int
    window_end: float
    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)


class BoundedResultSink:
    """A bounded ring buffer of :class:`WindowResult`\\ s with an overflow
    policy — the per-runtime delivery channel of the gateway.

    ``capacity=None`` keeps every result (the legacy unbounded list
    behaviour); a bounded sink guarantees memory does not grow with the
    number of executed windows.  Two policies handle overflow:

    * ``DROP_OLDEST`` — the oldest retained result is evicted (and
      counted in :attr:`dropped`), so the buffer always holds the most
      recent windows;
    * ``BLOCK`` — :meth:`offer` refuses new results while full.  In the
      cooperative executor this back-pressures the *producer*: the
      gateway skips the query's next window until a consumer ``poll()``s
      the buffer down.
    """

    DROP_OLDEST = "drop_oldest"
    BLOCK = "block"
    POLICIES = (DROP_OLDEST, BLOCK)

    def __init__(
        self, capacity: int | None = None, policy: str = DROP_OLDEST
    ) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("sink capacity must be >= 0 (or None: unbounded)")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown overflow policy {policy!r}")
        self._capacity = capacity
        self._policy = policy
        self._buffer: deque[WindowResult] = deque()
        self.accepted = 0
        self.dropped = 0

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def is_full(self) -> bool:
        return self._capacity is not None and len(self._buffer) >= self._capacity

    def would_block(self) -> bool:
        """True when a producer should not execute the next window yet."""
        return self._policy == self.BLOCK and self.is_full

    def offer(self, result: WindowResult) -> bool:
        """Deliver one result; ``False`` when refused (``BLOCK`` + full)."""
        if self.is_full:
            if self._policy == self.BLOCK:
                return False
            while self._buffer and len(self._buffer) >= self._capacity:
                self._buffer.popleft()
                self.dropped += 1
            if self._capacity == 0:
                self.dropped += 1
                return True
        self._buffer.append(result)
        self.accepted += 1
        return True

    def poll(self, max_results: int | None = None) -> list[WindowResult]:
        """Drain up to ``max_results`` results, oldest first."""
        if max_results is None:
            max_results = len(self._buffer)
        out: list[WindowResult] = []
        while self._buffer and len(out) < max_results:
            out.append(self._buffer.popleft())
        return out

    def snapshot(self) -> list[WindowResult]:
        """Non-destructive view of the currently retained results."""
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()

    def limit(self, capacity: int) -> None:
        """Tighten the capacity (never loosens), evicting the oldest."""
        if self._capacity is None or self._capacity > capacity:
            self._capacity = capacity
        while len(self._buffer) > self._capacity:
            self._buffer.popleft()
            self.dropped += 1

    def restore(
        self, results: list[WindowResult], accepted: int = 0, dropped: int = 0
    ) -> None:
        """Replace buffered contents and counters (checkpoint recovery)."""
        self._buffer = deque(results)
        self.accepted = accepted
        self.dropped = dropped


# equi-join decomposition and alias collection live in .plan (shared
# with the pane-join analysis); re-exported names kept for callers
_expr_aliases = expr_aliases
_as_equi_join = as_equi_join


@dataclass
class PlanRuntime:
    """A plan bound to engine resources, ready to execute windows.

    Three execution paths produce identical output:

    * **recompute** — the classic window-at-a-time pipeline: join, filter,
      aggregate every window from scratch;
    * **pane-incremental** — for PANE-INCREMENTAL plans, the per-pane
      pipeline (load, filter pushdown, stream-static join probe, partial
      aggregation) runs exactly once per pane and each window combines
      the partial state of its constituent panes — O(slide) instead of
      O(range) pipeline work per window;
    * **symmetric-hash pane join** — for PANE_JOIN plans (two windowed
      streams joined on equi-keys), each side keeps a ring of per-pane
      hash tables over its filtered pane prefix; a new pane probes the
      partner stream's live ring once, pane-pair join partials are
      cached, and each window combines the partials of its pane pairs —
      only the pairs touching a fresh pane (plus the cheap pulse-instant
      edges) are computed per slide.

    Any per-window anomaly (out-of-order batch, evicted pane coverage,
    boundary mismatch) falls back to recompute for that window; disorder
    on either stream disables the pane paths permanently.
    """

    plan: ContinuousPlan
    readers: dict[str, SharedWindowReader]
    statics: dict[str, StaticTable]
    stream_columns: dict[str, list[str]]
    udfs: UDFRegistry
    metrics: QueryMetrics
    incremental_enabled: bool = True
    #: shared-subplan handle (multi-query optimization); ``None`` runs
    #: the binding fully private — output is identical either way
    mqo: MQOBinding | None = None
    #: the engine's observability bundle (registry + tracer); ``None``
    #: or a disabled bundle skips histograms/per-operator recording
    obs: Observability | None = None

    def __post_init__(self) -> None:
        self._bind_obs()
        #: compiled expression closures keyed by (expr identity, relation
        #: schema) — expressions are plan-owned, so one binding compiles
        #: each (expr, schema) pair exactly once across all windows.
        self._compiled: dict[tuple, Any] = {}
        # Join pipeline shape is per-plan, not per-window: decompose
        # equi-joins and split the filter pushdown once.
        self._equi: list[tuple[str, str, str, str]] = []
        for predicate in self.plan.join_predicates:
            decomposed = _as_equi_join(predicate)
            if decomposed is not None:
                self._equi.append(decomposed)
        self._single_alias: dict[str, list[Expr]] = {}
        for predicate in self.plan.filters:
            aliases = _expr_aliases(predicate)
            if len(aliases) == 1:
                self._single_alias.setdefault(
                    next(iter(aliases)), []
                ).append(predicate)
        self._residual: list[Expr] = [
            p for p in self.plan.filters if len(_expr_aliases(p)) > 1
        ] + [
            p for p in self.plan.join_predicates if _as_equi_join(p) is None
        ]
        # Static relations are invariant: apply their pushdown filters
        # once at bind time (this also covers the indexed join_probe
        # path, which bypasses the per-window load()).
        for alias, static in list(self.statics.items()):
            predicates = self._single_alias.get(alias)
            if not predicates:
                continue
            relation = static.relation
            for predicate in predicates:
                fn = self._compile(predicate, relation)
                relation = Relation(
                    relation.columns, [r for r in relation.rows if fn(r)]
                )
            self.statics[alias] = StaticTable(relation)
        #: pane-incremental state (lazily built on first eligible window):
        #: pane id -> {group key -> per-partial-call payload tuple}
        self._pane_ctx: _PaneContext | None = None
        self._pane_ring: dict[int, dict[tuple, tuple]] = {}
        #: symmetric-hash pane-join state: per-side rings of pane
        #: prefixes (pane id -> _SideState) and the pane-pair partial
        #: ring ((left pane id, right pane id) -> group partials)
        self._join_ctx: _PaneJoinContext | None = None
        self._side_rings: tuple[dict[int, _SideState], dict[int, _SideState]] = (
            {},
            {},
        )
        self._pair_ring: dict[tuple[int, int], dict] = {}
        self._pane_join_broken = False
        #: cost-based demotion latch: set (once, permanently) by
        #: :meth:`demote` when a re-planning guard decides the pane
        #: path's overlap win never materialized — consulted by the
        #: tier predicates exactly like the disorder break flags
        self._demoted = False
        self._demotion_reason: str | None = None
        #: ``(reused_tuples, fresh_tuples, panes)`` of the last
        #: pane-path window, ``None`` after any other path — the
        #: deterministic re-planning-guard signal
        self._last_pane_stats: tuple[int, int, int] | None = None
        #: readers this binding holds a batch-demand reference on —
        #: released through the gateway's reader-release path so a
        #: surviving pane-incremental query regains its no-batch property
        #: once every batch-driven query deregisters
        self._batch_demanded: list[SharedWindowReader] = []
        #: readers this binding holds a pane-demand reference on —
        #: released on deregistration (or a permanent pane break) so a
        #: reader whose pane consumers are gone stops slicing
        self._pane_demanded: list[SharedWindowReader] = []
        # Declare demand at bind time: pane-driven bindings turn on
        # pane slicing (so the shared readers slice from their first
        # pulse); batch-driven bindings take a batch-demand reference so
        # every pulse assembles (and caches) its window batch.
        if self._pane_join_active():
            for ref in self.plan.windows:
                reader = self.readers[ref.reader_key]
                reader.demand_panes()
                self._pane_demanded.append(reader)
        elif self._incremental_active():
            reader = self.readers[self.plan.windows[0].reader_key]
            reader.demand_panes()
            self._pane_demanded.append(reader)
        else:
            for reader in set(self.readers.values()):
                reader.demand_batches()
                self._batch_demanded.append(reader)

    def _bind_obs(self) -> None:
        # -- observability bindings: histograms are bound once here so
        # the per-window cost is one attribute test + one observe; both
        # are ``None`` when detailed recording is off.
        obs = self.obs
        detailed = obs is not None and obs.enabled
        self._h_window = (
            obs.registry.histogram(
                "window_latency_seconds", query=self.plan.name
            ) if detailed else None
        )
        self._h_pane = (
            obs.registry.histogram(
                "pane_build_seconds", query=self.plan.name
            ) if detailed else None
        )
        #: operator name -> (rows_in counter, rows_out counter), bound
        #: lazily — the observed-selectivity feed for the ROADMAP's
        #: cardinality estimator
        self._op_counters: dict[str, tuple] = {}
        self._detailed = detailed
        #: which path produced the last window (trace span attribute)
        self._last_path = "none"

    def rebind_obs(self, obs: Observability | None) -> None:
        """Re-point every instrument at a new bundle (fork isolation).

        A forked shard worker inherits the parent registry, whose
        pre-fork counts the parent still reports; the fork child calls
        this with :meth:`Observability.forked` so it counts only its own
        post-fork work — the delta the coordinator merges when the
        snapshot ships back over the worker pipe.
        """
        self.obs = obs
        self.metrics = QueryMetrics(
            self.plan.name,
            registry=obs.registry if obs is not None else None,
        )
        self._bind_obs()

    def release_demand(self) -> None:
        """Release this binding's batch- and pane-demand references
        (idempotent).

        Called on deregistration; once the last batch-driven binding is
        gone the shared reader stops assembling O(range) batches per
        pulse (and likewise stops pane slicing once its last pane-driven
        binding is gone).
        """
        for reader in self._batch_demanded:
            reader.release_batches()
        self._batch_demanded.clear()
        for reader in self._pane_demanded:
            reader.release_panes()
        self._pane_demanded.clear()

    # -- checkpoint / restore -----------------------------------------------

    def _reader_key_of(self, reader: SharedWindowReader) -> str:
        for key, bound in self.readers.items():
            if bound is reader:
                return key
        raise KeyError("reader is not bound to this runtime")

    def snapshot_state(self) -> dict:
        """Picklable incremental state: pane ring, per-side pane rings,
        pane-pair partial ring, break flag, and which readers this
        binding currently holds demand references on (by reader key).

        Compiled closures and the lazy pane/join contexts are *not*
        state — they rebuild deterministically on first use after
        :meth:`restore_state`.
        """
        return {
            "pane_ring": self._pane_ring,
            "side_rings": self._side_rings,
            "pair_ring": self._pair_ring,
            "pane_join_broken": self._pane_join_broken,
            "demoted": self._demoted,
            "demotion_reason": self._demotion_reason,
            "batch_demanded": [
                self._reader_key_of(r) for r in self._batch_demanded
            ],
            "pane_demanded": [
                self._reader_key_of(r) for r in self._pane_demanded
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Overlay checkpointed incremental state onto a freshly bound
        runtime, re-declaring demand exactly as checkpointed.

        ``__post_init__`` declared bind-time demand; a checkpoint taken
        after a pane break recorded the *switched* demand (panes
        released, batches taken), so restore drops the bind-time
        references and takes the recorded ones instead — post-recovery
        reader refcounts equal the pre-crash ones.
        """
        self._pane_ring = state["pane_ring"]
        rings = state["side_rings"]
        self._side_rings = (rings[0], rings[1])
        self._pair_ring = state["pair_ring"]
        self._pane_join_broken = state["pane_join_broken"]
        # pre-adaptive checkpoints (no "demoted" key) restore undemoted
        self._demoted = state.get("demoted", False)
        self._demotion_reason = state.get("demotion_reason")
        # Take the recorded references before dropping the bind-time
        # ones: a reader whose pane refcount transiently hit zero would
        # reset its resumed slicer position.
        old_batch, old_pane = self._batch_demanded, self._pane_demanded
        self._batch_demanded, self._pane_demanded = [], []
        for key in state["batch_demanded"]:
            reader = self.readers[key]
            reader.demand_batches()
            self._batch_demanded.append(reader)
        for key in state["pane_demanded"]:
            reader = self.readers[key]
            reader.demand_panes()
            self._pane_demanded.append(reader)
        for reader in old_batch:
            reader.release_batches()
        for reader in old_pane:
            reader.release_panes()

    def _compile(self, expr: Expr, relation: Relation):
        """Memoized :func:`compile_expr` for this binding."""
        key = (id(expr), tuple(relation.columns))
        fn = self._compiled.get(key)
        if fn is None:
            fn = compile_expr(expr, relation, self.udfs)
            self._compiled[key] = fn
        return fn

    def _record_op(self, operator: str, rows_in: int, rows_out: int) -> None:
        """Per-operator cardinality stats (the cardinality-estimator feed)."""
        pair = self._op_counters.get(operator)
        if pair is None:
            registry = self.obs.registry
            pair = (
                registry.counter("operator_rows_in_total",
                                 query=self.plan.name, operator=operator),
                registry.counter("operator_rows_out_total",
                                 query=self.plan.name, operator=operator),
            )
            self._op_counters[operator] = pair
        pair[0].value += rows_in
        pair[1].value += rows_out

    def _finish_window(self, watch: Stopwatch, path: str) -> None:
        elapsed = watch.elapsed()
        self.metrics.wall_seconds += elapsed
        self._last_path = path
        if self._h_window is not None:
            self._h_window.observe(elapsed)

    def execute_window(self, window_id: int) -> WindowResult | None:
        """Run one window instance; ``None`` when any stream is exhausted.

        Tracing wraps the execution in a ``window`` span; the engine's
        output is byte-identical either way — spans only observe.
        """
        obs = self.obs
        if obs is None or not obs.tracer.enabled:
            return self._execute_window(window_id)
        with obs.span("window", self.plan.name, window=window_id) as span:
            result = self._execute_window(window_id)
            span.attrs["path"] = self._last_path
            if result is not None:
                span.attrs["rows"] = len(result.rows)
        return result

    def _execute_window(self, window_id: int) -> WindowResult | None:
        watch = Stopwatch()
        if self._pane_join_active() and not self._pane_join_broken:
            refs = self.plan.windows
            join_readers = [self.readers[ref.reader_key] for ref in refs]
            views = [reader.pane_view(window_id) for reader in join_readers]
            if all(view is not None for view in views):
                self.metrics.tuples_in += sum(len(view) for view in views)
                self._last_pane_stats = self._pane_join_stats(views)
                rows, columns = self._execute_pane_join(refs, views)
                self.metrics.windows_incremental += 1
                self.metrics.windows_pane_join += 1
                self.metrics.windows_processed += 1
                self.metrics.tuples_out += len(rows)
                self._finish_window(watch, "pane_join")
                return WindowResult(
                    self.plan.name, window_id, views[-1].end, columns, rows
                )
            if any(reader.pane_broken for reader in join_readers):
                # Disorder on either stream kills the pane-join path for
                # good: drop the pair/side rings, release pane demand,
                # and take (releasable) batch demand so every remaining
                # window recomputes from assembled batches.
                self._pane_join_broken = True
                self._side_rings[0].clear()
                self._side_rings[1].clear()
                self._pair_ring.clear()
                for reader in self._pane_demanded:
                    reader.release_panes()
                self._pane_demanded.clear()
                if not self._batch_demanded:
                    for reader in set(self.readers.values()):
                        reader.demand_batches()
                        self._batch_demanded.append(reader)
            # else: a transient miss (eviction, warmup, stream end) —
            # recompute just this window from batches below
        if self._incremental_active():
            # Pane path first: O(slide) work, no batch materialisation.
            ref = self.plan.windows[0]
            reader = self.readers[ref.reader_key]
            view = reader.pane_view(window_id)
            if view is not None:
                self.metrics.tuples_in += len(view)
                rows, columns = self._execute_incremental(ref, view)
                self.metrics.windows_incremental += 1
                self.metrics.windows_processed += 1
                self.metrics.tuples_out += len(rows)
                self._finish_window(watch, "incremental")
                return WindowResult(
                    self.plan.name, window_id, view.end, columns, rows
                )
            if reader.pane_broken and not self._batch_demanded:
                # The pane path is gone for good: every remaining window
                # falls back to batches, so take a (releasable) demand
                # reference and let pulses assemble + cache them again.
                reader.demand_batches()
                self._batch_demanded.append(reader)
                for demanded in self._pane_demanded:
                    demanded.release_panes()
                self._pane_demanded.clear()
        self._last_pane_stats = None  # not a pane-path window
        raw: list[tuple[WindowedStreamRef, WindowBatch]] = []
        window_end = 0.0
        for ref in self.plan.windows:
            batch = self.readers[ref.reader_key].window(window_id)
            if batch is None:
                self._last_path = "exhausted"
                return None
            window_end = batch.end
            self.metrics.tuples_in += len(batch)
            raw.append((ref, batch))
        relation = None
        if self.mqo is not None:
            relation = self.mqo.relation("w", window_id)
        if relation is None:
            path = "recompute"
            batches = {
                ref.alias: self._load_batch(ref, batch.tuples)
                for ref, batch in raw
            }
            relation = self._join_all(batches)
            relation = self._apply_residual_filters(relation)
            if self.mqo is not None:
                self.mqo.put_relation("w", window_id, relation)
        else:
            path = "mqo_hit"
            self.metrics.mqo_relation_hits += 1
        rows, columns = self._finalize(relation)
        if self.mqo is not None:
            self.mqo.advance("w", window_id + 1)
        self.metrics.windows_processed += 1
        self.metrics.tuples_out += len(rows)
        self._finish_window(watch, path)
        return WindowResult(self.plan.name, window_id, window_end, columns, rows)

    def _load_batch(self, ref: WindowedStreamRef, tuples: list) -> Relation:
        relation = Relation(self.stream_columns[ref.alias], tuples)
        if not ref.computed:
            return relation
        fns = [self._compile(c.expr, relation) for c in ref.computed]
        columns = relation.columns + [
            f"{ref.alias}.{c.name}" for c in ref.computed
        ]
        rows = [row + tuple(fn(row) for fn in fns) for row in tuples]
        return Relation(columns, rows)

    # -- join pipeline -------------------------------------------------------

    def _join_all(self, batches: dict[str, Relation]) -> Relation:
        plan = self.plan
        single_alias = self._single_alias
        detailed = self._detailed

        def load(alias: str) -> Relation:
            if alias in batches:
                relation = batches[alias]
                predicates = single_alias.get(alias, ())
                if predicates:
                    rows_in = len(relation.rows)
                    for predicate in predicates:
                        fn = self._compile(predicate, relation)
                        relation = Relation(
                            relation.columns,
                            [r for r in relation.rows if fn(r)],
                        )
                    if detailed:
                        self._record_op(
                            f"filter:{alias}", rows_in, len(relation.rows)
                        )
                return relation
            # statics were filtered once at bind time
            return self.statics[alias].relation

        pending = [w.alias for w in plan.windows] + [s.alias for s in plan.statics]
        current = load(pending.pop(0))
        joined = {plan.windows[0].alias}
        return self._join_rest(current, joined, pending, load)

    def _join_rest(
        self,
        current: Relation,
        joined: set[str],
        pending: list[str],
        load,
    ) -> Relation:
        """Fold the remaining FROM items into ``current``.

        Shared by the window recompute pipeline and the pane-pair join
        pipeline: both visit the pending aliases in the identical
        discovery order with identical keys, so static expansion order —
        and therefore per-group value order — is the same on every path.
        """
        equi = self._equi
        while pending:
            # pick an alias connected to the joined set by an equi-join
            chosen = None
            keys: tuple[list[str], list[str]] | None = None
            for alias in pending:
                left_keys: list[str] = []
                right_keys: list[str] = []
                for a, ac, b, bc in equi:
                    if a in joined and b == alias:
                        left_keys.append(f"{a}.{ac}")
                        right_keys.append(f"{b}.{bc}")
                    elif b in joined and a == alias:
                        left_keys.append(f"{b}.{bc}")
                        right_keys.append(f"{a}.{ac}")
                if left_keys:
                    chosen = alias
                    keys = (left_keys, right_keys)
                    break
            if chosen is None:  # cross join fallback
                chosen = pending[0]
                keys = None
            pending.remove(chosen)
            joined.add(chosen)
            rows_in = len(current.rows)
            if chosen in self.statics and keys is not None:
                static = self.statics[chosen]
                rows_in += len(static.relation.rows)
                # indexed stream-static join: probe the static hash index
                current = static.join_probe(current, keys[0], keys[1])
            else:
                right = load(chosen)
                rows_in += len(right.rows)
                if keys is not None:
                    current = hash_join(current, right, keys[0], keys[1])
                else:
                    current = nested_loop_join(current, right)
            if self._detailed:
                self._record_op(f"join:{chosen}", rows_in, len(current.rows))
        return current

    def _apply_residual_filters(self, relation: Relation) -> Relation:
        if not self._residual:
            return relation
        fns = [self._compile(p, relation) for p in self._residual]
        rows = [r for r in relation.rows if all(fn(r) for fn in fns)]
        if self._detailed:
            self._record_op("residual", len(relation.rows), len(rows))
        return Relation(relation.columns, rows)

    # -- output stage -----------------------------------------------------------

    def _finalize(self, relation: Relation) -> tuple[list[tuple], list[str]]:
        plan = self.plan
        if plan.aggregate is not None:
            rows, columns = self._aggregate(relation, plan.aggregate)
        else:
            fns = [self._compile(c.expr, relation) for c in plan.projection]
            rows = [tuple(fn(row) for fn in fns) for row in relation.rows]
            columns = [c.name for c in plan.projection]
        if plan.distinct:
            rows = list(dict.fromkeys(rows))
        return rows, columns

    def _aggregate(
        self, relation: Relation, spec: AggregateSpec
    ) -> tuple[list[tuple], list[str]]:
        group_fns = [self._compile(e, relation) for e in spec.group_by]
        groups: dict[tuple, list[tuple]] = {}
        for row in relation.rows:
            groups.setdefault(tuple(fn(row) for fn in group_fns), []).append(row)

        out_columns = list(spec.group_names) + [c.output_name for c in spec.calls]
        out_rows: list[tuple] = []
        for key, members in groups.items():
            values: list[Any] = list(key)
            for call in spec.calls:
                values.append(self._aggregate_call(call, members, relation))
            out_rows.append(tuple(values))

        result = Relation(out_columns, out_rows)
        if spec.having:
            fns = [self._compile(p, result) for p in spec.having]
            result.rows = [r for r in result.rows if all(fn(r) for fn in fns)]
        # Canonical group order: aggregate output is deterministic under
        # any tuple arrival order and any shard count (the sharded merge
        # relies on both sides agreeing on this order).
        if self._detailed:
            self._record_op(
                "aggregate", len(relation.rows), len(result.rows)
            )
        return sorted(result.rows, key=canonical_row_key), out_columns

    def _aggregate_call(
        self, call, members: list[tuple], relation: Relation
    ) -> Any:
        name = call.function.upper()
        if name in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            if call.argument is None:
                if name != "COUNT":
                    raise ValueError(f"{name} requires an argument")
                return len(members)
            fn = self._compile(call.argument, relation)
            values = [v for v in (fn(m) for m in members) if v is not None]
            if name == "COUNT":
                return len(values)
            if not values:
                return None
            if name == "SUM":
                return sum(values)
            if name == "AVG":
                return sum(values) / len(values)
            if name == "MIN":
                return min(values)
            return max(values)
        udf = self.udfs.sequence(name)
        if udf is None:
            raise ValueError(f"unknown aggregate or sequence UDF {name!r}")
        columns = {
            expected: relation.index_of(actual)
            for expected, actual in call.argument_columns
        }
        return udf(members, columns)

    # -- pane-incremental execution ---------------------------------------------

    def _decision(self):
        decision = self.plan.incremental
        if decision is None:
            decision = analyze_incremental(self.plan)
            self.plan.incremental = decision
        return decision

    def _incremental_active(self) -> bool:
        return (
            self.incremental_enabled
            and not self._demoted
            and self._decision().is_incremental
        )

    def _pane_join_active(self) -> bool:
        return (
            self.incremental_enabled
            and not self._demoted
            and self._decision().is_pane_join
        )

    @property
    def last_pane_stats(self) -> tuple[int, int, int] | None:
        """``(reused, fresh, panes)`` tuple counts of the last window,
        when it ran on a pane path (the re-planning guard's feed)."""
        return self._last_pane_stats

    @property
    def demoted(self) -> bool:
        return self._demoted

    def demote(self, reason: str = "cost-based demotion") -> bool:
        """Permanently retire this binding's pane path (cost-triggered).

        The exact transition a permanent pane break performs — drop the
        pane/side/pair rings, release pane demand, take (releasable)
        batch demand — taken early because a re-planning guard decided
        the overlap win never materializes.  Every remaining window runs
        the recompute path, whose output is byte-identical by the house
        differential rule, so a demotion can never change results.

        Returns ``False`` (and does nothing) when there is no live pane
        path to retire.
        """
        if self._demoted or not (
            self._incremental_active() or self._pane_join_active()
        ):
            return False
        self._demoted = True
        self._demotion_reason = reason
        self._last_pane_stats = None
        self._pane_ring.clear()
        self._side_rings[0].clear()
        self._side_rings[1].clear()
        self._pair_ring.clear()
        for reader in self._pane_demanded:
            reader.release_panes()
        self._pane_demanded.clear()
        if not self._batch_demanded:
            for reader in set(self.readers.values()):
                reader.demand_batches()
                self._batch_demanded.append(reader)
        return True

    def _pane_join_stats(self, views: list) -> tuple[int, int, int]:
        """Ring-reuse tuple counts of one pane-join window (guard feed).

        Totals over both sides are order-invariant, so side/ring pairing
        does not matter: a pane already resident in its side's ring
        counts as reused, everything else (including the pulse-instant
        edges) as fresh.
        """
        reused = fresh = panes = 0
        for view, ring in zip(views, self._side_rings):
            panes += len(view.panes)
            for pane in view.panes:
                if pane.pane_id in ring:
                    reused += len(pane.tuples)
                else:
                    fresh += len(pane.tuples)
            fresh += len(view.edge)
        return (reused, fresh, panes)

    def _pane_context(self) -> _PaneContext:
        if self._pane_ctx is None:
            aggregate = self.plan.aggregate
            assert aggregate is not None
            partial_calls, finals = decompose_calls(aggregate.calls)
            combiner = CombinerSpec(
                group_arity=len(aggregate.group_names),
                finals=tuple(finals),
                out_columns=tuple(self.plan.output_names()),
                having=aggregate.having,
                distinct=self.plan.distinct,
            )
            self._pane_ctx = _PaneContext(
                partial_calls=partial_calls,
                factories=[
                    accumulator_factory(c.function) for c in partial_calls
                ],
                combiner=combiner,
                group_by=aggregate.group_by,
            )
        return self._pane_ctx

    def _execute_incremental(
        self, ref: WindowedStreamRef, view
    ) -> tuple[list[tuple], list[str]]:
        """One window as the combination of its panes' partial states."""
        ctx = self._pane_context()
        mqo = self.mqo
        ring = self._pane_ring
        reused = fresh = 0
        for pane in view.panes:
            if pane.pane_id in ring:
                reused += len(pane.tuples)
            else:
                fresh += len(pane.tuples)
        self._last_pane_stats = (reused, fresh, len(view.panes))
        for pane in view.panes:
            if pane.pane_id not in ring:
                state = None
                if mqo is not None:
                    state = mqo.partials("p", pane.pane_id)
                if state is None:
                    state = self._pane_partials(
                        ctx, ref, pane.tuples, ("p", pane.pane_id)
                    )
                    self.metrics.panes_built += 1
                    if mqo is not None:
                        mqo.put_partials("p", pane.pane_id, state)
                else:
                    self.metrics.mqo_partial_hits += 1
                ring[pane.pane_id] = state
        states = [ring[pane.pane_id] for pane in view.panes]
        if view.edge:
            # The window's pulse-instant tuples belong to the (incomplete)
            # next pane; their partial state is built once per window and
            # shared across every subscriber of the aggregation prefix.
            edge_state = None
            if mqo is not None:
                edge_state = mqo.partials("e", view.window_id)
            if edge_state is None:
                edge_state = self._pane_partials(
                    ctx, ref, view.edge, ("e", view.window_id)
                )
                if mqo is not None:
                    mqo.put_partials("e", view.window_id, edge_state)
            else:
                self.metrics.mqo_partial_hits += 1
            states.append(edge_state)
        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            with obs.span("combine", self.plan.name, panes=len(states)):
                rows = self._combine_pane_states(ctx, states)
        else:
            rows = self._combine_pane_states(ctx, states)
        # Panes that slid out of range never come back (window ids are
        # monotonically non-decreasing): keep exactly one window's worth.
        low = view.panes[0].pane_id if view.panes else 0
        for pane_id in [j for j in ring if j < low]:
            del ring[pane_id]
        if self.mqo is not None:
            self.mqo.advance("p", low)
            self.mqo.advance("e", view.window_id + 1)
        return rows, list(ctx.combiner.out_columns)

    def _combine_pane_states(
        self, ctx: _PaneContext, states: list
    ) -> list[tuple]:
        # Gather each group's partial payloads into per-call slots (cheap
        # list appends), then fold every slot at C speed via the
        # accumulator classes' ``combine``.  Slot order is pane order, so
        # SUM's chunk concatenation reproduces the recompute fold exactly.
        n_partials = len(ctx.factories)
        merged: dict[tuple, tuple] = {}
        get_slots = merged.get
        for state in states:
            for key, payloads in state.items():
                slots = get_slots(key)
                if slots is None:
                    merged[key] = slots = tuple([] for _ in range(n_partials))
                for slot, payload in zip(slots, payloads):
                    slot.append(payload)
        out_rows: list[tuple] = []
        for key, slots in merged.items():
            values: list[Any] = list(key)
            for final in ctx.combiner.finals:
                if final.function == "AVG":
                    sum_i, count_i = final.partial_indexes
                    count = ctx.factories[count_i].combine(slots[count_i])
                    if count:
                        total = ctx.factories[sum_i].combine(slots[sum_i])
                        values.append(total / count)
                    else:
                        values.append(None)
                else:
                    index = final.partial_indexes[0]
                    values.append(ctx.factories[index].combine(slots[index]))
            out_rows.append(tuple(values))
        return finalize_rows(
            out_rows, ctx.combiner, self.udfs, compiler=self._compile
        )

    def _pane_partials(
        self,
        ctx: _PaneContext,
        ref: WindowedStreamRef,
        tuples: list,
        mqo_key: tuple[str, int] | None = None,
    ) -> dict[tuple, list]:
        """Timed/traced wrapper over :meth:`_pane_partials_impl`."""
        watch = Stopwatch() if self._h_pane is not None else None
        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            before = self.metrics.mqo_relation_hits
            with obs.span(
                "pane_build", self.plan.name,
                kind=mqo_key[0] if mqo_key else "p",
                pane=mqo_key[1] if mqo_key else -1,
            ) as span:
                state = self._pane_partials_impl(ctx, ref, tuples, mqo_key)
                span.attrs["mqo"] = (
                    "hit" if self.metrics.mqo_relation_hits > before
                    else "miss"
                )
        else:
            state = self._pane_partials_impl(ctx, ref, tuples, mqo_key)
        if watch is not None:
            self._h_pane.observe(watch.elapsed())
        return state

    def _pane_partials_impl(
        self,
        ctx: _PaneContext,
        ref: WindowedStreamRef,
        tuples: list,
        mqo_key: tuple[str, int] | None = None,
    ) -> dict[tuple, list]:
        """The per-pane pipeline: load -> filters -> static joins ->
        grouped partial accumulators.

        Runs through the *same* join/filter machinery as the recompute
        path (on the pane's tuples instead of the whole window's), so
        per-row semantics are identical by construction.  ``mqo_key``
        names the slice in the shared relation tier, so queries sharing
        only the relational prefix (different grouping) still reuse the
        joined, filtered pane relation.
        """
        relation = None
        if self.mqo is not None and mqo_key is not None:
            relation = self.mqo.relation(*mqo_key)
        if relation is None:
            relation = self._join_all(
                {ref.alias: self._load_batch(ref, tuples)}
            )
            relation = self._apply_residual_filters(relation)
            if self.mqo is not None and mqo_key is not None:
                self.mqo.put_relation(*mqo_key, relation)
        else:
            self.metrics.mqo_relation_hits += 1
        group_fns = [self._compile(e, relation) for e in ctx.group_by]
        groups: dict[tuple, list[tuple]] = {}
        for row in relation.rows:
            groups.setdefault(
                tuple(fn(row) for fn in group_fns), []
            ).append(row)
        argument_fns = [
            None if call.argument is None
            else self._compile(call.argument, relation)
            for call in ctx.partial_calls
        ]
        state: dict[tuple, tuple] = {}
        for key, members in groups.items():
            # Partials sharing an argument closure (AVG's SUM + COUNT
            # both read the same expression) share one evaluated,
            # None-filtered value list per group.
            evaluated: dict[int, list] = {}
            payloads = []
            for factory, fn in zip(ctx.factories, argument_fns):
                if fn is None:  # COUNT(*): counts rows
                    payloads.append(factory.build(members))
                    continue
                values = evaluated.get(id(fn))
                if values is None:
                    values = [v for m in members if (v := fn(m)) is not None]
                    evaluated[id(fn)] = values
                payloads.append(factory.build(values))
            state[key] = tuple(payloads)
        return state


    # -- symmetric-hash pane-join execution ---------------------------------------
    #
    # A two-stream equi-join window decomposes as
    #
    #   W_A(k) |><| W_B(k)  =  U over (u, v)  u |><| v
    #
    # where u ranges over window k's complete panes of A plus its edge
    # slice, and v over B's.  Complete-pane pairs persist across windows
    # (cached in the pair ring, computed once when the newer pane first
    # appears); edge pairs are window-specific and recomputed — edges are
    # O(pulse-instant) small.  Per pair, each side's filtered pane prefix
    # carries a hidden arrival-position column, so the window combine can
    # fold order-sensitive partials (SUM, AVG's numerator) in the exact
    # row-enumeration order of the recompute hash join — including its
    # build-side choice, which depends on the two *window* sizes.

    def _pane_join_context(self) -> _PaneJoinContext:
        if self._join_ctx is None:
            aggregate = self.plan.aggregate
            decision = self._decision()
            assert aggregate is not None and decision.join is not None
            partial_calls, finals = decompose_calls(aggregate.calls)
            combiner = CombinerSpec(
                group_arity=len(aggregate.group_names),
                finals=tuple(finals),
                out_columns=tuple(self.plan.output_names()),
                having=aggregate.having,
                distinct=self.plan.distinct,
            )
            # SUM folds floats left-to-right, so its partials keep
            # per-row values with arrival positions ("ordered"); COUNT,
            # MIN and MAX combine exactly in any order ("scalar").
            kinds = [
                "ordered" if c.function.upper() == "SUM" else "scalar"
                for c in partial_calls
            ]
            scalar_slot: dict[int, int] = {}
            ordered_slot: dict[int, int] = {}
            for index, kind in enumerate(kinds):
                if kind == "scalar":
                    scalar_slot[index] = len(scalar_slot)
                else:
                    ordered_slot[index] = len(ordered_slot)
            empty = PaneSideEntry(Relation([], []))
            self._join_ctx = _PaneJoinContext(
                partial_calls=partial_calls,
                kinds=kinds,
                factories=[
                    accumulator_factory(c.function) for c in partial_calls
                ],
                scalar_slot=scalar_slot,
                ordered_slot=ordered_slot,
                combiner=combiner,
                group_by=aggregate.group_by,
                join=decision.join,
                side_panes=decision.side_panes,
                empty_side=_SideState(empty, empty.relation),
            )
        return self._join_ctx

    def _execute_pane_join(
        self, refs: list[WindowedStreamRef], views: list
    ) -> tuple[list[tuple], list[str]]:
        """One window as the combination of its pane-pair join partials."""
        ctx = self._pane_join_context()
        units: list[list[tuple[int, _SideState]]] = []
        for side, (ref, view) in enumerate(zip(refs, views)):
            ring = self._side_rings[side]
            side_units: list[tuple[int, _SideState]] = []
            for pane in view.panes:
                state = ring.get(pane.pane_id)
                if state is None:
                    state = self._side_pane(
                        side, ref, pane.tuples, ("p", pane.pane_id)
                    )
                    ring[pane.pane_id] = state
                side_units.append((pane.pane_id, state))
            # the edge slice sits at the head of the *next* (incomplete)
            # pane — id window_id * panes_per_slide — which orders it
            # after every complete pane of this window on this side.
            # Empty edges (no tuple exactly at the pulse instant, the
            # common case on integer-aligned streams) share one inert
            # state instead of building and publishing per window.
            if view.edge:
                edge_state = self._side_pane(
                    side, ref, view.edge, ("e", view.window_id)
                )
            else:
                edge_state = ctx.empty_side
            side_units.append(
                (view.window_id * ctx.side_panes[side].panes_per_slide,
                 edge_state)
            )
            units.append(side_units)

        # The recompute path hash-joins the two filtered window batches
        # with the smaller side as build; its output enumerates probe
        # rows (outer) x build matches (inner), which fixes the fold
        # order of every order-sensitive aggregate.  Window sizes are the
        # sums of the per-pane filtered counts.
        size_left = sum(state.count for _, state in units[0])
        size_right = sum(state.count for _, state in units[1])
        probe_is_right = size_left <= size_right

        merged: dict[tuple, tuple] = {}
        n_scalar, n_ordered = len(ctx.scalar_slot), len(ctx.ordered_slot)
        last_left = len(units[0]) - 1
        last_right = len(units[1]) - 1
        for ai, (a_id, a_state) in enumerate(units[0]):
            for bi, (b_id, b_state) in enumerate(units[1]):
                if ai == last_left or bi == last_right:
                    # An edge participates: window-specific, never
                    # cached.  Probe with the smaller relation (usually
                    # the edge, reusing the pane's cached hash table)
                    # instead of the window's probe side: enumeration
                    # order within a pair is irrelevant — ordered
                    # entries re-sort on positions, scalar partials are
                    # order-insensitive, and static-expansion tie order
                    # is produced after the stream join either way.
                    state = self._pair_partials(
                        ctx, a_id, a_state, b_id, b_state,
                        b_state.count <= a_state.count,
                    )
                else:
                    state = self._pair_ring.get((a_id, b_id))
                    if state is None:
                        state = self._pair_partials(
                            ctx, a_id, a_state, b_id, b_state, probe_is_right
                        )
                        self._pair_ring[(a_id, b_id)] = state
                        self.metrics.pane_pairs_built += 1
                for key, (scalars, ordered) in state.items():
                    slots = merged.get(key)
                    if slots is None:
                        merged[key] = slots = (
                            tuple([] for _ in range(n_scalar)),
                            tuple([] for _ in range(n_ordered)),
                        )
                    for slot, payload in zip(slots[0], scalars):
                        slot.append(payload)
                    for slot, entries in zip(slots[1], ordered):
                        slot.extend(entries)

        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            with obs.span("combine", self.plan.name, groups=len(merged)):
                rows = self._combine_pair_states(ctx, merged, probe_is_right)
        else:
            rows = self._combine_pair_states(ctx, merged, probe_is_right)

        # Panes that slid out of range never come back: keep one
        # window's worth per side, and only pair entries both of whose
        # panes are still live.
        low_left = views[0].panes[0].pane_id if views[0].panes else 0
        low_right = views[1].panes[0].pane_id if views[1].panes else 0
        for ring, low in zip(self._side_rings, (low_left, low_right)):
            for pane_id in [j for j in ring if j < low]:
                del ring[pane_id]
        for pair in [
            p for p in self._pair_ring
            if p[0] < low_left or p[1] < low_right
        ]:
            del self._pair_ring[pair]
        if self.mqo is not None:
            for side, (view, low) in enumerate(
                zip(views, (low_left, low_right))
            ):
                self.mqo.advance_side(side, "p", low)
                self.mqo.advance_side(side, "e", view.window_id + 1)
        return rows, list(ctx.combiner.out_columns)

    def _combine_pair_states(
        self,
        ctx: _PaneJoinContext,
        merged: dict[tuple, tuple],
        probe_is_right: bool,
    ) -> list[tuple]:
        # Entries carry (a_gid, a_pos, b_gid, b_pos, value); sorting on
        # the four position fields only (never the value: rows of one
        # static expansion share all four, and the stable sort must keep
        # their expansion order) reproduces the recompute enumeration.
        if probe_is_right:
            sort_key = itemgetter(2, 3, 0, 1)
        else:
            sort_key = itemgetter(0, 1, 2, 3)

        value_of = itemgetter(4)
        out_rows: list[tuple] = []
        for key, (scalar_slots, ordered_slots) in merged.items():
            totals: list[Any] = []
            for entries in ordered_slots:
                if entries:
                    # each pair's entries were emitted probe-major, so
                    # the concatenation is a sequence of sorted runs
                    # that Timsort merges near-linearly
                    entries.sort(key=sort_key)
                    totals.append(sum(map(value_of, entries)))
                else:
                    totals.append(None)
            values: list[Any] = list(key)
            for final in ctx.combiner.finals:
                if final.function == "AVG":
                    sum_i, count_i = final.partial_indexes
                    count = ctx.factories[count_i].combine(
                        scalar_slots[ctx.scalar_slot[count_i]]
                    )
                    if count:
                        values.append(totals[ctx.ordered_slot[sum_i]] / count)
                    else:
                        values.append(None)
                elif final.function == "SUM":
                    values.append(
                        totals[ctx.ordered_slot[final.partial_indexes[0]]]
                    )
                else:
                    index = final.partial_indexes[0]
                    values.append(
                        ctx.factories[index].combine(
                            scalar_slots[ctx.scalar_slot[index]]
                        )
                    )
            out_rows.append(tuple(values))
        return finalize_rows(
            out_rows, ctx.combiner, self.udfs, compiler=self._compile
        )

    def _side_pane(
        self,
        side: int,
        ref: WindowedStreamRef,
        tuples: list,
        mqo_key: tuple[str, int],
    ) -> _SideState:
        """Timed/traced wrapper over :meth:`_side_pane_impl`."""
        watch = Stopwatch() if self._h_pane is not None else None
        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            before = self.metrics.mqo_relation_hits
            with obs.span(
                "pane_build", self.plan.name,
                kind=mqo_key[0], pane=mqo_key[1], side=side,
            ) as span:
                state = self._side_pane_impl(side, ref, tuples, mqo_key)
                span.attrs["mqo"] = (
                    "hit" if self.metrics.mqo_relation_hits > before
                    else "miss"
                )
        else:
            state = self._side_pane_impl(side, ref, tuples, mqo_key)
        if watch is not None:
            self._h_pane.observe(watch.elapsed())
        return state

    def _side_pane_impl(
        self,
        side: int,
        ref: WindowedStreamRef,
        tuples: list,
        mqo_key: tuple[str, int],
    ) -> _SideState:
        """One side's pane prefix: load -> computed columns -> pushed
        filters -> arrival-position column (+ lazy join hash tables).

        The prefix is the shareable unit of the pane join: queries with
        the same side signature reuse the entry — relation, positions and
        hash tables — through the MQO registry.
        """
        mqo = self.mqo
        if mqo is not None:
            cached = mqo.side_entry(side, *mqo_key)
            if cached is not None:
                self.metrics.mqo_relation_hits += 1
                entry, renamed = cached
                return _SideState(entry, renamed)
        relation = self._load_batch(ref, tuples)
        for predicate in self._single_alias.get(ref.alias, ()):
            fn = self._compile(predicate, relation)
            relation = Relation(
                relation.columns, [r for r in relation.rows if fn(r)]
            )
        relation = Relation(
            relation.columns + [f"{ref.alias}.__pane_pos"],
            [row + (i,) for i, row in enumerate(relation.rows)],
        )
        entry = PaneSideEntry(relation)
        if mqo is not None:
            # adopt the published canonical entry (when sharing is live)
            # so publisher and subscribers use one hash-table cache;
            # index_for resolves key columns through the local relation,
            # and positions are rename-invariant
            shared = mqo.put_side_entry(side, *mqo_key, entry)
            if shared is not None:
                entry = shared
        return _SideState(entry, relation)

    def _pair_partials(
        self,
        ctx: _PaneJoinContext,
        left_id: int,
        left: _SideState,
        right_id: int,
        right: _SideState,
        probe_is_right: bool,
    ) -> dict[tuple, tuple]:
        """Traced wrapper over :meth:`_pair_partials_impl`."""
        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            with obs.span(
                "pane_pair", self.plan.name, left=left_id, right=right_id,
            ):
                return self._pair_partials_impl(
                    ctx, left_id, left, right_id, right, probe_is_right
                )
        return self._pair_partials_impl(
            ctx, left_id, left, right_id, right, probe_is_right
        )

    def _pair_partials_impl(
        self,
        ctx: _PaneJoinContext,
        left_id: int,
        left: _SideState,
        right_id: int,
        right: _SideState,
        probe_is_right: bool,
    ) -> dict[tuple, tuple]:
        """Join one pane pair and fold it into per-group partial state.

        One pane probes the partner pane's cached hash table (the
        symmetric-hash step), enumerating in the current window's
        probe-major order — so each pair's order-sensitive entries come
        out presorted for the window combine.  The pair relation then
        runs through the *same* static-join and residual-filter
        operators as the recompute pipeline, so per-row semantics are
        identical by construction.  Partial state per group: one payload
        per scalar call, one ``(left_pane, left_pos, right_pane,
        right_pos, value)`` entry list per order-sensitive call (pane
        ids baked in so the window combine merges lists with C-level
        extends).
        """
        rel_left, rel_right = left.relation, right.relation
        if left.count == 0 or right.count == 0:
            return {}
        rows: list[tuple] = []
        if probe_is_right:
            index = left.entry.index_for(ctx.join.left_keys, rel_left)
            key_idx = [rel_right.index_of(c) for c in ctx.join.right_keys]
            for r_row in rel_right.rows:
                matches = index.get(tuple(r_row[i] for i in key_idx))
                if matches:
                    for l_row in matches:
                        rows.append(l_row + r_row)
        else:
            index = right.entry.index_for(ctx.join.right_keys, rel_right)
            key_idx = [rel_left.index_of(c) for c in ctx.join.left_keys]
            for l_row in rel_left.rows:
                matches = index.get(tuple(l_row[i] for i in key_idx))
                if matches:
                    for r_row in matches:
                        rows.append(l_row + r_row)
        if not rows:
            return {}
        relation = Relation(rel_left.columns + rel_right.columns, rows)
        if self.plan.statics:
            relation = self._join_rest(
                relation,
                {ctx.join.left_alias, ctx.join.right_alias},
                [s.alias for s in self.plan.statics],
                lambda alias: self.statics[alias].relation,
            )
        relation = self._apply_residual_filters(relation)
        if not relation.rows:
            return {}
        group_fns = [self._compile(e, relation) for e in ctx.group_by]
        left_pos = relation.index_of(f"{ctx.join.left_alias}.__pane_pos")
        right_pos = relation.index_of(f"{ctx.join.right_alias}.__pane_pos")
        groups: dict[tuple, list[tuple]] = {}
        for row in relation.rows:
            groups.setdefault(
                tuple(fn(row) for fn in group_fns), []
            ).append(row)
        argument_fns = [
            None if call.argument is None
            else self._compile(call.argument, relation)
            for call in ctx.partial_calls
        ]
        state: dict[tuple, tuple] = {}
        for key, members in groups.items():
            # Partials sharing an argument closure (AVG's SUM + COUNT)
            # share one evaluated, None-filtered pass per group.
            entry_lists: dict[int, list] = {}
            value_lists: dict[int, list] = {}
            scalars: list[Any] = []
            ordered: list[list] = []
            for kind, factory, fn in zip(
                ctx.kinds, ctx.factories, argument_fns
            ):
                if kind == "ordered":
                    entries = entry_lists.get(id(fn))
                    if entries is None:
                        entries = [
                            (left_id, m[left_pos], right_id, m[right_pos], v)
                            for m in members
                            if (v := fn(m)) is not None
                        ]
                        entry_lists[id(fn)] = entries
                    ordered.append(entries)
                    continue
                if fn is None:  # COUNT(*): counts rows
                    scalars.append(factory.build(members))
                    continue
                values = value_lists.get(id(fn))
                if values is None:
                    entries = entry_lists.get(id(fn))
                    if entries is not None:  # AVG: reuse the SUM pass
                        values = [entry[4] for entry in entries]
                    else:
                        values = [
                            v for m in members if (v := fn(m)) is not None
                        ]
                    value_lists[id(fn)] = values
                scalars.append(factory.build(values))
            state[key] = (tuple(scalars), tuple(ordered))
        return state


@dataclass
class _PaneContext:
    """Per-binding pane-execution state: the partial decomposition of the
    plan's aggregation plus the accumulator factories for each partial."""

    partial_calls: list[AggregateCall]
    factories: list
    combiner: CombinerSpec
    group_by: tuple[Expr, ...]


@dataclass
class _SideState:
    """One pane of one join side, as this binding sees it: the shared
    entry (rows, counts, hash tables) plus the relation under this
    query's own aliases."""

    entry: PaneSideEntry
    relation: Relation

    @property
    def count(self) -> int:
        return self.entry.count


@dataclass
class _PaneJoinContext:
    """Per-binding pane-join state: the partial decomposition, each
    partial's order sensitivity, and the stream-stream key layout."""

    partial_calls: list[AggregateCall]
    kinds: list[str]  # per partial call: "scalar" | "ordered"
    factories: list
    scalar_slot: dict[int, int]  # partial index -> scalar slot
    ordered_slot: dict[int, int]  # partial index -> ordered slot
    combiner: CombinerSpec
    group_by: tuple[Expr, ...]
    join: Any  # PaneJoinSpec
    side_panes: tuple  # per-side PanePlan
    #: shared inert state for windows whose pulse-instant edge is empty
    empty_side: _SideState


class StreamEngine:
    """One node's engine: sources, databases, caches and plan execution."""

    def __init__(
        self,
        udfs: UDFRegistry | None = None,
        cache_capacity: int = 4096,
        adaptive_indexing: bool = True,
        incremental: bool = True,
        mqo: bool = True,
        obs: Observability | None = None,
        adaptive: bool = False,
    ) -> None:
        self.udfs = udfs or builtin_registry()
        self.cache = WindowCache(cache_capacity)
        self.indexer = AdaptiveIndexer(enabled=adaptive_indexing)
        #: observability bundle: the metric registry every counter view
        #: writes through, plus the (off-by-default) tracer
        self.obs = obs if obs is not None else Observability()
        self.metrics = EngineMetrics(registry=self.obs.registry)
        #: execute PANE-INCREMENTAL plans over panes (``False`` forces the
        #: classic full-recompute path for every plan — the differential
        #: tests run both and assert byte-identical results)
        self.incremental = incremental
        #: allow shared-subplan execution across registered queries
        #: (``False`` makes the gateway skip the MQO registry entirely —
        #: the escape hatch the differential tests toggle)
        self.mqo = mqo
        #: cost-based adaptive planning (off by default — every
        #: existing deployment keeps its static heuristics): when on,
        #: the gateway costs each registration against the estimator's
        #: statistics catalog and attaches mid-flight re-planning
        #: guards; every choice is demote-only and byte-identical.
        self.adaptive = adaptive
        self.estimator = None
        if adaptive:
            from .estimator import StatisticsCatalog

            self.estimator = StatisticsCatalog(self)
        self._sources: dict[str, StreamSource] = {}
        self._databases: dict[str, Database] = {}

    # -- registration -------------------------------------------------------

    def register_stream(self, source: StreamSource) -> None:
        """Register a stream source under its stream name."""
        self._sources[source.stream.name] = source
        if self.estimator is not None:
            self.estimator.invalidate(source.stream.name)

    def attach_database(self, name: str, database: Database) -> None:
        """Attach a static database under a source name."""
        self._databases[name] = database

    def stream(self, name: str) -> StreamSource:
        return self._sources[name]

    def database(self, name: str) -> Database:
        return self._databases[name]

    def locate_table(self, table: str) -> str | None:
        """The attached database containing ``table``, or ``None``."""
        for name, database in self._databases.items():
            if table in database.schema:
                return name
        return None

    @property
    def stream_names(self) -> set[str]:
        return set(self._sources)

    # -- observability -----------------------------------------------------------

    def metrics_snapshot(self):
        """A picklable point-in-time copy of this engine's registry."""
        return self.obs.registry.snapshot()

    # -- plan binding ------------------------------------------------------------

    def bind(
        self,
        plan: ContinuousPlan,
        shared_readers: dict[str, SharedWindowReader] | None = None,
        mqo=None,
    ) -> PlanRuntime:
        """Bind a plan to sources/databases, producing a runtime.

        ``shared_readers`` lets the gateway share window materialisation
        (the wCache behaviour) across concurrently registered queries.
        ``mqo`` is the gateway's shared-pipeline registry (or a scoped
        view of it); when present and the plan's prefix is shareable,
        the runtime computes per-pane results once across every
        structurally equal registered query.
        """
        readers: dict[str, SharedWindowReader] = {}
        stream_columns: dict[str, list[str]] = {}
        for ref in self.plan_window_refs(plan):
            shared_key = self.shared_reader_key(ref, plan)
            if shared_readers is not None and shared_key in shared_readers:
                reader = shared_readers[shared_key]
            else:
                source = self._sources.get(ref.stream)
                if source is None:
                    raise KeyError(f"stream {ref.stream!r} is not registered")
                reader = SharedWindowReader(
                    shared_key,
                    lambda src=source: iter(src),
                    ref.spec,
                    source.stream.schema.time_index,
                    self.cache,
                    start=plan.start,
                )
                if shared_readers is not None:
                    shared_readers[shared_key] = reader
            readers[ref.reader_key] = reader
            source = self._sources[ref.stream]
            stream_columns[ref.alias] = [
                f"{ref.alias}.{c}" for c in source.stream.schema.column_names
            ]

        # Static tables come from each database's shared cache: one
        # SQLite query and one set of hash indexes per (alias, SQL)
        # across every binding, shard and engine of that database.
        statics: dict[str, StaticTable] = {}
        registry = self.obs.registry
        for ref in plan.statics:
            database = self._databases.get(ref.source)
            if database is None:
                raise KeyError(f"database {ref.source!r} is not attached")
            table, hit = static_cache_for(database).get(
                database, ref.alias, ref.sql
            )
            statics[ref.alias] = table
            registry.counter(
                "static_table_cache_hits_total"
                if hit else "static_table_cache_misses_total",
                query=plan.name,
            ).inc()

        binding = None
        if mqo is not None and self.mqo:
            signature = plan_signature(plan)
            if signature is not None:
                binding = mqo.bind(signature, plan.name)

        return PlanRuntime(
            plan=plan,
            readers=readers,
            statics=statics,
            stream_columns=stream_columns,
            udfs=self.udfs,
            metrics=self.metrics.query(plan.name),
            incremental_enabled=self.incremental,
            mqo=binding,
            obs=self.obs,
        )

    @staticmethod
    def plan_window_refs(plan: ContinuousPlan) -> list[WindowedStreamRef]:
        return list(plan.windows)

    @staticmethod
    def shared_reader_key(ref: WindowedStreamRef, plan: ContinuousPlan) -> str:
        """Sharing identity of one windowed input.

        The pulse anchor is part of the identity: two queries only share
        materialised windows when their grids coincide.  The gateway uses
        the same keys to reference-count shared readers across queries.
        """
        return f"{ref.reader_key}@{plan.start}"

    # -- execution -----------------------------------------------------------------

    def run_continuous(
        self,
        plan: ContinuousPlan,
        max_windows: int | None = None,
    ) -> Iterator[WindowResult]:
        """Execute one plan until stream end (or ``max_windows``)."""
        runtime = self.bind(plan)
        window_id = 0
        while max_windows is None or window_id < max_windows:
            result = runtime.execute_window(window_id)
            if result is None:
                return
            yield result
            window_id += 1
