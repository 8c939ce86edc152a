"""Observability overhead gate: the registry and tracer must stay cheap.

Three configurations over bench_incremental's workload (the Siemens
diagnostic shape at overlap factor 16, pane-incremental path):

* **baseline** — ``Observability(enabled=False)``: core counters only,
  no histograms, no per-operator stats, tracing off;
* **default** — ``Observability()``: registry fully on (histograms +
  per-operator cardinality stats), tracing off.  Gate: <= 2% over
  baseline;
* **traced** — default plus a :class:`JsonlExporter` writing every
  span.  Gate: <= 10% over baseline.

Timing runs in interleaved rounds (baseline, default, traced, baseline,
…): a slow spell of a shared host then hits every configuration of a
round alike, and each gate reads the median of the per-round paired
ratios.  Every configuration must produce byte-identical results —
observability only observes.  The traced run leaves its span file at
``obs-sample-trace.jsonl`` (or ``$OBS_TRACE_OUT``) so CI can upload a
sample trace artifact.
"""

import gc
import os
from statistics import median

import pytest

from repro.exastream import Stopwatch, StreamEngine, plan_sql
from repro.obs import JsonlExporter, Observability, Tracer, read_spans
from repro.relational import Column, Database, Schema, SQLType, Table
from repro.streams import ListSource, Stream, StreamSchema

OVERLAP = 16
SLIDE = 5

#: multiplicative gates over the disabled baseline
DEFAULT_MAX_OVERHEAD = 1.02
TRACED_MAX_OVERHEAD = 1.10

SCHEMA = StreamSchema(
    (
        Column("ts", SQLType.REAL),
        Column("sid", SQLType.INTEGER),
        Column("val", SQLType.REAL),
    ),
    time_column="ts",
)

SQL = (
    "SELECT w.sid AS s, AVG(w.val * 9 / 5 + 32) AS fahrenheit, "
    "COUNT(*) AS n, MAX(w.val) AS peak "
    f"FROM timeSlidingWindow(S, {OVERLAP * SLIDE}, {SLIDE}) AS w, "
    "sensors AS t "
    "WHERE w.sid = t.sid AND t.kind = 'temp' AND w.val > 51 "
    "GROUP BY w.sid"
)


def _workload(smoke: bool):
    # the smoke workload is larger than bench_incremental's: per-span
    # serialization needs enough per-window work to amortize against,
    # or the traced gate measures JSON encoding, not engine overhead
    if smoke:
        return dict(n_seconds=240, n_sensors=24, hz=4)
    return dict(n_seconds=400, n_sensors=40, hz=4)


def _rows(n_seconds: int, n_sensors: int, hz: int):
    return [
        (t / float(hz), s, 50.0 + ((t * 7 + s * 13) % 23) + 0.1234)
        for t in range(n_seconds * hz)
        for s in range(n_sensors)
    ]


def _run(rows, n_sensors: int, obs: Observability):
    engine = StreamEngine(obs=obs)
    engine.register_stream(ListSource(Stream("S", SCHEMA), rows))
    db = Database(
        Schema(
            "meta",
            {
                "sensors": Table(
                    "sensors",
                    [
                        Column("sid", SQLType.INTEGER),
                        Column("kind", SQLType.TEXT),
                    ],
                )
            },
        )
    )
    db.insert(
        "sensors", [(s, "temp" if s % 3 else "pres") for s in range(n_sensors)]
    )
    engine.attach_database("meta", db)
    plan = plan_sql(SQL, engine, name="q")
    watch = Stopwatch()
    results = [
        (r.window_id, r.window_end, tuple(r.columns), tuple(r.rows))
        for r in engine.run_continuous(plan)
    ]
    return results, watch.elapsed()


def _trace_path() -> str:
    return os.environ.get("OBS_TRACE_OUT", "obs-sample-trace.jsonl")


def _configs(trace_path: str):
    def traced() -> Observability:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        return Observability(
            tracer=Tracer(JsonlExporter(trace_path), enabled=True)
        )

    return {
        "baseline": lambda: Observability(enabled=False),
        "default": Observability,
        "traced": traced,
    }


def _measure(rows, n_sensors: int, rounds: int):
    """Per-configuration seconds of each interleaved round, plus the
    result sets."""
    configs = _configs(_trace_path())
    seconds = {name: [] for name in configs}
    outputs = {}
    for _ in range(rounds):
        for name, make_obs in configs.items():
            # the previous run's garbage is not this configuration's cost
            gc.collect()
            results, elapsed = _run(rows, n_sensors, make_obs())
            seconds[name].append(elapsed)
            outputs[name] = results
    return seconds, outputs


def _paired(seconds, name):
    """Median per-round ratio and difference of ``name`` over baseline."""
    pairs = list(zip(seconds[name], seconds["baseline"]))
    return (
        median(t / b for t, b in pairs),
        median(t - b for t, b in pairs),
    )


def test_observability_overhead(benchmark, smoke):
    """The gate: default <= 2%, traced <= 10%, identical output."""
    workload = _workload(smoke)
    rows = _rows(**workload)
    rounds = 5 if smoke else 3

    def once():
        return _measure(rows, workload["n_sensors"], rounds)

    seconds, outputs = benchmark.pedantic(once, rounds=1, iterations=1)

    assert outputs["default"] == outputs["baseline"], \
        "the registry must only observe"
    assert outputs["traced"] == outputs["baseline"], \
        "tracing must only observe"
    assert len(outputs["baseline"]) > 0

    default_ratio, default_extra = _paired(seconds, "default")
    traced_ratio, traced_extra = _paired(seconds, "traced")
    benchmark.extra_info["default_overhead"] = default_ratio
    benchmark.extra_info["traced_overhead"] = traced_ratio
    print(
        f"\nbaseline {median(seconds['baseline']):.3f}s, "
        f"default {median(seconds['default']):.3f}s ({default_ratio:.3f}x), "
        f"traced {median(seconds['traced']):.3f}s ({traced_ratio:.3f}x) "
        "(medians of paired rounds)"
    )

    spans = read_spans(_trace_path())
    assert spans, "the traced run must leave a sample trace"
    assert all(span.end is not None for span in spans)

    # a tiny absolute floor keeps the multiplicative gate meaningful on
    # noisy shared CI boxes without weakening it on real workloads
    slack = 0.002
    assert (default_ratio <= DEFAULT_MAX_OVERHEAD
            or default_extra <= slack), (
        f"registry overhead {default_ratio:.3f}x exceeds "
        f"{DEFAULT_MAX_OVERHEAD}x"
    )
    assert (traced_ratio <= TRACED_MAX_OVERHEAD
            or traced_extra <= slack), (
        f"tracing overhead {traced_ratio:.3f}x exceeds "
        f"{TRACED_MAX_OVERHEAD}x"
    )


def test_disabled_tracer_is_allocation_free():
    """The off-path cost is one attribute read: no spans, no handles."""
    workload = _workload(True)
    rows = _rows(**workload)
    obs = Observability()
    results, _ = _run(rows, workload["n_sensors"], obs)
    assert results
    assert obs.tracer.spans_opened == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "--smoke"]))
