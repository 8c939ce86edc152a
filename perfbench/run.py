#!/usr/bin/env python3
"""Run one benchmark workload and print its result as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 12 --trace 0

Workloads: ``catalog``, ``fleet_register`` and ``pane_durable_sharded``
(see ``perfbench/workloads.py``).  ``--trace 0`` measures the end-to-end
metrics on untraced code; ``--trace 1`` is a separate process that wraps
each layer's public functions and reports per-layer self times and
counts, writes the spans as JSONL and prints a per-layer table.  Both
modes compare every delivered window with the recompute oracle after
the measured part.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it and ``.perfbench/result-*.json`` carry the seed, the sizes, sample
counts and provenance.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

#: end-to-end metrics: every workload reports every one of them
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: environment switches that turn on code inside the program
REFUSED_ENV = ("REPRO_TRACE", "REPRO_AUDIT")


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (0 < q < 1): the smallest sample
    with at least ``q`` of all samples at or below it.

    Latencies here form one cluster per task; interpolating between two
    samples would land between clusters whenever ``q`` splits them.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem_of(path: Path) -> str:
    """The filesystem type holding ``path`` (``unknown`` if unreadable)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3 or len(fields[1]) <= len(best):
                    continue
                mount = fields[1].rstrip("/") + "/"
                if f"{path}/".startswith(mount):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def provenance(workload, seed: int, seconds: float, trace: bool) -> dict:
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": workload.size(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_of(ROOT),
    }
    if workload.name == "pane_durable_sharded":
        record["checkpoint_dir"] = str(WORK_DIR.relative_to(ROOT))
        record["checkpoint_fs"] = filesystem_of(WORK_DIR)
        record["checkpoint_on_tmpfs"] = record["checkpoint_fs"] == "tmpfs"
        record["checkpoint_fsync"] = False
    return record


def diff(windows: dict, expected: dict) -> dict:
    """Windows missing from, wrong in, and extra in ``windows``."""
    return {
        "missing": [k for k in expected if k not in windows],
        "wrong": [k for k in expected if k in windows and windows[k] != expected[k]],
        "extra": [k for k in windows if k not in expected],
    }


def tail_quantile(samples: int) -> float:
    """The highest whole percentile with at least ten samples beyond it
    (at most p99, at least p50)."""
    return min(99, max(50, (100 * samples - 1000) // samples)) / 100


def cache_stats(engine) -> list:
    return [e.cache.stats for e in getattr(engine, "shard_engines", [engine])]


def timed_passes(workload) -> tuple[list, list, int]:
    """Set up ``setups`` times; run a timed pass on the last ``replays``.

    Set-up times are normalised to nominal host speed (``HostSpeed``).
    Returns the set-up times, the pass outcomes and the number of
    windows on which a later pass disagreed with the first one.
    """
    from perfbench.workloads import HostSpeed

    setup_times, outcomes, disagreements = [], [], 0
    total = max(workload.setups, workload.replays)
    for index in range(total):
        gc.collect()
        state, seconds = HostSpeed.timed(workload.setup)
        setup_times.append(seconds)
        if index >= total - workload.replays:
            gc.collect()
            outcome = workload.run(state)
            if outcomes:
                found = diff(outcome.windows, outcomes[0].windows)
                disagreements += sum(len(keys) for keys in found.values())
                outcome.windows = None  # only the first pass is kept
            outcomes.append(outcome)
        workload.teardown(state)
        del state
    return setup_times, outcomes, disagreements


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setups: int | None = None, replays: int | None = None,
                 out=sys.stdout) -> dict:
    """Run one workload; print the report and return the result object.

    ``setups`` and ``replays`` override the workload's counts (tests).
    """
    from perfbench.workloads import WORKLOADS, combine

    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, seconds, WORK_DIR)
    workload.setups = setups or workload.setups
    workload.replays = replays or workload.replays
    record = provenance(workload, seed, seconds, trace)
    disagreements = 0
    if trace:
        from perfbench.layers import PER_LAYER, Probe, render_table

        probe = Probe()
        probe.install()
        try:
            start = time.perf_counter()
            state = workload.setup()
            probe.recorder.context = "gateway"
            outcome = workload.run(state)
            wall = time.perf_counter() - start
        finally:
            probe.uninstall()
        gateway, engine = state[0].gateway, state[0].engine
        values = probe.metrics(
            wall, outcome.ops / combine([outcome])[0],
            gateway.metrics_snapshot(), cache_stats(engine),
            outcome.checkpoint_bytes,
        )
        workload.teardown(state)
        del state, gateway, engine
        spans_path = WORK_DIR / f"trace-{name}-seed{seed}.jsonl"
        probe.recorder.write_jsonl(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["span_count"] = len(probe.recorder.spans)
        print(render_table(name, values, wall), file=out)
        metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}
        outcomes = [outcome]
    else:
        setup_times, outcomes, disagreements = timed_passes(workload)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        seconds_per_pass, latencies = combine(outcomes)
        tail = tail_quantile(len(latencies))
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": outcomes[0].ops / seconds_per_pass,
            "latency_p50_ms": percentile(latencies, 0.5) * 1000,
            "latency_tail_ms": percentile(latencies, tail) * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        record.update(
            setup_times_s=setup_times,
            pass_wall_s=[o.wall_s for o in outcomes],
            pass_ops_per_s=[o.ops / o.wall_s for o in outcomes],
            combined_pass_s=seconds_per_pass,
            latency_samples=len(latencies),
            tail_percentile=tail,
        )
        if outcomes[0].stream_seconds:
            record["realtime_x"] = outcomes[0].stream_seconds / seconds_per_pass
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    gc.collect()
    oracle_state = workload.setup(oracle=True)
    expected = workload.run(oracle_state)
    workload.teardown(oracle_state)
    del oracle_state
    found = diff(outcomes[0].windows, expected.windows)
    attempted = sum(o.registrations + len(expected.windows)
                    + o.checkpoints_due for o in outcomes)
    failed = disagreements + sum(len(keys) for keys in found.values()) + sum(
        o.failed_registrations + o.failed_steps + o.checkpoints_due
        - o.checkpoints for o in outcomes)
    record["check"] = {
        "windows_expected": len(expected.windows),
        "windows_delivered": len(outcomes[0].windows),
        "passes": len(outcomes),
        "pass_disagreements": disagreements,
        **{kind: len(keys) for kind, keys in found.items()},
        "first_wrong": [list(k) for k in found["wrong"][:5]],
        "oracle_failed": expected.failed_registrations + expected.failed_steps,
    }
    result = {
        "correct": failed == 0 and expected.ops > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    suffix = "trace" if trace else "e2e"
    (WORK_DIR / f"result-{name}-seed{seed}-{suffix}.json").write_text(
        json.dumps({**record, "result": result}, indent=2, sort_keys=True))
    print(json.dumps(record, sort_keys=True), file=out)
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    refused = [var for var in REFUSED_ENV if os.environ.get(var)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: it switches on "
              "code inside the program", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro  # noqa: F401
        from perfbench.workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
