"""The benchmark checks itself at tiny sizes: every metric is emitted with
its unit for every workload, in both modes, and the oracle check passes.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.run import (  # noqa: E402
    END_TO_END,
    main,
    percentile,
    run_workload,
    tail_quantile,
)
from perfbench.workloads import WORKLOADS, submission_texts  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "trace"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_and_oracle_agrees(workload, trace):
    out = io.StringIO()
    result = run_workload(workload, seed=3, seconds=0.5, trace=trace,
                          setups=2, replays=2, out=out)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert last == result
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert [(name, m["unit"]) for name, m in last["metrics"].items()] == expected
    for name, metric in last["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


def test_submissions_keep_the_mix_and_vary_order_and_thresholds():
    one, two = submission_texts(1, 2), submission_texts(2, 2)
    assert sorted(t for t, _ in one) == sorted(t for t, _ in two)
    assert sorted(t for t, _ in one) == sorted(list(range(1, 21)) * 2)
    assert [t for t, _ in one] != [t for t, _ in two]
    assert len({text for _, text in one}) == len(one)
    assert submission_texts(1, 2) == one


def test_refuses_when_program_switches_are_set(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_AUDIT", "1")
    code = main(["--workload", "catalog", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert [tail_quantile(n) for n in (60, 375, 1000, 1698, 20)] == [
        0.83, 0.97, 0.99, 0.99, 0.5]
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.83) == 83
