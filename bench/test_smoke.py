"""Smoke tier of the benchmark: each workload on a handful of instances, one
pass untraced and one traced, in a subprocess so the tracing wrappers never
touch the test process. The span invariants are checked on a Tracer built
in process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from speed import REF_S, SpeedSampler
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "layer.inner")
    outer = tracer.wrap(lambda x: inner(x) * inner(x), "layer.outer")
    tracer.begin("op")
    assert outer(1) == 4
    outer_span, *children = tracer.spans
    assert [s.name for s in tracer.spans] == ["layer.outer", "layer.inner", "layer.inner"]
    assert outer_span.parent is None and all(c.parent == 0 for c in children)
    assert {s.op for s in tracer.spans} == {1}
    for c in children:
        assert outer_span.start <= c.start <= c.end <= outer_span.end
    own = tracer.self_times()
    assert own[0] == pytest.approx(outer_span.duration - sum(c.duration for c in children))
    assert own[1:] == [c.duration for c in children]


def test_speed_scale_uses_the_samples_near_an_operation():
    sampler = SpeedSampler()
    sampler.stamps = [0.0, 1.0, 2.0, 10.0]
    sampler.times = [1e-3, 2e-3, 1e-3, 4e-3]
    assert sampler.scale(0.9, 1.1) == pytest.approx(REF_S / 2e-3)
    assert sampler.scale(9.9, 10.1) == pytest.approx(REF_S / 4e-3)
    assert sampler.scale(5.0, 5.0) == pytest.approx(REF_S / 2e-3)  # none near: all four
