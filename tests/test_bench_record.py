"""The BENCH recorder's summary of harness runs, with the harness faked."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture()
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_summarises_every_workload_and_seed(bench_record, tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 5, "workloads": [{"name": "a"}, {"name": "b"}]}))
    env = {"git_sha": "abc", "src_sha256": "def", "python": "3", "numpy": "2",
           "cpu_count": 2, "loadavg_start": [0.0]}
    calls = []

    def fake_harness(root, workload, seed, seconds, trace):
        calls.append((workload, seed, trace))
        value = float(len(calls))
        if trace:
            return env, {"correct": True, "failed": 0, "metrics": {"x.self_s": {
                "unit": "s", "value": value}}}
        return env, {"correct": len(calls) != 3, "failed": 0,
                     "metrics": {"run_s": {"unit": "s", "value": value}}}

    monkeypatch.setattr(bench_record, "run_harness", fake_harness)
    out = bench_record.record(tmp_path, repeats=3)
    assert [c for c in calls if not c[2]] == [(w, s, False) for _ in range(3)
                                              for w in "ab" for s in bench_record.SEEDS]
    assert len(calls) == 3 * 4 + 4
    assert {k: out[k] for k in ("git_sha", "src_sha256", "cpu_count", "seconds")} == \
           {"git_sha": "abc", "src_sha256": "def", "cpu_count": 2, "seconds": 5}
    a = out["workloads"]["a"]["2024"]
    assert a["end_to_end"]["run_s"] == {"unit": "s", "median": 5.0, "min": 1.0, "max": 9.0,
                                        "runs": [1.0, 5.0, 9.0]}
    assert a["per_layer"] == {"x.self_s": {"unit": "s", "value": 13.0}}
    assert a["correct"] and out["workloads"]["b"]["2024"]["correct"] is False
