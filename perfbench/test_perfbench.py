"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench
"""

import io
import json
import math
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_harness as harness  # noqa: E402
import bench_workloads as workloads  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from run import REFERENCE_SEEDS, REFERENCES  # noqa: E402
from spadevents import feast, pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def quiet_run(workload, trace, references=None):
    return harness.run(workload, SEED, 0.0, trace, ROOT, references or {}, log=io.StringIO())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def tiny_runs(request):
    workload = workloads.tiny(request.param)
    return workload, quiet_run(workload, False), quiet_run(workload, True)


def test_every_metric_is_emitted_with_its_unit(tiny_runs):
    _, (plain, _), (traced, _) = tiny_runs
    for line, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


def test_outputs_do_not_depend_on_tracing(tiny_runs):
    _, (_, plain), (_, traced) = tiny_runs
    assert [p["traced"] for p in traced["passes"]] == [False, True]
    digests = {p["outputs_sha256"] for p in plain["passes"] + traced["passes"]}
    assert len(digests) == 1
    assert plain["outputs"] == traced["outputs"]


def test_corrupted_reference_counts_as_failure(tiny_runs):
    workload, (_, plain), _ = tiny_runs
    outputs = dict(plain["outputs"])
    references = {workload.name: {"signature": workload.signature(),
                                  "seeds": {str(SEED): outputs}}}
    line, record = quiet_run(workload, False, references)
    assert record["reference_checked"] and line["failed"] == 0

    outputs[sorted(outputs)[0]] = "corrupted"
    line, _ = quiet_run(workload, True, references)
    assert not line["correct"] and line["failed"] >= 1
    assert line["metrics"]["error_rate"]["value"] == line["failed"] / line["attempted"] > 0


def test_traced_functions_still_pickle_by_name():
    tracer = Tracer()
    tracer.install()
    try:
        wrapper = feast.feast_infer
        assert pipeline.feast_infer is wrapper and wrapper.__wrapped__ is not wrapper
        assert pickle.loads(pickle.dumps(wrapper)) is wrapper
    finally:
        tracer.uninstall()
    assert not hasattr(feast.feast_infer, "__wrapped__")


def test_references_cover_the_benchmark_workloads():
    references = harness.load_references(REFERENCES)
    for factory in workloads.WORKLOADS.values():
        for seed in REFERENCE_SEEDS:
            assert harness.reference_for(references, factory(), seed), (factory.name, seed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "c8_cells",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_run_time_sums_each_operations_fastest_repeat():
    passes = [{"ops_s": {"a": 2.0, "b": 1.0}}, {"ops_s": {"a": 1.5, "b": 3.0}}]
    assert harness.fastest_op_s(passes) == {"a": 1.5, "b": 1.0}


def test_end_to_end_times_are_scaled_to_the_reference_host(tiny_runs):
    _, (plain, record), _ = tiny_runs
    ref, passes = harness.REFERENCE_HOST_MS, record["passes"]
    run_s = sum(min(p["ops_s"][key] * ref / p["host_ms"] for p in passes)
                for key in passes[0]["ops_s"])
    assert len(record["setup_host_ms"]) == len(record["setup_s"])
    setup_s = min(s * ref / h for s, h in zip(record["setup_s"], record["setup_host_ms"]))
    assert plain["metrics"]["run_s"]["value"] == pytest.approx(run_s)
    assert plain["metrics"]["setup_s"]["value"] == pytest.approx(setup_s)
