"""The BENCH recorder's summary of harness runs, with the harness faked."""

import importlib.util
import json
import subprocess
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
    assert a["end_to_end"]["run_s"] == {"unit": "s", "median": 5.0, "q1": 3.0, "q3": 7.0,
                                        "min": 1.0, "max": 9.0, "runs": [1.0, 5.0, 9.0]}
    assert a["per_layer"] == {"x.self_s": {"unit": "s", "value": 13.0}}
    assert a["correct"] and out["workloads"]["b"]["2024"]["correct"] is False


def test_base_runs_pair_with_head_runs(bench_record, tmp_path, monkeypatch):
    head, base = tmp_path / "head", tmp_path / "base"
    head.mkdir()
    (head / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 5, "workloads": [{"name": "a"}],
         "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}]}))
    head_values = {2024: [1.0, 3.0, 1.5], 4242: [2.0, 2.0, 2.0]}
    calls = []

    def fake_harness(root, workload, seed, seconds, trace):
        calls.append((root, seed, trace))
        env = {"git_sha": None, "src_sha256": root.name, "python": "3", "numpy": "2",
               "cpu_count": 2}
        if trace:
            return env, {"correct": True, "failed": 0, "metrics": {"x.self_s": {
                "unit": "s", "value": 1.0 if root == head else 2.0}}}
        done = sum(1 for c in calls[:-1] if c == (root, seed, False))
        value = head_values[seed][done] if root == head else 2.0
        return env, {"correct": True, "failed": 0,
                     "metrics": {"run_s": {"unit": "s", "value": value}}}

    monkeypatch.setattr(bench_record, "run_harness", fake_harness)
    out = bench_record.record(head, repeats=3, base=base)
    untraced = [(root, seed) for root, seed, trace in calls if not trace]
    # each pair runs back to back, and the side that goes first alternates
    assert untraced == [pair for rep in range(3) for i, seed in enumerate((2024, 4242))
                        for pair in ([(head, seed), (base, seed)] if (rep + i) % 2 == 0
                                     else [(base, seed), (head, seed)])]
    assert sorted((root, seed) for root, seed, trace in calls if trace) == \
           sorted([(head, 2024), (head, 4242), (base, 2024), (base, 4242)])
    assert out["src_sha256"] == "head" and out["base"]["src_sha256"] == "base"
    assert out["workloads"]["a"]["2024"]["end_to_end"]["run_s"]["median"] == 1.5
    assert out["base"]["workloads"]["a"]["2024"]["end_to_end"]["run_s"]["median"] == 2.0
    assert out["base"]["workloads"]["a"]["2024"]["per_layer"]["x.self_s"]["value"] == 2.0
    assert out["pairs"]["a"]["2024"]["run_s"] == {"ratios": [0.5, 1.5, 0.75], "median": 0.75,
                                                  "wins": 2}
    assert out["pairs"]["a"]["4242"]["run_s"] == {"ratios": [1.0] * 3, "median": 1.0,
                                                  "wins": 0}


def test_extract_copies_a_commit_without_touching_the_repository(bench_record, tmp_path):
    git = bench_record.REPO / ".git"
    if not git.exists():
        pytest.skip("not a git checkout")
    worktrees = sorted((git / "worktrees").glob("*")) if (git / "worktrees").exists() else []
    sha, target = bench_record.extract("HEAD", tmp_path)
    assert sha == subprocess.run(["git", "-C", str(bench_record.REPO), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
    assert target.parent == tmp_path
    assert (target / "BENCHMARK.json").is_file()
    assert (target / "tools" / "bench_record.py").is_file()
    assert not (target / ".git").exists()
    assert (sorted((git / "worktrees").glob("*")) if (git / "worktrees").exists()
            else []) == worktrees
    with pytest.raises(SystemExit, match="no commit"):
        bench_record.extract("no-such-revision", tmp_path)


BENCHMARK = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                            {"name": "acc", "better": "higher", "bound": 0.1}]}


def fake_record(run_s, acc=0.5, correct=True, failed=0, seeds=("2024", "4242")):
    cell = {"correct": correct, "failed": failed,
            "end_to_end": {"run_s": {"median": run_s}, "acc": {"median": acc}}}
    return {"workloads": {"w": {seed: cell for seed in seeds}}}


def run_compare(bench_record, tmp_path, old, new):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    paths = []
    for name, record in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(record))
        paths.append(str(tmp_path / name))
    return bench_record.main(["--compare", *paths, "--root", str(tmp_path)])


@pytest.mark.parametrize("new, rc", [
    (fake_record(1.0), 0),                      # unchanged
    (fake_record(0.4), 0),                      # faster
    (fake_record(1.2), 0),                      # slower, inside the 25% bound
    (fake_record(1.3), 1),                      # slower by more than the bound
    (fake_record(1.0, acc=0.46), 0),            # higher-is-better metric, inside 10%
    (fake_record(1.0, acc=0.44), 1),            # and past it
    (fake_record(1.0, correct=False), 1),       # a new run was not correct
    (fake_record(1.0, failed=2), 1),
    (fake_record(1.0, seeds=("2024",)), 1),     # a seed of the old record is missing
])
def test_compare_exit_code(bench_record, tmp_path, capsys, new, rc):
    assert run_compare(bench_record, tmp_path, fake_record(1.0), new) == rc
    assert ("WORSE" in capsys.readouterr().out) == bool(rc)


def test_compare_prints_medians_ratio_and_verdict(bench_record, tmp_path, capsys):
    old = fake_record(2.0)
    new = fake_record(1.0)
    new["workloads"]["w"]["4242"] = fake_record(3.0)["workloads"]["w"]["4242"]
    assert run_compare(bench_record, tmp_path, old, new) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:3]): line.split()[3:] for line in lines[1:]}
    assert rows[("w", "2024", "run_s")] == ["2", "1", "0.500", "<=1.25", "ok"]
    assert rows[("w", "4242", "run_s")] == ["2", "3", "1.500", "<=1.25", "WORSE"]
    assert rows[("w", "2024", "acc")] == ["0.5", "0.5", "1.000", ">=0.9", "ok"]
    assert len(rows) == 4


def test_zero_old_median(bench_record):
    benchmark = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}]}
    lines, bad = bench_record.compare(fake_record(0.0), fake_record(0.0), benchmark)
    assert not bad and "1.000" in lines[1]
    lines, bad = bench_record.compare(fake_record(0.0), fake_record(0.1), benchmark)
    assert bad


def paired_record(run_s, base_run_s, ratios):
    record = fake_record(run_s)
    record["base"] = fake_record(base_run_s)
    pair = {"ratios": ratios, "median": sorted(ratios)[len(ratios) // 2],
            "wins": sum(r < 1 for r in ratios)}
    record["pairs"] = {"w": {seed: {"run_s": pair} for seed in ("2024", "4242")}}
    return record


@pytest.mark.parametrize("new, rc", [
    # slower than the old record's session, but not than its own base
    (paired_record(1.3, 1.28, [0.98, 1.02, 1.01]), 0),
    # as fast as the old record, but slower than its own base in pairs
    (paired_record(1.0, 0.7, [1.4, 1.3, 1.5]), 1),
])
def test_compare_judges_a_paired_record_by_its_pairs(bench_record, tmp_path, capsys, new, rc):
    assert run_compare(bench_record, tmp_path, fake_record(1.0), new) == rc
    lines = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:3]): line.split()[3:] for line in lines[1:]}
    base = new["base"]["workloads"]["w"]["2024"]["end_to_end"]["run_s"]["median"]
    pair = new["pairs"]["w"]["2024"]["run_s"]
    assert rows[("w", "2024", "run_s")][:3] == [f"{base:.4g}", f"{1.3 if rc == 0 else 1.0:.4g}",
                                               f"{pair['median']:.3f}"]
    assert f"(paired, {pair['wins']}/3 won)" in lines[1]
    assert rows[("w", "2024", "acc")][2] == "1.000"    # no pairs: the old record's median


def test_spread_quartiles(bench_record):
    values = [{"unit": "s", "value": v} for v in (4.0, 1.0, 3.0, 2.0, 5.0, 9.0, 6.0, 7.0, 8.0,
                                                    10.0)]
    out = bench_record.spread(values)
    assert (out["q1"], out["median"], out["q3"]) == (3.25, 5.5, 7.75)
    assert bench_record.spread(values[:1])["q1"] == bench_record.spread(values[:1])["q3"] == 4.0


def quartile_record(bench_record, head_runs, base_runs, ratios):
    """A paired record whose sides hold run_s spreads, quartiles included, of their runs."""
    record = paired_record(0.0, 0.0, ratios)
    for side, runs in ((record, head_runs), (record["base"], base_runs)):
        summary = bench_record.spread([{"unit": "s", "value": v} for v in runs])
        for seed in ("2024", "4242"):
            side["workloads"]["w"][seed] = dict(side["workloads"]["w"][seed],
                                                end_to_end={"run_s": summary,
                                                            "acc": {"median": 0.5}})
    return record


BASE_RUNS = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]   # IQR 0.045


@pytest.mark.parametrize("head_runs, ratios, mark", [
    # 9 of 10 pairs won, the median 0.2 below the base's, past its IQR
    ([v - 0.2 for v in BASE_RUNS], [0.8] * 9 + [1.01], "gain"),
    # only 8 of 10 pairs won
    ([v - 0.2 for v in BASE_RUNS], [0.8] * 8 + [1.01] * 2, "no gain"),
    # every pair won, but the median moved by less than the base's IQR
    ([v - 0.03 for v in BASE_RUNS], [0.97] * 10, "no gain"),
])
def test_compare_marks_the_gain_rule(bench_record, tmp_path, capsys, head_runs, ratios, mark):
    new = quartile_record(bench_record, head_runs, BASE_RUNS, ratios)
    assert run_compare(bench_record, tmp_path, new["base"], new) == 0
    lines = capsys.readouterr().out.splitlines()
    row = next(line for line in lines if line.split()[:3] == ["w", "2024", "run_s"])
    assert row.endswith(f"won)  {mark}")


def test_compare_without_quartiles_still_compares(bench_record, tmp_path, capsys):
    # records written before quartiles were kept still compare
    new = paired_record(0.7, 1.0, [0.7] * 10)
    assert run_compare(bench_record, tmp_path, fake_record(1.0), new) == 0
    lines = capsys.readouterr().out.splitlines()
    row = next(line for line in lines if line.split()[:3] == ["w", "2024", "run_s"])
    assert row.endswith("(paired, 10/10 won)  gain n/a")
