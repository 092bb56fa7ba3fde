"""Set-up, timed passes, output checks and metrics for one benchmark run.

A run sets the workload up at least SETUP_MIN_REPEATS times, and more
while under SETUP_MIN_SECONDS in all.  It then runs rounds of a fresh
set-up and a pass until the next round would end after ``seconds`` (at
least one pass; two in a traced run), so that set-ups are spread over the
whole run.  Every operation of a pass is timed on its own.  ``setup_s`` is
the fastest set-up, and ``run_s`` the sum over operations of each one's
fastest time: load from other tenants of a shared host only ever adds
time, so the fastest repeat is the steadiest estimate of the program's own
cost.  That load also slows the host as a whole, by up to 1.6x for minutes
at a time, which no repeat within a run escapes.  So the run also times a
fixed pure-Python loop (``host_speed_ms``) after each set-up and before
each pass, and scales every set-up and operation time by REFERENCE_HOST_MS
over the loop time taken next to it, before the fastest are chosen: the
end-to-end times read as seconds on a host of the reference speed.  A
change to the program does not touch the loop, so it shows in full.  An untraced run reports the
end-to-end metrics.  A traced run alternates untraced and traced
passes: the traced ones give the per-layer numbers, and the difference
between the two ``run_s`` estimates is the tracing overhead.

Per-layer numbers are either per traced pass (counts and seconds, averaged
over the traced passes) or per unit of work (time over all traced passes
divided by the work they counted); a layer that does no work in a workload
reports 0.

Every pass's outputs are checked against invariants, against the first
pass of the run, and against the reference recorded for the seed when
one exists.  Each mismatch or exception is one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_trace import TRACED, SpanSummary, Tracer
from bench_workloads import Workload

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 10
# host_speed_ms() on the 2-core reference VM (Intel Xeon, Python 3.11) when
# the host was quiet; end-to-end times are scaled to a host of this speed.
REFERENCE_HOST_MS = 13.0


def metric_units(root: Path, section: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists in section."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def load_references(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def reference_for(references: dict, workload: Workload, seed: int) -> dict | None:
    """Recorded outputs for this workload, its sizes and this seed, if any."""
    entry = references.get(workload.name)
    if not entry or entry.get("signature") != workload.signature():
        return None
    return entry.get("seeds", {}).get(str(seed))


def canonical(output):
    """The output as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(output))


def check_pass(ops, expected: dict, reference: dict | None) -> list[str]:
    """Failures of one pass; fills `expected` from the run's first pass."""
    failures = []
    for op in ops:
        if op.error:
            failures.append(f"{op.key}: raised {op.error}")
            continue
        output = canonical(op.output)
        if not op.ok:
            failures.append(f"{op.key}: invariant violated")
        elif reference is not None and reference.get(op.key) != output:
            failures.append(f"{op.key}: differs from the recorded reference")
        elif expected.setdefault(op.key, output) != output:
            failures.append(f"{op.key}: differs from the run's first pass")
    if reference is not None:
        failures += [f"{key}: missing" for key in sorted(reference.keys()
                                                         - {op.key for op in ops})]
    return failures


def fastest_op_s(passes: list[dict], times: str = "ops_s") -> dict:
    """Key -> the operation's fastest time over the given passes."""
    fastest = {}
    for p in passes:
        for key, seconds in p[times].items():
            fastest[key] = min(seconds, fastest.get(key, seconds))
    return fastest


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _blas() -> dict:
    info = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    try:
        config = np.show_config(mode="dicts")
        info["library"] = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        info["library"] = None
    return info


def host_speed_ms(repeats: int = 5) -> float:
    """Fastest time of a fixed pure-Python loop, in ms.

    Other tenants of a shared host slow this VM's cores without raising its
    load average; this loop measures how fast the host is at the moment.
    """
    fastest = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        fastest = min(fastest, time.perf_counter() - t0)
    return 1e3 * fastest


def environment(root: Path) -> dict:
    return {"git_sha": _git_sha(root), "src_sha256": _source_digest(root),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "blas": _blas(),
            "loadavg_start": list(os.getloadavg()),
            "host_speed_ms_start": host_speed_ms()}


def per_layer_metrics(summary: SpanSummary, n_traced: int, setup: SpanSummary) -> dict:
    """Per-layer numbers from the spans of the traced passes (per pass or per unit)."""
    s = summary
    m = {}
    train_events = s.count("feast.feast_train", "events")
    m["feast.train_us_per_event"] = s.per_unit("feast.feast_train", "events", 1e6)
    m["feast.infer_us_per_event"] = s.per_unit("feast.feast_infer", "events", 1e6)
    m["feast.train_events"] = train_events / n_traced
    m["feast.infer_events"] = s.count("feast.feast_infer", "events") / n_traced
    m["feast.infer_calls"] = s.calls["feast.feast_infer"] / n_traced
    m["feast.train_win_fraction"] = (s.count("feast.feast_train", "wins") / train_events
                                     if train_events else 0.0)
    for kind in ("firstand", "onoff", "oobu"):
        name = f"eventgen.{kind}_convert"
        m[f"eventgen.{kind}_us_per_frame"] = s.per_unit(name, "frames", 1e6)
        m[f"eventgen.events_out_{kind}"] = s.count(name, "events") / n_traced
        calls = s.count("eventgen.datarate_stats", f"calls.{kind}")
        m[f"eventgen.fold_{kind}"] = (s.count("eventgen.datarate_stats", f"fold_sum.{kind}")
                                      / calls if calls else 0.0)
    m["pipeline.build_samples_us_per_sample"] = s.per_unit("pipeline.build_sample_set",
                                                           "samples", 1e6)
    m["pipeline.samples"] = s.count("pipeline.build_sample_set", "samples") / n_traced
    m["pipeline.convert_all_s"] = s.total_s["pipeline.convert_all"] / n_traced
    m["pipeline.parallel_map_s"] = s.total_s["pipeline.parallel_map"] / n_traced
    m["pipeline.parallel_items"] = s.count("pipeline.parallel_map", "items") / n_traced
    m["classify.evaluate_ms_per_trial"] = s.per_unit("classify.evaluate_samples",
                                                     "trials", 1e3)
    evaluations = s.calls["classify.evaluate_samples"]
    m["classify.feature_width"] = (s.count("classify.evaluate_samples", "width") / evaluations
                                   if evaluations else 0.0)
    m["eventgen.write_us_per_kevent"] = s.per_unit("eventgen.write_stream", "events", 1e9)
    m["eventgen.read_us_per_kevent"] = s.per_unit("eventgen.read_stream", "events", 1e9)
    m["eventgen.stream_bytes_written"] = s.count("eventgen.write_stream", "bytes") / n_traced
    m["dataio.synth_ms_per_recording"] = setup.per_unit("dataio.synth_recording",
                                                        "recordings", 1e3)
    m["dataio.load_ms_per_recording"] = s.per_unit("dataio.load_recording",
                                                   "recordings", 1e3)
    m["dataio.bytes_read"] = s.count("dataio.load_recording", "bytes") / n_traced
    m["cli.sweep_s"] = s.total_s["cli.main"] / n_traced
    for layer in TRACED:
        m[f"{layer}.self_s"] = s.layer_self_s(layer) / n_traced
    return m


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
        references: dict, log=sys.stderr) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    env = environment(root)
    reference = reference_for(references, workload, seed)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=root))
    tracer = Tracer()
    try:
        setup_s = []
        setup_host_ms = []
        state = None

        def set_up():
            """Set the workload up afresh, in place of the previous set-up."""
            if state is not None:
                shutil.rmtree(state["dir"])
            tracer.phase = "setup"
            if trace:
                tracer.install()
            try:
                t0 = time.perf_counter()
                fresh = workload.setup(seed, work / f"data{len(setup_s)}")
                setup_s.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            return fresh

        while len(setup_s) < SETUP_MIN_REPEATS or (
                sum(setup_s) < SETUP_MIN_SECONDS and len(setup_s) < SETUP_MAX_REPEATS):
            state = set_up()
            setup_host_ms.append(env["host_speed_ms_start"])
        pass_dir = work / "pass"
        pass_dir.mkdir()

        passes = []
        expected = {}
        failures = []
        attempted = 0
        start = time.perf_counter()
        while True:
            round0 = time.perf_counter()
            if passes:
                state = set_up()
            host_ms = host_speed_ms()  # pairs with this pass and the set-up just made
            if passes:
                setup_host_ms.append(host_ms)
            traced = trace and len(passes) % 2 == 1
            tracer.phase = len(passes)
            if traced:
                tracer.install()
            wall0, cpu0 = time.perf_counter(), _cpu_s()
            try:
                ops = workload.run_pass(state, pass_dir)
            finally:
                tracer.uninstall()
            wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
            attempted += len({op.key for op in ops} | set(reference or {}))
            pass_failures = check_pass(ops, expected, reference)
            failures += [f"pass {len(passes)}: {f}" for f in pass_failures]
            outputs = [[op.key, canonical(op.output)] for op in ops]
            elapsed = sum(op.elapsed_s for op in ops)
            passes.append({"traced": traced, "elapsed_s": elapsed, "wall_s": wall,
                           "cpu_s": cpu, "failed": len(pass_failures), "host_ms": host_ms,
                           "ops_s": {op.key: op.elapsed_s for op in ops},
                           "ops_scaled_s": {op.key: op.elapsed_s * REFERENCE_HOST_MS / host_ms
                                            for op in ops},
                           "outputs_sha256": hashlib.sha256(
                               json.dumps(outputs).encode()).hexdigest(),
                           "ops": ops})
            print(f"pass {len(passes) - 1}{' traced' if traced else ''}: "
                  f"{elapsed:.3f} s, {len(pass_failures)} failed", file=log)
            now = time.perf_counter()
            if len(passes) >= (2 if trace else 1) and now - start + now - round0 > seconds:
                break
        # Worker processes of parallel_map count through RUSAGE_CHILDREN.
        peak_rss_mb = max(resource.getrusage(who).ru_maxrss for who in
                          (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    env["host_speed_ms_end"] = host_speed_ms()

    for failure in failures:
        print(f"FAILED {failure}", file=log)
    failed = len(failures)
    untraced = [p for p in passes if not p["traced"]]
    fastest = fastest_op_s(untraced)
    run_s = sum(fastest.values())
    if not trace:
        metrics = {"setup_s": min(s * REFERENCE_HOST_MS / h
                                  for s, h in zip(setup_s, setup_host_ms)),
                   "run_s": sum(fastest_op_s(untraced, "ops_scaled_s").values()),
                   "peak_rss_mb": peak_rss_mb}
        units = metric_units(root, "end_to_end")
        summary_table = {}
    else:
        traced = [p for p in passes if p["traced"]]
        phases = [i for i, p in enumerate(passes) if p["traced"]]
        summary = SpanSummary(tracer.spans, phases)
        metrics = per_layer_metrics(summary, len(traced), SpanSummary(tracer.spans, ["setup"]))
        latencies_ms = [1e3 * s for key, s in fastest.items() if key.startswith("recording/")]
        metrics["recording_ms_p50"], metrics["recording_ms_p90"] = (
            np.percentile(latencies_ms, [50, 90]).tolist() if latencies_ms else (0.0, 0.0))
        metrics["recording_samples"] = len(latencies_ms)
        metrics["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
        metrics["trace.overhead_s"] = sum(fastest_op_s(traced).values()) - run_s
        metrics["trace.covered_fraction"] = summary.root_s / sum(p["elapsed_s"] for p in traced)
        metrics["acc_per_frame"], metrics["acc_per_recording"] = \
            workload.accuracies(passes[0]["ops"])
        metrics["error_rate"] = failed / attempted
        units = metric_units(root, "per_layer")
        summary_table = summary.table()
        print("self seconds per traced pass, by span:", file=log)
        for name, row in sorted(summary_table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:36s} {row['self_s'] / len(traced):9.4f} s"
                  f" in {row['calls'] / len(traced):8.1f} calls", file=log)

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}
    record = {"workload": workload.name, "signature": workload.signature(), "seed": seed,
              "seconds": seconds, "trace": trace, "environment": env,
              "reference_checked": reference is not None, "setup_s": setup_s,
              "setup_host_ms": setup_host_ms, "run_s_unscaled": run_s,
              "passes": [{k: v for k, v in p.items() if k != "ops"} for p in passes],
              "failures": failures, "result": line, "span_summary": summary_table,
              "spans": tracer.spans,
              "outputs": {op.key: canonical(op.output) for op in passes[0]["ops"]}}
    return line, record
