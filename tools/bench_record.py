"""Record one point of the benchmark trajectory as BENCH_<label>.json, or
compare two such records.

    python3 tools/bench_record.py --label NAME [--repeats 3] [--root DIR]
    python3 tools/bench_record.py --compare OLD.json NEW.json [--root DIR]

Runs ``perfbench/run.py`` of the checkout at ``--root`` (default: this
repository) for every workload in its BENCHMARK.json, at seeds 2024 and
4242: ``--repeats`` untraced runs each, interleaved over workloads and
seeds, then one traced run each, all for the ``run_seconds`` of that
BENCHMARK.json.  The result goes to BENCH_<label>.json at the root of this
repository:

- the measured checkout's git sha and source digest, Python and numpy
  versions, cpu count;
- per workload and seed: whether every run was correct, the failed count,
  the median, minimum and maximum of each end-to-end metric over the
  untraced runs, and the per-layer metrics of the traced run.

``--compare`` prints, per workload, seed and end-to-end metric of the
BENCHMARK.json at ``--root``, the old and new medians, their ratio and
whether the new one is worse than the old by more than the metric's bound
(relative).  It exits 1 if any is, or if a workload, seed or metric of the
old record is missing from the new one, or if a new run was not correct.

Uses the standard library only; the harness stays the one source of numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (2024, 4242)


def run_harness(root: Path, workload: str, seed: int, seconds: float,
                trace: bool) -> tuple[dict, dict]:
    """(environment, result line) of one ``perfbench/run.py`` run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def spread(metrics: list[dict]) -> dict:
    """Median, minimum and maximum of one {"unit", "value"} metric over runs."""
    values = [m["value"] for m in metrics]
    return {"unit": metrics[0]["unit"], "median": statistics.median(values),
            "min": min(values), "max": max(values), "runs": values}


def record(root: Path, repeats: int) -> dict:
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    cells = [(w, seed) for w in workloads for seed in SEEDS]
    untraced = {cell: [] for cell in cells}
    for rep in range(repeats):
        for workload, seed in cells:
            print(f"[{rep + 1}/{repeats}] {workload} seed {seed}", file=sys.stderr, flush=True)
            env, line = run_harness(root, workload, seed, seconds, trace=False)
            untraced[(workload, seed)].append(line)
    out = {key: env[key] for key in ("git_sha", "src_sha256", "python", "numpy", "cpu_count")}
    out.update(repeats=repeats, seconds=seconds, workloads={})
    for workload, seed in cells:
        print(f"[traced] {workload} seed {seed}", file=sys.stderr, flush=True)
        _, traced = run_harness(root, workload, seed, seconds, trace=True)
        lines = untraced[(workload, seed)]
        out["workloads"].setdefault(workload, {})[str(seed)] = {
            "correct": all(line["correct"] for line in lines + [traced]),
            "failed": sum(line["failed"] for line in lines + [traced]),
            "end_to_end": {name: spread([line["metrics"][name] for line in lines])
                           for name in lines[0]["metrics"]},
            "per_layer": traced["metrics"],
        }
    return out


def compare(old: dict, new: dict, benchmark: dict) -> tuple[list[str], bool]:
    """Report lines on the end-to-end medians of two records, and whether any
    new median is worse than its bound, missing, or from runs that failed."""
    lines = [f"{'workload':<12} {'seed':>5} {'metric':<12} {'old':>10} {'new':>10} "
             f"{'new/old':>8} {'limit':>6}  verdict"]
    bad = False
    for workload, seeds in sorted(old["workloads"].items()):
        for seed, before in sorted(seeds.items()):
            after = new["workloads"].get(workload, {}).get(seed)
            if after is None:
                lines.append(f"{workload:<12} {seed:>5} missing from the new record  WORSE")
                bad = True
                continue
            if not after["correct"] or after["failed"]:
                lines.append(f"{workload:<12} {seed:>5} new runs not correct "
                             f"({after['failed']} failed)  WORSE")
                bad = True
            for metric in benchmark["end_to_end"]:
                name = metric["name"]
                if name not in before["end_to_end"] or name not in after["end_to_end"]:
                    lines.append(f"{workload:<12} {seed:>5} {name:<12} missing  WORSE")
                    bad = True
                    continue
                a = before["end_to_end"][name]["median"]
                b = after["end_to_end"][name]["median"]
                ratio = b / a if a else (1.0 if b == a else math.inf)
                lower = metric["better"] == "lower"
                limit = 1 + metric["bound"] if lower else 1 - metric["bound"]
                worse = ratio > limit if lower else ratio < limit
                bad |= worse
                lines.append(f"{workload:<12} {seed:>5} {name:<12} {a:>10.4g} {b:>10.4g} "
                             f"{ratio:>8.3f} {'<=' if lower else '>='}{limit:<4g}  "
                             f"{'WORSE' if worse else 'ok'}")
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--label")
    action.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--root", type=Path, default=REPO,
                        help="source checkout to measure, or whose BENCHMARK.json bounds "
                             "a comparison (default: this repository)")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        lines, bad = compare(old, new, json.loads((args.root / "BENCHMARK.json").read_text()))
        print("\n".join(lines))
        return 1 if bad else 0
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    result = {"label": args.label, **record(args.root.resolve(), args.repeats)}
    path = REPO / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
