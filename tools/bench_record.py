"""Record one point of the benchmark trajectory as BENCH_<label>.json, or
compare two such records.

    python3 tools/bench_record.py --label NAME [--repeats 3] [--root DIR] [--base REV]
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
  the median, quartiles, minimum and maximum of each end-to-end metric over
  the untraced runs, and the per-layer metrics of the traced run.

``--base REV`` measures commit REV of this repository in the same session.
REV's files are extracted with ``git archive`` into a fresh directory in
the temporary directory (``TMPDIR``), which is removed afterwards; unlike
a worktree, this leaves the repository's ``.git`` untouched even when the
run is interrupted.  Every untraced run of the
checkout is paired with one of REV, the two run back to back, the first
alternating from pair to pair, and REV gets its own traced runs.  The
record then holds REV's summary under ``base`` and, per workload, seed and
end-to-end metric, under ``pairs``: the per-pair ratios (checkout over
REV), their median and how many pairs the checkout won.

``--compare`` prints, per workload, seed and end-to-end metric of the
BENCHMARK.json at ``--root``, the old and new medians, their ratio and
whether the new one is worse than the old by more than the metric's bound
(relative).  Where the new record holds pairs, the old median is its own
base's and the ratio the median per-pair ratio, so that host drift between
the sessions of the two records does not read as a change.  Each paired
metric is also marked ``gain`` when the change won at least nine tenths of
the pairs and its median is better than its base's by more than the base's
interquartile range, ``no gain`` otherwise, and ``gain n/a`` when the base
carries no quartiles (records written before they were kept).  It exits 1 if
any ratio is past its bound, or if a workload, seed or metric of the old
record is missing from the new one, or if a new run was not correct.

Uses the standard library only; the harness stays the one source of numbers.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
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
    """Median, quartiles, minimum and maximum of one {"unit", "value"} metric
    over runs; a single run is its own quartiles."""
    values = [m["value"] for m in metrics]
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"unit": metrics[0]["unit"], "median": statistics.median(values), "q1": q1,
            "q3": q3, "min": min(values), "max": max(values), "runs": values}


def ratio(old: float, new: float) -> float:
    """new over old; equal zeros are unchanged and a rise from zero is infinite."""
    return new / old if old else (1.0 if new == old else math.inf)


def summarize(lines: list[dict], traced: dict) -> dict:
    """One workload and seed of a record: untraced end-to-end spreads and
    the traced run's per-layer metrics."""
    return {"correct": all(line["correct"] for line in lines + [traced]),
            "failed": sum(line["failed"] for line in lines + [traced]),
            "end_to_end": {name: spread([line["metrics"][name] for line in lines])
                           for name in lines[0]["metrics"]},
            "per_layer": traced["metrics"]}


def pair_ratios(head: list[dict], base: list[dict], benchmark: dict) -> dict:
    """Per end-to-end metric: each pair's head-over-base ratio, their median
    and the number of pairs whose head run was better."""
    out = {}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        ratios = [ratio(b["metrics"][name]["value"], h["metrics"][name]["value"])
                  for h, b in zip(head, base)]
        wins = sum(r < 1 if metric["better"] == "lower" else r > 1 for r in ratios)
        out[name] = {"ratios": ratios, "median": statistics.median(ratios), "wins": wins}
    return out


def gain(pair: dict, base: dict, median: float, lower: bool) -> str:
    """The gain rule on one paired metric: the change won at least nine tenths
    of the pairs, and its median beats the base's by more than the base's
    interquartile range."""
    if "q1" not in base:
        return "gain n/a"
    won = 10 * pair["wins"] >= 9 * len(pair["ratios"])
    margin = base["median"] - median if lower else median - base["median"]
    return "gain" if won and margin > base["q3"] - base["q1"] else "no gain"


def record(root: Path, repeats: int, base: Path | None = None) -> dict:
    """The record of the checkout at root; with base, also of the checkout
    at base, every untraced run paired with one of root's."""
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    cells = [(w, seed) for w in workloads for seed in SEEDS]
    sides = [root] if base is None else [root, base]
    untraced = {(side, cell): [] for side in sides for cell in cells}
    envs = {}
    for rep in range(repeats):
        for i, (workload, seed) in enumerate(cells):
            for side in sides if (rep + i) % 2 == 0 else sides[::-1]:
                name = "head" if side == root else "base"
                print(f"[{rep + 1}/{repeats}] {workload} seed {seed}"
                      f"{'' if base is None else f' {name}'}", file=sys.stderr, flush=True)
                envs[side], line = run_harness(side, workload, seed, seconds, trace=False)
                untraced[(side, (workload, seed))].append(line)
    summaries = {side: {} for side in sides}
    for side in sides:
        for workload, seed in cells:
            print(f"[traced] {workload} seed {seed}", file=sys.stderr, flush=True)
            _, traced = run_harness(side, workload, seed, seconds, trace=True)
            summaries[side].setdefault(workload, {})[str(seed)] = summarize(
                untraced[(side, (workload, seed))], traced)
    out = {key: envs[root][key] for key in ("git_sha", "src_sha256", "python", "numpy",
                                            "cpu_count")}
    out.update(repeats=repeats, seconds=seconds, workloads=summaries[root])
    if base is not None:
        out["base"] = {"src_sha256": envs[base]["src_sha256"], "workloads": summaries[base]}
        out["pairs"] = {}
        for workload, seed in cells:
            out["pairs"].setdefault(workload, {})[str(seed)] = pair_ratios(
                untraced[(root, (workload, seed))], untraced[(base, (workload, seed))],
                benchmark)
    return out


def extract(rev: str, scratch: Path | None = None) -> tuple[str, Path]:
    """(full sha, fresh directory in scratch, by default the temporary
    directory, holding commit rev's files)."""
    done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: no commit {rev!r}: {done.stderr.strip()}")
    sha = done.stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha],
                             capture_output=True, check=True).stdout
    target = Path(tempfile.mkdtemp(prefix=f"bench-base-{sha[:12]}-", dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return sha, target


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
            pairs = new.get("pairs", {}).get(workload, {}).get(seed, {})
            for metric in benchmark["end_to_end"]:
                name = metric["name"]
                if name not in before["end_to_end"] or name not in after["end_to_end"]:
                    lines.append(f"{workload:<12} {seed:>5} {name:<12} missing  WORSE")
                    bad = True
                    continue
                b = after["end_to_end"][name]["median"]
                lower = metric["better"] == "lower"
                if name in pairs:
                    base = new["base"]["workloads"][workload][seed]["end_to_end"][name]
                    a = base["median"]
                    r = pairs[name]["median"]
                    note = (f"  (paired, {pairs[name]['wins']}/{len(pairs[name]['ratios'])} won)"
                            f"  {gain(pairs[name], base, b, lower)}")
                else:
                    a = before["end_to_end"][name]["median"]
                    r = ratio(a, b)
                    note = ""
                limit = 1 + metric["bound"] if lower else 1 - metric["bound"]
                worse = r > limit if lower else r < limit
                bad |= worse
                lines.append(f"{workload:<12} {seed:>5} {name:<12} {a:>10.4g} {b:>10.4g} "
                             f"{r:>8.3f} {'<=' if lower else '>='}{limit:<4g}  "
                             f"{'WORSE' if worse else 'ok'}{note}")
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
    parser.add_argument("--base", metavar="REV",
                        help="also measure commit REV of this repository, in pairs")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        lines, bad = compare(old, new, json.loads((args.root / "BENCHMARK.json").read_text()))
        print("\n".join(lines))
        return 1 if bad else 0
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.base is None:
        result = {"label": args.label, **record(args.root.resolve(), args.repeats)}
    else:
        sha, base = extract(args.base)
        try:
            result = {"label": args.label, **record(args.root.resolve(), args.repeats, base)}
        finally:
            shutil.rmtree(base)
        result["base"].update(rev=args.base, git_sha=sha)
    path = REPO / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
