"""Benchmark of the spadevents batch pipeline.

    python3 perfbench/run.py --workload {c8_cells,convert_io,raw_sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
line before it records the environment.  The full record of the run, with
every pass, failure and span, is written to ``.perfbench-results/``.

    python3 perfbench/run.py --record-references

re-records the expected outputs in ``perfbench/references.json`` for the
seeds in REFERENCE_SEEDS.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
RESULTS = ROOT / ".perfbench-results"
# 2024 is the acceptance suite's dataset seed; 4242 is held out from tuning.
REFERENCE_SEEDS = (2024, 4242)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    return parser.parse_args(argv)


def record_references(harness, workloads) -> int:
    references = {}
    for name, factory in workloads.WORKLOADS.items():
        workload = factory()
        seeds = {}
        for seed in REFERENCE_SEEDS:
            line, record = harness.run(workload, seed, 0.0, False, ROOT, {})
            if not line["correct"]:
                print(f"error: {name} seed {seed} failed its own checks", file=sys.stderr)
                return 1
            seeds[str(seed)] = record["outputs"]
        references[name] = {"signature": workload.signature(), "seeds": seeds}
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spadevents" / "__init__.py").is_file():
        print(f"error: no spadevents sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench_harness as harness
    import bench_workloads as workloads

    if args.record_references:
        return record_references(harness, workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    line, record = harness.run(workloads.WORKLOADS[args.workload](), args.seed,
                               args.seconds, bool(args.trace), ROOT,
                               harness.load_references(REFERENCES))
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (RESULTS / name).write_text(json.dumps(record) + "\n")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
