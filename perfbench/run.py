"""Private-query benchmark of the CI/PI schemes on the default XOR-PIR path.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ci-uniform --seed 1 --seconds 15 --trace 0

Workloads: ``ci-uniform`` and ``pi-uniform`` (closed-loop private queries
through ``QueryEngine``) and ``serve-open`` (two-server XOR retrievals,
light open-loop and saturated, against a ``ShardCluster`` in its own
process).  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the workload again with
wrappers around the calls into each layer and reports the per-layer split.
Every output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero when any check failed.  Full results (machine descriptor, set-up
runs, saturated rates, sample counts) go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # never fall back to an installed copy: the checkout is what is measured
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # imported here so ``--help`` works without the program on the path
    from privbench import queries, serve
    from privbench.machine import describe
    from privbench.results import NOTE_NAMES

    started = time.perf_counter()
    if args.workload == "serve-open":
        result = serve.run(args.seed, args.seconds, bool(args.trace))
        note_names = NOTE_NAMES["serving"]
    else:
        result = queries.run(args.workload, args.seed, args.seconds, bool(args.trace))
        note_names = NOTE_NAMES["query"]
    tally = result.tally
    machine = describe(ROOT, args.workload, args.seed)

    if args.trace:
        figures = {
            m["name"]: result.per_layer.get(m["name"], (0.0, m["unit"], None))
            for m in SPEC["per_layer"]
        }
    else:
        figures = {m["name"]: result.end_to_end[m["name"]] for m in SPEC["end_to_end"]}

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{time.perf_counter() - started:.1f} s")
    print("# machine " + " ".join(f"{key}={value}" for key, value in machine.items()))
    for name, (value, unit, count) in figures.items():
        samples = f" (n={count})" if count is not None else ""
        label = f"{note_names[name]} [{name}]" if name in note_names else name
        print(f"{label} = {_fmt(value)} {unit}{samples}")
    for line in result.notes:
        print(line)
    print(f"failed_frac = {_fmt(tally.failed_frac)} fraction "
          f"({tally.failed} of {tally.attempted}; {tally.failures or 'no failures'})")

    tracer = result.details.pop("tracer", None)
    out_dir = HERE / "results"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "machine": machine,
        "seconds": args.seconds,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": count}
            for name, (value, unit, count) in figures.items()
        },
        "details": result.details,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in figures.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
