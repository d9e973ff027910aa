"""Run one benchmark workload and print its figures.

    python3 perfbench/run.py --workload compile-vgg16 --seed 1 \\
        --seconds 12 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  Inputs are made from ``--seed``.  With ``--trace 0`` the last line
of standard output is a JSON object holding every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric, and
the spans recorded around each call into the program are written to
``.bench_work/traces/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program at src/repro; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import harness
    import wl_batch
    import wl_compile
    import wl_online

    workloads = {
        "compile-vgg16": wl_compile,
        "batch-jscl": wl_batch,
        "online-jscm": wl_online,
    }
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {sorted(workloads)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench_dir = os.path.join(ROOT, ".bench_work")
    work = os.path.join(
        bench_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = harness.Tracer(args.trace)
    ledger = harness.Ledger()
    try:
        end_to_end, per_layer, notes = workloads[args.workload].run(
            args.seed, args.seconds, tracer, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    figures = per_layer if args.trace else end_to_end
    if set(figures) != {m["name"] for m in declared}:
        raise SystemExit(
            f"perfbench: {args.workload} measured {sorted(figures)}, "
            f"BENCHMARK.json declares {sorted(m['name'] for m in declared)}")
    if args.trace:
        traces = os.path.join(bench_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        notes.append(f"spans: {len(tracer.spans)} written to "
                     f"{os.path.relpath(path, ROOT)}")
        for name, seconds in sorted(tracer.self_times().items()):
            notes.append(f"self time {name}: {seconds:.4f} s")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"host {json.dumps(harness.host_fingerprint())}")
    for note in notes:
        print(f"  {note}")
    for metric in declared:
        print(f"  {metric['name']:<36} {figures[metric['name']]:>16.6g} "
              f"{metric['unit']}")
    print(f"  attempted {ledger.attempted}, failed {ledger.failed}")
    for line in ledger.errors + ledger.problems:
        print(f"  ! {line}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
