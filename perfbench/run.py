"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload zeroshot-state --seed 1 --seconds 40 --trace 0

Run from the repository root: the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run also
prints its end-to-end metrics on the line before, and both modes write the
full record (failures included, spans when traced) under ``.perfbench_out/``.
"""

import os

# One BLAS thread: the host has two cores, and a second thread adds noise
# without speeding up the small matrices here. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "htmem", "__init__.py")):
        print(f"error: no htmem sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # Program imports count toward setup_s; the checker's (scipy) do not.
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import htmem.pipeline  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "end_to_end": run.metrics,
        "per_layer": run.per_layer() if args.trace else None,
        "plan_latencies_ms": [1000.0 * x for x in run.plan_latencies],
        "episode_round_rates": run.episode_rates,
        "failures": run.failures + [("structure", s) for s in run.structural],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        run.tracer.save(stem + "-spans.npz")
        print(json.dumps({"traced_end_to_end": workloads.result_line(run, False)["metrics"]}))
    for what, msg in record["failures"][:20]:
        print(f"FAILED {what}: {msg}", file=sys.stderr)
    print(json.dumps(workloads.result_line(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
