"""Print each open-loop plan query of a benchmark workload split into its four
stages: sample (``hallucinate``), score (``pairwise_logits``), weight
(``scheme_weights``) and search (``shortest_path``). Then print each stage's
median and 90th percentile, and list the queries above 20 ms.

    PYTHONPATH=src python3 tests/plan_latency.py zeroshot-state 1 [--scheme inverse]

The data, training and queries are those of ``perfbench/run.py`` at the same
workload and seed. Each query runs ``plan_end_to_end`` itself, with the four
stage functions wrapped by timers at every lookup site through perfbench's
``patch``, as its tracer wraps them; the total is ``plan_end_to_end``'s wall
time. ``--scheme`` replaces the planning config's weight scheme. Pytest does
not collect this file.
"""

import os

# One BLAS thread, as perfbench/run.py sets before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import sys
import time
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402
from htmem import plangraph  # noqa: E402
from tracing import patch  # noqa: E402

# stage -> (module, attribute) that plan_end_to_end reaches it through
STAGES = {
    "sample": ("htmem.cvae", "hallucinate"),
    "score": ("htmem.connectivity", "ConnectivityModel.pairwise_logits"),
    "weight": ("htmem.plangraph", "scheme_weights"),
    "search": ("htmem.plangraph", "shortest_path"),
}
SLOW_MS = 20.0


def timer(stage, spent):
    """A wrapper factory for ``patch`` that adds each call's milliseconds to
    ``spent[stage]``."""

    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += 1000.0 * (time.perf_counter() - t0)

        return timed

    return make


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("--scheme", choices=plangraph.WEIGHT_SCHEMES, help="weight scheme; the config's by default")
    args = p.parse_args(argv)

    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed)
    run.setup()
    run.train()
    scheme = args.scheme or run.cfg.planning.scheme
    cfg = replace(run.cfg.planning, scheme=scheme)
    print(f"{args.workload} seed {args.seed}, scheme {scheme}: {len(run.queries)} queries")
    print("query " + " ".join(f"{s:>8}" for s in STAGES) + "    total  nodes")
    spent = dict.fromkeys(STAGES, 0.0)
    rows = []
    with contextlib.ExitStack() as stack:
        for stage, (module, attr) in STAGES.items():
            stack.enter_context(patch(module, attr, timer(stage, spent)))
        for i, task in enumerate(run.queries):
            ctx = task.context
            enc = run.world.encode_context(ctx)
            o_start, o_goal = run.world.observe(ctx, task.start), run.world.observe(ctx, task.goal)
            spent.update(dict.fromkeys(STAGES, 0.0))
            t0 = time.perf_counter()
            plan, _ = plangraph.plan_end_to_end(
                enc, o_start, o_goal, run.art.cvae, run.art.cpc, cfg, run.seeds["queries"] + i
            )
            total = 1000.0 * (time.perf_counter() - t0)
            rows.append([spent[s] for s in STAGES] + [total])
            print(f"{i:5d} " + " ".join(f"{x:8.2f}" for x in rows[-1]) + f" {len(plan):6d}", flush=True)
    table = np.array(rows)
    for name, q in (("median", 50), ("p90", 90)):
        print(f"{name:>6}" + "".join(f" {x:8.2f}" for x in np.percentile(table, q, axis=0)))
    slow = ", ".join(f"{i} ({table[i, -1]:.1f} ms)" for i in np.flatnonzero(table[:, -1] > SLOW_MS))
    print(f"queries above {SLOW_MS:g} ms: {slow or 'none'}")


if __name__ == "__main__":
    main()
