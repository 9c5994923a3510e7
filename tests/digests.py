"""Print the fixed-seed digests: the first 12 hex digits of the sha256 of the
state and raster ``report.json`` and checkpoints of ``test_pipeline.TINY``,
of every ``ExecutionResult`` of those two zero-shot benchmarks, of
``weight_scheme_ablation(train_all(TINY state)).to_json``, and of every
``ExecutionResult`` of the zero-shot benchmark of ``test_pipeline.PRESSING``,
whose agents press into walls.

    PYTHONPATH=src python3 tests/digests.py

A change that claims bit-identical outputs prints the same fourteen lines
before and after it. Pytest does not collect this file.
"""

import contextlib
import hashlib
import pathlib
import struct
import tempfile

import numpy as np

from htmem import metrics
from htmem.config import config_from_dict
from htmem.pipeline import train_all, weight_scheme_ablation, zero_shot_benchmark
from test_pipeline import PRESSING, TINY, run_digests


def execution_digest(results) -> str:
    """sha256 of each result's counters, trace and plans (node indices and
    observations), in order."""
    h = hashlib.sha256()

    def array(a):
        a = np.asarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())

    for res in results:
        h.update(
            struct.pack(
                "<?qdq?qq",
                res.success,
                res.steps,
                res.final_distance,
                res.replan_count,
                res.planless,
                res.seed,
                len(res.plans),
            )
        )
        array(res.state_trace)
        for plan in res.plans:
            array(np.asarray(plan.node_indices, dtype=np.int64))
            array(plan.observations)
    return h.hexdigest()


@contextlib.contextmanager
def recorded_executions():
    """Yields the list that every ``ExecutionResult`` of the block joins."""
    results = []
    execute = metrics.execute

    def recorded_execute(*args, **kwargs):
        results.append(execute(*args, **kwargs))
        return results[-1]

    metrics.execute = recorded_execute
    try:
        yield results
    finally:
        metrics.execute = execute


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for mode in ("state", "raster"):
            (tmp / mode).mkdir()
            with recorded_executions() as results:
                digests = run_digests(tmp / mode, mode)
            for name, digest in digests.items():
                print(f"{mode} {name} {digest[:12]}")
            print(f"{mode} executions {execution_digest(results)[:12]}")
        art = train_all(config_from_dict({**TINY, "world": {"mode": "state"}}))
        weight_scheme_ablation(art).to_json(tmp / "ablation.json")
        print(f"ablation {hashlib.sha256((tmp / 'ablation.json').read_bytes()).hexdigest()[:12]}")
    with recorded_executions() as results:
        zero_shot_benchmark(train_all(config_from_dict(PRESSING)))
    print(f"pressing executions {execution_digest(results)[:12]}")


if __name__ == "__main__":
    main()
