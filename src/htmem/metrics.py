"""Oracle-based plan quality metrics and the benchmark that executes every
task under every method; the zero-shot comparison and the score-model x
weight-scheme ablation are both runs of it, with different methods.

The paper-style qualitative judgments (does a plan look real, executable,
complete) are replaced by simulator-oracle quantities with the same intent:
sample validity for fidelity, and swept-disc reachability of consecutive
plan nodes: feasibility is the share of hops the oracle accepts, and a plan
is complete when it accepts them all. The hop verdicts come from one
``BlockWorld.oracle_reachable`` call per plan, and these functions read
them. Absolute values are artifact-scale; orderings are what the acceptance
suite pins down.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import derived_seed
from .controller import ExecutionConfig, execute
from .world import BlockWorld


def wilson_interval(successes: int, total: int, z=1.96):
    """95% score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    p = successes / total
    denom = 1 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def fidelity(world: BlockWorld, ctx, samples) -> float | None:
    """Fraction of the (m, obs_dim) samples decoding to valid agent states;
    an empty raster decodes to NaN, which is invalid. None for an empty set,
    which has nothing to rate."""
    if len(samples) == 0:
        return None
    xy = world.decode_xy(samples)
    return int(world.positions_valid(ctx, xy[:, 0], xy[:, 1]).sum()) / len(xy)


def feasibility(hops) -> float:
    """Fraction of plan hops the oracle accepts; a plan without hops is feasible."""
    return sum(hops) / len(hops) if hops else 1.0


def completeness(hops) -> bool:
    """Whether the oracle accepts every hop, so the plan gets from its start
    to its last node, the goal."""
    return all(hops)


def mi_lower_bound(cpc_validation_loss: float, n_candidates: int) -> float:
    """ln(N) minus the contrastive loss; negative values early in training
    are reported as-is."""
    if n_candidates < 2:
        raise ValueError("bound needs at least 2 candidates")
    if cpc_validation_loss < 0:
        raise ValueError("loss must be nonnegative")
    return math.log(n_candidates) - cpc_validation_loss


# ---------------------------------------------------------------------------
# benchmark


@dataclass
class TaskRow:
    task_id: int
    method: str
    scheme: str
    success: bool
    steps: int
    final_distance: float
    feasibility: float | None
    completeness: bool | None
    fidelity: float | None
    seed: int


@dataclass
class MetricsReport:
    rows: list
    metadata: dict = field(default_factory=dict)

    def methods(self):
        seen = []
        for r in self.rows:
            if r.method not in seen:
                seen.append(r.method)
        return seen

    def rows_for(self, method: str):
        return [r for r in self.rows if r.method == method]

    def aggregates(self) -> dict:
        out = {}
        for method in self.methods():
            rows = self.rows_for(method)
            n = len(rows)
            successes = sum(r.success for r in rows)
            distances = [r.final_distance for r in rows]
            feas = [r.feasibility for r in rows if r.feasibility is not None]
            comp = [r.completeness for r in rows if r.completeness is not None]
            fid = [r.fidelity for r in rows if r.fidelity is not None]
            out[method] = {
                "tasks": n,
                "success_rate": successes / n,
                "success_interval": wilson_interval(successes, n),
                "mean_final_distance": float(np.mean(distances)),
                "std_final_distance": float(np.std(distances)),
            }
            # a planner run without a first plan has no plan metrics, and a
            # method with none of them has no plan keys
            if rows[0].scheme:
                out[method]["no_plan_rate"] = (n - len(feas)) / n
            if feas:
                out[method]["mean_feasibility"] = float(np.mean(feas))
                out[method]["completeness_rate"] = float(np.mean(comp))
            if fid:
                out[method]["mean_fidelity"] = float(np.mean(fid))
        return out

    def to_json(self, path) -> None:
        payload = {
            "metadata": self.metadata,
            "aggregates": self.aggregates(),
            "rows": [asdict(r) for r in self.rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def make_benchmark_tasks(world: BlockWorld, contexts, n_tasks: int, seed: int, difficulty="cross-wall", success_threshold=0.5):
    """Round-robin task generation over the given (held-out) contexts."""
    tasks = []
    for i in range(n_tasks):
        ctx = contexts[i % len(contexts)]
        tasks.append(
            world.make_task(
                ctx,
                seed=derived_seed(seed, "task", i),
                difficulty=difficulty,
                success_threshold=success_threshold,
            )
        )
    return tasks


def run_benchmark(
    world: BlockWorld,
    tasks,
    methods: dict,
    exec_cfg: ExecutionConfig,
    oracle_horizon: int,
    seed: int,
    metadata: dict | None = None,
) -> MetricsReport:
    """Execute every task under every method.

    ``methods`` maps method name to ``Method``; the name seeds each run, and
    a row records its method's weight scheme, or ``""`` for a method without
    a planner. Plan metrics are computed on the first plan of each run,
    which need not come from its first planning attempt: one
    ``world.oracle_reachable`` call judges its hops, and fidelity rates the
    candidates it searched (None when there are none). Every plan of a
    result then drops its candidates, so that kept results do not hold
    them.
    """
    rows = []
    for name, method in methods.items():
        scheme = method.planning.scheme if method.planning else ""
        for task_id, task in enumerate(tasks):
            task_seed = derived_seed(seed, name, task_id)
            result = execute(world, task, method, exec_cfg, task_seed)
            feas = comp = fid = None
            if result.plans:
                first = result.plans[0]
                hops = world.oracle_reachable(task.context, first.observations, oracle_horizon)
                feas, comp = feasibility(hops), completeness(hops)
                fid = fidelity(world, task.context, first.candidates)
            for plan in result.plans:
                plan.candidates = None
            rows.append(
                TaskRow(
                    task_id,
                    name,
                    scheme,
                    result.success,
                    result.steps,
                    result.final_distance,
                    feas,
                    comp,
                    fid,
                    task_seed,
                )
            )
    return MetricsReport(rows, metadata or {})
