"""Oracle-based plan quality metrics, the zero-shot benchmark, and the
score-model x weight-scheme ablation grid.

The paper-style qualitative judgments (does a plan look real, executable,
complete) are replaced by simulator-oracle quantities with the same intent:
sample validity for fidelity, swept-disc reachability of consecutive plan
nodes for feasibility, and reachability of the goal from the final node for
completeness. Absolute values are artifact-scale; orderings are what the
acceptance suite pins down.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import derived_seed
from .controller import ExecutionConfig, ModelBundle, execute, plan_seed
from .cvae import HallucinationSet, hallucinate
from .plangraph import Plan, PlanningConfig
from .world import BlockWorld, EvaluationError, Task

CSV_COLUMNS = [
    "task_id",
    "method",
    "scheme",
    "success",
    "steps",
    "final_distance",
    "feasibility",
    "completeness",
    "fidelity",
    "seed",
]


def wilson_interval(successes: int, total: int, z=1.96):
    """95% score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    p = successes / total
    denom = 1 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def fidelity(world: BlockWorld, ctx, samples: HallucinationSet | np.ndarray) -> float:
    """Fraction of samples decoding to valid agent states; empty sets are
    vacuously perfect."""
    obs = samples.observations if isinstance(samples, HallucinationSet) else np.asarray(samples)
    if len(obs) == 0:
        return 1.0
    decoded = []
    for o in obs:
        try:
            st = world.decode(o)
        except EvaluationError:
            continue
        decoded.append((st.x, st.y))
    xy = np.array(decoded, dtype=float).reshape(-1, 2)
    return int(world.positions_valid(ctx, xy[:, 0], xy[:, 1]).sum()) / len(obs)


def feasibility(world: BlockWorld, ctx, plan: Plan, horizon: int) -> float:
    """Fraction of consecutive plan pairs the reachability oracle accepts."""
    if len(plan) < 2:
        return 1.0
    ok = sum(
        world.oracle_reachable(ctx, plan.observations[t], plan.observations[t + 1], horizon)
        for t in range(len(plan) - 1)
    )
    return ok / (len(plan) - 1)


def completeness(world: BlockWorld, ctx, plan: Plan, task: Task, horizon: int) -> bool:
    """Whether the goal is oracle-reachable from the final plan node."""
    goal_obs = world.observe(ctx, task.goal)
    return world.oracle_reachable(ctx, plan.observations[-1], goal_obs, horizon)


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

    def as_record(self) -> dict:
        return {
            "task_id": self.task_id,
            "method": self.method,
            "scheme": self.scheme,
            "success": bool(self.success),
            "steps": self.steps,
            "final_distance": self.final_distance,
            "feasibility": self.feasibility,
            "completeness": None if self.completeness is None else bool(self.completeness),
            "fidelity": self.fidelity,
            "seed": self.seed,
        }


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

    def success_rate(self, method: str) -> float:
        rows = self.rows_for(method)
        return sum(r.success for r in rows) / len(rows)

    def mean_final_distance(self, method: str):
        d = [r.final_distance for r in self.rows_for(method)]
        return float(np.mean(d)), float(np.std(d))

    def mean_feasibility(self, method: str) -> float:
        vals = [r.feasibility for r in self.rows_for(method) if r.feasibility is not None]
        return float(np.mean(vals)) if vals else float("nan")

    def completeness_rate(self, method: str) -> float:
        vals = [r.completeness for r in self.rows_for(method) if r.completeness is not None]
        return float(np.mean(vals)) if vals else float("nan")

    def aggregates(self) -> dict:
        out = {}
        for method in self.methods():
            mean_d, std_d = self.mean_final_distance(method)
            rows = self.rows_for(method)
            out[method] = {
                "tasks": len(rows),
                "success_rate": self.success_rate(method),
                "mean_final_distance": mean_d,
                "std_final_distance": std_d,
                "mean_feasibility": self.mean_feasibility(method),
                "completeness_rate": self.completeness_rate(method),
            }
            fid_rows = [r.fidelity for r in rows if r.fidelity is not None]
            if fid_rows:
                out[method]["mean_fidelity"] = float(np.mean(fid_rows))
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for r in self.rows:
                rec = r.as_record()
                rec = {k: ("" if rec[k] is None else rec[k]) for k in CSV_COLUMNS}
                writer.writerow(rec)

    def to_json(self, path) -> None:
        payload = {
            "metadata": self.metadata,
            "aggregates": self.aggregates(),
            "rows": [r.as_record() for r in self.rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
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
    bundles: dict,
    plan_cfg: PlanningConfig,
    exec_cfg: ExecutionConfig,
    oracle_horizon: int,
    seed: int,
    metadata: dict | None = None,
) -> MetricsReport:
    """Execute every task under every method.

    ``bundles`` maps method name to (ModelBundle, scheme or None); a None
    scheme means the inverse-model-only baseline (no planner). Plan metrics
    are computed on the first plan of each run; fidelity re-samples the
    run's first hallucination set from its recorded seed.
    """
    rows = []
    for method, (bundle, scheme) in bundles.items():
        use_planner = scheme is not None
        cfg = (
            PlanningConfig(plan_cfg.m_samples, scheme, plan_cfg.s_shortcut)
            if use_planner
            else plan_cfg
        )
        for task_id, task in enumerate(tasks):
            task_seed = derived_seed(seed, method, task_id)
            result = execute(
                world, task, bundle, cfg, exec_cfg, task_seed, use_planner=use_planner
            )
            feas = comp = fid = None
            if use_planner and result.plans:
                first = result.plans[0]
                feas = feasibility(world, task.context, first, oracle_horizon)
                comp = completeness(world, task.context, first, task, oracle_horizon)
                hs = hallucinate(
                    bundle.cvae,
                    world.encode_context(task.context),
                    cfg.m_samples,
                    plan_seed(task_seed, 0),
                    context_id=task.context.id,
                )
                fid = fidelity(world, task.context, hs)
            rows.append(
                TaskRow(
                    task_id,
                    method,
                    scheme or "",
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


# ---------------------------------------------------------------------------
# ablation


@dataclass
class AblationGrid:
    score_models: list  # row labels
    schemes: list  # column labels
    mean_final_distance: np.ndarray  # (rows, cols)
    task_ids: list
    metadata: dict = field(default_factory=dict)

    def cell(self, score_model: str, scheme: str) -> float:
        return float(
            self.mean_final_distance[
                self.score_models.index(score_model), self.schemes.index(scheme)
            ]
        )

    def best_cell(self):
        i, j = np.unravel_index(
            np.argmin(self.mean_final_distance), self.mean_final_distance.shape
        )
        return self.score_models[i], self.schemes[j]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["score_model"] + list(self.schemes))
            for i, sm in enumerate(self.score_models):
                writer.writerow([sm] + [f"{v:.6f}" for v in self.mean_final_distance[i]])

    def to_text(self) -> str:
        width = max(len(s) for s in self.schemes + self.score_models) + 2
        lines = ["".ljust(width) + "".join(s.ljust(width) for s in self.schemes)]
        for i, sm in enumerate(self.score_models):
            cells = "".join(f"{v:<{width}.4f}" for v in self.mean_final_distance[i])
            lines.append(sm.ljust(width) + cells)
        return "\n".join(lines)


ABLATION_SCHEMES = ("sptm_threshold", "inverse", "normalized")


def run_ablation(
    world: BlockWorld,
    tasks,
    cvae,
    scorers: dict,
    inverse,
    plan_cfg: PlanningConfig,
    exec_cfg: ExecutionConfig,
    seed: int,
    schemes=ABLATION_SCHEMES,
    metadata: dict | None = None,
) -> AblationGrid:
    """Mean final execution distance for every score model under every
    weight scheme, on one shared task list with shared seeds."""
    names = list(scorers)
    grid = np.zeros((len(names), len(schemes)))
    for i, name in enumerate(names):
        bundle = ModelBundle(cvae, scorers[name], inverse)
        for j, scheme in enumerate(schemes):
            cfg = PlanningConfig(plan_cfg.m_samples, scheme, plan_cfg.s_shortcut)
            dists = []
            for task_id, task in enumerate(tasks):
                task_seed = derived_seed(seed, "ablate", task_id)
                result = execute(world, task, bundle, cfg, exec_cfg, task_seed)
                dists.append(result.final_distance)
            grid[i, j] = float(np.mean(dists))
    return AblationGrid(names, list(schemes), grid, list(range(len(tasks))), metadata or {})
