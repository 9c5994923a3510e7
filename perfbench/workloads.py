"""The benchmark's workloads and the phases each one runs.

Every workload runs in one process: set up (config, ``collect_dataset``,
held-out task generation), one ``pipeline.train_all``, open-loop HTM queries
through ``plan_end_to_end``, and rounds of ``pipeline.zero_shot_benchmark``.
Every output is checked by ``checks``; an operation (the setup, a training
stage, a plan query or an episode) whose checks fail counts as failed.

All inputs derive from the seed argument, and the amount of work derives
from the seconds argument alone, so counts never depend on host speed.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import checks
# Program functions are called through their modules, so that the names the
# tracer patches are the names these calls look up.
from htmem import config, connectivity, data, metrics, pipeline, plangraph
from htmem import world as sim
from tracing import Tracer, patch

# Query and round counts below are sized for runs of this many seconds;
# another --seconds scales them.
NOMINAL_SECONDS = 40
SETUP_REPEATS = 3
RANK_ANCHORS = 100  # per held-out context
RANK_TOP_FRACTION = 0.1  # chance rate of the successor-rank check
METHODS = ("htm", "sptm", "inverse_only")

# The CPC learning rate is raised from 1e-3 so that the validation loss leaves
# its early plateaus within a few hundred steps on most seeds, which narrows the
# seed-to-seed spread of mi_lower_bound. A better-trained generator narrows
# that of plan_ms: how many nodes a search settles before the goal depends on
# how the scorer rates generated nodes against the real goal.
SMALL_TRAINING = {
    "cvae": {"epochs": 25},
    "cpc": {"epochs": 12, "steps_per_epoch": 50, "val_batches": 10, "lr": 1e-2},
    "sptm": {"epochs": 4, "steps_per_epoch": 50, "val_batches": 8},
    "inverse": {"epochs": 10},
    "evaluation": {"halluc_pool": 64},
}
# More validation contexts than the 0.1 default, for the same reason. Raster
# scorers generalize worse to unseen layouts, so the raster workload spreads
# the same number of observations over more contexts.
STATE_DATA = {"n_contexts": 30, "trajectories_per_context": 10, "trajectory_length": 20, "n_holdout": 8, "val_fraction": 0.3}
RASTER_DATA = dict(STATE_DATA, n_contexts=50, trajectories_per_context=6)
# With generated negatives (phi 0.25) a raster scorer learns to tell blurry
# generated rasters from sharp real ones. From a real start the real goal then
# outranks every generated node on a seed-dependent 16-35% of queries, the
# search stops at once, and the median plan latency falls between the two
# modes. Without them the median lies in the bulk of full searches.
RASTER_TRAINING = {**SMALL_TRAINING, "cpc": dict(SMALL_TRAINING["cpc"], phi=0.0)}


@dataclass(frozen=True)
class Workload:
    mode: str
    m_samples: int
    queries: int  # open-loop plan queries in a nominal run
    rounds: int  # zero_shot_benchmark calls in a nominal run
    tasks_per_round: int
    data: dict
    execution: dict
    training: dict = field(default_factory=lambda: SMALL_TRAINING)

    def config(self, seeds: dict) -> dict:
        cfg = {section: dict(values) for section, values in self.training.items()}
        for section in ("cvae", "cpc", "sptm", "inverse", "evaluation"):
            cfg.setdefault(section, {})["seed"] = seeds[section]
        cfg["world"] = {"mode": self.mode}
        cfg["data"] = dict(self.data, seed=seeds["data"])
        cfg["planning"] = {"m_samples": self.m_samples}
        cfg["execution"] = dict(self.execution)
        cfg["evaluation"]["n_tasks"] = self.tasks_per_round
        return cfg

    def sized(self, seconds: float) -> "Workload":
        scale = seconds / NOMINAL_SECONDS
        return replace(
            self,
            queries=max(1, round(self.queries * scale)),
            rounds=max(1, round(self.rounds * scale)),
        )


WORKLOADS = {
    "zeroshot-state": Workload(
        mode="state",
        m_samples=300,
        queries=100,
        rounds=6,
        tasks_per_round=10,
        data=STATE_DATA,
        execution={"n": 200, "r": 100},
    ),
    "zeroshot-raster": Workload(
        mode="raster",
        m_samples=300,
        queries=100,
        rounds=5,
        tasks_per_round=6,
        data=RASTER_DATA,
        training=RASTER_TRAINING,
        execution={"n": 100, "r": 100},
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "plan_ms": "ms",
    "plan_ms.p90": "ms",
    "episodes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "mi_lower_bound": "nats",
    "final_distance.htm": "arena_units",
}

# traced span -> what is reported of it (calls, self seconds)
TIMED_LAYERS = {
    "world.observe": ("calls", "s"),
    "world.step": ("calls", "s"),
    "world.oracle_reachable": ("s",),
    "world.encode_context": ("calls", "s"),
    "world.generate_context": ("s",),
    "data.collect_dataset": ("s",),
    "autodiff.backward": ("calls", "s"),
    "autodiff.adam_step": ("s",),
    "autodiff.mlp_apply": ("calls", "s"),
    "cvae.train_cvae": ("s",),
    "cvae.hallucinate": ("calls", "s"),
    "connectivity.sample_cpc_batch": ("calls", "s"),
    "connectivity.sample_sptm_batch": ("calls", "s"),
    "connectivity.cpc_loss": ("s",),
    "connectivity.sptm_bce_loss": ("s",),
    "connectivity.pairwise_logits": ("calls", "s"),
    "plangraph.scheme_weights": ("s",),
    "plangraph.shortest_path": ("calls", "s"),
    "controller.train_inverse": ("s",),
    "controller.execute": ("calls", "s"),
    "controller.infer_action": ("calls", "s"),
    "pipeline.build_hallucination_pools": ("s",),
}
# reported together as metrics.oracle.s
ORACLE_SPANS = ("metrics.feasibility", "metrics.completeness", "metrics.fidelity")

PER_LAYER_UNITS = {
    **{f"{name}.{kind}": ("count" if kind == "calls" else "s")
       for name, kinds in TIMED_LAYERS.items() for kind in kinds},
    "metrics.oracle.s": "s",
    "cvae.val_loss": "loss",
    "cvae.fidelity.htm": "fraction",
    "connectivity.successor_rank.cpc": "fraction",
    "connectivity.successor_rank.sptm": "fraction",
    "plangraph.plan_nodes.mean": "nodes",
    "plangraph.direct_edge_plans.htm": "fraction",
    "plangraph.direct_edge_plans.sptm": "fraction",
    "plangraph.feasibility.htm": "fraction",
    "controller.env_steps": "count",
    "controller.replans": "count",
    "metrics.final_distance.sptm": "arena_units",
    "metrics.final_distance.inverse_only": "arena_units",
    "metrics.successes.htm": "count",
}


def derive_seeds(seed: int) -> dict:
    keys = ("data", "cvae", "cpc", "sptm", "inverse", "evaluation", "queries", "rank")
    state = np.random.SeedSequence([int(seed), 0x48544D]).generate_state(len(keys))
    return {k: int(v) for k, v in zip(keys, state)}


def _median(values):
    return float(statistics.median(values))


class Run:
    """One workload at one seed; ``run`` fills ``metrics`` and the counts."""

    def __init__(self, workload: Workload, seed: int, tracer: Tracer | None = None):
        self.wl = workload
        self.seeds = derive_seeds(seed)
        self.tracer = tracer
        self.attempted = 0
        self.failures: list = []  # (operation, message)
        self.failed = 0
        self.structural: list = []  # faults not tied to one operation
        self.metrics: dict = {}
        self.layers: dict = {}
        self.check_s = 0.0
        self._pending: list = []
        self._executions: list = []
        self._episode_plans: list = []  # (scheme, node count)
        self._rows: list = []  # (report row, execution result)

    # -- bookkeeping -------------------------------------------------------

    def _operation(self, what, errs):
        self.attempted += 1
        if errs:
            self.failed += 1
            self.failures.extend((what, e) for e in errs)

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def _checking(self):
        """Benchmark-side work: a span of its own, no program spans inside,
        and its time kept out of the episode rate."""
        t0 = time.perf_counter()
        try:
            if self.tracer:
                with self.tracer.span("bench.check"), self.tracer.paused():
                    yield
            else:
                yield
        finally:
            self.check_s += time.perf_counter() - t0

    # -- phases ------------------------------------------------------------

    def run(self, import_s=0.0):
        """Set up, train, then alternate blocks of plan queries with rounds of
        episodes (and the repeated set-ups), so that each timed metric samples
        the host across the whole run rather than one window of it."""
        setup_times = [self.setup()]
        self.train()
        blocks = np.array_split(np.arange(len(self.queries)), self.wl.rounds)
        latencies, rates = [], []
        for r, block in enumerate(blocks):
            if len(setup_times) < SETUP_REPEATS:
                setup_times.append(self._set_up()[0])
            latencies += self.plan_queries([self.queries[i] for i in block], block)
            rates.append(self.episode_round(r))
        self.plan_latencies, self.episode_rates = latencies, rates
        self.metrics["setup_s"] = import_s + _median(setup_times)
        self.metrics["plan_ms"] = 1000.0 * _median(latencies)
        self.metrics["plan_ms.p90"] = 1000.0 * float(np.percentile(latencies, 90))
        self.metrics["episodes_per_s"] = _median(rates)
        self._summarize_episodes()
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _set_up(self):
        """One set-up: (seconds, config, world, dataset, holdout ids, queries, tasks)."""
        t0 = time.perf_counter()
        with self._span("bench.setup"):
            cfg = config.config_from_dict(self.wl.config(self.seeds))
            world = sim.BlockWorld(cfg.world)
            dataset = data.collect_dataset(world, cfg.data)
            _, _, holdout = data.split_context_ids(dataset)
            contexts = [dataset.context_by_id(cid) for cid in holdout]
            queries = metrics.make_benchmark_tasks(
                world, contexts, self.wl.queries, self.seeds["queries"],
                difficulty="cross-wall", success_threshold=cfg.execution.tau,
            )
            tasks = metrics.make_benchmark_tasks(
                world, contexts, self.wl.rounds * self.wl.tasks_per_round, cfg.evaluation.seed,
                difficulty="cross-wall", success_threshold=cfg.execution.tau,
            )
        return time.perf_counter() - t0, cfg, world, dataset, holdout, queries, tasks

    def setup(self) -> float:
        elapsed, cfg, world, dataset, holdout, queries, tasks = self._set_up()
        self.cfg, self.world, self.dataset = cfg, world, dataset
        self.holdout, self.queries, self.tasks = holdout, queries, tasks
        with self._checking():
            errs = checks.check_dataset(dataset, world)
            bad = [
                task for task in queries + tasks
                if checks.invalid_positions(
                    [[task.start.x, task.start.y], [task.goal.x, task.goal.y]],
                    task.context, world.spec.agent_radius,
                ).size
            ]
            if bad:
                errs.append(f"{len(bad)} tasks have an invalid start or goal")
        self._operation("setup", errs)
        return elapsed

    def train(self):
        t0 = time.perf_counter()
        with self._span("bench.train"):
            art = pipeline.train_all(self.cfg, self.dataset)
        self.metrics["train_s"] = time.perf_counter() - t0
        self.art = art
        cfg = self.cfg
        with self._checking():
            cvae_val = [h["val_loss"] for h in art.cvae.history]
            self._operation("train.cvae", [] if np.all(np.isfinite(cvae_val)) else ["non-finite CVAE validation loss"])
            errs = []
            for cid, pool in art.pools.items():
                if np.shape(pool) != (cfg.evaluation.halluc_pool, self.world.obs_dim):
                    errs.append(f"pool of context {cid} has shape {np.shape(pool)}")
                errs += checks.check_unit_range(pool, f"pool of context {cid}")
            self._operation("train.pools", errs)
            best = self._best_val(art.cpc.history)
            mi = metrics.mi_lower_bound(best, cfg.cpc.n_candidates)
            rank = self._successor_rank(art.cpc)
            errs = []
            if not math.isclose(mi, math.log(cfg.cpc.n_candidates) - best, rel_tol=1e-12):
                errs.append(f"mi_lower_bound {mi} != ln N - best loss")
            if not mi > 0:
                errs.append(f"mi_lower_bound {mi} is not positive")
            if not rank > RANK_TOP_FRACTION:
                errs.append(f"held-out successor rank {rank} does not beat chance {RANK_TOP_FRACTION}")
            self._operation("train.cpc", errs)
            sptm_best = self._best_val(art.sptm.history)
            self._operation("train.sptm", [] if math.isfinite(sptm_best) else ["non-finite SPTM validation loss"])
            inv_val = [h["val_loss"] for h in art.inverse.history]
            self._operation("train.inverse", [] if np.all(np.isfinite(inv_val)) else ["non-finite inverse-model validation loss"])
        self.metrics["mi_lower_bound"] = mi
        self.layers["cvae.val_loss"] = float(min(cvae_val))
        self.layers["connectivity.successor_rank.cpc"] = rank
        if self.tracer:
            with self._checking():
                self.layers["connectivity.successor_rank.sptm"] = self._successor_rank(art.sptm)

    @staticmethod
    def _best_val(history):
        best = [h["val_loss"] for h in history if h["epoch"] == "best"]
        return float(best[-1]) if best else float(min(h["val_loss"] for h in history))

    def _successor_rank(self, model):
        rates = [
            connectivity.successor_ranking_rate(
                model, self.dataset, self.world, cid, n_anchors=RANK_ANCHORS,
                top_fraction=RANK_TOP_FRACTION, seed=self.seeds["rank"] + k,
            )
            for k, cid in enumerate(self.holdout)
        ]
        return float(np.mean(rates))

    def _plan_errors(self, plan, graph, o_start, o_goal, m_samples):
        errs = checks.check_plan(plan, graph, o_start, o_goal, m_samples)
        errs += checks.check_unit_range(graph.observations[:m_samples])
        if graph.scheme == "normalized":
            errs += checks.check_normalized(graph, plan, plangraph.jensen_bound_check(graph, plan))
        return errs

    def plan_queries(self, queries, indices) -> list:
        """Open-loop HTM plans; returns their latencies in seconds."""
        world, cfg = self.world, self.cfg
        latencies = []
        for i, task in zip(indices, queries):
            ctx = task.context
            with self._checking():
                enc = world.encode_context(ctx)
                o_start, o_goal = world.observe(ctx, task.start), world.observe(ctx, task.goal)
            t0 = time.perf_counter()
            with self._span("bench.query"):
                plan, graph = plangraph.plan_end_to_end(
                    enc, o_start, o_goal, self.art.cvae, self.art.cpc, cfg.planning,
                    self.seeds["queries"] + int(i),
                )
            latencies.append(time.perf_counter() - t0)
            with self._checking():
                xy = [[task.start.x, task.start.y], [task.goal.x, task.goal.y]]
                errs = checks.check_observations([o_start, o_goal], xy, world.spec, ctx.arena_size)
                errs += self._plan_errors(plan, graph, o_start, o_goal, cfg.planning.m_samples)
            self._operation("query", errs)
            del plan, graph
        return latencies

    # -- closed loop -------------------------------------------------------

    def _checked_planner(self, original):
        sig = inspect.signature(original)

        def planner(*args, **kwargs):
            plan, graph = original(*args, **kwargs)
            with self._checking():
                a = sig.bind(*args, **kwargs).arguments
                m = a["cfg"].m_samples
                self._pending += self._plan_errors(plan, graph, a["o_start"], a["o_goal"], m)
                self._episode_plans.append((graph.scheme, len(plan)))
            return plan, graph

        return planner

    def _recorded_execute(self, original):
        def execute(*args, **kwargs):
            self._pending = []
            result = original(*args, **kwargs)
            self._executions.append((result, self._pending))
            self._pending = []
            return result

        return execute

    def episode_round(self, r) -> float:
        """One zero_shot_benchmark call on the round's tasks; returns episodes
        per second with the benchmark's own checking time taken out."""
        spec, tau = self.world.spec, self.cfg.execution.tau
        k = self.wl.tasks_per_round
        chunk = self.tasks[r * k:(r + 1) * k]
        self._executions, self.check_s = [], 0.0
        with patch("htmem.controller", "plan_end_to_end", self._checked_planner), \
                patch("htmem.metrics", "execute", self._recorded_execute):
            t0 = time.perf_counter()
            with self._span("bench.episodes"):
                report = pipeline.zero_shot_benchmark(self.art, chunk)
            elapsed = time.perf_counter() - t0 - self.check_s
        if len(report.rows) != len(self._executions) or report.methods() != list(METHODS):
            self.structural.append(
                f"round {r}: {len(report.rows)} rows for {len(self._executions)} executions, "
                f"methods {report.methods()}"
            )
        with self._checking():
            for row, (result, plan_errs) in zip(report.rows, self._executions):
                errs = plan_errs + checks.check_episode(result, row, chunk[row.task_id], spec, tau)
                self._operation("episode", errs)
                self._rows.append((row, result))
        return len(report.rows) / elapsed

    def _summarize_episodes(self):
        rows = self._rows
        by_method = {m: [row for row, _ in rows if row.method == m] for m in METHODS}
        self.metrics["final_distance.htm"] = float(np.mean([r.final_distance for r in by_method["htm"]]))
        results = [res for _, res in rows]
        plans = {s: [n for sch, n in self._episode_plans if sch == s] for s in ("normalized", "sptm_exp")}
        self.layers.update({
            "cvae.fidelity.htm": float(np.mean([r.fidelity for r in by_method["htm"] if r.fidelity is not None])),
            "plangraph.plan_nodes.mean": float(np.mean(plans["normalized"])),
            "plangraph.direct_edge_plans.htm": float(np.mean(np.equal(plans["normalized"], 2))),
            "plangraph.direct_edge_plans.sptm": float(np.mean(np.equal(plans["sptm_exp"], 2))),
            "plangraph.feasibility.htm": float(np.mean([r.feasibility for r in by_method["htm"] if r.feasibility is not None])),
            "controller.env_steps": sum(res.steps for res in results),
            "controller.replans": sum(res.replan_count for res in results),
            "metrics.final_distance.sptm": float(np.mean([r.final_distance for r in by_method["sptm"]])),
            "metrics.final_distance.inverse_only": float(np.mean([r.final_distance for r in by_method["inverse_only"]])),
            "metrics.successes.htm": sum(bool(r.success) for r in by_method["htm"]),
        })

    # -- results -----------------------------------------------------------

    def per_layer(self) -> dict:
        spans = self.tracer.summary()
        out = {}
        for name, kinds in TIMED_LAYERS.items():
            calls, secs = spans.get(name, (0, 0.0))
            for kind in kinds:
                out[f"{name}.{kind}"] = calls if kind == "calls" else secs
        out["metrics.oracle.s"] = sum(spans.get(n, (0, 0.0))[1] for n in ORACLE_SPANS)
        out.update(self.layers)
        return out


def run_workload(name, seed, seconds, trace, import_s=0.0, workload=None):
    """Run one workload; returns the ``Run`` with its metrics and counts."""
    wl = (workload or WORKLOADS[name]).sized(seconds)
    tracer = Tracer() if trace else None
    run = Run(wl, seed, tracer)
    with tracer.installed() if tracer else contextlib.nullcontext():
        run.run(import_s)
    return run


def result_line(run: Run, trace: bool) -> dict:
    """The final JSON object: end-to-end metrics untraced, per-layer traced."""
    if trace:
        values, units = run.per_layer(), PER_LAYER_UNITS
    else:
        values, units = run.metrics, END_TO_END_UNITS
    return {
        "correct": run.failed == 0 and not run.structural,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
