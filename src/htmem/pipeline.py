"""End-to-end orchestration: collect data, train every model, then run the
benchmark on held-out contexts, once for the zero-shot comparison and once
for the score-model x weight-scheme ablation."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import derived_seed
from .config import RunConfig, config_hash
from .connectivity import ConnectivityModel, train_cpc, train_sptm
from .controller import InverseModel, ModelBundle, train_inverse
from .cvae import CvaeModel, hallucinate, train_cvae
from .data import TransitionDataset, collect_dataset, split_context_ids
from .metrics import MetricsReport, make_benchmark_tasks, run_benchmark
from .world import BlockWorld

log = logging.getLogger(__name__)


@dataclass
class PipelineArtifacts:
    cfg: RunConfig
    world: BlockWorld
    dataset: TransitionDataset
    cvae: CvaeModel
    pools: dict  # context_id -> generated observation pool, a row of one (n, P, obs_dim) array
    cpc: ConnectivityModel
    sptm: ConnectivityModel
    inverse: InverseModel


def build_hallucination_pools(world, dataset, cvae, context_ids, size, seed) -> np.ndarray:
    """(len(context_ids), size, obs_dim) sample pools, row k that of
    ``context_ids[k]``, used as generated negatives during scorer training."""
    pools = np.empty((len(context_ids), size, world.obs_dim))
    for k, cid in enumerate(context_ids):
        enc = world.encode_context(dataset.context_by_id(cid))
        pools[k] = hallucinate(cvae, enc, size, derived_seed(seed, "pool", cid))
    return pools


def train_all(cfg: RunConfig, dataset: TransitionDataset | None = None) -> PipelineArtifacts:
    """Collect (unless given) and train generator, both scorers, and the
    policy. Scorer training consumes generated negatives from the trained
    generator, mirroring the intended deployment order."""
    world = BlockWorld(cfg.world)
    if dataset is None:
        log.info("collecting dataset")
        dataset = collect_dataset(world, cfg.data)
    log.info("training generator")
    cvae = train_cvae(dataset, world, cfg.cvae)
    train_ids, val_ids, _ = split_context_ids(dataset)
    # the split puts every pooled context before the held-out ones, so row cid is id cid's pool
    pooled = train_ids + val_ids
    pools = build_hallucination_pools(
        world, dataset, cvae, pooled, cfg.evaluation.halluc_pool, cfg.cvae.seed
    )
    log.info("training connectivity (contrastive)")
    cpc = train_cpc(dataset, world, cfg.cpc, pools)
    log.info("training connectivity (classifier baseline)")
    sptm = train_sptm(dataset, world, cfg.sptm, pools)
    log.info("training inverse model")
    inverse = train_inverse(dataset, world, cfg.inverse)
    pools = dict(zip(pooled, pools))
    return PipelineArtifacts(cfg, world, dataset, cvae, pools, cpc, sptm, inverse)


def zero_shot_benchmark(art: PipelineArtifacts, tasks=None) -> MetricsReport:
    """The headline comparison: full planner vs classifier-scored plans vs
    the inverse model pursuing the goal directly."""
    cfg = art.cfg
    htm = ModelBundle(art.cvae, art.cpc, art.inverse)
    bundles = {
        "htm": (htm, cfg.planning.scheme),
        "sptm": (ModelBundle(art.cvae, art.sptm, art.inverse), "sptm_exp"),
        "inverse_only": (htm, None),
    }
    return _run_benchmark(art, tasks, cfg.evaluation.n_tasks, bundles, cfg.evaluation.seed)


ABLATION_SCHEMES = ("sptm_threshold", "inverse", "normalized")


def weight_scheme_ablation(art: PipelineArtifacts, tasks=None) -> MetricsReport:
    """The paper's ablation: each score model under each weight scheme, as
    the methods ``"{score}/{scheme}"`` of one benchmark run. Every cell gets
    the headline rows' metrics; its mean final distance is
    ``aggregates()[method]["mean_final_distance"]``."""
    cfg = art.cfg
    bundles = {
        f"{score}/{scheme}": (ModelBundle(art.cvae, scorer, art.inverse), scheme)
        for score, scorer in (("cpc", art.cpc), ("sptm", art.sptm))
        for scheme in ABLATION_SCHEMES
    }
    seed = derived_seed(cfg.evaluation.seed, "ablation")
    return _run_benchmark(art, tasks, cfg.evaluation.ablation_tasks, bundles, seed)


def _run_benchmark(art: PipelineArtifacts, tasks, n_tasks: int, bundles: dict, seed: int) -> MetricsReport:
    """``run_benchmark`` of the bundles under the run's settings, on
    ``tasks`` or else on ``n_tasks`` cross-wall tasks drawn round-robin over
    the held-out contexts."""
    cfg = art.cfg
    if tasks is None:
        _, _, holdout = split_context_ids(art.dataset)
        contexts = [art.dataset.context_by_id(cid) for cid in holdout]
        tasks = make_benchmark_tasks(
            art.world, contexts, n_tasks, cfg.evaluation.seed, success_threshold=cfg.execution.tau
        )
    return run_benchmark(
        art.world,
        tasks,
        bundles,
        cfg.planning,
        cfg.execution,
        cfg.evaluation.oracle_horizon,
        seed,
        metadata={
            "config_hash": config_hash(cfg),
            "seed": seed,
            "n_tasks": len(tasks),
            "difficulty": "cross-wall",
        },
    )
