"""Connectivity scoring between observation pairs.

The primary model is a context-conditioned encoder with a bilinear form
trained contrastively: the true short-horizon successor of an anchor must
outscore candidates drawn from the same context (and optionally from the
generative model). The baseline classifier shares the model, ``ScorerConfig``,
trainer and edge logit, but trains with binary cross-entropy on near/far pairs.

Scores are directed: logit(o_from -> o_to) = g(o_to)^T W g(o_from), and no
operation symmetrizes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import (
    MlpParams,
    Tape,
    derived_seed,
    fit,
    load_parts,
    mlp_apply,
    mlp_init,
    save_parts,
)
from .data import ContextStack, TransitionDataset, training_stacks
from .world import BlockWorld


@dataclass
class ScorerConfig:
    d: int = 16
    hidden: tuple = (64, 64)
    horizon: int = 5  # positive offsets k in 1..horizon
    phi: float = 0.25  # fraction of negatives taken from the generative model
    lr: float = 1e-3
    epochs: int = 25
    steps_per_epoch: int = 200
    val_batches: int = 20


@dataclass
class CpcConfig(ScorerConfig):
    n_candidates: int = 16  # 1 positive + N-1 negatives per anchor
    batch_anchors: int = 64
    seed: int = 22


@dataclass
class SptmConfig(ScorerConfig):
    negative_offset: int | None = None  # defaults to 4 * horizon
    batch_pairs: int = 128
    seed: int = 33

    @property
    def l(self) -> int:
        return 4 * self.horizon if self.negative_offset is None else self.negative_offset


@dataclass
class ConnectivityModel:
    """Context-conditioned encoder g and bilinear matrix W.

    One class serves both scorers: the contrastive model has no
    ``negative_offset`` and is saved as ``CPCE``; the classifier baseline
    records the offset of its far pairs and is saved as ``SPTM``.
    """

    encoder: MlpParams
    bilinear: np.ndarray  # (d, d), zero-initialized
    obs_dim: int
    ctx_dim: int
    d: int
    horizon: int = 5
    negative_offset: int | None = None
    history: list = field(default_factory=list, repr=False)

    def parameters(self):
        return self.encoder.parameters() + [self.bilinear]

    def pairwise_logits(self, obs_matrix, ctx) -> np.ndarray:
        """L[i, j] = logit of the directed edge j -> i over all node pairs."""
        z = mlp_apply(self.encoder, obs_matrix, context=ctx)
        return z @ self.bilinear @ z.T

    def save(self, path):
        header = [self.obs_dim, self.ctx_dim, self.d, self.horizon]
        if self.negative_offset is None:
            save_parts(path, "CPCE", header, [self.encoder, self.bilinear])
        else:
            save_parts(path, "SPTM", header + [self.negative_offset], [self.encoder, self.bilinear])

    @classmethod
    def load(cls, path) -> "ConnectivityModel":
        header, (encoder, w) = load_parts(
            path, {"CPCE": 4, "SPTM": 5}, lambda h: ((MlpParams, h[0] + h[1], h[2]), (h[2], h[2]))
        )
        return cls(encoder, w, *header)


def connectivity_init(obs_dim, ctx_dim, cfg: CpcConfig | SptmConfig) -> ConnectivityModel:
    """Zero-bilinear scorer; an SptmConfig gives it the classifier's offset."""
    encoder = mlp_init([obs_dim + ctx_dim, *cfg.hidden, cfg.d], seed=derived_seed(cfg.seed, "enc"))
    negative_offset = cfg.l if isinstance(cfg, SptmConfig) else None
    return ConnectivityModel(
        encoder, np.zeros((cfg.d, cfg.d)), obs_dim, ctx_dim, cfg.d, cfg.horizon, negative_offset
    )


# ---------------------------------------------------------------------------
# batches


@dataclass
class CpcBatch:
    anchors: np.ndarray  # (B, obs)
    candidates: np.ndarray  # (B, N, obs): the positive, then N-1 negatives of the anchor's context
    contexts: np.ndarray  # (B, ctx)
    offsets: np.ndarray  # (B,), k in 1..horizon
    halluc_mask: np.ndarray  # (B, N-1) True where negative j, candidate j + 1, was generated

    def __len__(self):
        return len(self.anchors)


@dataclass
class SptmBatch:
    from_obs: np.ndarray
    to_obs: np.ndarray
    labels: np.ndarray  # 1.0 within horizon, 0.0 at >= negative_offset
    contexts: np.ndarray
    halluc_mask: np.ndarray

    def __len__(self):
        return len(self.labels)


def sample_cpc_batch(stack: ContextStack, cfg: CpcConfig, seed: int) -> CpcBatch:
    """One contrastive batch: anchors with their k-step successors as the
    positive class and same-context candidates as negatives.

    Contexts, offsets (uniform on 1..horizon), trajectories and start steps
    are uniform. A phi fraction of each negative set is drawn from the
    anchor's context pool when the stack has pools; the rest are uniform over
    the context's observations other than the positive's own index.
    """
    rng = np.random.default_rng(seed)
    flat = stack.flat_observations()
    n_ctx, n_flat, _ = flat.shape
    n_traj, t1 = stack.observations.shape[1:3]
    if t1 < 2:
        raise ValueError(f"context {stack.context_ids[0]} has no transitions")
    b, n_neg = cfg.batch_anchors, cfg.n_candidates - 1
    c = rng.integers(n_ctx, size=b)
    offsets = rng.integers(1, min(cfg.horizon, t1 - 1) + 1, size=b)
    start = rng.integers(n_traj, size=b) * t1 + rng.integers(t1 - offsets)
    positive = start + offsets
    u = rng.integers(n_flat - 1, size=(b, n_neg))
    u += u >= positive[:, None]  # skip the positive's index
    candidates = flat[c[:, None], np.column_stack([positive, u])]
    n_h = int(round(cfg.phi * n_neg)) if stack.pool.shape[1] else 0
    halluc_mask = np.tile(np.arange(n_neg) < n_h, (b, 1))
    rows, cols = np.nonzero(halluc_mask)
    candidates[rows, cols + 1] = stack.draw_pool(c[rows], rng)
    return CpcBatch(flat[c, start], candidates, stack.encodings[c], offsets, halluc_mask)


def sample_sptm_batch(stack: ContextStack, cfg: SptmConfig, seed: int) -> SptmBatch:
    """Labeled near/far pairs, alternating from a positive: positives are
    <= horizon steps apart on one trajectory; negatives are >= negative_offset
    apart or from another trajectory of the same context (random exploration
    makes unrelated rollouts temporally far), uniform over that set; a phi
    fraction of negatives is generated."""
    rng = np.random.default_rng(seed)
    flat = stack.flat_observations()
    n_ctx, n_flat, _ = flat.shape
    n_traj, t1 = stack.observations.shape[1:3]
    b = cfg.batch_pairs
    c = rng.integers(n_ctx, size=b)
    traj = rng.integers(n_traj, size=b)
    labels = (np.arange(b) % 2 == 0).astype(float)
    pos, neg = slice(0, None, 2), slice(1, None, 2)
    step = np.empty(b, dtype=int)
    to_idx = np.empty(b, dtype=int)
    k = rng.integers(1, min(cfg.horizon, t1 - 1) + 1, size=len(step[pos]))
    step[pos] = rng.integers(t1 - k)
    to_idx[pos] = traj[pos] * t1 + step[pos] + k
    step[neg] = rng.integers(t1, size=len(step[neg]))

    neg_c, neg_traj, neg_step = c[neg], traj[neg], step[neg]
    halluc_mask = np.zeros(b, dtype=bool)
    halluc_mask[neg] = (stack.pool.shape[1] > 0) & (rng.random(len(neg_c)) < cfg.phi)
    # The same trajectory's steps less than l away form one window of flat
    # indices; a uniform draw over the rest skips it.
    lo = np.clip(neg_step - cfg.l + 1, 0, t1)
    width = np.maximum(np.clip(neg_step + cfg.l, 0, t1) - lo, 0)
    admissible = n_flat - width
    empty = (admissible == 0) & ~halluc_mask[neg]
    if empty.any():
        i = int(np.argmax(empty))
        raise ValueError(
            f"context {stack.context_ids[neg_c[i]]}: no observation {cfg.l} or more steps "
            f"from step {neg_step[i]} of trajectory {neg_traj[i]}"
        )
    u = rng.integers(np.maximum(admissible, 1))
    window = neg_traj * t1 + lo
    to_idx[neg] = u + width * (u >= window)

    to_obs = flat[c, to_idx]
    to_obs[halluc_mask] = stack.draw_pool(c[halluc_mask], rng)
    return SptmBatch(
        flat[c, traj * t1 + step], to_obs, labels, stack.encodings[c], halluc_mask
    )


# ---------------------------------------------------------------------------
# losses


def _edge_logits(model: ConnectivityModel, from_obs, to_obs, contexts, tape: Tape):
    """Logits g(to)^T W g(from) per row, of its one or N ``to_obs`` candidates."""
    if len(from_obs) == 0:
        raise ValueError("empty batch")
    z_from = mlp_apply(model.encoder, from_obs, tape, context=contexts)
    z_to = mlp_apply(model.encoder, to_obs, tape, context=contexts)
    proj = ad.linear(z_from, tape.watch(model.bilinear), tape.leaf(np.zeros(model.d)))  # rows W @ g(from)
    if to_obs.ndim == 3:
        proj = ad.reshape(proj, (len(from_obs), 1, model.d))
    return ad.sum_axis(ad.mul(z_to, proj), -1)


def cpc_loss(model: ConnectivityModel, batch: CpcBatch, tape: Tape):
    """Softmax cross-entropy of picking the true successor among the
    candidate set, averaged over anchors; log-sum-exp keeps it overflow-free.
    Equals ln(n_candidates) exactly at the zero-bilinear initialization."""
    logits = _edge_logits(model, batch.anchors, batch.candidates, batch.contexts, tape)
    pos = ad.reshape(ad.slice_cols(logits, 0, 1), (-1,))
    return ad.mean_all(ad.sub(ad.logsumexp(logits), pos))


def sptm_bce_loss(model: ConnectivityModel, batch: SptmBatch, tape: Tape):
    """Mean binary cross-entropy of sigmoid(logit) against the near/far
    labels, in the numerically safe softplus form."""
    logits = _edge_logits(model, batch.from_obs, batch.to_obs, batch.contexts, tape)
    # bce(y, x) = softplus(x) - y * x
    return ad.mean_all(ad.sub(ad.softplus(logits), ad.mul(logits, tape.leaf(batch.labels))))


# ---------------------------------------------------------------------------
# training


def _train_scorer(dataset, world, cfg, sample_fn, loss_fn, hallucinations, label):
    model = connectivity_init(world.obs_dim, world.ctx_dim, cfg)
    train, val = training_stacks(dataset, world, hallucinations)
    val_seeds = [derived_seed(cfg.seed, "val", i) for i in range(cfg.val_batches)]

    def steps(epoch):
        for i in range(cfg.steps_per_epoch):
            step = (epoch - 1) * cfg.steps_per_epoch + i
            batch = sample_fn(train, cfg, derived_seed(cfg.seed, "train", step))
            yield lambda tape: loss_fn(model, batch, tape)

    def validate():
        # each batch is drawn again from its seed and freed after its loss
        losses = [
            ad.evaluate(lambda tape: loss_fn(model, sample_fn(val, cfg, seed), tape))
            for seed in val_seeds
        ]
        return {"val_loss": float(np.mean(losses))}

    return fit(model, cfg.epochs, steps, validate, cfg.lr, label)


def train_cpc(
    dataset: TransitionDataset,
    world: BlockWorld,
    cfg: CpcConfig,
    hallucinations: np.ndarray | None = None,
) -> ConnectivityModel:
    return _train_scorer(dataset, world, cfg, sample_cpc_batch, cpc_loss, hallucinations, "cpc")


def train_sptm(
    dataset: TransitionDataset,
    world: BlockWorld,
    cfg: SptmConfig,
    hallucinations: np.ndarray | None = None,
) -> ConnectivityModel:
    return _train_scorer(dataset, world, cfg, sample_sptm_batch, sptm_bce_loss, hallucinations, "sptm")


# ---------------------------------------------------------------------------
# diagnostics


def successor_ranking_rate(
    model,
    dataset: TransitionDataset,
    world: BlockWorld,
    context_id: int,
    n_anchors=100,
    n_candidates=300,
    top_fraction=0.1,
    seed=0,
) -> float:
    """Fraction of anchors whose true k-step successor ranks in the top
    ``top_fraction`` of a random same-context candidate set by logit, read
    from one ``pairwise_logits`` matrix over the context's observations."""
    rng = np.random.default_rng(seed)
    trajs = dataset.observations[context_id]
    n_traj, t1 = trajs.shape[:2]
    all_obs = trajs.reshape(n_traj * t1, -1)
    logits = model.pairwise_logits(all_obs, world.encode_context(dataset.context_by_id(context_id)))
    t_len = t1 - 1
    cutoff = max(1, int(math.floor(top_fraction * n_candidates)))
    hits = 0
    for _ in range(n_anchors):
        ti = int(rng.integers(n_traj))
        k = int(rng.integers(1, min(model.horizon, t_len) + 1))
        anchor = ti * t1 + int(rng.integers(0, t_len - k + 1))
        cands = rng.integers(len(all_obs), size=n_candidates - 1)
        # L[i, j] scores the edge j -> i, so column ``anchor`` scores its candidates
        scores = logits[np.concatenate([[anchor + k], cands]), anchor]
        hits += int((scores > scores[0]).sum()) < cutoff  # rank 0 is best
    return hits / n_anchors
