"""Connectivity scoring between observation pairs.

The primary model is a context-conditioned encoder with a bilinear form
trained contrastively: the true short-horizon successor of an anchor must
outscore candidates drawn from the same context (and optionally from the
generative model). The baseline classifier shares the architecture but is
trained with binary cross-entropy on near/far pair labels.

Scores are directed: logit(o_from -> o_to) = g(o_to)^T W g(o_from), and no
operation symmetrizes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import (  # noqa: F401  TrainingDiverged is re-exported
    MlpParams,
    Tape,
    TrainingDiverged,
    derived_seed,
    fit,
    load_parts,
    mlp_apply,
    mlp_init,
    save_parts,
)
from .data import TransitionDataset, split_context_ids
from .world import BlockWorld


@dataclass
class CpcConfig:
    d: int = 16
    hidden: tuple = (64, 64)
    horizon: int = 5  # positive offsets k in 1..horizon
    n_candidates: int = 16  # 1 positive + N-1 negatives per anchor
    batch_anchors: int = 64
    phi: float = 0.25  # fraction of negatives taken from the generative model
    lr: float = 1e-3
    epochs: int = 25
    steps_per_epoch: int = 200
    val_batches: int = 20
    seed: int = 22


@dataclass
class SptmConfig:
    d: int = 16
    hidden: tuple = (64, 64)
    horizon: int = 5
    negative_offset: int | None = None  # defaults to 4 * horizon
    batch_pairs: int = 128
    phi: float = 0.25
    lr: float = 1e-3
    epochs: int = 25
    steps_per_epoch: int = 200
    val_batches: int = 20
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

    def encode(self, obs, ctx) -> np.ndarray:
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        ctx = np.asarray(ctx, dtype=float)
        if ctx.ndim == 1:
            ctx = np.broadcast_to(ctx, (obs.shape[0], ctx.shape[0]))
        return mlp_apply(self.encoder, np.concatenate([obs, ctx], axis=1))

    def pairwise_logits(self, obs_matrix, ctx) -> np.ndarray:
        """L[i, j] = logit of the directed edge j -> i over all node pairs."""
        z = self.encode(obs_matrix, ctx)
        return z @ self.bilinear @ z.T

    def score_pair(self, o_from, o_to, ctx) -> float:
        z_from = self.encode(o_from, ctx)[0]
        z_to = self.encode(o_to, ctx)[0]
        return float(z_to @ self.bilinear @ z_from)

    def save(self, path):
        header = [self.obs_dim, self.ctx_dim, self.d, self.horizon]
        if self.negative_offset is None:
            save_parts(path, "CPCE", header, [self.encoder, self.bilinear])
        else:
            save_parts(path, "SPTM", header + [self.negative_offset], [self.encoder, self.bilinear])

    @classmethod
    def load(cls, path) -> "ConnectivityModel":
        header, (encoder, w) = load_parts(
            path, {"CPCE": 4, "SPTM": 5}, lambda header: (MlpParams, (header[2], header[2]))
        )
        return cls(encoder, w, *header)


def connectivity_init(obs_dim, ctx_dim, cfg: CpcConfig | SptmConfig) -> ConnectivityModel:
    """Zero-bilinear scorer; an SptmConfig gives it the classifier's offset."""
    encoder = mlp_init(
        [obs_dim + ctx_dim, *cfg.hidden, cfg.d], "relu", seed=derived_seed(cfg.seed, "enc")
    )
    negative_offset = cfg.l if isinstance(cfg, SptmConfig) else None
    return ConnectivityModel(
        encoder, np.zeros((cfg.d, cfg.d)), obs_dim, ctx_dim, cfg.d, cfg.horizon, negative_offset
    )


# ---------------------------------------------------------------------------
# batches


@dataclass
class CpcBatch:
    anchors: np.ndarray  # (B, obs)
    positives: np.ndarray  # (B, obs)
    negatives: np.ndarray  # (B, N-1, obs), same context as the anchor
    contexts: np.ndarray  # (B, ctx)
    offsets: np.ndarray  # (B,), k in 1..horizon
    halluc_mask: np.ndarray  # (B, N-1) True where the negative was generated

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


@dataclass(frozen=True, eq=False)
class ContextStack:
    """The observations, encodings and generated pools of a fixed list of
    contexts, stacked once so that the samplers gather batches by index.

    Context ``i`` of the stack is ``context_ids[i]``; its observations are
    indexed by trajectory and step, and its pool is the rows
    ``pool_start[i]`` to ``pool_start[i] + pool_size[i]`` of ``pool``.
    """

    context_ids: tuple
    observations: np.ndarray  # (C, J, T+1, obs_dim)
    encodings: np.ndarray  # (C, ctx_dim)
    pool: np.ndarray  # (P, obs_dim), every context's generated observations
    pool_start: np.ndarray  # (C,)
    pool_size: np.ndarray  # (C,), 0 for a context without a pool

    @classmethod
    def build(
        cls, dataset: TransitionDataset, world: BlockWorld, ids, hallucinations: dict | None = None
    ) -> "ContextStack":
        """Stack ``ids``; ``hallucinations`` maps a context id to its pool."""
        ids = tuple(ids)
        if not ids:
            raise ValueError("no contexts to stack")
        shapes = {}
        for cid in ids:
            trajs = dataset.trajectories[cid]
            shapes[cid] = (len(trajs), sorted({t.observations.shape[0] for t in trajs}))
        first = shapes[ids[0]]
        for cid, (n_traj, lengths) in shapes.items():
            if len(lengths) != 1 or (n_traj, lengths) != first:
                raise ValueError(
                    f"context {cid}: {n_traj} trajectories of {lengths} observations, but "
                    f"stacked contexts need one count and one length (first: {first[0]} of "
                    f"{first[1]})"
                )
        observations = np.stack(
            [np.stack([t.observations for t in dataset.trajectories[cid]]) for cid in ids]
        )
        encodings = np.stack([world.encode_context(dataset.context_by_id(cid)) for cid in ids])
        pools = [(hallucinations or {}).get(cid) for cid in ids]
        pools = [np.reshape([] if p is None else p, (-1, world.obs_dim)) for p in pools]
        pool_size = np.array([len(p) for p in pools])
        pool_start = np.concatenate([[0], np.cumsum(pool_size)[:-1]])
        return cls(ids, observations, encodings, np.concatenate(pools), pool_start, pool_size)

    def flat_observations(self) -> np.ndarray:
        """(C, J*(T+1), obs_dim): index ``j*(T+1) + t`` is step t of trajectory j."""
        c, j, t1, obs_dim = self.observations.shape
        return self.observations.reshape(c, j * t1, obs_dim)

    def draw_pool(self, ctx_index, rng) -> np.ndarray:
        """One uniform pool row for each context index in ``ctx_index``;
        every context indexed must have a nonempty pool."""
        return self.pool[self.pool_start[ctx_index] + rng.integers(self.pool_size[ctx_index])]


def sample_cpc_batch(stack: ContextStack, cfg: CpcConfig, seed: int) -> CpcBatch:
    """One contrastive batch: anchors with their k-step successors as the
    positive class and same-context candidates as negatives.

    Contexts, offsets (uniform on 1..horizon), trajectories and start steps
    are uniform. A phi fraction of each negative set is drawn from the
    anchor's context pool when it has one; the rest are uniform over the
    context's observations other than the positive's own index.
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
    negatives = flat[c[:, None], u]
    n_h = np.where(stack.pool_size[c] > 0, int(round(cfg.phi * n_neg)), 0)
    halluc_mask = np.arange(n_neg) < n_h[:, None]
    rows, cols = np.nonzero(halluc_mask)
    negatives[rows, cols] = stack.draw_pool(c[rows], rng)
    return CpcBatch(
        flat[c, start], flat[c, positive], negatives, stack.encodings[c], offsets, halluc_mask
    )


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
    halluc_mask[neg] = (stack.pool_size[neg_c] > 0) & (rng.random(len(neg_c)) < cfg.phi)
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


def cpc_loss(model: ConnectivityModel, batch: CpcBatch, tape: Tape | None = None):
    """Softmax cross-entropy of picking the true successor among the
    candidate set, averaged over anchors; log-sum-exp keeps it overflow-free.
    Equals ln(n_candidates) exactly at the zero-bilinear initialization."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    b, n_neg, obs_dim = batch.negatives.shape
    n = n_neg + 1
    cands = np.concatenate([batch.positives[:, None, :], batch.negatives], axis=1)
    anchor_in = np.concatenate([batch.anchors, batch.contexts], axis=1)
    cand_ctx = np.broadcast_to(batch.contexts[:, None, :], (b, n, batch.contexts.shape[1]))
    cand_in = np.concatenate([cands, cand_ctx], axis=2).reshape(b * n, -1)

    own_tape = tape is None
    t = Tape() if own_tape else tape
    za = mlp_apply(model.encoder, anchor_in, t)
    zc = ad.reshape(mlp_apply(model.encoder, cand_in, t), (b, n, model.d))
    proj = ad.matmul(za, ad.transpose(t.watch(model.bilinear)))  # rows W @ z_anchor
    logits = ad.sum_axis(ad.mul(zc, ad.reshape(proj, (b, 1, model.d))), -1)
    pos = ad.reshape(ad.slice_cols(logits, 0, 1), (-1,))
    loss = ad.mean_all(ad.sub(ad.logsumexp(logits), pos))
    return float(loss.value) if own_tape else loss


def sptm_bce_loss(model: ConnectivityModel, batch: SptmBatch, tape: Tape | None = None):
    """Mean binary cross-entropy of sigmoid(logit) against the near/far
    labels, in the numerically safe softplus form."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    from_in = np.concatenate([batch.from_obs, batch.contexts], axis=1)
    to_in = np.concatenate([batch.to_obs, batch.contexts], axis=1)

    own_tape = tape is None
    t = Tape() if own_tape else tape
    z_from = mlp_apply(model.encoder, from_in, t)
    z_to = mlp_apply(model.encoder, to_in, t)
    proj = ad.matmul(z_from, ad.transpose(t.watch(model.bilinear)))
    logits = ad.sum_axis(ad.mul(z_to, proj), -1)
    # bce(y, x) = softplus(x) - y * x
    loss = ad.mean_all(ad.sub(ad.softplus(logits), ad.mul(logits, t.leaf(batch.labels))))
    return float(loss.value) if own_tape else loss


# ---------------------------------------------------------------------------
# training


def _train_scorer(model, dataset, world, cfg, sample_fn, loss_fn, hallucinations, label):
    train_ids, val_ids, _ = split_context_ids(dataset)
    if not train_ids:
        raise ValueError("no training contexts after holdout/validation split")
    train = ContextStack.build(dataset, world, train_ids, hallucinations)
    val = ContextStack.build(dataset, world, val_ids or train_ids[:1], hallucinations)
    val_batches = [
        sample_fn(val, cfg, derived_seed(cfg.seed, "val", i)) for i in range(cfg.val_batches)
    ]

    def steps(epoch):
        for i in range(cfg.steps_per_epoch):
            step = (epoch - 1) * cfg.steps_per_epoch + i
            batch = sample_fn(train, cfg, derived_seed(cfg.seed, "train", step))
            yield lambda tape: loss_fn(model, batch, tape)

    def validate():
        return {"val_loss": float(np.mean([loss_fn(model, b) for b in val_batches]))}

    return fit(model, cfg.epochs, steps, validate, cfg.lr, label)


def train_cpc(
    dataset: TransitionDataset,
    world: BlockWorld,
    cfg: CpcConfig,
    hallucinations: dict | None = None,
) -> ConnectivityModel:
    model = connectivity_init(world.obs_dim, world.ctx_dim, cfg)
    return _train_scorer(
        model, dataset, world, cfg, sample_cpc_batch, cpc_loss, hallucinations, "cpc"
    )


def train_sptm(
    dataset: TransitionDataset,
    world: BlockWorld,
    cfg: SptmConfig,
    hallucinations: dict | None = None,
) -> ConnectivityModel:
    model = connectivity_init(world.obs_dim, world.ctx_dim, cfg)
    return _train_scorer(
        model, dataset, world, cfg, sample_sptm_batch, sptm_bce_loss, hallucinations, "sptm"
    )


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
    ``top_fraction`` of a random same-context candidate set by logit."""
    rng = np.random.default_rng(seed)
    trajs = dataset.trajectories[context_id]
    ctx_enc = world.encode_context(dataset.context_by_id(context_id))
    all_obs = dataset.observations_for(context_id)
    horizon = model.horizon
    cutoff = max(1, int(math.floor(top_fraction * n_candidates)))
    hits = 0
    for _ in range(n_anchors):
        ti = int(rng.integers(len(trajs)))
        t_len = trajs[ti].observations.shape[0] - 1
        k = int(rng.integers(1, min(horizon, t_len) + 1))
        t0 = int(rng.integers(0, t_len - k + 1))
        anchor = trajs[ti].observations[t0]
        succ = trajs[ti].observations[t0 + k]
        cands = all_obs[rng.integers(len(all_obs), size=n_candidates - 1)]
        stack = np.concatenate([succ[None], cands])
        z_anchor = model.encode(anchor, ctx_enc)[0]
        z_cands = model.encode(stack, ctx_enc)
        logits = z_cands @ model.bilinear @ z_anchor
        rank = int((logits > logits[0]).sum())  # 0 = best
        if rank < cutoff:
            hits += 1
    return hits / n_anchors
