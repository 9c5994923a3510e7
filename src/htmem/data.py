"""Trajectory dataset: collection from random exploration, the context
splits, and the stacked per-context view that every training routine reads
its rows from."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import derived_seed
from .world import BlockWorld, Context, WorldSpec


@dataclass
class DataConfig:
    n_contexts: int = 40
    trajectories_per_context: int = 20
    trajectory_length: int = 20
    n_holdout: int = 5
    val_fraction: float = 0.1
    seed: int = 0


@dataclass
class Trajectory:
    context_id: int
    trajectory_id: int
    observations: np.ndarray  # (T+1, obs_dim)
    actions: np.ndarray  # (T, 2)
    states: np.ndarray  # (T+1, 2) exact positions


@dataclass
class TransitionDataset:
    spec: WorldSpec
    data_config: DataConfig
    contexts: list
    trajectories: dict  # context_id -> list[Trajectory]

    def context_by_id(self, cid: int) -> Context:
        for c in self.contexts:
            if c.id == cid:
                return c
        raise KeyError(f"unknown context id {cid}")


def collect_dataset(world: BlockWorld, cfg: DataConfig) -> TransitionDataset:
    """Random-exploration dataset over freshly generated contexts.

    Deterministic in (world spec, cfg): per-context and per-rollout seeds are
    derived from the master seed.
    """
    contexts = []
    trajectories = {}
    for i in range(cfg.n_contexts):
        ctx = world.generate_context(derived_seed(cfg.seed, "ctx", i), context_id=i)
        contexts.append(ctx)
        rows = []
        for j in range(cfg.trajectories_per_context):
            rng = np.random.default_rng(derived_seed(cfg.seed, "start", i, j))
            start = world.sample_free_state(ctx, rng)
            states, obs, actions = world.rollout_random(
                ctx, start, cfg.trajectory_length, derived_seed(cfg.seed, "roll", i, j)
            )
            rows.append(
                Trajectory(
                    i, j, obs, actions, np.array([[s.x, s.y] for s in states])
                )
            )
        trajectories[i] = rows
    return TransitionDataset(world.spec, cfg, contexts, trajectories)


def split_context_ids(dataset: TransitionDataset):
    """(train_ids, val_ids, holdout_ids): holdout is the tail of the context
    list and never touches training; val is the tail of the remainder and
    leaves at least one context to train on."""
    cfg = dataset.data_config
    ids = [c.id for c in dataset.contexts]
    n_holdout = min(cfg.n_holdout, max(0, len(ids) - 1))
    holdout = ids[len(ids) - n_holdout :] if n_holdout else []
    rest = ids[: len(ids) - n_holdout]
    n_val = min(max(1, int(math.ceil(cfg.val_fraction * len(rest)))), max(0, len(rest) - 1))
    val = rest[len(rest) - n_val :] if n_val else []
    train = rest[: len(rest) - n_val]
    return train, val, holdout


@dataclass(frozen=True, eq=False)
class ContextStack:
    """The trajectories, encodings and generated pools of a fixed list of
    contexts, stacked once so that training gathers its rows by index.

    Context ``i`` of the stack is ``context_ids[i]``; its observations and
    actions are indexed by trajectory and step, and its pool is the rows
    ``pool_start[i]`` to ``pool_start[i] + pool_size[i]`` of ``pool``.
    """

    context_ids: tuple
    observations: np.ndarray  # (C, J, T+1, obs_dim)
    actions: np.ndarray  # (C, J, T, 2)
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
        # one stack over every trajectory, so that no per-context copy is made
        trajs = [t for cid in ids for t in dataset.trajectories[cid]]
        observations, actions = (
            np.stack(arrays).reshape(len(ids), first[0], *arrays[0].shape)
            for arrays in ([t.observations for t in trajs], [t.actions for t in trajs])
        )
        encodings = np.stack([world.encode_context(dataset.context_by_id(cid)) for cid in ids])
        pools = [(hallucinations or {}).get(cid) for cid in ids]
        pools = [np.reshape([] if p is None else p, (-1, world.obs_dim)) for p in pools]
        pool_size = np.array([len(p) for p in pools])
        pool_start = np.concatenate([[0], np.cumsum(pool_size)[:-1]])
        return cls(
            ids, observations, actions, encodings, np.concatenate(pools), pool_start, pool_size
        )

    def flat_observations(self) -> np.ndarray:
        """(C, J*(T+1), obs_dim): index ``j*(T+1) + t`` is step t of trajectory j."""
        c, j, t1, obs_dim = self.observations.shape
        return self.observations.reshape(c, j * t1, obs_dim)

    def draw_pool(self, ctx_index, rng) -> np.ndarray:
        """One uniform pool row for each context index in ``ctx_index``;
        every context indexed must have a nonempty pool."""
        return self.pool[self.pool_start[ctx_index] + rng.integers(self.pool_size[ctx_index])]


def training_stacks(
    dataset: TransitionDataset, world: BlockWorld, hallucinations: dict | None = None
) -> tuple[ContextStack, ContextStack]:
    """(train, val) stacks of the split; a split without validation contexts
    validates on its first training context."""
    train_ids, val_ids, _ = split_context_ids(dataset)
    train = ContextStack.build(dataset, world, train_ids, hallucinations)
    return train, ContextStack.build(dataset, world, val_ids or train_ids[:1], hallucinations)
