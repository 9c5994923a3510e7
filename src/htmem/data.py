"""Trajectory dataset: collection from random exploration, the context
splits, and the per-context views that every training routine reads its rows
from. The dataset's two arrays are the only copy of its rows: each
trajectory and each ``ContextStack`` is a view of them.

Collection rolls out every trajectory of the dataset in lockstep, one array
move test and one array rasterization per step, while each trajectory keeps
its own random streams for its start and its actions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import derived_seed
from .world import BlockWorld, Context, wall_array


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
    observations: np.ndarray  # (T+1, obs_dim), a view of the dataset's observations
    actions: np.ndarray  # (T, 2), a view of the dataset's actions
    states: np.ndarray  # (T+1, 2) exact positions


@dataclass
class TransitionDataset:
    """Context ``i`` has id ``i``; ``observations[i, j]`` and ``actions[i, j]``
    are trajectory ``j`` of context ``i``."""

    data_config: DataConfig
    contexts: list
    trajectories: dict  # context_id -> list[Trajectory]
    observations: np.ndarray  # (C, J, T+1, obs_dim)
    actions: np.ndarray  # (C, J, T, 2)

    def context_by_id(self, cid: int) -> Context:
        for c in self.contexts:
            if c.id == cid:
                return c
        raise KeyError(f"unknown context id {cid}")


def collect_dataset(world: BlockWorld, cfg: DataConfig) -> TransitionDataset:
    """Random-exploration dataset over freshly generated contexts.

    Deterministic in (world spec, cfg): per-context and per-trajectory seeds
    are derived from the master seed. Each trajectory keeps its own two
    streams: its start is ``sample_free_state`` on the "start" stream and its
    T uniform actions are one draw on the "roll" stream. The rollouts then
    run in lockstep (``_roll_out``): one array move test and, in raster mode,
    one array rasterization per step. States, observations and actions are
    written into the dataset's arrays, and each trajectory views its rows
    there.
    """
    n_traj, t = cfg.trajectories_per_context, cfg.trajectory_length
    a_max = world.spec.a_max
    observations = np.empty((cfg.n_contexts, n_traj, t + 1, world.obs_dim))
    actions = np.empty((cfg.n_contexts, n_traj, t, 2))
    states = np.empty((cfg.n_contexts, n_traj, t + 1, 2))
    contexts = [
        world.generate_context(derived_seed(cfg.seed, "ctx", i), context_id=i) for i in range(cfg.n_contexts)
    ]
    for i, ctx in enumerate(contexts):
        for j in range(n_traj):
            start = world.sample_free_state(ctx, np.random.default_rng(derived_seed(cfg.seed, "start", i, j)))
            states[i, j, 0] = start.x, start.y
            roll = np.random.default_rng(derived_seed(cfg.seed, "roll", i, j))
            actions[i, j] = roll.uniform(-a_max, a_max, size=(t, 2))
    _roll_out(world, contexts, states, actions, observations)
    trajectories = {
        i: [Trajectory(i, j, observations[i, j], actions[i, j], states[i, j]) for j in range(n_traj)]
        for i in range(cfg.n_contexts)
    }
    return TransitionDataset(cfg, contexts, trajectories, observations, actions)


def _roll_out(world: BlockWorld, contexts: list, states, actions, observations) -> None:
    """Step the (C, J) trajectories of the C generated ``contexts`` from
    ``states[:, :, 0]`` under their ``actions``, all at once: fill the rest
    of ``states`` and all of ``observations`` with what ``step`` and
    ``observe`` give one move at a time. Step t of every trajectory is one
    ``BlockWorld._moves_clear`` call, and in raster mode one
    ``BlockWorld._raster_discs`` call that writes the rasters of the states it
    moved straight into ``observations``; a step that leaves its state copies
    the previous row. The start rasters are one more such call."""
    spec = world.spec
    s, r = spec.arena_size, spec.agent_radius
    c, j, t1, _ = states.shape
    xy = states.reshape(c * j, t1, 2)
    walls = np.repeat(wall_array(contexts), j, axis=0)
    # step's clip of each action component
    moves = np.minimum(np.maximum(actions.reshape(c * j, t1 - 1, 2), -spec.a_max), spec.a_max)
    raster = observations.reshape(c * j, t1, world.obs_dim) if spec.mode == "raster" else None
    if raster is not None:
        world._raster_discs(s, xy[:, 0], raster[:, 0])
    for k in range(t1 - 1):
        p0 = xy[:, k]
        p1 = p0 + moves[:, k]
        xy[:, k + 1] = np.where(world._moves_clear(walls, s, p0, p1, r)[:, None], p1, p0)
        if raster is not None:
            moved = (xy[:, k + 1] != p0).any(axis=1)
            # a NaN centre draws an empty row, which the copy then fills
            world._raster_discs(s, np.where(moved[:, None], xy[:, k + 1], np.nan), raster[:, k + 1])
            raster[~moved, k + 1] = raster[~moved, k]
    if raster is None:
        np.divide(states, s, out=observations)


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
    """The trajectories, encodings and generated pools of a contiguous run of
    contexts, so that training gathers its rows by index. Observations,
    actions and pool are views of the dataset's and the pools' arrays, not
    copies.

    Context ``i`` of the stack is ``context_ids[i]``; its observations and
    actions are indexed by trajectory and step, and its pool by row.
    """

    context_ids: tuple
    observations: np.ndarray  # (C, J, T+1, obs_dim)
    actions: np.ndarray  # (C, J, T, 2)
    encodings: np.ndarray  # (C, ctx_dim)
    pool: np.ndarray  # (C, P, obs_dim), every context's generated observations; P may be 0

    @classmethod
    def build(
        cls,
        dataset: TransitionDataset,
        world: BlockWorld,
        ids,
        hallucinations: np.ndarray | None = None,
    ) -> "ContextStack":
        """View the contiguous run of context ids ``ids``; row ``cid`` of the
        (n, P, obs_dim) ``hallucinations`` is context ``cid``'s pool."""
        ids = tuple(ids)
        if not ids:
            raise ValueError("no contexts to stack")
        run = slice(ids[0], ids[0] + len(ids))
        if ids != tuple(range(run.start, run.stop)):
            raise ValueError(f"context ids {list(ids)} are not a contiguous run")
        encodings = np.stack([world.encode_context(dataset.context_by_id(cid)) for cid in ids])
        if hallucinations is None:
            hallucinations = np.empty((run.stop, 0, world.obs_dim))
        pool = hallucinations[run]
        if len(pool) != len(ids):
            raise ValueError(f"context ids {list(ids)}: no pool beyond id {len(hallucinations) - 1}")
        return cls(ids, dataset.observations[run], dataset.actions[run], encodings, pool)

    def flat_observations(self) -> np.ndarray:
        """(C, J*(T+1), obs_dim): index ``j*(T+1) + t`` is step t of trajectory j."""
        c, j, t1, obs_dim = self.observations.shape
        return self.observations.reshape(c, j * t1, obs_dim)

    def draw_pool(self, ctx_index, rng) -> np.ndarray:
        """One uniform pool row for each context index in ``ctx_index``;
        the pools must be nonempty unless ``ctx_index`` is."""
        return self.pool[ctx_index, rng.integers(self.pool.shape[1], size=len(ctx_index))]


def training_stacks(
    dataset: TransitionDataset, world: BlockWorld, hallucinations: np.ndarray | None = None
) -> tuple[ContextStack, ContextStack]:
    """(train, val) stacks of the split; a split without validation contexts
    validates on its first training context."""
    train_ids, val_ids, _ = split_context_ids(dataset)
    train = ContextStack.build(dataset, world, train_ids, hallucinations)
    return train, ContextStack.build(dataset, world, val_ids or train_ids[:1], hallucinations)
