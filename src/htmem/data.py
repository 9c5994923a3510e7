"""Trajectory dataset: collection from random exploration, JSONL persistence,
replay auditing, the context splits, and the stacked per-context view that
every training routine reads its rows from."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import derived_seed
from .world import AgentState, BlockWorld, Context, Wall, WorldSpec


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
    states: np.ndarray | None = None  # (T+1, 2) exact positions when known

    def __len__(self):
        return len(self.actions)


@dataclass
class TransitionDataset:
    spec: WorldSpec
    data_config: DataConfig
    contexts: list
    trajectories: dict  # context_id -> list[Trajectory]
    seed: int

    def context_by_id(self, cid: int) -> Context:
        for c in self.contexts:
            if c.id == cid:
                return c
        raise KeyError(f"unknown context id {cid}")

    @property
    def n_transitions(self) -> int:
        return sum(len(t) for ts in self.trajectories.values() for t in ts)

    # -- auditing -----------------------------------------------------------

    def audit_replay(self, world: BlockWorld, fraction=0.01, seed=0, tol=0.0) -> int:
        """Re-apply the dynamics to a sampled subset of stored transitions and
        count mismatches against the stored successors."""
        rng = np.random.default_rng(seed)
        mismatches = 0
        for ctx in self.contexts:
            for traj in self.trajectories[ctx.id]:
                n = len(traj)
                n_check = max(1, int(round(fraction * n)))
                for t in rng.choice(n, size=min(n_check, n), replace=False):
                    if traj.states is not None:
                        st = AgentState(*traj.states[t], world.spec.agent_radius)
                    else:
                        st = world.decode(traj.observations[t])
                    nxt = world.step(ctx, st, traj.actions[t])
                    want = traj.observations[t + 1]
                    got = world.observe(ctx, nxt)
                    if tol == 0.0:
                        ok = np.array_equal(got, want)
                    else:
                        ok = np.max(np.abs(got - want)) <= tol
                    if not ok:
                        mismatches += 1
        return mismatches

    # -- persistence ----------------------------------------------------------

    def save(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "contexts.jsonl"), "w") as fh:
            for c in self.contexts:
                fh.write(
                    json.dumps(
                        {
                            "id": c.id,
                            "arena": c.arena_size,
                            "walls": [w.as_list() for w in c.walls],
                        }
                    )
                    + "\n"
                )
        mode = self.spec.mode
        with open(os.path.join(out_dir, "transitions.jsonl"), "w") as fh:
            for c in self.contexts:
                for traj in self.trajectories[c.id]:
                    for t in range(len(traj)):
                        fh.write(
                            json.dumps(
                                {
                                    "context_id": c.id,
                                    "trajectory_id": traj.trajectory_id,
                                    "t": t,
                                    "obs": traj.observations[t].tolist(),
                                    "action": traj.actions[t].tolist(),
                                    "next_obs": traj.observations[t + 1].tolist(),
                                    "mode": mode,
                                }
                            )
                            + "\n"
                        )
        manifest = {
            "seed": self.seed,
            "spec": vars(self.spec) | {},
            "data": vars(self.data_config) | {},
            "counts": {
                "contexts": len(self.contexts),
                "trajectories": sum(len(v) for v in self.trajectories.values()),
                "transitions": self.n_transitions,
            },
        }
        for key in ("n_walls", "wall_thickness", "wall_length_frac", "wall_offset_frac"):
            manifest["spec"][key] = list(manifest["spec"][key])
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, in_dir) -> "TransitionDataset":
        with open(os.path.join(in_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        spec_d = dict(manifest["spec"])
        for key in ("n_walls", "wall_thickness", "wall_length_frac", "wall_offset_frac"):
            spec_d[key] = tuple(spec_d[key])
        spec = WorldSpec(**spec_d)
        data_cfg = DataConfig(**manifest["data"])
        contexts = []
        with open(os.path.join(in_dir, "contexts.jsonl")) as fh:
            for line in fh:
                d = json.loads(line)
                contexts.append(
                    Context(d["id"], d["arena"], tuple(Wall(*w) for w in d["walls"]))
                )
        raw = {}
        with open(os.path.join(in_dir, "transitions.jsonl")) as fh:
            for line in fh:
                d = json.loads(line)
                raw.setdefault((d["context_id"], d["trajectory_id"]), []).append(d)
        trajectories = {c.id: [] for c in contexts}
        world = BlockWorld(spec)
        for (cid, tid), rows in raw.items():
            rows.sort(key=lambda r: r["t"])
            obs = np.array([r["obs"] for r in rows] + [rows[-1]["next_obs"]])
            actions = np.array([r["action"] for r in rows])
            states = None
            if spec.mode == "state":
                states = np.array([[world.decode(o).x, world.decode(o).y] for o in obs])
            trajectories[cid].append(Trajectory(cid, tid, obs, actions, states))
        return cls(spec, data_cfg, contexts, trajectories, manifest["seed"])


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
    return TransitionDataset(world.spec, cfg, contexts, trajectories, cfg.seed)


def split_context_ids(dataset: TransitionDataset, cfg: DataConfig | None = None):
    """(train_ids, val_ids, holdout_ids): holdout is the tail of the context
    list and never touches training; val is the tail of the remainder and
    leaves at least one context to train on."""
    cfg = cfg or dataset.data_config
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
        per_ctx = [dataset.trajectories[cid] for cid in ids]
        observations = np.stack([np.stack([t.observations for t in ts]) for ts in per_ctx])
        actions = np.stack([np.stack([t.actions for t in ts]) for ts in per_ctx])
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
