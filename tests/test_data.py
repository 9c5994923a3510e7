import numpy as np

from htmem.data import DataConfig, collect_dataset, split_context_ids
from htmem.world import BlockWorld, WorldSpec


def small_cfg(**kw):
    defaults = dict(
        n_contexts=4, trajectories_per_context=3, trajectory_length=5, n_holdout=1, seed=0
    )
    defaults.update(kw)
    return DataConfig(**defaults)


def test_collect_counts_and_grouping():
    world = BlockWorld(WorldSpec())
    ds = collect_dataset(world, small_cfg())
    assert len(ds.contexts) == 4
    assert sum(len(traj.actions) for ts in ds.trajectories.values() for traj in ts) == 4 * 3 * 5
    for ctx in ds.contexts:
        for traj in ds.trajectories[ctx.id]:
            assert traj.context_id == ctx.id
            assert traj.observations.shape == (6, 2)
            assert traj.actions.shape == (5, 2)


def test_desk_scale_default_transition_count():
    cfg = DataConfig()
    total = cfg.n_contexts * cfg.trajectories_per_context * cfg.trajectory_length
    assert total == 16_000


def test_collect_deterministic():
    world = BlockWorld(WorldSpec())
    a = collect_dataset(world, small_cfg())
    b = collect_dataset(world, small_cfg())
    assert a.contexts == b.contexts
    for cid in (0, 1, 2, 3):
        for ta, tb in zip(a.trajectories[cid], b.trajectories[cid]):
            assert np.array_equal(ta.observations, tb.observations)
            assert np.array_equal(ta.actions, tb.actions)


def test_split_context_ids():
    world = BlockWorld(WorldSpec())
    cfg = small_cfg(n_contexts=10, n_holdout=2, val_fraction=0.25)
    ds = collect_dataset(world, cfg)
    train, val, holdout = split_context_ids(ds)
    assert holdout == [8, 9]
    assert val == [6, 7]
    assert train == [0, 1, 2, 3, 4, 5]
    assert set(train) | set(val) | set(holdout) == set(range(10))
