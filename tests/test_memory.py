"""Training and evaluation hold memory in proportion to a batch, not to the
dataset: the dataset and the generated pools are each one array, which every
trajectory and context stack views; training gathers rows from the stacks by
index, evaluates on a forward-only tape, draws the scorers' validation
batches on demand and streams the CVAE and inverse-model validation passes a
batch of rows at a time.

Peaks are read with ``tracemalloc``, which counts numpy's array buffers.
"""

import tracemalloc

import numpy as np
import pytest

from htmem import autodiff as ad
from htmem import controller
from htmem.config import config_from_dict
from htmem.connectivity import CpcConfig, train_cpc
from htmem.controller import InverseConfig, train_inverse
from htmem.cvae import CvaeConfig, cvae_elbo, cvae_init, train_cvae
from htmem.data import ContextStack, DataConfig, collect_dataset, training_stacks
from htmem.pipeline import train_all
from htmem.world import BlockWorld, WorldSpec
from test_pipeline import TINY


def peak_above_start(fn):
    """(result of fn(), bytes its allocations peaked above those live before)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_evaluate_peaks_below_a_recording_tape_with_equal_values():
    world = BlockWorld(WorldSpec(mode="raster"))
    rng = np.random.default_rng(0)
    obs = rng.uniform(size=(512, world.obs_dim))
    ctx = rng.uniform(size=(512, world.ctx_dim))
    model = cvae_init(world.obs_dim, world.ctx_dim, CvaeConfig())

    def recorded():
        tape = ad.Tape()
        values = tuple(float(n.value) for n in cvae_elbo(model, obs, ctx, 7, tape))
        tape.release()
        return values

    evaluated, evaluate_peak = peak_above_start(
        lambda: ad.evaluate(lambda tape: cvae_elbo(model, obs, ctx, 7, tape))
    )
    values, tape_peak = peak_above_start(recorded)
    assert np.array(evaluated).tobytes() == np.array(values).tobytes()
    # the recording tape holds every intermediate of both networks at once
    assert evaluate_peak < 0.6 * tape_peak, (evaluate_peak, tape_peak)


@pytest.fixture(scope="module")
def raster_data():
    """Sixteen training contexts and one validation context, so that a copy
    of one row per training observation outweighs a validation pass."""
    world = BlockWorld(WorldSpec(mode="raster", max_walls=1))
    cfg = DataConfig(
        n_contexts=17, trajectories_per_context=10, trajectory_length=20, n_holdout=0,
        val_fraction=0.05, seed=0,
    )
    return world, collect_dataset(world, cfg)


CPC = CpcConfig(hidden=(32,), epochs=1, steps_per_epoch=2, batch_anchors=8, val_batches=20)
TRAINERS = {
    "cvae": lambda ds, world: train_cvae(
        ds, world, CvaeConfig(hidden=(32,), epochs=1, batch_size=64)
    ),
    "inverse": lambda ds, world: train_inverse(
        ds, world, InverseConfig(hidden=(32,), epochs=1, batch_size=64)
    ),
    "cpc": lambda ds, world: train_cpc(ds, world, CPC),
}


@pytest.mark.parametrize("stage", sorted(TRAINERS))
def test_training_peaks_below_a_per_row_copy_or_held_validation_batches(raster_data, stage):
    """A stage holds a batch's working set, and its stacks view the dataset,
    so it peaks below a context copied to every training row and below every
    validation batch held at once."""
    world, ds = raster_data
    train, val = training_stacks(ds, world)
    assert len(train.context_ids) == 16 and len(val.context_ids) == 1
    rows = train.observations[..., 0].size
    context_copy = rows * world.ctx_dim * 8
    # anchors, candidates and contexts of every validation batch
    batch = CPC.batch_anchors * ((CPC.n_candidates + 1) * world.obs_dim + world.ctx_dim) * 8
    held_validation = CPC.val_batches * batch

    _, peak = peak_above_start(lambda: TRAINERS[stage](ds, world))
    assert peak < min(context_copy, held_validation), (peak, context_copy, held_validation)


def test_trajectories_and_stacks_view_the_dataset_arrays(raster_data):
    world, ds = raster_data
    train, val = training_stacks(ds, world)
    traj = ds.trajectories[3][2]
    assert np.shares_memory(traj.observations, ds.observations)
    assert np.shares_memory(traj.actions, ds.actions)
    assert np.shares_memory(traj.observations, train.observations)
    assert np.shares_memory(ds.trajectories[16][0].observations, val.observations)
    for stack in (train, val):
        assert np.shares_memory(stack.observations, ds.observations)
        assert np.shares_memory(stack.actions, ds.actions)


def test_every_stack_pool_views_the_pipeline_pools(monkeypatch):
    stacks = []
    build = ContextStack.build.__func__

    def recorded_build(cls, *args, **kwargs):
        stacks.append(build(cls, *args, **kwargs))
        return stacks[-1]

    monkeypatch.setattr(ContextStack, "build", classmethod(recorded_build))
    art = train_all(config_from_dict({**TINY, "world": {"mode": "raster"}}))
    pooled = [s for s in stacks if s.pool.shape[1]]
    assert len(pooled) == 4  # train and validation stacks of CPC and SPTM
    for stack in pooled:
        for i, cid in enumerate(stack.context_ids):
            assert np.shares_memory(stack.pool[i], art.pools[cid])
            assert np.array_equal(stack.pool[i], art.pools[cid])


def test_training_stacks_peak_below_one_copy_of_the_training_rows(raster_data):
    world, ds = raster_data
    (train, _), peak = peak_above_start(lambda: training_stacks(ds, world))
    assert peak < train.observations.nbytes, (peak, train.observations.nbytes)


@pytest.fixture(scope="module")
def large_validation():
    """One training and six validation contexts of 200 raster transitions,
    so that the validation inputs outweigh a training step's working set."""
    world = BlockWorld(WorldSpec(mode="raster", max_walls=1))
    cfg = DataConfig(
        n_contexts=7, trajectories_per_context=10, trajectory_length=20, n_holdout=0,
        val_fraction=0.85, seed=0,
    )
    return world, collect_dataset(world, cfg)


@pytest.mark.parametrize("stage", ["cvae", "inverse"])
def test_validation_passes_peak_below_one_copy_of_their_first_layer_inputs(
    large_validation, stage
):
    """A validation pass takes its rows a batch at a time, so a stage never
    holds the first-layer inputs of its whole validation set."""
    world, ds = large_validation
    train, val = training_stacks(ds, world)
    assert len(train.context_ids) == 1 and len(val.context_ids) == 6
    first_layer = {
        "cvae": val.observations[..., 0].size * (world.obs_dim + world.ctx_dim) * 8,
        "inverse": val.actions[..., 0].size * (2 * world.obs_dim + world.ctx_dim) * 8,
    }[stage]
    _, peak = peak_above_start(lambda: TRAINERS[stage](ds, world))
    assert peak < first_layer, (peak, first_layer)


def test_inverse_training_steps_run_without_the_validation_rows(monkeypatch):
    """``train_inverse`` gathers its validation rows inside each validation
    pass, so a training step starts with less live than one copy of them."""
    world = BlockWorld(WorldSpec(mode="raster", max_walls=1))
    cfg = DataConfig(
        n_contexts=6, trajectories_per_context=10, trajectory_length=20, n_holdout=0,
        val_fraction=0.5, seed=0,
    )
    ds = collect_dataset(world, cfg)
    _, val = training_stacks(ds, world)
    val_rows = val.actions[..., 0].size * (2 * world.obs_dim + world.ctx_dim) * 8
    inverse_loss = controller.inverse_loss
    live = []

    def measured_loss(model, inputs, actions, tape):
        if isinstance(tape, ad.Tape):  # a training step, not a validation pass
            live.append(tracemalloc.get_traced_memory()[0] - start)
        return inverse_loss(model, inputs, actions, tape)

    monkeypatch.setattr(controller, "inverse_loss", measured_loss)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train_inverse(ds, world, InverseConfig(hidden=(32,), epochs=2, batch_size=64))
    finally:
        tracemalloc.stop()
    assert len(live) == 2 * 10  # 600 training transitions, batches of 64
    assert max(live) < val_rows, (max(live), val_rows)
