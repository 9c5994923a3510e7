"""Training and evaluation hold memory in proportion to a batch, not to the
dataset: they gather rows from the stacked contexts by index, evaluate on a
forward-only tape and draw validation batches on demand.

Peaks are read with ``tracemalloc``, which counts numpy's array buffers.
"""

import tracemalloc

import numpy as np
import pytest

from htmem import autodiff as ad
from htmem.connectivity import CpcConfig, train_cpc
from htmem.controller import InverseConfig, train_inverse
from htmem.cvae import CvaeConfig, cvae_elbo, cvae_init, train_cvae
from htmem.data import DataConfig, collect_dataset, training_stacks
from htmem.world import BlockWorld, WorldSpec


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
    """A stage may hold the stacks it builds and a batch's working set, which
    here is less than a context copied to every training row and less than
    every validation batch held at once."""
    world, ds = raster_data
    train, val = training_stacks(ds, world)
    assert len(train.context_ids) == 16 and len(val.context_ids) == 1
    arrays = (train.observations, train.actions, train.encodings, val.observations, val.actions)
    stacks = sum(a.nbytes for a in arrays)
    rows = train.observations[..., 0].size
    context_copy = rows * world.ctx_dim * 8
    # anchors, candidates and contexts of every validation batch
    batch = CPC.batch_anchors * ((CPC.n_candidates + 1) * world.obs_dim + world.ctx_dim) * 8
    held_validation = CPC.val_batches * batch
    bound = stacks + min(context_copy, held_validation)

    _, peak = peak_above_start(lambda: TRAINERS[stage](ds, world))
    assert peak < bound, (peak - stacks, context_copy, held_validation)
