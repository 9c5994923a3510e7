"""Tapes are freed by reference counting, not by the cyclic collector.

Each test runs with the cyclic collector off, so a tape that still sits in a
node-tape reference cycle stays alive and is counted.
"""

import gc

import numpy as np
import pytest

from htmem import autodiff as ad
from htmem.autodiff import Tape
from htmem.connectivity import (
    CpcBatch,
    CpcConfig,
    SptmBatch,
    SptmConfig,
    connectivity_init,
    cpc_loss,
    sptm_bce_loss,
)
from htmem.controller import InverseConfig, inverse_init, inverse_loss
from htmem.cvae import CvaeConfig, cvae_elbo, cvae_init
from gradcheck import grad_check


def live_tapes() -> int:
    """Recording tapes and the forward-only tapes ``ad.evaluate`` makes."""
    return sum(type(obj) in (Tape, ad._ForwardTape) for obj in gc.get_objects())


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_fit_frees_each_tape_after_its_step(no_cyclic_gc):
    w = np.zeros(3)
    model = type("Toy", (), {"history": [], "parameters": lambda self: [w]})()
    alive = []

    def loss(tape):
        alive.append(live_tapes())
        diff = ad.sub(tape.watch(w), np.ones(3))
        return ad.sum_axis(ad.mul(diff, diff), 0)

    def steps(epoch):
        for _ in range(10):
            yield loss

    before = live_tapes()
    ad.fit(model, 5, steps, lambda: {"val_loss": float(np.sum((w - 1.0) ** 2))}, 0.1, "toy")
    assert len(alive) == 50
    assert max(alive) == before + 1  # only the tape of the running step
    assert live_tapes() == before


def tiny_losses():
    rng = np.random.default_rng(0)
    cpc = connectivity_init(2, 2, CpcConfig(hidden=(8,), d=4))
    batch = CpcBatch(
        rng.uniform(size=(3, 2)), rng.uniform(size=(3, 5, 2)), rng.uniform(size=(3, 2)),
        np.ones(3, dtype=int), np.zeros((3, 4), dtype=bool),
    )
    sptm = connectivity_init(2, 2, SptmConfig(hidden=(8,), d=4))
    pairs = SptmBatch(
        rng.uniform(size=(4, 2)), rng.uniform(size=(4, 2)), np.array([1.0, 0.0, 1.0, 0.0]),
        rng.uniform(size=(4, 2)), np.zeros(4, dtype=bool),
    )
    cvae = cvae_init(2, 2, CvaeConfig(hidden=(8,), d_z=2))
    inverse = inverse_init(2, 2, 0.1, InverseConfig(hidden=(8,)))
    obs, ctx = rng.uniform(size=(5, 2)), rng.uniform(size=(5, 2))
    return {
        "cpc_loss": lambda tape: cpc_loss(cpc, batch, tape),
        "sptm_bce_loss": lambda tape: sptm_bce_loss(sptm, pairs, tape),
        "cvae_elbo": lambda tape: cvae_elbo(cvae, obs, ctx, 1, tape),
        "inverse_loss": lambda tape: inverse_loss(
            inverse, np.concatenate([obs, obs[::-1], ctx], axis=1), np.zeros((5, 2)), tape
        ),
    }


@pytest.mark.parametrize("name", ["cpc_loss", "sptm_bce_loss", "cvae_elbo", "inverse_loss"])
def test_a_loss_called_without_a_tape_leaves_no_tape_behind(name, no_cyclic_gc):
    """``ad.evaluate`` gives the loss its own tape and frees it."""
    build = tiny_losses()[name]
    before = live_tapes()
    value = ad.evaluate(build)
    assert np.all(np.isfinite(value))
    assert live_tapes() == before


def test_grad_check_leaves_no_tape_behind(no_cyclic_gc):
    w = np.array([0.5, -1.0, 2.0])

    def loss(tape):
        diff = ad.sub(tape.watch(w), np.ones(3))
        return ad.sum_axis(ad.mul(diff, diff), 0)

    before = live_tapes()
    # one analytic tape and two finite-difference tapes per entry of w
    assert grad_check(loss, [w]).passed
    assert live_tapes() == before
