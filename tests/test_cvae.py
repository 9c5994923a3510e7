import math

import numpy as np
import pytest

from htmem.autodiff import ShapeError, derived_seed, evaluate, mlp_apply, mlp_init
from htmem import cvae
from htmem.cvae import (
    CvaeConfig,
    CvaeModel,
    cvae_elbo,
    cvae_init,
    hallucinate,
    train_cvae,
)
from htmem.data import DataConfig, collect_dataset, split_context_ids, training_stacks
from htmem.world import BlockWorld, WorldSpec
from gradcheck import grad_check


def tiny_model(obs_dim=2, ctx_dim=4, d_z=3, seed=0):
    cfg = CvaeConfig(d_z=d_z, hidden=(8,), seed=seed)
    return cvae_init(obs_dim, ctx_dim, cfg)


def elbo(model, obs, ctx, noise_seed):
    """(total, reconstruction, kl) as floats."""
    return evaluate(lambda tape: cvae_elbo(model, obs, ctx, noise_seed, tape))


def tiny_dataset():
    world = BlockWorld(WorldSpec(max_walls=1))
    cfg = DataConfig(
        n_contexts=4, trajectories_per_context=3, trajectory_length=6, n_holdout=1, seed=0
    )
    return world, collect_dataset(world, cfg)


def test_prior_matched_posterior_gives_zero_kl():
    model = tiny_model()
    # zero encoder output => mu = 0, log var = 0 => KL = 0
    for w in model.encoder.weights:
        w[...] = 0.0
    _, _, kl = elbo(model, np.random.rand(5, 2), np.random.rand(5, 4), noise_seed=1)
    assert kl == pytest.approx(0.0, abs=1e-15)


def test_perfect_reconstruction_gives_zero_recon():
    model = tiny_model()
    for w in model.encoder.weights:
        w[...] = 0.0
    for w in model.decoder.weights:
        w[...] = 0.0
    model.decoder.biases[-1][...] = 0.25
    obs = np.full((6, 2), 0.25)
    _, recon, _ = elbo(model, obs, np.random.rand(6, 4), noise_seed=2)
    assert recon == pytest.approx(0.0, abs=1e-15)


def test_closed_form_kl_matches_monte_carlo():
    model = tiny_model(seed=3)
    rng = np.random.default_rng(4)
    obs = rng.uniform(size=(4, 2))
    ctx = rng.uniform(size=(4, 4))
    _, _, kl = elbo(model, obs, ctx, noise_seed=0)

    # independent MC oracle: E_q[log q(z) - log p(z)] per sample
    enc_out = mlp_apply(model.encoder, np.concatenate([obs, ctx], axis=1))
    mu, logvar = enc_out[:, :3], enc_out[:, 3:]
    n_mc = 100_000
    draws = rng.standard_normal((n_mc, 4, 3))
    z = mu + np.exp(0.5 * logvar) * draws
    log_q = -0.5 * (((z - mu) ** 2) / np.exp(logvar) + logvar + math.log(2 * math.pi)).sum(-1)
    log_p = -0.5 * (z**2 + math.log(2 * math.pi)).sum(-1)
    per_draw = (log_q - log_p).mean(axis=1)  # batch-mean KL per MC draw
    mc = per_draw.mean()
    se = per_draw.std(ddof=1) / math.sqrt(n_mc)
    assert abs(kl - mc) < 3 * se + 1e-9


def test_kl_nonnegative_on_random_models():
    rng = np.random.default_rng(8)
    for trial in range(10):
        model = tiny_model(seed=trial)
        _, _, kl = elbo(
            model, rng.uniform(size=(3, 2)), rng.uniform(size=(3, 4)), noise_seed=trial
        )
        assert kl >= 0.0


def test_elbo_shape_and_empty_errors():
    model = tiny_model()
    with pytest.raises(ShapeError):
        elbo(model, np.zeros((2, 5)), np.zeros((2, 4)), noise_seed=0)
    with pytest.raises(ValueError):
        elbo(model, np.zeros((0, 2)), np.zeros((0, 4)), noise_seed=0)


def test_elbo_gradients_pass_fd_check_with_frozen_noise():
    model = tiny_model(d_z=2, seed=6)
    rng = np.random.default_rng(7)
    obs = rng.uniform(size=(3, 2))
    ctx = rng.uniform(size=(3, 4))

    def build(tape):
        total, _, _ = cvae_elbo(model, obs, ctx, noise_seed=42, beta=1.0, tape=tape)
        return total

    report = grad_check(build, model.parameters())
    assert report.passed, report.max_rel_error


def test_training_decreases_validation_loss_and_is_deterministic():
    world, ds = tiny_dataset()
    cfg = CvaeConfig(d_z=4, hidden=(16,), epochs=8, batch_size=32, seed=5)
    m1 = train_cvae(ds, world, cfg)
    m2 = train_cvae(ds, world, cfg)
    assert m1.history[-1]["val_loss"] == pytest.approx(
        m2.history[-1]["val_loss"], abs=1e-12
    )
    assert m1.history[-1]["val_loss"] < m1.history[0]["val_loss"]
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("trajectories", [2, 5])  # 14 and 35 validation rows
def test_streamed_validation_matches_the_whole_set_elbo(trajectories):
    """The pre-training history row, validated in chunks of 16 rows, against
    ``cvae_elbo`` over the whole validation set with the same noise."""
    world = BlockWorld(WorldSpec(max_walls=1))
    ds = collect_dataset(
        world,
        DataConfig(
            n_contexts=4, trajectories_per_context=trajectories, trajectory_length=6,
            n_holdout=1, seed=0,
        ),
    )
    cfg = CvaeConfig(d_z=4, hidden=(16,), beta=0.3, epochs=1, batch_size=16, seed=5)
    row = train_cvae(ds, world, cfg).history[0]
    _, val = training_stacks(ds, world)
    obs, c = cvae._rows(val)
    model = cvae_init(world.obs_dim, world.ctx_dim, cfg)
    want = evaluate(
        lambda tape: cvae_elbo(
            model, obs, val.encodings[c], derived_seed(cfg.seed, "val-noise"), tape, cfg.beta
        )
    )
    got = (row["val_loss"], row["val_recon"], row["val_kl"])
    if len(obs) <= cfg.batch_size:
        assert np.array(got).tobytes() == np.array(want).tobytes()
    else:
        assert len(obs) % cfg.batch_size
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_train_cvae_encodes_each_context_once(monkeypatch):
    world, ds = tiny_dataset()
    calls = []
    encode = BlockWorld.encode_context

    def counting(self, ctx):
        calls.append(ctx.id)
        return encode(self, ctx)

    monkeypatch.setattr(BlockWorld, "encode_context", counting)
    train_cvae(ds, world, CvaeConfig(d_z=2, hidden=(8,), epochs=2, batch_size=16, seed=1))
    train_ids, val_ids, _ = split_context_ids(ds)
    assert len(calls) <= len(train_ids) + len(val_ids or train_ids[:1])


def test_beta_zero_reconstruction_no_worse():
    world, ds = tiny_dataset()
    base = dict(d_z=4, hidden=(16,), epochs=10, batch_size=32, seed=5)
    free = train_cvae(ds, world, CvaeConfig(beta=0.0, **base))
    reg = train_cvae(ds, world, CvaeConfig(beta=1.0, **base))
    assert free.history[-1]["val_recon"] <= reg.history[-1]["val_recon"] + 1e-9


def test_hallucinate_count_range_determinism():
    model = tiny_model(seed=9)
    ctx = np.random.default_rng(1).uniform(size=4)
    empty = hallucinate(model, ctx, 0, seed=3)
    assert isinstance(empty, np.ndarray) and empty.shape == (0, 2)
    a = hallucinate(model, ctx, 25, seed=3)
    b = hallucinate(model, ctx, 25, seed=3)
    c = hallucinate(model, ctx, 25, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (25, 2)
    assert np.all((a >= 0) & (a <= 1))
    with pytest.raises(ValueError):
        hallucinate(model, ctx, -1, seed=0)


def test_checkpoint_roundtrip(tmp_path):
    model = tiny_model(seed=12)
    path = tmp_path / "cvae.ckpt"
    model.save(path)
    loaded = CvaeModel.load(path)
    assert loaded.obs_dim == model.obs_dim and loaded.d_z == model.d_z
    for a, b in zip(loaded.parameters(), model.parameters()):
        assert np.array_equal(a, b)
    sample_a = hallucinate(model, np.zeros(4), 5, seed=0)
    sample_b = hallucinate(loaded, np.zeros(4), 5, seed=0)
    assert np.array_equal(sample_a, sample_b)
