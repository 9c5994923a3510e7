"""Conditional variational generative model over (observation, context) pairs.

At test time the decoder is sampled with standard-normal latents conditioned
on an unseen context encoding, producing the candidate states the planner
builds its graph from.
"""

from __future__ import annotations

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
class CvaeConfig:
    d_z: int = 8
    hidden: tuple = (64, 64)
    beta: float = 1.0
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 30
    seed: int = 11


@dataclass
class CvaeModel:
    encoder: MlpParams  # (obs + ctx) -> (mu, log var), 2 * d_z outputs
    decoder: MlpParams  # (z + ctx) -> reconstruction mean
    obs_dim: int
    ctx_dim: int
    d_z: int
    history: list = field(default_factory=list, repr=False)

    def parameters(self):
        return self.encoder.parameters() + self.decoder.parameters()

    def decode(self, z, ctx) -> np.ndarray:
        """Decoder mean for latents z, clamped to the observation range."""
        return np.clip(mlp_apply(self.decoder, np.atleast_2d(z), context=ctx), 0.0, 1.0)

    def save(self, path):
        save_parts(path, "CVAE", [self.obs_dim, self.ctx_dim, self.d_z], [self.encoder, self.decoder])

    @classmethod
    def load(cls, path) -> "CvaeModel":
        (obs_dim, ctx_dim, d_z), (encoder, decoder) = load_parts(
            path,
            {"CVAE": 3},
            lambda h: ((MlpParams, h[0] + h[1], 2 * h[2]), (MlpParams, h[2] + h[1], h[0])),
        )
        return cls(encoder, decoder, obs_dim, ctx_dim, d_z)


def cvae_init(obs_dim, ctx_dim, cfg: CvaeConfig) -> CvaeModel:
    enc_sizes = [obs_dim + ctx_dim, *cfg.hidden, 2 * cfg.d_z]
    dec_sizes = [cfg.d_z + ctx_dim, *cfg.hidden, obs_dim]
    return CvaeModel(
        encoder=mlp_init(enc_sizes, seed=derived_seed(cfg.seed, "enc")),
        decoder=mlp_init(dec_sizes, seed=derived_seed(cfg.seed, "dec")),
        obs_dim=obs_dim,
        ctx_dim=ctx_dim,
        d_z=cfg.d_z,
    )


def cvae_elbo(model: CvaeModel, obs, ctx, noise_seed: int, tape: Tape, beta=1.0):
    """Negative evidence lower bound for a batch, recorded on ``tape``.

    Reconstruction is the batch mean of per-sample squared error summed over
    observation entries (unit decoder variance); the KL of the diagonal
    Gaussian posterior against N(0, I) is closed form. Returns the scalar
    nodes (total, reconstruction, kl), with total = reconstruction +
    beta * kl; ``ad.evaluate`` turns them into floats. Reparameterization
    noise is drawn from ``noise_seed`` so a fixed seed freezes the estimate.
    Both means are taken over the per-row terms of ``_elbo_rows``;
    ``train_cvae`` validates on those terms a batch of rows at a time, with
    the noise this function would draw for the whole validation set.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    ctx = np.atleast_2d(np.asarray(ctx, dtype=float))
    if obs.shape[0] == 0:
        raise ValueError("empty batch")
    if obs.shape[1] != model.obs_dim or ctx.shape[1] != model.ctx_dim:
        raise ad.ShapeError(
            f"batch dims {obs.shape[1]}/{ctx.shape[1]} do not match model "
            f"{model.obs_dim}/{model.ctx_dim}"
        )
    eps = np.random.default_rng(noise_seed).standard_normal((obs.shape[0], model.d_z))
    recon_rows, kl_rows = _elbo_rows(model, obs, ctx, eps, tape)
    recon, kl = ad.mean_all(recon_rows), ad.mean_all(kl_rows)
    return ad.add(recon, ad.mul(kl, float(beta))), recon, kl


def _elbo_rows(model: CvaeModel, obs, ctx, eps, tape):
    """Per-row (reconstruction, kl) nodes of shape (rows,) for observations
    ``obs``, their contexts ``ctx`` and reparameterization noise ``eps`` of
    shape (rows, d_z)."""
    enc_out = mlp_apply(model.encoder, obs, tape, context=ctx)
    mu = ad.slice_cols(enc_out, 0, model.d_z)
    logvar = ad.slice_cols(enc_out, model.d_z, 2 * model.d_z)
    z = ad.add(mu, ad.mul(ad.exp(ad.mul(logvar, 0.5)), tape.leaf(eps)))
    recon_mean = mlp_apply(model.decoder, z, tape, context=ctx)

    diff = ad.sub(recon_mean, tape.leaf(obs))
    recon = ad.sum_axis(ad.mul(diff, diff), -1)
    kl_inner = ad.sub(ad.add(ad.mul(mu, mu), ad.exp(logvar)), ad.add(logvar, 1.0))
    return recon, ad.mul(ad.sum_axis(kl_inner, -1), 0.5)


def _rows(stack: ContextStack):
    """(observations, context index): a view of the stack with one row per
    stored observation, in context, trajectory, step order, and the stack
    context of each row. Rows ``idx`` are conditioned on
    ``stack.encodings[context_index[idx]]``, gathered per batch."""
    n_ctx, n_traj, t1, obs_dim = stack.observations.shape
    return stack.observations.reshape(-1, obs_dim), np.repeat(np.arange(n_ctx), n_traj * t1)


def train_cvae(dataset: TransitionDataset, world: BlockWorld, cfg: CvaeConfig) -> CvaeModel:
    """Adam training with held-out contexts excluded and the best-validation
    parameters restored at the end. Epoch 0 logs the pre-training losses."""
    train, val = training_stacks(dataset, world)
    x_train, c_train = _rows(train)
    x_val, c_val = _rows(val)

    model = cvae_init(world.obs_dim, world.ctx_dim, cfg)
    rng = np.random.default_rng(derived_seed(cfg.seed, "shuffle"))
    # the noise ``cvae_elbo`` would draw for the whole validation set at once
    val_eps = np.random.default_rng(derived_seed(cfg.seed, "val-noise")).standard_normal(
        (len(x_val), cfg.d_z)
    )

    def steps(epoch):
        perm = rng.permutation(len(x_train))
        for batch, start in enumerate(range(0, len(x_train), cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            noise_seed = derived_seed(cfg.seed, "noise", epoch, batch)
            yield lambda tape: cvae_elbo(
                model, x_train[idx], train.encodings[c_train[idx]], noise_seed, tape, cfg.beta
            )[0]

    def validate():
        recon, kl = ad.evaluate_rows(
            lambda tape, rows: _elbo_rows(
                model, x_val[rows], val.encodings[c_val[rows]], val_eps[rows], tape
            ),
            len(x_val),
            cfg.batch_size,
        )
        return {"val_loss": recon + kl * cfg.beta, "val_recon": recon, "val_kl": kl}

    return fit(model, cfg.epochs, steps, validate, cfg.lr, "cvae")


def hallucinate(model: CvaeModel, ctx_encoding, m: int, seed: int) -> np.ndarray:
    """``m`` decoder means from standard-normal latents, clamped to the
    observation range, as an (m, obs_dim) array. Deterministic given
    (model, seed, m)."""
    if m < 0:
        raise ValueError("sample count must be >= 0")
    z = np.random.default_rng(seed).standard_normal((m, model.d_z))
    return model.decode(z, ctx_encoding)
