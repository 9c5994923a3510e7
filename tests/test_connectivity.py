import math

import numpy as np
import pytest

from htmem.autodiff import MlpParams, grad_check, sigmoid
from htmem.connectivity import (
    ConnectivityModel,
    CpcBatch,
    CpcConfig,
    SptmBatch,
    SptmClassifier,
    SptmConfig,
    connectivity_init,
    cpc_loss,
    sample_cpc_batch,
    sample_sptm_batch,
    score_pair,
    sptm_bce_loss,
    sptm_init,
    successor_ranking_rate,
    train_cpc,
    train_sptm,
)
from htmem.data import DataConfig, collect_dataset
from htmem.world import BlockWorld, WorldSpec

CHI2_CRIT_DF4_P01 = 13.2767  # chi-square critical value, df=4, alpha=0.01


def identity_scorer(d=4, w=None, cls=ConnectivityModel, **extra):
    """Encoder passes (obs + ctx) straight through; logits fully hand-driven."""
    encoder = MlpParams([np.eye(d)], [np.zeros(d)], "identity")
    w = np.zeros((d, d)) if w is None else w
    if cls is SptmClassifier:
        return cls(encoder, w, 2, 2, d, 5, 20)
    return cls(encoder, w, 2, 2, d, 5)


def make_cpc_batch(anchors, positives, negatives, ctx_dim=2):
    b, n_neg, _ = negatives.shape
    return CpcBatch(
        anchors,
        positives,
        negatives,
        np.zeros((b, ctx_dim)),
        np.ones(b, dtype=int),
        np.zeros((b, n_neg), dtype=bool),
    )


def tiny_dataset(mode="state", horizon_len=6):
    world = BlockWorld(WorldSpec(mode=mode, max_walls=1))
    cfg = DataConfig(
        n_contexts=4,
        trajectories_per_context=4,
        trajectory_length=horizon_len,
        n_holdout=1,
        seed=0,
    )
    return world, collect_dataset(world, cfg)


# ---------------------------------------------------------------------------
# scoring


def test_zero_bilinear_scores_zero_everywhere():
    model = identity_scorer()
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = rng.uniform(size=2), rng.uniform(size=2)
        assert score_pair(model, a, b, np.zeros(2)) == 0.0
    logits = model.pairwise_logits(rng.uniform(size=(6, 2)), np.zeros(2))
    assert np.array_equal(logits, np.zeros((6, 6)))


def test_score_pair_is_directed():
    rng = np.random.default_rng(1)
    model = identity_scorer(w=rng.normal(size=(4, 4)))
    a, b = rng.uniform(size=2), rng.uniform(size=2)
    ctx = rng.uniform(size=2)
    assert score_pair(model, a, b, ctx) != pytest.approx(score_pair(model, b, a, ctx))


def test_pairwise_logits_match_score_pair():
    rng = np.random.default_rng(2)
    model = identity_scorer(w=rng.normal(size=(4, 4)))
    obs = rng.uniform(size=(5, 2))
    ctx = rng.uniform(size=2)
    logits = model.pairwise_logits(obs, ctx)
    for i in range(5):
        for j in range(5):
            assert logits[i, j] == pytest.approx(
                score_pair(model, obs[j], obs[i], ctx), abs=1e-12
            )


# ---------------------------------------------------------------------------
# cpc loss


def test_cpc_loss_uniform_logits_equals_log_n():
    model = identity_scorer()
    rng = np.random.default_rng(3)
    batch = make_cpc_batch(
        rng.uniform(size=(5, 2)), rng.uniform(size=(5, 2)), rng.uniform(size=(5, 7, 2))
    )
    assert cpc_loss(model, batch) == pytest.approx(math.log(8), abs=1e-12)


def test_cpc_loss_saturated_positive_is_near_zero():
    w = np.zeros((4, 4))
    w[0, 0] = 100.0
    model = identity_scorer(w=w)
    anchors = np.tile([1.0, 0.0], (3, 1))
    positives = np.tile([1.0, 0.0], (3, 1))
    negatives = np.tile([0.0, 1.0], (3, 15, 1))
    loss = cpc_loss(model, make_cpc_batch(anchors, positives, negatives))
    assert loss < 1e-12


def test_cpc_loss_matches_hand_softmax_cross_entropy():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(4, 4))
    model = identity_scorer(w=w)
    anchors = rng.uniform(size=(2, 2))
    positives = rng.uniform(size=(2, 2))
    negatives = rng.uniform(size=(2, 5, 2))
    ctx = np.zeros((2, 2))

    # independent oracle: explicit per-anchor softmax cross-entropy
    expected = 0.0
    for i in range(2):
        za = np.concatenate([anchors[i], ctx[i]])
        cands = np.concatenate([positives[i][None], negatives[i]])
        logits = np.array(
            [np.concatenate([c, ctx[i]]) @ w @ za for c in cands]
        )
        m = logits.max()
        expected += (m + math.log(np.exp(logits - m).sum())) - logits[0]
    expected /= 2.0

    got = cpc_loss(model, make_cpc_batch(anchors, positives, negatives))
    assert got == pytest.approx(expected, abs=1e-12)


def test_cpc_loss_empty_batch_raises():
    model = identity_scorer()
    empty = make_cpc_batch(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 3, 2)))
    with pytest.raises(ValueError):
        cpc_loss(model, empty)


def test_cpc_loss_gradients_pass_fd_check():
    world, ds = tiny_dataset()
    cfg = CpcConfig(d=5, hidden=(8,), horizon=3, n_candidates=5, batch_anchors=4, seed=1)
    model = connectivity_init(world.obs_dim, world.ctx_dim, cfg)
    model.bilinear[...] = np.random.default_rng(5).normal(size=(5, 5)) * 0.2
    batch = sample_cpc_batch(ds, world, [0, 1], cfg, seed=7)

    def build(tape):
        return cpc_loss(model, batch, tape)

    report = grad_check(build, model.parameters())
    assert report.passed, report.max_rel_error


def test_cpc_loss_finite_for_extreme_logits():
    w = np.zeros((4, 4))
    w[0, 0] = 500.0
    w[1, 1] = -500.0
    model = identity_scorer(w=w)
    anchors = np.tile([1.0, 1.0], (2, 1))
    positives = np.tile([1.0, 1.0], (2, 1))
    negatives = np.tile([1.0, 0.0], (2, 6, 1))
    loss = cpc_loss(model, make_cpc_batch(anchors, positives, negatives))
    assert np.isfinite(loss) and loss >= 0.0


# ---------------------------------------------------------------------------
# batch samplers


def test_sample_cpc_batch_offsets_and_context_membership():
    world, ds = tiny_dataset()
    cfg = CpcConfig(horizon=1, n_candidates=6, batch_anchors=40, phi=0.0)
    batch = sample_cpc_batch(ds, world, [0, 1, 2], cfg, seed=0)
    assert np.all(batch.offsets == 1)
    assert not batch.halluc_mask.any()

    # positives are the exact k-step successors and negatives stay in-context
    obs_index = {}
    for cid in (0, 1, 2):
        for traj in ds.trajectories[cid]:
            for t, o in enumerate(traj.observations):
                obs_index[o.tobytes()] = (cid, traj.trajectory_id, t)
    for i in range(len(batch)):
        a_cid, a_tid, a_t = obs_index[batch.anchors[i].tobytes()]
        p_cid, p_tid, p_t = obs_index[batch.positives[i].tobytes()]
        assert (a_cid, a_tid) == (p_cid, p_tid)
        assert p_t - a_t == batch.offsets[i]
        for j in range(batch.negatives.shape[1]):
            n_cid, n_tid, n_t = obs_index[batch.negatives[i, j].tobytes()]
            assert n_cid == a_cid
            assert (n_tid, n_t) != (p_tid, p_t)  # positive never among negatives


def test_sample_cpc_batch_uses_hallucination_pool():
    world, ds = tiny_dataset()
    cfg = CpcConfig(horizon=3, n_candidates=16, batch_anchors=30, phi=0.25)
    pool = {cid: np.full((10, 2), 0.5) + cid * 0.01 for cid in (0, 1, 2)}
    batch = sample_cpc_batch(ds, world, [0, 1, 2], cfg, seed=3, hallucinations=pool)
    per_anchor = batch.halluc_mask.sum(axis=1)
    assert np.all(per_anchor == round(0.25 * 15))


def test_sample_cpc_batch_offset_histogram_uniform():
    world, ds = tiny_dataset()
    cfg = CpcConfig(horizon=5, n_candidates=4, batch_anchors=10_000, phi=0.0)
    batch = sample_cpc_batch(ds, world, [0, 1, 2], cfg, seed=11)
    counts = np.bincount(batch.offsets, minlength=6)[1:]
    expected = len(batch) / 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_DF4_P01, counts


def test_sample_sptm_batch_labeling_rule():
    world, ds = tiny_dataset(horizon_len=8)
    cfg = SptmConfig(horizon=3, negative_offset=6, batch_pairs=60, phi=0.0)
    batch = sample_sptm_batch(ds, world, [0, 1], cfg, seed=2)
    obs_index = {}
    for cid in (0, 1):
        for traj in ds.trajectories[cid]:
            for t, o in enumerate(traj.observations):
                obs_index[o.tobytes()] = (cid, traj.trajectory_id, t)
    for i in range(len(batch)):
        f_cid, f_tid, f_t = obs_index[batch.from_obs[i].tobytes()]
        t_cid, t_tid, t_t = obs_index[batch.to_obs[i].tobytes()]
        assert f_cid == t_cid
        if batch.labels[i] == 1.0:
            assert f_tid == t_tid and 1 <= t_t - f_t <= 3
        else:
            assert f_tid != t_tid or abs(t_t - f_t) >= 6



def test_sample_sptm_batch_without_far_partners_raises():
    # one 20-step trajectory: most anchors have no step 20 or more away
    world = BlockWorld(WorldSpec(max_walls=1))
    ds = collect_dataset(
        world, DataConfig(n_contexts=1, trajectories_per_context=1, trajectory_length=20, n_holdout=0)
    )
    cfg = SptmConfig(horizon=5, batch_pairs=64, phi=0.0)
    assert cfg.l == 20
    with pytest.raises(ValueError, match="context 0"):
        sample_sptm_batch(ds, world, [0], cfg, seed=0)

# ---------------------------------------------------------------------------
# sptm loss


def test_sptm_loss_zero_logits_is_log_two():
    model = identity_scorer(cls=SptmClassifier)
    rng = np.random.default_rng(6)
    batch = SptmBatch(
        rng.uniform(size=(8, 2)),
        rng.uniform(size=(8, 2)),
        np.array([1.0, 0.0] * 4),
        np.zeros((8, 2)),
        np.zeros(8, dtype=bool),
    )
    assert sptm_bce_loss(model, batch) == pytest.approx(math.log(2), abs=1e-12)


def test_sptm_loss_matches_hand_bce():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4, 4))
    model = identity_scorer(w=w, cls=SptmClassifier)
    from_obs = rng.uniform(size=(4, 2))
    to_obs = rng.uniform(size=(4, 2))
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    ctx = np.zeros((4, 2))

    expected = 0.0
    for i in range(4):
        logit = np.concatenate([to_obs[i], ctx[i]]) @ w @ np.concatenate([from_obs[i], ctx[i]])
        p = 1.0 / (1.0 + math.exp(-logit))
        expected += -(labels[i] * math.log(p) + (1 - labels[i]) * math.log(1 - p))
    expected /= 4.0

    batch = SptmBatch(from_obs, to_obs, labels, ctx, np.zeros(4, dtype=bool))
    assert sptm_bce_loss(model, batch) == pytest.approx(expected, abs=1e-12)


def test_sptm_loss_gradients_pass_fd_check():
    world, ds = tiny_dataset()
    cfg = SptmConfig(d=5, hidden=(8,), horizon=3, negative_offset=5, batch_pairs=6, seed=2)
    model = sptm_init(world.obs_dim, world.ctx_dim, cfg)
    model.bilinear[...] = np.random.default_rng(8).normal(size=(5, 5)) * 0.2
    batch = sample_sptm_batch(ds, world, [0, 1], cfg, seed=9)

    def build(tape):
        return sptm_bce_loss(model, batch, tape)

    report = grad_check(build, model.parameters())
    assert report.passed, report.max_rel_error


# ---------------------------------------------------------------------------
# training smoke (desk-scale quality asserted in the acceptance suite)


def test_train_cpc_beats_uniform_and_is_deterministic():
    world, ds = tiny_dataset()
    cfg = CpcConfig(
        d=8,
        hidden=(16,),
        horizon=3,
        n_candidates=8,
        batch_anchors=16,
        phi=0.0,
        epochs=3,
        steps_per_epoch=25,
        val_batches=4,
        seed=5,
    )
    m1 = train_cpc(ds, world, cfg)
    m2 = train_cpc(ds, world, cfg)
    assert m1.history[-1]["val_loss"] < math.log(8)
    assert m1.history[-1]["val_loss"] == pytest.approx(
        m2.history[-1]["val_loss"], abs=1e-12
    )
    rate = successor_ranking_rate(m1, ds, world, context_id=3, n_anchors=20, n_candidates=50, seed=1)
    assert 0.0 <= rate <= 1.0


def test_train_sptm_beats_chance_and_scores_one_step_pairs():
    world, ds = tiny_dataset()
    cfg = SptmConfig(
        d=8,
        hidden=(16,),
        horizon=3,
        negative_offset=6,
        batch_pairs=48,
        phi=0.0,
        epochs=10,
        steps_per_epoch=40,
        val_batches=4,
        seed=6,
    )
    model = train_sptm(ds, world, cfg)
    assert model.history[-1]["val_loss"] < math.log(2)

    # 1-step pairs from the validation context should mostly score > 0.5
    ctx_enc = world.encode_context(ds.context_by_id(2))
    hits = total = 0
    for traj in ds.trajectories[2]:
        for t in range(len(traj)):
            p = sigmoid(
                model.score_pair(traj.observations[t], traj.observations[t + 1], ctx_enc)
            )
            hits += p > 0.5
            total += 1
    assert hits / total >= 0.8


def test_checkpoints_roundtrip(tmp_path):
    world, ds = tiny_dataset()
    cpc = connectivity_init(world.obs_dim, world.ctx_dim, CpcConfig(d=6, hidden=(8,)))
    cpc.bilinear[...] = np.random.default_rng(1).normal(size=(6, 6))
    cpc.save(tmp_path / "cpc.ckpt")
    loaded = ConnectivityModel.load(tmp_path / "cpc.ckpt")
    for a, b in zip(loaded.parameters(), cpc.parameters()):
        assert np.array_equal(a, b)
    assert loaded.horizon == cpc.horizon

    sptm = sptm_init(world.obs_dim, world.ctx_dim, SptmConfig(d=6, hidden=(8,)))
    sptm.save(tmp_path / "sptm.ckpt")
    loaded2 = SptmClassifier.load(tmp_path / "sptm.ckpt")
    assert loaded2.negative_offset == 20
    for a, b in zip(loaded2.parameters(), sptm.parameters()):
        assert np.array_equal(a, b)
