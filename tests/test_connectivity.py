import math

import numpy as np
import pytest

from htmem.autodiff import MlpParams, grad_check, sigmoid
from htmem.connectivity import (
    ConnectivityModel,
    ContextStack,
    CpcBatch,
    CpcConfig,
    SptmBatch,
    SptmConfig,
    connectivity_init,
    cpc_loss,
    sample_cpc_batch,
    sample_sptm_batch,
    sptm_bce_loss,
    successor_ranking_rate,
    train_cpc,
    train_sptm,
)
from htmem.data import DataConfig, collect_dataset, split_context_ids
from htmem.world import BlockWorld, WorldSpec

CHI2_CRIT_DF4_P01 = 13.2767  # chi-square critical value, df=4, alpha=0.01
CHI2_CRIT_DF72_P001 = 114.835  # df=72, alpha=0.001
CHI2_CRIT_DF172_P001 = 235.053  # df=172, alpha=0.001


def identity_scorer(d=4, w=None, negative_offset=None):
    """Encoder passes (obs + ctx) straight through; logits fully hand-driven."""
    encoder = MlpParams([np.eye(d)], [np.zeros(d)], "identity")
    w = np.zeros((d, d)) if w is None else w
    return ConnectivityModel(encoder, w, 2, 2, d, 5, negative_offset)


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


def numbered_stack(n_ctx, n_traj, t1):
    """A stack whose one-dimensional observations are their own flat index
    ``(context * n_traj + trajectory) * t1 + step``."""
    obs = np.arange(float(n_ctx * n_traj * t1)).reshape(n_ctx, n_traj, t1, 1)
    empty = np.zeros(n_ctx, dtype=int)
    return ContextStack(tuple(range(n_ctx)), obs, np.zeros((n_ctx, 1)), np.empty((0, 1)), empty, empty)


def chi2_uniform(counts_by_cell):
    """Summed Pearson statistic of each cell's counts against uniform."""
    total = 0.0
    for counts in counts_by_cell.values():
        counts = np.asarray(counts, dtype=float)
        expected = counts.sum() / len(counts)
        total += float(((counts - expected) ** 2 / expected).sum())
    return total


def occurrences(ds, context_ids):
    """Observation bytes -> every (context, trajectory, step) showing it."""
    where = {}
    for cid in context_ids:
        for traj in ds.trajectories[cid]:
            for t, o in enumerate(traj.observations):
                where.setdefault(o.tobytes(), set()).add((cid, traj.trajectory_id, t))
    return where


# ---------------------------------------------------------------------------
# scoring


def test_zero_bilinear_scores_zero_everywhere():
    model = identity_scorer()
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = rng.uniform(size=2), rng.uniform(size=2)
        assert model.score_pair(a, b, np.zeros(2)) == 0.0
    logits = model.pairwise_logits(rng.uniform(size=(6, 2)), np.zeros(2))
    assert np.array_equal(logits, np.zeros((6, 6)))


def test_score_pair_is_directed():
    rng = np.random.default_rng(1)
    model = identity_scorer(w=rng.normal(size=(4, 4)))
    a, b = rng.uniform(size=2), rng.uniform(size=2)
    ctx = rng.uniform(size=2)
    assert model.score_pair(a, b, ctx) != pytest.approx(model.score_pair(b, a, ctx))


def test_pairwise_logits_match_score_pair():
    rng = np.random.default_rng(2)
    model = identity_scorer(w=rng.normal(size=(4, 4)))
    obs = rng.uniform(size=(5, 2))
    ctx = rng.uniform(size=2)
    logits = model.pairwise_logits(obs, ctx)
    for i in range(5):
        for j in range(5):
            assert logits[i, j] == pytest.approx(
                model.score_pair(obs[j], obs[i], ctx), abs=1e-12
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
    batch = sample_cpc_batch(ContextStack.build(ds, world, [0, 1]), cfg, seed=7)

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
    batch = sample_cpc_batch(ContextStack.build(ds, world, [0, 1, 2]), cfg, seed=0)
    assert np.all(batch.offsets == 1)
    assert not batch.halluc_mask.any()

    # positives are the exact k-step successors and negatives stay in-context.
    # A blocked move repeats an observation, so each maps to all its indices.
    where = occurrences(ds, (0, 1, 2))
    for i in range(len(batch)):
        a_at, p_at = where[batch.anchors[i].tobytes()], where[batch.positives[i].tobytes()]
        assert any(
            (a_cid, a_tid) == (p_cid, p_tid) and p_t - a_t == batch.offsets[i]
            for a_cid, a_tid, a_t in a_at
            for p_cid, p_tid, p_t in p_at
        )
        for j in range(batch.negatives.shape[1]):
            n_at = where[batch.negatives[i, j].tobytes()]
            assert any(n_cid == a_cid for n_cid, _, _ in n_at for a_cid, _, _ in a_at)
            # positive never among negatives
            assert any(n != p for n in n_at for p in p_at)


def test_sample_cpc_batch_uses_hallucination_pool():
    world, ds = tiny_dataset()
    cfg = CpcConfig(horizon=3, n_candidates=16, batch_anchors=30, phi=0.25)
    pool = {cid: np.full((10, 2), 0.5) + cid * 0.01 for cid in (0, 1, 2)}
    batch = sample_cpc_batch(ContextStack.build(ds, world, [0, 1, 2], pool), cfg, seed=3)
    per_anchor = batch.halluc_mask.sum(axis=1)
    assert np.all(per_anchor == round(0.25 * 15))


def test_sample_cpc_batch_offset_histogram_uniform():
    world, ds = tiny_dataset()
    cfg = CpcConfig(horizon=5, n_candidates=4, batch_anchors=10_000, phi=0.0)
    batch = sample_cpc_batch(ContextStack.build(ds, world, [0, 1, 2]), cfg, seed=11)
    counts = np.bincount(batch.offsets, minlength=6)[1:]
    expected = len(batch) / 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_DF4_P01, counts


def test_sample_sptm_batch_labeling_rule():
    world, ds = tiny_dataset(horizon_len=8)
    cfg = SptmConfig(horizon=3, negative_offset=6, batch_pairs=60, phi=0.0)
    batch = sample_sptm_batch(ContextStack.build(ds, world, [0, 1]), cfg, seed=2)
    where = occurrences(ds, (0, 1))
    for i in range(len(batch)):
        f_at, t_at = where[batch.from_obs[i].tobytes()], where[batch.to_obs[i].tobytes()]
        pairs = [(f, t) for f in f_at for t in t_at if f[0] == t[0]]
        if batch.labels[i] == 1.0:
            assert any(f[1] == t[1] and 1 <= t[2] - f[2] <= 3 for f, t in pairs)
        else:
            assert any(f[1] != t[1] or abs(t[2] - f[2]) >= 6 for f, t in pairs)


def test_sample_sptm_batch_without_far_partners_raises():
    # one 20-step trajectory: most anchors have no step 20 or more away
    world = BlockWorld(WorldSpec(max_walls=1))
    ds = collect_dataset(
        world, DataConfig(n_contexts=1, trajectories_per_context=1, trajectory_length=20, n_holdout=0)
    )
    cfg = SptmConfig(horizon=5, batch_pairs=64, phi=0.0)
    assert cfg.l == 20
    with pytest.raises(ValueError, match="context 0"):
        sample_sptm_batch(ContextStack.build(ds, world, [0]), cfg, seed=0)

def test_sample_cpc_batch_real_negatives_uniform_except_the_positive():
    n_ctx, n_traj, t1 = 2, 2, 4
    n_flat = n_traj * t1
    cfg = CpcConfig(horizon=3, n_candidates=8, batch_anchors=6000, phi=0.0)
    batch = sample_cpc_batch(numbered_stack(n_ctx, n_traj, t1), cfg, seed=5)
    positive = batch.positives[:, 0].astype(int)
    negative = batch.negatives[..., 0].astype(int)
    assert np.all(negative != positive[:, None])
    assert np.all(negative // n_flat == (positive // n_flat)[:, None])  # anchor's context
    # per positive index, every other index of its context is equally likely
    counts = {}
    for p, row in zip(positive, negative):
        cell = counts.setdefault(p, np.zeros(n_flat, dtype=int))
        np.add.at(cell, row % n_flat, 1)
    assert len(counts) == n_ctx * n_traj * (t1 - 1)  # every step with a predecessor
    others = {p: np.delete(c, p % n_flat) for p, c in counts.items()}
    # df = 12 positives x (7 - 1)
    assert chi2_uniform(others) < CHI2_CRIT_DF72_P001


def test_sample_sptm_batch_far_negatives_uniform_over_the_admissible_set():
    n_traj, t1, l = 2, 8, 3
    cfg = SptmConfig(horizon=1, negative_offset=l, batch_pairs=40_000, phi=0.0)
    batch = sample_sptm_batch(numbered_stack(1, n_traj, t1), cfg, seed=4)
    far = batch.labels == 0.0
    counts = {}
    for f, t in zip(batch.from_obs[far, 0].astype(int), batch.to_obs[far, 0].astype(int)):
        cell = counts.setdefault(f, np.zeros(n_traj * t1, dtype=int))
        cell[t] += 1
    assert len(counts) == n_traj * t1
    admissible_counts = {}
    for f, cell in counts.items():
        same = np.arange(n_traj * t1) // t1 == f // t1
        admissible = ~same | (np.abs(np.arange(n_traj * t1) - f) >= l)
        assert cell[~admissible].sum() == 0
        assert cell[same & admissible].sum() > 0  # same-trajectory far steps are drawn
        admissible_counts[f] = cell[admissible]
    # df = sum over the 16 anchors of (admissible count - 1) = 172
    assert sum(len(c) - 1 for c in admissible_counts.values()) == 172
    assert chi2_uniform(admissible_counts) < CHI2_CRIT_DF172_P001


def test_context_stack_rejects_contexts_of_different_shapes():
    world, ds = tiny_dataset()
    ds.trajectories[1] = ds.trajectories[1][:-1]
    with pytest.raises(ValueError, match="context 1"):
        ContextStack.build(ds, world, [0, 1])


def test_train_cpc_encodes_each_context_once(monkeypatch):
    world, ds = tiny_dataset()
    calls = []
    encode = BlockWorld.encode_context

    def counting(self, ctx):
        calls.append(ctx.id)
        return encode(self, ctx)

    monkeypatch.setattr(BlockWorld, "encode_context", counting)
    cfg = CpcConfig(
        d=4, hidden=(8,), horizon=2, n_candidates=4, batch_anchors=4, epochs=2, steps_per_epoch=5,
        val_batches=3, seed=1,
    )
    train_cpc(ds, world, cfg)
    train_ids, val_ids, _ = split_context_ids(ds)
    assert len(calls) <= len(train_ids) + len(val_ids or train_ids[:1])


# ---------------------------------------------------------------------------
# sptm loss


def test_sptm_loss_zero_logits_is_log_two():
    model = identity_scorer(negative_offset=20)
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
    model = identity_scorer(w=w, negative_offset=20)
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
    model = connectivity_init(world.obs_dim, world.ctx_dim, cfg)
    model.bilinear[...] = np.random.default_rng(8).normal(size=(5, 5)) * 0.2
    batch = sample_sptm_batch(ContextStack.build(ds, world, [0, 1]), cfg, seed=9)

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

    sptm = connectivity_init(world.obs_dim, world.ctx_dim, SptmConfig(d=6, hidden=(8,)))
    sptm.save(tmp_path / "sptm.ckpt")
    loaded2 = ConnectivityModel.load(tmp_path / "sptm.ckpt")
    assert loaded2.negative_offset == 20
    for a, b in zip(loaded2.parameters(), sptm.parameters()):
        assert np.array_equal(a, b)
