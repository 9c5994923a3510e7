import hashlib
import json
import struct

import numpy as np
import pytest

from htmem.autodiff import CheckpointError, MlpParams, save_parts
from htmem.config import config_from_dict
from htmem.connectivity import ConnectivityModel
from htmem.controller import InverseModel
from htmem.cvae import CvaeModel
from htmem.data import split_context_ids, training_stacks
from htmem.pipeline import train_all, weight_scheme_ablation, zero_shot_benchmark
from htmem.world import BlockWorld

# Small enough to train every model and run the benchmark in about a second
# per mode; large enough that every stage draws random numbers.
TINY = {
    "data": {
        "n_contexts": 8,
        "trajectories_per_context": 4,
        "trajectory_length": 12,
        "n_holdout": 2,
        "val_fraction": 0.2,
        "seed": 3,
    },
    "cvae": {"hidden": [16], "epochs": 3, "batch_size": 64},
    "cpc": {"hidden": [16], "d": 8, "batch_anchors": 8, "epochs": 2, "steps_per_epoch": 4, "val_batches": 2},
    "sptm": {"hidden": [16], "d": 8, "batch_pairs": 16, "epochs": 2, "steps_per_epoch": 4, "val_batches": 2},
    "inverse": {"hidden": [16], "epochs": 3},
    "planning": {"m_samples": 20},
    "execution": {"n": 30, "r": 15},
    "evaluation": {"n_tasks": 2, "halluc_pool": 16},
}


# TINY's benchmarks take no step that ``step`` rejects. The agents of six
# state tasks of 60 steps press into walls, so the executor applies the
# repeats of rejected steps at once.
PRESSING = {
    **TINY,
    "world": {"mode": "state"},
    "execution": {"n": 60, "r": 15},
    "evaluation": {**TINY["evaluation"], "n_tasks": 6},
}


def run_digests(tmp_path, mode):
    """sha256 of the report JSON and of each checkpoint of one fixed-seed run."""
    cfg = config_from_dict({**TINY, "world": {"mode": mode}})
    art = train_all(cfg)
    zero_shot_benchmark(art).to_json(tmp_path / "report.json")
    for name in ("cvae", "cpc", "sptm", "inverse"):
        getattr(art, name).save(tmp_path / f"{name}.ckpt")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("mode", ["state", "raster"])
def test_fixed_seed_runs_write_identical_reports_and_checkpoints(tmp_path, mode):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = run_digests(tmp_path / "a", mode)
    assert sorted(first) == ["cpc.ckpt", "cvae.ckpt", "inverse.ckpt", "report.json", "sptm.ckpt"]
    # strict JSON: no NaN or Infinity tokens, though inverse_only makes no plan
    json.loads((tmp_path / "a" / "report.json").read_text(), parse_constant=reject_constant)
    assert run_digests(tmp_path / "b", mode) == first


def test_weight_scheme_ablation_runs_each_score_model_under_each_scheme(tmp_path):
    cfg = config_from_dict({**TINY, "world": {"mode": "state"}})
    art = train_all(cfg)
    report = weight_scheme_ablation(art)
    schemes = ["sptm_threshold", "inverse", "normalized"]
    assert report.methods() == [f"{score}/{s}" for score in ("cpc", "sptm") for s in schemes]
    for method in report.methods():
        rows = report.rows_for(method)
        assert len(rows) == cfg.evaluation.ablation_tasks
        assert {r.scheme for r in rows} == {method.split("/")[1]}
    report.to_json(tmp_path / "a.json")
    weight_scheme_ablation(art).to_json(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_the_pressing_benchmark_rejects_steps_and_applies_their_repeats(monkeypatch):
    calls = rejected = 0
    step = BlockWorld.step

    def counting_step(self, ctx, state, action):
        nonlocal calls, rejected
        moved = step(self, ctx, state, action)
        calls += 1
        rejected += moved == state
        return moved

    art = train_all(config_from_dict(PRESSING))
    monkeypatch.setattr(BlockWorld, "step", counting_step)
    report = zero_shot_benchmark(art)
    assert rejected >= 1
    assert sum(row.steps for row in report.rows) > calls  # repeats taken without a call


@pytest.mark.parametrize(
    "data, split",
    [
        # val_fraction would take every non-held-out context
        ({"n_contexts": 3, "n_holdout": 1, "val_fraction": 0.9}, ([0], [1], [2])),
        # no validation context: validate on the training context
        ({"n_contexts": 2, "n_holdout": 1}, ([0], [], [1])),
    ],
    ids=["val-capped", "no-val"],
)
def test_small_splits_keep_a_training_context_and_run(data, split):
    cfg = config_from_dict({**TINY, "data": {**TINY["data"], **data}})
    art = train_all(cfg)
    assert split_context_ids(art.dataset) == split
    train, val = training_stacks(art.dataset, art.world)
    assert train.context_ids == tuple(split[0])
    assert val.context_ids == tuple(split[1] or split[0][:1])
    for model in (art.cvae, art.cpc, art.sptm, art.inverse):
        assert model.history[-1]["epoch"] == "best"
    assert len(zero_shot_benchmark(art).rows) == 3 * cfg.evaluation.n_tasks


def _mlp(sizes, rng):
    return MlpParams(
        [rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        [rng.normal(size=o) for o in sizes[1:]],
    )


def _models():
    """Each model with its checkpoint tag, header ints and parts in file order."""
    rng = np.random.default_rng(0)
    enc, dec = _mlp([6, 5, 4], rng), _mlp([6, 5, 2], rng)
    cvae = CvaeModel(enc, dec, 2, 4, 2)
    w = rng.normal(size=(3, 3))
    cpc_enc = _mlp([6, 5, 3], rng)
    cpc = ConnectivityModel(cpc_enc, w, 2, 4, 3, 5)
    sptm_enc = _mlp([6, 4, 3], rng)
    sptm = ConnectivityModel(sptm_enc, w.T.copy(), 2, 4, 3, 5, 17)
    net = _mlp([8, 5, 2], rng)
    inverse = InverseModel(net, 0.07, 2, 4)
    return [
        (cvae, "CVAE", [2, 4, 2], [enc, dec]),
        (cpc, "CPCE", [2, 4, 3, 5], [cpc_enc, w]),
        (sptm, "SPTM", [2, 4, 3, 5, 17], [sptm_enc, sptm.bilinear]),
        (inverse, "INVM", [2, 4], [np.array([0.07]), net]),
    ]


def _documented_layout(kind, header, parts):
    """The checkpoint bytes, written from the layout ``save_parts`` documents:
    magic, u32 version 1, kind tag, u32 meta count and meta ints (the header,
    then activation slot 0, size count and sizes per MLP), u64 float count and
    little-endian float64s (per MLP layer the weights, then the biases)."""
    meta, floats = list(header), []
    for part in parts:
        if isinstance(part, np.ndarray):
            floats += part.ravel().tolist()
            continue
        sizes = [part.weights[0].shape[1]] + [w.shape[0] for w in part.weights]
        meta += [0, len(sizes)] + sizes
        for w, b in zip(part.weights, part.biases):
            floats += w.ravel().tolist() + b.ravel().tolist()
    return (
        b"HTMC"
        + struct.pack("<I", 1)
        + kind.encode("ascii")
        + struct.pack("<I", len(meta))
        + b"".join(struct.pack("<I", m) for m in meta)
        + struct.pack("<Q", len(floats))
        + b"".join(struct.pack("<d", f) for f in floats)
    )


@pytest.mark.parametrize("index", range(4), ids=["CVAE", "CPCE", "SPTM", "INVM"])
def test_checkpoint_layout_is_pinned(tmp_path, index):
    model, kind, header, parts = _models()[index]
    expected = _documented_layout(kind, header, parts)
    model.save(tmp_path / "saved.ckpt")
    assert (tmp_path / "saved.ckpt").read_bytes() == expected

    loaded = type(model).load(tmp_path / "saved.ckpt")
    loaded.save(tmp_path / "resaved.ckpt")
    assert (tmp_path / "resaved.ckpt").read_bytes() == expected
    assert getattr(loaded, "negative_offset", None) == getattr(model, "negative_offset", None)


@pytest.mark.parametrize("index", range(4), ids=["CVAE", "CPCE", "SPTM", "INVM"])
def test_checkpoint_load_rejects_unconsumed_payload_and_foreign_tags(tmp_path, index):
    model, kind, header, parts = _models()[index]
    model.save(tmp_path / "model.ckpt")
    raw = (tmp_path / "model.ckpt").read_bytes()
    n_meta = int.from_bytes(raw[12:16], "little")
    count_at = 16 + 4 * n_meta
    n_floats = int.from_bytes(raw[count_at : count_at + 8], "little")
    extra_float = raw[:count_at] + (n_floats + 1).to_bytes(8, "little") + raw[count_at + 8 :] + bytes(8)
    extra_meta = raw[:12] + (n_meta + 1).to_bytes(4, "little") + raw[16:count_at] + bytes(4) + raw[count_at:]
    for name, payload in (("float", extra_float), ("meta", extra_meta)):
        (tmp_path / f"{name}.ckpt").write_bytes(payload)
        with pytest.raises(CheckpointError):
            type(model).load(tmp_path / f"{name}.ckpt")
    foreign = raw[:8] + (b"INVM" if kind == "CVAE" else b"CVAE") + raw[12:]
    (tmp_path / "foreign.ckpt").write_bytes(foreign)
    with pytest.raises(CheckpointError):
        type(model).load(tmp_path / "foreign.ckpt")


def _net(*sizes):
    return _mlp(list(sizes), np.random.default_rng(0))


@pytest.mark.parametrize(
    "model_type, kind, header, parts",
    [
        (CvaeModel, "CVAE", [2, 4, 2], [_net(6, 5, 4), _net(5, 5, 2)]),  # decoder takes d_z + ctx = 6
        (ConnectivityModel, "CPCE", [2, 4, 3, 5], [_net(10, 5, 3), np.zeros((3, 3))]),  # obs + ctx = 6
        (ConnectivityModel, "SPTM", [2, 4, 3, 5, 17], [_net(6, 5, 4), np.zeros((3, 3))]),  # d = 3
        (InverseModel, "INVM", [2, 4], [np.array([0.07]), _net(9, 5, 2)]),  # 2 obs + ctx = 8
    ],
    ids=["CVAE", "CPCE", "SPTM", "INVM"],
)
def test_checkpoint_load_rejects_mlp_sizes_that_contradict_the_header(
    tmp_path, model_type, kind, header, parts
):
    save_parts(tmp_path / "model.ckpt", kind, header, parts)
    with pytest.raises(CheckpointError, match="but the header implies"):
        model_type.load(tmp_path / "model.ckpt")
