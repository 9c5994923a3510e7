import hashlib

import numpy as np
import pytest

from htmem.autodiff import CheckpointError, MlpParams, pack_mlp_meta, save_checkpoint
from htmem.config import config_from_dict
from htmem.connectivity import ConnectivityModel
from htmem.controller import InverseModel
from htmem.cvae import CvaeModel
from htmem.pipeline import train_all, zero_shot_benchmark

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


def run_digests(tmp_path, mode):
    """sha256 of the report JSON and of each checkpoint of one fixed-seed run."""
    cfg = config_from_dict({**TINY, "world": {"mode": mode}})
    art = train_all(cfg)
    zero_shot_benchmark(art).to_json(tmp_path / "report.json")
    for name in ("cvae", "cpc", "sptm", "inverse"):
        getattr(art, name).save(tmp_path / f"{name}.ckpt")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}


@pytest.mark.parametrize("mode", ["state", "raster"])
def test_fixed_seed_runs_write_identical_reports_and_checkpoints(tmp_path, mode):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = run_digests(tmp_path / "a", mode)
    assert sorted(first) == ["cpc.ckpt", "cvae.ckpt", "inverse.ckpt", "report.json", "sptm.ckpt"]
    assert run_digests(tmp_path / "b", mode) == first


def _mlp(sizes, rng):
    return MlpParams(
        [rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        [rng.normal(size=o) for o in sizes[1:]],
        "relu",
    )


def _models():
    """Each model with its checkpoint tag, header ints and parts in file order."""
    rng = np.random.default_rng(0)
    enc, dec = _mlp([6, 5, 4], rng), _mlp([4, 5, 2], rng)
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


@pytest.mark.parametrize("index", range(4), ids=["CVAE", "CPCE", "SPTM", "INVM"])
def test_checkpoint_layout_is_pinned(tmp_path, index):
    model, kind, header, parts = _models()[index]
    meta, arrays = list(header), []
    for part in parts:
        if isinstance(part, np.ndarray):
            arrays.append(part)
        else:
            meta += pack_mlp_meta(part)
            arrays += part.parameters()
    save_checkpoint(tmp_path / "expected.ckpt", kind, meta, arrays)
    model.save(tmp_path / "saved.ckpt")
    expected = (tmp_path / "expected.ckpt").read_bytes()
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
