import hashlib
import math

import numpy as np
import pytest

from htmem import autodiff as ad
from htmem.autodiff import (
    CheckpointError,
    MlpParams,
    OptimizerState,
    ShapeError,
    Tape,
    adam_init,
    adam_step,
    load_parts,
    mlp_apply,
    mlp_init,
    save_parts,
)
from gradcheck import GradCheckReport, grad_check


def straight_line_forward(params, x):
    """Independent MLP oracle: no shared code with mlp_apply internals."""
    h = np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = w @ h + b
        if i < len(params.weights) - 1:
            h = np.where(h > 0, h, 0.0)
    return h


def test_mlp_identity_passthrough():
    params = MlpParams([np.eye(3)], [np.zeros(3)])
    x = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(mlp_apply(params, x), x)


def test_mlp_single_layer_relu_between_hidden_only():
    # relu applies between layers, not on the final output
    params = MlpParams([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
    out = mlp_apply(params, np.array([-1.0, 2.0]))
    assert np.allclose(out, [0.0, 2.0])


def test_mlp_matches_straight_line_oracle():
    rng = np.random.default_rng(7)
    for trial in range(10):
        params = mlp_init([5, 9, 4, 3], seed=100 + trial)
        x = rng.normal(size=5)
        got = mlp_apply(params, x)
        want = straight_line_forward(params, x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_mlp_batch_and_tape_paths_agree():
    params = mlp_init([4, 8, 2], seed=3)
    xs = np.random.default_rng(0).normal(size=(6, 4))
    plain = mlp_apply(params, xs)
    tape = Tape()
    taped = mlp_apply(params, xs, tape)
    assert np.max(np.abs(plain - taped.value)) < 1e-15


def test_mlp_dimension_mismatch_raises():
    params = mlp_init([4, 2], seed=0)
    with pytest.raises(ShapeError):
        mlp_apply(params, np.zeros(3))


def context_case(kind, rng):
    """(rows, context, rows with the context appended) for one context shape."""
    if kind == "grouped":  # n > 1 rows per context
        x, ctx = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 2))
        tiled = np.broadcast_to(ctx[:, None], (3, 5, 2))
    elif kind == "per_row":  # n = 1
        x, ctx = rng.normal(size=(6, 4)), rng.normal(size=(6, 2))
        tiled = ctx
    else:  # one context shared by every row
        x, ctx = rng.normal(size=(7, 4)), rng.normal(size=2)
        tiled = np.broadcast_to(ctx, (7, 2))
    return x, ctx, np.concatenate([x, tiled], axis=-1)


CONTEXT_KINDS = ["grouped", "per_row", "shared"]


@pytest.mark.parametrize("kind", CONTEXT_KINDS)
def test_mlp_context_equals_the_appended_context(kind):
    params = mlp_init([6, 8, 3], seed=4)
    x, ctx, appended = context_case(kind, np.random.default_rng(2))
    want = mlp_apply(params, appended)
    plain = mlp_apply(params, x, context=ctx)
    taped = mlp_apply(params, x, Tape(), context=ctx).value
    assert plain.shape == taped.shape == want.shape == x.shape[:-1] + (3,)
    assert np.max(np.abs(plain - want)) < 1e-12
    assert np.max(np.abs(taped - want)) < 1e-12
    one_row = mlp_apply(params, x.reshape(-1, 4)[0], context=ctx.reshape(-1, 2)[0])
    assert np.max(np.abs(one_row - want.reshape(-1, 3)[0])) < 1e-12


@pytest.mark.parametrize("kind", CONTEXT_KINDS)
def test_mlp_context_gradients(kind):
    params = mlp_init([6, 8, 3], seed=6)
    x, ctx, appended = context_case(kind, np.random.default_rng(3))

    def build(tape):
        out = mlp_apply(params, x, tape, context=ctx)
        return ad.mean_all(ad.mul(out, out))

    report = grad_check(build, params.parameters())
    assert report.passed, report.per_param

    def row_gradients(rows, context):
        # the layers of mlp_apply through ad.linear on a watched 2-D leaf;
        # a context row conditions its share of consecutive rows
        tape = Tape()
        node = h = tape.watch(rows.reshape(-1, rows.shape[-1]))
        context = None if context is None else np.atleast_2d(context)
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            h = ad.linear(h, tape.watch(w), tape.watch(b), context if i == 0 else None)
            if i < len(params.weights) - 1:
                h = ad.relu(h)
        tape.backward(ad.mean_all(ad.mul(h, h)))
        return node.grad.reshape(rows.shape), [tape.grad(p) for p in params.parameters()]

    def parameter_gradients(rows, context):
        tape = Tape()
        out = mlp_apply(params, rows, tape, context=context)
        tape.backward(ad.mean_all(ad.mul(out, out)))
        return [tape.grad(p) for p in params.parameters()]

    # row and parameter gradients equal those of the appended rows
    rows_grad, grads = row_gradients(x, ctx)
    appended_grad, want = row_gradients(appended.copy(), None)
    assert np.max(np.abs(rows_grad - appended_grad[..., :4])) < 1e-12
    for g, w, m in zip(grads, want, parameter_gradients(x, ctx)):
        assert np.max(np.abs(g - w)) < 1e-12
        assert np.max(np.abs(m - w)) < 1e-12


def test_mlp_context_shape_mismatch_raises():
    params = mlp_init([6, 2], seed=0)
    with pytest.raises(ShapeError):
        mlp_apply(params, np.zeros((3, 4)), context=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        mlp_apply(params, np.zeros((3, 4)), context=np.zeros((3, 3)))


def test_context_models_keep_their_checkpoint_bytes(tmp_path):
    # The first layer stays one (out, in + c) weight, so a model that now
    # applies its context apart from its rows writes the same bytes as the
    # concatenating code did; digests recorded from that code.
    from htmem.connectivity import CpcConfig, SptmConfig, connectivity_init
    from htmem.controller import InverseConfig, inverse_init
    from htmem.cvae import CvaeConfig, cvae_init

    models = {
        "cpc": connectivity_init(3, 2, CpcConfig(hidden=(8,), d=4)),
        "sptm": connectivity_init(3, 2, SptmConfig(hidden=(8,), d=4)),
        "cvae": cvae_init(3, 2, CvaeConfig(hidden=(8,), d_z=2)),
        "inverse": inverse_init(3, 2, 0.1, InverseConfig(hidden=(8,))),
    }
    digests = {
        "cpc": "8a972f86c4cefe9394c3ed52e4ea3d82e6ad63c9b1ffb828d98950522c128f76",
        "sptm": "0cfd36400add3d730420e95ee2dec0081a74d8d3d05a6035e35d46a094a5e087",
        "cvae": "fa0a75798497c8133b8eb26e8eb74481fbde5dcc8cb8ee7c59aafe53f4206f01",
        "inverse": "cdfec86001603c5d9efa8ce4609f234150c822bc8c80016a8c752b8d1be6174f",
    }
    for name, model in models.items():
        model.save(tmp_path / name)
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digests[name], name
    loaded = type(models["cpc"]).load(tmp_path / "cpc")
    obs, ctx = np.random.default_rng(5).normal(size=(4, 3)), np.array([0.2, -0.7])
    appended = np.concatenate([obs, np.broadcast_to(ctx, (4, 2))], axis=1)
    assert np.max(np.abs(mlp_apply(loaded.encoder, obs, context=ctx) - mlp_apply(loaded.encoder, appended))) < 1e-12


def test_backward_linear_loss_gradient_is_input():
    tape = Tape()
    w = np.array([0.5, -1.0, 2.0])
    x = np.array([3.0, 4.0, 5.0])
    wn = tape.watch(w)
    loss = ad.sum_axis(ad.mul(wn, tape.leaf(x)), 0)
    tape.backward(loss)
    assert np.allclose(tape.grad(w), x)


def test_backward_constant_loss_zero_gradients():
    tape = Tape()
    w = np.ones(4)
    _ = tape.watch(w)
    loss = tape.leaf(np.array(3.0))
    tape.backward(loss)
    assert np.array_equal(tape.grad(w), np.zeros(4))


def test_backward_rejects_nonscalar_loss():
    tape = Tape()
    node = tape.leaf(np.ones(3))
    with pytest.raises(ShapeError):
        tape.backward(node)


def test_watch_accumulates_across_repeated_use():
    # same parameter used twice must receive the sum of both contributions
    w = np.array([2.0])
    tape = Tape()
    wn = tape.watch(w)
    wn2 = tape.watch(w)
    assert wn is wn2
    loss = ad.sum_axis(ad.add(ad.mul(wn, tape.leaf([3.0])), ad.mul(wn, tape.leaf([5.0]))), 0)
    tape.backward(loss)
    assert np.allclose(tape.grad(w), [8.0])


def test_logsumexp_matches_reference_and_is_stable():
    x = np.array([[1e3, 1e3 + 1.0], [-1e3, 0.0]])
    tape = Tape()
    out = ad.logsumexp(tape.leaf(x))
    ref = np.array(
        [1e3 + np.log(1 + np.e), np.log(1 + np.exp(-1e3))]
    )
    assert np.all(np.isfinite(out.value))
    assert np.allclose(out.value, ref)


def stored_softmax_logsumexp(x):
    """The value and softmax of a log-sum-exp formed together in the forward
    pass, as the tape op once stored them."""
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=-1, keepdims=True)
    return np.squeeze(m + np.log(s), axis=-1), e / s


def test_logsumexp_equals_the_stored_softmax_form_bit_for_bit():
    rng = np.random.default_rng(0)
    matrices = [
        rng.normal(scale=rng.uniform(0.1, 100.0), size=(rng.integers(1, 40), 16))
        for _ in range(200)
    ]
    extreme = rng.normal(size=(8, 16))
    extreme[::2, ::3], extreme[1::2, 1::3] = 800.0, -800.0  # rows of +-800 among small entries
    matrices += [extreme, np.full((2, 5), 800.0), np.full((2, 5), -800.0), rng.normal(size=(3, 4, 16))]
    for x in matrices:
        value, softmax = stored_softmax_logsumexp(x)
        assert ad.evaluate(lambda tape: ad.mean_all(ad.logsumexp(tape.leaf(x)))) == float(value.mean())
        assert ad.logsumexp_np(x).tobytes() == value.tobytes()
        tape = Tape()
        xn = tape.watch(x)
        out = ad.logsumexp(xn)
        assert out.value.tobytes() == value.tobytes()
        g = rng.normal(size=out.value.shape)
        tape.backward(ad.sum_axis(ad.reshape(ad.mul(out, tape.leaf(g)), (-1,)), 0))
        assert tape.grad(x).tobytes() == (np.expand_dims(g, -1) * softmax).tobytes()


def test_grad_check_passes_on_composite_loss():
    params = mlp_init([3, 6, 2], seed=5)
    x = np.random.default_rng(1).normal(size=(4, 3))

    def build(tape):
        out = mlp_apply(params, x, tape)
        return ad.mean_all(ad.mul(out, out))

    report = grad_check(build, params.parameters())
    assert isinstance(report, GradCheckReport)
    assert report.passed, report.max_rel_error


def test_unwatched_input_gets_no_gradient_and_parameter_gradients_are_unchanged():
    params = mlp_init([3, 6, 2], seed=5)
    x = np.random.default_rng(1).normal(size=(4, 3))

    def build(tape, x_node=None):
        out = mlp_apply(params, x if x_node is None else x_node, tape)
        return ad.mean_all(ad.mul(out, out))

    def gradients(watch_input):
        tape = Tape()
        x_node = tape.watch(x) if watch_input else tape.leaf(x)
        tape.backward(build(tape, x_node))
        return x_node.grad, [tape.grad(p) for p in params.parameters()]

    x_grad, grads = gradients(watch_input=False)
    assert x_grad is None
    x_grad_watched, grads_watched = gradients(watch_input=True)
    assert x_grad_watched.shape == x.shape
    for g, g_watched in zip(grads, grads_watched):
        assert np.array_equal(g, g_watched)
    # the loss of test_grad_check_passes_on_composite_loss
    assert grad_check(build, params.parameters()).passed


def test_grad_check_linear_loss_near_exact():
    w = np.array([1.0, -2.0, 0.5])
    coef = np.array([2.0, 3.0, -1.0])

    def build(tape):
        return ad.sum_axis(ad.mul(tape.watch(w), tape.leaf(coef)), 0)

    report = grad_check(build, [w])
    assert report.max_rel_error < 1e-9


def test_finite_difference_oracle_on_softmax_cross_entropy():
    # CPC-shaped loss: logits via bilinear form, softmax CE on column 0
    rng = np.random.default_rng(9)
    enc = mlp_init([4, 8, 3], seed=2)
    W = rng.normal(size=(3, 3)) * 0.3
    anchors = rng.uniform(size=(5, 4))
    cands = rng.uniform(size=(5, 6, 4))

    def build(tape):
        za = mlp_apply(enc, anchors, tape)
        zc = ad.reshape(mlp_apply(enc, cands.reshape(-1, 4), tape), (5, 6, 3))
        proj = ad.linear(za, tape.watch(W), tape.leaf(np.zeros(3)))
        logits = ad.sum_axis(ad.mul(zc, ad.reshape(proj, (5, 1, 3))), -1)
        pos = ad.reshape(ad.slice_cols(logits, 0, 1), (-1,))
        return ad.mean_all(ad.sub(ad.logsumexp(logits), pos))

    report = grad_check(build, enc.parameters() + [W])
    assert report.passed, report.per_param


def test_adam_zero_gradient_leaves_params_unchanged():
    p = np.array([1.0, 2.0])
    state = adam_init([p])
    before = p.copy()
    adam_step([p], [np.zeros(2)], state)
    assert np.array_equal(p, before)
    assert state.step == 1


def test_adam_first_step_magnitude_and_direction():
    p = np.array([0.0, 0.0])
    g = np.array([0.3, -2.0])
    state = adam_init([p], lr=1e-3)
    adam_step([p], [g], state)
    # bias-corrected first step is -lr * sign(g) up to the eps perturbation
    assert np.allclose(p, [-1e-3, 1e-3], atol=1e-6)


def test_adam_converges_on_quadratic_bowl():
    target = np.array([0.7, -0.4, 1.3])
    p = np.zeros(3)
    state = adam_init([p], lr=0.05)
    for _ in range(2000):
        grad = 2.0 * (p - target)
        adam_step([p], [grad], state)
    assert np.max(np.abs(p - target)) < 1e-6


def test_adam_shape_mismatch_raises():
    p = np.zeros(3)
    state = adam_init([p])
    with pytest.raises(ShapeError):
        adam_step([p], [np.zeros(4)], state)


def test_adam_step_updates_in_place_and_equals_the_textbook_formula():
    rng = np.random.default_rng(12)
    params = [rng.normal(size=(3, 4)), rng.normal(size=5)]
    ref = [p.copy() for p in params]
    m, v = [np.zeros_like(p) for p in ref], [np.zeros_like(p) for p in ref]
    state = adam_init(params, lr=0.01)
    arrays = [*params, *state.m, *state.v]
    b1, b2, eps, lr = ad.ADAM_BETA1, ad.ADAM_BETA2, ad.ADAM_EPS, 0.01
    for t in range(1, 21):
        grads = [rng.normal(size=p.shape) for p in params]
        adam_step(params, grads, state)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            mhat = m[i] / (1.0 - b1**t)
            vhat = v[i] / (1.0 - b2**t)
            ref[i] = ref[i] - lr * mhat / (np.sqrt(vhat) + eps)
        assert all(np.array_equal(p, r) for p, r in zip(params, ref)), t
    assert all(a is b for a, b in zip(arrays, [*params, *state.m, *state.v]))


def test_adam_deterministic_trajectory():
    def run():
        p = np.array([1.0, -1.0])
        state = adam_init([p], lr=0.01)
        rng = np.random.default_rng(4)
        for _ in range(50):
            adam_step([p], [rng.normal(size=2)], state)
        return p

    assert np.array_equal(run(), run())


def _one_mlp(n_in, n_out):
    return lambda header: ((MlpParams, n_in, n_out),)


def test_checkpoint_roundtrip_and_rejections(tmp_path):
    params = mlp_init([3, 5, 2], seed=8)
    path = tmp_path / "model.ckpt"
    save_parts(path, "CPCE", [], [params])

    header, (rebuilt,) = load_parts(path, {"CPCE": 0}, _one_mlp(3, 2))
    assert header == []
    assert rebuilt.sizes() == [3, 5, 2]
    for a, b in zip(rebuilt.parameters(), params.parameters()):
        assert np.array_equal(a, b)

    with pytest.raises(CheckpointError):
        load_parts(path, {"CVAE": 0}, _one_mlp(3, 2))

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(CheckpointError):
        load_parts(bad, {"CPCE": 0}, _one_mlp(3, 2))

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointError):
        load_parts(truncated, {"CPCE": 0}, _one_mlp(3, 2))


def test_checkpoint_floats_little_endian_layout(tmp_path):
    path = tmp_path / "tiny.ckpt"
    save_parts(path, "TEST", [7], [np.array([1.5, -2.0])])
    raw = path.read_bytes()
    assert raw[:4] == b"HTMC"
    assert raw[8:12] == b"TEST"
    tail = np.frombuffer(raw[-16:], dtype="<f8")
    assert np.array_equal(tail, [1.5, -2.0])


def test_checkpoint_rejects_each_malformed_field(tmp_path):
    path = tmp_path / "model.ckpt"
    save_parts(path, "TEST", [7], [mlp_init([2, 3], seed=0)])
    raw = path.read_bytes()  # meta ints 7, 0 (relu), 2, 2, 3 at bytes 16..36; 9 floats
    unknown_act = raw[:20] + (1).to_bytes(4, "little") + raw[24:]
    # meta 7, 0, 1, 2 and no floats: one size, so no layer
    one_size = raw[:12] + b"".join(v.to_bytes(4, "little") for v in (4, 7, 0, 1, 2)) + bytes(8)
    cases = [
        (b"XXXX" + raw[4:], {"TEST": 1}, _one_mlp(2, 3), "bad magic"),
        (raw[:4] + (2).to_bytes(4, "little") + raw[8:], {"TEST": 1}, _one_mlp(2, 3), "version 2"),
        (raw[:20], {"TEST": 1}, _one_mlp(2, 3), "truncated header"),
        (raw[:-8], {"TEST": 1}, _one_mlp(2, 3), "float payload"),
        (raw, {"CVAE": 1}, _one_mlp(2, 3), "kind 'TEST'"),
        (raw, {"TEST": 6}, _one_mlp(2, 3), "header is truncated"),
        (raw, {"TEST": 4}, _one_mlp(2, 3), "MLP meta is truncated"),
        (unknown_act, {"TEST": 1}, _one_mlp(2, 3), "unknown activation"),
        (raw, {"TEST": 1}, lambda header: ((MlpParams, 2, 3), (2,)), "parameters are truncated"),
        (raw, {"TEST": 1}, lambda header: (), "do not consume"),
        (raw, {"TEST": 1}, _one_mlp(2, 4), "implies 2 inputs and 4 outputs"),
        (one_size, {"TEST": 1}, _one_mlp(2, 2), r"sizes \[2\] has no layer"),
    ]
    for i, (payload, header_sizes, layout, message) in enumerate(cases):
        broken = tmp_path / f"broken{i}.ckpt"
        broken.write_bytes(payload)
        with pytest.raises(CheckpointError, match=message):
            load_parts(broken, header_sizes, layout)
    header, (mlp,) = load_parts(path, {"TEST": 1}, _one_mlp(2, 3))
    assert header == [7] and mlp.sizes() == [2, 3]


def test_sigmoid_stable_at_extremes():
    vals = ad.sigmoid(np.array([-500.0, 0.0, 500.0]))
    assert np.all(np.isfinite(vals))
    assert vals[1] == 0.5
    assert vals[0] < 1e-100 and vals[2] > 1.0 - 1e-15


def masked_sigmoid(x):
    """The boolean-mask form: each sign's entries gathered, computed and
    scattered back."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_masked_form_bit_for_bit():
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308]
    for m in (709.0, 745.0, 800.0):
        edges += [m, -m]
    x = np.concatenate([rng.normal(scale=30.0, size=(302, 302)).ravel(), edges])
    assert ad.sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()
    assert ad.sigmoid(x.reshape(-1, 2)).shape == (x.size // 2, 2)
    assert ad.sigmoid(1.0) == masked_sigmoid(1.0)
    assert np.isnan(ad.sigmoid(np.array([np.nan]))).all()


def test_derived_seed_is_stable_and_distinct():
    a = ad.derived_seed(1, "x", 2)
    assert a == ad.derived_seed(1, "x", 2)
    assert a != ad.derived_seed(1, "x", 3)


def list_derived_seed(*parts):
    """``derived_seed`` as it first was: the entropy passed as a Python list."""
    entropy = []
    for p in parts:
        if isinstance(p, str):
            entropy.extend(p.encode("utf-8"))
        else:
            entropy.append(int(p) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def test_derived_seed_equals_the_list_entropy_form():
    rng = np.random.default_rng(43)
    words = ["", "x", "roll", "ctx", "val-noise", "plan", "é", "日本", "\U0001f600", "a\x00b"]
    cases = [(), ("",), (0,), (2**32 - 1,), (2**32,), (-1,), (-(2**31),), (-5, "é"), ("日本", 3, "")]
    for _ in range(400):
        n = int(rng.integers(1, 6))
        cases.append(tuple(
            words[int(rng.integers(len(words)))] if rng.random() < 0.4 else int(rng.integers(-(2**40), 2**40))
            for _ in range(n)
        ))
    for parts in cases:
        assert ad.derived_seed(*parts) == list_derived_seed(*parts), parts


def test_uniform_softmax_loss_equals_log_n():
    # hand value: all-equal logits over 8 candidates
    tape = Tape()
    logits = tape.leaf(np.zeros((3, 8)))
    pos = ad.reshape(ad.slice_cols(logits, 0, 1), (-1,))
    loss = ad.mean_all(ad.sub(ad.logsumexp(logits), pos))
    assert abs(float(loss.value) - math.log(8)) < 1e-12


class _Vector:
    """One parameter vector trained toward a target by squared error."""

    def __init__(self):
        self.w = np.zeros(2)
        self.history = []

    def parameters(self):
        return [self.w]

    def loss(self, target, tape=None):
        t = Tape() if tape is None else tape
        diff = ad.sub(t.watch(self.w), np.asarray(target, dtype=float))
        loss = ad.sum_axis(ad.mul(diff, diff), 0)
        return loss if tape is not None else float(loss.value)


def test_fit_raises_the_single_training_diverged_with_the_label():
    model = _Vector()

    def steps(epoch):
        yield lambda tape: ad.mul(model.loss([1.0, 1.0], tape), np.inf)

    with pytest.raises(ad.TrainingDiverged, match="toy"), np.errstate(invalid="ignore"):
        ad.fit(model, 3, steps, lambda: {"val_loss": 0.0}, 0.1, "toy")


def test_fit_restores_the_parameters_of_the_best_row():
    # training pulls w through the validation target and past it, so the best
    # validation epoch lies well before the last one
    model = _Vector()

    def steps(epoch):
        yield lambda tape: model.loss([1.0, 1.0], tape)

    def validate():
        return {"val_loss": model.loss([0.5, 0.5]), "w0": float(model.w[0])}

    ad.fit(model, 30, steps, validate, 0.1, "toy")
    epochs = model.history[1:-1]
    best = model.history[-1]
    assert [row["epoch"] for row in model.history] == list(range(31)) + ["best"]
    assert best["train_loss"] is None
    assert best["val_loss"] == min(row["val_loss"] for row in epochs)
    assert best["val_loss"] < epochs[-1]["val_loss"]
    assert validate() == {k: v for k, v in best.items() if k not in ("epoch", "train_loss")}


def test_fit_rejects_zero_epochs():
    with pytest.raises(ValueError, match="epochs"):
        ad.fit(_Vector(), 0, lambda epoch: iter(()), lambda: {"val_loss": 0.0}, 0.1, "toy")
