"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tape records operations in creation order (which is already a topological
order) and the gradient pass walks the node list once in reverse. Values are
float64 numpy arrays of any shape; a loss must be a scalar. Parameter arrays
are bound to a tape with ``Tape.watch`` so that repeated use of the same
array accumulates into a single gradient. A tape's owner calls
``Tape.release`` once it has read the gradients, so that the recorded
arrays are freed then and not by the cyclic garbage collector. Losses
record on the tape they are given; ``evaluate`` reads a loss's value on a
forward-only tape of its own, which records nothing, so that each value is
freed as soon as the loss code stops using it. ``evaluate_rows`` does the
same for per-row losses a chunk of rows at a time.

Also hosts the small-MLP container, the adaptive-moment optimizer and the
training loop every learned model uses, and the checkpoint codec every
learned model saves and loads through: ``save_parts`` writes a model's
header ints and parts, and ``load_parts`` checks the file and rebuilds them.
"""

from __future__ import annotations

import ctypes
import logging
import struct
import sys
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# Training steps and plan queries each allocate and free the same few
# megabytes. glibc returns the free top of its heap to the system whenever it
# exceeds the trim threshold, and the next step or query then faults every
# page back in. Asking it to keep this much free at the top stops that. It
# also fixes glibc's mmap threshold at 128 KB: arrays that large are mapped and
# faulted afresh whenever the free top cannot hold them, as in a process whose
# heap has not grown yet and once long-lived arrays fill the pad.
HEAP_TOP_PAD = 64 << 20
_M_TOP_PAD = -2  # mallopt parameter number in glibc's malloc.h


def _pad_heap_top(nbytes: int) -> None:
    """Set glibc's M_TOP_PAD; nothing happens where the C library has no
    ``mallopt``."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, nbytes)


_pad_heap_top(HEAP_TOP_PAD)


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match the expected model."""


class TrainingDiverged(RuntimeError):
    """A training loss or a parameter became non-finite."""


# ---------------------------------------------------------------------------
# numpy helpers shared with inference-only code paths


def sigmoid(x):
    """Logistic function that never overflows: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, both from e = e^-|x|. Since e <= 1, the numerator
    max(e, x >= 0) is 1 where x >= 0 and e elsewhere, and NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def logsumexp_np(x, axis=-1):
    x = np.asarray(x, dtype=float)
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(x - m), axis=axis))


def derived_seed(*parts) -> int:
    """Stable integer seed derived from a tuple of ints/strings."""
    entropy = []
    for p in parts:
        if isinstance(p, str):
            entropy.extend(p.encode("utf-8"))
        else:
            entropy.append(int(p) & 0xFFFFFFFF)
    # an array skips SeedSequence's per-element coercion of a list; same seed
    return int(np.random.SeedSequence(np.array(entropy, dtype=np.uint32)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# tape


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Node:
    """One recorded value. ``needs_grad`` holds for watched arrays and for
    every node computed from one; the backward pass leaves the others alone."""

    __slots__ = ("tape", "value", "parents", "vjp", "grad", "needs_grad")

    def __init__(self, tape, value, parents=(), vjp=None, needs_grad=False):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        self.needs_grad = needs_grad

    def __repr__(self):
        return f"<Node shape={self.value.shape}>"


class Tape:
    """Single-owner, sequential record of operations for one backward pass.

    Every node refers to its tape and the tape lists every node, so a tape
    is only freed by the cyclic garbage collector until ``release`` drops
    the list; after that, reference counting frees each node as soon as
    nothing else holds it.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._watched: dict[int, Node] = {}

    def leaf(self, value) -> Node:
        node = Node(self, np.asarray(value, dtype=float))
        self.nodes.append(node)
        return node

    def watch(self, array: np.ndarray) -> Node:
        """Bind a parameter array; repeat calls return the same node."""
        node = self._watched.get(id(array))
        if node is None:
            node = self.leaf(array)
            node.needs_grad = True
            self._watched[id(array)] = node
        return node

    def _push(self, value, parents, vjp) -> Node:
        node = Node(self, value, parents, vjp, any(p.needs_grad for p in parents))
        self.nodes.append(node)
        return node

    def backward(self, loss: Node) -> None:
        if loss.value.ndim != 0:
            raise ShapeError(f"loss must be scalar, got shape {loss.value.shape}")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.array(1.0)
        for node in reversed(self.nodes):
            if node.grad is None or node.vjp is None:
                continue
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if g is None or not parent.needs_grad:
                    continue
                if parent.grad is None:
                    shape = parent.value.shape
                    parent.grad = g if g.shape == shape else np.broadcast_to(g, shape)
                else:
                    parent.grad = parent.grad + g

    def grad(self, array: np.ndarray) -> np.ndarray:
        """Gradient of the last backward pass w.r.t. a watched array."""
        node = self._watched.get(id(array))
        if node is None or node.grad is None:
            return np.zeros_like(np.asarray(array, dtype=float))
        return node.grad

    def release(self) -> None:
        """Forget every recorded node; the tape records nothing more."""
        self.nodes = []
        self._watched = {}


class _ForwardTape:
    """What ``evaluate`` and ``evaluate_rows`` give a loss in place of a
    Tape: it computes every value as a Tape would but keeps no node list, no
    parents and no vjp, so reference counting frees each value once the loss
    code drops it."""

    def leaf(self, value) -> Node:
        return Node(self, np.asarray(value, dtype=float))

    watch = leaf

    def _push(self, value, parents, vjp) -> Node:
        return Node(self, value)


# ---------------------------------------------------------------------------
# ops


def _binary(a: Node, b, value, grads) -> Node:
    """Record ``value(av, bv)`` for node ``a`` and a node or constant ``b``.
    ``grads(g, av, bv)`` gives the two operands' gradients, and each is
    summed back to its operand's shape after numpy broadcasting."""
    if not isinstance(b, Node):
        b = a.tape.leaf(b)
    av, bv = a.value, b.value

    def vjp(g):
        ga, gb = grads(g, av, bv)
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return a.tape._push(value(av, bv), (a, b), vjp)


def add(a: Node, b) -> Node:
    return _binary(a, b, np.add, lambda g, av, bv: (g, g))


def sub(a: Node, b) -> Node:
    return _binary(a, b, np.subtract, lambda g, av, bv: (g, -g))


def mul(a: Node, b) -> Node:
    return _binary(a, b, np.multiply, lambda g, av, bv: (g * bv, g * av))


def _first_inputs(x, context):
    """(rows, context) to give ``_affine``. A context that conditions a
    single row is appended to that row: projecting it apart saves nothing
    and costs a second product."""
    if context is not None and len(context) == len(x):
        return np.concatenate([x, context], axis=1), None
    return x, context


def _affine(x, w, b, context=None):
    """x @ w.T + b for rows x of shape (rows, in).

    With a ``context`` of shape (groups, c), ``w`` has c more columns than x,
    and they act on the context: each group's context is projected once and
    added to that group's rows, its share of consecutive rows. That equals
    appending each row's context to it.
    """
    if context is None:
        return x @ w.T + b
    k = x.shape[1]
    out = x @ w[:, :k].T
    grouped = out.reshape(len(context), -1, out.shape[1])
    grouped += (context @ w[:, k:].T + b)[:, None]
    return out


def linear(x: Node, w: Node, b: Node, context=None) -> Node:
    """Affine layer x @ w.T + b for x of shape (rows, in), with an optional
    context array as in ``_affine``; the context gets no gradient."""
    xv, wv = x.value, w.value
    c = 0 if context is None else context.shape[1]
    if xv.ndim != 2 or xv.shape[1] + c != wv.shape[1]:
        raise ShapeError(
            f"linear: input {xv.shape} and context of width {c} incompatible "
            f"with weight {wv.shape}"
        )
    k = xv.shape[1]
    inputs, context = _first_inputs(xv, context)
    value = _affine(inputs, wv, b.value, context)
    x_grad = x.needs_grad  # False for a data batch: skip the input-side product

    def vjp(g):
        gx = g @ wv[:, :k] if x_grad else None
        if context is None:
            return gx, g.T @ inputs, g.sum(axis=0)
        g_ctx = g.reshape(len(context), -1, g.shape[1]).sum(axis=1)
        gw = np.concatenate([g.T @ xv, g_ctx.T @ context], axis=1)
        return gx, gw, g_ctx.sum(axis=0)

    return x.tape._push(value, (x, w, b), vjp)


def relu(a: Node) -> Node:
    mask = a.value > 0
    return a.tape._push(a.value * mask, (a,), lambda g: (g * mask,))


def tanh(a: Node) -> Node:
    value = np.tanh(a.value)
    return a.tape._push(value, (a,), lambda g: (g * (1.0 - value * value),))


def exp(a: Node) -> Node:
    value = np.exp(a.value)
    return a.tape._push(value, (a,), lambda g: (g * value,))


def softplus(a: Node) -> Node:
    value = np.logaddexp(0.0, a.value)
    av = a.value
    return a.tape._push(value, (a,), lambda g: (g * sigmoid(av),))


def mean_all(a: Node) -> Node:
    shape = a.value.shape
    n = a.value.size
    return a.tape._push(
        np.asarray(a.value.mean()), (a,), lambda g: (np.broadcast_to(g / n, shape),)
    )


def sum_axis(a: Node, axis: int) -> Node:
    value = a.value.sum(axis=axis)
    ax = axis % a.value.ndim
    shape = a.value.shape

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, ax), shape),)

    return a.tape._push(value, (a,), vjp)


def logsumexp(a: Node) -> Node:
    """log-sum-exp over the last axis; its softmax is formed in the vjp."""

    def vjp(g):
        e = np.exp(a.value - np.max(a.value, axis=-1, keepdims=True))
        return (np.expand_dims(g, -1) * (e / e.sum(axis=-1, keepdims=True)),)

    return a.tape._push(logsumexp_np(a.value), (a,), vjp)


def reshape(a: Node, shape) -> Node:
    old = a.value.shape
    return a.tape._push(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def slice_cols(a: Node, start: int, stop: int) -> Node:
    value = a.value[..., start:stop]

    def vjp(g):
        out = np.zeros_like(a.value)
        out[..., start:stop] = g
        return (out,)

    return a.tape._push(value, (a,), vjp)


# ---------------------------------------------------------------------------
# MLP


@dataclass
class MlpParams:
    """Dense MLP weights; hidden layers apply ReLU, output is linear."""

    weights: list  # each (out_dim, in_dim)
    biases: list  # each (out_dim,)

    def sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def mlp_init(sizes, seed=0) -> MlpParams:
    """Uniform fan-in init for weights, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def mlp_apply(params: MlpParams, x, tape: Tape | None = None, context=None):
    """Forward pass over rows shaped (in,), (batch, in) or (batch, n, in);
    the output keeps the leading shape.

    ``context`` conditions the rows without being appended to them. Shaped
    (batch, c), entry i conditions the rows of batch entry i; shaped (c,),
    it conditions every row. The first layer's weight is (out, in + c), as
    if the context were appended, but it multiplies each context once, not
    once per row. A context is data and gets no gradient.

    Without a tape this is a plain numpy evaluation; with a tape the pass is
    recorded and parameter gradients become available after ``backward`` via
    ``tape.grad(w)``. A ``Node`` input is already on the tape and must be
    (rows, in): grouped rows are consecutive groups of it.
    """
    xv = x.value if isinstance(x, Node) else np.asarray(x, dtype=float)
    lead, k = xv.shape[:-1], xv.shape[-1]
    if context is not None:
        context = np.asarray(context, dtype=float)
        if context.ndim == 1:
            context = context[None]
        elif context.ndim != 2 or not lead or context.shape[0] != lead[0]:
            raise ShapeError(f"context {context.shape} does not match rows {xv.shape}")
    c = 0 if context is None else context.shape[1]
    if k + c != params.weights[0].shape[1]:
        raise ShapeError(
            f"input dim {k} + context dim {c} != first layer dim {params.weights[0].shape[1]}"
        )
    n_layers = len(params.weights)
    if tape is None:
        h, context = _first_inputs(xv.reshape(-1, k), context)
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            h = _affine(h, w, b, context if i == 0 else None)
            if i < n_layers - 1:
                h = np.maximum(h, 0.0)
        return h.reshape(lead + h.shape[1:])
    h = x if isinstance(x, Node) else tape.leaf(xv.reshape(-1, k))
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = linear(h, tape.watch(w), tape.watch(b), context if i == 0 else None)
        if i < n_layers - 1:
            h = relu(h)
    if len(lead) != 1:
        h = reshape(h, lead + h.value.shape[1:])
    return h


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators mirroring one parameter list."""

    m: list
    v: list
    step: int = 0
    lr: float = 1e-3


def adam_init(params, lr=1e-3) -> OptimizerState:
    return OptimizerState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        lr=lr,
    )


def adam_step(params, grads, state: OptimizerState) -> OptimizerState:
    """One bias-corrected update; parameter arrays are updated in place."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeError("parameter/gradient/state lengths differ")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.shape}")
        # The textbook update with every operation in its order, in place:
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        # p = p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        gg = (1.0 - b2) * g
        gg *= g
        v += gg
        step = m / (1.0 - b1**t)
        step *= state.lr
        denom = np.divide(v, 1.0 - b2**t, out=gg)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p -= step
    return state


def evaluate(build):
    """Value of ``build(tape)`` on a forward-only tape: the float of the
    returned node, or a tuple of floats when it returns a tuple of nodes.
    The tape records nothing, so a value is freed once nothing uses it, and
    the values equal those a recording Tape computes."""
    out = build(_ForwardTape())
    if isinstance(out, tuple):
        return tuple(float(node.value) for node in out)
    return float(out.value)


def evaluate_rows(build, n_rows: int, chunk: int) -> tuple:
    """Means over ``n_rows`` rows of per-row terms, built ``chunk`` rows at a
    time: ``build(tape, rows)`` records a tuple of (rows,) nodes for the
    slice ``rows`` on a forward-only tape. Each term's rows are written into
    one (n_rows,) array, whose mean is the one ``mean_all`` takes, so a pass
    holds one chunk's working set and not the whole set's. Returns a tuple
    of floats, one per term."""
    values = None
    for start in range(0, n_rows, chunk):
        rows = slice(start, min(start + chunk, n_rows))
        terms = build(_ForwardTape(), rows)
        if values is None:
            values = np.empty((len(terms), n_rows))
        for out, node in zip(values, terms):
            out[rows] = node.value
    return tuple(float(v.mean()) for v in values)


def _train_step(build_loss, params, opt: OptimizerState) -> float:
    """One optimizer step on a fresh tape; the tape and everything it
    recorded are freed on return."""
    tape = Tape()
    loss = build_loss(tape)
    tape.backward(loss)
    adam_step(params, [tape.grad(p) for p in params], opt)
    tape.release()
    return float(loss.value)


def fit(model, epochs: int, steps, validate, lr: float, label: str):
    """Adam training with the best-validation parameters restored at the end.

    ``steps(epoch)`` yields one function per optimizer step; it takes a
    fresh Tape, records the scalar loss on it and returns that node.
    ``validate()`` returns the validation columns of a history row,
    ``val_loss`` among them. ``model.history`` gains the pre-training row
    (epoch 0), one row per epoch, and a final ``"best"`` row that copies the
    validation columns of the restored epoch.
    """
    if epochs < 1:
        raise ValueError(f"{label}: epochs must be at least 1, got {epochs}")
    params = model.parameters()
    opt = adam_init(params, lr=lr)
    model.history.append({"epoch": 0, "train_loss": None, **validate()})
    best_row = best_snapshot = None
    for epoch in range(1, epochs + 1):
        epoch_loss = 0.0
        n_steps = 0
        for build_loss in steps(epoch):
            epoch_loss += _train_step(build_loss, params, opt)
            n_steps += 1
        if not np.isfinite(epoch_loss) or any(not np.all(np.isfinite(p)) for p in params):
            raise TrainingDiverged(f"{label}: non-finite values at epoch {epoch}")
        row = {"epoch": epoch, "train_loss": epoch_loss / n_steps, **validate()}
        model.history.append(row)
        log.info("%s epoch %d train %.6g val %.6g", label, epoch, row["train_loss"], row["val_loss"])
        if best_row is None or row["val_loss"] < best_row["val_loss"]:
            best_row = row
            best_snapshot = [p.copy() for p in params]
    for p, snap in zip(params, best_snapshot):
        np.copyto(p, snap)
    model.history.append(dict(best_row, epoch="best", train_loss=None))
    return model


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"HTMC"
CHECKPOINT_VERSION = 1


def save_parts(path, kind: str, header, parts) -> None:
    """Write a model as its header ints and its parts in order.

    File layout, little-endian: the magic ``HTMC``; u32 version; the 4-byte
    ASCII kind tag; u32 count of meta ints, then the meta ints as u32; u64
    count of floats, then the floats as float64. The meta ints are the
    header, then for each MlpParams part its activation slot, 0 for ReLU,
    its number of layer sizes and the sizes. The floats are the parts in
    order: an MlpParams gives each layer's weights (row-major) then its
    biases, an array gives its entries (row-major).
    """
    if len(kind) != 4:
        raise ValueError("model kind tag must be 4 characters")
    meta, arrays = [int(h) for h in header], []
    for part in parts:
        if isinstance(part, MlpParams):
            sizes = part.sizes()
            meta += [0, len(sizes), *sizes]
            arrays += part.parameters()
        else:
            arrays.append(part)
    flat = np.concatenate([np.asarray(a, dtype=float).reshape(-1) for a in arrays])
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(kind.encode("ascii"))
        fh.write(struct.pack("<I", len(meta)))
        fh.write(struct.pack(f"<{len(meta)}I", *meta))
        fh.write(struct.pack("<Q", flat.size))
        fh.write(flat.astype("<f8").tobytes())


def load_parts(path, header_sizes: dict, layout):
    """Read a checkpoint written by ``save_parts``.

    ``header_sizes`` maps each accepted kind tag to its number of header
    ints; ``layout(header)`` lists the parts in file order, each the shape
    of an array or ``(MlpParams, n_in, n_out)``, an MLP of at least one layer
    whose first and last sizes the header implies. The parts must consume the
    meta ints and the floats exactly. Returns (header, parts).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    kind = raw[8:12].decode("ascii", errors="replace")
    (n_meta,) = struct.unpack_from("<I", raw, 12)
    off = 16 + 4 * n_meta
    if len(raw) < off + 8:
        raise CheckpointError(f"{path}: truncated header")
    meta = list(struct.unpack_from(f"<{n_meta}I", raw, 16))
    (n_floats,) = struct.unpack_from("<Q", raw, off)
    if len(raw) - off - 8 != 8 * n_floats:
        raise CheckpointError(f"{path}: truncated or oversized float payload")
    flat = np.frombuffer(raw, dtype="<f8", count=n_floats, offset=off + 8).astype(float)
    if kind not in header_sizes:
        raise CheckpointError(f"{path}: kind {kind!r}, expected one of {sorted(header_sizes)}")
    m_off = header_sizes[kind]
    if len(meta) < m_off:
        raise CheckpointError(f"{path}: header is truncated")
    header, f_off, parts = meta[:m_off], 0, []

    def take(shape):
        nonlocal f_off
        size = int(np.prod(shape))
        if f_off + size > flat.size:
            raise CheckpointError(f"{path}: parameters are truncated")
        f_off += size
        return flat[f_off - size : f_off].reshape(shape).copy()

    for spec in layout(header):
        if spec[0] is not MlpParams:
            parts.append(take(spec))
            continue
        if len(meta) < m_off + 2 or meta[m_off] != 0:
            raise CheckpointError(f"{path}: MLP meta is truncated or names an unknown activation")
        n_sizes = meta[m_off + 1]
        sizes = meta[m_off + 2 : m_off + 2 + n_sizes]
        if len(sizes) < 2:
            raise CheckpointError(f"{path}: MLP of sizes {sizes} has no layer")
        if sizes[:1] + sizes[-1:] != list(spec[1:]):
            raise CheckpointError(
                f"{path}: MLP of sizes {sizes}, but the header implies {spec[1]} inputs "
                f"and {spec[2]} outputs"
            )
        m_off += 2 + n_sizes
        layers = [(take((o, i)), take((o,))) for i, o in zip(sizes[:-1], sizes[1:])]
        parts.append(MlpParams([w for w, _ in layers], [b for _, b in layers]))
    if m_off != len(meta) or f_off != flat.size:
        raise CheckpointError(f"{path}: parts do not consume the payload exactly")
    return header, parts
