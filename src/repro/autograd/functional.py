"""Stateless differentiable operations used by the GNN layers.

Everything here takes and returns :class:`~repro.autograd.tensor.Tensor`
objects (or plain arrays, which are promoted to constant tensors).  Besides
the usual dense-NN functions, the module contains the scatter/segment
primitives needed for message passing on edge lists: :func:`index_select`,
:func:`scatter_add`, :func:`scatter_mean`, :func:`scatter_max` and
:func:`segment_softmax` (per-destination softmax over incoming edges used by
attention aggregators such as GAT).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.autograd.tensor import Tensor, _as_array, _record_op, is_grad_enabled

ArrayLike = Union[Tensor, np.ndarray, float, int]


def _ensure(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------------
# Elementwise nonlinearities
# ---------------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    return _ensure(x).relu()


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    x = _ensure(x)
    data = x.data
    positive = data > 0
    out_data = np.where(positive, data, alpha * np.expm1(np.minimum(data, 0.0)))
    out = Tensor(out_data, requires_grad=x.requires_grad, _prev=(x,) if x.requires_grad else ())
    if out.requires_grad:
        # Backward-only local derivative: alpha * exp(min(x, 0)) on the
        # negative side, 1 on the positive side.  Built only when grad is
        # recorded — evaluation passes skip both temporaries entirely.
        local = alpha * np.exp(np.minimum(data, 0.0))
        local[positive] = 1.0

        def _backward(grad: np.ndarray) -> None:
            x._accumulate(grad * local)

        out._backward = _backward
    _record_op("elu", out, (x,), alpha=alpha)
    return out


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    x = _ensure(x)
    data = x.data
    positive = data > 0
    out_data = np.where(positive, data, negative_slope * data)
    out = Tensor(out_data, requires_grad=x.requires_grad, _prev=(x,) if x.requires_grad else ())
    if out.requires_grad:
        def _backward(grad: np.ndarray) -> None:
            x._accumulate(np.where(positive, grad, negative_slope * grad))

        out._backward = _backward
    _record_op("leaky_relu", out, (x,), negative_slope=negative_slope)
    return out


def sigmoid(x: Tensor) -> Tensor:
    return _ensure(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return _ensure(x).tanh()


def identity(x: Tensor) -> Tensor:
    return _ensure(x)


ACTIVATIONS = {
    "relu": relu,
    "elu": elu,
    "leaky_relu": leaky_relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "identity": identity,
    "none": identity,
}


def activation(name: str):
    """Look up an activation function by name (raises ``KeyError`` if unknown)."""
    return ACTIVATIONS[name]


# ---------------------------------------------------------------------------
# Softmax array helpers
# ---------------------------------------------------------------------------
# The Tensor softmax ops below and their replay kernels in ``capture``
# compute the forward through these; callers holding plain logits
# (``GNNModel.predict_proba``, gradient search) call them directly.
def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """NumPy softmax matching :func:`softmax` bit-for-bit."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """NumPy log-softmax matching :func:`log_softmax` bit-for-bit."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _ensure(x)
    # Delegate to the array helper so the Tensor op and its replay kernel
    # can never drift apart bit-wise.
    out_data = softmax_array(x.data, axis=axis)
    out = Tensor(out_data, requires_grad=x.requires_grad, _prev=(x,) if x.requires_grad else ())
    if out.requires_grad:
        def _backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot))

        out._backward = _backward
    _record_op("softmax", out, (x,), axis=axis)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _ensure(x)
    out_data = log_softmax_array(x.data, axis=axis)
    out = Tensor(out_data, requires_grad=x.requires_grad, _prev=(x,) if x.requires_grad else ())
    if out.requires_grad:
        soft = np.exp(out_data)

        def _backward(grad: np.ndarray) -> None:
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

        out._backward = _backward
    _record_op("log_softmax", out, (x,), axis=axis)
    return out


# ---------------------------------------------------------------------------
# Normalisation statistics
# ---------------------------------------------------------------------------
def batch_norm_stats(x: Tensor, running_mean: np.ndarray,
                     running_var: np.ndarray, momentum: float) -> Tensor:
    """Update BatchNorm running statistics as a recordable identity op.

    Returns ``x`` unchanged (the gradient passes straight through); the side
    effect is the in-place exponential moving average of the batch mean/var
    into ``running_mean`` / ``running_var``.  Exposing the update as a
    first-class op (instead of a hidden attribute rebind inside the module)
    lets the capture engine re-run it on every replayed epoch — the buffers
    are updated in place, so the arrays the tape holds stay the module's own
    registered buffers.
    """
    x = _ensure(x)
    data = x.data
    batch_mean = data.mean(axis=0)
    batch_var = data.var(axis=0)
    running_mean *= (1.0 - momentum)
    running_mean += momentum * batch_mean
    running_var *= (1.0 - momentum)
    running_var += momentum * batch_var
    out = Tensor(data, requires_grad=x.requires_grad,
                 _prev=(x,) if x.requires_grad else ())
    if out.requires_grad:
        def _backward(grad: np.ndarray) -> None:
            x._accumulate(grad)

        out._backward = _backward
    _record_op("bn_stats", out, (x,), running_mean=running_mean,
               running_var=running_var, momentum=momentum)
    return out


# ---------------------------------------------------------------------------
# Regularisation
# ---------------------------------------------------------------------------
def dropout(x: Tensor, p: float, training: bool = True, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero entries with probability ``p`` and rescale."""
    x = _ensure(x)
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    # The RNG draws float64 uniforms regardless of compute dtype, so the
    # consumed stream (and therefore replica determinism) is dtype-invariant.
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = Tensor(x.data * mask, requires_grad=x.requires_grad, _prev=(x,) if x.requires_grad else ())
    if out.requires_grad:
        def _backward(grad: np.ndarray) -> None:
            x._accumulate(grad * mask)

        out._backward = _backward
    _record_op("dropout", out, (x,), p=p, rng=rng)
    return out


def drop_node(x: Tensor, p: float, training: bool = True,
              rng: Optional[np.random.Generator] = None) -> Tensor:
    """DropNode (GRAND-style): zero whole feature rows and rescale the rest.

    Equivalent to multiplying by an inverted-dropout mask of shape
    ``(num_rows, 1)``; exposed as a first-class op (rather than a constant
    mask times a tensor) so the capture engine can re-draw the mask from the
    seeded RNG stream on every replayed epoch, exactly like the dynamic
    engine would.
    """
    x = _ensure(x)
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("drop_node probability must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    mask = _as_array((rng.random((x.shape[0], 1)) >= p) / (1.0 - p))
    out = Tensor(x.data * mask, requires_grad=x.requires_grad,
                 _prev=(x,) if x.requires_grad else ())
    if out.requires_grad:
        def _backward(grad: np.ndarray) -> None:
            x._accumulate(grad * mask)

        out._backward = _backward
    _record_op("drop_node", out, (x,), p=p, rng=rng)
    return out


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------
def nll_loss(log_probs: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of integer targets given log-probabilities."""
    log_probs = _ensure(log_probs)
    target = np.asarray(target, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), target]
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def _cross_entropy_forward(logits_data: np.ndarray, target: np.ndarray,
                           reduction: str) -> tuple:
    """Fused forward of softmax cross-entropy, shared with the capture engine.

    Computes, in one pass, exactly what the historical
    ``nll_loss(log_softmax(logits))`` composition computed — same NumPy
    expressions in the same order, so the fusion is bit-identical — and
    returns ``(loss, log_probs)`` (the log-probabilities feed the closed-form
    backward).
    """
    log_probs = log_softmax_array(logits_data, axis=-1)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), target]
    loss = -picked
    if reduction == "none":
        return loss, log_probs
    total = np.asarray(loss.sum(axis=None, keepdims=False), dtype=log_probs.dtype)
    if reduction == "sum":
        return total, log_probs
    if reduction == "mean":
        # The composition multiplied the summed Tensor by Tensor(1/n); the
        # scalar cast and multiply below reproduce that bit-for-bit.
        return total * np.asarray(1.0 / n, dtype=log_probs.dtype), log_probs
    raise ValueError(f"unknown reduction {reduction!r}")


def _cross_entropy_backward(grad: np.ndarray, log_probs: np.ndarray,
                            soft: np.ndarray, target: np.ndarray,
                            reduction: str) -> np.ndarray:
    """Closed-form gradient of :func:`_cross_entropy_forward` w.r.t. logits.

    Mirrors the historical mean → sum → neg → gather → log-softmax backward
    chain step by step (the broadcast copy, the ``np.add.at`` scatter, the
    row-sum correction), so the fused gradient matches the composition to the
    bit.
    """
    n = log_probs.shape[0]
    if reduction == "mean":
        per_row = np.broadcast_to(grad * np.asarray(1.0 / n, dtype=log_probs.dtype),
                                  (n,)).copy()
    elif reduction == "sum":
        per_row = np.broadcast_to(grad, (n,)).copy()
    else:
        per_row = grad
    picked_grad = -per_row
    scattered = np.zeros(log_probs.shape, dtype=log_probs.dtype)
    # One target per row, so fancy assignment scatters exactly what the
    # composition's ``np.add.at`` onto zeros produced — minus its unbuffered
    # per-element loop.
    scattered[np.arange(n), target] = picked_grad
    return scattered - soft * scattered.sum(axis=-1, keepdims=True)


def cross_entropy(logits: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy with integer targets.

    One fused op (single array pass + closed-form backward) rather than the
    ``log_softmax`` → gather → ``mean`` composition it replaces; values and
    gradients are bit-identical to that composition (asserted in
    ``tests/test_capture.py``), and the capture engine records it as a single
    program step.
    """
    logits = _ensure(logits)
    target = np.asarray(target, dtype=np.int64)
    out_data, log_probs = _cross_entropy_forward(logits.data, target, reduction)
    out = Tensor(out_data, requires_grad=logits.requires_grad,
                 _prev=(logits,) if logits.requires_grad else ())
    if out.requires_grad:
        soft = np.exp(log_probs)

        def _backward(grad: np.ndarray) -> None:
            logits._accumulate(_cross_entropy_backward(grad, log_probs, soft,
                                                       target, reduction))

        out._backward = _backward
    _record_op("cross_entropy", out, (logits,), target=target, reduction=reduction)
    return out


def soft_cross_entropy(log_probs: Tensor, soft_target: np.ndarray) -> Tensor:
    """Cross-entropy against a soft (probability) target distribution."""
    log_probs = _ensure(log_probs)
    soft_target = np.asarray(soft_target, dtype=log_probs.data.dtype)
    return -(Tensor(soft_target) * log_probs).sum(axis=-1).mean()


def mse_loss(prediction: Tensor, target: ArrayLike, reduction: str = "mean") -> Tensor:
    prediction = _ensure(prediction)
    diff = prediction - _ensure(target).detach()
    squared = diff * diff
    if reduction == "mean":
        return squared.mean()
    if reduction == "sum":
        return squared.sum()
    return squared


def binary_cross_entropy_with_logits(logits: Tensor, target: ArrayLike, reduction: str = "mean") -> Tensor:
    """Numerically stable sigmoid + binary cross entropy."""
    logits = _ensure(logits)
    target_arr = np.asarray(target.data if isinstance(target, Tensor) else target,
                            dtype=logits.data.dtype)
    x = logits.data
    loss_data = np.maximum(x, 0.0) - x * target_arr + np.log1p(np.exp(-np.abs(x)))
    out = Tensor(loss_data, requires_grad=logits.requires_grad, _prev=(logits,) if logits.requires_grad else ())
    if out.requires_grad:
        sig = 1.0 / (1.0 + np.exp(-x))

        def _backward(grad: np.ndarray) -> None:
            logits._accumulate(grad * (sig - target_arr))

        out._backward = _backward
    # No replay twin: recording the kind makes a capture trace bail out
    # (softly) instead of silently dropping the op from the program.
    _record_op("bce_logits", out, (logits,))
    if reduction == "mean":
        return out.mean()
    if reduction == "sum":
        return out.sum()
    return out


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_ensure(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _prev=tuple(tensors) if requires else ())
    if requires:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

        out._backward = _backward
    _record_op("concat", out, tuple(tensors), axis=axis)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_ensure(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _prev=tuple(tensors) if requires else ())
    if requires:
        def _backward(grad: np.ndarray) -> None:
            slices = np.moveaxis(grad, axis, 0)
            for tensor, piece in zip(tensors, slices):
                tensor._accumulate(piece)

        out._backward = _backward
    _record_op("stack", out, tuple(tensors), axis=axis)
    return out


# ---------------------------------------------------------------------------
# Gather / scatter primitives for message passing
# ---------------------------------------------------------------------------
def _scatter_sum(values: np.ndarray, index: np.ndarray, dim_size: int,
                 aggregate) -> np.ndarray:
    """Sum ``values`` rows into ``dim_size`` buckets.

    With ``aggregate`` (a CSR built by ``GraphTensors.edge_scatter``) the
    scatter is one sparse matmul; the ``np.add.at`` fallback accumulates in
    the same edge order, so both paths are bit-identical.
    """
    if aggregate is not None:
        flat = values.reshape(values.shape[0], -1)
        return np.asarray(aggregate @ flat).reshape((dim_size,) + values.shape[1:])
    out = np.zeros((dim_size,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def index_select(x: Tensor, index: np.ndarray, scatter=None) -> Tensor:
    """Select rows of ``x`` (equivalent to ``x[index]`` along axis 0).

    ``scatter`` optionally provides the CSR scatter operator for the
    backward pass (rows of the gradient summed back into ``x``).
    """
    x = _ensure(x)
    index = np.asarray(index, dtype=np.int64)
    out = Tensor(x.data[index], requires_grad=x.requires_grad, _prev=(x,) if x.requires_grad else ())
    if out.requires_grad:
        def _backward(grad: np.ndarray) -> None:
            x._accumulate(_scatter_sum(grad, index, x.shape[0], scatter))

        out._backward = _backward
    _record_op("index_select", out, (x,), index=index, scatter=scatter)
    return out


def scatter_add(src: Tensor, index: np.ndarray, dim_size: int, aggregate=None) -> Tensor:
    """Sum rows of ``src`` into ``dim_size`` buckets given by ``index``."""
    src = _ensure(src)
    index = np.asarray(index, dtype=np.int64)
    out_data = _scatter_sum(src.data, index, dim_size, aggregate)
    out = Tensor(out_data, requires_grad=src.requires_grad, _prev=(src,) if src.requires_grad else ())
    if out.requires_grad:
        def _backward(grad: np.ndarray) -> None:
            src._accumulate(grad[index])

        out._backward = _backward
    _record_op("scatter_add", out, (src,), index=index, dim_size=dim_size,
               aggregate=aggregate)
    return out


def scatter_mean(src: Tensor, index: np.ndarray, dim_size: int) -> Tensor:
    """Average rows of ``src`` into ``dim_size`` buckets given by ``index``."""
    src = _ensure(src)
    index = np.asarray(index, dtype=np.int64)
    counts = np.bincount(index, minlength=dim_size).astype(src.data.dtype)
    counts = np.maximum(counts, 1.0).reshape((dim_size,) + (1,) * (len(src.shape) - 1))
    summed = scatter_add(src, index, dim_size)
    return summed * Tensor(1.0 / counts)


def scatter_max(src: Tensor, index: np.ndarray, dim_size: int) -> Tensor:
    """Per-bucket maximum of rows of ``src`` (empty buckets yield zero)."""
    src = _ensure(src)
    index = np.asarray(index, dtype=np.int64)
    out_shape = (dim_size,) + src.shape[1:]
    out_data = np.full(out_shape, -np.inf, dtype=src.data.dtype)
    np.maximum.at(out_data, index, src.data)
    empty = ~np.isfinite(out_data)
    out_data[empty] = 0.0
    out = Tensor(out_data, requires_grad=src.requires_grad, _prev=(src,) if src.requires_grad else ())
    if out.requires_grad:
        argmax_mask = (src.data == out_data[index]) & ~empty[index]
        # Split gradient evenly between ties to keep the op well defined.
        tie_counts = np.zeros(out_shape, dtype=src.data.dtype)
        np.add.at(tie_counts, index, argmax_mask.astype(src.data.dtype))
        tie_counts = np.maximum(tie_counts, 1.0)

        def _backward(grad: np.ndarray) -> None:
            src._accumulate(argmax_mask * grad[index] / tie_counts[index])

        out._backward = _backward
    _record_op("scatter_max", out, (src,), index=index, dim_size=dim_size)
    return out


def segment_softmax(scores: Tensor, index: np.ndarray, dim_size: int,
                    aggregate=None) -> Tensor:
    """Softmax over groups of entries sharing the same ``index`` value.

    Used for attention coefficients: ``scores`` holds one value per edge and
    ``index`` holds the destination node of each edge; the result sums to one
    over the incoming edges of every node.
    """
    scores = _ensure(scores)
    index = np.asarray(index, dtype=np.int64)
    out_data = segment_softmax_array(scores.data, index, dim_size, aggregate)

    out = Tensor(out_data, requires_grad=scores.requires_grad, _prev=(scores,) if scores.requires_grad else ())
    if out.requires_grad:
        def _backward(grad: np.ndarray) -> None:
            weighted = grad * out_data
            group_dot = _scatter_sum(weighted, index, dim_size, aggregate)
            scores._accumulate(out_data * (grad - group_dot[index]))

        out._backward = _backward
    _record_op("segment_softmax", out, (scores,), index=index, dim_size=dim_size,
               aggregate=aggregate)
    return out


def segment_softmax_array(scores: np.ndarray, index: np.ndarray, dim_size: int,
                          aggregate=None) -> np.ndarray:
    """Array forward of :func:`segment_softmax`."""
    group_shape = (dim_size,) + scores.shape[1:]
    group_max = np.full(group_shape, -np.inf, dtype=scores.dtype)
    np.maximum.at(group_max, index, scores)
    group_max[~np.isfinite(group_max)] = 0.0
    shifted = scores - group_max[index]
    exp = np.exp(shifted)
    denom = np.maximum(_scatter_sum(exp, index, dim_size, aggregate), 1e-16)
    return exp / denom[index]


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------
def weighted_sum(tensors: Sequence[Tensor], weights: Tensor) -> Tensor:
    """Weighted sum ``sum_i weights[i] * tensors[i]`` with differentiable weights."""
    stacked = stack(list(tensors), axis=0)
    n = stacked.shape[0]
    w = weights.reshape((n,) + (1,) * (stacked.ndim - 1))
    return (stacked * w).sum(axis=0)


def l2_penalty(parameters) -> Tensor:
    """Sum of squared entries of every parameter (used for weight decay in losses)."""
    total = Tensor(0.0)
    for param in parameters:
        total = total + (param * param).sum()
    return total
