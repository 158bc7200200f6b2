"""Fused, ordering-aware kernels for the message-passing hot path.

A graph convolution is a three-operand product ``act(A @ X @ W + b)`` with a
sparse propagation operator ``A`` (n x n, ``nnz`` stored entries), dense node
states ``X`` (n x f) and a weight matrix ``W`` (f x h).  Evaluating it as a
chain of generic autograd ops — as the seed implementation's
``spmm(A, linear(x))`` did — costs one graph node, one closure and one
temporary per step, and always multiplies in the same order.

:func:`spmm_bias_act` fuses the chain into a single autograd node and picks
the cheaper association from the operand shapes:

* **transform-first** ``A @ (X W)``: ``n*f*h + nnz*h`` FLOPs,
* **propagate-first** ``(A X) @ W``: ``nnz*f + n*f*h`` FLOPs.

The ``n*f*h`` dense product appears in both, so the choice reduces to
``nnz*h`` vs ``nnz*f``: propagate first exactly when the input width is
smaller than the output width (ties keep the seed's transform-first order).
The decision depends only on shapes, so it is deterministic across the
serial/thread/process backends and between the dynamic Tensor op and its
captured replay (which mirrors :func:`spmm_bias_act_forward`).

The bias is added *after* propagation (``A X W + b``), matching the standard
GCNConv formulation; the seed applied it before propagation, which would
forbid the propagate-first order entirely.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.autograd.functional import _scatter_sum
from repro.autograd.sparse import SparseTensor, spmm
from repro.autograd.tensor import Tensor, _record_op, is_grad_enabled

#: Activations the fused kernel can apply in-place on the forward buffer
#: ("none" is the public alias of "identity" in ``functional.ACTIVATIONS``).
#: leaky_relu/elu are fused at the library defaults only — the fused call
#: takes a name, not parameters, so the hyper-parameters are pinned here and
#: must match ``functional.leaky_relu`` / ``functional.elu`` defaults.
FUSED_ACTIVATIONS = (None, "identity", "none", "relu", "leaky_relu", "elu")

#: Pinned hyper-parameters of the parameterised fused activations.
FUSED_NEGATIVE_SLOPE = 0.2
FUSED_ELU_ALPHA = 1.0


def apply_fused_activation(out: np.ndarray, activation: Optional[str]) -> None:
    """Apply a fused activation in place on the pre-activation buffer.

    Every branch is bit-identical to the unfused functional op on the same
    input: relu is the same ``np.maximum``; leaky_relu multiplies only the
    non-positive entries by the slope (IEEE multiplication is commutative,
    so ``out * slope`` matches the functional ``slope * out``); elu
    overwrites the non-positive entries with ``expm1(min(out, 0))`` — the
    ``alpha == 1.0`` scale is a bitwise no-op and therefore skipped.
    """
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "leaky_relu":
        np.multiply(out, FUSED_NEGATIVE_SLOPE, out=out,
                    where=np.logical_not(out > 0))
    elif activation == "elu":
        negative = np.logical_not(out > 0)
        np.copyto(out, np.expm1(np.minimum(out, 0.0)), where=negative)


def propagate_first(operator: SparseTensor, in_features: int, out_features: int) -> bool:
    """FLOP-count decision between ``(A X) W`` and ``A (X W)``.

    Both orders share the dense ``n*f*h`` product; the sparse side costs
    ``nnz*f`` when propagating first and ``nnz*h`` when transforming first,
    so the comparison is just ``f < h``.  Shape-only, hence deterministic.
    """
    del operator  # the decision is independent of nnz; kept for signature clarity
    return in_features < out_features


def spmm_bias_act_forward(
    matrix,
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    activation: Optional[str],
    prop_first: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Array forward of :func:`spmm_bias_act` (no graph recording).

    Returns ``(out, propagated)`` where ``propagated`` is the intermediate
    ``A @ X`` (needed by the backward pass of the propagate-first order;
    ``None`` otherwise).
    """
    if prop_first:
        propagated = matrix @ x
        out = propagated @ weight
    else:
        propagated = None
        out = matrix @ (x @ weight)
    if bias is not None:
        out += bias
    apply_fused_activation(out, activation)
    return out, propagated


def spmm_bias_act(
    operator: SparseTensor,
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """Differentiable fused ``act(A @ X @ W + b)`` with FLOP-ordered products.

    ``operator`` is a constant (no gradient), like :func:`~repro.autograd.
    sparse.spmm`.  ``activation`` must be one of :data:`FUSED_ACTIVATIONS`;
    anything else belongs outside the kernel.
    """
    if activation not in FUSED_ACTIVATIONS:
        raise ValueError(
            f"unsupported fused activation {activation!r}; choose from {FUSED_ACTIVATIONS}")
    if not isinstance(operator, SparseTensor):
        operator = SparseTensor(operator)
    if not isinstance(x, Tensor):
        x = Tensor(x)

    prop_first = propagate_first(operator, x.shape[-1], weight.shape[-1])
    bias_data = None if bias is None else bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not requires:
        out_data, propagated = spmm_bias_act_forward(
            operator.matrix, x.data, weight.data, bias_data, activation, prop_first)
        out = Tensor(out_data, requires_grad=False)
        _record_op("spmm_bias_act", out, parents, operator=operator,
                   activation=activation, prop_first=prop_first)
        return out

    # Gradient path: the elu backward local must come from the
    # *pre-activation* value (``exp(min(pre, 0))`` cannot be reconstructed
    # bit-exactly from ``expm1``), so stage the activation here instead of
    # inside ``spmm_bias_act_forward``.
    out_data, propagated = spmm_bias_act_forward(
        operator.matrix, x.data, weight.data, bias_data, None, prop_first)
    relu_mask = positive = elu_local = None
    if activation == "relu":
        apply_fused_activation(out_data, activation)
        relu_mask = out_data > 0
    elif activation == "leaky_relu":
        positive = out_data > 0
        apply_fused_activation(out_data, activation)
    elif activation == "elu":
        positive = out_data > 0
        # alpha == 1.0: the functional op's ``alpha * exp(...)`` scale is a
        # bitwise no-op, so the local derivative skips it too.
        elu_local = np.exp(np.minimum(out_data, 0.0))
        elu_local[positive] = 1.0
        apply_fused_activation(out_data, activation)
    out = Tensor(out_data, requires_grad=True, _prev=parents)

    def _backward(grad: np.ndarray) -> None:
        if relu_mask is not None:
            grad = grad * relu_mask
        elif activation == "leaky_relu":
            grad = np.where(positive, grad, FUSED_NEGATIVE_SLOPE * grad)
        elif activation == "elu":
            grad = grad * elu_local
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))
        if prop_first:
            # out = (A X) W: dW = (A X)^T g, dX = A^T (g W^T)
            if weight.requires_grad:
                weight._accumulate(propagated.T @ grad)
            if x.requires_grad:
                x._accumulate(operator.transposed_csr @ (grad @ weight.data.T))
        else:
            # out = A (X W): shared dS = A^T g, then dW = X^T dS, dX = dS W^T
            support_grad = operator.transposed_csr @ grad
            if weight.requires_grad:
                weight._accumulate(x.data.T @ support_grad)
            if x.requires_grad:
                x._accumulate(support_grad @ weight.data.T)

    out._backward = _backward
    _record_op("spmm_bias_act", out, parents, operator=operator,
               activation=activation, prop_first=prop_first)
    return out


# ---------------------------------------------------------------------------
# Generalized sampled message passing: gspmm / gsddmm over relation blocks
# ---------------------------------------------------------------------------
#: Binary message operators understood by :func:`gspmm`.
GSPMM_OPS = ("copy_lhs", "copy_rhs", "mul", "add")

#: Per-destination reductions understood by :func:`gspmm`.
GSPMM_REDUCES = ("sum", "mean", "max")

#: Edge-wise operators understood by :func:`gsddmm`.
GSDDMM_OPS = ("add", "sub", "mul", "dot", "copy_lhs", "copy_rhs")

#: Operand targets for :func:`gsddmm` (`u` = edge source row, ``v`` = edge
#: destination row, ``e`` = the edge itself).
GSDDMM_TARGETS = ("u", "v", "e")


class RelationBlock:
    """Edge-parallel view of one canonical relation's adjacency block.

    A block is the kernel-facing representation of a single relation: the
    edge endpoint arrays in deterministic CSR (row-major) order, the stored
    edge weights, and lazily built scatter/aggregate operators.  The scatter
    CSRs follow the exact recipe of ``GraphTensors.edge_scatter`` — ``S[node,
    edge] = 1`` with edges in id order — so scatter sums through a block are
    bit-identical to the homogeneous attention path.
    """

    __slots__ = ("u", "v", "num_nodes", "edge_weight",
                 "_scatters", "_aggregates", "_inverse_degrees")

    def __init__(self, u: np.ndarray, v: np.ndarray, num_nodes: int,
                 edge_weight: Optional[np.ndarray] = None) -> None:
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.num_nodes = int(num_nodes)
        self.edge_weight = edge_weight
        self._scatters: Dict[Tuple[str, str], sp.csr_matrix] = {}
        self._aggregates: Dict[str, SparseTensor] = {}
        self._inverse_degrees: Dict[str, np.ndarray] = {}

    @classmethod
    def from_structure(cls, structure: sp.spmatrix) -> "RelationBlock":
        """Build a block from a sparse structure matrix (row = u, col = v)."""
        coo = structure.tocoo()
        return cls(coo.row, coo.col, structure.shape[0], edge_weight=coo.data)

    @property
    def num_edges(self) -> int:
        return int(self.u.shape[0])

    def endpoint(self, target: str) -> np.ndarray:
        """The per-edge node index for target ``"u"`` or ``"v"``."""
        if target == "u":
            return self.u
        if target == "v":
            return self.v
        raise ValueError(f"unknown endpoint target {target!r}")

    def scatter(self, target: str, dtype) -> sp.csr_matrix:
        """CSR operator summing per-edge values into their ``u``/``v`` node."""
        key = (target, np.dtype(dtype).name)
        if key not in self._scatters:
            index = self.endpoint(target)
            matrix = sp.csr_matrix(
                (np.ones(self.num_edges, dtype=dtype),
                 (index, np.arange(self.num_edges))),
                shape=(self.num_nodes, self.num_edges))
            self._scatters[key] = matrix
        return self._scatters[key]

    def aggregate_operator(self, dtype) -> SparseTensor:
        """The ``(num_nodes, num_nodes)`` CSR computing ``out[v] = sum_u lhs[u]``.

        Used by the degenerate ``(copy_lhs, sum)`` lowering of :func:`gspmm`:
        within a row of the CSR the columns are sorted ascending, which is the
        edge-id order of this block, so the matmul accumulates in exactly the
        order of the generic scatter path.
        """
        key = np.dtype(dtype).name
        if key not in self._aggregates:
            matrix = sp.csr_matrix(
                (np.ones(self.num_edges, dtype=dtype), (self.v, self.u)),
                shape=(self.num_nodes, self.num_nodes))
            matrix.sort_indices()
            matrix.data.setflags(write=False)
            self._aggregates[key] = SparseTensor(matrix)
        return self._aggregates[key]

    def inverse_degrees(self, dtype) -> np.ndarray:
        """``1 / max(in_degree(v), 1)`` used by the mean reduction."""
        key = np.dtype(dtype).name
        if key not in self._inverse_degrees:
            degrees = np.bincount(self.v, minlength=self.num_nodes).astype(dtype)
            self._inverse_degrees[key] = 1.0 / np.maximum(degrees, 1.0)
        return self._inverse_degrees[key]


def _broadcast_edge_operand(rhs: np.ndarray, ndim: int) -> np.ndarray:
    """View an edge operand with trailing length-1 axes up to ``ndim``."""
    if rhs.ndim < ndim:
        return rhs.reshape(rhs.shape + (1,) * (ndim - rhs.ndim))
    return rhs


def _reduce_to(array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``array`` over its broadcast axes down to ``shape`` (grad helper)."""
    if array.shape == tuple(shape):
        return array
    extra = array.ndim - len(shape)
    if extra > 0:
        array = array.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (have, want) in enumerate(zip(array.shape, shape))
                 if want == 1 and have != 1)
    if axes:
        array = array.sum(axis=axes, keepdims=True)
    return array


def gspmm_forward(block: RelationBlock, op: str, reduce: str,
                  lhs: Optional[np.ndarray], rhs: Optional[np.ndarray],
                  out: Optional[np.ndarray] = None,
                  state: Optional[Dict[str, np.ndarray]] = None) -> np.ndarray:
    """Array forward of :func:`gspmm` (the Tensor op and its capture twin).

    ``out``, when given, receives the result in place.  ``state``, when
    given, is filled with the intermediates the backward pass reads (the
    gathered lhs rows, the broadcast rhs view, the mean scaling, and the
    argmax mask/tie counts of the max reduction).
    """
    keep = state if state is not None else {}
    if op == "copy_rhs":
        message = rhs
    else:
        gathered = lhs[block.u]
        if op == "copy_lhs":
            message = gathered
        else:
            rhs_b = _broadcast_edge_operand(rhs, gathered.ndim)
            message = gathered * rhs_b if op == "mul" else gathered + rhs_b
            keep["gathered"] = gathered
            keep["rhs_b"] = rhs_b
    n = block.num_nodes
    if reduce == "max":
        result = np.full((n,) + message.shape[1:], -np.inf, dtype=message.dtype)
        np.maximum.at(result, block.v, message)
        empty = ~np.isfinite(result)
        result[empty] = 0.0
        if state is not None:
            argmax_mask = (message == result[block.v]) & ~empty[block.v]
            tie_counts = np.zeros(result.shape, dtype=message.dtype)
            np.add.at(tie_counts, block.v, argmax_mask.astype(message.dtype))
            keep["argmax_mask"] = argmax_mask
            keep["tie_counts"] = np.maximum(tie_counts, 1.0)
    else:
        result = _scatter_sum(message, block.v, n,
                              block.scatter("v", message.dtype))
        if reduce == "mean":
            inv_deg = block.inverse_degrees(message.dtype)
            inv_deg = inv_deg.reshape((n,) + (1,) * (message.ndim - 1))
            result = result * inv_deg
            keep["inv_deg"] = inv_deg
    if out is not None:
        np.copyto(out, result)
        return out
    return result


def gspmm_backward(block: RelationBlock, op: str, reduce: str,
                   grad: np.ndarray, state: Dict[str, np.ndarray],
                   lhs_shape: Optional[Tuple[int, ...]],
                   rhs_shape: Optional[Tuple[int, ...]]
                   ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Shared backward of :func:`gspmm` (dynamic closure and capture twin).

    Returns ``(grad_lhs, grad_rhs)`` with ``None`` for absent operands.
    """
    if reduce == "sum":
        grad_message = grad[block.v]
    elif reduce == "mean":
        grad_message = (grad * state["inv_deg"])[block.v]
    else:
        grad_message = (state["argmax_mask"] * grad[block.v]
                        / state["tie_counts"][block.v])
    grad_lhs = grad_rhs = None
    if lhs_shape is not None:
        contrib = grad_message if op != "mul" else grad_message * state["rhs_b"]
        grad_lhs = _scatter_sum(contrib, block.u, block.num_nodes,
                                block.scatter("u", contrib.dtype))
    if rhs_shape is not None:
        contrib = grad_message if op != "mul" else grad_message * state["gathered"]
        # The rhs broadcasts with *trailing* length-1 axes (see
        # ``_broadcast_edge_operand``), so reduce to that padded shape first.
        padded = tuple(rhs_shape) + (1,) * (contrib.ndim - len(rhs_shape))
        grad_rhs = _reduce_to(contrib, padded).reshape(rhs_shape)
    return grad_lhs, grad_rhs


def gspmm(block: RelationBlock, op: str, reduce: str,
          lhs: Optional[Tensor] = None, rhs: Optional[Tensor] = None) -> Tensor:
    """Generalized sparse message passing: ``out[v] = reduce_e op(lhs[u], rhs[e])``.

    The DGL-style message-compute kernel over one relation block: every edge
    ``e = (u, v)`` produces a message by combining the source-node operand
    ``lhs`` with the per-edge operand ``rhs`` (``op`` from
    :data:`GSPMM_OPS`), and messages are reduced into their destination node
    (``reduce`` from :data:`GSPMM_REDUCES`).  A 1-D-per-edge ``rhs`` (or any
    rhs with fewer axes than the message) broadcasts over the trailing
    message axes, which is how attention coefficients weight multi-head
    messages.

    The degenerate ``(copy_lhs, sum)`` combination lowers onto the fused CSR
    ``spmm`` fast path (one sparse matmul, already understood by the capture
    engine); every other combination records a single fused ``"gspmm"`` op.
    """
    if op not in GSPMM_OPS:
        raise ValueError(f"unsupported gspmm op {op!r}; choose from {GSPMM_OPS}")
    if reduce not in GSPMM_REDUCES:
        raise ValueError(
            f"unsupported gspmm reduce {reduce!r}; choose from {GSPMM_REDUCES}")
    if op != "copy_rhs" and lhs is None:
        raise ValueError(f"gspmm op {op!r} requires the lhs node operand")
    if op != "copy_lhs" and rhs is None:
        raise ValueError(f"gspmm op {op!r} requires the rhs edge operand")
    if lhs is not None and not isinstance(lhs, Tensor):
        lhs = Tensor(lhs)
    if rhs is not None and not isinstance(rhs, Tensor):
        rhs = Tensor(rhs)
    if rhs is not None and rhs.shape[0] != block.num_edges:
        raise ValueError(
            f"gspmm rhs has {rhs.shape[0]} rows but the block has "
            f"{block.num_edges} edges")

    if op == "copy_lhs" and reduce == "sum":
        # Plain neighbour sum: one CSR matmul through the existing fused
        # spmm path (bit-identical — within a destination row the CSR
        # accumulates in ascending source order, which is edge-id order).
        return spmm(block.aggregate_operator(lhs.data.dtype), lhs)

    parents = tuple(t for t in (lhs, rhs) if t is not None)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    state: Dict[str, np.ndarray] = {}
    out_data = gspmm_forward(block, op, reduce,
                             None if lhs is None else lhs.data,
                             None if rhs is None else rhs.data,
                             state=state if requires else None)
    out = Tensor(out_data, requires_grad=requires,
                 _prev=parents if requires else ())
    if requires:
        lhs_shape = None if lhs is None or not lhs.requires_grad else lhs.shape
        rhs_shape = None if rhs is None or not rhs.requires_grad else rhs.shape

        def _backward(grad: np.ndarray) -> None:
            grad_lhs, grad_rhs = gspmm_backward(
                block, op, reduce, grad, state, lhs_shape, rhs_shape)
            if grad_lhs is not None:
                lhs._accumulate(grad_lhs)
            if grad_rhs is not None:
                rhs._accumulate(grad_rhs)

        out._backward = _backward
    _record_op("gspmm", out, parents, block=block, op=op, reduce=reduce,
               has_lhs=lhs is not None, has_rhs=rhs is not None)
    return out


def _gsddmm_operand(block: RelationBlock, data: np.ndarray, target: str) -> np.ndarray:
    """Gather a gsddmm operand onto the edges (``e`` operands pass through)."""
    if target == "e":
        return data
    return data[block.endpoint(target)]


def gsddmm_forward(block: RelationBlock, op: str,
                   lhs: Optional[np.ndarray], rhs: Optional[np.ndarray],
                   lhs_target: str = "u", rhs_target: str = "v",
                   out: Optional[np.ndarray] = None,
                   state: Optional[Dict[str, np.ndarray]] = None) -> np.ndarray:
    """Array forward of :func:`gsddmm` (the Tensor op and its capture twin)."""
    keep = state if state is not None else {}
    left = right = None
    if lhs is not None:
        left = _gsddmm_operand(block, lhs, lhs_target)
        keep["left"] = left
    if rhs is not None:
        right = _gsddmm_operand(block, rhs, rhs_target)
        keep["right"] = right
    if op == "add":
        result = left + right
    elif op == "sub":
        result = left - right
    elif op == "mul":
        result = left * right
    elif op == "dot":
        result = (left * right).sum(axis=-1)
    elif op == "copy_lhs":
        result = left if lhs_target != "e" else left.copy()
    else:  # copy_rhs
        result = right if rhs_target != "e" else right.copy()
    if out is not None:
        np.copyto(out, result)
        return out
    return result


def gsddmm_backward(block: RelationBlock, op: str, grad: np.ndarray,
                    state: Dict[str, np.ndarray],
                    lhs_shape: Optional[Tuple[int, ...]],
                    rhs_shape: Optional[Tuple[int, ...]],
                    lhs_target: str, rhs_target: str
                    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Shared backward of :func:`gsddmm` (dynamic closure and capture twin)."""

    def _route(contrib: np.ndarray, target: str, shape: Tuple[int, ...]) -> np.ndarray:
        if target == "e":
            return _reduce_to(contrib, shape).reshape(shape)
        per_edge = _reduce_to(contrib, (contrib.shape[0],) + tuple(shape[1:])) \
            .reshape((contrib.shape[0],) + tuple(shape[1:]))
        return _scatter_sum(per_edge, block.endpoint(target), shape[0],
                            block.scatter(target, per_edge.dtype))

    grad_lhs = grad_rhs = None
    if lhs_shape is not None:
        if op in ("add", "sub", "copy_lhs"):
            contrib = grad
        elif op == "mul":
            contrib = grad * state["right"]
        else:  # dot
            contrib = grad[..., None] * state["right"]
        grad_lhs = _route(contrib, lhs_target, lhs_shape)
    if rhs_shape is not None:
        if op in ("add", "copy_rhs"):
            contrib = grad
        elif op == "sub":
            contrib = -grad
        elif op == "mul":
            contrib = grad * state["left"]
        else:  # dot
            contrib = grad[..., None] * state["left"]
        grad_rhs = _route(contrib, rhs_target, rhs_shape)
    return grad_lhs, grad_rhs


def gsddmm(block: RelationBlock, op: str,
           lhs: Optional[Tensor] = None, rhs: Optional[Tensor] = None,
           lhs_target: str = "u", rhs_target: str = "v") -> Tensor:
    """Generalized sampled dense-dense product: per-edge ``op(lhs_t, rhs_t)``.

    Each operand is gathered onto the edges of the block from its target
    (``"u"`` source row, ``"v"`` destination row, or ``"e"`` for data already
    per-edge) and combined edge-wise with ``op`` from :data:`GSDDMM_OPS`
    (``dot`` contracts the trailing axis).  This is the attention-score
    pattern: ``gsddmm(block, "add", score_src, score_dst)`` computes
    ``score_src[u_e] + score_dst[v_e]`` as one fused, capture-recordable op.
    """
    if op not in GSDDMM_OPS:
        raise ValueError(f"unsupported gsddmm op {op!r}; choose from {GSDDMM_OPS}")
    for target in (lhs_target, rhs_target):
        if target not in GSDDMM_TARGETS:
            raise ValueError(
                f"unsupported gsddmm target {target!r}; choose from {GSDDMM_TARGETS}")
    if op != "copy_rhs" and lhs is None:
        raise ValueError(f"gsddmm op {op!r} requires the lhs operand")
    if op != "copy_lhs" and rhs is None:
        raise ValueError(f"gsddmm op {op!r} requires the rhs operand")
    if op == "copy_lhs":
        rhs = None
    if op == "copy_rhs":
        lhs = None
    if lhs is not None and not isinstance(lhs, Tensor):
        lhs = Tensor(lhs)
    if rhs is not None and not isinstance(rhs, Tensor):
        rhs = Tensor(rhs)

    parents = tuple(t for t in (lhs, rhs) if t is not None)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    state: Dict[str, np.ndarray] = {}
    out_data = gsddmm_forward(block, op,
                              None if lhs is None else lhs.data,
                              None if rhs is None else rhs.data,
                              lhs_target, rhs_target, state=state)
    out = Tensor(out_data, requires_grad=requires,
                 _prev=parents if requires else ())
    if requires:
        lhs_shape = None if lhs is None or not lhs.requires_grad else lhs.shape
        rhs_shape = None if rhs is None or not rhs.requires_grad else rhs.shape

        def _backward(grad: np.ndarray) -> None:
            grad_lhs, grad_rhs = gsddmm_backward(
                block, op, grad, state, lhs_shape, rhs_shape,
                lhs_target, rhs_target)
            if grad_lhs is not None:
                lhs._accumulate(grad_lhs)
            if grad_rhs is not None:
                rhs._accumulate(grad_rhs)

        out._backward = _backward
    _record_op("gsddmm", out, parents, block=block, op=op,
               lhs_target=lhs_target, rhs_target=rhs_target,
               has_lhs=lhs is not None, has_rhs=rhs is not None)
    return out
