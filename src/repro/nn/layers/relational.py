"""Relation-typed aggregators for heterogeneous graphs.

* :class:`RGCNConv` — relational GCN (Schlichtkrull et al.): one propagation
  per canonical relation with per-relation weights, optionally shared through
  a basis decomposition.
* :class:`RGATConv` — relational GAT: independent multi-head attention per
  relation block, summed across relations.

Both layers are written against the relation-blocked interface of
:class:`~repro.nn.data.GraphTensors` (``num_relations`` /
``relation_operator`` / ``relation_block``), so a homogeneous view is simply
the one-relation degenerate case — and in that case both layers reproduce
:class:`~repro.nn.layers.convolutional.GCNConv` /
:class:`~repro.nn.layers.attention.GATConv` bit-for-bit: the same rng draws
in the same order at construction, the same cached propagation operator, and
per-edge kernels (:func:`~repro.autograd.kernels.gspmm` /
:func:`~repro.autograd.kernels.gsddmm`) whose forward and backward reduce
with the exact CSR scatter recipe of the homogeneous scatter primitives.

``num_relations`` is a *capacity*: parameter shapes depend only on it, never
on the data, so state dicts round-trip through ``FittedEnsemble.save/load``
regardless of which graph the model was fitted on.  A graph may use fewer
relations than the layer's capacity (unused weights simply get zero
gradient); more relations than capacity fail fast with context.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd import init
from repro.autograd import kernels
from repro.autograd.module import Module, ModuleList, Parameter
from repro.autograd.modules import Linear
from repro.autograd.tensor import Tensor
from repro.nn.data import GraphTensors


def _check_capacity(layer: Module, data: GraphTensors) -> int:
    """Validate the data's relation count against the layer's capacity."""
    num_relations = data.num_relations
    if num_relations > layer.num_relations:
        raise ValueError(
            f"{type(layer).__name__} was built with capacity for "
            f"{layer.num_relations} relation(s) but the graph declares "
            f"{num_relations}; rebuild the model with "
            f"num_relations >= {num_relations} (e.g. via the zoo override "
            f"build_model(..., num_relations={num_relations}))")
    return num_relations


class RGCNConv(Module):
    """Relational GCN: ``H' = act(sum_r Â_r H W_r + b)``.

    Each relation propagates through its own normalised adjacency block with
    its own weight matrix.  With ``num_bases=B`` the per-relation weights are
    shared through a basis decomposition ``W_r = sum_b c_{rb} V_b``
    (Schlichtkrull et al.), cutting parameters from ``R·in·out`` to
    ``B·in·out + R·B``.

    A single-relation graph runs the identical fused
    :func:`~repro.autograd.kernels.spmm_bias_act` call of
    :class:`~repro.nn.layers.convolutional.GCNConv` — same operator, same
    weight draw — so results are bit-for-bit equal.
    """

    def __init__(self, in_features: int, out_features: int, num_relations: int = 1,
                 num_bases: Optional[int] = None, bias: bool = True,
                 propagation: str = "sym", rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        if num_bases is not None and not 1 <= num_bases <= num_relations:
            raise ValueError(
                f"num_bases must lie in [1, num_relations={num_relations}], "
                f"got {num_bases}")
        self.in_features = in_features
        self.out_features = out_features
        self.num_relations = num_relations
        self.num_bases = num_bases
        self.propagation = propagation
        if num_bases is None:
            # One glorot draw per relation, in relation order — for R=1 the
            # rng stream is exactly GCNConv's single Linear draw.
            self.linears = ModuleList([
                Linear(in_features, out_features, bias=False, rng=rng)
                for _ in range(num_relations)
            ])
        else:
            self.bases = Parameter(init.glorot_uniform(
                (num_bases, in_features * out_features), rng=rng))
            self.coefficients = Parameter(init.glorot_uniform(
                (num_relations, num_bases), rng=rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def relation_weight(self, relation_id: int) -> Tensor:
        """The effective ``(in, out)`` weight of one relation (Tensor path)."""
        if self.num_bases is None:
            return self.linears[relation_id].weight
        coefficient = F.index_select(self.coefficients,
                                     np.array([relation_id], dtype=np.int64))
        return (coefficient @ self.bases).reshape(self.in_features, self.out_features)

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        """Relation-wise graph convolution (no activation)."""
        return self.forward_fused(x, data, activation=None)

    def forward_fused(self, x: Tensor, data: GraphTensors,
                      activation: Optional[str]) -> Tensor:
        """Fused conv + activation (the ``StackedConvModel`` hook).

        The single-relation case takes GCNConv's exact fused kernel call;
        multi-relation graphs accumulate per-relation fused products (bias
        and activation deferred until after the sum).
        """
        num_relations = _check_capacity(self, data)
        if num_relations == 1:
            return kernels.spmm_bias_act(data.relation_operator(0, self.propagation),
                                         x, self.relation_weight(0), self.bias,
                                         activation)
        out = kernels.spmm_bias_act(data.relation_operator(0, self.propagation),
                                    x, self.relation_weight(0), None, None)
        for relation_id in range(1, num_relations):
            out = out + kernels.spmm_bias_act(
                data.relation_operator(relation_id, self.propagation),
                x, self.relation_weight(relation_id), None, None)
        if self.bias is not None:
            out = out + self.bias
        if activation not in (None, "identity", "none"):
            out = F.activation(activation)(out)
        return out


class _RelationAttention(Module):
    """Per-relation attention parameters of :class:`RGATConv`.

    Parameter creation order (linear weight, att_src, att_dst) mirrors
    :class:`~repro.nn.layers.attention.GATConv` so the single-relation rng
    stream is identical.
    """

    def __init__(self, in_features: int, heads: int, head_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.linear = Linear(in_features, heads * head_dim, bias=False, rng=rng)
        self.att_src = Parameter(init.glorot_uniform((heads, head_dim), rng=rng))
        self.att_dst = Parameter(init.glorot_uniform((heads, head_dim), rng=rng))


class RGATConv(Module):
    """Relational multi-head graph attention.

    Attention runs independently within each relation block — scores, the
    per-destination segment softmax and the weighted aggregation never mix
    relations — and the per-relation head outputs are summed before the
    shared bias.  Per-edge compute uses the generalized kernels:
    :func:`~repro.autograd.kernels.gsddmm` for the additive score gather and
    :func:`~repro.autograd.kernels.gspmm` (``mul``/``sum``) for the
    attention-weighted aggregation.
    """

    def __init__(self, in_features: int, out_features: int, num_relations: int = 1,
                 heads: int = 4, concat_heads: bool = True, negative_slope: float = 0.2,
                 attention_dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        if concat_heads and out_features % heads != 0:
            raise ValueError("out_features must be divisible by the number of heads when concatenating")
        self.num_relations = num_relations
        self.heads = heads
        self.concat_heads = concat_heads
        self.head_dim = out_features // heads if concat_heads else out_features
        self.negative_slope = negative_slope
        self.attention_dropout = attention_dropout
        self._rng = rng if rng is not None else np.random.default_rng()
        self.relation_attention = ModuleList([
            _RelationAttention(in_features, self.heads, self.head_dim, rng=rng)
            for _ in range(num_relations)
        ])
        self.bias = Parameter(init.zeros(
            (out_features if concat_heads else self.head_dim,)))

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        """Relation-wise attention: gsddmm scores → softmax → gspmm aggregate.

        Each relation runs GATConv's exact compute sequence on its own
        block; relation outputs are summed before the shared bias.
        """
        num_relations = _check_capacity(self, data)
        num_nodes = data.num_nodes
        dtype = x.data.dtype
        out = None
        for relation_id in range(num_relations):
            block = data.relation_block(relation_id)
            relation = self.relation_attention[relation_id]
            transformed = relation.linear(x).reshape(num_nodes, self.heads,
                                                     self.head_dim)
            score_src = (transformed * relation.att_src).sum(axis=-1)  # (n, heads)
            score_dst = (transformed * relation.att_dst).sum(axis=-1)  # (n, heads)

            edge_scores = kernels.gsddmm(block, "add", score_src, score_dst)
            edge_scores = F.leaky_relu(edge_scores, self.negative_slope)
            attention = F.segment_softmax(edge_scores, block.v, num_nodes,
                                          aggregate=block.scatter("v", dtype))
            if self.attention_dropout > 0:
                attention = F.dropout(attention, self.attention_dropout,
                                      training=self.training, rng=self._rng)

            aggregated = kernels.gspmm(block, "mul", "sum", transformed, attention)
            if self.concat_heads:
                relation_out = aggregated.reshape(num_nodes, self.heads * self.head_dim)
            else:
                relation_out = aggregated.mean(axis=1)
            out = relation_out if out is None else out + relation_out
        return out + self.bias
