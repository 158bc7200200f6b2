"""Attention-based aggregators.

* :class:`GATConv` — multi-head graph attention (Velickovic et al.) using the
  scatter/segment-softmax primitives of the autograd engine, so attention
  coefficients are computed per edge without materialising dense ``n x n``
  score matrices.
* :class:`AGNNConv` — the attention-based propagation of Thekumparampil et
  al. with a single learnable temperature over cosine similarities.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd import init
from repro.autograd.module import Module, Parameter
from repro.autograd.modules import Linear
from repro.autograd.tensor import Tensor
from repro.nn.data import GraphTensors


class GATConv(Module):
    """Multi-head graph attention with LeakyReLU-scored additive attention."""

    def __init__(self, in_features: int, out_features: int, heads: int = 4,
                 concat_heads: bool = True, negative_slope: float = 0.2,
                 attention_dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if concat_heads and out_features % heads != 0:
            raise ValueError("out_features must be divisible by the number of heads when concatenating")
        self.heads = heads
        self.concat_heads = concat_heads
        self.head_dim = out_features // heads if concat_heads else out_features
        self.negative_slope = negative_slope
        self.attention_dropout = attention_dropout
        self._rng = rng if rng is not None else np.random.default_rng()
        self.linear = Linear(in_features, self.heads * self.head_dim, bias=False, rng=rng)
        self.att_src = Parameter(init.glorot_uniform((self.heads, self.head_dim), rng=rng))
        self.att_dst = Parameter(init.glorot_uniform((self.heads, self.head_dim), rng=rng))
        self.bias = Parameter(init.zeros((out_features if concat_heads else self.head_dim,)))

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        src, dst = data.edge_index
        num_nodes = data.num_nodes
        # Cached CSR scatter operators: every per-edge reduction below runs
        # as one sparse matmul instead of an unbuffered ``np.add.at``.
        src_scatter = data.edge_scatter("src")
        dst_scatter = data.edge_scatter("dst")

        transformed = self.linear(x).reshape(num_nodes, self.heads, self.head_dim)
        score_src = (transformed * self.att_src).sum(axis=-1)  # (n, heads)
        score_dst = (transformed * self.att_dst).sum(axis=-1)  # (n, heads)

        edge_scores = F.index_select(score_src, src, scatter=src_scatter) \
            + F.index_select(score_dst, dst, scatter=dst_scatter)
        edge_scores = F.leaky_relu(edge_scores, self.negative_slope)
        attention = F.segment_softmax(edge_scores, dst, num_nodes,
                                      aggregate=dst_scatter)  # (E, heads)
        if self.attention_dropout > 0:
            attention = F.dropout(attention, self.attention_dropout, training=self.training,
                                  rng=self._rng)

        messages = F.index_select(transformed, src, scatter=src_scatter)  # (E, heads, dim)
        weighted = messages * attention.reshape(attention.shape[0], self.heads, 1)
        aggregated = F.scatter_add(weighted, dst, num_nodes,
                                   aggregate=dst_scatter)  # (n, heads, dim)

        if self.concat_heads:
            out = aggregated.reshape(num_nodes, self.heads * self.head_dim)
        else:
            out = aggregated.mean(axis=1)
        return out + self.bias


class AGNNConv(Module):
    """Attention over cosine similarity with a learnable temperature ``beta``."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.beta = Parameter(np.ones(1))

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        src, dst = data.edge_index
        src_scatter = data.edge_scatter("src")
        dst_scatter = data.edge_scatter("dst")
        norms = ((x * x).sum(axis=-1, keepdims=True) + 1e-12) ** 0.5
        normalised = x * (norms ** -1.0)
        cos = (F.index_select(normalised, src, scatter=src_scatter)
               * F.index_select(normalised, dst, scatter=dst_scatter)).sum(axis=-1)
        scores = cos * self.beta
        attention = F.segment_softmax(scores, dst, data.num_nodes, aggregate=dst_scatter)
        messages = F.index_select(x, src, scatter=src_scatter) * attention.reshape(-1, 1)
        return F.scatter_add(messages, dst, data.num_nodes, aggregate=dst_scatter)
