"""Spatial / sampling-style aggregators.

* :class:`SAGEConv` — GraphSAGE with mean or (max-)pool aggregation
  (Hamilton et al.); the two variants appear as separate zoo entries, as the
  paper grid-searches over them.
* :class:`GINConv` — Graph Isomorphism Network aggregation with a learnable
  epsilon and an MLP update (Xu et al.).
* :class:`GraphConv` — the higher-order WL convolution of Morris et al.,
  which separates the self transform from the neighbour transform and can use
  edge weights directly.
* :class:`GatedGraphConv` — gated updates in the spirit of Li et al.'s GGNN,
  with a GRU-style cell applied after neighbourhood aggregation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.module import Module, Parameter
from repro.autograd.modules import Linear, MLP
from repro.autograd.sparse import spmm
from repro.autograd.tensor import Tensor
from repro.autograd import init
from repro.nn.data import GraphTensors


class SAGEConv(Module):
    """GraphSAGE convolution with ``mean`` or ``pool`` neighbour aggregation."""

    def __init__(self, in_features: int, out_features: int, aggregator: str = "mean",
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if aggregator not in {"mean", "pool"}:
            raise ValueError("aggregator must be 'mean' or 'pool'")
        self.aggregator = aggregator
        self.self_linear = Linear(in_features, out_features, rng=rng)
        self.neighbor_linear = Linear(in_features, out_features, rng=rng)
        if aggregator == "pool":
            self.pool_linear = Linear(in_features, in_features, rng=rng)

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        if self.aggregator == "mean":
            aggregated = spmm(data.adj_rw, x)
        else:
            src, dst = data.edge_index
            transformed = F.relu(self.pool_linear(x))
            messages = F.index_select(transformed, src)
            aggregated = F.scatter_max(messages, dst, data.num_nodes)
        return self.self_linear(x) + self.neighbor_linear(aggregated)


class GINConv(Module):
    """GIN aggregation ``MLP((1 + eps) x + sum_{j in N(i)} x_j``."""

    def __init__(self, in_features: int, out_features: int, hidden: Optional[int] = None,
                 train_eps: bool = True, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        hidden = hidden or out_features
        self.mlp = MLP(in_features, hidden, out_features, num_layers=2, rng=rng)
        self.eps = Parameter(np.zeros(1)) if train_eps else None

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        aggregated = spmm(data.adj_raw, x)
        if self.eps is not None:
            combined = x * (self.eps + 1.0) + aggregated
        else:
            combined = x + aggregated
        return self.mlp(combined)


class GraphConv(Module):
    """Weisfeiler-Leman convolution ``x W_1 + A x W_2`` (edge-weight aware)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.self_linear = Linear(in_features, out_features, rng=rng)
        self.neighbor_linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        return self.self_linear(x) + self.neighbor_linear(spmm(data.adj_raw, x))


class GatedGraphConv(Module):
    """Gated update: a GRU-like cell combines the node state with aggregated messages."""

    def __init__(self, in_features: int, out_features: int, num_steps: int = 2,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.num_steps = num_steps
        self.input_linear = Linear(in_features, out_features, rng=rng)
        self.message_linear = Linear(out_features, out_features, rng=rng)
        self.update_gate = Linear(2 * out_features, out_features, rng=rng)
        self.reset_gate = Linear(2 * out_features, out_features, rng=rng)
        self.candidate = Linear(2 * out_features, out_features, rng=rng)

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        hidden = self.input_linear(x)
        for _ in range(self.num_steps):
            message = spmm(data.adj_rw, self.message_linear(hidden))
            joint = F.concat([hidden, message], axis=-1)
            update = F.sigmoid(self.update_gate(joint))
            reset = F.sigmoid(self.reset_gate(joint))
            candidate = F.tanh(self.candidate(F.concat([hidden * reset, message], axis=-1)))
            hidden = hidden * (1.0 - update) + candidate * update
        return hidden
