"""Models that decouple feature transformation from propagation.

These architectures first transform node features with an MLP (or a single
linear map) and then propagate predictions/representations over the graph —
SGC, SIGN, APPNP, DAGNN and MixHop.  Their "layers" for the purpose of graph
self-ensemble are the successive propagation depths, which is exactly the
local-vs-global trade-off the paper's layer aggregation (Eqn 2) exploits.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd import functional as F
from repro.autograd.modules import Linear, MLP
from repro.autograd.sparse import spmm
from repro.autograd.tensor import Tensor
from repro.nn.data import GraphTensors
from repro.nn.layers.deep import APPNPPropagation, DAGNNPropagation, MixHopConv
from repro.nn.models.base import GNNModel


class SGC(GNNModel):
    """Simplified Graph Convolution (Wu et al., 2019).

    Layer ``l`` of the encoding is ``Â^l X W`` so the GSE layer aggregation
    interpolates between propagation depths.
    """

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.3, seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "identity", seed, name="SGC", **kwargs)
        self.linear = Linear(in_features, hidden, rng=self.rng)

    def encode(self, data: GraphTensors) -> List[Tensor]:
        states = []
        hidden = self.linear(self.dropout(data.features))
        for _ in range(self.num_layers):
            hidden = spmm(data.adj_sym, hidden)
            states.append(hidden)
        return states


class SIGN(GNNModel):
    """SIGN (Frasca et al., 2020): precomputed powers, per-power linear maps."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 3, dropout: float = 0.3, seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="SIGN", **kwargs)
        from repro.autograd.module import ModuleList

        self.branches = ModuleList([
            Linear(in_features, hidden, rng=self.rng) for _ in range(num_layers)
        ])

    def encode(self, data: GraphTensors) -> List[Tensor]:
        states = []
        accumulated = None
        for power, branch in enumerate(self.branches, start=1):
            powered = data.powered_features("sym", power)
            transformed = self.activation(branch(self.dropout(powered)))
            accumulated = transformed if accumulated is None else accumulated + transformed
            states.append(accumulated * (1.0 / power))
        return states


class APPNP(GNNModel):
    """Predict-then-propagate with personalised PageRank (Klicpera et al., 2019)."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.5, num_iterations: int = 10,
                 teleport: float = 0.1, seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="APPNP", **kwargs)
        self.mlp = MLP(in_features, hidden, hidden, num_layers=max(num_layers, 1),
                       dropout=dropout, rng=self.rng)
        self.propagation = APPNPPropagation(num_iterations=num_iterations, teleport=teleport)
        # GSE aggregates over propagation milestones rather than MLP layers.
        self.num_layers = max(2, min(4, num_iterations // 3))
        self._milestones = np.linspace(1, num_iterations, self.num_layers).astype(int)
        self.receptive_field = num_iterations

    def encode(self, data: GraphTensors) -> List[Tensor]:
        hidden = self.mlp(self.dropout(data.features))
        steps = self.propagation.propagate_steps(hidden, data)
        return [steps[m - 1] for m in self._milestones]


class DAGNN(GNNModel):
    """Deep Adaptive GNN (Liu et al., 2020) with gated depth combination."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.5, hops: int = 5,
                 seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="DAGNN", **kwargs)
        self.mlp = MLP(in_features, hidden, hidden, num_layers=2, dropout=dropout, rng=self.rng)
        self.hops = hops
        self.gate = Linear(hidden, 1, rng=self.rng)
        self.num_layers = max(2, min(hops, 4))
        self._milestones = np.linspace(1, hops, self.num_layers).astype(int)
        self.receptive_field = hops

    def encode(self, data: GraphTensors) -> List[Tensor]:
        hidden = self.mlp(self.dropout(data.features))
        propagated = [hidden]
        current = hidden
        for _ in range(self.hops):
            current = spmm(data.adj_sym, current)
            propagated.append(current)
        states = []
        for milestone in self._milestones:
            stacked = F.stack(propagated[: milestone + 1], axis=1)
            gates = F.sigmoid(self.gate(stacked))
            states.append((stacked * gates).sum(axis=1))
        return states


class MixHop(GNNModel):
    """MixHop (Abu-El-Haija et al., 2019): mixed powers of the adjacency per layer."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.5, powers=(0, 1, 2),
                 seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="MixHop", **kwargs)
        from repro.autograd.module import ModuleList

        self.convs = ModuleList()
        for layer_index in range(num_layers):
            conv_in = in_features if layer_index == 0 else hidden
            self.convs.append(MixHopConv(conv_in, hidden, powers=powers, rng=self.rng))
        self.receptive_field = num_layers * max(powers)

    def encode(self, data: GraphTensors) -> List[Tensor]:
        states = []
        x = data.features
        for conv in self.convs:
            x = self.dropout(x)
            x = self.activation(conv(x, data))
            states.append(x)
        return states
