"""Deep / skip-connection models: GCNII, JKNet and DNA.

These are the candidates the paper singles out as being able to capture
long-distance dependencies (GCNII "with deeper layers, can capture
long-distance dependency in the graph") and to aggregate information from
multiple neighbourhood radii (JKNet, DNA).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd import functional as F
from repro.autograd.module import ModuleList, Parameter
from repro.autograd.modules import Linear
from repro.autograd.sparse import spmm
from repro.autograd.tensor import Tensor
from repro.autograd import init
from repro.nn.data import GraphTensors
from repro.nn.layers.deep import GCNIIConv, JumpingKnowledge
from repro.nn.models.base import GNNModel


class GCNII(GNNModel):
    """GCNII (Chen et al., 2020) with initial residual and identity mapping."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 4, dropout: float = 0.5, alpha: float = 0.1,
                 lam: float = 0.5, seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="GCNII", **kwargs)
        self.input_linear = Linear(in_features, hidden, rng=self.rng)
        self.convs = ModuleList()
        for layer_index in range(num_layers):
            beta = lam / (layer_index + 1)
            self.convs.append(GCNIIConv(hidden, alpha=alpha, beta=beta, rng=self.rng))

    def encode(self, data: GraphTensors) -> List[Tensor]:
        initial = self.activation(self.input_linear(self.dropout(data.features)))
        states: List[Tensor] = []
        hidden = initial
        for conv in self.convs:
            hidden = self.dropout(hidden)
            hidden = self.activation(conv(hidden, initial, data))
            states.append(hidden)
        return states


class JKNet(GNNModel):
    """Jumping Knowledge network (Xu et al., 2018) over a GCN backbone."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 3, dropout: float = 0.5, mode: str = "max",
                 seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name=f"JKNet-{mode}", **kwargs)
        from repro.nn.layers.convolutional import GCNConv

        self.mode = mode
        self.convs = ModuleList()
        for layer_index in range(num_layers):
            conv_in = in_features if layer_index == 0 else hidden
            self.convs.append(GCNConv(conv_in, hidden, rng=self.rng))
        self.jump = JumpingKnowledge(mode="max" if mode == "max" else "mean")

    def encode(self, data: GraphTensors) -> List[Tensor]:
        states: List[Tensor] = []
        x = data.features
        for conv in self.convs:
            x = self.dropout(x)
            x = self.activation(conv(x, data))
            states.append(x)
        return states

    def default_combine(self, states: List[Tensor]) -> Tensor:
        # Without an explicit alpha the model falls back to its JK aggregation.
        return self.jump(states)


class DNA(GNNModel):
    """Dynamic neighbourhood aggregation (Fey, 2019), simplified.

    Each layer attends over the representations produced by all previous
    layers of the same node (a per-node transformer over depth), which lets
    every node pick its own receptive-field size.
    """

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 3, dropout: float = 0.5, seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="DNA", **kwargs)
        self.input_linear = Linear(in_features, hidden, rng=self.rng)
        self.query = ModuleList([Linear(hidden, hidden, rng=self.rng) for _ in range(num_layers)])
        self.key = ModuleList([Linear(hidden, hidden, rng=self.rng) for _ in range(num_layers)])
        self.value = ModuleList([Linear(hidden, hidden, rng=self.rng) for _ in range(num_layers)])

    def encode(self, data: GraphTensors) -> List[Tensor]:
        hidden = self.activation(self.input_linear(self.dropout(data.features)))
        history: List[Tensor] = [hidden]
        states: List[Tensor] = []
        scale = 1.0 / np.sqrt(self.hidden)
        for layer_index in range(self.num_layers):
            propagated = spmm(data.adj_sym, history[-1])
            query = self.query[layer_index](propagated)  # (n, hidden)
            stacked_history = F.stack(history, axis=1)  # (n, depth, hidden)
            keys = self.key[layer_index](stacked_history)
            values = self.value[layer_index](stacked_history)
            scores = (keys * query.reshape(data.num_nodes, 1, self.hidden)).sum(axis=-1) * scale
            attention = F.softmax(scores, axis=-1)  # (n, depth)
            attended = (values * attention.reshape(data.num_nodes, len(history), 1)).sum(axis=1)
            new_state = self.activation(attended)
            new_state = self.dropout(new_state)
            history.append(new_state)
            states.append(new_state)
        return states
