"""Regularisation-centric candidates: GRAND, GraphMix and the MLP baseline.

GRAND (Feng et al., 2020) and GraphMix (Verma et al., 2019) obtain strong
semi-supervised results mainly through data augmentation (random propagation
/ DropNode) and auxiliary regularised heads.  The versions implemented here
keep the architectural essence that matters for the ensemble experiments —
random propagation over multiple depths for GRAND, and a jointly trained
MLP + GCN pair for GraphMix — while leaving the elaborate consistency
training schedules to the trainer's standard loop.
"""

from __future__ import annotations

from typing import List

from repro.autograd import functional as F
from repro.autograd.modules import Linear, MLP
from repro.autograd.sparse import spmm
from repro.autograd.tensor import Tensor
from repro.nn.data import GraphTensors
from repro.nn.models.base import GNNModel


class GRAND(GNNModel):
    """Graph Random Neural Network: DropNode + multi-step random propagation + MLP."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 3, dropout: float = 0.5, dropnode: float = 0.3,
                 seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="GRAND", **kwargs)
        self.dropnode = dropnode
        self.mlp = MLP(in_features, hidden, hidden, num_layers=2, dropout=dropout, rng=self.rng)

    def _random_propagate(self, data: GraphTensors, depth: int) -> Tensor:
        # DropNode through the dedicated functional op (bit-identical to the
        # historical ``features * Tensor(mask)`` formulation) so captured
        # epochs re-draw the row mask from the model RNG on every replay.
        features = F.drop_node(data.features, self.dropnode,
                               training=self.training, rng=self.rng)
        # Mean over propagation depths 0..depth (the GRAND propagation rule).
        accumulated = features
        current = features
        for _ in range(depth):
            current = spmm(data.adj_sym, current)
            accumulated = accumulated + current
        return accumulated * (1.0 / (depth + 1))

    def encode(self, data: GraphTensors) -> List[Tensor]:
        states = []
        for depth in range(1, self.num_layers + 1):
            propagated = self._random_propagate(data, depth)
            states.append(self.mlp(self.dropout(propagated)))
        return states


class GraphMix(GNNModel):
    """GraphMix-style joint GCN + MLP model (the MLP acts as a regulariser)."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.5, mix_weight: float = 0.5,
                 seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="GraphMix", **kwargs)
        from repro.nn.layers.convolutional import GCNConv
        from repro.autograd.module import ModuleList

        self.mix_weight = mix_weight
        self.mlp = MLP(in_features, hidden, hidden, num_layers=2, dropout=dropout, rng=self.rng)
        self.convs = ModuleList()
        for layer_index in range(num_layers):
            conv_in = in_features if layer_index == 0 else hidden
            self.convs.append(GCNConv(conv_in, hidden, rng=self.rng))

    def encode(self, data: GraphTensors) -> List[Tensor]:
        mlp_state = self.mlp(self.dropout(data.features))
        states = []
        x = data.features
        for conv in self.convs:
            x = self.dropout(x)
            x = self.activation(conv(x, data))
            states.append(x * (1.0 - self.mix_weight) + mlp_state * self.mix_weight)
        return states


class MLPNode(GNNModel):
    """Graph-agnostic MLP baseline (the "MLP" row of Table V)."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.5, seed: int = 0, **kwargs) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="MLP", **kwargs)
        from repro.autograd.module import ModuleList

        self.layers = ModuleList()
        for layer_index in range(num_layers):
            layer_in = in_features if layer_index == 0 else hidden
            self.layers.append(Linear(layer_in, hidden, rng=self.rng))

    def encode(self, data: GraphTensors) -> List[Tensor]:
        states = []
        x = data.features
        for layer in self.layers:
            x = self.dropout(x)
            x = self.activation(layer(x))
            states.append(x)
        return states
