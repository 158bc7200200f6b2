"""Layers for deep / decoupled propagation models.

* :class:`GCNIIConv` — GCNII convolution with initial residual and identity
  mapping (Chen et al.), enabling very deep models that capture long-range
  dependencies.
* :class:`APPNPPropagation` — personalised-PageRank propagation used by
  APPNP (Klicpera et al.) and by GRAND-style random propagation.
* :class:`DAGNNPropagation` — the adaptive-depth gated combination of
  propagated predictions from DAGNN (Liu et al.).
* :class:`JumpingKnowledge` — layer aggregation by concatenation or max
  (Xu et al.), the basis of JKNet.
* :class:`MixHopConv` — concatenated powers of the adjacency (Abu-El-Haija et
  al.) to mix neighbourhood information of several radii in a single layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import functional as F
from repro.autograd.module import Module, ModuleList, Parameter
from repro.autograd.modules import Linear
from repro.autograd.sparse import spmm
from repro.autograd.tensor import Tensor
from repro.autograd import init
from repro.nn.data import GraphTensors


class GCNIIConv(Module):
    """``H' = act(((1-a) Â H + a H0)((1-b) I + b W))`` with layer-dependent ``b``."""

    def __init__(self, features: int, alpha: float = 0.1, beta: float = 0.5,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.alpha = alpha
        self.beta = beta
        self.linear = Linear(features, features, bias=False, rng=rng)

    def forward(self, x: Tensor, initial: Tensor, data: GraphTensors) -> Tensor:
        propagated = spmm(data.adj_sym, x)
        support = propagated * (1.0 - self.alpha) + initial * self.alpha
        return support * (1.0 - self.beta) + self.linear(support) * self.beta


class APPNPPropagation(Module):
    """Personalised-PageRank propagation: ``Z^{t+1} = (1-a) Â Z^t + a Z^0``."""

    def __init__(self, num_iterations: int = 10, teleport: float = 0.1) -> None:
        super().__init__()
        self.num_iterations = num_iterations
        self.teleport = teleport

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        initial = x
        hidden = x
        for _ in range(self.num_iterations):
            hidden = spmm(data.adj_sym, hidden) * (1.0 - self.teleport) + initial * self.teleport
        return hidden

    def propagate_steps(self, x: Tensor, data: GraphTensors) -> List[Tensor]:
        """Return the intermediate propagation states (used for GSE layer aggregation)."""
        states = []
        initial = x
        hidden = x
        for _ in range(self.num_iterations):
            hidden = spmm(data.adj_sym, hidden) * (1.0 - self.teleport) + initial * self.teleport
            states.append(hidden)
        return states


class DAGNNPropagation(Module):
    """Propagate predictions K hops and combine them with a learned gate."""

    def __init__(self, features: int, hops: int = 5,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.hops = hops
        self.gate = Linear(features, 1, rng=rng)

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        states = [x]
        hidden = x
        for _ in range(self.hops):
            hidden = spmm(data.adj_sym, hidden)
            states.append(hidden)
        stacked = F.stack(states, axis=1)  # (n, hops+1, features)
        gates = F.sigmoid(self.gate(stacked))  # (n, hops+1, 1)
        return (stacked * gates).sum(axis=1)


class JumpingKnowledge(Module):
    """Aggregate per-layer representations by concatenation or elementwise max."""

    def __init__(self, mode: str = "cat") -> None:
        super().__init__()
        if mode not in {"cat", "max", "mean"}:
            raise ValueError("mode must be one of 'cat', 'max', 'mean'")
        self.mode = mode

    def forward(self, layer_outputs: Sequence[Tensor]) -> Tensor:
        layer_outputs = list(layer_outputs)
        if self.mode == "cat":
            return F.concat(layer_outputs, axis=-1)
        stacked = F.stack(layer_outputs, axis=0)
        if self.mode == "max":
            return stacked.max(axis=0)
        return stacked.mean(axis=0)


class MixHopConv(Module):
    """Concatenate ``Â^p X W_p`` for powers ``p`` in ``powers``."""

    def __init__(self, in_features: int, out_features: int, powers: Sequence[int] = (0, 1, 2),
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.powers = tuple(powers)
        per_power = out_features // len(self.powers)
        remainder = out_features - per_power * len(self.powers)
        self.output_sizes = [per_power + (1 if i < remainder else 0) for i in range(len(self.powers))]
        self.linears = ModuleList([
            Linear(in_features, size, rng=rng) for size in self.output_sizes
        ])

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        outputs = []
        operator = data.adj_sym
        current = x
        max_power = max(self.powers)
        powered = {0: x}
        for power in range(1, max_power + 1):
            current = spmm(operator, current)
            powered[power] = current
        for linear, power in zip(self.linears, self.powers):
            outputs.append(linear(powered[power]))
        return F.concat(outputs, axis=-1)
