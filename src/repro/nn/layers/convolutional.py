"""Spectral-flavoured convolutional aggregators.

* :class:`GCNConv` — Kipf & Welling graph convolution (symmetric-normalised
  propagation followed by a linear transform).
* :class:`SGConv` — Simplified Graph Convolution (Wu et al.): a K-th power of
  the propagation operator with a single linear layer.
* :class:`TAGConv` — Topology-Adaptive GCN (Du et al.): a learnable
  combination of the first K powers of the propagation operator.
* :class:`ChebConv` — Chebyshev spectral filters (Defferrard et al.).
* :class:`ARMAConv` — a single-stack ARMA filter (Bianchi et al.),
  implemented as the standard recursive approximation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd import kernels
from repro.autograd.module import Module, ModuleList
from repro.autograd.modules import Linear
from repro.autograd.sparse import spmm
from repro.autograd.tensor import Tensor
from repro.nn.data import GraphTensors


class GCNConv(Module):
    """``H' = act(Â H W + b)`` with the symmetrically normalised adjacency ``Â``.

    The product runs through the fused :func:`~repro.autograd.kernels.
    spmm_bias_act` kernel, which picks ``Â (H W)`` or ``(Â H) W`` from the
    operand shapes and adds the bias after propagation (the standard GCNConv
    formulation).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 propagation: str = "sym", rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)
        self.propagation = propagation

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        return self.forward_fused(x, data, activation=None)

    def forward_fused(self, x: Tensor, data: GraphTensors,
                      activation: Optional[str]) -> Tensor:
        """Fused conv + activation; ``StackedConvModel`` calls this hook when
        the model's activation is one the kernel can apply in place."""
        return kernels.spmm_bias_act(data.propagation(self.propagation), x,
                                     self.linear.weight, self.linear.bias,
                                     activation)


class SGConv(Module):
    """Simplified GCN: ``H' = Â^K X W`` (all nonlinearities removed)."""

    def __init__(self, in_features: int, out_features: int, hops: int = 2,
                 propagation: str = "sym", rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.hops = hops
        self.propagation = propagation
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        operator = data.propagation(self.propagation)
        hidden = x
        for _ in range(self.hops):
            hidden = spmm(operator, hidden)
        return self.linear(hidden)


class TAGConv(Module):
    """Topology adaptive GCN: ``H' = sum_{k=0..K} Â^k X W_k``."""

    def __init__(self, in_features: int, out_features: int, hops: int = 3,
                 propagation: str = "sym", rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.hops = hops
        self.propagation = propagation
        self.linears = ModuleList([
            Linear(in_features, out_features, rng=rng) for _ in range(hops + 1)
        ])

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        operator = data.propagation(self.propagation)
        hidden = x
        out = self.linears[0](hidden)
        for k in range(1, self.hops + 1):
            hidden = spmm(operator, hidden)
            out = out + self.linears[k](hidden)
        return out


class ChebConv(Module):
    """Chebyshev polynomial filters ``sum_k T_k(L~) X W_k`` of order ``K``."""

    def __init__(self, in_features: int, out_features: int, order: int = 3,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if order < 1:
            raise ValueError("Chebyshev order must be >= 1")
        self.order = order
        self.linears = ModuleList([
            Linear(in_features, out_features, rng=rng) for _ in range(order)
        ])

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        # T_0 = X, T_1 = L~ X, T_k = 2 L~ T_{k-1} - T_{k-2}; the scaled
        # Laplacian is approximated by -Â (self-loops folded into the
        # normalisation), which is the standard simplification.
        operator = data.propagation("sym")
        t_prev_prev = x
        out = self.linears[0](t_prev_prev)
        if self.order == 1:
            return out
        t_prev = spmm(operator, x) * -1.0
        out = out + self.linears[1](t_prev)
        for k in range(2, self.order):
            t_curr = spmm(operator, t_prev) * -2.0 - t_prev_prev
            out = out + self.linears[k](t_curr)
            t_prev_prev, t_prev = t_prev, t_curr
        return out


class ARMAConv(Module):
    """One ARMA_1 stack: ``H^{t+1} = act(Â H^t W + X V)`` iterated ``num_iterations`` times."""

    def __init__(self, in_features: int, out_features: int, num_iterations: int = 2,
                 propagation: str = "sym", rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.num_iterations = num_iterations
        self.propagation = propagation
        self.input_linear = Linear(in_features, out_features, rng=rng)
        self.recurrent_linear = Linear(out_features, out_features, rng=rng)
        self.skip_linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, data: GraphTensors) -> Tensor:
        operator = data.propagation(self.propagation)
        hidden = F.relu(self.input_linear(x))
        skip = self.skip_linear(x)
        for _ in range(self.num_iterations):
            hidden = F.relu(self.recurrent_linear(spmm(operator, hidden)) + skip)
        return hidden
