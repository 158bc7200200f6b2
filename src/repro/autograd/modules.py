"""Dense building-block layers used throughout the GNN model zoo."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd import init
from repro.autograd.module import Module, Parameter
from repro.autograd.tensor import Tensor


class Linear(Module):
    """Affine transform ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng=rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def reset_parameters(self, rng: Optional[np.random.Generator] = None) -> None:
        self.weight.data = init.glorot_uniform((self.in_features, self.out_features), rng=rng)
        if self.bias is not None:
            self.bias.data = init.zeros((self.out_features,))

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout; a no-op when the module is in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must lie in [0, 1)")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self.rng)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class ELU(Module):
    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        return F.elu(x, alpha=self.alpha)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * ((var + self.eps) ** -0.5)
        return normed * self.gamma + self.beta


class BatchNorm(Module):
    """Batch normalisation over the first dimension (node dimension)."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        # Registered buffers so best-epoch snapshots and saved artifacts
        # carry the running statistics alongside the affine parameters.
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            # The running-stat update is a first-class recorded op (updating
            # the registered buffers in place) so captured replays re-run it
            # each epoch instead of bailing out on a hidden side effect.
            x = F.batch_norm_stats(x, self.running_mean, self.running_var,
                                   self.momentum)
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=0, keepdims=True)
            normed = centered * ((var + self.eps) ** -0.5)
        else:
            normed = (x - Tensor(self.running_mean)) * Tensor(
                1.0 / np.sqrt(self.running_var + self.eps)
            )
        return normed * self.gamma + self.beta


class MLP(Module):
    """Multi-layer perceptron with configurable depth, used by GIN and baselines."""

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 num_layers: int = 2, dropout: float = 0.0, activation: str = "relu",
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("MLP needs at least one layer")
        self.activation = F.activation(activation)
        self.dropout = Dropout(dropout, rng=rng)
        from repro.autograd.module import ModuleList

        self.layers = ModuleList()
        if num_layers == 1:
            self.layers.append(Linear(in_features, out_features, rng=rng))
        else:
            self.layers.append(Linear(in_features, hidden, rng=rng))
            for _ in range(num_layers - 2):
                self.layers.append(Linear(hidden, hidden, rng=rng))
            self.layers.append(Linear(hidden, out_features, rng=rng))

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = self.activation(x)
                x = self.dropout(x)
        return x
