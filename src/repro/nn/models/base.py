"""Base classes shared by every candidate model.

The key contract is the one graph self-ensemble (GSE) relies on (Eqn 1–3 of
the paper): a model produces a list of per-layer hidden states
``[H(1), ..., H(L)]`` (all of shape ``(num_nodes, hidden)``), and the
prediction is ``softmax((sum_l alpha_l H(l)) W)`` where ``alpha`` is either

* ``None`` — the model's native combination (usually the last layer),
* a fixed array — e.g. a one-hot vector selecting a specific depth, as used
  by the grid search of ``AutoHEnsGNN_Adaptive`` and by every re-trained GSE
  member.  An exactly one-hot α (one ``1.0``, every other entry ``0.0``)
  returns the selected state itself instead of stacking, scaling and
  summing all ``L`` of them; layers that feed only unselected states then
  receive no gradient,
* a trainable :class:`~repro.autograd.Tensor` of logits — relaxed through a
  softmax as in ``AutoHEnsGNN_Gradient`` (Eqn 7).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.autograd import functional as F
from repro.autograd import kernels
from repro.autograd.module import Module, ModuleList
from repro.autograd.modules import Dropout, Linear
from repro.autograd.tensor import Tensor
from repro.nn.data import GraphTensors

LayerWeights = Union[None, np.ndarray, Sequence[float], Tensor]


class GNNModel(Module):
    """Base class for node-classification GNNs.

    Subclasses implement :meth:`encode`, returning one hidden state per layer;
    the base class owns the shared classification head and the layer-weight
    combination logic.
    """

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.5, activation: str = "relu",
                 seed: int = 0, name: Optional[str] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.num_classes = num_classes
        self.hidden = hidden
        self.num_layers = num_layers
        self.dropout_rate = dropout
        self.activation_name = activation
        self.seed = seed
        self.model_name = name or type(self).__name__
        self.rng = np.random.default_rng(seed)
        self.activation = F.activation(activation)
        self.dropout = Dropout(dropout, rng=self.rng)
        self.head = Linear(hidden, num_classes, rng=self.rng)
        # How many hops of the graph one forward pass actually touches.
        # ``num_layers`` counts GSE aggregation states, which understates the
        # propagation depth for multi-hop convolutions (TAGCN, ChebNet) and
        # decoupled models (APPNP, DAGNN); subclasses with deeper
        # propagation overwrite this.  The minibatch trainer sizes its
        # default sampling fanouts from it.
        self.receptive_field = num_layers

    # ------------------------------------------------------------------
    # Contract for subclasses
    # ------------------------------------------------------------------
    def encode(self, data: GraphTensors) -> List[Tensor]:  # pragma: no cover - abstract
        """Return the per-layer hidden states ``[H(1), ..., H(L)]``."""
        raise NotImplementedError

    def default_combine(self, states: List[Tensor]) -> Tensor:
        """How the model combines its layer states when no ``alpha`` is given."""
        return states[-1]

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def combine_states(self, states: List[Tensor], layer_weights: LayerWeights) -> Tensor:
        if layer_weights is None:
            return self.default_combine(states)
        if isinstance(layer_weights, Tensor):
            weights = F.softmax(layer_weights, axis=-1)
            return F.weighted_sum(states, weights)
        weights = np.asarray(layer_weights, dtype=np.float64)
        if weights.shape[0] != len(states):
            raise ValueError(
                f"expected {len(states)} layer weights, received {weights.shape[0]}"
            )
        selected = np.flatnonzero(weights)
        if selected.size == 1 and weights[selected[0]] == 1.0:
            # A discrete depth choice selects its state.  The weighted sum
            # gives the same bytes, except that it turns an inf or NaN in an
            # unselected state into NaN (0 * inf) and a selected -0.0 into +0.0.
            return states[int(selected[0])]
        return F.weighted_sum(states, Tensor(weights))

    def forward(self, data: GraphTensors, layer_weights: LayerWeights = None) -> Tensor:
        """Return class logits of shape ``(num_nodes, num_classes)``."""
        states = self.encode(data)
        combined = self.combine_states(states, layer_weights)
        return self.head(combined)

    def predict_log_proba(self, data: GraphTensors, layer_weights: LayerWeights = None) -> Tensor:
        return F.log_softmax(self.forward(data, layer_weights), axis=-1)

    def predict_proba(self, data: GraphTensors, layer_weights: LayerWeights = None) -> np.ndarray:
        """Class probabilities as a plain array (no gradient tracking)."""
        return F.softmax_array(self.forward_inference(data, layer_weights), axis=-1)

    def forward_inference(self, data: GraphTensors,
                          layer_weights: LayerWeights = None) -> np.ndarray:
        """Class logits as a plain ndarray: :meth:`forward` in eval mode
        (dropout off) under ``no_grad``, so no backward graph is recorded.

        Evaluation, proxy scoring, ensemble weight search and serving call
        this; the model's previous training mode is restored afterwards.
        That switch mutates the model, so threads may share a model here
        only while it is in eval mode (``FittedEnsemble`` members are).
        """
        from repro.autograd.tensor import no_grad

        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                return self.forward(data, layer_weights).data
        finally:
            if was_training:
                self.train()

    # ------------------------------------------------------------------
    # Introspection used by the proxy evaluator / model zoo
    # ------------------------------------------------------------------
    def architecture_summary(self) -> dict:
        return {
            "name": self.model_name,
            "hidden": self.hidden,
            "num_layers": self.num_layers,
            "dropout": self.dropout_rate,
            "activation": self.activation_name,
            "parameters": self.num_parameters(),
        }


class StackedConvModel(GNNModel):
    """Generic "stack of convolutions" model.

    Most members of the candidate pool (GCN, GraphSAGE, GAT, GIN, TAGCN,
    ChebNet, ARMA, GraphConv, GatedGNN) only differ in the convolution they
    stack; this class implements the shared plumbing — an input projection,
    ``num_layers`` convolutions of width ``hidden``, activations, dropout and
    the per-layer state collection required by GSE.
    """

    def __init__(self, conv_factory: Callable[[int, int, np.random.Generator], Module],
                 in_features: int, num_classes: int, hidden: int = 64, num_layers: int = 2,
                 dropout: float = 0.5, activation: str = "relu", seed: int = 0,
                 name: Optional[str] = None, input_projection: bool = False) -> None:
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         activation, seed, name)
        self.input_projection = (
            Linear(in_features, hidden, rng=self.rng) if input_projection else None
        )
        first_in = hidden if input_projection else in_features
        self.convs = ModuleList()
        for layer_index in range(num_layers):
            conv_in = first_in if layer_index == 0 else hidden
            self.convs.append(conv_factory(conv_in, hidden, self.rng))
        # Fusion decision, resolved once: convs exposing the ``forward_fused``
        # hook (``GCNConv``, ``RGCNConv``) absorb an in-place-
        # applicable activation into the kernel.  The fused result is
        # bit-identical to the unfused conv + activation sequence
        # (``np.maximum`` on the same pre-activation either way); it just
        # skips one graph node and one full-size temporary per layer.
        fusable = self.activation_name in kernels.FUSED_ACTIVATIONS
        self._fused_activations = [
            self.activation_name if fusable and hasattr(conv, "forward_fused") else None
            for conv in self.convs
        ]
        self.receptive_field = sum(self._conv_hops(conv) for conv in self.convs)

    @staticmethod
    def _conv_hops(conv: Module) -> int:
        """Graph hops one application of ``conv`` spans (1 for plain convs)."""
        if hasattr(conv, "hops"):           # SGConv, TAGConv
            return int(conv.hops)
        if hasattr(conv, "order"):          # ChebConv: T_{K-1} reaches K-1 hops
            return max(int(conv.order) - 1, 1)
        if hasattr(conv, "num_iterations"):  # ARMAConv
            return int(conv.num_iterations)
        return 1

    def encode(self, data: GraphTensors) -> List[Tensor]:
        x = data.features
        if self.input_projection is not None:
            x = self.activation(self.input_projection(x))
        states: List[Tensor] = []
        for conv, fused in zip(self.convs, self._fused_activations):
            x = self.dropout(x)
            if fused is not None:
                x = conv.forward_fused(x, data, fused)
            else:
                x = conv(x, data)
                x = self.activation(x)
            states.append(x)
        return states
