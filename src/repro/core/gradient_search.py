"""``AutoHEnsGNN_Gradient`` — bi-level gradient search of α and β (Algorithm 1).

The layer-selection vectors α (one per replica of every GSE) and the ensemble
weights β are treated as *architecture parameters*.  Following DARTS-style
relaxation (Eqns 6–7), the one-hot α is replaced by a softmax over layers so
the validation loss becomes differentiable in α and β, and the first-order
approximation alternates

* gradient steps on the model weights ``w`` using the training loss, and
* every ``M`` epochs a gradient step on ``(α, β)`` using the validation loss.

After convergence the discrete configuration is recovered with
``L* = argmax softmax(α)`` and ``β* = softmax(β)``, and every sub-model is
re-trained from scratch with those fixed choices (handled by the pipeline).

To keep the joint-training memory footprint bounded the search runs on the
proxy model / proxy dataset, exactly as Section IV-D3 describes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import functional as F
from repro.autograd import optim
from repro.autograd.module import Parameter
from repro.autograd.tensor import Tensor, no_grad
from repro.nn.data import GraphTensors
from repro.nn.model_zoo import get_model_spec
from repro.nn.models.base import GNNModel
from repro.tasks.metrics import accuracy


@dataclass
class GradientSearchResult:
    """Discrete configuration derived from the relaxed architecture parameters."""

    chosen_layers: Dict[str, List[int]]      # model name -> depth per replica
    beta: np.ndarray                          # normalised ensemble weights
    alpha_softmax: Dict[str, List[np.ndarray]]
    search_time: float
    history: List[Dict[str, float]] = field(default_factory=list)

    def layer_weights(self, spec_name: str) -> List[np.ndarray]:
        """One-hot α vectors per replica for the chosen configuration."""
        vectors = []
        for depth, soft in zip(self.chosen_layers[spec_name], self.alpha_softmax[spec_name]):
            alpha = np.zeros(soft.shape[0])
            alpha[depth - 1] = 1.0
            vectors.append(alpha)
        return vectors


class GradientSearch:
    """Joint gradient-based search over the hierarchical ensemble configuration."""

    def __init__(self, pool: Sequence[str], ensemble_size: int = 3, max_layers: int = 4,
                 hidden: int = 64, hidden_fraction: float = 0.5, lr: float = 0.02,
                 architecture_lr: float = 3e-4, weight_decay: float = 5e-4,
                 epochs: int = 60, update_every: int = 1, patience: int = 15,
                 seed: int = 0) -> None:
        self.pool = list(pool)
        self.ensemble_size = ensemble_size
        self.max_layers = max_layers
        self.hidden = hidden
        self.hidden_fraction = hidden_fraction
        self.lr = lr
        self.architecture_lr = architecture_lr
        self.weight_decay = weight_decay
        self.epochs = epochs
        self.update_every = update_every
        self.patience = patience
        self.seed = seed
        # Populated by ``search`` for inspection (Table VI memory accounting).
        self.models: List[List[GNNModel]] = []
        self.alpha_parameters: List[List[Parameter]] = []
        self.beta_parameter: Optional[Parameter] = None

    # ------------------------------------------------------------------
    # Construction of the joint search network
    # ------------------------------------------------------------------
    def _build(self, num_features: int, num_classes: int) -> None:
        self.models = []
        self.alpha_parameters = []
        for model_index, spec_name in enumerate(self.pool):
            spec = get_model_spec(spec_name)
            replicas: List[GNNModel] = []
            alphas: List[Parameter] = []
            for replica_index in range(self.ensemble_size):
                model = spec.build(
                    in_features=num_features,
                    num_classes=num_classes,
                    hidden=self.hidden,
                    num_layers=self.max_layers,
                    hidden_fraction=self.hidden_fraction,
                    seed=self.seed + 101 * model_index + 31 * replica_index,
                )
                replicas.append(model)
                alphas.append(Parameter(np.zeros(model.num_layers),
                                        name=f"alpha/{spec_name}/{replica_index}"))
            self.models.append(replicas)
            self.alpha_parameters.append(alphas)
        self.beta_parameter = Parameter(np.zeros(len(self.pool)), name="beta")

    # ------------------------------------------------------------------
    # Differentiable hierarchical prediction (Eqns 3, 4, 7)
    # ------------------------------------------------------------------
    def _ensemble_log_proba(self, data: GraphTensors) -> Tensor:
        beta = F.softmax(self.beta_parameter, axis=-1)
        mixture: Optional[Tensor] = None
        for model_index, replicas in enumerate(self.models):
            gse_probability: Optional[Tensor] = None
            for replica_index, model in enumerate(replicas):
                alpha = self.alpha_parameters[model_index][replica_index]
                logits = model(data, layer_weights=alpha)
                probabilities = F.softmax(logits, axis=-1)
                gse_probability = probabilities if gse_probability is None \
                    else gse_probability + probabilities
            gse_probability = gse_probability * (1.0 / len(replicas))
            weighted = gse_probability * beta[model_index]
            mixture = weighted if mixture is None else mixture + weighted
        return (mixture + 1e-12).log()

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def search(self, data: GraphTensors, labels: np.ndarray, train_index: np.ndarray,
               val_index: np.ndarray, num_classes: int) -> GradientSearchResult:
        """Run the alternating first-order optimisation and derive α*, β*."""
        labels = np.asarray(labels)
        train_index = np.asarray(train_index)
        val_index = np.asarray(val_index)
        self._build(data.num_features, num_classes)

        weight_parameters = [p for replicas in self.models for m in replicas
                             for p in m.parameters()]
        architecture_parameters = [alpha for alphas in self.alpha_parameters for alpha in alphas]
        architecture_parameters.append(self.beta_parameter)

        weight_optimizer = optim.Adam(weight_parameters, lr=self.lr,
                                      weight_decay=self.weight_decay)
        architecture_optimizer = optim.Adam(architecture_parameters, lr=self.architecture_lr,
                                            weight_decay=0.0)

        history: List[Dict[str, float]] = []
        best_val = -np.inf
        epochs_without_improvement = 0
        start = time.time()
        for epoch in range(self.epochs):
            # --- update model weights w on the training loss -----------------
            for replicas in self.models:
                for model in replicas:
                    model.train()
            weight_optimizer.zero_grad()
            log_probabilities = self._ensemble_log_proba(data)
            train_loss = F.nll_loss(log_probabilities[train_index], labels[train_index])
            train_loss.backward()
            # Only step the weights; clear any architecture gradients produced.
            for parameter in architecture_parameters:
                parameter.zero_grad()
            weight_optimizer.step()

            # --- update architecture parameters on the validation loss -------
            val_loss_value = float("nan")
            if (epoch + 1) % self.update_every == 0:
                architecture_optimizer.zero_grad()
                log_probabilities = self._ensemble_log_proba(data)
                val_loss = F.nll_loss(log_probabilities[val_index], labels[val_index])
                val_loss.backward()
                for parameter in weight_parameters:
                    parameter.zero_grad()
                architecture_optimizer.step()
                val_loss_value = float(val_loss.item())

            val_accuracy = self._validation_accuracy(data, labels, val_index)
            history.append({"epoch": float(epoch), "train_loss": float(train_loss.item()),
                            "val_loss": val_loss_value, "val_accuracy": val_accuracy})
            if val_accuracy > best_val:
                best_val = val_accuracy
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= self.patience:
                    break

        return self._finalize(start, history)

    def _validation_accuracy(self, data: GraphTensors, labels: np.ndarray,
                             val_index: np.ndarray) -> float:
        for replicas in self.models:
            for model in replicas:
                model.eval()
        with no_grad():
            log_probabilities = self._ensemble_log_proba(data).data
        return accuracy(log_probabilities[val_index], labels[val_index])

    def _finalize(self, start: float, history: List[Dict[str, float]]) -> GradientSearchResult:
        chosen_layers: Dict[str, List[int]] = {}
        alpha_softmax: Dict[str, List[np.ndarray]] = {}
        for spec_name, alphas in zip(self.pool, self.alpha_parameters):
            depths: List[int] = []
            softs: List[np.ndarray] = []
            for alpha in alphas:
                soft = np.exp(alpha.data - alpha.data.max())
                soft = soft / soft.sum()
                depths.append(int(soft.argmax()) + 1)
                softs.append(soft)
            chosen_layers[spec_name] = depths
            alpha_softmax[spec_name] = softs
        beta_logits = self.beta_parameter.data
        beta = np.exp(beta_logits - beta_logits.max())
        beta = beta / beta.sum()
        return GradientSearchResult(
            chosen_layers=chosen_layers,
            beta=beta,
            alpha_softmax=alpha_softmax,
            search_time=time.time() - start,
            history=history,
        )

    # ------------------------------------------------------------------
    # Introspection for the runtime study (Table VI)
    # ------------------------------------------------------------------
    def parameter_bytes(self) -> int:
        """Approximate peak parameter memory of the joint search network."""
        total = 0
        for replicas in self.models:
            for model in replicas:
                total += sum(p.data.nbytes for p in model.parameters())
        if self.beta_parameter is not None:
            total += self.beta_parameter.data.nbytes
        for alphas in self.alpha_parameters:
            total += sum(alpha.data.nbytes for alpha in alphas)
        return total
