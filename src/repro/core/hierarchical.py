"""Hierarchical ensemble — the weighted combination of graph self-ensembles (Eqn 4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.gse import GraphSelfEnsemble, fit_member
from repro.nn.data import GraphTensors
from repro.parallel.backends import BackendLike, scoped_backend
from repro.resilience.policy import FailureReport
from repro.tasks.metrics import accuracy
from repro.tasks.trainer import TrainConfig


def normalize_weights(weights: Sequence[float]) -> np.ndarray:
    """Softmax-free normalisation used for already-positive ensemble weights."""
    array = np.asarray(list(weights), dtype=np.float64)
    if array.size == 0:
        raise ValueError("cannot normalise an empty weight vector")
    array = np.maximum(array, 0.0)
    total = array.sum()
    if total <= 0:
        return np.full(array.size, 1.0 / array.size)
    return array / total


@dataclass
class HierarchicalEnsemble:
    """Weighted ensemble ``Y = sum_j beta_j * Y_GSE_j`` over the model pool."""

    ensembles: List[GraphSelfEnsemble] = field(default_factory=list)
    beta: Optional[np.ndarray] = None
    #: Member trainings dropped by a resilience policy in the last
    #: :meth:`fit`, annotated with their GSE's architecture and member slot.
    fit_failures: List[FailureReport] = field(default_factory=list)

    def add(self, ensemble: GraphSelfEnsemble) -> "HierarchicalEnsemble":
        self.ensembles.append(ensemble)
        return self

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, data: GraphTensors, labels: np.ndarray, train_index: np.ndarray,
            val_index: np.ndarray, train_config: Optional[TrainConfig] = None,
            num_classes: Optional[int] = None,
            backend: BackendLike = None, policy=None) -> "HierarchicalEnsemble":
        """Train every member GSE (each member model is trained separately).

        All ``N x K`` member models across every GSE are independent, so their
        training tasks are flattened onto one backend map — a parallel backend
        keeps every worker busy instead of synchronising after each GSE.
        ``train_config.batch_size`` propagates to every member trainer, so
        one flag moves the whole hierarchical re-training to
        neighbour-sampled minibatches on large graphs.
        """
        tasks = []
        counts = []
        for ensemble in self.ensembles:
            ensemble_tasks = ensemble.member_tasks(data, labels, train_index, val_index,
                                                   train_config=train_config,
                                                   num_classes=num_classes)
            tasks.extend(ensemble_tasks)
            counts.append(len(ensemble_tasks))
        with scoped_backend(backend) as executor:
            report = executor.map(fit_member, tasks, policy=policy)
        offset = 0
        for ensemble, count in zip(self.ensembles, counts):
            slice_results = report.results[offset:offset + count]
            for failure in report.failures:
                if offset <= failure.index < offset + count:
                    failure.context.setdefault("architecture", ensemble.spec_name)
                    failure.context.setdefault("member", failure.index - offset)
            ensemble.apply_member_results(slice_results)
            offset += count
        self.fit_failures = list(report.failures)
        return self

    def set_beta(self, beta: Sequence[float]) -> "HierarchicalEnsemble":
        beta = np.asarray(list(beta), dtype=np.float64)
        if beta.shape[0] != len(self.ensembles):
            raise ValueError("beta must have one weight per ensemble")
        self.beta = normalize_weights(beta)
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def effective_beta(self) -> np.ndarray:
        if self.beta is not None:
            return self.beta
        return np.full(len(self.ensembles), 1.0 / max(len(self.ensembles), 1))

    def predict_proba(self, data: GraphTensors) -> np.ndarray:
        if not self.ensembles:
            raise RuntimeError("hierarchical ensemble is empty")
        beta = self.effective_beta()
        total = None
        for weight, ensemble in zip(beta, self.ensembles):
            probabilities = ensemble.predict_proba(data)
            # β is float64; a float64 scalar would promote float32 members.
            probabilities = probabilities * probabilities.dtype.type(weight)
            total = probabilities if total is None else total + probabilities
        return total

    def predict(self, data: GraphTensors) -> np.ndarray:
        return self.predict_proba(data).argmax(axis=1)

    def evaluate(self, data: GraphTensors, labels: np.ndarray, index: np.ndarray) -> float:
        index = np.asarray(index)
        return accuracy(self.predict_proba(data)[index], np.asarray(labels)[index])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def validation_accuracies(self) -> List[float]:
        return [ensemble.validation_accuracy for ensemble in self.ensembles]

    def describe(self) -> Dict[str, object]:
        return {
            "pool": [ensemble.describe() for ensemble in self.ensembles],
            "beta": [float(b) for b in self.effective_beta()],
        }

    # ------------------------------------------------------------------
    # Artifact de/serialisation (repro.core.artifact)
    # ------------------------------------------------------------------
    def manifest_entry(self) -> Dict[str, object]:
        """JSON-safe construction record of this split's GSEs and β."""
        return {
            "beta": None if self.beta is None else [float(b) for b in self.beta],
            "ensembles": [ensemble.manifest_entry() for ensemble in self.ensembles],
        }

    @classmethod
    def from_manifest_entry(cls, entry: Dict[str, object], num_features: int,
                            num_classes: int) -> "HierarchicalEnsemble":
        """Rebuild the split (members instantiated, weights not yet loaded).

        ``beta`` is restored verbatim — it was normalised at fit time, and
        re-normalising would perturb the stored values by one floating-point
        division, breaking bit-identical predictions.
        """
        hierarchical = cls()
        for ensemble_entry in entry["ensembles"]:
            hierarchical.add(GraphSelfEnsemble.from_manifest_entry(
                ensemble_entry, num_features, num_classes))
        if entry.get("beta") is not None:
            hierarchical.beta = np.asarray(entry["beta"], dtype=np.float64)
        return hierarchical
