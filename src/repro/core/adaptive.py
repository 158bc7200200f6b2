"""``AutoHEnsGNN_Adaptive`` — grid-searched α plus the closed-form β of Eqn 8.

The adaptive variant avoids co-training the whole hierarchical ensemble:

1. every architecture of the pool is optimised *independently* (the search
   space drops from ``L^{K x N}`` to ``L^K``),
2. its layer choice α is found by a grid search over depths 1..L,
3. the ensemble weight β is not searched at all but computed from the
   validation accuracies with an annealed softmax whose temperature depends
   on the graph's average degree (Eqn 8) — sparse graphs get a sharper
   distribution that concentrates weight on the best models.

This is the variant submitted to the KDD Cup (Section IV-E) because its GPU
memory footprint equals a single model's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import AdaptiveConfig
from repro.core.gse import GraphSelfEnsemble, one_hot_alpha
from repro.core.hierarchical import HierarchicalEnsemble
from repro.graph.graph import Graph
from repro.nn.data import GraphTensors
from repro.nn.model_zoo import get_model_spec
from repro.parallel.backends import BackendLike, get_backend
from repro.resilience.policy import FailureReport, ResiliencePolicy
from repro.tasks.trainer import NodeClassificationTrainer, TrainConfig


def _score_depth(task) -> float:
    """Train one (architecture, depth) grid point; picklable for process pools."""
    (spec_name, depth, data, labels, train_index, val_index, num_classes,
     hidden, hidden_fraction, train_config, seed) = task
    spec = get_model_spec(spec_name)
    model = spec.build(
        in_features=data.num_features,
        num_classes=num_classes,
        hidden=hidden,
        num_layers=depth,
        hidden_fraction=hidden_fraction,
        seed=seed,
    )
    alpha = one_hot_alpha(model.num_layers, model.num_layers)
    result = NodeClassificationTrainer(train_config).train(
        model, data, labels, train_index, val_index, layer_weights=alpha)
    return result.best_val_accuracy


def adaptive_beta(accuracies: Sequence[float], num_edges: int, num_nodes: int,
                  config: Optional[AdaptiveConfig] = None) -> np.ndarray:
    """Ensemble weights from validation accuracies via the annealed softmax of Eqn 8.

    ``tau = 1 + (1 + min(eps, 1 + log(#edges/#nodes + 1))) * lambda / gamma``;
    the sparser the graph, the smaller ``tau`` and the sharper the resulting
    softmax (more weight on the most accurate models).
    """
    config = config or AdaptiveConfig()
    accuracies = np.asarray(list(accuracies), dtype=np.float64)
    if accuracies.size == 0:
        raise ValueError("adaptive_beta needs at least one accuracy")
    average_degree_term = 1.0 + np.log(num_edges / max(num_nodes, 1) + 1.0)
    tau = 1.0 + (1.0 + min(config.epsilon, average_degree_term)) * config.lam / config.gamma
    # Normalise accuracies so the softmax argument scale is comparable across datasets.
    spread = accuracies.max() - accuracies.min()
    normalised = (accuracies - accuracies.min()) / (spread + 1e-12) if spread > 0 else np.zeros_like(accuracies)
    logits = normalised / tau
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


@dataclass
class AdaptiveSearchResult:
    """Outcome of the adaptive search: per-model depth choices and β."""

    chosen_layers: Dict[str, int]
    layer_scores: Dict[str, List[float]]
    beta: np.ndarray
    validation_accuracies: List[float]
    #: Grid points dropped under a ``drop`` resilience policy.  An
    #: architecture whose *entire* depth column failed is absent from
    #: ``chosen_layers`` (the surviving pool is ``list(chosen_layers)``).
    failures: List[FailureReport] = field(default_factory=list)


class AdaptiveSearch:
    """Grid-search α per GSE, then compute β adaptively from accuracies."""

    def __init__(self, pool: Sequence[str], ensemble_size: int = 3, max_layers: int = 4,
                 hidden: int = 64, adaptive_config: Optional[AdaptiveConfig] = None,
                 train_config: Optional[TrainConfig] = None, seed: int = 0,
                 backend: BackendLike = None,
                 max_workers: Optional[int] = None,
                 policy: Optional[ResiliencePolicy] = None) -> None:
        self.pool = list(pool)
        self.ensemble_size = ensemble_size
        self.max_layers = max_layers
        self.hidden = hidden
        self.adaptive_config = adaptive_config or AdaptiveConfig()
        self.train_config = train_config or TrainConfig(lr=0.02, max_epochs=120, patience=15)
        self.seed = seed
        self.backend = get_backend(backend, max_workers=max_workers)
        # With on_failure="drop" a failing grid point loses only that depth;
        # an architecture survives as long as one of its depths trained.
        self.policy = policy

    def close(self) -> None:
        """Release pooled workers (use the search as a context manager)."""
        self.backend.close()

    def __enter__(self) -> "AdaptiveSearch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Full search
    # ------------------------------------------------------------------
    def search(self, graph: Graph, data: GraphTensors, labels: np.ndarray,
               train_index: np.ndarray, val_index: np.ndarray,
               num_classes: int, hidden_fraction: float = 0.5) -> AdaptiveSearchResult:
        """Choose a depth per architecture and compute the adaptive β.

        Every (architecture, depth) grid point is an independent training run,
        so the whole ``N x L`` grid is flattened onto the execution backend.
        """
        tasks = [
            (spec_name, depth, data, labels, train_index, val_index, num_classes,
             self.hidden, hidden_fraction, self.train_config, self.seed)
            for spec_name in self.pool
            for depth in range(1, self.max_layers + 1)
        ]
        report = self.backend.map(_score_depth, tasks, policy=self.policy)
        if len(report.results) != len(tasks):
            raise RuntimeError(
                f"adaptive search got {len(report.results)} results for "
                f"{len(tasks)} grid points; a grid without a budget must "
                "resolve every point")
        for failure in report.failures:
            failure.context.setdefault(
                "architecture", self.pool[failure.index // self.max_layers])
            failure.context.setdefault(
                "depth", failure.index % self.max_layers + 1)
        chosen_layers: Dict[str, int] = {}
        layer_scores: Dict[str, List[float]] = {}
        best_scores: List[float] = []
        for pool_index, spec_name in enumerate(self.pool):
            scores = list(report.results[pool_index * self.max_layers:
                                         (pool_index + 1) * self.max_layers])
            if any(score is None for score in scores):
                # Dropped grid points (resilience policy) lose only their
                # depth; an architecture with no surviving depth is excluded
                # from the pool entirely.
                scores = [-np.inf if score is None else score for score in scores]
                if not np.isfinite(max(scores)):
                    layer_scores[spec_name] = scores
                    continue
            chosen_layers[spec_name] = int(np.argmax(scores)) + 1
            layer_scores[spec_name] = scores
            best_scores.append(max(scores))
        if not chosen_layers:
            raise RuntimeError(
                "adaptive search lost every architecture: all grid points "
                "failed under the resilience policy "
                f"({len(report.failures)} failures recorded)")
        beta = adaptive_beta(best_scores, graph.num_edges, graph.num_nodes,
                             self.adaptive_config)
        return AdaptiveSearchResult(
            chosen_layers=chosen_layers,
            layer_scores=layer_scores,
            beta=beta,
            validation_accuracies=best_scores,
            failures=list(report.failures),
        )

    # ------------------------------------------------------------------
    # Materialise the hierarchical ensemble found by the search
    # ------------------------------------------------------------------
    def build_ensemble(self, result: AdaptiveSearchResult, dropout: float = 0.5,
                       hidden_fraction: float = 1.0) -> HierarchicalEnsemble:
        """Create the (untrained) hierarchical ensemble with searched depths and β."""
        hierarchical = HierarchicalEnsemble()
        for index, spec_name in enumerate(self.pool):
            if spec_name not in result.chosen_layers:
                # Architecture lost every grid point under a drop policy.
                # The enumerate index still advances so survivors keep the
                # exact member seeds they would get in a fault-free run.
                continue
            depth = result.chosen_layers[spec_name]
            alpha = one_hot_alpha(depth, depth)
            hierarchical.add(GraphSelfEnsemble(
                spec_name=spec_name,
                num_members=self.ensemble_size,
                hidden=self.hidden,
                num_layers=depth,
                dropout=dropout,
                hidden_fraction=hidden_fraction,
                base_seed=self.seed + 1000 * index,
                layer_weights=[alpha],
            ))
        hierarchical.set_beta(result.beta)
        return hierarchical
