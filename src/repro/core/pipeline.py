"""The end-to-end AutoHEnsGNN pipeline (Figure 1).

Given a graph whose test labels are unknown, :class:`AutoHEnsGNN`:

1. runs proxy evaluation over the candidate zoo and selects the top-``N`` pool,
2. searches the hierarchical-ensemble configuration (α per GSE replica and β)
   with either the adaptive or the gradient algorithm,
3. re-trains every sub-model from scratch with the searched configuration on
   one or more random train/validation splits (bagging), and
4. averages everything into the final prediction.

The pipeline is deliberately *hands-off*: the only required input is the
graph; every decision the paper automates (model choice, depths, weights,
hyper-parameters) is made internally, honouring an optional wall-clock time
budget like the challenge imposes.

The estimator lifecycle separates the expensive part from the cheap part:
:meth:`AutoHEnsGNN.fit` pays the AutoML cost once and returns a
:class:`~repro.core.artifact.FittedEnsemble` that owns every trained member
and answers ``predict_proba``/``predict`` requests through
``forward_inference``, can be ``save``d to a versioned artifact and ``load``ed
in a fresh serving process (see :mod:`repro.serve`).  The historical
one-shot :meth:`AutoHEnsGNN.fit_predict` remains as a thin wrapper over
``fit`` and is bit-identical to its pre-estimator behaviour at fixed seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from dataclasses import replace as dataclasses_replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.automl.budget import TimeBudget
from repro.autograd.dtype import compute_dtype_name, compute_dtype_scope
from repro.core.adaptive import AdaptiveSearch
from repro.core.artifact import FittedEnsemble
from repro.core.config import AutoHEnsGNNConfig, SearchMethod
from repro.core.gradient_search import GradientSearch
from repro.core.gse import GraphSelfEnsemble, one_hot_alpha
from repro.core.hierarchical import HierarchicalEnsemble
from repro.core.proxy import ProxyEvaluator
from repro.core.selection import select_top_models
from repro.graph.graph import Graph
from repro.graph.splits import random_split
from repro.nn.data import GraphTensors
from repro.parallel.backends import ExecutionBackend, ProcessBackend, get_backend
from repro.resilience.policy import FailureReport
from repro.tasks.metrics import accuracy
from repro.tasks.trainer import TrainConfig


@dataclass
class PipelineResult:
    """Everything the pipeline produced, for inspection and the experiment harness."""

    probabilities: np.ndarray
    predictions: np.ndarray
    pool: List[str]
    beta: np.ndarray
    chosen_layers: Dict[str, object]
    proxy_time: float
    search_time: float
    train_time: float
    total_time: float
    proxy_ranking: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    def test_accuracy(self, labels: np.ndarray, test_index: np.ndarray) -> float:
        test_index = np.asarray(test_index)
        return accuracy(self.probabilities[test_index], np.asarray(labels)[test_index])


class AutoHEnsGNN:
    """Automated hierarchical ensemble of graph neural networks."""

    def __init__(self, config: Optional[AutoHEnsGNNConfig] = None) -> None:
        self.config = config or AutoHEnsGNNConfig()
        self.hierarchical_ensembles: List[HierarchicalEnsemble] = []
        self.executor: ExecutionBackend = get_backend(self.config.backend,
                                                      max_workers=self.config.max_workers)
        # Shared-memory graph store (config.shared_graph on the process
        # backend); created per fit() run, closed in its finally.
        self._shared_store = None

    # ------------------------------------------------------------------
    # Fit / predict
    # ------------------------------------------------------------------
    def fit(self, graph: Graph, pool: Optional[Sequence[str]] = None) -> FittedEnsemble:
        """Run the AutoML pipeline once and return the fitted ensemble.

        This is the expensive half of the estimator lifecycle: proxy
        evaluation, configuration search and bagged re-training.  The
        returned :class:`~repro.core.artifact.FittedEnsemble` owns every
        trained member and serves ``predict_proba``/``predict`` requests
        against the original graph or a re-built one with the same feature
        schema; ``save``/``load`` persist it across processes.  Its
        ``fit_report`` attribute carries the full
        :class:`PipelineResult` (fit-time probabilities, timings, proxy
        ranking).

        ``pool`` can pre-specify the model pool (used by ablations);
        otherwise proxy evaluation selects it automatically.
        """
        self.config.validate()
        try:
            # Apply the engine dtype policy for the duration of the run (and
            # restore the caller's policy afterwards): every GraphTensors
            # view, parameter and optimiser buffer downstream then lives in
            # the configured dtype.
            with compute_dtype_scope(self.config.compute_dtype):
                return self._fit(graph, pool)
        finally:
            # Release pooled workers (process backends hold live interpreter
            # processes); the executor is re-created lazily on the next call.
            self.executor.close()
            if self._shared_store is not None:
                self._shared_store.close()
                self._shared_store = None

    def fit_predict(self, graph: Graph, pool: Optional[Sequence[str]] = None) -> PipelineResult:
        """Fit on ``graph`` and return the fit-time predictions for every node.

        A thin wrapper over :meth:`fit` kept for the one-shot transductive
        workflow of the paper; bit-identical to the historical behaviour at
        fixed seeds.  ``result.probabilities`` equals
        ``fit(graph).predict_proba(graph)`` bit-for-bit — use :meth:`fit`
        when the ensemble should outlive the prediction.
        """
        return self.fit(graph, pool).fit_report

    def _fit(self, graph: Graph, pool: Optional[Sequence[str]] = None) -> FittedEnsemble:
        config = self.config
        total_start = time.time()
        budget = TimeBudget(config.time_budget)
        data = GraphTensors.from_graph(graph)
        labelled = graph.metadata.get("labelled_pool")

        # Minibatch mode: thread batch_size/fanouts into every training
        # stage, field-wise — pipeline-level values are *defaults*, so a
        # stage-level TrainConfig/ProxyConfig that names its own value keeps
        # it.  With everything None this is an identity rewrite, keeping the
        # full-batch path bit-for-bit identical to before the minibatch
        # engine existed.
        train_config = config.train.with_overrides(
            batch_size=config.train.batch_size
            if config.train.batch_size is not None else config.batch_size,
            fanouts=config.train.fanouts
            if config.train.fanouts is not None else config.fanouts,
            num_partitions=config.train.num_partitions
            if config.train.num_partitions is not None else config.num_partitions,
            capture=config.train.capture and config.capture)
        proxy_config = dataclasses_replace(
            config.proxy,
            batch_size=config.proxy.batch_size
            if config.proxy.batch_size is not None else config.batch_size,
            fanouts=config.proxy.fanouts
            if config.proxy.fanouts is not None else config.fanouts,
            capture=config.proxy.capture and config.capture)

        # ------------------------------------------------------------------
        # 1. Proxy evaluation and pool selection
        # ------------------------------------------------------------------
        proxy_start = time.time()
        proxy_ranking: List[str] = []
        # Failure reports from every supervised stage (empty without a
        # drop policy) end up in PipelineResult.details["failures"].
        policy = config.resilience
        failure_reports: List[FailureReport] = []
        if pool is None:
            evaluator = ProxyEvaluator(proxy_config, candidates=config.candidate_models,
                                       backend=self.executor, policy=policy,
                                       shared_graph=config.shared_graph)
            report = evaluator.evaluate(graph, seed=config.seed, budget=budget)
            proxy_ranking = report.ranking()
            failure_reports.extend(report.failures)
            pool = select_top_models(report, config.pool_size)
        pool = list(pool)
        proxy_time = time.time() - proxy_start
        budget.check("proxy evaluation")

        # ------------------------------------------------------------------
        # 2. Configuration search (α, β)
        # ------------------------------------------------------------------
        search_start = time.time()
        search_split = random_split(graph, val_fraction=config.val_fraction,
                                    seed=config.seed, labelled_pool=labelled)
        train_index = search_split.mask_indices("train")
        val_index = search_split.mask_indices("val")
        # Gradient search co-trains the whole relaxed ensemble and therefore
        # always runs full-batch; minibatch mode applies to the adaptive
        # search, proxy evaluation and the bagged re-training below.
        if config.search_method == SearchMethod.GRADIENT and budget.remaining_fraction() > 0.3:
            search = GradientSearch(
                pool=pool,
                ensemble_size=config.ensemble_size,
                max_layers=config.max_layers,
                hidden=config.hidden,
                hidden_fraction=config.proxy.hidden_fraction,
                lr=config.train.lr,
                architecture_lr=config.architecture_lr,
                epochs=config.search_epochs,
                update_every=config.architecture_update_every,
                seed=config.seed,
            )
            result = search.search(data, search_split.labels, train_index, val_index,
                                   num_classes=graph.num_classes)
            beta = result.beta
            chosen_layers: Dict[str, object] = result.chosen_layers
            layer_weights = {name: result.layer_weights(name) for name in pool}
            search_details: Dict[str, object] = {"history": result.history}
        else:
            search = AdaptiveSearch(
                pool=pool,
                ensemble_size=config.ensemble_size,
                max_layers=config.max_layers,
                hidden=config.hidden,
                adaptive_config=config.adaptive,
                train_config=train_config.with_overrides(max_epochs=config.search_epochs),
                seed=config.seed,
                backend=self.executor,
                policy=policy,
            )
            result = search.search(graph, data, search_split.labels, train_index, val_index,
                                   num_classes=graph.num_classes,
                                   hidden_fraction=config.proxy.hidden_fraction)
            beta = result.beta
            chosen_layers = result.chosen_layers
            failure_reports.extend(result.failures)
            if len(chosen_layers) < len(pool):
                # Architectures that lost every grid point under the drop
                # policy leave the pool; beta was computed over the
                # survivors, so pool and beta stay aligned.
                pool = [name for name in pool if name in chosen_layers]
            layer_weights = {
                name: [one_hot_alpha(result.chosen_layers[name], result.chosen_layers[name])]
                for name in pool
            }
            search_details = {"layer_scores": result.layer_scores}
        search_time = time.time() - search_start
        budget.check("configuration search")

        # ------------------------------------------------------------------
        # 3. Re-training with bagging over data splits
        # ------------------------------------------------------------------
        train_start = time.time()
        # shared_graph: publish the graph tensors once to a shared-memory
        # store and hand process workers a small handle — every worker then
        # maps the CSR operators and feature blocks read-only instead of
        # unpickling its own copy of the graph.  The mapped bytes are the
        # published bytes, so training is bit-identical either way.  Only
        # the bagged re-training fans the full graph out per task (proxy
        # evaluation ships its own sub-graph and publishes it itself; the
        # adaptive search shares this executor but trains on grid-point
        # sub-problems of the same data object in-process).
        fanout_data: object = data
        if config.shared_graph and isinstance(self.executor, ProcessBackend):
            from repro.graph.shm import SharedGraphStore
            # Closed (files unlinked) by fit()'s finally alongside the
            # executor — the workers' existing mappings stay valid on Linux
            # until they unmap, so closing cannot race a straggling task.
            self._shared_store = SharedGraphStore()
            fanout_data = self._shared_store.put_tensors(data)
        self.hierarchical_ensembles = []
        split_probabilities: List[np.ndarray] = []
        for split_index in range(max(config.bagging_splits, 1)):
            split_graph = random_split(graph, val_fraction=config.val_fraction,
                                       seed=config.seed + 7919 * split_index,
                                       labelled_pool=labelled)
            hierarchical = HierarchicalEnsemble()
            for model_index, name in enumerate(pool):
                depth = chosen_layers[name]
                if isinstance(depth, list):
                    depth_value = int(round(float(np.mean(depth))))
                else:
                    depth_value = int(depth)
                hierarchical.add(GraphSelfEnsemble(
                    spec_name=name,
                    num_members=config.ensemble_size,
                    hidden=config.hidden,
                    num_layers=max(depth_value, 1),
                    dropout=config.train.dropout,
                    base_seed=config.seed + 997 * split_index + 131 * model_index,
                    layer_weights=layer_weights[name],
                ))
            # The N x K member models of this split train concurrently on the
            # configured backend; the split loop itself stays sequential so the
            # budget heuristic below can react to observed per-split cost.
            # ``fanout_data`` is the shared-memory handle in shared_graph
            # mode (workers resolve it); predictions below keep the real
            # in-process ``data``.
            hierarchical.fit(fanout_data, split_graph.labels,
                             split_graph.mask_indices("train"),
                             split_graph.mask_indices("val"),
                             train_config=train_config,
                             num_classes=graph.num_classes,
                             backend=self.executor,
                             policy=policy)
            if hierarchical.fit_failures:
                for failure in hierarchical.fit_failures:
                    failure.context.setdefault("bagging_split", split_index)
                failure_reports.extend(hierarchical.fit_failures)
                # A GSE that lost every member cannot predict; drop it and
                # its beta entry (set_beta renormalises the survivors).
                keep = [position for position, ensemble
                        in enumerate(hierarchical.ensembles) if ensemble.members]
                if not keep:
                    raise RuntimeError(
                        f"bagging split {split_index} lost every ensemble "
                        "member under the resilience policy")
                if len(keep) < len(hierarchical.ensembles):
                    hierarchical.ensembles = [hierarchical.ensembles[position]
                                              for position in keep]
                    hierarchical.set_beta(np.asarray(beta, dtype=np.float64)[keep])
                else:
                    hierarchical.set_beta(beta)
            else:
                hierarchical.set_beta(beta)
            self.hierarchical_ensembles.append(hierarchical)
            split_probabilities.append(hierarchical.predict_proba(data))
            if not budget.has_time_for_another(time.time() - train_start,
                                               split_index + 1):
                break
        probabilities = np.mean(split_probabilities, axis=0)
        train_time = time.time() - train_start
        search_details["backend"] = self.executor.describe()
        if policy is not None:
            search_details["failures"] = [failure.describe()
                                          for failure in failure_reports]

        report = PipelineResult(
            probabilities=probabilities,
            predictions=probabilities.argmax(axis=1),
            pool=pool,
            beta=np.asarray(beta),
            chosen_layers=chosen_layers,
            proxy_time=proxy_time,
            search_time=search_time,
            train_time=train_time,
            total_time=time.time() - total_start,
            proxy_ranking=proxy_ranking,
            details=search_details,
        )
        return FittedEnsemble(
            ensembles=list(self.hierarchical_ensembles),
            pool=list(pool),
            beta=np.asarray(beta),
            chosen_layers=chosen_layers,
            num_features=data.num_features,
            num_classes=int(graph.num_classes),
            # Resolved under the scope fit() installed, so "float32" round-trips.
            compute_dtype=compute_dtype_name(),
            metadata={
                "graph_name": graph.name,
                "graph_nodes": int(graph.num_nodes),
                "search_method": str(config.search_method.value),
                "seed": int(config.seed),
                "bagging_splits_trained": len(self.hierarchical_ensembles),
            },
            fit_report=report,
        )

    # ------------------------------------------------------------------
    # Convenience evaluation helpers
    # ------------------------------------------------------------------
    def evaluate(self, graph: Graph, result: Optional[PipelineResult] = None,
                 labels: Optional[np.ndarray] = None) -> float:
        """Accuracy on the graph's test mask using hidden labels when available."""
        if result is None:
            result = self.fit_predict(graph)
        if labels is None:
            labels = graph.metadata.get("hidden_labels", graph.labels)
        test_index = graph.mask_indices("test")
        return result.test_accuracy(np.asarray(labels), test_index)
