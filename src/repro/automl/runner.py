"""Competition-style runner: AutoGraph dataset directory in, predictions out.

This is the "automatic prediction without human intervention" entry point of
Section IV-E: point :class:`AutoGraphRunner` at one or more dataset
directories laid out in the challenge format (Table X) and it loads each
graph, honours the per-dataset time budget from the metadata file, runs the
AutoHEnsGNN pipeline (the adaptive variant with a reduced search space, as
submitted to the competition) and writes one predicted class per test node.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from typing import TYPE_CHECKING

from repro.automl.budget import TimeBudget
from repro.core.config import AutoHEnsGNNConfig, ProxyConfig, SearchMethod
from repro.datasets.io import load_autograph_directory
from repro.graph.graph import Graph
from repro.tasks.metrics import accuracy

if TYPE_CHECKING:  # pragma: no cover - import cycle avoided at runtime
    from repro.core.pipeline import PipelineResult


@dataclass
class CompetitionSubmission:
    """Predictions for one dataset plus the bookkeeping the organisers would see."""

    dataset_name: str
    predictions: np.ndarray
    test_nodes: np.ndarray
    elapsed: float
    within_budget: bool
    result: Optional["PipelineResult"] = None
    #: Where the fitted ensemble was persisted (``None`` when the runner was
    #: constructed without ``artifact_dir``); re-scorable via ``rescore``.
    artifact_path: Optional[str] = None

    def accuracy_against(self, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        return accuracy(self.predictions, labels[self.test_nodes])

    def write(self, path: str) -> None:
        """Write ``node_index<TAB>predicted_class`` rows, the challenge output format."""
        from repro.datasets.io import write_predictions_tsv

        write_predictions_tsv(path, self.test_nodes, self.predictions)


def competition_config(time_budget: Optional[float], seed: int = 0,
                       backend: str = "serial",
                       max_workers: Optional[int] = None) -> AutoHEnsGNNConfig:
    """The configuration submitted to the challenge.

    The adaptive search is used (bounded GPU memory), the search space of α
    and the hyper-parameter grids are reduced, and a couple of bagging splits
    are kept only when the budget allows it.  ``backend`` selects the
    :mod:`repro.parallel` execution backend; under a tight budget, parallel
    candidate evaluation and member training are the main lever for staying
    inside the per-dataset wall clock.
    """
    tight_budget = time_budget is not None and time_budget < 150
    return AutoHEnsGNNConfig(
        search_method=SearchMethod.ADAPTIVE,
        pool_size=2 if tight_budget else 3,
        ensemble_size=2 if tight_budget else 3,
        max_layers=2 if tight_budget else 3,
        search_epochs=30 if tight_budget else 50,
        bagging_splits=1 if tight_budget else 2,
        proxy=ProxyConfig(dataset_fraction=0.3, bagging_rounds=1 if tight_budget else 2,
                          hidden_fraction=0.5, max_epochs=30, seed=seed),
        time_budget=time_budget,
        seed=seed,
        backend=backend,
        max_workers=max_workers,
    )


class AutoGraphRunner:
    """Run the automated pipeline over a collection of challenge-format datasets.

    With ``artifact_dir`` set, every fitted ensemble is persisted under
    ``{artifact_dir}/{dataset_name}`` so later submissions on re-built or
    refreshed graphs can reuse the paid-for AutoML run through
    :meth:`rescore` (seconds instead of minutes).
    """

    def __init__(self, candidate_models: Optional[Sequence[str]] = None, seed: int = 0,
                 backend: str = "serial", max_workers: Optional[int] = None,
                 artifact_dir: Optional[str] = None) -> None:
        self.candidate_models = candidate_models
        self.seed = seed
        self.backend = backend
        self.max_workers = max_workers
        self.artifact_dir = artifact_dir

    # ------------------------------------------------------------------
    # Single dataset
    # ------------------------------------------------------------------
    def run_graph(self, graph: Graph, time_budget: Optional[float] = None,
                  dataset_name: Optional[str] = None) -> CompetitionSubmission:
        """Run the pipeline on an in-memory graph (labels of test nodes ignored)."""
        # Imported here to avoid a circular import (core.pipeline uses the budget).
        from repro.core.pipeline import AutoHEnsGNN

        name = dataset_name or graph.name
        budget_seconds = time_budget if time_budget is not None \
            else graph.metadata.get("time_budget")
        config = competition_config(budget_seconds, seed=self.seed,
                                    backend=self.backend, max_workers=self.max_workers)
        if self.candidate_models is not None:
            config.candidate_models = list(self.candidate_models)
        budget = TimeBudget(budget_seconds)
        start = time.time()
        pipeline = AutoHEnsGNN(config)
        fitted = pipeline.fit(graph)
        result = fitted.fit_report
        elapsed = time.time() - start
        artifact_path = None
        if self.artifact_dir is not None:
            # Persisting the ensemble is not part of the challenge protocol,
            # so it happens after the budget clock stops.
            artifact_path = fitted.save(os.path.join(self.artifact_dir, name))
        test_nodes = graph.mask_indices("test") if graph.test_mask is not None \
            else np.where(graph.labels < 0)[0]
        return CompetitionSubmission(
            dataset_name=name,
            predictions=result.predictions[test_nodes],
            test_nodes=test_nodes,
            elapsed=elapsed,
            within_budget=budget_seconds is None or elapsed <= budget_seconds,
            result=result,
            artifact_path=artifact_path,
        )

    def rescore(self, artifact_path: str, graph: Graph,
                dataset_name: Optional[str] = None) -> CompetitionSubmission:
        """Score ``graph`` with a previously fitted ensemble — no AutoML re-run.

        The artifact's members answer through ``forward_inference``, so a
        refreshed or extended graph (same feature schema) is re-scored in
        the time of one forward pass per member instead of a full pipeline
        run.  The returned submission carries no ``result`` (there was no
        fit) but is otherwise interchangeable with :meth:`run_graph` output.
        """
        from repro.core.artifact import FittedEnsemble

        start = time.time()
        fitted = FittedEnsemble.load(artifact_path)
        predictions = fitted.predict(graph)
        elapsed = time.time() - start
        test_nodes = graph.mask_indices("test") if graph.test_mask is not None \
            else np.where(graph.labels < 0)[0]
        return CompetitionSubmission(
            dataset_name=dataset_name or graph.name,
            predictions=predictions[test_nodes],
            test_nodes=test_nodes,
            elapsed=elapsed,
            within_budget=True,
            artifact_path=artifact_path,
        )

    def run_directory(self, directory: str, output_path: Optional[str] = None
                      ) -> CompetitionSubmission:
        """Load an AutoGraph-format directory, predict and optionally write the output."""
        graph = load_autograph_directory(directory)
        submission = self.run_graph(graph, dataset_name=graph.name)
        if output_path is not None:
            submission.write(output_path)
        return submission

    # ------------------------------------------------------------------
    # A whole phase (several datasets), as in the final evaluation
    # ------------------------------------------------------------------
    def run_phase(self, graphs: Dict[str, Graph]) -> Dict[str, CompetitionSubmission]:
        """Run every dataset of a challenge phase and return the submissions."""
        submissions: Dict[str, CompetitionSubmission] = {}
        for name, graph in graphs.items():
            submissions[name] = self.run_graph(graph, dataset_name=name)
        return submissions
