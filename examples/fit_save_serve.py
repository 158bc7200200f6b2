"""Fit once, serve many: the estimator lifecycle end to end.

The paper's pipeline ends at one transductive prediction; production serving
needs the opposite shape — pay the AutoML cost once, persist the fitted
hierarchical ensemble, and answer many cheap inference requests against it.
This example walks the whole lifecycle:

1. ``AutoHEnsGNN.fit(graph)`` — proxy evaluation, configuration search and
   bagged re-training (the expensive part, run once),
2. ``fitted.save(path)`` — persist a versioned artifact (JSON manifest +
   npz weight blobs),
3. ``FittedEnsemble.load(path)`` — cold-start a "serving process",
4. ``BatchScorer.score`` — per-request inference (each member's forward
   under ``no_grad``), including a *refreshed* graph with new nodes and edges but the
   same feature schema.

Run with::

    python examples/fit_save_serve.py
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro import AutoHEnsGNN, AutoHEnsGNNConfig, FittedEnsemble, load_dataset
from repro.core.config import ProxyConfig
from repro.serve import BatchScorer
from repro.tasks.trainer import TrainConfig


def main() -> None:
    graph = load_dataset("kddcup-A", scale=0.3, seed=0)
    print(f"Dataset: {graph}")

    config = AutoHEnsGNNConfig(
        pool_size=2,
        ensemble_size=2,
        max_layers=3,
        search_epochs=15,
        bagging_splits=1,
        hidden=32,
        candidate_models=["gcn", "gat", "sgc", "appnp", "mlp"],
        proxy=ProxyConfig(dataset_fraction=0.3, bagging_rounds=2, hidden_fraction=0.5,
                          max_epochs=20),
        seed=0,
    )
    config.train = TrainConfig(lr=0.02, max_epochs=40, patience=10)

    # ------------------------------------------------------------------
    # 1. Fit once (the expensive AutoML run).
    # ------------------------------------------------------------------
    fit_start = time.perf_counter()
    fitted = AutoHEnsGNN(config).fit(graph)
    fit_seconds = time.perf_counter() - fit_start
    print(f"\nFitted in {fit_seconds:.1f}s: pool={fitted.pool}, "
          f"beta={np.round(fitted.beta, 3)}, members={fitted.num_members}")

    with tempfile.TemporaryDirectory() as tmp:
        # --------------------------------------------------------------
        # 2. Persist the ensemble.
        # --------------------------------------------------------------
        artifact = fitted.save(f"{tmp}/kddcup-A")
        print(f"Artifact saved to {artifact}")

        # --------------------------------------------------------------
        # 3. Cold-start a serving process (fresh load from disk).
        # --------------------------------------------------------------
        scorer = BatchScorer(artifact)
        print(f"Artifact loaded in {scorer.load_seconds:.3f}s")

        # --------------------------------------------------------------
        # 4. Serve requests: the original graph...
        # --------------------------------------------------------------
        result = scorer.score(graph, nodes=graph.mask_indices("test"))
        hidden_labels = np.asarray(graph.metadata["hidden_labels"])
        accuracy = float(np.mean(result.predictions == hidden_labels[result.nodes]))
        print(f"\nRequest 1 (training graph): {result.predictions.shape[0]} test "
              f"nodes in {result.latency_seconds:.3f}s, accuracy {accuracy:.3f}")

        # ... and a refreshed graph (new nodes/edges, same feature schema) —
        # the scenario where an artifact saves re-running the pipeline.
        refreshed = load_dataset("kddcup-A", scale=0.35, seed=1)
        result = scorer.score(refreshed)
        print(f"Request 2 (refreshed graph, {refreshed.num_nodes} nodes): "
              f"scored in {result.latency_seconds:.3f}s")

        # Loaded artifacts reproduce fit-time probabilities bit-for-bit.
        reloaded = FittedEnsemble.load(artifact)
        identical = np.array_equal(reloaded.predict_proba(graph),
                                   fitted.fit_report.probabilities)
        print(f"\nLoaded artifact reproduces fit-time probabilities: {identical}")
        per_request = result.latency_seconds
        print(f"Fit {fit_seconds:.1f}s once -> serve at {per_request * 1000:.0f}ms "
              f"per request ({fit_seconds / max(per_request, 1e-9):.0f}x cheaper)")


if __name__ == "__main__":
    main()
