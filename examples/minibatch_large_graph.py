"""End-to-end minibatch AutoHEnsGNN on a 200k-node synthetic graph.

Full-batch training materialises activations for every node of the graph on
every epoch, which caps the graph sizes the pipeline can touch.  This
example runs the *same* automated pipeline — proxy evaluation, adaptive
configuration search, bagged re-training — in the minibatch regime: setting
``batch_size`` (plus optional ``fanouts``) on ``AutoHEnsGNNConfig`` switches
every training stage to GraphSAGE-style neighbour-sampled steps whose memory
footprint is bounded by the sampled sub-graph, while prediction and
validation still run full-graph through ``forward_inference``.

The configuration below is deliberately lean (two candidates, one replica,
a handful of epochs) so the whole run finishes in well under two minutes on
a laptop CPU; scale ``ensemble_size`` / epochs up for accuracy.

Run with:

    PYTHONPATH=src python examples/minibatch_large_graph.py
"""

import time

import numpy as np

from repro import AutoHEnsGNN, AutoHEnsGNNConfig, load_dataset
from repro.graph.splits import holdout_test_split


def main() -> None:
    start = time.time()
    # The "sbm-large" registry entry generates a 200k-node / ~800k-edge
    # attributed SBM in a few seconds (pass num_nodes=... to scale it).
    graph = load_dataset("sbm-large", seed=1)
    graph = holdout_test_split(graph, test_fraction=0.2, seed=0)
    # Like the challenge datasets, only a fraction of nodes carries a
    # training label: restrict the labelled pool to 30k nodes.  Training
    # cost scales with the seed count, so this also keeps the demo fast —
    # prediction still covers all 200k nodes.
    rng = np.random.default_rng(0)
    pool = graph.metadata["labelled_pool"]
    graph.metadata["labelled_pool"] = np.sort(rng.choice(pool, size=30_000,
                                                         replace=False))
    print(f"dataset: {graph.name} — {graph.num_nodes:,} nodes, "
          f"{graph.num_edges:,} stored edges, {graph.num_classes} classes, "
          f"30k labelled ({time.time() - start:.1f}s to generate)")

    config = AutoHEnsGNNConfig(
        candidate_models=["graphsage-mean", "gcn"],
        pool_size=2,
        ensemble_size=1,
        max_layers=2,
        # The minibatch engine: 4096 seed nodes per optimiser step, at most
        # 5 sampled neighbours on the first hop and 3 on the second.
        batch_size=4096,
        fanouts=(5, 3),
        search_epochs=2,
        bagging_splits=1,
        hidden=64,
        seed=0,
    )
    config.train = config.train.with_overrides(max_epochs=2, patience=2)
    # Proxy evaluation ranks candidates on a 5% stratified sub-graph (~10k
    # nodes) and inherits the pipeline's batch_size, so even candidate
    # ranking never takes a full-batch step.
    config.proxy.dataset_fraction = 0.05
    config.proxy.bagging_rounds = 1
    config.proxy.max_epochs = 3

    fit_start = time.time()
    result = AutoHEnsGNN(config).fit_predict(graph)
    fit_time = time.time() - fit_start

    accuracy = result.test_accuracy(graph.labels, graph.mask_indices("test"))
    print(f"pool (proxy-ranked): {result.pool}")
    print(f"chosen depths:       {result.chosen_layers}")
    print(f"ensemble weights β:  {[round(float(b), 3) for b in result.beta]}")
    print(f"stage times:         proxy {result.proxy_time:.1f}s, "
          f"search {result.search_time:.1f}s, train {result.train_time:.1f}s")
    print(f"test accuracy:       {accuracy:.3f}")
    print(f"total fit_predict:   {fit_time:.1f}s")


if __name__ == "__main__":
    main()
