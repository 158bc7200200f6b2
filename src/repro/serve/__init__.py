"""Batch inference serving for fitted AutoHEnsGNN ensembles.

The serving half of the "fit once, serve many" lifecycle: load a
:class:`~repro.core.artifact.FittedEnsemble` artifact once (cold start pays
model reconstruction and weight loading), then answer any number of scoring
requests through each member's ``forward_inference`` (its forward under
``no_grad``) — no backward graph, no search, no training anywhere on the
request path.

Three entry points:

* :class:`BatchScorer` — the library API for static requests.  Construct it
  from an artifact path (or an in-memory fitted ensemble) and call
  :meth:`BatchScorer.score` per request graph.
* :class:`StreamingScorer` (:mod:`repro.serve.streaming`) — the long-lived
  serving engine: wraps a mutable graph, absorbs incremental structure and
  feature updates, and answers per-node queries with scores bit-identical
  to a from-scratch batch rebuild.
* ``python -m repro.serve --artifact DIR --data NAME_OR_DIR`` — the CLI
  (:mod:`repro.serve.__main__`), which loads a dataset by registry name or
  AutoGraph challenge directory, scores it and writes challenge-format
  predictions; ``--stream LOG`` replays a mutation/query log through the
  streaming engine instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.artifact import FittedEnsemble, GraphLike

__all__ = ["BatchScorer", "ServeResult", "load_scorer",
           "StreamingScorer", "Microbatcher", "OverloadedError",
           "load_streaming_scorer"]


@dataclass
class ServeResult:
    """One scored request: probabilities, hard predictions and latency."""

    probabilities: np.ndarray
    predictions: np.ndarray
    nodes: np.ndarray
    latency_seconds: float
    metadata: Dict[str, object] = field(default_factory=dict)

    def write(self, path: str) -> None:
        """Write ``node_index<TAB>predicted_class`` rows (challenge format)."""
        from repro.datasets.io import write_predictions_tsv

        write_predictions_tsv(path, self.nodes, self.predictions)


class BatchScorer:
    """Serves batch scoring requests against one fitted ensemble.

    ``artifact`` is either a saved artifact directory (loaded once, cold) or
    an already-fitted :class:`FittedEnsemble` (e.g. straight out of
    ``AutoHEnsGNN.fit`` in the same process).  The scorer is stateless across
    requests apart from simple counters, so one instance can serve many
    graphs — the original graph, refreshed re-builds, or extended graphs
    with the same feature schema.

    Sharded scoring: with ``num_partitions > 1`` each request graph is
    edge-cut partitioned (:mod:`repro.graph.partition`) and the forward pass
    runs per partition — on ``shard_backend="process"`` workers map the
    published view from shared memory (:mod:`repro.graph.shm`) instead of
    unpickling the graph, which is what bounds per-worker RSS on graphs that
    dwarf one worker's comfortable working set.  Scores stay bit-identical
    to the serial path (:mod:`repro.serve.sharded`).  ``halo_hops`` defaults
    to the ensemble's receptive field — the minimum that preserves parity;
    ``resilience`` retries a crashed partition worker before the scorer
    gives up on the request.
    """

    def __init__(self, artifact: Union[str, FittedEnsemble],
                 num_partitions: int = 1,
                 shard_backend: str = "serial",
                 halo_hops: Optional[int] = None,
                 max_workers: Optional[int] = None,
                 partition_seed: int = 0,
                 partition_method: str = "bfs",
                 resilience: Optional[object] = None,
                 store_dir: Optional[str] = None) -> None:
        start = time.perf_counter()
        if isinstance(artifact, FittedEnsemble):
            self.ensemble = artifact
            self.artifact_path: Optional[str] = None
        else:
            self.ensemble = FittedEnsemble.load(artifact)
            self.artifact_path = artifact
        if num_partitions < 1:
            raise ValueError("num_partitions must be a positive integer")
        self.num_partitions = int(num_partitions)
        self.shard_backend = shard_backend
        self.halo_hops = halo_hops
        self.max_workers = max_workers
        self.partition_seed = int(partition_seed)
        self.partition_method = partition_method
        self.resilience = resilience
        self.store_dir = store_dir
        self._backend = None
        if self.num_partitions > 1 and shard_backend == "process" \
                and self.artifact_path is None:
            # Fail at construction, not on the first request: process-backed
            # shard workers reload the artifact from disk (cached per
            # process) rather than unpickling the in-memory ensemble.
            raise ValueError(
                "sharded scoring on the process backend requires an artifact "
                "directory (construct the scorer from a saved path, or use "
                "shard_backend='thread'/'serial')")
        #: Cold-start cost: manifest validation, member reconstruction and
        #: weight loading (zero when wrapping an in-memory ensemble).
        self.load_seconds = time.perf_counter() - start
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Sharding machinery
    # ------------------------------------------------------------------
    @property
    def sharded(self) -> bool:
        """Whether requests run the partition-parallel path."""
        return self.num_partitions > 1

    def _shard_executor(self):
        """The shard map's execution backend, created lazily and kept warm."""
        from repro.parallel.backends import get_backend

        if self._backend is None:
            self._backend = get_backend(self.shard_backend,
                                        max_workers=self.max_workers)
        return self._backend

    def close(self) -> None:
        """Release the shard worker pool (no-op for unsharded scorers)."""
        backend = self._backend
        self._backend = None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "BatchScorer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _sharded_probabilities(self, graph: GraphLike) -> np.ndarray:
        from repro.autograd.dtype import compute_dtype_scope
        from repro.serve.sharded import build_partition_plan, sharded_predict_proba

        with compute_dtype_scope(self.ensemble.compute_dtype):
            data = self.ensemble._as_tensors(graph)
        halo = self.halo_hops
        if halo is None:
            halo = self.ensemble.receptive_field()
        plan = build_partition_plan(data, self.num_partitions, halo,
                                    seed=self.partition_seed,
                                    method=self.partition_method)
        return sharded_predict_proba(
            self.ensemble, graph, plan,
            backend=self._shard_executor(),
            policy=self.resilience,
            artifact_path=self.artifact_path,
            store_dir=self.store_dir,
            data=data)

    def score(self, graph: GraphLike, nodes: Optional[np.ndarray] = None) -> ServeResult:
        """Score one request graph; ``nodes`` restricts the returned rows.

        The full graph is always propagated (GNN inference is transductive
        over the request graph); ``nodes`` only selects which rows are
        reported, e.g. the test nodes of a challenge dataset.
        """
        start = time.perf_counter()
        if self.sharded:
            probabilities = self._sharded_probabilities(graph)
        else:
            probabilities = self.ensemble.predict_proba(graph)
        if nodes is None:
            nodes = np.arange(probabilities.shape[0])
        else:
            nodes = np.asarray(nodes)
            probabilities = probabilities[nodes]
        metadata: Dict[str, object] = {"artifact": self.artifact_path,
                                       "request_index": self.requests_served}
        if self.sharded:
            metadata["sharding"] = {"num_partitions": self.num_partitions,
                                    "backend": self.shard_backend,
                                    "halo_hops": self.halo_hops,
                                    "seed": self.partition_seed,
                                    "method": self.partition_method}
        result = ServeResult(
            probabilities=probabilities,
            predictions=probabilities.argmax(axis=1),
            nodes=nodes,
            latency_seconds=time.perf_counter() - start,
            metadata=metadata,
        )
        self.requests_served += 1
        return result

    def score_many(self, graphs: List[GraphLike]) -> List[ServeResult]:
        """Score a batch of request graphs sequentially."""
        return [self.score(graph) for graph in graphs]

    def describe(self) -> Dict[str, object]:
        """Artifact summary plus serving counters (for logs and health endpoints)."""
        summary = self.ensemble.describe()
        summary.update({
            "artifact_path": self.artifact_path,
            "load_seconds": self.load_seconds,
            "requests_served": self.requests_served,
        })
        if self.sharded:
            summary["sharding"] = {"num_partitions": self.num_partitions,
                                   "backend": self.shard_backend,
                                   "halo_hops": self.halo_hops,
                                   "receptive_field": self.ensemble.receptive_field()}
        return summary


def load_scorer(artifact_path: str, **kwargs) -> BatchScorer:
    """Convenience constructor mirroring ``FittedEnsemble.load``.

    Keyword arguments (e.g. ``num_partitions``, ``shard_backend``) are
    forwarded to :class:`BatchScorer`.
    """
    return BatchScorer(artifact_path, **kwargs)


# Imported last: repro.serve.streaming consumes ServeResult from this module,
# so the streaming engine must load after the batch surface is defined.
from repro.serve.streaming import (  # noqa: E402
    Microbatcher, OverloadedError, StreamingScorer, load_streaming_scorer)
