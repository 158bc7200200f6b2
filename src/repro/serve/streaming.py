"""Long-lived streaming scorer: incremental graph updates, batch-identical scores.

:class:`~repro.serve.BatchScorer` realises "fit once, serve many" for static
requests: every call rebuilds the propagation operators from scratch.  A
persistent scoring service absorbing a live stream of graph mutations cannot
afford that — adding one edge changes two degrees, so almost all of the
normalised operators, and almost all of the cached ``A^k X`` propagation
products, keep their exact bytes.

:class:`StreamingScorer` exploits that:

* a :class:`~repro.graph.streaming.MutableServingGraph` maintains the
  ``sym``/``rw``/``raw`` operators incrementally (bit-identical to a
  from-scratch rebuild — see that module's docstring for the guarantees);
* the fixed propagation products ``A^k X`` consumed by SGC/SIGN-style
  members are kept as dtype masters and *delta-propagated*: after a flush
  only the dirty frontier rows (mutated operator rows, plus rows reading a
  changed row of the previous power) are recomputed via ``A[dirty] @ P``,
  which equals the same rows of the full product bit for bit.  Past a
  configurable dirty fraction the full product is cheaper and the engine
  falls back to it — the fallback is bitwise-idempotent, so parity holds
  either way;
* superseded operator/feature fingerprints are :meth:`invalidated
  <repro.parallel.cache.ComputeCache.invalidate>` in the process-wide
  :class:`~repro.parallel.cache.ComputeCache`, so no stale derived entry can
  ever be served to a concurrent batch consumer;
* a :class:`Microbatcher` coalesces concurrent ``score`` calls: the full
  probability matrix is computed once per graph version through the
  members' ``forward_inference``, and every concurrent request
  against that version slices the shared matrix.

The consistency model is strict serialisability under one lock: mutations
journal cheaply, and the next ``score`` call flushes the journal, refreshes
the serving state and answers against the resulting version.  Every response
therefore reflects exactly the mutations issued before some serialisation
point of the request — never a torn intermediate state.

The differential tests in ``tests/test_streaming_serve.py`` hold all of this
to the strongest possible standard: after any mutation sequence, scores must
be **bit-identical** to a fresh :class:`BatchScorer` on the equivalent
rebuilt graph, in both float32 and float64.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd.dtype import compute_dtype_scope
from repro.autograd.sparse import SparseTensor
from repro.autograd.tensor import Tensor
from repro.core.artifact import ArtifactError, FittedEnsemble
from repro.graph.graph import Graph
from repro.graph.streaming import MutableServingGraph, MutationDelta, rows_touching_columns
from repro.nn.data import GraphTensors
from repro.parallel.cache import compute_cache
from repro.resilience.wal import RecoveryReport
from repro.serve import ServeResult

__all__ = ["StreamingScorer", "Microbatcher", "OverloadedError"]


class OverloadedError(RuntimeError):
    """A score request was shed: the queue is full or its deadline expired."""


class Microbatcher:
    """Coalesces concurrent score requests into one forward pass per version.

    The scorer computes the *full* probability matrix for a graph version the
    first time any request needs it; every further request against the same
    version — including all the concurrent callers that were queued behind
    the computing thread — is answered by slicing the shared matrix.  The
    caller must hold the scorer's lock around :meth:`result_for`, which is
    what turns "many threads calling score" into "one forward pass, many
    slices" without any torn state.

    Overload protection: ``max_pending`` bounds how many requests may queue
    behind the computing thread (:meth:`admit` rejects the excess with
    :class:`OverloadedError` *before* they block on the scorer lock), and
    ``deadline_seconds`` sheds requests that waited longer than their
    deadline for the lock (:meth:`check_deadline`) — a stale answer served
    late is worse than a fast rejection the client can retry against a
    less-loaded replica.  Counters are guarded by an internal lock, so
    :meth:`stats` is consistent even when callers race :meth:`result_for`.
    """

    def __init__(self, max_pending: Optional[int] = None,
                 deadline_seconds: Optional[float] = None) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be a positive integer or None")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive or None")
        self.max_pending = max_pending
        self.deadline_seconds = deadline_seconds
        #: Total requests routed through the batcher.
        self.requests = 0
        #: Full forward passes actually executed (one per served version).
        self.forward_passes = 0
        #: Requests answered from an already-computed version's matrix.
        self.coalesced = 0
        #: Requests rejected by admission control or deadline shedding.
        self.shed = 0
        #: Requests admitted and not yet released.
        self.pending = 0
        self._version = -1
        self._probabilities: Optional[np.ndarray] = None
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Admission control / load shedding
    # ------------------------------------------------------------------
    def admit(self) -> float:
        """Reserve a queue slot; returns the admission timestamp.

        Raises :class:`OverloadedError` when ``max_pending`` slots are taken.
        Callers must pair every successful admit with :meth:`release`.
        """
        with self._counter_lock:
            if self.max_pending is not None and self.pending >= self.max_pending:
                self.shed += 1
                raise OverloadedError(
                    f"request shed: {self.pending} requests already pending "
                    f"(max_pending={self.max_pending})")
            self.pending += 1
        return time.perf_counter()

    def check_deadline(self, admitted_at: float) -> None:
        """Shed a request that waited past its deadline for the lock."""
        if self.deadline_seconds is None:
            return
        waited = time.perf_counter() - admitted_at
        if waited > self.deadline_seconds:
            with self._counter_lock:
                self.shed += 1
            raise OverloadedError(
                f"request shed: waited {waited:.3f}s for the scorer, past the "
                f"deadline of {self.deadline_seconds}s")

    def release(self) -> None:
        """Free the slot reserved by :meth:`admit` (call from ``finally``)."""
        with self._counter_lock:
            self.pending -= 1

    def result_for(self, version: int,
                   compute: Callable[[], np.ndarray]) -> np.ndarray:
        """The probability matrix for ``version``, computing at most once.

        ``compute`` runs only when ``version`` differs from the cached one;
        the result is retained until the next version supersedes it.
        """
        with self._counter_lock:
            self.requests += 1
        if self._version != version:
            self._probabilities = compute()
            self._version = version
            with self._counter_lock:
                self.forward_passes += 1
        else:
            with self._counter_lock:
                self.coalesced += 1
        return self._probabilities  # type: ignore[return-value]

    def stats(self) -> Dict[str, int]:
        """Request/pass/coalescing/shedding counters (reported by ``describe``)."""
        with self._counter_lock:
            return {"requests": self.requests,
                    "forward_passes": self.forward_passes,
                    "coalesced": self.coalesced,
                    "shed": self.shed,
                    "pending": self.pending,
                    "max_pending": self.max_pending}


class StreamingScorer:
    """Serves per-node scores from a fitted ensemble over a mutating graph.

    Parameters
    ----------
    artifact:
        A saved artifact directory or an in-memory
        :class:`~repro.core.artifact.FittedEnsemble` (mirrors
        :class:`~repro.serve.BatchScorer`).
    graph:
        The initial graph state: a :class:`~repro.graph.graph.Graph` (wrapped
        into a fresh :class:`~repro.graph.streaming.MutableServingGraph`) or
        an existing mutable graph to adopt.
    full_rebuild_fraction:
        Dirty-fraction threshold for the ``A^k X`` delta propagation: when a
        flush dirties more than this fraction of the rows of a cached power,
        the engine recomputes the full product instead of slicing (a sliced
        recompute of most rows costs more than one full pass).  Parity is
        unaffected — the two paths produce identical bits.
    journal_dir / fsync:
        When ``journal_dir`` is given (and ``graph`` is a plain
        :class:`~repro.graph.graph.Graph`), the mutable graph persists a
        checksummed snapshot plus a write-ahead journal there, so a crashed
        scorer can be rebuilt bit-identically via :meth:`recover`.  ``fsync``
        trades append latency for durability across power loss.
    max_pending / deadline_seconds:
        Overload protection, forwarded to the :class:`Microbatcher`:
        requests beyond ``max_pending`` concurrent in-flight calls, or that
        waited longer than ``deadline_seconds`` for the scorer lock, are
        shed with :class:`OverloadedError` instead of being served late.
    num_partitions / shard_backend / halo_hops / max_workers / resilience:
        With ``num_partitions > 1`` each forward pass runs partition-parallel
        (:mod:`repro.serve.sharded`): the graph is edge-cut partitioned with
        halo rings out to the ensemble's receptive field, each shard
        propagates its local slice, and owned rows are reassembled —
        bit-identical to the unsharded pass.  The plan is cached per
        structure version, so feature-only mutation streams never re-run the
        partitioner.  Only in-process backends (``"serial"``/``"thread"``)
        are supported: the incremental serving masters live in this
        process's memory, which process workers cannot map — use
        :class:`~repro.serve.BatchScorer` with ``shard_backend="process"``
        for multi-process sharding.  Cached ``A^k X`` masters (harvested
        from unsharded passes) are row-sliced into the shards; shards
        otherwise recompute powers locally — either way parity holds.

    The mutation API (:meth:`add_nodes`, :meth:`add_edges`,
    :meth:`remove_edges`, :meth:`update_features`) journals cheaply; the next
    :meth:`score` call applies the journal, refreshes the incremental serving
    state and answers against the new version.  :meth:`flush` forces the
    refresh eagerly (e.g. to absorb a mutation burst off the request path).
    """

    def __init__(self, artifact: Union[str, FittedEnsemble],
                 graph: Union[Graph, MutableServingGraph],
                 full_rebuild_fraction: float = 0.25,
                 journal_dir: Optional[str] = None,
                 fsync: bool = False,
                 max_pending: Optional[int] = None,
                 deadline_seconds: Optional[float] = None,
                 num_partitions: int = 1,
                 shard_backend: str = "serial",
                 halo_hops: Optional[int] = None,
                 max_workers: Optional[int] = None,
                 resilience: Optional[object] = None) -> None:
        start = time.perf_counter()
        if isinstance(artifact, FittedEnsemble):
            self.ensemble = artifact
            self.artifact_path: Optional[str] = None
        else:
            self.ensemble = FittedEnsemble.load(artifact)
            self.artifact_path = artifact
        if isinstance(graph, MutableServingGraph):
            if journal_dir is not None:
                raise ValueError(
                    "journal_dir only applies when constructing from a plain "
                    "Graph; the adopted MutableServingGraph already owns its "
                    "journal configuration")
            self.graph = graph
        else:
            self.graph = MutableServingGraph(graph, journal_dir=journal_dir,
                                             fsync=fsync)
        if self.graph.num_features != self.ensemble.num_features:
            raise ArtifactError(
                f"feature schema mismatch: the ensemble was fitted on "
                f"{self.ensemble.num_features} node features but the serving "
                f"graph provides {self.graph.num_features}")
        if not 0.0 < full_rebuild_fraction <= 1.0:
            raise ValueError("full_rebuild_fraction must be in (0, 1]")
        self.full_rebuild_fraction = float(full_rebuild_fraction)
        if num_partitions < 1:
            raise ValueError("num_partitions must be a positive integer")
        if num_partitions > 1 and shard_backend == "process":
            raise ValueError(
                "streaming sharding supports in-process backends only "
                "('serial'/'thread'): the incremental serving masters live in "
                "this process and cannot be mapped by process workers — use "
                "BatchScorer with shard_backend='process' instead")
        self.num_partitions = int(num_partitions)
        self.shard_backend = shard_backend
        self.halo_hops = halo_hops
        self.max_workers = max_workers
        self.resilience = resilience
        self._shard_executor = None
        self._shard_plan = None
        self._shard_plan_version = -1
        self.dtype = np.dtype(self.ensemble.compute_dtype)
        self.batcher = Microbatcher(max_pending=max_pending,
                                    deadline_seconds=deadline_seconds)
        self._lock = threading.RLock()
        # Serving-state masters, all in the artifact's compute dtype.
        self._operators: Dict[str, sp.csr_matrix] = {}
        self._features_view: Optional[np.ndarray] = None
        self._edge_index: Optional[np.ndarray] = None
        self._edge_weight: Optional[np.ndarray] = None
        #: kind -> list of dense masters [P_1, ..., P_K] with P_k = A^k X.
        self._powered: Dict[str, List[np.ndarray]] = {}
        self._carried_extras: Dict[str, object] = {}
        self._stats = {
            "mutations_flushed": 0,
            "structure_refreshes": 0,
            "feature_refreshes": 0,
            "powered_delta_rows": 0,
            "powered_full_rebuilds": 0,
            "cache_invalidations": 0,
        }
        self.graph.flush()
        self._rebuild_structure_state()
        self._rebuild_feature_state()
        #: The graph version the serving masters reflect.
        self._synced_version = self.graph.version
        self.load_seconds = time.perf_counter() - start
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Mutation API (journaling; applied on the next score/flush)
    # ------------------------------------------------------------------
    def add_nodes(self, features: np.ndarray) -> np.ndarray:
        """Append isolated nodes; returns their ids (visible to later calls)."""
        with self._lock:
            return self.graph.add_nodes(features)

    def add_edges(self, edge_index: np.ndarray,
                  edge_weight: Optional[np.ndarray] = None) -> None:
        """Insert edges (both directions on undirected graphs)."""
        with self._lock:
            self.graph.add_edges(edge_index, edge_weight=edge_weight)

    def remove_edges(self, edge_index: np.ndarray) -> None:
        """Delete existing edges (both directions on undirected graphs)."""
        with self._lock:
            self.graph.remove_edges(edge_index)

    def update_features(self, nodes: np.ndarray, features: np.ndarray) -> None:
        """Replace the feature rows of ``nodes``."""
        with self._lock:
            self.graph.update_features(nodes, features)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def flush(self) -> bool:
        """Apply journaled mutations to the serving state now.

        Returns whether anything was pending.  ``score`` flushes implicitly;
        calling this off the request path moves the incremental-maintenance
        cost out of the next request's latency.
        """
        with self._lock:
            delta = self.graph.flush()
            if self.graph.version != self._synced_version + (delta is not None):
                # A flush outside this scorer (``graph.snapshot()`` or
                # ``graph.checkpoint()``) consumed deltas it never saw.
                self._resync()
                return True
            if delta is None:
                return False
            self._apply_delta(delta)
            self._synced_version = self.graph.version
            return True

    def score(self, nodes: Optional[np.ndarray] = None) -> ServeResult:
        """Score the current graph state; ``nodes`` selects the reported rows.

        Flushes pending mutations first, so the response reflects every
        mutation issued before this call (strict serialisability).  The full
        probability matrix is computed at most once per graph version — see
        :class:`Microbatcher` — so concurrent and repeated requests against
        an unchanged graph cost one row-slice each.

        Raises :class:`OverloadedError` when the request is shed by the
        bounded queue or its lock-wait deadline (overloaded scorer); shed
        requests never partially execute.
        """
        start = time.perf_counter()
        admitted_at = self.batcher.admit()
        try:
            with self._lock:
                self.batcher.check_deadline(admitted_at)
                self.flush()
                version = self.graph.version
                probabilities = self.batcher.result_for(
                    version, self._compute_probabilities)
                if nodes is None:
                    nodes = np.arange(probabilities.shape[0])
                    selected = probabilities
                else:
                    nodes = np.asarray(nodes, dtype=np.int64)
                    selected = probabilities[nodes]
                result = ServeResult(
                    probabilities=selected,
                    predictions=selected.argmax(axis=1),
                    nodes=nodes,
                    latency_seconds=time.perf_counter() - start,
                    metadata={"artifact": self.artifact_path,
                              "graph_version": version,
                              "request_index": self.requests_served},
                )
                self.requests_served += 1
                return result
        finally:
            self.batcher.release()

    def describe(self) -> Dict[str, object]:
        """Ensemble summary plus streaming counters (logs/health endpoints)."""
        with self._lock:
            summary = self.ensemble.describe()
            summary.update({
                "artifact_path": self.artifact_path,
                "load_seconds": self.load_seconds,
                "requests_served": self.requests_served,
                "graph_version": self.graph.version,
                "structure_version": self.graph.structure_version,
                "num_nodes": self.graph.num_nodes,
                "microbatcher": self.batcher.stats(),
                "streaming": dict(self._stats),
                "health": self._health_view(),
            })
            if self.num_partitions > 1:
                summary["sharding"] = {
                    "num_partitions": self.num_partitions,
                    "backend": self.shard_backend,
                    "halo_hops": self.halo_hops,
                    "plan_version": self._shard_plan_version,
                }
            return summary

    def _health_view(self) -> Dict[str, object]:
        """Readiness snapshot: queue saturation, shed count, journal status."""
        stats = self.batcher.stats()
        saturated = (stats["max_pending"] is not None
                     and stats["pending"] >= stats["max_pending"])
        return {
            "status": "overloaded" if saturated else "ok",
            "pending": stats["pending"],
            "max_pending": stats["max_pending"],
            "shed": stats["shed"],
            "deadline_seconds": self.batcher.deadline_seconds,
            "journal": self.graph.journal_info(),
        }

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, artifact: Union[str, FittedEnsemble], journal_dir: str,
                fsync: bool = False,
                **kwargs: object) -> Tuple["StreamingScorer", RecoveryReport]:
        """Rebuild a scorer from a crashed instance's journal directory.

        Reads the checksummed snapshot, replays the intact prefix of the
        write-ahead journal (a torn trailing record from a mid-append crash
        is dropped and reported; see
        :meth:`~repro.graph.streaming.MutableServingGraph.recover`), and
        serves scores **bit-identical** to the pre-crash instance.  Returns
        the scorer together with the :class:`RecoveryReport`.
        """
        graph, report = MutableServingGraph.recover(journal_dir, fsync=fsync)
        scorer = cls(artifact, graph, **kwargs)  # type: ignore[arg-type]
        return scorer, report

    def checkpoint(self) -> None:
        """Compact the journal: flush, snapshot the live state, truncate.

        Bounds recovery time after long mutation streams.  Requires the
        scorer to have been constructed with ``journal_dir`` (or recovered).
        """
        with self._lock:
            self.flush()
            self.graph.checkpoint()

    # ------------------------------------------------------------------
    # Incremental state maintenance
    # ------------------------------------------------------------------
    def _apply_delta(self, delta: MutationDelta) -> None:
        """Refresh the serving masters after one graph flush."""
        self._stats["mutations_flushed"] += 1
        self._invalidate_cache_entries()
        if delta.structure_changed:
            self._stats["structure_refreshes"] += 1
            self._rebuild_structure_state()
        if delta.feature_rows.size or delta.num_nodes != delta.old_num_nodes:
            self._stats["feature_refreshes"] += 1
            self._update_feature_state(delta)
        self._update_powered_masters(delta)

    def _resync(self) -> None:
        """Rebuild every serving master from the graph's flushed state."""
        self._invalidate_cache_entries()
        self._rebuild_structure_state()
        self._rebuild_feature_state()
        self._powered = {}
        self._synced_version = self.graph.version
        for counter in ("mutations_flushed", "structure_refreshes",
                        "feature_refreshes"):
            self._stats[counter] += 1

    def _invalidate_cache_entries(self) -> None:
        """Evict process-cache entries derived from the superseded state.

        Only fingerprints that were *actually computed* are invalidated —
        hashing an operator solely to invalidate it would cost more than the
        stale entry.  ``SparseTensor`` memoises its fingerprint lazily, so a
        ``None`` peek means no cache entry can exist under that hash from
        this scorer's operators.
        """
        cache = compute_cache()
        fingerprints = set()
        for tensor in self._carried_sparse_tensors():
            memoised = tensor._fingerprint
            if memoised is not None:
                fingerprints.add(memoised)
        features_fp = self._carried_extras.get("fingerprint:features")
        if features_fp is not None:
            fingerprints.add(features_fp)
        for fingerprint in fingerprints:
            self._stats["cache_invalidations"] += cache.invalidate(fingerprint)

    def _carried_sparse_tensors(self) -> List[SparseTensor]:
        tensors = []
        for key in ("adj:sym", "adj:rw", "adj:raw"):
            tensor = self._carried_extras.get(key)
            if tensor is not None:
                tensors.append(tensor)
        return tensors

    def _rebuild_structure_state(self) -> None:
        """Re-derive the dtype operator views and edge list from the masters.

        The float64 masters changed only in the flushed rows, but the dtype
        cast is elementwise — casting the whole spliced array is bitwise
        equal to casting row by row, and costs one O(nnz) pass.
        """
        for kind in ("sym", "rw", "raw"):
            view = self.graph.operator(kind).astype(self.dtype)
            view.data.setflags(write=False)
            self._operators[kind] = view
        rows, cols, weights = self.graph.loop_structure()
        self._edge_index = np.vstack([rows, cols]).astype(np.int64)
        self._edge_weight = weights.astype(self.dtype)
        # Structure-derived per-view extras (edge scatter operators, memoised
        # operator wrappers) are no longer valid.
        with compute_dtype_scope(self.ensemble.compute_dtype):
            self._carried_extras = {
                f"adj:{kind}": SparseTensor(matrix)
                for kind, matrix in self._operators.items()}

    def _rebuild_feature_state(self) -> None:
        """Full dtype cast of the feature master (init / fallback path)."""
        self._features_view = self.graph.features64().astype(self.dtype)

    def _update_feature_state(self, delta: MutationDelta) -> None:
        """Delta dtype cast: only changed/new feature rows are re-cast."""
        master = self.graph.features64()
        old_view = self._features_view
        if delta.num_nodes != delta.old_num_nodes:
            grown = np.empty((delta.num_nodes, master.shape[1]), dtype=self.dtype)
            grown[:delta.old_num_nodes] = old_view[:delta.old_num_nodes]
            grown[delta.old_num_nodes:] = \
                master[delta.old_num_nodes:].astype(self.dtype)
            self._features_view = grown
        else:
            self._features_view = old_view.copy()
        if delta.feature_rows.size:
            self._features_view[delta.feature_rows] = \
                master[delta.feature_rows].astype(self.dtype)
        # A fresh fingerprint would be computed lazily on demand; the old one
        # was invalidated in _invalidate_cache_entries.
        self._carried_extras.pop("fingerprint:features", None)

    def _changed_feature_rows(self, delta: MutationDelta) -> np.ndarray:
        """Rows of ``X`` whose value changed in this flush (dtype view)."""
        new_rows = np.arange(delta.old_num_nodes, delta.num_nodes, dtype=np.int64)
        return np.union1d(delta.feature_rows, new_rows)

    def _update_powered_masters(self, delta: MutationDelta) -> None:
        """Delta-propagate the cached ``A^k X`` chains through one flush.

        For each cached power the dirty frontier grows by one hop: a row of
        ``P_k = A P_{k-1}`` changes iff its operator row changed, or it reads
        a changed row of ``P_{k-1}``.  Dirty rows are recomputed via the
        row-sliced product (bit-identical to the full product's rows); clean
        rows keep their bytes.  Past ``full_rebuild_fraction`` dirty rows the
        full product is cheaper and bitwise-idempotent, so the engine
        switches without affecting parity.
        """
        if not self._powered:
            return
        grown = delta.num_nodes != delta.old_num_nodes
        for kind, chain in self._powered.items():
            operator = self._operators[kind]
            dirty = self._changed_feature_rows(delta)
            operator_rows = delta.operator_rows.get(
                kind, np.empty(0, dtype=np.int64))
            previous = self._features_view
            for index, master in enumerate(chain):
                dirty = np.union1d(
                    operator_rows,
                    rows_touching_columns(operator.indptr, operator.indices, dirty))
                if grown or dirty.size:
                    if dirty.size > self.full_rebuild_fraction * delta.num_nodes:
                        updated = operator @ previous
                        self._stats["powered_full_rebuilds"] += 1
                    else:
                        updated = np.empty((delta.num_nodes, master.shape[1]),
                                           dtype=master.dtype)
                        updated[:delta.old_num_nodes] = \
                            master[:delta.old_num_nodes]
                        if dirty.size:
                            updated[dirty] = operator[dirty] @ previous
                        self._stats["powered_delta_rows"] += int(dirty.size)
                    chain[index] = updated
                previous = chain[index]

    # ------------------------------------------------------------------
    # Forward pass
    # ------------------------------------------------------------------
    def _build_view(self) -> GraphTensors:
        """Assemble the :class:`GraphTensors` view of the current version.

        Operators alias the frozen dtype masters zero-copy; the cached
        ``A^k X`` chains and structure-derived extras are pre-seeded so the
        members' ``powered_features``/``edge_scatter`` lookups hit
        immediately.  ``cache_derived=False`` keeps the per-version products
        out of the process-wide cache — every version is served exactly once
        from here, so global memoisation would be pure churn.
        """
        with compute_dtype_scope(self.ensemble.compute_dtype):
            # Tensor() materialises under the ambient dtype policy, so the
            # whole assembly — including the pre-seeded extras — must run
            # inside the artifact's scope or a float32 artifact served from
            # a float64 process would silently upcast its cached products.
            extras: Dict[str, object] = {}
            for key, value in self._carried_extras.items():
                if not key.startswith("adj:"):
                    extras[key] = value
            for kind, chain in self._powered.items():
                for index, master in enumerate(chain):
                    extras[f"powered:{kind}:{index + 1}"] = Tensor(master)
            view = GraphTensors(
                features=Tensor(self._features_view),
                adj_sym=self._carried_extras["adj:sym"],
                adj_rw=self._carried_extras["adj:rw"],
                adj_raw=self._carried_extras["adj:raw"],
                edge_index=self._edge_index,
                edge_weight=self._edge_weight,
                num_nodes=int(self._features_view.shape[0]),
                num_features=int(self._features_view.shape[1]),
                cache_derived=False,
                extras=extras,
            )
        return view

    def _compute_probabilities(self) -> np.ndarray:
        """One full forward pass, mirroring ``FittedEnsemble.predict_proba``.

        The same expression tree — per-split ``predict_proba`` through
        ``forward_inference``, reduced with ``np.mean`` over the split axis
        under the artifact's compute dtype — so the result is bit-identical
        to scoring an equivalent from-scratch graph with a batch scorer.
        With ``num_partitions > 1`` the pass is sharded over the cached
        partition plan instead; parity is unchanged
        (:mod:`repro.serve.sharded`).
        """
        view = self._build_view()
        if self.num_partitions > 1:
            return self._sharded_pass(view)
        with compute_dtype_scope(self.ensemble.compute_dtype):
            split_probabilities = [ensemble.predict_proba(view)
                                   for ensemble in self.ensemble.ensembles]
            probabilities = np.mean(split_probabilities, axis=0)
        self._harvest_extras(view)
        return probabilities

    def _sharded_pass(self, view: GraphTensors) -> np.ndarray:
        """Partition-parallel forward pass over the current version's view.

        The partition plan depends only on the graph *structure*, so it is
        rebuilt only when the structure version moves (or node growth makes
        the cached plan stale); feature-only mutation bursts — the common
        streaming workload — reuse it.  Powered masters already on the view
        are row-sliced into each shard by :func:`repro.serve.sharded.slice_view`;
        nothing is harvested back, because shard-local products cover only
        partition rows.
        """
        from repro.serve.sharded import build_partition_plan, sharded_predict_proba

        structure_version = self.graph.structure_version
        if (self._shard_plan is None
                or self._shard_plan_version != structure_version
                or self._shard_plan.num_nodes != view.num_nodes):
            halo = self.halo_hops
            if halo is None:
                halo = self.ensemble.receptive_field()
            self._shard_plan = build_partition_plan(
                view, self.num_partitions, halo)
            self._shard_plan_version = structure_version
        if self._shard_executor is None:
            from repro.parallel.backends import get_backend
            self._shard_executor = get_backend(self.shard_backend,
                                               max_workers=self.max_workers)
        return sharded_predict_proba(
            self.ensemble, None, self._shard_plan,
            backend=self._shard_executor, policy=self.resilience, data=view)

    def close(self) -> None:
        """Release the shard worker pool (no-op for unsharded scorers)."""
        backend = self._shard_executor
        self._shard_executor = None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "StreamingScorer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _harvest_extras(self, view: GraphTensors) -> None:
        """Adopt reusable per-view products computed during a forward pass.

        ``A^k X`` products requested for the first time become chain masters
        (with the intermediate powers materialised so later deltas can
        propagate hop by hop — the chain is bitwise equal to the per-power
        products the view computes).  Edge-scatter operators and the feature
        fingerprint are carried until the next structural/feature flush.
        """
        requested: Dict[str, int] = {}
        for key in view.extras:
            if key.startswith("powered:"):
                _, kind, power = key.split(":")
                requested[kind] = max(requested.get(kind, 0), int(power))
        for kind, max_power in requested.items():
            chain = self._powered.setdefault(kind, [])
            operator = self._operators[kind]
            previous = chain[-1] if chain else self._features_view
            while len(chain) < max_power:
                previous = operator @ previous
                chain.append(previous)
        for key in ("edge_scatter:src", "edge_scatter:dst", "fingerprint:features"):
            if key in view.extras:
                self._carried_extras[key] = view.extras[key]


def load_streaming_scorer(artifact_path: str,
                          graph: Union[Graph, MutableServingGraph],
                          **kwargs) -> StreamingScorer:
    """Convenience constructor mirroring :func:`repro.serve.load_scorer`."""
    return StreamingScorer(artifact_path, graph, **kwargs)
