"""Differential parity + concurrency stress tests for the streaming engine.

The streaming serving stack (:mod:`repro.graph.streaming`,
:mod:`repro.serve.streaming`) promises **bit-identical** scores to a
from-scratch batch rebuild after any mutation sequence.  These tests hold it
to that promise:

* randomized mutation campaigns (seeded ``numpy.random.Generator``, ~200
  steps) with periodic differential checks against a fresh
  :class:`~repro.serve.BatchScorer` on the rebuilt snapshot, in both
  float64 and float32;
* a threaded stress run interleaving mutators and queriers through the
  microbatcher, checking serialisability (same version ⇒ same bytes,
  per-thread monotone versions) and that a serialized replay of the logged
  mutation order reproduces the final scores exactly.
"""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import AutoHEnsGNN, AutoHEnsGNNConfig, load_dataset
from repro.autograd.dtype import compute_dtype_scope
from repro.core.artifact import ArtifactError
from repro.core.config import ProxyConfig
from repro.graph.graph import Graph
from repro.graph.streaming import MutableServingGraph, rows_touching_columns
from repro.serve import (BatchScorer, Microbatcher, StreamingScorer,
                         load_streaming_scorer)
from repro.tasks.trainer import TrainConfig

# "sign" and "sgc" consume cached A^k X products, so the pool exercises the
# delta-propagation path; "gcn" exercises the plain spmm path.
POOL = ["gcn", "sgc", "sign"]
DATASET_ARGS = {"scale": 0.15, "seed": 0}


def streaming_config(dtype: str) -> AutoHEnsGNNConfig:
    config = AutoHEnsGNNConfig(
        pool_size=3, ensemble_size=2, max_layers=2, search_epochs=3,
        bagging_splits=1, hidden=16, candidate_models=POOL,
        proxy=ProxyConfig(dataset_fraction=0.5, bagging_rounds=1,
                          hidden_fraction=0.5, max_epochs=3),
        seed=0, compute_dtype=dtype)
    config.train = TrainConfig(lr=0.02, max_epochs=4, patience=5)
    return config


@pytest.fixture(scope="module")
def streaming_pool():
    """One graph + one fitted ensemble per compute dtype (fitted once)."""
    graph = load_dataset("kddcup-A", **DATASET_ARGS)
    fitted = {dtype: AutoHEnsGNN(streaming_config(dtype)).fit(graph, pool=POOL)
              for dtype in ("float64", "float32")}
    return graph, fitted


# ----------------------------------------------------------------------
# Randomized mutation driver (shared by parity and stress tests)
# ----------------------------------------------------------------------
def apply_random_mutation(rng, target, log=None):
    """Apply one valid random mutation to a scorer or mutable graph.

    ``target`` exposes the mutation API; reads go through its underlying
    :class:`MutableServingGraph`.  When ``log`` is given the applied
    mutation is appended in a replayable form — appended in application
    order, so replaying the log serially reproduces the same final graph.
    """
    graph = target.graph if isinstance(target, StreamingScorer) else target
    operation = str(rng.choice(
        ["add_edge", "remove_edge", "add_node", "update_feature"]))
    if operation == "add_edge":
        for _ in range(20):
            source = int(rng.integers(graph.num_nodes))
            destination = int(rng.integers(graph.num_nodes))
            if source != destination and not graph.has_edge(source, destination):
                weight = float(rng.uniform(0.5, 2.0))
                target.add_edges(np.array([[source], [destination]]),
                                 edge_weight=np.array([weight]))
                if log is not None:
                    log.append(("add_edges", source, destination, weight))
                return
        return  # 20 draws all collided with existing edges; skip this step
    if operation == "remove_edge":
        sources = [node for node in range(graph.num_nodes)
                   if any(other != node for other in graph._neighbors[node])]
        if not sources:
            return
        source = int(rng.choice(sources))
        destination = int(rng.choice(
            [other for other in graph._neighbors[source] if other != source]))
        target.remove_edges(np.array([[source], [destination]]))
        if log is not None:
            log.append(("remove_edges", source, destination))
        return
    if operation == "add_node":
        features = rng.standard_normal((1, graph.num_features))
        target.add_nodes(features)
        if log is not None:
            log.append(("add_nodes", features))
        return
    node = int(rng.integers(graph.num_nodes))
    features = rng.standard_normal((1, graph.num_features))
    target.update_features(np.array([node]), features)
    if log is not None:
        log.append(("update_features", node, features))


def replay_mutations(target, log):
    """Apply a recorded mutation log serially, in order."""
    for entry in log:
        operation = entry[0]
        if operation == "add_edges":
            _, source, destination, weight = entry
            target.add_edges(np.array([[source], [destination]]),
                             edge_weight=np.array([weight]))
        elif operation == "remove_edges":
            _, source, destination = entry
            target.remove_edges(np.array([[source], [destination]]))
        elif operation == "add_nodes":
            target.add_nodes(entry[1])
        else:
            target.update_features(np.array([entry[1]]), entry[2])


def tiny_graph(seed=0, num_nodes=30, num_features=5) -> Graph:
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < 60:
        source, destination = (int(v) for v in rng.integers(num_nodes, size=2))
        if source != destination:
            edges.add((source, destination))
    edge_index = np.array(sorted(edges), dtype=np.int64).T
    with compute_dtype_scope("float64"):
        return Graph(edge_index=edge_index,
                     features=rng.standard_normal((num_nodes, num_features)),
                     labels=rng.integers(0, 3, size=num_nodes),
                     directed=False, num_classes=3, name="tiny")


def _assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Bit-identity: dtype, shape and raw bytes all equal."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Operator-level differential parity (no fitted ensemble needed)
# ----------------------------------------------------------------------
class TestMutableServingGraph:
    def test_incremental_operators_match_from_scratch_rebuild(self):
        """~200 random mutations; all three operators stay bit-identical."""
        rng = np.random.default_rng(0)
        graph = MutableServingGraph(tiny_graph())
        for step in range(200):
            apply_random_mutation(rng, graph)
            if (step + 1) % 20 == 0:
                graph.flush()
                rebuilt = MutableServingGraph(graph.snapshot())
                for kind in ("sym", "rw", "raw"):
                    incremental = graph.operator(kind)
                    reference = rebuilt.operator(kind)
                    _assert_same_bits(incremental.indptr, reference.indptr)
                    _assert_same_bits(incremental.indices, reference.indices)
                    _assert_same_bits(incremental.data, reference.data)
        assert graph.num_nodes > 30  # the campaign actually grew the graph

    def test_mutation_validation(self):
        graph = MutableServingGraph(tiny_graph())
        present = next((s, d) for s in range(graph.num_nodes)
                       for d in graph._neighbors[s])
        with pytest.raises(ValueError, match="already exists"):
            graph.add_edges(np.array([[present[0]], [present[1]]]))
        with pytest.raises(ValueError, match="self-loop"):
            graph.add_edges(np.array([[3], [3]]))
        absent = next((s, d) for s in range(graph.num_nodes)
                      for d in range(graph.num_nodes)
                      if s != d and not graph.has_edge(s, d))
        with pytest.raises(ValueError, match="does not exist"):
            graph.remove_edges(np.array([[absent[0]], [absent[1]]]))
        with pytest.raises(ValueError, match="out of range"):
            graph.add_edges(np.array([[0], [graph.num_nodes]]))
        with pytest.raises(ValueError, match="features"):
            graph.add_nodes(np.zeros((1, graph.num_features + 1)))
        with pytest.raises(ValueError, match="shape"):
            graph.update_features(np.array([0]),
                                  np.zeros((1, graph.num_features + 2)))
        assert not graph.dirty  # every rejected mutation left no journal entry

    def test_dirty_graph_refuses_structure_reads(self):
        graph = MutableServingGraph(tiny_graph())
        graph.add_nodes(np.zeros((1, graph.num_features)))
        assert graph.dirty
        with pytest.raises(RuntimeError, match="unflushed"):
            graph.operator("sym")
        with pytest.raises(RuntimeError, match="unflushed"):
            graph.features64()
        graph.flush()
        assert graph.operator("sym").shape[0] == graph.num_nodes

    def test_rows_touching_columns(self):
        matrix = sp.csr_matrix(np.array([[1.0, 0.0, 0.0],
                                         [0.0, 1.0, 1.0],
                                         [0.0, 0.0, 1.0]]))
        rows = rows_touching_columns(matrix.indptr, matrix.indices,
                                     np.array([2]))
        assert rows.tolist() == [1, 2]
        none = rows_touching_columns(matrix.indptr, matrix.indices,
                                     np.empty(0, dtype=np.int64))
        assert none.size == 0


# ----------------------------------------------------------------------
# End-to-end differential parity against the batch scorer
# ----------------------------------------------------------------------
class TestStreamingParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_scores_bit_identical_to_batch_rebuild(self, streaming_pool, dtype):
        """200-step campaign: streaming scores == fresh batch rebuild, bitwise."""
        graph, fitted = streaming_pool
        ensemble = fitted[dtype]
        scorer = StreamingScorer(ensemble, graph)
        reference = BatchScorer(ensemble)
        rng = np.random.default_rng(42)
        checks = 0
        for step in range(200):
            apply_random_mutation(rng, scorer)
            if (step + 1) % 25 == 0:
                result = scorer.score()
                expected = reference.score(scorer.graph.snapshot())
                _assert_same_bits(result.probabilities, expected.probabilities)
                np.testing.assert_array_equal(result.predictions,
                                              expected.predictions)
                checks += 1
        assert checks == 8
        stats = scorer.describe()["streaming"]
        assert stats["mutations_flushed"] >= checks
        # The pool's SGC/SIGN members pull cached A^k X products, so the
        # delta-propagation machinery must actually have run.
        assert stats["powered_delta_rows"] + stats["powered_full_rebuilds"] > 0

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("flush_by", ["snapshot", "checkpoint"])
    def test_graph_flushed_behind_the_scorer_is_not_served_stale(
            self, streaming_pool, dtype, flush_by, tmp_path):
        """``graph.snapshot()``/``graph.checkpoint()`` consume the journal
        without telling the scorer; its next score must still answer the
        flushed version, not the operators it held before."""
        graph, fitted = streaming_pool
        ensemble = fitted[dtype]
        journal_dir = str(tmp_path / "journal") if flush_by == "checkpoint" else None
        scorer = StreamingScorer(ensemble, graph, journal_dir=journal_dir)
        scorer.score()  # seed the powered chains
        live = scorer.graph
        pairs = [(source, destination)
                 for source in range(live.num_nodes)
                 for destination in range(source + 1, live.num_nodes)
                 if not live.has_edge(source, destination)][:5]
        scorer.add_edges(np.array(pairs).T)
        scorer.update_features(np.array([0]),
                               np.ones((1, live.num_features)))
        if flush_by == "checkpoint":
            live.checkpoint()
        expected = BatchScorer(ensemble).score(live.snapshot())
        result = scorer.score()
        _assert_same_bits(result.probabilities, expected.probabilities)
        assert result.metadata["graph_version"] == live.version
        assert scorer.describe()["streaming"]["structure_refreshes"] == 1
        live.close()

    def test_node_subset_slices_the_shared_matrix(self, streaming_pool):
        graph, fitted = streaming_pool
        scorer = StreamingScorer(fitted["float64"], graph)
        full = scorer.score()
        subset = scorer.score(np.array([5, 2, 9]))
        _assert_same_bits(subset.probabilities, full.probabilities[[5, 2, 9]])
        np.testing.assert_array_equal(subset.nodes, [5, 2, 9])
        # Both requests hit the same graph version: one forward pass total.
        assert scorer.batcher.forward_passes == 1
        assert scorer.batcher.coalesced == 1

    def test_full_rebuild_fallback_keeps_parity(self, streaming_pool):
        """A tiny threshold forces the full-recompute path; parity must hold."""
        graph, fitted = streaming_pool
        ensemble = fitted["float64"]
        scorer = StreamingScorer(ensemble, graph, full_rebuild_fraction=1e-9)
        rng = np.random.default_rng(7)
        scorer.score()  # seed the powered chains
        for _ in range(10):
            apply_random_mutation(rng, scorer)
        result = scorer.score()
        expected = BatchScorer(ensemble).score(scorer.graph.snapshot())
        _assert_same_bits(result.probabilities, expected.probabilities)
        stats = scorer.describe()["streaming"]
        if scorer._powered:
            assert stats["powered_full_rebuilds"] > 0
            assert stats["powered_delta_rows"] == 0

    def test_artifact_roundtrip(self, streaming_pool, tmp_path):
        graph, fitted = streaming_pool
        path = fitted["float64"].save(str(tmp_path / "artifact"))
        loaded = load_streaming_scorer(path, graph)
        in_memory = StreamingScorer(fitted["float64"], graph)
        _assert_same_bits(loaded.score().probabilities,
                          in_memory.score().probabilities)
        assert loaded.artifact_path == path

    def test_feature_schema_mismatch_raises(self, streaming_pool):
        _, fitted = streaming_pool
        wrong = tiny_graph(num_features=3)
        with pytest.raises(ArtifactError, match="feature schema mismatch"):
            StreamingScorer(fitted["float64"], wrong)

    def test_full_rebuild_fraction_validation(self, streaming_pool):
        graph, fitted = streaming_pool
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="full_rebuild_fraction"):
                StreamingScorer(fitted["float64"], graph,
                                full_rebuild_fraction=bad)


class TestMicrobatcher:
    def test_computes_at_most_once_per_version(self):
        batcher = Microbatcher()
        calls = []

        def compute():
            calls.append(1)
            return np.full(3, len(calls), dtype=np.float64)

        first = batcher.result_for(0, compute)
        second = batcher.result_for(0, compute)
        assert len(calls) == 1 and first is second
        third = batcher.result_for(1, compute)
        assert len(calls) == 2 and third[0] == 2
        assert batcher.stats() == {"requests": 3, "forward_passes": 2,
                                   "coalesced": 1, "shed": 0, "pending": 0,
                                   "max_pending": None}


# ----------------------------------------------------------------------
# Concurrency stress: serialisability under interleaved threads
# ----------------------------------------------------------------------
class TestConcurrencyStress:
    MUTATORS = 3
    QUERIERS = 3
    MUTATIONS_EACH = 30
    QUERIES_EACH = 12
    JOIN_TIMEOUT = 180.0

    def test_interleaved_mutations_and_queries(self, streaming_pool):
        graph, fitted = streaming_pool
        ensemble = fitted["float64"]
        scorer = StreamingScorer(ensemble, graph)
        log = []  # mutation order == serialization order (appended under lock)
        responses = [[] for _ in range(self.QUERIERS)]
        errors = []

        def mutate(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(self.MUTATIONS_EACH):
                    # Pick-and-apply atomically so concurrent mutators never
                    # race each other into a duplicate-edge rejection; the
                    # log order is therefore the true application order.
                    with scorer._lock:
                        apply_random_mutation(rng, scorer, log)
            except Exception as error:  # pragma: no cover - failure diagnostics
                errors.append(error)

        def query(slot):
            try:
                for _ in range(self.QUERIES_EACH):
                    responses[slot].append(scorer.score())
            except Exception as error:  # pragma: no cover - failure diagnostics
                errors.append(error)

        threads = [threading.Thread(target=mutate, args=(seed,))
                   for seed in range(self.MUTATORS)]
        threads += [threading.Thread(target=query, args=(slot,))
                    for slot in range(self.QUERIERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.JOIN_TIMEOUT)
        assert not any(thread.is_alive() for thread in threads), \
            "stress threads did not finish: deadlock or runaway work"
        assert not errors, errors

        # No torn reads: every response against one graph version carries
        # exactly the same bytes, and each thread observes monotone versions.
        by_version = {}
        for slot_responses in responses:
            versions = [r.metadata["graph_version"] for r in slot_responses]
            assert versions == sorted(versions)
            for response in slot_responses:
                blob = (response.probabilities.shape,
                        response.probabilities.tobytes())
                recorded = by_version.setdefault(
                    response.metadata["graph_version"], blob)
                assert recorded == blob
        stats = scorer.batcher.stats()
        assert stats["requests"] == self.QUERIERS * self.QUERIES_EACH
        assert stats["forward_passes"] == len(by_version)
        assert stats["coalesced"] == stats["requests"] - stats["forward_passes"]

        # Deterministic serialized replay: applying the logged mutation order
        # on a fresh scorer reproduces the final scores bit for bit, and both
        # match a from-scratch batch rebuild of the final graph.
        assert len(log) > 0
        replayed = StreamingScorer(ensemble, graph)
        replay_mutations(replayed, log)
        final = scorer.score()
        _assert_same_bits(final.probabilities, replayed.score().probabilities)
        reference = BatchScorer(ensemble).score(scorer.graph.snapshot())
        _assert_same_bits(final.probabilities, reference.probabilities)
