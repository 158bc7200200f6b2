"""Tests for the parallel execution engine and the shared computation cache.

The contracts under test:

* every backend (serial / thread / process) returns results in item order and
  produces bit-for-bit identical numbers at a fixed seed,
* budget-aware dispatch stops launching tasks once the
  :class:`~repro.automl.budget.TimeBudget` heuristic says another round would
  overrun, while always completing at least ``min_results`` tasks,
* :class:`~repro.parallel.cache.ComputeCache` accounts hits and misses and
  deduplicates derived sparse operators,
* grad mode is thread-local so concurrent trainings cannot disable each
  other's autograd recording.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.automl.budget import TimeBudget
from repro.autograd.sparse import SparseTensor
from repro.autograd.tensor import is_grad_enabled, no_grad
from repro.core import GraphSelfEnsemble, HierarchicalEnsemble, ProxyEvaluator
from repro.core.config import ProxyConfig
from repro.nn.data import GraphTensors
from repro.parallel import (
    ComputeCache,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    compute_cache,
    get_backend,
    set_compute_cache,
)
from repro.parallel.backends import _openblas_thread_functions
from repro.tasks.trainer import TrainConfig

ALL_BACKENDS = ("serial", "thread", "process")


def _square(x: int) -> int:
    return x * x


def _slow_identity(x: float) -> float:
    time.sleep(0.02)
    return x


# ----------------------------------------------------------------------
# Backend mechanics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_map_preserves_item_order(name):
    backend = get_backend(name, max_workers=2)
    report = backend.map(_square, list(range(12)))
    assert report.results == [i * i for i in range(12)]
    assert report.dispatched == 12
    assert report.skipped == 0
    assert report.backend == name


def test_get_backend_resolution():
    assert isinstance(get_backend(None), SerialBackend)
    assert isinstance(get_backend("serial"), SerialBackend)
    assert isinstance(get_backend("thread"), ThreadBackend)
    assert isinstance(get_backend("process"), ProcessBackend)
    thread = ThreadBackend(max_workers=3)
    assert get_backend(thread) is thread
    with pytest.raises(ValueError):
        get_backend("gpu-cluster")


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_map_empty_items(name):
    report = get_backend(name, max_workers=2).map(_square, [])
    assert report.results == []
    assert report.dispatched == 0


@pytest.mark.parametrize("name", ("serial", "thread"))
def test_budget_aware_dispatch_stops_early(name):
    backend = get_backend(name, max_workers=1)
    budget = TimeBudget(0.03)  # roughly one task's worth of time
    report = backend.map(_slow_identity, [0.0] * 20, budget=budget, min_results=1)
    assert 1 <= report.dispatched < 20
    assert report.skipped == 20 - report.dispatched
    assert report.results == [0.0] * report.dispatched


def test_budget_min_results_honoured_even_when_exhausted():
    backend = get_backend("serial")
    budget = TimeBudget(1e-9)
    time.sleep(0.01)  # the budget is already over before the first dispatch
    report = backend.map(_slow_identity, [1.0, 2.0, 3.0], budget=budget, min_results=2)
    assert report.dispatched >= 2
    assert report.results[:2] == [1.0, 2.0]


def test_no_budget_runs_everything():
    report = get_backend("thread", max_workers=4).map(_slow_identity, [1.0] * 8)
    assert report.dispatched == 8


@pytest.mark.parametrize("name", ("thread", "process"))
def test_pool_backend_reuses_workers_across_maps(name):
    backend = get_backend(name, max_workers=2)
    try:
        first = backend.map(_square, [1, 2, 3])
        pool = backend._pool
        second = backend.map(_square, [4, 5])
        assert backend._pool is pool, "executor must persist across map() calls"
        assert first.results == [1, 4, 9] and second.results == [16, 25]
    finally:
        backend.close()
    assert backend._pool is None


def _raise_value_error(x):
    raise ValueError("boom")


def test_pool_backend_survives_task_exception():
    backend = get_backend("thread", max_workers=2)
    try:
        with pytest.raises(ValueError):
            backend.map(_raise_value_error, [1, 2, 3])
        report = backend.map(_square, [2, 3])
        assert report.results == [4, 9]
    finally:
        backend.close()


def _worker_blas_threads(_):
    get_threads, _ = _openblas_thread_functions()
    return get_threads()


def test_process_workers_cap_blas_threads_at_their_cpu_share():
    functions = _openblas_thread_functions()
    if functions is None:
        pytest.skip("NumPy's bundled OpenBLAS thread functions are not exported")
    get_threads, _ = functions
    parent_threads = get_threads()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    backend = ProcessBackend(max_workers=2)
    try:
        report = backend.map(_worker_blas_threads, [0, 1])
    finally:
        backend.close()
    expected = min(parent_threads, max(1, cpus // 2))
    assert report.results == [expected, expected]
    # The cap lives in the workers only.
    assert get_threads() == parent_threads


@pytest.mark.parametrize("name", ("thread", "process"))
def test_exhausted_budget_limits_initial_fill(name):
    # An already-exhausted budget must not let the pool backends burn a full
    # worker wave: they dispatch the same min_results prefix as serial.
    backend = get_backend(name, max_workers=4)
    budget = TimeBudget(1e-9)
    time.sleep(0.01)
    report = backend.map(_slow_identity, [0.0] * 10, budget=budget, min_results=1)
    assert report.dispatched == 1
    assert report.skipped == 9


# ----------------------------------------------------------------------
# Thread-local grad mode
# ----------------------------------------------------------------------
def test_no_grad_is_thread_local():
    observed = {}
    release = threading.Event()
    entered = threading.Event()

    def hold_no_grad():
        with no_grad():
            entered.set()
            release.wait(timeout=5.0)

    worker = threading.Thread(target=hold_no_grad)
    worker.start()
    try:
        assert entered.wait(timeout=5.0)
        # The worker thread sits inside no_grad(); this thread must still
        # record gradients.
        observed["main"] = is_grad_enabled()
    finally:
        release.set()
        worker.join(timeout=5.0)
    assert observed["main"] is True
    assert is_grad_enabled() is True


# ----------------------------------------------------------------------
# Bit-for-bit equality of training results across backends
# ----------------------------------------------------------------------
def _gse_probabilities(backend, data, graph):
    ensemble = GraphSelfEnsemble(spec_name="gcn", num_members=3, hidden=16,
                                 num_layers=2, base_seed=5)
    ensemble.fit(data, graph.labels, graph.mask_indices("train"),
                 graph.mask_indices("val"),
                 train_config=TrainConfig(max_epochs=8, patience=4, seed=5),
                 num_classes=graph.num_classes, backend=backend)
    return ensemble.predict_proba(data), list(ensemble.member_val_scores)


@pytest.mark.parametrize("name", ("thread", "process"))
def test_gse_backends_bit_identical(name, tiny_split_graph, tiny_data):
    serial_probs, serial_scores = _gse_probabilities("serial", tiny_data,
                                                     tiny_split_graph)
    other_probs, other_scores = _gse_probabilities(name, tiny_data, tiny_split_graph)
    assert np.array_equal(serial_probs, other_probs)
    assert serial_scores == other_scores


@pytest.mark.parametrize("name", ("thread", "process"))
def test_gse_refit_stays_bit_identical(name, tiny_split_graph, tiny_data):
    """Training advances member RNGs; a second fit must still match serial."""
    def double_fit(backend):
        ensemble = GraphSelfEnsemble(spec_name="gcn", num_members=2, hidden=16,
                                     num_layers=2, base_seed=3)
        config = TrainConfig(max_epochs=5, patience=3, seed=3)
        for _ in range(2):
            ensemble.fit(tiny_data, tiny_split_graph.labels,
                         tiny_split_graph.mask_indices("train"),
                         tiny_split_graph.mask_indices("val"),
                         train_config=config,
                         num_classes=tiny_split_graph.num_classes,
                         backend=backend)
        return ensemble.predict_proba(tiny_data)

    assert np.array_equal(double_fit("serial"), double_fit(name))


@pytest.mark.parametrize("name", ("thread", "process"))
def test_proxy_evaluation_backends_bit_identical(name, tiny_split_graph):
    config = ProxyConfig(dataset_fraction=0.5, bagging_rounds=2,
                         hidden_fraction=0.5, max_epochs=6, patience=3)
    candidates = ["gcn", "sgc", "mlp"]
    serial = ProxyEvaluator(config, candidates=candidates,
                            backend="serial").evaluate(tiny_split_graph, seed=1)
    other = ProxyEvaluator(config, candidates=candidates,
                           backend=name).evaluate(tiny_split_graph, seed=1)
    assert serial.ranking() == other.ranking()
    for left, right in zip(serial.scores, other.scores):
        assert left.name == right.name
        assert left.scores == right.scores


def test_hierarchical_fit_flattens_members_across_backends(tiny_split_graph, tiny_data):
    def build():
        hierarchical = HierarchicalEnsemble()
        for index, name in enumerate(["gcn", "sgc"]):
            hierarchical.add(GraphSelfEnsemble(spec_name=name, num_members=2,
                                               hidden=16, num_layers=2,
                                               base_seed=11 + index))
        return hierarchical

    config = TrainConfig(max_epochs=6, patience=3, seed=2)
    kwargs = dict(train_config=config, num_classes=tiny_split_graph.num_classes)
    serial = build().fit(tiny_data, tiny_split_graph.labels,
                         tiny_split_graph.mask_indices("train"),
                         tiny_split_graph.mask_indices("val"),
                         backend="serial", **kwargs)
    threaded = build().fit(tiny_data, tiny_split_graph.labels,
                           tiny_split_graph.mask_indices("train"),
                           tiny_split_graph.mask_indices("val"),
                           backend="thread", **kwargs)
    assert np.array_equal(serial.predict_proba(tiny_data),
                          threaded.predict_proba(tiny_data))
    assert serial.validation_accuracies() == threaded.validation_accuracies()


@pytest.mark.parametrize("name", ("thread", "process"))
def test_pipeline_fit_predict_backends_bit_identical(name, tiny_split_graph):
    """The PR's acceptance criterion, end to end through AutoHEnsGNN."""
    from repro.core import AutoHEnsGNN
    from repro.core.config import AutoHEnsGNNConfig, ProxyConfig

    def run(backend):
        config = AutoHEnsGNNConfig(
            pool_size=2, ensemble_size=2, max_layers=2, search_epochs=5,
            bagging_splits=2,
            candidate_models=["gcn", "sgc", "mlp"],
            proxy=ProxyConfig(dataset_fraction=0.5, bagging_rounds=1,
                              hidden_fraction=0.5, max_epochs=5, patience=3),
            backend=backend, seed=0)
        config.train = config.train.with_overrides(max_epochs=6, patience=3)
        pipeline = AutoHEnsGNN(config)
        result = pipeline.fit_predict(tiny_split_graph)
        # fit_predict must release pooled workers; the executor is re-created
        # lazily on the next call.
        assert pipeline.executor._pool is None if backend != "serial" else True
        return result

    serial = run("serial")
    other = run(name)
    assert serial.pool == other.pool
    assert np.array_equal(serial.probabilities, other.probabilities)
    assert np.array_equal(serial.predictions, other.predictions)


def test_cache_never_freezes_caller_matrix():
    import scipy.sparse as sp

    previous = compute_cache()
    set_compute_cache(ComputeCache())
    try:
        adj = sp.csr_matrix(np.eye(4))
        compute_cache().normalized_adjacency(adj, normalization="none",
                                             self_loops=False)
        assert adj.data.flags.writeable, \
            "caching the raw operator must not freeze the caller's matrix"
        adj.data *= 2.0  # caller may still legally mutate its own adjacency
    finally:
        set_compute_cache(previous)


def test_proxy_budget_skips_candidates_and_reports_them(tiny_split_graph):
    config = ProxyConfig(dataset_fraction=0.5, bagging_rounds=1,
                         hidden_fraction=0.5, max_epochs=6, patience=3)
    candidates = ["gcn", "sgc", "mlp", "tagcn", "gat"]
    budget = TimeBudget(1e-6)
    report = ProxyEvaluator(config, candidates=candidates).evaluate(
        tiny_split_graph, seed=0, budget=budget)
    assert len(report.scores) >= 1
    assert len(report.scores) + len(report.skipped) == len(candidates)
    assert report.skipped, "an exhausted budget must skip trailing candidates"
    # Completed candidates are a prefix of the requested order.
    completed = [score.name for score in report.scores]
    assert completed == candidates[:len(completed)]


# ----------------------------------------------------------------------
# ComputeCache
# ----------------------------------------------------------------------
def test_compute_cache_hit_miss_accounting():
    cache = ComputeCache()
    calls = []

    def expensive():
        calls.append(1)
        return np.arange(4)

    first = cache.get_or_compute("k", expensive, kind="demo")
    second = cache.get_or_compute("k", expensive, kind="demo")
    assert np.array_equal(first, second)
    assert len(calls) == 1
    snapshot = cache.stats()
    assert snapshot["hits"] == 1
    assert snapshot["misses"] == 1
    assert snapshot["per_kind"]["demo"] == {"hits": 1, "misses": 1}
    assert 0.0 < snapshot["hit_rate"] < 1.0
    assert snapshot["entries"] == 1
    assert snapshot["resident_bytes"] > 0
    # The snapshot is detached: mutating it does not touch live accounting.
    snapshot["hits"] = 999
    assert cache.stats()["hits"] == 1


def test_compute_cache_lru_eviction():
    cache = ComputeCache(max_items=2)
    for key in ("a", "b", "c"):
        cache.get_or_compute(key, lambda key=key: key)
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    assert "a" not in cache and "b" in cache and "c" in cache


def test_compute_cache_byte_bounded_eviction():
    cache = ComputeCache(max_items=100, max_bytes=3000)
    for key in ("a", "b", "c"):
        cache.get_or_compute(key, lambda: np.zeros(256))  # 2 KiB each
    # Three 2 KiB arrays exceed the 3000-byte bound; the oldest entries go.
    assert cache.stats()["evictions"] >= 1
    assert "c" in cache
    assert cache.total_bytes <= 2 * 2048


def test_compute_cache_invalidate_drops_derived_entries():
    """invalidate(fp) removes every entry derived from that fingerprint.

    Keys embed the content fingerprints of their source arrays, so one call
    must evict the normalised operators keyed on an adjacency hash and the
    powered products keyed on operator/feature hashes — and nothing else.
    """
    cache = ComputeCache()
    cache.get_or_compute("norm:sym:1:float64:aaa", lambda: np.zeros(4))
    cache.get_or_compute("norm:rw:1:float64:aaa", lambda: np.zeros(4))
    cache.get_or_compute("powered:aaa:feat1:2", lambda: np.zeros(4))
    cache.get_or_compute("norm:sym:1:float64:bbb", lambda: np.zeros(4))
    assert len(cache) == 4
    dropped = cache.invalidate("aaa")
    assert dropped == 3
    assert len(cache) == 1
    assert "norm:sym:1:float64:bbb" in cache
    stats = cache.stats()
    assert stats["invalidations"] == 3
    # Invalidations are accounted separately from LRU evictions.
    assert stats["evictions"] == 0
    # Byte accounting shrinks with the dropped entries.
    assert cache.total_bytes == cache.stats()["resident_bytes"]
    assert cache.total_bytes == 32


def test_compute_cache_invalidate_requires_exact_segment_match():
    """A fingerprint must match a whole colon-separated key segment.

    Substring matching would let the short hash "a" evict entries derived
    from "aa"; segment matching cannot.
    """
    cache = ComputeCache()
    cache.get_or_compute("norm:sym:1:float64:aa", lambda: np.zeros(2))
    assert cache.invalidate("a") == 0
    assert "norm:sym:1:float64:aa" in cache


def test_compute_cache_generation_counter():
    """Every invalidate bumps the generation, even one that drops nothing.

    Long-lived holders (the streaming scorer) compare generations to learn
    that *some* invalidation happened since they last looked, so the bump
    must be unconditional and visible in stats().
    """
    cache = ComputeCache()
    assert cache.generation == 0
    assert cache.invalidate("missing") == 0
    assert cache.generation == 1
    cache.get_or_compute("norm:sym:1:float64:xyz", lambda: np.zeros(2))
    cache.invalidate("xyz")
    assert cache.generation == 2
    assert cache.stats()["generation"] == 2
    # clear() resets accounting wholesale (fresh CacheStats, generation kept
    # monotonic is not required — a cleared cache has no stale holders).
    cache.clear()
    assert cache.stats()["invalidations"] == 0


def test_graph_tensors_share_cached_operators(tiny_split_graph):
    previous = compute_cache()
    cache = set_compute_cache(ComputeCache())
    try:
        first = GraphTensors.from_graph(tiny_split_graph)
        baseline_misses = cache.stats()["misses"]
        assert cache.stats()["per_kind"]["normalized_adjacency"]["misses"] == 3
        second = GraphTensors.from_graph(tiny_split_graph)
        # The second view recomputes nothing: all three operators are hits.
        assert cache.stats()["misses"] == baseline_misses
        assert cache.stats()["per_kind"]["normalized_adjacency"]["hits"] == 3
        assert second.adj_sym.matrix is first.adj_sym.matrix
        # Powered features are shared across views of the same graph too.
        powered_first = first.powered_features("sym", 2)
        powered_second = second.powered_features("sym", 2)
        assert cache.stats()["per_kind"]["powered_features"] == {"hits": 1, "misses": 1}
        assert np.array_equal(powered_first.data, powered_second.data)
    finally:
        set_compute_cache(previous)


def test_compute_cache_thread_safety(tiny_split_graph):
    previous = compute_cache()
    cache = set_compute_cache(ComputeCache())
    try:
        views = [None] * 8

        def build(index):
            views[index] = GraphTensors.from_graph(tiny_split_graph)
            views[index].powered_features("sym", 2)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reference = views[0].powered_features("sym", 2).data
        for view in views[1:]:
            assert np.array_equal(view.powered_features("sym", 2).data, reference)
    finally:
        set_compute_cache(previous)


def test_sparse_tensor_caches_transpose():
    matrix = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 3.0]])
    sparse = SparseTensor(matrix)
    first = sparse.transposed_csr
    second = sparse.transposed_csr
    assert first is second
    assert np.array_equal(first.toarray(), matrix.T)


def test_sparse_tensor_pickle_drops_derived_state():
    import pickle

    sparse = SparseTensor(np.eye(3))
    _ = sparse.transposed_csr
    _ = sparse.fingerprint
    clone = pickle.loads(pickle.dumps(sparse))
    assert np.array_equal(clone.matrix.toarray(), np.eye(3))
    assert clone.fingerprint == sparse.fingerprint
    assert np.array_equal(clone.transposed_csr.toarray(), np.eye(3))


def test_spmm_gradient_uses_cached_transpose(tiny_data):
    from repro.autograd.sparse import spmm
    from repro.autograd.tensor import Tensor

    dense = Tensor(np.ones((tiny_data.num_nodes, 2)), requires_grad=True)
    out = spmm(tiny_data.adj_sym, dense)
    out.backward(np.ones_like(out.data))
    expected = tiny_data.adj_sym.matrix.T.tocsr() @ np.ones((tiny_data.num_nodes, 2))
    assert np.allclose(dense.grad, expected)


# ----------------------------------------------------------------------
# Pool shutdown hardening (resilience PR)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ("thread", "process"))
def test_pool_close_is_idempotent(name):
    backend = get_backend(name, max_workers=2)
    assert backend.map(_square, [1, 2, 3]).results == [1, 4, 9]
    backend.close()
    backend.close()  # second close must be a no-op, not an error
    # A closed backend lazily re-creates its pool on the next map.
    assert backend.map(_square, [4]).results == [16]
    backend.close()


def test_close_after_broken_pool_never_raises():
    """Shutting down a pool whose workers died must stay silent.

    ``close()`` runs from ``finally`` blocks and ``__exit__`` — an exception
    there would mask the original error that broke the pool.
    """
    from repro.resilience import FaultPlan, FaultRule

    backend = get_backend("process", max_workers=2)
    plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                backends=("process",))])
    with plan.installed():
        with pytest.raises(Exception):
            backend.map(_square, [1, 2, 3, 4])
    backend.close()  # pool is broken: close still must not raise
    backend.close()
    # And the backend recovers: a fresh pool serves the next map.
    assert backend.map(_square, [5]).results == [25]
    backend.close()


def test_keyboard_interrupt_mid_map_leaves_backend_closable():
    """A ^C between submissions must not wedge or raise out of cleanup."""
    backend = get_backend("thread", max_workers=2)

    calls = []

    def interrupting(x):
        calls.append(x)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return x

    with pytest.raises(KeyboardInterrupt):
        backend.map(interrupting, list(range(6)))
    backend.close()
    backend.close()
    assert backend.map(_square, [3]).results == [9]
    backend.close()


def test_pool_del_never_raises():
    backend = get_backend("thread", max_workers=1)
    backend.map(_square, [1])
    backend.__del__()  # live pool: shutdown(wait=False)
    backend.__del__()  # already-released pool: no-op
    closed = get_backend("thread", max_workers=1)
    closed.close()
    closed.__del__()


def test_compute_cache_invalidate_racing_eviction_accounting():
    """invalidate() racing LRU eviction never corrupts byte accounting.

    A tiny cache forces evictions on almost every insert while another
    thread invalidates fingerprints; whatever interleaving occurs, the
    resident byte total must equal the sum of the surviving entries' sizes
    and never go negative.
    """
    cache = ComputeCache(max_items=4, max_bytes=1 << 16)
    stop = threading.Event()
    errors = []

    def inserter(worker):
        try:
            step = 0
            while not stop.is_set():
                fingerprint = f"fp{(worker * 7 + step) % 5}"
                cache.get_or_compute(
                    f"norm:sym:{step % 13}:float64:{fingerprint}",
                    lambda: np.zeros(8))
                step += 1
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    def invalidator():
        try:
            step = 0
            while not stop.is_set():
                cache.invalidate(f"fp{step % 5}")
                assert cache.total_bytes >= 0
                step += 1
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [threading.Thread(target=inserter, args=(i,)) for i in range(3)]
    threads.append(threading.Thread(target=invalidator))
    for thread in threads:
        thread.start()
    time.sleep(0.4)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    assert errors == []
    stats = cache.stats()
    assert cache.total_bytes >= 0
    assert cache.total_bytes == sum(cache._nbytes.values())
    assert stats["entries"] == len(cache._nbytes)
    assert stats["entries"] <= 4
