"""The benchmark's three workloads.

Each workload function takes ``(seed, seconds, trace, out_dir)`` and returns
a :class:`Outcome`.  Inputs come from ``seed`` alone; the timed region
carries no wrappers unless ``trace`` is set (see :mod:`perfbench.tracing`).
Its one end-to-end metric besides ``setup_s`` is ``op_ms``: the median
``fit`` call on a fit workload, and a median round's request time per
request on the serving workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import checks, tracing

#: Single-node reads after each serving write: the pattern of
#: ``streaming_serve_microbenchmark`` in ``benchmarks/harness.py``, one graph
#: mutation every ``queries_per_mutation=4`` single-node queries.
READS_PER_WRITE = 4
#: Requests of one serving round: four writes (edge add, feature update,
#: edge removal, node add), each followed by its reads, then one rescore.
ROUND_REQUESTS = 4 * (1 + READS_PER_WRITE) + 1
#: ``kddcup-C`` at half its analogue's size (800 nodes, average degree 30), so
#: that a run holds several fits.
KDDC_SCALE = 0.5
#: Proxy evaluation over the whole zoo kept ``sgc`` and ``sgc-3`` on every
#: ``kddcup-C`` graph tried; the third place varied, and when it went to
#: ``gat`` or ``rgat`` the fit took three times as long.  ``gcn`` is the
#: third place the full-size graphs gave most often.
KDDC_CANDIDATES = ("gcn", "sgc", "sgc-3")
#: Serving rounds after which streamed scores are compared with a rebuild.
CHECKPOINT_ROUNDS = frozenset({0, 7, 31, 127, 511})


@dataclass
class Outcome:
    setup_end: float                      # time.perf_counter() when set-up ended
    metrics: Dict[str, float]             # end-to-end metrics except setup_s
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped children.

    Pool workers are reaped when ``fit`` closes its backend, so the
    children's figure covers them; ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def challenge_input(graph):
    """The graph as a challenge entrant sees it: test labels hidden.

    Returns ``(input_graph, hidden_labels)``; the input keeps every other
    label, so the program can still train and validate on them.
    """
    hidden = np.asarray(graph.metadata.get("hidden_labels", graph.labels)).copy()
    labels = graph.labels.copy()
    labels[graph.mask_indices("test")] = -1
    metadata = {key: value for key, value in graph.metadata.items() if key != "hidden_labels"}
    return dataclasses.replace(graph, labels=labels, metadata=metadata), hidden


# ----------------------------------------------------------------------
# Fit workloads
# ----------------------------------------------------------------------
def fit_input_seed(seed: int, index: int) -> int:
    """Seed of the graph that the ``index``-th fit of a run is given."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _fit_workload(dataset: str, scale: float, make_config: Callable, adaptive: bool):
    """A fit workload: one ``fit`` per operation, each on a fresh graph."""

    def run(seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
        from repro import AutoHEnsGNN, load_dataset
        from repro.parallel.cache import compute_cache

        def make_input(index: int):
            return challenge_input(load_dataset(dataset, seed=fit_input_seed(seed, index),
                                                scale=scale))

        config = make_config()
        next_input = make_input(0)
        setup_end = time.perf_counter()
        fit_seconds: List[float] = []
        fits = []  # (graph, hidden labels, fitted ensemble) of every fit that ended
        attempted = failed = 0
        while True:
            graph, hidden = next_input
            compute_cache().clear()  # every fit pays the cold cache, as a user's does
            counters_before = tracing.read_counters()
            attempted += 1
            start = time.perf_counter()
            try:
                fitted = AutoHEnsGNN(config).fit(graph)
            except Exception:  # counted, reported, and the run stops
                failed += 1
                traceback.print_exc()
                break
            fit_seconds.append(time.perf_counter() - start)
            fits.append((graph, hidden, fitted))
            report = fitted.fit_report
            print(f"fit {attempted}: {fit_seconds[-1]:.2f} s, pool {report.pool}, depths "
                  f"{report.chosen_layers}, stages proxy {report.proxy_time:.2f} s, search "
                  f"{report.search_time:.2f} s, re-train {report.train_time:.2f} s",
                  file=sys.stderr)
            # A traced run fits once: its per-layer figures describe one fit.
            if trace or time.perf_counter() - setup_end >= seconds:
                break
            next_input = make_input(len(fits))
        outcome = Outcome(setup_end, {}, attempted, failed)
        if not fits:
            outcome.problems.append("no fit completed")
            return outcome
        outcome.metrics["op_ms"] = 1000.0 * statistics.median(fit_seconds)
        for index, (graph, hidden, fitted) in enumerate(fits):
            problems, served = _check_fit(fitted, graph, hidden, adaptive,
                                          os.path.join(out_dir, f"fit-{index}"))
            outcome.problems.extend(problems)
        rss = peak_rss_mb()
        print(f"peak RSS {rss:.1f} MB", file=sys.stderr)
        if trace:
            # The checks above ran traced too, so the serving layers show.
            tracing.TRACER.paused = True
            workers = tracing.collect_workers(tracing.TRACER)
            counters = tracing.counter_delta(counters_before, tracing.read_counters())
            counters = {key: value + workers[key] for key, value in counters.items()}
            resident = compute_cache().stats()["resident_bytes"] + workers["resident_bytes"]
            outcome.layers = tracing.layer_metrics(tracing.TRACER, counters, resident,
                                                   served, rss)
            seconds = tracing.candidate_seconds(tracing.TRACER)
            print("proxy seconds per candidate: " + ", ".join(
                f"{name} {value:.3f}" for name, value in sorted(seconds.items())),
                file=sys.stderr)
            outcome.problems.extend(_check_trace(outcome.layers, fits[0][2].fit_report,
                                                 config, adaptive))
        return outcome

    return run


def _cora_adaptive_config():
    from repro import AutoHEnsGNNConfig

    return AutoHEnsGNNConfig(time_budget=None)


def _kddc_gradient_config():
    from repro import AutoHEnsGNNConfig, SearchMethod

    return AutoHEnsGNNConfig(candidate_models=KDDC_CANDIDATES, pool_size=len(KDDC_CANDIDATES),
                             search_method=SearchMethod.GRADIENT, time_budget=None,
                             backend="process", max_workers=1)


def _collect(problems: List[str], check: Callable, *args) -> None:
    try:
        check(*args)
    except checks.CheckError as error:
        problems.append(f"{check.__name__}: {error}")


def _check_fit(fitted, graph, hidden, adaptive: bool, out_dir: str) -> tuple:
    """Every check of one fit; returns the problems and the serving check's
    ``StreamingScorer.describe()``."""
    from repro import FittedEnsemble
    from repro.nn import GraphTensors

    report = fitted.fit_report
    problems: List[str] = []
    _collect(problems, checks.check_probabilities, report.probabilities,
             graph.num_nodes, graph.num_classes)
    split_pools = [[gse.spec_name for gse in split.ensembles] for split in fitted.ensembles]
    _collect(problems, checks.check_beta, report.beta, report.pool, split_pools)
    if adaptive:
        _collect(problems, checks.check_adaptive_search, report.beta, report.chosen_layers,
                 report.details["layer_scores"], report.pool, graph.num_edges, graph.num_nodes)
    data = GraphTensors.from_graph(graph)
    splits = [(report.beta, [gse.predict_proba(data) for gse in split.ensembles])
              for split in fitted.ensembles]
    _collect(problems, checks.check_mixture, report.probabilities, splits)
    loaded = FittedEnsemble.load(fitted.save(os.path.join(out_dir, "artifact")))
    _collect(problems, checks.check_bit_equal, loaded.predict_proba(graph),
             report.probabilities, "save/load round trip")
    served: dict = {}
    try:
        served = _check_served(loaded, graph, report.probabilities)
    except checks.CheckError as error:
        problems.append(f"_check_served: {error}")

    labelled = np.flatnonzero(graph.labels >= 0)
    test_index = graph.mask_indices("test")
    test_accuracy = float(
        (report.probabilities[test_index].argmax(axis=1) == hidden[test_index]).mean())
    feature_only = checks.nearest_centroid_accuracy(
        graph.features, graph.labels, labelled, test_index, hidden[test_index])
    two_hop = checks.nearest_centroid_accuracy(
        checks.two_hop_features(graph.edge_index, graph.features), graph.labels,
        labelled, test_index, hidden[test_index])
    print(f"baselines: feature-only {feature_only:.4f}, 2-hop {two_hop:.4f}, "
          f"fit {test_accuracy:.4f}", file=sys.stderr)
    _collect(problems, checks.check_accuracy, test_accuracy, feature_only, two_hop)
    return problems, served


def _check_served(artifact, graph, probabilities: np.ndarray) -> dict:
    """The fitted artifact serves the fit's scores, and stays exact after writes.

    ``BatchScorer`` on the fit's graph must give the fit's probabilities bit
    for bit.  A ``StreamingScorer`` then takes one edge add, one feature
    update and one edge removal, drawn from a fixed generator, and its scores
    must equal ``BatchScorer`` on the graph rebuilt from the benchmark's own
    record of those writes.
    """
    from repro.serve import BatchScorer
    from repro.serve.streaming import StreamingScorer

    batch = BatchScorer(artifact)
    scorer = StreamingScorer(artifact, graph)
    try:
        checks.check_bit_equal(batch.score(graph).probabilities, probabilities,
                               "BatchScorer on the fit's graph")
        record = ServingRecord(graph, np.random.default_rng(0))
        source, destination = record.new_edge()
        scorer.add_edges(np.array([[source], [destination]]))
        node, row = record.feature_update()
        scorer.update_features(np.array([node]), row[None, :])
        source, destination = record.drop_edge()
        scorer.remove_edges(np.array([[source], [destination]]))
        checks.check_bit_equal(scorer.score().probabilities,
                               batch.score(record.graph()).probabilities,
                               "streamed scores after writes vs rebuilt graph")
        return scorer.describe()
    finally:
        scorer.close()
        batch.close()


def _check_trace(layers: Dict[str, float], report, config, adaptive: bool) -> List[str]:
    candidates = len(config.candidate_models or tracing.CANDIDATES)
    expected = {
        "trainer.calls": checks.expected_trainer_calls(
            candidates, config.proxy.bagging_rounds, config.pool_size, config.max_layers,
            config.ensemble_size, config.bagging_splits, adaptive),
        "proxy.runs": candidates * config.proxy.bagging_rounds,
        # Gradient search co-trains the relaxed ensemble without the trainer.
        "search.trainings": config.pool_size * config.max_layers if adaptive else 0,
        "retrain.members": config.pool_size * config.ensemble_size * config.bagging_splits,
    }
    problems: List[str] = []
    _collect(problems, checks.check_trace_counts, layers, expected)
    _collect(problems, checks.check_stage_times, layers, {
        "proxy.s": report.proxy_time, "search.s": report.search_time,
        "retrain.s": report.train_time})
    return problems


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
class ServingRecord:
    """The benchmark's own record of the serving graph, kept from its writes."""

    def __init__(self, graph, rng: np.random.Generator) -> None:
        self.rng = rng
        self.num_nodes = graph.num_nodes
        self.initial_nodes = graph.num_nodes
        self.features = np.array(graph.features, dtype=np.float64)
        self.num_classes = graph.num_classes
        self.edges: List[tuple] = []
        self.position: Dict[tuple, int] = {}
        for source, destination in graph.edge_index.T.tolist():
            if source < destination:
                self._insert((source, destination))
        if 2 * len(self.edges) != graph.num_edges:
            raise ValueError("serving input must be undirected without duplicate edges")

    def _insert(self, pair: tuple) -> None:
        self.position[pair] = len(self.edges)
        self.edges.append(pair)

    def new_edge(self, node: Optional[int] = None) -> tuple:
        while True:
            source = int(self.rng.integers(self.num_nodes)) if node is None else node
            destination = int(self.rng.integers(self.num_nodes))
            pair = (min(source, destination), max(source, destination))
            if source != destination and pair not in self.position:
                self._insert(pair)
                return pair

    def drop_edge(self) -> tuple:
        index = int(self.rng.integers(len(self.edges)))
        pair, last = self.edges[index], self.edges[-1]
        self.edges[index] = last
        self.position[last] = index
        self.edges.pop()
        del self.position[pair]
        return pair

    def feature_update(self) -> tuple:
        node = int(self.rng.integers(self.num_nodes))
        self.features[node] = self.rng.standard_normal(self.features.shape[1])
        return node, self.features[node].copy()

    def new_node(self) -> tuple:
        if self.num_nodes == self.features.shape[0]:
            self.features = np.concatenate([self.features, np.empty_like(self.features)])
        node, self.num_nodes = self.num_nodes, self.num_nodes + 1
        self.features[node] = self.rng.standard_normal(self.features.shape[1])
        return node, self.features[node].copy()

    def graph(self):
        from repro import Graph

        return Graph(edge_index=checks.rebuild_graph_arrays(self.position, self.num_nodes),
                     features=self.features[:self.num_nodes].copy(),
                     labels=np.full(self.num_nodes, -1), directed=False,
                     num_classes=self.num_classes, name="serving-rebuild")


def _serving_config():
    from repro import AutoHEnsGNNConfig
    from repro.core.config import ProxyConfig
    from repro.tasks.trainer import TrainConfig

    # Proxy evaluation over the two candidates keeps both, so the pool is
    # always gcn + sign; it runs so that the set-up fit covers every stage.
    return AutoHEnsGNNConfig(candidate_models=("gcn", "sign"), pool_size=2,
                             proxy=ProxyConfig(bagging_rounds=2), ensemble_size=2,
                             max_layers=2, search_epochs=30,
                             train=TrainConfig(lr=0.02, max_epochs=60, patience=20),
                             time_budget=None)


def serve_stream_mixed(seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    from repro import AutoHEnsGNN, FittedEnsemble, load_dataset
    from repro.parallel.cache import compute_cache
    from repro.serve import BatchScorer
    from repro.serve.streaming import StreamingScorer

    counters_before = tracing.read_counters()
    # One served model for every seed: it is fitted on the seed-0 graph, so
    # its depths (and so the cost of a forward pass) do not change with the
    # seed.  The seed draws the serving graph, the writes and the reads.
    model_graph, _ = challenge_input(load_dataset("cora", seed=0))
    fitted = AutoHEnsGNN(_serving_config()).fit(model_graph)
    graph, _ = challenge_input(load_dataset("cora", seed=seed))
    artifact = FittedEnsemble.load(fitted.save(os.path.join(out_dir, "artifact")))
    scorer = StreamingScorer(artifact, graph)
    batch = BatchScorer(artifact)
    record = ServingRecord(graph, np.random.default_rng(seed + 1))
    tracer = tracing.TRACER
    problems: List[str] = []
    reads: List[float] = []
    fresh_reads: List[float] = []
    writes: List[float] = []
    rescores: List[float] = []
    failed = 0
    spent = 0.0  # seconds of every request that returned
    gc.collect()  # start the timed region without the set-up's garbage
    setup_end = time.perf_counter()

    def timed(kind: str, into: List[float], operation: Callable):
        nonlocal failed, spent
        with tracer.span(kind) if trace else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                value = operation()
            except Exception:  # an operation that fails is counted
                failed += 1
                traceback.print_exc()
                return None
            into.append(time.perf_counter() - start)
            spent += into[-1]
        return value

    def read(fresh: bool) -> None:
        nodes = record.rng.integers(record.num_nodes, size=1)
        result = timed("request.read", reads, lambda: scorer.score(nodes))
        if result is not None:
            if fresh:
                fresh_reads.append(reads[-1])
            checks.check_read(result.probabilities, result.nodes, nodes, record.num_classes)

    def write_then_read(operation: Callable):
        value = timed("request.write", writes, operation)
        for index in range(READS_PER_WRITE):
            read(fresh=index == 0)
        return value

    def one_round() -> None:
        source, destination = record.new_edge()
        write_then_read(lambda: scorer.add_edges(np.array([[source], [destination]])))
        node, row = record.feature_update()
        write_then_read(lambda: scorer.update_features(np.array([node]), row[None, :]))
        source, destination = record.drop_edge()
        write_then_read(lambda: scorer.remove_edges(np.array([[source], [destination]])))
        new_node, new_row = record.new_node()
        added = write_then_read(lambda: scorer.add_nodes(new_row[None, :]))
        if added is not None and int(added[0]) != new_node:
            raise checks.CheckError(f"add_nodes returned id {added[0]}, expected {new_node}")
        timed("request.rescore", rescores, lambda: batch.score(scorer.graph.snapshot()))

    def checkpoint() -> None:
        streamed = scorer.score().probabilities
        reference = batch.score(record.graph()).probabilities
        checks.check_bit_equal(streamed, reference, "streamed scores vs rebuilt graph")
        checks.check_node_count(scorer.graph.num_nodes, record.initial_nodes,
                                record.num_nodes - record.initial_nodes)

    # Seconds that each round's requests took, summed over the requests.
    round_seconds: List[float] = []
    try:
        while True:
            before = spent
            one_round()
            round_seconds.append(spent - before)
            if len(round_seconds) - 1 in CHECKPOINT_ROUNDS:
                tracer.paused = True
                checkpoint()
                tracer.paused = False
            if time.perf_counter() - setup_end >= seconds:
                break
        tracer.paused = True
        checkpoint()
    except checks.CheckError as error:
        problems.append(str(error))
    tracer.paused = True
    requests = len(reads) + len(writes) + len(rescores) + failed
    metrics = {}
    if round_seconds:
        # Every round issues the same requests; the median round is steady
        # under the host's CPU steal, which a mean over the run is not.
        metrics["op_ms"] = 1000.0 * statistics.median(round_seconds) / ROUND_REQUESTS
    parts = []
    for name, values in (("read", reads), ("fresh read", fresh_reads), ("write", writes),
                         ("rescore", rescores)):
        if values:
            parts.append(f"{name} p50 {1000.0 * statistics.median(values):.4f} ms")
    if len(reads) >= 1000:  # at least ten reads beyond p99
        parts.append(f"read p99 {1000.0 * statistics.quantiles(reads, n=100)[98]:.3f} ms")
    rss = peak_rss_mb()
    print(f"serving: {len(round_seconds)} rounds, {requests} requests in "
          f"{time.perf_counter() - setup_end:.2f} s; {'; '.join(parts)}; "
          f"peak RSS {rss:.1f} MB", file=sys.stderr)
    outcome = Outcome(setup_end, metrics, requests, failed, problems)
    if trace:
        outcome.layers = tracing.layer_metrics(
            tracer, tracing.counter_delta(counters_before, tracing.read_counters()),
            compute_cache().stats()["resident_bytes"], scorer.describe(), rss)
    scorer.close()
    batch.close()
    return outcome


WORKLOADS = {
    "fit-cora-adaptive": _fit_workload("cora", 1.0, _cora_adaptive_config, adaptive=True),
    "fit-kddc-gradient-process": _fit_workload("kddcup-C", KDDC_SCALE, _kddc_gradient_config,
                                               adaptive=False),
    "serve-stream-mixed": serve_stream_mixed,
}
