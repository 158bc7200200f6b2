"""Each of the benchmark's checks accepts a right output and rejects a wrong one.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import checks, tracing  # noqa: E402
from perfbench.workloads import ServingRecord, _check_served, challenge_input  # noqa: E402
from repro import (AutoHEnsGNN, AutoHEnsGNNConfig, FittedEnsemble,  # noqa: E402
                   load_dataset)
from repro.core.adaptive import adaptive_beta  # noqa: E402
from repro.nn import GraphTensors  # noqa: E402
from repro.serve import BatchScorer  # noqa: E402
from repro.serve.streaming import StreamingScorer  # noqa: E402
from repro.tasks.trainer import TrainConfig  # noqa: E402

rejects = pytest.raises(checks.CheckError)


@pytest.fixture(scope="module")
def small_fit():
    graph, hidden = challenge_input(load_dataset("cora", scale=0.2, seed=3))
    config = AutoHEnsGNNConfig(pool_size=2, ensemble_size=2, max_layers=2, search_epochs=10,
                               train=TrainConfig(lr=0.02, max_epochs=15, patience=5),
                               bagging_splits=2)
    fitted = AutoHEnsGNN(config).fit(graph, pool=["gcn", "sign"])
    return graph, hidden, fitted


def _splits(fitted, graph, beta):
    data = GraphTensors.from_graph(graph)
    return [(beta, [gse.predict_proba(data) for gse in split.ensembles])
            for split in fitted.ensembles]


# ----------------------------------------------------------------------
# Probabilities and β
# ----------------------------------------------------------------------
def test_probabilities_accept_the_fit(small_fit):
    graph, _, fitted = small_fit
    checks.check_probabilities(fitted.fit_report.probabilities, graph.num_nodes,
                               graph.num_classes)


@pytest.mark.parametrize("damage", ["drop_row", "nan", "negative", "unnormalised"])
def test_probabilities_reject_damage(small_fit, damage):
    graph, _, fitted = small_fit
    probabilities = fitted.fit_report.probabilities.copy()
    if damage == "drop_row":
        probabilities = probabilities[1:]
    elif damage == "nan":
        probabilities[5, 0] = np.nan
    elif damage == "negative":
        probabilities[5, :2] += [-0.1, 0.1]
    else:
        probabilities[5] *= 1.01
    with rejects:
        checks.check_probabilities(probabilities, graph.num_nodes, graph.num_classes)


def test_beta_accepts_the_fit(small_fit):
    _, _, fitted = small_fit
    report = fitted.fit_report
    split_pools = [[gse.spec_name for gse in split.ensembles] for split in fitted.ensembles]
    checks.check_beta(report.beta, report.pool, split_pools)


@pytest.mark.parametrize("damage", ["perturbed", "negative", "short", "split_pool"])
def test_beta_rejects_damage(small_fit, damage):
    _, _, fitted = small_fit
    report = fitted.fit_report
    beta = report.beta.copy()
    split_pools = [[gse.spec_name for gse in split.ensembles] for split in fitted.ensembles]
    if damage == "perturbed":
        beta[0] += 1e-3
    elif damage == "negative":
        beta = np.array([1.5, -0.5])
    elif damage == "short":
        beta = np.array([1.0])
    else:
        split_pools[1] = split_pools[1][::-1]
    with rejects:
        checks.check_beta(beta, report.pool, split_pools)


# ----------------------------------------------------------------------
# Adaptive search: Eqn 8 and the first argmax
# ----------------------------------------------------------------------
SCORES = {"a": [0.80, 0.90, 0.90, 0.70], "b": [0.85, 0.60, 0.85, 0.50], "c": [0.5, 0.6, 0.7, 0.8]}


def _eqn8(num_edges=4000, num_nodes=1000):
    return checks.eqn8_beta([max(SCORES[name]) for name in "abc"], num_edges, num_nodes)


def test_eqn8_matches_the_library_on_random_accuracies():
    rng = np.random.default_rng(0)
    for _ in range(20):
        accuracies = rng.uniform(0.3, 1.0, size=int(rng.integers(1, 6)))
        edges, nodes = int(rng.integers(10, 10**6)), int(rng.integers(10, 10**4))
        np.testing.assert_allclose(checks.eqn8_beta(accuracies, edges, nodes),
                                   adaptive_beta(accuracies, edges, nodes), rtol=1e-9)


def test_adaptive_search_accepts_first_argmax_and_eqn8():
    checks.check_adaptive_search(_eqn8(), {"a": 2, "b": 1, "c": 4}, SCORES, "abc", 4000, 1000)


def test_adaptive_search_rejects_a_later_tied_depth():
    with rejects:
        checks.check_adaptive_search(_eqn8(), {"a": 3, "b": 1, "c": 4}, SCORES, "abc", 4000, 1000)


def test_adaptive_search_rejects_a_perturbed_beta():
    beta = _eqn8()
    beta = (beta + np.array([0.01, 0.0, 0.0])) / (1.01)
    with rejects:
        checks.check_adaptive_search(beta, {"a": 2, "b": 1, "c": 4}, SCORES, "abc", 4000, 1000)


def test_adaptive_search_rejects_beta_for_another_degree():
    # Same accuracies, a graph ten times denser: τ changes, so must β.
    with rejects:
        checks.check_adaptive_search(_eqn8(40000, 1000), {"a": 2, "b": 1, "c": 4},
                                     SCORES, "abc", 4000, 1000)


# ----------------------------------------------------------------------
# Mixture, round trip and accuracy
# ----------------------------------------------------------------------
def test_mixture_accepts_the_fit(small_fit):
    graph, _, fitted = small_fit
    report = fitted.fit_report
    checks.check_mixture(report.probabilities, _splits(fitted, graph, report.beta))


def test_mixture_rejects_a_perturbed_beta(small_fit):
    graph, _, fitted = small_fit
    report = fitted.fit_report
    beta = report.beta[::-1] if not np.allclose(report.beta, 0.5) else np.array([0.6, 0.4])
    with rejects:
        checks.check_mixture(report.probabilities, _splits(fitted, graph, beta))


def test_mixture_rejects_one_split_only(small_fit):
    graph, _, fitted = small_fit
    report = fitted.fit_report
    with rejects:
        checks.check_mixture(report.probabilities, _splits(fitted, graph, report.beta)[:1])


def test_round_trip_is_bit_equal_and_a_nudge_is_not(small_fit, tmp_path):
    graph, _, fitted = small_fit
    expected = fitted.fit_report.probabilities
    loaded = FittedEnsemble.load(fitted.save(str(tmp_path / "artifact")))
    checks.check_bit_equal(loaded.predict_proba(graph), expected, "round trip")
    nudged = expected.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], 1.0)
    with rejects:
        checks.check_bit_equal(nudged, expected, "round trip")
    with rejects:
        checks.check_bit_equal(expected.astype(np.float32), expected, "round trip")


def test_nearest_centroid_separates_separable_classes():
    features = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [0.0, 0.1], [5.0, 5.1]])
    labels = np.array([0, 0, 1, 1, -1, -1])
    accuracy = checks.nearest_centroid_accuracy(features, labels, np.arange(4),
                                                np.array([4, 5]), np.array([0, 1]))
    assert accuracy == 1.0


def test_two_hop_features_average_over_neighbours():
    # A path 0-1-2: the operator is symmetric-normalised A+I, applied twice.
    edge_index = np.array([[0, 1, 1, 2], [1, 0, 2, 1]])
    features = np.eye(3)
    adjacency = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
    scale = 1.0 / np.sqrt(adjacency.sum(axis=1))
    operator = scale[:, None] * adjacency * scale[None, :]
    np.testing.assert_allclose(checks.two_hop_features(edge_index, features),
                               operator @ operator, rtol=1e-12)


@pytest.mark.parametrize("accuracy", [0.60, 0.75])
def test_accuracy_rejects_weak_fits(accuracy):
    # 0.60 loses to the feature-only baseline; 0.75 trails 2-hop by > margin.
    with rejects:
        checks.check_accuracy(accuracy, feature_only=0.65, two_hop=0.90)
    checks.check_accuracy(0.88, feature_only=0.65, two_hop=0.90)


# ----------------------------------------------------------------------
# Trace totals
# ----------------------------------------------------------------------
def test_trainer_calls_of_the_default_adaptive_fit_are_189():
    assert checks.expected_trainer_calls(28, 6, 3, 4, 3, 1, adaptive=True) == 189
    assert checks.expected_trainer_calls(28, 6, 3, 4, 3, 1, adaptive=False) == 177


def test_trace_counts_reject_a_missing_training():
    checks.check_trace_counts({"trainer.calls": 189}, {"trainer.calls": 189})
    with rejects:
        checks.check_trace_counts({"trainer.calls": 188}, {"trainer.calls": 189})


def test_trace_counts_reject_an_absent_metric():
    with rejects:
        checks.check_trace_counts({}, {"trainer.calls": 189})


_ZERO_COUNTERS = {"traces": 0, "replays": 0, "bailouts": 0, "cache_hits": 0,
                  "cache_misses": 0}


def _traced() -> tracing.Tracer:
    """A search whose map ran two trainings, one of which failed."""
    tracer = tracing.Tracer()
    with tracer.span("search.adaptive"):
        with tracer.span("backend.map", process=False, tasks=2):
            with tracer.span("trainer.train", epochs=3, engine_s=0.1, captured=True):
                pass
            with tracer.span("trainer.train", error=True):
                pass
    with tracer.span("backend.map", process=False, tasks=1):
        pass
    return tracer


def test_search_trainings_count_only_the_trainings_that_ran():
    layers = tracing.layer_metrics(_traced(), _ZERO_COUNTERS, 0, None, 100.0)
    assert layers["search.trainings"] == 1


def test_every_declared_per_layer_metric_is_measured():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {entry["name"] for entry in json.load(handle)["per_layer"]}
    layers = tracing.layer_metrics(_traced(), _ZERO_COUNTERS, 0, None, 100.0)
    assert set(layers) == declared


def test_worker_records_are_merged_once(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "_worker_dir", str(tmp_path))
    worker = tracing.Tracer()
    with worker.span("trainer.train", epochs=4, engine_s=0.2, captured=True):
        pass
    counters = dict(_ZERO_COUNTERS, replays=3)
    monkeypatch.setattr(tracing, "read_counters", lambda: dict(counters, resident_bytes=2**20))
    tracing._write_worker(worker, dict(_ZERO_COUNTERS, resident_bytes=0))
    parent = _traced()
    totals = tracing.collect_workers(parent)
    assert totals["replays"] == 3 and totals["resident_bytes"] == 2**20
    layers = tracing.layer_metrics(parent, totals, 0, None, 100.0)
    assert layers["trainer.calls"] == 3 and layers["trainer.epochs"] == 7
    assert layers["search.trainings"] == 1  # the worker's span has no parent here
    assert tracing.collect_workers(parent)["replays"] == 0  # records are consumed


def test_stage_times_reject_a_disagreement():
    checks.check_stage_times({"proxy.s": 19.2}, {"proxy.s": 19.0})
    with rejects:
        checks.check_stage_times({"proxy.s": 17.0}, {"proxy.s": 19.0})


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def test_read_rejects_a_dropped_row_and_other_nodes():
    nodes = np.array([3, 1, 4])
    probabilities = np.full((3, 2), 0.5)
    checks.check_read(probabilities, nodes, nodes, 2)
    with rejects:
        checks.check_read(probabilities[:2], nodes, nodes, 2)
    with rejects:
        checks.check_read(probabilities, np.array([1, 3, 4]), nodes, 2)


def test_node_count_rejects_a_lost_node():
    checks.check_node_count(1003, 1000, 3)
    with rejects:
        checks.check_node_count(1002, 1000, 3)


def test_streamed_scores_match_the_rebuild_and_a_stale_version_does_not(small_fit):
    graph, _, fitted = small_fit
    scorer = StreamingScorer(fitted, graph)
    batch = BatchScorer(fitted)
    record = ServingRecord(graph, np.random.default_rng(0))
    source, destination = record.drop_edge()
    scorer.remove_edges(np.array([[source], [destination]]))
    node, row = record.new_node()
    scorer.add_nodes(row[None, :])
    source, destination = record.new_edge(node=node)
    scorer.add_edges(np.array([[source], [destination]]))
    stale = scorer.score().probabilities
    reference = batch.score(record.graph()).probabilities
    checks.check_bit_equal(stale, reference, "streamed scores")
    for _ in range(5):  # enough edges that some score row must move
        source, destination = record.new_edge()
        scorer.add_edges(np.array([[source], [destination]]))
    fresh = scorer.score().probabilities
    reference = batch.score(record.graph()).probabilities
    checks.check_bit_equal(fresh, reference, "streamed scores")
    with rejects:
        checks.check_bit_equal(stale, reference, "streamed scores")
    checks.check_node_count(scorer.graph.num_nodes, record.initial_nodes, 1)
    scorer.close()
    batch.close()


def test_served_check_accepts_the_fit_and_rejects_other_scores(small_fit):
    graph, _, fitted = small_fit
    served = _check_served(fitted, graph, fitted.fit_report.probabilities)
    assert served["streaming"]["structure_refreshes"] >= 1
    nudged = fitted.fit_report.probabilities.copy()
    nudged[0] = nudged[0][::-1]
    with rejects:
        _check_served(fitted, graph, nudged)
