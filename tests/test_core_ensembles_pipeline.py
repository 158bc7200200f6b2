"""Tests for the ensemble baselines, bagging, the full pipeline and the AutoML layer."""

import os

import numpy as np
import pytest

from repro.automl import AutoGraphRunner, BudgetExceeded, DEFAULT_GRID, HyperparameterGrid, TimeBudget
from repro.automl.runner import competition_config
from repro.core import (
    AutoHEnsGNN,
    AutoHEnsGNNConfig,
    BaggingEnsemble,
    DEnsemble,
    GoyalGreedyEnsemble,
    LEnsemble,
    RandomEnsemble,
    SearchMethod,
    train_single_models,
)
from repro.core.config import ProxyConfig
from repro.datasets import save_autograph_directory
from repro.nn import GraphTensors, build_model
from repro.tasks.metrics import accuracy
from repro.tasks.trainer import NodeClassificationTrainer, TrainConfig

FAST_TRAIN = TrainConfig(lr=0.05, max_epochs=20, patience=6)


@pytest.fixture(scope="module")
def pool_outcome(tiny_split_graph, tiny_data):
    return train_single_models(
        ["gcn", "sgc", "mlp"], tiny_data, tiny_split_graph.labels,
        tiny_split_graph.mask_indices("train"), tiny_split_graph.mask_indices("val"),
        num_classes=tiny_split_graph.num_classes, hidden=16,
        train_config=FAST_TRAIN, replicas=2, seed=0)


class TestSingleModelPool:
    def test_structure(self, pool_outcome):
        assert set(pool_outcome) == {"gcn", "sgc", "mlp"}
        for entry in pool_outcome.values():
            assert len(entry["models"]) == 2
            assert len(entry["probas"]) == 2
            assert all(p.shape[1] > 1 for p in entry["probas"])

    def test_validation_scores_recorded(self, pool_outcome):
        for entry in pool_outcome.values():
            assert all(0 <= score <= 1 for score in entry["val_scores"])


class TestEnsembleBaselines:
    def _build(self, cls, pool_outcome):
        ensemble = cls()
        for name, entry in pool_outcome.items():
            for proba in entry["probas"]:
                ensemble.add(name, proba)
        return ensemble

    def test_d_ensemble_averages(self, pool_outcome, tiny_split_graph):
        ensemble = self._build(DEnsemble, pool_outcome)
        test_idx = tiny_split_graph.mask_indices("test")
        proba = ensemble.predict_proba()
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6)
        assert ensemble.evaluate(tiny_split_graph.labels, test_idx) > \
            1.0 / tiny_split_graph.num_classes

    def test_empty_ensemble_raises(self):
        with pytest.raises(RuntimeError):
            DEnsemble().predict_proba()

    def test_l_ensemble_learns_simplex_weights(self, pool_outcome, tiny_split_graph):
        ensemble = self._build(LEnsemble, pool_outcome)
        weights = ensemble.fit_weights(tiny_split_graph.labels,
                                       tiny_split_graph.mask_indices("val"),
                                       lr=0.1, epochs=60)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= 0)

    def test_l_ensemble_downweights_weak_models(self, pool_outcome, tiny_split_graph):
        ensemble = self._build(LEnsemble, pool_outcome)
        ensemble.fit_weights(tiny_split_graph.labels, tiny_split_graph.mask_indices("val"),
                             lr=0.1, epochs=150)
        weights_by_name = {}
        for name, weight in zip(ensemble.names, ensemble.weights):
            weights_by_name.setdefault(name, 0.0)
            weights_by_name[name] += weight
        assert weights_by_name["mlp"] <= max(weights_by_name.values())

    def test_goyal_greedy_selects_subset(self, pool_outcome, tiny_split_graph):
        ensemble = self._build(GoyalGreedyEnsemble, pool_outcome)
        selected = ensemble.fit_greedy(tiny_split_graph.labels,
                                       tiny_split_graph.mask_indices("val"))
        assert 1 <= len(selected) <= len(ensemble.probas)
        assert ensemble.weights is not None
        val_idx = tiny_split_graph.mask_indices("val")
        greedy_score = ensemble.evaluate(tiny_split_graph.labels, val_idx)
        single_scores = [accuracy(proba[val_idx], tiny_split_graph.labels[val_idx])
                         for proba in ensemble.probas]
        assert greedy_score >= max(single_scores) - 1e-9

    def test_random_ensemble_from_pool(self, pool_outcome, tiny_split_graph):
        ensemble = RandomEnsemble.from_pool(pool_outcome, size=2, seed=0)
        assert len(set(ensemble.names)) == 2
        proba = ensemble.predict_proba()
        assert proba.shape[0] == tiny_split_graph.num_nodes


class TestBagging:
    def test_bagging_averages_splits(self, tiny_split_graph, tiny_data):
        graph = tiny_split_graph

        def fit_predict(split_graph, data, split_index):
            model = build_model("gcn", data.num_features, graph.num_classes, hidden=16,
                                seed=split_index)
            trainer = NodeClassificationTrainer(FAST_TRAIN)
            trainer.train(model, data, split_graph.labels,
                          split_graph.mask_indices("train"), split_graph.mask_indices("val"))
            return model.predict_proba(data)

        bagging = BaggingEnsemble(num_splits=2, seed=0)
        bagging.fit(graph, tiny_data, fit_predict)
        assert len(bagging.probabilities) == 2
        assert len(bagging.split_descriptions) == 2
        proba = bagging.predict_proba()
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6)
        test_idx = graph.mask_indices("test")
        assert bagging.evaluate(graph.labels, test_idx) > 1.0 / graph.num_classes
        assert bagging.predict().shape == (graph.num_nodes,)

    def test_unfitted_bagging_raises(self):
        with pytest.raises(RuntimeError):
            BaggingEnsemble().predict_proba()


def _fast_config(method: SearchMethod) -> AutoHEnsGNNConfig:
    config = AutoHEnsGNNConfig(
        pool_size=2, ensemble_size=2, max_layers=2, search_method=method,
        search_epochs=10, bagging_splits=1, hidden=16, seed=0,
        candidate_models=["gcn", "sgc", "mlp"],
        proxy=ProxyConfig(dataset_fraction=0.5, bagging_rounds=1, hidden_fraction=0.5,
                          max_epochs=15, patience=5),
    )
    config.train = TrainConfig(lr=0.05, max_epochs=25, patience=8)
    return config


class TestPipeline:
    @pytest.fixture(scope="class")
    def adaptive_result(self, tiny_split_graph):
        pipeline = AutoHEnsGNN(_fast_config(SearchMethod.ADAPTIVE))
        return pipeline, pipeline.fit_predict(tiny_split_graph)

    def test_predictions_cover_all_nodes(self, adaptive_result, tiny_split_graph):
        _, result = adaptive_result
        assert result.predictions.shape == (tiny_split_graph.num_nodes,)
        assert result.probabilities.shape == (tiny_split_graph.num_nodes,
                                              tiny_split_graph.num_classes)
        assert np.allclose(result.probabilities.sum(axis=1), 1.0, atol=1e-6)

    def test_pool_selected_automatically(self, adaptive_result):
        _, result = adaptive_result
        assert len(result.pool) == 2
        assert "mlp" not in result.pool
        assert result.proxy_ranking

    def test_accuracy_beats_chance(self, adaptive_result, tiny_split_graph):
        _, result = adaptive_result
        acc = result.test_accuracy(tiny_split_graph.labels,
                                   tiny_split_graph.mask_indices("test"))
        assert acc > 2.0 / tiny_split_graph.num_classes

    def test_timing_breakdown(self, adaptive_result):
        _, result = adaptive_result
        assert result.total_time >= result.proxy_time
        assert result.search_time > 0 and result.train_time > 0

    def test_evaluate_helper(self, adaptive_result, tiny_split_graph):
        pipeline, result = adaptive_result
        acc = pipeline.evaluate(tiny_split_graph, result)
        assert 0 <= acc <= 1

    def test_gradient_pipeline_with_fixed_pool(self, tiny_split_graph):
        pipeline = AutoHEnsGNN(_fast_config(SearchMethod.GRADIENT))
        result = pipeline.fit_predict(tiny_split_graph, pool=["gcn", "sgc"])
        assert result.pool == ["gcn", "sgc"]
        assert result.beta.shape == (2,)
        acc = result.test_accuracy(tiny_split_graph.labels,
                                   tiny_split_graph.mask_indices("test"))
        assert acc > 2.0 / tiny_split_graph.num_classes

    def test_float32_fit_keeps_float32_probabilities(self, tiny_split_graph):
        config = _fast_config(SearchMethod.ADAPTIVE)
        config.compute_dtype = "float32"
        fitted = AutoHEnsGNN(config).fit(tiny_split_graph, pool=["gcn", "sgc"])
        assert fitted.fit_report.probabilities.dtype == np.float32
        assert fitted.predict_proba(tiny_split_graph).dtype == np.float32


class TestAutomlLayer:
    def test_time_budget_tracking(self):
        budget = TimeBudget(1000.0)
        assert budget.remaining() <= 1000.0
        assert not budget.exhausted()
        budget.check("stage-1")
        assert budget.report()["checkpoints"]
        assert budget.has_time_for_another(0.001, 1)

    def test_time_budget_exceeded(self):
        budget = TimeBudget(0.0)
        with pytest.raises(BudgetExceeded):
            budget.check("late stage")

    def test_unlimited_budget(self):
        budget = TimeBudget(None)
        assert budget.remaining() == float("inf")
        assert budget.remaining_fraction() == 1.0
        assert budget.has_time_for_another(100.0, 1)

    def test_hyperparameter_grid_iteration(self):
        grid = HyperparameterGrid(learning_rates=(0.1, 0.01), dropouts=(0.5,),
                                  hidden_sizes=(32, 64))
        combos = list(grid)
        assert len(combos) == len(grid) == 4
        assert {"lr", "dropout", "hidden"} <= set(combos[0])

    def test_grid_scaling(self):
        grid = HyperparameterGrid()
        small = grid.scaled(0.3)
        assert len(small) < len(grid)
        assert grid.scaled(1.0) is grid
        with pytest.raises(ValueError):
            grid.scaled(0.0)
        assert len(DEFAULT_GRID) > 0

    def test_competition_config_adapts_to_budget(self):
        tight = competition_config(time_budget=100.0)
        loose = competition_config(time_budget=10_000.0)
        assert tight.pool_size <= loose.pool_size
        assert tight.ensemble_size <= loose.ensemble_size

    def test_runner_on_graph(self, kddcup_a_small):
        runner = AutoGraphRunner(candidate_models=["gcn", "sgc"], seed=0)
        config = competition_config(None)
        assert config.search_method == SearchMethod.ADAPTIVE
        submission = runner.run_graph(kddcup_a_small, time_budget=None)
        hidden = kddcup_a_small.metadata["hidden_labels"]
        assert submission.predictions.shape == submission.test_nodes.shape
        assert submission.accuracy_against(hidden) > 1.0 / kddcup_a_small.num_classes

    def test_runner_directory_roundtrip(self, tmp_path, kddcup_a_small):
        directory = os.path.join(tmp_path, "dataset")
        save_autograph_directory(kddcup_a_small, directory, time_budget=10_000.0)
        runner = AutoGraphRunner(candidate_models=["gcn", "sgc"], seed=0)
        output = os.path.join(tmp_path, "predictions.tsv")
        submission = runner.run_directory(directory, output_path=output)
        assert os.path.exists(output)
        with open(output, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == submission.test_nodes.shape[0]
