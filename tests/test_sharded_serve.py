"""Differential parity campaign for sharded (partitioned) scoring and training.

The sharding layer promises that partition-parallel execution is an
*implementation detail*: at a fixed seed, sharded scoring and shared-graph
training are **bit-for-bit identical** to the serial computation.  This
campaign checks the promise differentially, in the style of the streaming
parity suite:

* randomized graphs × partition counts × partition methods × backends,
  against the unsharded reference (``FittedEnsemble.predict_proba``),
* artifacts fitted under both compute dtypes and both training regimes
  (full-batch and neighbour-sampled minibatch),
* streaming mutations scored sharded vs unsharded after every delta,
* fault-injected shard workers: a crashed partition retries to the same
  bits, and exhausted retries raise ``ShardScoreError`` rather than serving
  a probability matrix with holes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AutoHEnsGNN, AutoHEnsGNNConfig, FittedEnsemble, load_dataset
from repro.graph.partition import partition_graph
from repro.graph.sampling import NeighborSampler
from repro.resilience import FaultPlan, FaultRule, ResiliencePolicy
from repro.serve import BatchScorer
from repro.serve.sharded import ShardScoreError, build_partition_plan, sharded_predict_proba
from repro.serve.streaming import StreamingScorer
from repro.tasks.trainer import TrainConfig

from conftest import DATASET_ARGS, POOL, serving_config

#: Randomized differential inputs: same feature/class schema as the fitted
#: artifacts (kddcup-A), different sizes and structures.
GRAPH_CASES = [
    pytest.param({"scale": 0.15, "seed": 0}, id="fit-graph"),
    pytest.param({"scale": 0.12, "seed": 5}, id="smaller-reseeded"),
    pytest.param({"scale": 0.2, "seed": 9}, id="larger-reseeded"),
]


def _fit_variant(tmp_path_factory, name: str, **overrides):
    config = serving_config()
    for key, value in overrides.items():
        setattr(config, key, value)
    graph = load_dataset("kddcup-A", **DATASET_ARGS)
    fitted = AutoHEnsGNN(config).fit(graph, pool=POOL)
    path = fitted.save(str(tmp_path_factory.mktemp("sharded") / name))
    return graph, fitted, path


@pytest.fixture(scope="module")
def served_float32(tmp_path_factory):
    """A float32-engine artifact (full-batch regime)."""
    return _fit_variant(tmp_path_factory, "f32", compute_dtype="float32")


@pytest.fixture(scope="module")
def served_minibatch(tmp_path_factory):
    """A float64 artifact fitted on neighbour-sampled minibatches."""
    config_train = TrainConfig(lr=0.02, max_epochs=6, patience=5,
                               batch_size=48, fanouts=(5, 3))
    return _fit_variant(tmp_path_factory, "mini", train=config_train)


class TestScoringParityCampaign:
    @pytest.mark.parametrize("num_partitions", [2, 3, 4])
    @pytest.mark.parametrize("dataset_args", GRAPH_CASES)
    def test_serial_sharding_is_bitwise_across_graphs(self, served, dataset_args,
                                                      num_partitions):
        _, fitted, _, _ = served
        graph = load_dataset("kddcup-A", **dataset_args)
        reference = fitted.predict_proba(graph)
        scorer = BatchScorer(fitted, num_partitions=num_partitions,
                             partition_seed=num_partitions)
        result = scorer.score(graph)
        np.testing.assert_array_equal(result.probabilities, reference)
        assert result.metadata["sharding"]["num_partitions"] == num_partitions

    @pytest.mark.parametrize("num_partitions", [2, 3])
    def test_bitwise_on_every_backend(self, served, any_backend, num_partitions):
        graph, fitted, path, _ = served
        reference = fitted.fit_report.probabilities
        with BatchScorer(path, num_partitions=num_partitions,
                         shard_backend=any_backend, max_workers=2) as scorer:
            np.testing.assert_array_equal(scorer.score(graph).probabilities,
                                          reference)

    def test_members_serve_in_eval_mode(self, served):
        """Thread shards call one member's ``forward_inference`` at once; a
        member left in training mode would be switched to eval and back by
        each call, turning dropout on under a concurrent shard."""
        _, fitted, path, _ = served
        for ensemble in (fitted, FittedEnsemble.load(path)):
            modes = [member.training for split in ensemble.ensembles
                     for gse in split.ensembles for member in gse.members]
            assert modes and not any(modes)

    @pytest.mark.parametrize("variant", ["float32", "minibatch"])
    @pytest.mark.parametrize("num_partitions", [2, 3])
    def test_bitwise_for_dtype_and_regime_variants(self, variant, num_partitions,
                                                   served_float32,
                                                   served_minibatch):
        graph, fitted, _ = (served_float32 if variant == "float32"
                            else served_minibatch)
        reference = fitted.predict_proba(graph)
        scorer = BatchScorer(fitted, num_partitions=num_partitions)
        np.testing.assert_array_equal(scorer.score(graph).probabilities,
                                      reference)

    def test_block_partition_method_is_bitwise_too(self, served):
        graph, fitted, _, _ = served
        scorer = BatchScorer(fitted, num_partitions=3, partition_method="block")
        np.testing.assert_array_equal(scorer.score(graph).probabilities,
                                      fitted.fit_report.probabilities)

    def test_halo_smaller_than_receptive_field_raises(self, served):
        graph, fitted, _, _ = served
        scorer = BatchScorer(fitted, num_partitions=2, halo_hops=0)
        with pytest.raises(ValueError, match="halo"):
            scorer.score(graph)

    def test_process_sharding_requires_artifact_path(self, served):
        _, fitted, _, _ = served
        with pytest.raises(ValueError, match="artifact"):
            BatchScorer(fitted, num_partitions=2, shard_backend="process")

    def test_describe_reports_sharding(self, served):
        graph, _, path, _ = served
        with BatchScorer(path, num_partitions=2) as scorer:
            scorer.score(graph)
            summary = scorer.describe()
        assert summary["sharding"]["num_partitions"] == 2
        assert summary["sharding"]["backend"] == "serial"


class TestShardFaultTolerance:
    def test_crashed_shard_retries_to_identical_bits(self, served):
        """Losing a partition worker on attempt 0 must not change one bit."""
        graph, fitted, _, _ = served
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    indices=(1,), attempts=(0,))])
        scorer = BatchScorer(fitted, num_partitions=3,
                             resilience=ResiliencePolicy(
                                 max_retries=2, backoff_seconds=0.0,
                                 backoff_jitter=0.0))
        with plan.installed():
            result = scorer.score(graph)
        assert plan.fires(plan.rules[0]) == 1
        np.testing.assert_array_equal(result.probabilities,
                                      fitted.fit_report.probabilities)

    def test_exhausted_retries_raise_not_serve_holes(self, served):
        graph, fitted, _, _ = served
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    indices=(0,))])
        scorer = BatchScorer(fitted, num_partitions=2,
                             resilience=ResiliencePolicy(
                                 max_retries=1, backoff_seconds=0.0,
                                 on_failure="drop", degrade=False))
        with plan.installed():
            with pytest.raises(ShardScoreError, match="partition"):
                scorer.score(graph)

    def test_streaming_shard_crash_retries_bitwise(self, served):
        graph, fitted, _, _ = served
        reference = StreamingScorer(fitted, graph)
        expected = reference.score().probabilities
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    indices=(0,), attempts=(0,))])
        sharded = StreamingScorer(fitted, graph, num_partitions=2,
                                  resilience=ResiliencePolicy(
                                      max_retries=1, backoff_seconds=0.0))
        with plan.installed():
            np.testing.assert_array_equal(sharded.score().probabilities,
                                          expected)


class TestStreamingShardedParity:
    def test_mutation_stream_stays_bitwise(self, served, rng):
        """Sharded streaming == unsharded streaming after every delta."""
        graph, fitted, _, _ = served
        reference = StreamingScorer(fitted, graph)
        with StreamingScorer(fitted, graph, num_partitions=3,
                             shard_backend="thread", max_workers=2) as sharded:
            np.testing.assert_array_equal(sharded.score().probabilities,
                                          reference.score().probabilities)
            # Feature-only delta: the partition plan must be reused.
            nodes = np.asarray([1, 4, 9])
            fresh = rng.normal(size=(3, graph.num_features))
            reference.update_features(nodes, fresh)
            sharded.update_features(nodes, fresh)
            np.testing.assert_array_equal(sharded.score().probabilities,
                                          reference.score().probabilities)
            plan_version_after_features = sharded.describe()["sharding"]["plan_version"]
            # Structural delta: the plan is rebuilt for the new topology.
            new_features = rng.normal(size=(2, graph.num_features))
            ids_a = reference.add_nodes(new_features)
            ids_b = sharded.add_nodes(new_features)
            np.testing.assert_array_equal(ids_a, ids_b)
            edges = np.asarray([[ids_a[0], 0], [ids_a[1], 3]])
            reference.add_edges(edges)
            sharded.add_edges(edges)
            np.testing.assert_array_equal(sharded.score().probabilities,
                                          reference.score().probabilities)
            assert sharded.describe()["sharding"]["plan_version"] \
                != plan_version_after_features

    def test_streaming_rejects_process_backend(self, served):
        graph, fitted, _, _ = served
        with pytest.raises(ValueError, match="process"):
            StreamingScorer(fitted, graph, num_partitions=2,
                            shard_backend="process")


class TestSharedGraphTrainingParity:
    @pytest.mark.parametrize("case", [
        pytest.param({}, id="float64-fullbatch"),
        pytest.param({"compute_dtype": "float32"}, id="float32-fullbatch"),
        pytest.param({"train": TrainConfig(lr=0.02, max_epochs=6, patience=5,
                                           batch_size=48, fanouts=(5, 3))},
                     id="float64-minibatch"),
    ])
    def test_process_shared_graph_fit_is_bitwise(self, case):
        """Serial fit == process fit with shared-memory graph publication."""
        graph = load_dataset("kddcup-A", **DATASET_ARGS)

        def build(**extra):
            config = serving_config()
            for key, value in {**case, **extra}.items():
                setattr(config, key, value)
            return config

        serial = AutoHEnsGNN(build()).fit(graph, pool=POOL)
        shared = AutoHEnsGNN(build(backend="process", max_workers=2,
                                   shared_graph=True)).fit(graph, pool=POOL)
        np.testing.assert_array_equal(shared.fit_report.probabilities,
                                      serial.fit_report.probabilities)

    def test_shared_graph_covers_proxy_selection(self):
        """Pool selection (proxy stage) is identical under shared graphs."""
        graph = load_dataset("kddcup-A", **DATASET_ARGS)
        serial = AutoHEnsGNN(serving_config()).fit(graph)
        config = serving_config()
        config.backend = "process"
        config.max_workers = 2
        config.shared_graph = True
        shared = AutoHEnsGNN(config).fit(graph)
        assert shared.pool == serial.pool
        np.testing.assert_array_equal(shared.fit_report.probabilities,
                                      serial.fit_report.probabilities)


class TestPartitionedMinibatches:
    def test_partition_batches_cover_each_seed_once(self, medium_graph):
        sampler = NeighborSampler(medium_graph, (5, 3), batch_size=64, seed=9)
        plan = partition_graph(medium_graph, 4, halo_hops=0, seed=0)
        seeds = medium_graph.mask_indices("train")
        batches = list(sampler.iter_partition_batches(seeds, plan, epoch=0))
        covered = np.concatenate([b.seed_nodes for b in batches])
        np.testing.assert_array_equal(np.sort(covered), np.sort(seeds))
        # Every batch draws its seeds from exactly one partition.
        for batch in batches:
            owners = plan.assignment[batch.seed_nodes]
            assert np.unique(owners).shape[0] == 1

    def test_partition_batches_deterministic_and_epoch_varying(self, medium_graph):
        plan = partition_graph(medium_graph, 3, halo_hops=0, seed=1)
        seeds = medium_graph.mask_indices("train")
        def run(epoch):
            sampler = NeighborSampler(medium_graph, (5, 3), batch_size=64, seed=9)
            return [b.seed_nodes for b in
                    sampler.iter_partition_batches(seeds, plan, epoch=epoch)]
        first, second = run(4), run(4)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        other = run(5)
        assert any(not np.array_equal(a, b) for a, b in zip(first, other))

    def test_sampler_adopts_partitioned_graph(self, medium_graph):
        plan = partition_graph(medium_graph, 3, halo_hops=0, seed=1)
        sampler = NeighborSampler(plan, (5, 3), batch_size=64, seed=9)
        seeds = medium_graph.mask_indices("train")
        batches = list(sampler.iter_partition_batches(seeds, epoch=0))
        covered = np.concatenate([b.seed_nodes for b in batches])
        np.testing.assert_array_equal(np.sort(covered), np.sort(seeds))

    def test_trainer_num_partitions_end_to_end(self):
        graph = load_dataset("kddcup-A", **DATASET_ARGS)
        config = serving_config()
        config.train = TrainConfig(lr=0.02, max_epochs=4, patience=3,
                                   batch_size=48, fanouts=(5, 3),
                                   num_partitions=2)
        fitted = AutoHEnsGNN(config).fit(graph, pool=POOL)
        probabilities = fitted.fit_report.probabilities
        assert probabilities.shape == (graph.num_nodes, graph.num_classes)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-6)


class TestConfigValidation:
    def test_negative_partition_counts_rejected(self):
        with pytest.raises(ValueError, match="num_partitions"):
            AutoHEnsGNNConfig(num_partitions=-1).validate()
        config = AutoHEnsGNNConfig()
        config.train = TrainConfig(num_partitions=-2)
        with pytest.raises(ValueError, match="train.num_partitions"):
            config.validate()

    def test_shared_graph_must_be_bool(self):
        with pytest.raises(ValueError, match="shared_graph"):
            AutoHEnsGNNConfig(shared_graph="yes").validate()

    def test_scorer_rejects_bad_partition_count(self, served):
        _, fitted, _, _ = served
        with pytest.raises(ValueError, match="num_partitions"):
            BatchScorer(fitted, num_partitions=0)


class TestShardedPredictProbaDirect:
    def test_direct_call_matches_reference(self, served):
        graph, fitted, _, _ = served
        from repro.autograd.dtype import compute_dtype_scope
        from repro.nn.data import GraphTensors

        with compute_dtype_scope(fitted.compute_dtype):
            data = GraphTensors.from_graph(graph)
        plan = build_partition_plan(data, 3,
                                    halo_hops=fitted.receptive_field())
        probabilities = sharded_predict_proba(fitted, graph, plan, data=data)
        np.testing.assert_array_equal(probabilities,
                                      fitted.predict_proba(graph))

    def test_plan_node_count_mismatch_raises(self, served):
        graph, fitted, _, _ = served
        from repro.autograd.dtype import compute_dtype_scope
        from repro.nn.data import GraphTensors

        with compute_dtype_scope(fitted.compute_dtype):
            data = GraphTensors.from_graph(graph)
        smaller = load_dataset("kddcup-A", scale=0.1, seed=3)
        with compute_dtype_scope(fitted.compute_dtype):
            other = GraphTensors.from_graph(smaller)
        plan = build_partition_plan(other, 2,
                                    halo_hops=fitted.receptive_field())
        with pytest.raises(ValueError, match="nodes"):
            sharded_predict_proba(fitted, graph, plan, data=data)
