"""Chaos suite: deterministic fault injection against the resilient stack.

Every test drives a real failure mode through the production code paths —
no mocks of the supervision machinery itself:

* ``backend.task`` faults exercise the supervised dispatch loop: transient
  exceptions retry with seeded backoff, hangs trip per-task timeouts,
  ``crash`` rules ``os._exit`` genuine process-pool workers so the parent
  sees a real ``BrokenProcessPool``, rebuilds, and — past the rebuild
  budget — degrades process → thread → serial;
* the write-ahead journal recovers a :class:`StreamingScorer`
  bit-identically after a simulated crash, drops a torn trailing record,
  and refuses corrupted snapshots or mid-file damage;
* ``artifact.save`` / ``artifact.weights`` faults prove atomic artifact
  persistence: a crash mid-save never clobbers the previous version, and a
  flipped byte in a weight blob is caught by per-blob checksums on load;
* the bounded microbatcher sheds overload instead of queueing unboundedly.

The bit-identity assertions are exact (``tobytes`` equality), matching the
determinism contract the rest of the suite enforces.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro import AutoHEnsGNN, AutoHEnsGNNConfig, load_dataset
from repro.core.adaptive import AdaptiveSearch
from repro.core.artifact import ArtifactError, FittedEnsemble
from repro.core.config import ProxyConfig
from repro.graph.streaming import MutableServingGraph
from repro.parallel import ProcessBackend, SerialBackend, ThreadBackend
from repro.resilience import (
    FailureReport,
    FaultInjected,
    FaultPlan,
    FaultRule,
    JournalError,
    ResiliencePolicy,
    WorkerCrashError,
    WriteAheadJournal,
)
from repro.resilience import faults as faults_module
from repro.serve import Microbatcher, OverloadedError, StreamingScorer
from repro.serve.streaming import load_streaming_scorer
from repro.tasks.trainer import TrainConfig

POOL = ["gcn", "sgc"]
DATASET_ARGS = {"scale": 0.12, "seed": 0}


def _square(x: int) -> int:
    return x * x


def _seeded_vector(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(8)


def tiny_config(dtype: str) -> AutoHEnsGNNConfig:
    config = AutoHEnsGNNConfig(
        pool_size=2, ensemble_size=2, max_layers=2, search_epochs=2,
        bagging_splits=1, hidden=8, candidate_models=POOL,
        proxy=ProxyConfig(dataset_fraction=0.5, bagging_rounds=1,
                          hidden_fraction=0.5, max_epochs=2),
        seed=0, compute_dtype=dtype)
    config.train = TrainConfig(lr=0.02, max_epochs=3, patience=5)
    return config


@pytest.fixture(scope="module")
def resilience_pool():
    """One graph + one fitted ensemble per compute dtype (fitted once)."""
    graph = load_dataset("kddcup-A", **DATASET_ARGS)
    fitted = {dtype: AutoHEnsGNN(tiny_config(dtype)).fit(graph, pool=POOL)
              for dtype in ("float64", "float32")}
    return graph, fitted


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test must leave the process with no fault plan installed."""
    yield
    assert faults_module.active_plan() is None
    faults_module.uninstall_plan()


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="x", kind="meteor")

    def test_rule_matching_keys(self):
        rule = FaultRule(site="backend.task", indices=(1,), attempts=(0,),
                         backends=("process",))
        assert rule.matches("backend.task", 1, 0, "process")
        assert not rule.matches("backend.task", 2, 0, "process")
        assert not rule.matches("backend.task", 1, 1, "process")
        assert not rule.matches("backend.task", 1, 0, "thread")
        assert not rule.matches("artifact.save", 1, 0, "process")

    def test_exception_rule_fires_and_counts(self):
        plan = FaultPlan([FaultRule(site="s", kind="exception")])
        with pytest.raises(FaultInjected):
            plan.trigger("s")
        assert plan.fires(plan.rules[0]) == 1
        plan.trigger("other")  # non-matching site is a no-op

    def test_max_fires_limits_in_process_triggers(self):
        plan = FaultPlan([FaultRule(site="s", kind="exception", max_fires=1)])
        with pytest.raises(FaultInjected):
            plan.trigger("s")
        plan.trigger("s")  # budget exhausted: clean pass-through

    def test_crash_without_worker_process_raises(self):
        plan = FaultPlan([FaultRule(site="s", kind="crash")])
        with pytest.raises(WorkerCrashError):
            plan.trigger("s")

    def test_installed_scopes_the_global_plan(self):
        plan = FaultPlan([])
        assert faults_module.active_plan() is None
        with plan.installed():
            assert faults_module.active_plan() is plan
        assert faults_module.active_plan() is None

    def test_damage_corrupt_flips_one_byte(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(range(16)))
        plan = FaultPlan([FaultRule(site="d", kind="corrupt", byte_offset=3)])
        assert plan.damage("d", str(path))
        damaged = path.read_bytes()
        assert len(damaged) == 16
        assert damaged[3] == 3 ^ 0xFF
        assert damaged[:3] == bytes(range(3))

    def test_damage_truncate_cuts_the_tail(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(range(16)))
        plan = FaultPlan([FaultRule(site="d", kind="truncate", byte_count=5)])
        assert plan.damage("d", str(path))
        assert path.read_bytes() == bytes(range(11))


# ----------------------------------------------------------------------
# Supervised execution: retries, timeouts, crashes, degradation
# ----------------------------------------------------------------------
class TestSupervisedMap:
    def test_no_fault_supervised_matches_legacy_bitwise(self):
        policy = ResiliencePolicy()
        for backend_factory in (SerialBackend, ThreadBackend, ProcessBackend):
            backend = backend_factory(max_workers=2)
            try:
                plain = backend.map(_seeded_vector, list(range(6)))
                supervised = backend.map(_seeded_vector, list(range(6)),
                                         policy=policy)
            finally:
                backend.close()
            assert supervised.failures == []
            for reference, value in zip(plain.results, supervised.results):
                assert reference.tobytes() == value.tobytes()

    def test_transient_exception_is_retried(self):
        plan = FaultPlan([FaultRule(site="backend.task", kind="exception",
                                    indices=(3,), attempts=(0,))])
        policy = ResiliencePolicy(backoff_seconds=0.001)
        with plan.installed():
            report = SerialBackend().map(_square, list(range(6)), policy=policy)
        assert report.results == [i * i for i in range(6)]
        assert report.details["retries"] == 1
        assert report.failures == []

    def test_persistent_failure_dropped_with_report(self):
        plan = FaultPlan([FaultRule(site="backend.task", kind="exception",
                                    indices=(2,))])
        policy = ResiliencePolicy(max_retries=1, backoff_seconds=0.001,
                                  on_failure="drop")
        with plan.installed():
            report = SerialBackend().map(_square, list(range(5)), policy=policy)
        assert report.results[2] is None
        assert [value for i, value in enumerate(report.results) if i != 2] \
            == [i * i for i in range(5) if i != 2]
        (failure,) = report.failures
        assert isinstance(failure, FailureReport)
        assert failure.index == 2
        assert failure.attempts == 2
        assert failure.kind == "exception"
        assert failure.error_type == "FaultInjected"
        assert failure.describe()["index"] == 2

    def test_persistent_failure_raises_by_default(self):
        plan = FaultPlan([FaultRule(site="backend.task", kind="exception",
                                    indices=(1,))])
        policy = ResiliencePolicy(max_retries=1, backoff_seconds=0.001)
        with plan.installed():
            with pytest.raises(FaultInjected):
                SerialBackend().map(_square, list(range(4)), policy=policy)

    def test_backoff_schedule_is_deterministic(self):
        policy = ResiliencePolicy(backoff_seconds=0.05, seed=11)
        first = [policy.backoff_for(i, 1) for i in range(4)]
        again = [policy.backoff_for(i, 1) for i in range(4)]
        assert first == again
        assert len(set(first)) > 1  # jitter decorrelates task schedules
        assert all(delay >= 0.0 for delay in first)
        assert policy.backoff_for(0, 2) > policy.backoff_for(0, 1) * 1.5

    def test_thread_timeout_retries_hung_task(self):
        plan = FaultPlan([FaultRule(site="backend.task", kind="hang",
                                    indices=(1,), attempts=(0,), delay=0.5)])
        policy = ResiliencePolicy(task_timeout=0.1, backoff_seconds=0.001)
        backend = ThreadBackend(max_workers=2)
        try:
            with plan.installed():
                report = backend.map(_square, list(range(4)), policy=policy)
        finally:
            backend.close()
        assert report.results == [i * i for i in range(4)]
        assert report.details["retries"] >= 1
        assert report.failures == []

    def test_thread_timeout_exhaustion_reports_timeout_kind(self):
        plan = FaultPlan([FaultRule(site="backend.task", kind="hang",
                                    indices=(0,), delay=0.4)])
        policy = ResiliencePolicy(task_timeout=0.1, max_retries=1,
                                  backoff_seconds=0.001, on_failure="drop")
        backend = ThreadBackend(max_workers=2)
        try:
            with plan.installed():
                report = backend.map(_square, list(range(3)), policy=policy)
        finally:
            backend.close()
        assert report.results[0] is None
        assert report.results[1:] == [1, 4]
        (failure,) = report.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 2

    def test_process_worker_crash_rebuilds_and_completes(self):
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    indices=(2,), attempts=(0,),
                                    backends=("process",))])
        policy = ResiliencePolicy(backoff_seconds=0.001)
        reference = SerialBackend().map(_seeded_vector, list(range(6)))
        backend = ProcessBackend(max_workers=2)
        try:
            with plan.installed():
                report = backend.map(_seeded_vector, list(range(6)),
                                     policy=policy)
        finally:
            backend.close()
        assert report.failures == []
        assert report.details["pool_rebuilds"] >= 1
        for expected, value in zip(reference.results, report.results):
            assert expected.tobytes() == value.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_break_is_charged_only_to_the_crashing_task(self, workers):
        """A crash breaks the whole pool, but only the crashing task is
        charged: its neighbours re-run uncharged, one at a time, so every
        later break names its task."""
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    indices=(2,), backends=("process",))])
        policy = ResiliencePolicy(max_retries=1, max_pool_rebuilds=3,
                                  degrade=False, backoff_seconds=0.001,
                                  on_failure="drop")
        items = list(range(6))
        reference = SerialBackend().map(_seeded_vector, items)
        backend = ProcessBackend(max_workers=workers)
        try:
            with plan.installed():
                report = backend.map(_seeded_vector, items, policy=policy)
        finally:
            backend.close()
        (failure,) = report.failures
        assert failure.index == 2
        assert failure.kind == "worker_crash"
        assert failure.attempts == policy.max_attempts
        assert report.details["pool_rebuilds"] <= policy.max_attempts + 1
        assert len(report.results) == len(items)
        assert report.results[2] is None
        for index, (expected, value) in enumerate(zip(reference.results,
                                                      report.results)):
            if index != 2:
                assert expected.tobytes() == value.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_lost_pool_without_fallback_reports_every_unresolved_item(
            self, workers):
        """With the rebuild budget spent and no fallback, every unresolved
        item keeps its slot and gets a report carrying only the attempts
        charged to it, including items the break kept from admission."""
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    indices=(1,), backends=("process",))])
        policy = ResiliencePolicy(max_retries=1, max_pool_rebuilds=0,
                                  degrade=False, backoff_seconds=0.001,
                                  on_failure="drop")
        items = list(range(4))
        reference = SerialBackend().map(_seeded_vector, items)
        backend = ProcessBackend(max_workers=workers)
        try:
            with plan.installed():
                report = backend.map(_seeded_vector, items, policy=policy)
        finally:
            backend.close()
        assert len(report.results) == len(items)
        assert report.skipped == 0
        lost = {index for index, value in enumerate(report.results)
                if value is None}
        assert 1 in lost
        assert sorted(failure.index for failure in report.failures) \
            == sorted(lost)
        for failure in report.failures:
            assert failure.kind == "worker_crash"
            # Only the crashing task, when alone in flight, is ever charged.
            if failure.index == 1:
                assert failure.attempts in (0, 1)
            else:
                assert failure.attempts == 0
        if workers == 1:
            assert report.results[0] is not None
            (crashed,) = [f for f in report.failures if f.index == 1]
            assert crashed.attempts == 1
        for expected, value in zip(reference.results, report.results):
            if value is not None:
                assert expected.tobytes() == value.tobytes()

    def test_process_degrades_to_thread_when_rebuilds_exhausted(self):
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    backends=("process",))])
        policy = ResiliencePolicy(max_pool_rebuilds=0, backoff_seconds=0.001)
        reference = SerialBackend().map(_seeded_vector, list(range(5)))
        backend = ProcessBackend(max_workers=2)
        try:
            with plan.installed():
                report = backend.map(_seeded_vector, list(range(5)),
                                     policy=policy)
        finally:
            backend.close()
        assert report.failures == []
        assert report.details["degraded_to"] == "thread"
        for expected, value in zip(reference.results, report.results):
            assert expected.tobytes() == value.tobytes()

    def test_degradation_disabled_drop_policy_records_failures(self):
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    backends=("thread", "process"))])
        policy = ResiliencePolicy(max_retries=0, max_pool_rebuilds=0,
                                  degrade=False, backoff_seconds=0.001,
                                  on_failure="drop")
        backend = ThreadBackend(max_workers=2)
        try:
            with plan.installed():
                report = backend.map(_square, list(range(3)), policy=policy)
        finally:
            backend.close()
        assert all(value is None for value in report.results)
        assert len(report.failures) == len(report.results)
        assert all(failure.kind == "worker_crash" for failure in report.failures)


# ----------------------------------------------------------------------
# Chaos through the search layer
# ----------------------------------------------------------------------
class TestAdaptiveSearchChaos:
    def _search(self, graph, data, backend, policy=None):
        search = AdaptiveSearch(pool=POOL, ensemble_size=2, max_layers=2,
                                hidden=8,
                                train_config=TrainConfig(lr=0.05, max_epochs=6,
                                                         patience=5),
                                seed=0, backend=backend, policy=policy)
        try:
            return search.search(graph, data, graph.labels,
                                 graph.mask_indices("train"),
                                 graph.mask_indices("val"),
                                 num_classes=graph.num_classes,
                                 hidden_fraction=0.5)
        finally:
            search.backend.close()

    def test_killed_worker_mid_search_still_completes(self, tiny_split_graph,
                                                      tiny_data):
        """Acceptance: a killed process worker during the adaptive search
        yields a completed run whose scores are bit-identical to the
        fault-free serial run (the retry re-derives the same seeded task)."""
        reference = self._search(tiny_split_graph, tiny_data, "serial")
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    indices=(1,), attempts=(0,),
                                    backends=("process",))])
        policy = ResiliencePolicy(backoff_seconds=0.001)
        with plan.installed():
            chaotic = self._search(tiny_split_graph, tiny_data, "process",
                                   policy=policy)
        assert chaotic.failures == []
        assert chaotic.chosen_layers == reference.chosen_layers
        for name in POOL:
            assert np.asarray(chaotic.layer_scores[name]).tobytes() \
                == np.asarray(reference.layer_scores[name]).tobytes()
        assert chaotic.beta.tobytes() == reference.beta.tobytes()

    def test_unkillable_task_is_dropped_with_failure_reports(
            self, tiny_split_graph, tiny_data):
        plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                    indices=(1,), backends=("process",))])
        policy = ResiliencePolicy(max_retries=1, max_pool_rebuilds=4,
                                  degrade=False, backoff_seconds=0.001,
                                  on_failure="drop")
        with plan.installed():
            result = self._search(tiny_split_graph, tiny_data, "process",
                                  policy=policy)
        assert len(result.failures) >= 1
        failed = result.failures[0]
        assert failed.kind == "worker_crash"
        assert failed.context["architecture"] in POOL
        assert set(result.chosen_layers) == set(POOL)  # depth 2 survived

    def test_short_report_is_an_error_not_a_shorter_grid(
            self, tiny_split_graph, tiny_data):
        class ShortBackend(SerialBackend):
            def map(self, fn, items, **kwargs):
                report = super().map(fn, items, **kwargs)
                report.results = report.results[:-1]
                return report

        with pytest.raises(RuntimeError, match="grid points"):
            self._search(tiny_split_graph, tiny_data, ShortBackend())


# ----------------------------------------------------------------------
# Write-ahead journal + streaming recovery
# ----------------------------------------------------------------------
def _mutate_deterministically(scorer_or_graph, num_features):
    """A fixed mutation burst touching every op type."""
    target = scorer_or_graph
    new = target.add_nodes(np.full((1, num_features), 0.25, dtype=np.float64))
    target.add_edges(np.array([[0, int(new[0])], [3, 1]]),
                     edge_weight=np.array([1.5, 0.75]))
    target.remove_edges(np.array([[0], [3]]))
    target.update_features(np.array([2]),
                           np.full((1, num_features), -0.5, dtype=np.float64))


class TestWriteAheadJournal:
    def _fresh_graph(self):
        return load_dataset("kddcup-A", **DATASET_ARGS)

    def test_snapshot_round_trip_is_exact(self, tmp_path):
        graph = self._fresh_graph()
        journal = WriteAheadJournal(str(tmp_path))
        journal.write_snapshot(graph, 0)
        restored, seq = journal.read_snapshot()
        assert seq == 0
        assert restored.features.tobytes() == graph.features.tobytes()
        assert restored.edge_index.tobytes() == graph.edge_index.tobytes()

    def test_recovery_replays_journaled_mutations(self, tmp_path):
        graph = self._fresh_graph()
        live = MutableServingGraph(graph, journal_dir=str(tmp_path))
        _mutate_deterministically(live, graph.num_features)
        live.flush()
        live.close()

        recovered, report = MutableServingGraph.recover(str(tmp_path))
        assert report.replayed == 4
        assert not report.dropped_tail
        left, right = live.snapshot(), recovered.snapshot()
        assert left.features.tobytes() == right.features.tobytes()
        assert left.edge_index.tobytes() == right.edge_index.tobytes()
        assert left.edge_weight.tobytes() == right.edge_weight.tobytes()

    def test_torn_tail_is_dropped_and_reported(self, tmp_path):
        graph = self._fresh_graph()
        live = MutableServingGraph(graph, journal_dir=str(tmp_path))
        _mutate_deterministically(live, graph.num_features)
        live.flush()
        live.close()
        wal_path = tmp_path / "wal.jsonl"
        payload = wal_path.read_bytes()
        wal_path.write_bytes(payload[:-7])  # crash mid-append: torn record

        recovered, report = MutableServingGraph.recover(str(tmp_path))
        assert report.dropped_tail
        assert report.replayed == 3  # the torn 4th record is not applied
        assert recovered.num_nodes == graph.num_nodes + 1

    def test_mid_file_corruption_is_an_error_not_a_guess(self, tmp_path):
        graph = self._fresh_graph()
        live = MutableServingGraph(graph, journal_dir=str(tmp_path))
        _mutate_deterministically(live, graph.num_features)
        live.flush()
        live.close()
        wal_path = tmp_path / "wal.jsonl"
        lines = wal_path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 4
        lines[1] = b"00000000 " + lines[1].split(b" ", 1)[1]  # bad CRC mid-file
        wal_path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="corrupt"):
            MutableServingGraph.recover(str(tmp_path))

    def test_corrupted_snapshot_is_refused(self, tmp_path):
        graph = self._fresh_graph()
        MutableServingGraph(graph, journal_dir=str(tmp_path)).close()
        (snapshot_blob,) = tmp_path.glob("snapshot-*.npz")
        payload = bytearray(snapshot_blob.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        snapshot_blob.write_bytes(bytes(payload))
        with pytest.raises(JournalError, match="checksum"):
            MutableServingGraph.recover(str(tmp_path))

    def test_checkpoint_compacts_and_recovery_survives(self, tmp_path):
        graph = self._fresh_graph()
        live = MutableServingGraph(graph, journal_dir=str(tmp_path))
        _mutate_deterministically(live, graph.num_features)
        live.flush()
        live.checkpoint()
        live.add_edges(np.array([[1], [4]]))
        live.flush()
        live.close()
        recovered, report = MutableServingGraph.recover(str(tmp_path))
        assert report.replayed == 1  # only the post-checkpoint mutation
        assert recovered.snapshot().edge_index.tobytes() \
            == live.snapshot().edge_index.tobytes()

    def test_existing_journal_requires_recover(self, tmp_path):
        graph = self._fresh_graph()
        MutableServingGraph(graph, journal_dir=str(tmp_path)).close()
        with pytest.raises(JournalError, match="recover"):
            MutableServingGraph(graph, journal_dir=str(tmp_path))


class TestStreamingScorerRecovery:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_crash_recovery_scores_bit_identical(self, resilience_pool,
                                                 tmp_path, dtype):
        graph, fitted = resilience_pool
        journal_dir = str(tmp_path / dtype)
        scorer = StreamingScorer(fitted[dtype], graph,
                                 journal_dir=journal_dir)
        _mutate_deterministically(scorer, graph.num_features)
        reference = scorer.score()
        # Simulated crash: the process dies without close()/checkpoint().
        del scorer

        recovered, report = StreamingScorer.recover(fitted[dtype], journal_dir)
        assert report.replayed == 4
        replayed = recovered.score()
        assert replayed.probabilities.dtype == reference.probabilities.dtype
        assert replayed.probabilities.tobytes() \
            == reference.probabilities.tobytes()
        assert recovered.describe()["health"]["journal"]["directory"] \
            == journal_dir

    def test_journal_dir_rejected_for_adopted_mutable_graph(
            self, resilience_pool, tmp_path):
        graph, fitted = resilience_pool
        with pytest.raises(ValueError, match="journal_dir"):
            StreamingScorer(fitted["float64"], MutableServingGraph(graph),
                            journal_dir=str(tmp_path))

    def test_checkpoint_bounds_replay(self, resilience_pool, tmp_path):
        graph, fitted = resilience_pool
        scorer = StreamingScorer(fitted["float64"], graph,
                                 journal_dir=str(tmp_path))
        _mutate_deterministically(scorer, graph.num_features)
        scorer.checkpoint()
        scorer.add_edges(np.array([[1], [4]]))
        reference = scorer.score()
        del scorer
        recovered, report = StreamingScorer.recover(fitted["float64"],
                                                    str(tmp_path))
        assert report.replayed == 1
        assert recovered.score().probabilities.tobytes() \
            == reference.probabilities.tobytes()


# ----------------------------------------------------------------------
# Atomic, checksummed artifacts
# ----------------------------------------------------------------------
class TestArtifactDurability:
    def test_crash_mid_save_preserves_previous_version(self, resilience_pool,
                                                       tmp_path):
        _, fitted = resilience_pool
        path = str(tmp_path / "artifact")
        fitted["float64"].save(path)
        reference = FittedEnsemble.load(path).describe()

        plan = FaultPlan([FaultRule(site="artifact.save", kind="exception")])
        with plan.installed():
            with pytest.raises(FaultInjected):
                fitted["float32"].save(path)
        # The crash hit after staging but before the swap: the directory
        # still holds the float64 version, and no staging litter remains.
        assert FittedEnsemble.load(path).describe() == reference
        assert [entry for entry in os.listdir(str(tmp_path))
                if ".tmp-" in entry] == []

    def test_corrupted_weight_blob_is_detected_on_load(self, resilience_pool,
                                                       tmp_path):
        _, fitted = resilience_pool
        path = str(tmp_path / "artifact")
        plan = FaultPlan([FaultRule(site="artifact.weights", kind="corrupt",
                                    byte_offset=-200)])
        with plan.installed():
            fitted["float64"].save(path)
        with pytest.raises(ArtifactError):
            FittedEnsemble.load(path)

    def test_truncated_weight_blob_is_detected_on_load(self, resilience_pool,
                                                       tmp_path):
        _, fitted = resilience_pool
        path = str(tmp_path / "artifact")
        plan = FaultPlan([FaultRule(site="artifact.weights", kind="truncate",
                                    byte_count=64)])
        with plan.installed():
            fitted["float64"].save(path)
        with pytest.raises(ArtifactError):
            FittedEnsemble.load(path)


# ----------------------------------------------------------------------
# Bounded microbatcher: admission control and load shedding
# ----------------------------------------------------------------------
class TestMicrobatcherOverload:
    def test_admission_beyond_capacity_is_shed(self):
        batcher = Microbatcher(max_pending=2)
        batcher.admit()
        batcher.admit()
        with pytest.raises(OverloadedError, match="max_pending=2"):
            batcher.admit()
        stats = batcher.stats()
        assert stats["shed"] == 1 and stats["pending"] == 2
        batcher.release()
        batcher.admit()  # freed slot admits again
        batcher.release()
        batcher.release()
        assert batcher.stats()["pending"] == 0

    def test_expired_deadline_is_shed(self):
        batcher = Microbatcher(deadline_seconds=0.01)
        admitted_at = batcher.admit()
        try:
            with pytest.raises(OverloadedError, match="deadline"):
                batcher.check_deadline(admitted_at - 10.0)
            batcher.check_deadline(admitted_at)  # fresh request passes
        finally:
            batcher.release()
        assert batcher.stats()["shed"] == 1

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Microbatcher(max_pending=0)
        with pytest.raises(ValueError):
            Microbatcher(deadline_seconds=0.0)

    def test_stats_consistent_under_concurrent_result_for(self):
        batcher = Microbatcher()
        lock = threading.Lock()  # stands in for the scorer lock
        rounds = 200

        def worker():
            for iteration in range(rounds):
                with lock:
                    batcher.result_for(
                        iteration % 7,
                        lambda: np.zeros(1, dtype=np.float64))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = batcher.stats()
        assert stats["requests"] == 4 * rounds
        assert stats["forward_passes"] + stats["coalesced"] == stats["requests"]
        assert stats["pending"] == 0 and stats["shed"] == 0

    def test_scorer_health_view_reports_shedding(self, resilience_pool):
        graph, fitted = resilience_pool
        scorer = StreamingScorer(fitted["float64"], graph, max_pending=1)
        scorer.score()
        health = scorer.describe()["health"]
        assert health["status"] == "ok"
        assert health["max_pending"] == 1 and health["pending"] == 0
        assert health["journal"] is None
        # Saturate the queue from under the scorer: the next request sheds.
        scorer.batcher.admit()
        with pytest.raises(OverloadedError):
            scorer.score()
        scorer.batcher.release()
        assert scorer.describe()["health"]["shed"] == 1

    def test_load_streaming_scorer_forwards_overload_knobs(
            self, resilience_pool, tmp_path):
        graph, fitted = resilience_pool
        path = str(tmp_path / "artifact")
        fitted["float64"].save(path)
        scorer = load_streaming_scorer(path, graph, max_pending=3,
                                       deadline_seconds=1.0)
        assert scorer.batcher.max_pending == 3
        assert scorer.batcher.deadline_seconds == 1.0
