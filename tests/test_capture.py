"""Capture-and-replay engine tests (repro.autograd.capture).

The load-bearing contract: capture-mode full-batch training is **bit
identical** to the dynamic engine at fixed seeds — same loss trajectory,
same validation accuracies, same final predictions — for every model in the
zoo, across execution backends and compute dtypes, with dropout streams
replayed deterministically from the seeded generators.  Everything else
(bail-outs, arena planning, the fused cross-entropy) hangs off that.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import capture, functional as F, optim
from repro.autograd.dtype import compute_dtype_scope
from repro.autograd.module import Module, Parameter
from repro.autograd.tensor import Tensor
from repro.core import GraphSelfEnsemble
from repro.nn.data import GraphTensors
from repro.nn.model_zoo import available_models, build_model
from repro.nn.models.base import GNNModel
from repro.tasks.trainer import NodeClassificationTrainer, TrainConfig


def _train(graph, data, name="gcn", capture_mode=True, seed=3, max_epochs=6,
           hidden=16, **overrides):
    model = build_model(name, data.num_features, graph.num_classes,
                        hidden=hidden, seed=seed)
    config = TrainConfig(lr=0.02, max_epochs=max_epochs, patience=50, seed=seed,
                         capture=capture_mode, **overrides)
    result = NodeClassificationTrainer(config).train(
        model, data, graph.labels, graph.mask_indices("train"),
        graph.mask_indices("val"))
    return result, model


# ----------------------------------------------------------------------
# Bitwise parity across the model zoo
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available_models())
def test_capture_matches_dynamic_bitwise(name, tiny_split_graph, tiny_data):
    dynamic, dynamic_model = _train(tiny_split_graph, tiny_data, name,
                                    capture_mode=False)
    captured, captured_model = _train(tiny_split_graph, tiny_data, name,
                                      capture_mode=True)
    assert captured.capture_used, f"{name} fell back to the dynamic engine"
    # Full trajectory parity: losses and validation accuracies to the bit.
    assert dynamic.history == captured.history
    assert np.array_equal(dynamic_model.forward_inference(tiny_data),
                          captured_model.forward_inference(tiny_data))


@pytest.mark.parametrize("name", ("gcn", "gat", "grand", "dna", "sign"))
def test_capture_parity_float32(name, tiny_split_graph):
    with compute_dtype_scope("float32"):
        data = GraphTensors.from_graph(tiny_split_graph)
        dynamic, dynamic_model = _train(tiny_split_graph, data, name,
                                        capture_mode=False)
        captured, captured_model = _train(tiny_split_graph, data, name,
                                          capture_mode=True)
        assert captured.capture_used
        assert dynamic.history == captured.history
        logits = captured_model.forward_inference(data)
        assert logits.dtype == np.float32
        assert np.array_equal(dynamic_model.forward_inference(data), logits)


@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", available_models())
def test_inference_replay_is_never_dropped_for_parity(name, dtype, tiny_split_graph,
                                                      monkeypatch):
    """The trainer's first-use guard compares the stripped inference replay
    with ``forward_inference``; on every zoo model, in both dtypes, it must
    agree, or validation silently drops the replay."""
    build = capture.build_inference_replay
    built = []

    def spy(replay, pool=None):
        inference = build(replay, pool)
        built.append(inference)
        return inference

    monkeypatch.setattr(capture, "build_inference_replay", spy)
    before = capture.engine_stats()["bailout_reasons"].get("inference_parity", 0)
    with compute_dtype_scope(dtype):
        data = GraphTensors.from_graph(tiny_split_graph)
        result, _ = _train(tiny_split_graph, data, name, max_epochs=3)
    assert result.capture_used
    assert built and built[0] is not None, f"{name} built no inference replay"
    after = capture.engine_stats()["bailout_reasons"].get("inference_parity", 0)
    assert after == before


@pytest.mark.parametrize("backend", ("serial", "thread", "process"))
def test_capture_parity_across_backends(backend, tiny_split_graph, tiny_data):
    def gse_probabilities(capture_mode):
        ensemble = GraphSelfEnsemble(spec_name="gcn", num_members=3, hidden=16,
                                     num_layers=2, base_seed=5)
        ensemble.fit(tiny_data, tiny_split_graph.labels,
                     tiny_split_graph.mask_indices("train"),
                     tiny_split_graph.mask_indices("val"),
                     train_config=TrainConfig(max_epochs=6, patience=4, seed=5,
                                              capture=capture_mode),
                     num_classes=tiny_split_graph.num_classes, backend=backend)
        return ensemble.predict_proba(tiny_data)

    assert np.array_equal(gse_probabilities(False), gse_probabilities(True))


def test_dropout_stream_replay_deterministic(tiny_split_graph, tiny_data):
    """Replayed dropout/DropNode masks come from (seed, epoch) exactly.

    Two captured runs at the same seed must agree to the bit (the mask
    stream is a pure function of the seeded generator), and a different
    seed must diverge (the masks are actually being re-drawn per epoch,
    not baked into the recorded program).
    """
    for name in ("gcn", "grand"):        # F.dropout and F.drop_node streams
        first, _ = _train(tiny_split_graph, tiny_data, name, seed=11)
        second, _ = _train(tiny_split_graph, tiny_data, name, seed=11)
        other, _ = _train(tiny_split_graph, tiny_data, name, seed=12)
        assert first.capture_used and second.capture_used
        assert first.history == second.history
        assert [h["loss"] for h in first.history] != [h["loss"] for h in other.history]


def test_capture_parity_with_soft_targets_and_alpha(tiny_split_graph, tiny_data):
    """The label-reuse loss mix and fixed layer weights replay identically."""
    rng = np.random.default_rng(0)
    soft = rng.random((tiny_split_graph.num_nodes, tiny_split_graph.num_classes))
    soft /= soft.sum(axis=1, keepdims=True)
    alpha = np.array([0.25, 0.75])

    def run(capture_mode):
        model = build_model("gcn", tiny_data.num_features,
                            tiny_split_graph.num_classes, hidden=16, seed=4)
        config = TrainConfig(lr=0.02, max_epochs=6, patience=50, seed=4,
                             capture=capture_mode)
        result = NodeClassificationTrainer(config).train(
            model, tiny_data, tiny_split_graph.labels,
            tiny_split_graph.mask_indices("train"),
            tiny_split_graph.mask_indices("val"),
            layer_weights=alpha, soft_targets=soft)
        return result, model.forward_inference(tiny_data, layer_weights=alpha)

    dynamic, dynamic_logits = run(False)
    captured, captured_logits = run(True)
    assert captured.capture_used
    assert dynamic.history == captured.history
    assert np.array_equal(dynamic_logits, captured_logits)


# ----------------------------------------------------------------------
# Bail-outs
# ----------------------------------------------------------------------
def test_minibatch_training_bails_to_dynamic(tiny_split_graph, tiny_data):
    capture.reset_engine_stats()
    with pytest.warns(capture.CaptureBailoutWarning, match="minibatch"):
        result, _ = _train(tiny_split_graph, tiny_data, "gcn", batch_size=16)
    assert not result.capture_used
    assert result.capture_plan is None
    stats = capture.engine_stats()
    assert stats["bailouts"] >= 1
    assert "minibatch" in stats["bailout_reasons"]


def test_capture_config_off_uses_dynamic(tiny_split_graph, tiny_data):
    result, _ = _train(tiny_split_graph, tiny_data, "gcn", capture_mode=False)
    assert not result.capture_used


@pytest.mark.parametrize("name", ("gcn", "graphsage-mean"))
def test_static_batches_capture_matches_frozen_dynamic(name, tiny_split_graph,
                                                       tiny_data):
    """Per-batch replays over a frozen schedule are bit-identical to running
    the same frozen schedule through the dynamic engine."""
    dynamic, dynamic_model = _train(tiny_split_graph, tiny_data, name,
                                    capture_mode=False, batch_size=24,
                                    static_batches=True)
    captured, captured_model = _train(tiny_split_graph, tiny_data, name,
                                      capture_mode=True, batch_size=24,
                                      static_batches=True)
    assert captured.capture_used
    assert captured.capture_plan is not None
    assert dynamic.history == captured.history
    assert np.array_equal(dynamic_model.forward_inference(tiny_data),
                          captured_model.forward_inference(tiny_data))


class _UnsupportedOpModel(GNNModel):
    """Routes an op with no replay twin (bce_logits) through its encoder."""

    def __init__(self, in_features, num_classes, hidden=16, num_layers=2,
                 dropout=0.1, seed=0, **kwargs):
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="unsupported", **kwargs)
        from repro.autograd.modules import Linear

        self.linear = Linear(in_features, hidden, rng=self.rng)

    def encode(self, data):
        hidden = self.linear(data.features)
        zeros = np.zeros(hidden.shape)
        penalty = F.binary_cross_entropy_with_logits(hidden, zeros, reduction="none")
        return [hidden + penalty * 0.0, hidden]


def test_unsupported_op_bails_softly(tiny_split_graph, tiny_data):
    model = _UnsupportedOpModel(tiny_data.num_features, tiny_split_graph.num_classes)
    config = TrainConfig(lr=0.02, max_epochs=4, patience=10, seed=0)
    capture.reset_engine_stats()
    with pytest.warns(capture.CaptureBailoutWarning, match="bce_logits"):
        result = NodeClassificationTrainer(config).train(
            model, tiny_data, tiny_split_graph.labels,
            tiny_split_graph.mask_indices("train"),
            tiny_split_graph.mask_indices("val"))
    assert not result.capture_used          # fell back, but trained fine
    assert result.epochs_run == 4
    assert "trace" in capture.engine_stats()["bailout_reasons"]


class _BatchNormModel(GNNModel):
    """A GCN-style encoder with BatchNorm between propagation and readout."""

    def __init__(self, in_features, num_classes, hidden=16, num_layers=2,
                 dropout=0.1, seed=0, **kwargs):
        super().__init__(in_features, num_classes, hidden, num_layers, dropout,
                         "relu", seed, name="with-bn", **kwargs)
        from repro.autograd.modules import BatchNorm, Linear

        self.linear = Linear(in_features, hidden, rng=self.rng)
        self.norm = BatchNorm(hidden)

    def encode(self, data):
        hidden = self.activation(self.linear(data.features))
        normed = self.norm(hidden)
        return [normed, normed]


def test_batchnorm_captures_with_bit_parity(tiny_split_graph, tiny_data):
    """BatchNorm no longer bails out: its running-stat update replays exactly."""

    def run(capture_mode):
        model = _BatchNormModel(tiny_data.num_features, tiny_split_graph.num_classes)
        config = TrainConfig(lr=0.02, max_epochs=6, patience=50, seed=0,
                             capture=capture_mode)
        result = NodeClassificationTrainer(config).train(
            model, tiny_data, tiny_split_graph.labels,
            tiny_split_graph.mask_indices("train"),
            tiny_split_graph.mask_indices("val"))
        return result, model

    dynamic, dynamic_model = run(False)
    captured, captured_model = run(True)
    assert captured.capture_used, "BatchNorm model fell back to dynamic"
    assert dynamic.history == captured.history
    # The effectful bn_stats op must update the *registered buffers* in
    # place, epoch for epoch, exactly as the dynamic module does.
    assert np.array_equal(dynamic_model.norm.running_mean,
                          captured_model.norm.running_mean)
    assert np.array_equal(dynamic_model.norm.running_var,
                          captured_model.norm.running_var)


# ----------------------------------------------------------------------
# Direct Tape/Replay API + arena planning
# ----------------------------------------------------------------------
def _manual_iteration(weight, features, targets, optimizer, scheduler):
    optimizer.zero_grad()
    hidden = (features @ weight).relu()
    logits = hidden @ weight
    loss = F.cross_entropy(logits, targets)
    loss.backward()
    optimizer.step()
    scheduler.step()
    return float(loss.item())


def test_tape_replay_matches_manual_loop():
    rng = np.random.default_rng(0)
    features = Tensor(rng.normal(size=(12, 6)))
    targets = rng.integers(0, 6, size=12)

    def run(replay_epochs):
        weight = Parameter(np.linspace(-0.5, 0.5, 36).reshape(6, 6))
        optimizer = optim.Adam([weight], lr=0.05)
        scheduler = optim.StepLR(optimizer)
        losses = []
        tape = capture.Tape()
        with capture.tracing(tape):
            losses.append(_manual_iteration(weight, features, targets,
                                            optimizer, scheduler))
        replay = tape.finalize(optimizer, scheduler)
        if replay_epochs:
            assert replay is not None, tape.failure
            for _ in range(5):
                losses.append(replay.run_epoch())
        else:
            for _ in range(5):
                losses.append(_manual_iteration(weight, features, targets,
                                                optimizer, scheduler))
        return losses, weight.data.copy()

    dynamic_losses, dynamic_weight = run(replay_epochs=False)
    replay_losses, replay_weight = run(replay_epochs=True)
    assert dynamic_losses == replay_losses
    assert np.array_equal(dynamic_weight, replay_weight)


def test_arena_plan_shares_buffers(tiny_split_graph, tiny_data):
    result, _ = _train(tiny_split_graph, tiny_data, "mlp", max_epochs=5)
    plan = result.capture_plan
    assert result.capture_used
    assert plan["ops_recorded"] >= plan["ops_replayed"]
    assert plan["arena_buffers"] >= 1
    # Lifetime analysis must never allocate more than one buffer per slot,
    # and for the relu-chain MLP some activations die before backward (their
    # masks are saved instead), so buffers are actually shared.
    assert 0 < plan["arena_bytes"] < plan["arena_demand_bytes"]


def test_slice_getitem_is_a_view_not_arena_fodder():
    """Basic (slice) indexing returns a NumPy view of its input buffer.

    The replay planner must treat it like transpose/reshape — extending the
    base buffer's lifetime — or a later op could be handed that storage
    while the view is still live and replay would silently diverge.
    """
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 3)))
    y = Tensor(rng.normal(size=(3, 3)))

    def run(replay_epochs):
        weight = Parameter(np.eye(3) * 0.5)
        optimizer = optim.Adam([weight], lr=0.01)
        scheduler = optim.StepLR(optimizer)

        def iteration():
            optimizer.zero_grad()
            a = x @ weight
            view = a[0:2]                     # basic index: a view of a
            b = y @ weight                    # tempts the arena to reuse a's buffer
            loss = (view * view).sum() + (b * b).sum()
            loss.backward()
            optimizer.step()
            scheduler.step()
            return float(loss.item())

        losses = []
        tape = capture.Tape()
        with capture.tracing(tape):
            losses.append(iteration())
        replay = tape.finalize(optimizer, scheduler)
        for _ in range(4):
            if replay_epochs:
                assert replay is not None, tape.failure
                losses.append(replay.run_epoch())
            else:
                losses.append(iteration())
        return losses

    assert run(False) == run(True)


def test_tracing_is_reentrant_safe():
    with capture.tracing(capture.Tape()):
        with pytest.raises(RuntimeError):
            with capture.tracing(capture.Tape()):
                pass  # pragma: no cover


# ----------------------------------------------------------------------
# Fused cross-entropy (satellite): bit-identical to the old composition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reduction", ("mean", "sum", "none"))
@pytest.mark.parametrize("dtype", ("float64", "float32"))
def test_fused_cross_entropy_matches_composition(reduction, dtype):
    with compute_dtype_scope(dtype):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(9, 5)) * 3.0
        targets = rng.integers(0, 5, size=9)

        fused_in = Tensor(raw, requires_grad=True)
        fused = F.cross_entropy(fused_in, targets, reduction=reduction)

        composed_in = Tensor(raw, requires_grad=True)
        composed = F.nll_loss(F.log_softmax(composed_in, axis=-1), targets,
                              reduction=reduction)

        assert fused.data.dtype == composed.data.dtype
        assert np.array_equal(fused.data, composed.data)

        upstream = np.ones_like(fused.data)
        fused.backward(upstream)
        composed.backward(upstream)
        assert np.array_equal(fused_in.grad, composed_in.grad)


def test_fused_cross_entropy_gradcheck():
    from repro.autograd.gradcheck import gradcheck

    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    targets = rng.integers(0, 4, size=6)
    assert gradcheck(lambda x: F.cross_entropy(x, targets), (logits,))


# ----------------------------------------------------------------------
# Pipeline-level parity: capture on vs off end to end
# ----------------------------------------------------------------------
def test_pipeline_capture_parity(tiny_split_graph):
    from repro.core import AutoHEnsGNN, AutoHEnsGNNConfig
    from repro.core.config import ProxyConfig

    def run(capture_flag):
        config = AutoHEnsGNNConfig(
            candidate_models=["gcn", "mlp"], pool_size=2, ensemble_size=2,
            max_layers=2, search_epochs=4, bagging_splits=1, hidden=16,
            seed=0, capture=capture_flag,
            proxy=ProxyConfig(dataset_fraction=0.5, bagging_rounds=1,
                              hidden_fraction=0.5, max_epochs=4, seed=0))
        config.train = TrainConfig(lr=0.02, max_epochs=5, patience=5, seed=0)
        return AutoHEnsGNN(config).fit_predict(tiny_split_graph)

    dynamic = run(False)
    captured = run(True)
    assert np.array_equal(dynamic.probabilities, captured.probabilities)
    assert dynamic.pool == captured.pool
