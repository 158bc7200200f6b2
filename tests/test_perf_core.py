"""Tests for the allocation-lean compute core.

Covers the four tentpole pieces of the dtype/kernels/optimizer/inference
rework: the process-wide compute-dtype policy, the fused ``spmm_bias_act``
kernel in both association orders, the in-place optimizer steps, and the
``forward_inference`` path (asserted equal to the Tensor forward for every
model in the zoo), plus the trainer's final-epoch evaluation fix.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import functional as F
from repro.autograd import kernels, optim
from repro.autograd.dtype import (
    compute_dtype,
    compute_dtype_scope,
    set_compute_dtype,
)
from repro.autograd.gradcheck import gradcheck
from repro.autograd.module import Parameter
from repro.autograd.sparse import SparseTensor
from repro.autograd.tensor import Tensor, no_grad
from repro.datasets.generators import SBMConfig, make_attributed_sbm
from repro.graph.splits import holdout_test_split, random_split
from repro.nn.data import GraphTensors
from repro.nn.model_zoo import MODEL_ZOO, build_model
from repro.parallel.cache import ComputeCache, set_compute_cache
from repro.tasks.trainer import NodeClassificationTrainer, TrainConfig


def _small_operator(n=6, seed=0) -> SparseTensor:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.4) * rng.random((n, n))
    return SparseTensor(sp.csr_matrix(dense))


def _fresh_graph_and_data(num_nodes=120, seed=7):
    config = SBMConfig(num_nodes=num_nodes, num_classes=3, num_features=16,
                       average_degree=4.0, homophily=0.85,
                       feature_informativeness=0.5, seed=seed, name="perf")
    graph = make_attributed_sbm(config)
    graph = holdout_test_split(graph, test_fraction=0.2, seed=3)
    graph = random_split(graph, val_fraction=0.25, seed=3,
                         labelled_pool=graph.metadata["labelled_pool"])
    return graph, GraphTensors.from_graph(graph)


# ---------------------------------------------------------------------------
# Dtype policy
# ---------------------------------------------------------------------------
class TestDtypePolicy:
    def test_default_is_float64(self):
        assert compute_dtype() == np.dtype(np.float64)

    def test_scope_switches_and_restores(self):
        with compute_dtype_scope("float32"):
            assert compute_dtype() == np.dtype(np.float32)
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        assert compute_dtype() == np.dtype(np.float64)

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValueError):
            set_compute_dtype("int32")

    def test_tensor_grad_matches_dtype(self):
        with compute_dtype_scope("float32"):
            x = Tensor(np.ones(4), requires_grad=True)
            (x * x).sum().backward()
            assert x.grad.dtype == np.float32

    def test_sparse_tensor_follows_policy(self):
        dense = np.eye(4)
        with compute_dtype_scope("float32"):
            assert SparseTensor(dense).matrix.dtype == np.float32
        assert SparseTensor(dense).matrix.dtype == np.float64

    def test_graph_tensors_and_cache_are_dtype_keyed(self):
        set_compute_cache(ComputeCache())
        try:
            _, data64 = _fresh_graph_and_data()
            with compute_dtype_scope("float32"):
                _, data32 = _fresh_graph_and_data()
            assert data64.features.dtype == np.float64
            assert data64.adj_sym.matrix.dtype == np.float64
            assert data32.features.dtype == np.float32
            assert data32.adj_sym.matrix.dtype == np.float32
            # Same structure, different dtype: both live in the cache at once.
            np.testing.assert_allclose(
                data32.adj_sym.matrix.toarray(),
                data64.adj_sym.matrix.toarray().astype(np.float32), rtol=1e-6)
        finally:
            set_compute_cache(ComputeCache())

    def test_initializers_consume_same_rng_stream(self):
        from repro.autograd import init

        sample64 = init.glorot_uniform((5, 3), rng=np.random.default_rng(0))
        with compute_dtype_scope("float32"):
            sample32 = init.glorot_uniform((5, 3), rng=np.random.default_rng(0))
        assert sample32.dtype == np.float32
        np.testing.assert_allclose(sample32, sample64.astype(np.float32), rtol=0)


# ---------------------------------------------------------------------------
# Fused / ordered kernels
# ---------------------------------------------------------------------------
class TestFusedKernels:
    def test_ordering_decision(self):
        operator = _small_operator()
        assert kernels.propagate_first(operator, 3, 8)      # f < h
        assert not kernels.propagate_first(operator, 8, 3)  # f > h
        assert not kernels.propagate_first(operator, 4, 4)  # tie keeps seed order

    @pytest.mark.parametrize("shape", [(3, 8), (8, 3)])  # both orderings
    @pytest.mark.parametrize("activation", [None, "relu"])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_gradcheck_both_orderings(self, shape, activation, with_bias):
        rng = np.random.default_rng(1)
        operator = _small_operator()
        x = Tensor(rng.normal(size=(6, shape[0])), requires_grad=True)
        weight = Tensor(rng.normal(size=shape), requires_grad=True)
        inputs = [x, weight]
        bias = None
        if with_bias:
            bias = Tensor(rng.normal(size=(shape[1],)), requires_grad=True)
            inputs.append(bias)

        def func(*tensors):
            b = tensors[2] if with_bias else None
            return kernels.spmm_bias_act(operator, tensors[0], tensors[1], b,
                                         activation).sum()

        assert gradcheck(func, inputs)

    def test_both_orderings_agree_numerically(self):
        rng = np.random.default_rng(2)
        operator = _small_operator()
        x = rng.normal(size=(6, 3))
        weight = rng.normal(size=(3, 8))
        bias = rng.normal(size=(8,))
        prop_first, _ = kernels.spmm_bias_act_forward(
            operator.matrix, x, weight, bias, None, True)
        transform_first, _ = kernels.spmm_bias_act_forward(
            operator.matrix, x, weight, bias, None, False)
        np.testing.assert_allclose(prop_first, transform_first, rtol=1e-12)

    def test_tensor_and_array_paths_match_exactly(self):
        rng = np.random.default_rng(3)
        operator = _small_operator()
        x = rng.normal(size=(6, 3))
        weight = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        bias = Tensor(rng.normal(size=(8,)), requires_grad=True)
        out = kernels.spmm_bias_act(operator, Tensor(x), weight, bias, "relu")
        raw, _ = kernels.spmm_bias_act_forward(
            operator.matrix, x, weight.data, bias.data, "relu",
            kernels.propagate_first(operator, 3, 8))
        assert np.array_equal(out.data, raw)

    def test_rejects_unfusable_activation(self):
        operator = _small_operator()
        with pytest.raises(ValueError):
            kernels.spmm_bias_act(operator, Tensor(np.ones((6, 3))),
                                  Tensor(np.ones((3, 4))), activation="tanh")

    def test_gcn_conv_uses_fused_kernel_gradients(self, tiny_data):
        from repro.nn.layers.convolutional import GCNConv

        # in < out exercises propagate-first inside a real layer.
        conv = GCNConv(tiny_data.num_features, 32, rng=np.random.default_rng(0))
        out = conv(tiny_data.features, tiny_data)
        (out * out).sum().backward()
        assert conv.linear.weight.grad is not None
        assert conv.linear.bias.grad is not None
        assert np.isfinite(conv.linear.weight.grad).all()


# ---------------------------------------------------------------------------
# In-place optimisers
# ---------------------------------------------------------------------------
def _reference_adam_step(param, grad, m, v, step, lr, beta1, beta2, eps, weight_decay):
    if weight_decay:
        grad = grad + weight_decay * param
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestInPlaceOptimizers:
    def test_adam_matches_reference(self):
        rng = np.random.default_rng(0)
        param = Parameter(rng.normal(size=(4, 3)))
        reference = param.data.copy()
        m = np.zeros_like(reference)
        v = np.zeros_like(reference)
        optimizer = optim.Adam([param], lr=0.05, weight_decay=5e-4)
        for step in range(1, 6):
            grad = rng.normal(size=(4, 3))
            param.grad = grad.copy()
            optimizer.step()
            reference, m, v = _reference_adam_step(
                reference, grad, m, v, step, 0.05, optimizer.beta1,
                optimizer.beta2, optimizer.eps, optimizer.weight_decay)
            param.zero_grad()
        np.testing.assert_allclose(param.data, reference, rtol=1e-12)

    def test_sgd_momentum_matches_reference(self):
        rng = np.random.default_rng(1)
        param = Parameter(rng.normal(size=(5,)))
        reference = param.data.copy()
        velocity = np.zeros_like(reference)
        optimizer = optim.SGD([param], lr=0.1, momentum=0.9, weight_decay=1e-3)
        for _ in range(5):
            grad = rng.normal(size=(5,))
            param.grad = grad.copy()
            optimizer.step()
            decayed = grad + 1e-3 * reference
            velocity = 0.9 * velocity + decayed
            reference = reference - 0.1 * velocity
            param.zero_grad()
        np.testing.assert_allclose(param.data, reference, rtol=1e-12)

    def test_step_updates_parameters_in_place(self):
        param = Parameter(np.ones((3, 3)))
        buffer_before = param.data
        optimizer = optim.Adam([param], lr=0.01)
        param.grad = np.full((3, 3), 0.5)
        optimizer.step()
        assert param.data is buffer_before  # no rebinding, pure in-place

    def test_zero_grad_recycles_gradient_buffer(self):
        param = Parameter(np.ones(8))

        def run_backward():
            (Tensor(np.arange(8.0)) * param).sum().backward()

        run_backward()
        first_buffer = param.grad
        expected = np.arange(8.0)
        np.testing.assert_array_equal(param.grad, expected)
        param.zero_grad()
        assert param.grad is None
        run_backward()
        assert param.grad is first_buffer  # buffer recycled, not reallocated
        np.testing.assert_array_equal(param.grad, expected)

    def test_accumulation_still_correct_with_inplace_add(self):
        x = Tensor(np.ones(4), requires_grad=True)
        loss = (x * 2.0).sum() + (x * 3.0).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 5.0))


# ---------------------------------------------------------------------------
# Trainer: final-epoch evaluation + fast-path evaluate
# ---------------------------------------------------------------------------
class TestTrainerEvaluation:
    def test_final_epoch_evaluated_with_sparse_cadence(self, tiny_split_graph, tiny_data):
        config = TrainConfig(lr=0.02, max_epochs=10, patience=50, evaluate_every=7, seed=0)
        model = build_model("gcn", tiny_data.num_features, tiny_split_graph.num_classes,
                           hidden=16, seed=0)
        trainer = NodeClassificationTrainer(config)
        result = trainer.train(model, tiny_data, tiny_split_graph.labels,
                               tiny_split_graph.mask_indices("train"),
                               tiny_split_graph.mask_indices("val"))
        evaluated_epochs = [entry["epoch"] for entry in result.history]
        # Epochs 0 and 7 by cadence — and the final trained epoch 9, which
        # the seed implementation silently dropped.
        assert evaluated_epochs == [0.0, 7.0, 9.0]
        assert result.epochs_run == 10
        assert result.best_epoch in (0, 7, 9)

    def test_evaluate_matches_tensor_forward(self, tiny_split_graph, tiny_data):
        model = build_model("gat", tiny_data.num_features, tiny_split_graph.num_classes,
                           hidden=16, seed=0)
        val_index = tiny_split_graph.mask_indices("val")
        fast = NodeClassificationTrainer.evaluate(model, tiny_data,
                                                  tiny_split_graph.labels, val_index)
        model.eval()
        with no_grad():
            logits = model(tiny_data).data
        from repro.tasks.metrics import accuracy

        assert fast == accuracy(logits[val_index], tiny_split_graph.labels[val_index])


# ---------------------------------------------------------------------------
# Inference fast path
# ---------------------------------------------------------------------------
class TestInferenceFastPath:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_every_zoo_model_matches_tensor_forward(self, dtype):
        set_compute_cache(ComputeCache())
        try:
            with compute_dtype_scope(dtype):
                graph, data = _fresh_graph_and_data()
                for name in sorted(MODEL_ZOO):
                    model = build_model(name, data.num_features, graph.num_classes,
                                        hidden=16, seed=0)
                    model.eval()
                    with no_grad():
                        reference = model(data).data
                    fast = model.forward_inference(data)
                    assert fast.dtype == np.dtype(dtype), name
                    assert np.array_equal(reference, fast), name
        finally:
            set_compute_cache(ComputeCache())

    def test_layer_weights_variants_match(self, tiny_split_graph, tiny_data):
        model = build_model("tagcn", tiny_data.num_features, tiny_split_graph.num_classes,
                           hidden=16, seed=0)
        model.eval()
        one_hot = np.zeros(model.num_layers)
        one_hot[0] = 1.0
        trainable = Tensor(np.linspace(-1.0, 1.0, model.num_layers), requires_grad=True)
        for weights in (one_hot, trainable):
            with no_grad():
                reference = model(tiny_data, layer_weights=weights).data
            fast = model.forward_inference(tiny_data, layer_weights=weights)
            assert np.array_equal(reference, fast)

    def test_predict_proba_uses_fast_path_and_matches(self, tiny_split_graph, tiny_data):
        model = build_model("gcn", tiny_data.num_features, tiny_split_graph.num_classes,
                           hidden=16, seed=0)
        model.eval()
        with no_grad():
            reference = F.softmax(model(tiny_data), axis=-1).data
        assert np.array_equal(model.predict_proba(tiny_data), reference)

    def test_forward_inference_restores_training_mode(self, tiny_split_graph, tiny_data):
        model = build_model("gcn", tiny_data.num_features, tiny_split_graph.num_classes,
                           hidden=16, seed=0)
        model.train()
        model.forward_inference(tiny_data)
        assert model.training
        assert model.dropout.training


# ---------------------------------------------------------------------------
# float32 vs float64 parity and determinism
# ---------------------------------------------------------------------------
class TestFloat32Parity:
    def test_untrained_logits_close_across_dtypes(self):
        set_compute_cache(ComputeCache())
        try:
            _, data64 = _fresh_graph_and_data()
            model64 = build_model("gcn", data64.num_features, 3, hidden=16, seed=0)
            logits64 = model64.forward_inference(data64)
            with compute_dtype_scope("float32"):
                _, data32 = _fresh_graph_and_data()
                model32 = build_model("gcn", data32.num_features, 3, hidden=16, seed=0)
                logits32 = model32.forward_inference(data32)
            np.testing.assert_allclose(logits32, logits64, rtol=1e-4, atol=1e-4)
        finally:
            set_compute_cache(ComputeCache())

    def test_trained_accuracy_close_across_dtypes(self):
        set_compute_cache(ComputeCache())
        accuracies = {}
        try:
            for dtype in ("float64", "float32"):
                with compute_dtype_scope(dtype):
                    graph, data = _fresh_graph_and_data()
                    model = build_model("gcn", data.num_features, graph.num_classes,
                                        hidden=16, seed=0)
                    config = TrainConfig(lr=0.02, max_epochs=15, patience=15, seed=0)
                    result = NodeClassificationTrainer(config).train(
                        model, data, graph.labels,
                        graph.mask_indices("train"), graph.mask_indices("val"))
                    accuracies[dtype] = result.best_val_accuracy
        finally:
            set_compute_cache(ComputeCache())
        assert abs(accuracies["float32"] - accuracies["float64"]) <= 0.1

    def test_float32_serial_thread_process_bitwise_equal(self):
        from repro.core.gse import GraphSelfEnsemble

        set_compute_cache(ComputeCache())
        try:
            with compute_dtype_scope("float32"):
                graph, data = _fresh_graph_and_data()
                config = TrainConfig(lr=0.02, max_epochs=8, patience=8, seed=0)
                outputs = {}
                for backend in ("serial", "thread", "process"):
                    gse = GraphSelfEnsemble(spec_name="gcn", num_members=2, hidden=16,
                                            num_layers=2, base_seed=5)
                    gse.fit(data, graph.labels, graph.mask_indices("train"),
                            graph.mask_indices("val"), train_config=config,
                            num_classes=graph.num_classes, backend=backend)
                    outputs[backend] = gse.predict_proba(data)
                assert outputs["serial"].dtype == np.float32
                assert np.array_equal(outputs["serial"], outputs["thread"])
                assert np.array_equal(outputs["serial"], outputs["process"])
        finally:
            set_compute_cache(ComputeCache())
