"""A discrete GSE depth choice selects its layer state.

``GNNModel.combine_states`` returns ``states[k]`` itself for an exactly
one-hot fixed α instead of running ``F.weighted_sum`` (stack all ``L``
states, multiply by zeros and a one, sum back).  The contracts under test:

* across the zoo, every depth and every selected position, in both compute
  dtypes, ``forward`` is byte-identical to ``head(weighted_sum(encode(...)))``,
* capture-mode training with a non-last one-hot α equals the dynamic engine
  to the bit, and the layers that feed only unselected states are never
  stepped,
* a non-finite unselected state no longer leaks into the output, and any
  other fixed α still goes through the weighted sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.dtype import compute_dtype_scope
from repro.autograd.tensor import Tensor
from repro.core.gse import one_hot_alpha
from repro.nn.data import GraphTensors
from repro.nn.model_zoo import available_models, build_model
from repro.tasks.trainer import NodeClassificationTrainer, TrainConfig


def _weighted_sum_logits(model, data, alpha):
    """The stack-multiply-sum reference for a fixed α."""
    states = model.encode(data)
    return model.head(F.weighted_sum(states, Tensor(alpha))).data


@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", available_models())
def test_one_hot_forward_matches_weighted_sum_bytes(name, dtype, tiny_split_graph):
    with compute_dtype_scope(dtype):
        data = GraphTensors.from_graph(tiny_split_graph)
        for depth in range(1, 5):
            model = build_model(name, data.num_features, tiny_split_graph.num_classes,
                                hidden=16, num_layers=depth, seed=depth)
            model.eval()
            for chosen in range(1, model.num_layers + 1):
                alpha = one_hot_alpha(model.num_layers, chosen)
                selected = model(data, layer_weights=alpha).data
                reference = _weighted_sum_logits(model, data, alpha)
                assert selected.dtype == np.dtype(dtype)
                assert selected.tobytes() == reference.tobytes(), \
                    (name, depth, chosen)


def _train(name, data, graph, alpha, capture_mode):
    model = build_model(name, data.num_features, graph.num_classes,
                        hidden=16, num_layers=len(alpha), seed=5)
    initial = {key: value.copy() for key, value in model.state_dict().items()}
    config = TrainConfig(lr=0.02, max_epochs=6, patience=50, seed=5,
                         capture=capture_mode)
    result = NodeClassificationTrainer(config).train(
        model, data, graph.labels, graph.mask_indices("train"),
        graph.mask_indices("val"), layer_weights=alpha)
    return result, model, initial


# Stacked-convolution models: the convolutions after the selected one feed
# no prediction.  SGC and APPNP propagate after their only trained layers.
_FROZEN_AFTER_LAYER_1 = {"gcn": ("convs.1.", "convs.2."),
                         "gat": ("convs.1.", "convs.2."),
                         "sgc": (), "appnp": ()}


@pytest.mark.parametrize("name", sorted(_FROZEN_AFTER_LAYER_1))
def test_capture_matches_dynamic_with_an_early_layer_selected(name, tiny_split_graph,
                                                             tiny_data):
    alpha = one_hot_alpha(3, 1)
    dynamic, dynamic_model, initial = _train(name, tiny_data, tiny_split_graph,
                                             alpha, capture_mode=False)
    captured, captured_model, _ = _train(name, tiny_data, tiny_split_graph,
                                         alpha, capture_mode=True)
    assert captured.capture_used, f"{name} fell back to the dynamic engine"
    assert dynamic.history == captured.history
    assert np.array_equal(dynamic_model.forward_inference(tiny_data, layer_weights=alpha),
                          captured_model.forward_inference(tiny_data, layer_weights=alpha))
    dynamic_state = dynamic_model.state_dict()
    captured_state = captured_model.state_dict()
    assert dynamic_state.keys() == captured_state.keys()
    for key in dynamic_state:
        assert np.array_equal(dynamic_state[key], captured_state[key]), key
    # Unselected-only layers get no gradient, so Adam never steps them (not
    # even by weight decay); every other parameter was trained.
    frozen = _FROZEN_AFTER_LAYER_1[name]
    for key, value in captured_state.items():
        assert np.array_equal(value, initial[key]) == key.startswith(frozen), key


def test_non_finite_unselected_state_stays_out_of_the_output(tiny_split_graph,
                                                            tiny_data):
    model = build_model("gcn", tiny_data.num_features, tiny_split_graph.num_classes,
                        hidden=16, num_layers=2, seed=0)
    encode = model.encode

    def poisoned_encode(data):
        states = encode(data)
        states[1].data[0, 0] = np.inf
        return states

    model.encode = poisoned_encode
    alpha = one_hot_alpha(2, 1)
    assert np.isfinite(model.forward_inference(tiny_data, layer_weights=alpha)).all()
    # The stack-multiply-sum turned the unselected inf into a NaN (0 * inf).
    with np.errstate(invalid="ignore"):
        assert np.isnan(_weighted_sum_logits(model, tiny_data, alpha)[0]).any()


@pytest.mark.parametrize("alpha", ([0.0, 2.0], [0.5, 0.5], [1.0, 1.0]))
def test_other_fixed_weights_keep_the_weighted_sum(alpha):
    rng = np.random.default_rng(0)
    states = [Tensor(rng.random((4, 3))), Tensor(rng.random((4, 3)))]
    model = build_model("gcn", 3, 2, hidden=3, num_layers=2, seed=0)
    combined = model.combine_states(states, alpha)
    expected = F.weighted_sum(states, Tensor(np.asarray(alpha))).data
    assert np.array_equal(combined.data, expected)
