"""Graph-program IR tests (repro.autograd.ir).

The IR contract: lowering a traced tape to a Program, verifying it and
replaying it must leave the trajectory bit-identical to the dynamic engine.
These tests pin the verifier's structural invariants, replay bit-identity,
the fused ``spmm_bias_act`` leaky_relu/elu activations, inference stripping
and the arena pool's cross-member reuse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, gradcheck, optim, sparse
from repro.autograd.capture import (CaptureBailout, Tape,
                                    build_inference_replay, tracing)
from repro.autograd.ir import (ArenaPool, IRVerificationError, OpImpl,
                               OpRecord, Program, SlotInfo, global_pool,
                               mark_variance, pooling_disabled, verify_program)
from repro.autograd.module import Parameter
from repro.autograd.sparse import SparseTensor


def _operator(n=14, seed=0):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.25).astype(float)
    dense /= np.maximum(dense.sum(axis=1, keepdims=True), 1.0)
    return SparseTensor(dense)


def _fixture(seed=0, n=14, f=6, h=5, c=3):
    rng = np.random.default_rng(seed)
    operator = _operator(n, seed)
    features = Tensor(rng.normal(size=(n, f)))
    targets = rng.integers(0, c, size=n)
    return operator, features, targets


def _make_params(f=6, h=5, c=3, seed=1):
    rng = np.random.default_rng(seed)
    w1 = Parameter(rng.normal(size=(f, h)) * 0.3)
    b1 = Parameter(np.zeros(h))
    w2 = Parameter(rng.normal(size=(h, c)) * 0.3)
    return w1, b1, w2


def _iteration(operator, features, targets, params, optimizer, scheduler, rng):
    """One step: dropout, ``spmm → matmul → add(bias) → relu``, then
    ``matmul → leaky_relu → dropout`` into the loss."""
    w1, b1, w2 = params
    optimizer.zero_grad()
    h = F.dropout(features, 0.15, training=True, rng=rng)
    h = sparse.spmm(operator, h)
    h = h @ w1
    h = h + b1
    h = F.relu(h)
    h = F.leaky_relu(h @ w2)
    h = F.dropout(h, 0.25, training=True, rng=rng)
    loss = F.cross_entropy(h, targets)
    loss.backward()
    optimizer.step()
    scheduler.step()
    return float(loss.item()), h


def _run(epochs=5, seed=0, replay=True):
    """Trace one iteration, then replay (or re-run dynamically) ``epochs``."""
    operator, features, targets = _fixture(seed)
    params = _make_params(seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    optimizer = optim.Adam(list(params), lr=0.05)
    scheduler = optim.StepLR(optimizer)
    losses = []
    tape = Tape()
    with tracing(tape):
        loss, logits = _iteration(operator, features, targets, params,
                                  optimizer, scheduler, rng)
    losses.append(loss)
    tape.mark_output(logits)
    program = None
    if replay:
        rep = tape.finalize(optimizer, scheduler)
        assert rep is not None, tape.failure
        program = rep
        for _ in range(epochs):
            losses.append(rep.run_epoch())
    else:
        for _ in range(epochs):
            loss, _ = _iteration(operator, features, targets, params,
                                 optimizer, scheduler, rng)
            losses.append(loss)
    weights = [p.data.copy() for p in params]
    if program is not None:
        # Buffers go back to the pool; the Replay object itself stays
        # readable (plan, program, forward_ops) for the assertions.
        program.release()
    return losses, weights, program


# ----------------------------------------------------------------------
# Verifier
# ----------------------------------------------------------------------
def _noop_impl():
    return OpImpl("noop", forward=lambda op, rt: None)


def _slot(index, shape=(2,), **kwargs):
    return SlotInfo(index=index, shape=shape, dtype=np.dtype(float),
                    requires_grad=False, **kwargs)


def _op(impl, out, ins):
    return OpRecord(kind=impl.kind, impl=impl, out=out, ins=tuple(ins),
                    prev=tuple(ins), in_requires=(False,) * len(ins),
                    in_shapes=((2,),) * len(ins), needs_backward=False)


def test_verifier_accepts_traced_program():
    _, _, replay = _run(epochs=1)
    verify_program(replay.program)          # idempotent re-verification


def test_verifier_rejects_redefinition():
    impl = _noop_impl()
    slots = [_slot(0), _slot(1)]
    op1, op2 = _op(impl, 1, [0]), _op(impl, 1, [0])
    slots[1].producer = op1
    program = Program(slots=slots, ops=[op1, op2])
    with pytest.raises(IRVerificationError, match="redefines"):
        verify_program(program)


def test_verifier_rejects_read_before_definition():
    impl = _noop_impl()
    slots = [_slot(0), _slot(1), _slot(2)]
    op1, op2 = _op(impl, 1, [2]), _op(impl, 2, [0])
    slots[1].producer, slots[2].producer = op1, op2
    program = Program(slots=slots, ops=[op1, op2])
    with pytest.raises(IRVerificationError, match="before definition"):
        verify_program(program)


def test_mark_variance_propagates_from_parameters():
    impl = _noop_impl()
    slots = [_slot(0), _slot(1), _slot(2), _slot(3)]
    slots[0].requires_grad = True
    op1, op2 = _op(impl, 2, [0]), _op(impl, 3, [1])
    slots[2].producer, slots[3].producer = op1, op2
    program = Program(slots=slots, ops=[op1, op2])
    mark_variance(program)
    assert slots[0].variant and slots[2].variant          # downstream of a param
    assert not slots[1].variant and not slots[3].variant  # pure constant chain


# ----------------------------------------------------------------------
# Replay bit-identity
# ----------------------------------------------------------------------
PASS_CONFIGS = {
    # The shipped IR step: mark_variance, then verify_program.
    "default": None,
    # Variance marking alone, the least replay needs: verification must
    # only read the program, never change what it schedules.
    "no-passes": mark_variance,
}


@pytest.mark.parametrize("name", sorted(PASS_CONFIGS))
def test_each_pass_is_bit_identical(name, monkeypatch):
    from repro.autograd import capture

    dynamic_losses, dynamic_weights, _ = _run(replay=False)
    if PASS_CONFIGS[name] is not None:
        monkeypatch.setattr(capture, "run_passes", PASS_CONFIGS[name])
    losses, weights, _ = _run()
    assert losses == dynamic_losses
    for got, want in zip(weights, dynamic_weights):
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Fused leaky_relu / elu activations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("activation", ["leaky_relu", "elu"])
def test_fused_activation_matches_composed_ops(activation):
    from repro.autograd import kernels

    operator, features, _ = _fixture(seed=4)
    w = Parameter(np.random.default_rng(5).normal(size=(6, 4)))
    b = Parameter(np.linspace(-0.5, 0.5, 4))
    act = F.leaky_relu if activation == "leaky_relu" else F.elu

    fused = kernels.spmm_bias_act(operator, features, w, b, activation)
    composed = act(sparse.spmm(operator, features @ w) + b)
    assert np.array_equal(fused.data, composed.data)

    fused.sum().backward()
    fused_grads = [w.grad.copy(), b.grad.copy()]
    w.grad = b.grad = None
    composed.sum().backward()
    assert np.array_equal(fused_grads[0], w.grad)
    assert np.array_equal(fused_grads[1], b.grad)


@pytest.mark.parametrize("activation", ["leaky_relu", "elu"])
def test_fused_activation_gradcheck(activation):
    from repro.autograd import kernels

    operator, features, _ = _fixture(seed=6)
    x = Tensor(features.data.copy(), requires_grad=True)
    w = Parameter(np.random.default_rng(7).normal(size=(6, 4)) * 0.5)
    b = Parameter(np.linspace(-0.3, 0.3, 4))
    assert gradcheck(
        lambda x, w, b: kernels.spmm_bias_act(operator, x, w, b, activation).sum(),
        [x, w, b])


# ----------------------------------------------------------------------
# Inference stripping (dead-slot elimination)
# ----------------------------------------------------------------------
def test_inference_replay_strips_training_state():
    _, _, replay = _run(epochs=2)
    inference = build_inference_replay(replay)
    assert inference is not None
    # No backward schedule, no gradient accumulators, no optimizer mirrors.
    assert not hasattr(inference, "backward_ops")
    assert not hasattr(inference, "grads")
    assert not hasattr(inference, "optimizer")
    # Stochastic regularisers are rewired out of the stripped program.
    kinds = {op.kind for op in inference.forward_ops}
    assert not kinds & {"dropout", "drop_node"}
    # The forward-only live set can never need more arena than training.
    assert inference.plan["arena_bytes"] <= replay.plan["arena_bytes"]


def test_inference_replay_matches_eval_forward():
    operator, features, targets = _fixture(seed=8)
    params = _make_params(seed=9)
    rng = np.random.default_rng(10)
    optimizer = optim.Adam(list(params), lr=0.05)
    scheduler = optim.StepLR(optimizer)
    tape = Tape()
    with tracing(tape):
        _, logits = _iteration(operator, features, targets, params,
                               optimizer, scheduler, rng)
    tape.mark_output(logits)
    replay = tape.finalize(optimizer, scheduler)
    assert replay is not None, tape.failure
    inference = build_inference_replay(replay)
    assert inference is not None

    def eval_forward():
        w1, b1, w2 = params
        h = operator.matrix @ features.data
        h = np.maximum(h @ w1.data + b1.data, 0.0)
        h = h @ w2.data
        return np.where(h > 0, h, 0.2 * h)          # eval mode: no dropout

    assert np.array_equal(inference.run(), eval_forward())
    replay.run_epoch()                               # params move in place
    assert np.array_equal(inference.run(), eval_forward())


def test_inference_replay_bails_on_shape_change():
    _, _, replay = _run(epochs=1)
    inference = build_inference_replay(replay)
    slot, tensor = inference.leaves[0]
    original = tensor.data
    try:
        tensor.data = np.zeros(tuple(s + 1 for s in original.shape),
                               original.dtype)
        with pytest.warns(Warning, match="changed"):
            with pytest.raises(CaptureBailout):
                inference.run()
    finally:
        tensor.data = original


# ----------------------------------------------------------------------
# Arena pool
# ----------------------------------------------------------------------
def test_arena_pool_reuses_released_buffers():
    pool = ArenaPool()
    first = pool.lease((8, 4), np.float64)
    pool.release([first])
    second = pool.lease((8, 4), np.float64)
    assert second is first
    other = pool.lease((8, 5), np.float64)
    assert other is not first
    stats = pool.stats()
    assert stats["leases"] == 3
    assert stats["reuses"] == 1
    assert stats["reused_bytes"] == first.nbytes


def test_arena_pool_disabled_never_recycles():
    pool = ArenaPool()
    first = pool.lease((8, 4), np.float64)
    pool.release([first])
    with pooling_disabled(pool):
        second = pool.lease((8, 4), np.float64)
        assert second is not first
    assert pool.enabled


def test_arena_pool_bounds_retained_bytes():
    pool = ArenaPool(max_retained_bytes=100)
    big = pool.lease((64, 64), np.float64)
    pool.release([big])
    assert pool.stats()["retained_bytes"] == 0      # dropped, over the bound
    small = pool.lease((2,), np.float64)
    pool.release([small])
    assert pool.stats()["retained_bytes"] == small.nbytes


def test_sequential_replays_share_pool_storage():
    pool = global_pool()
    pool.clear()
    pool.reset_stats()
    base_outstanding = pool.stats()["outstanding_bytes"]
    for seed in range(3):
        _run(epochs=2, seed=seed)      # releases on return
    stats = pool.stats()
    assert stats["reuses"] > 0
    # Members 2 and 3 recycle member 1's storage: the peak of simultaneously
    # leased bytes stays at one program's footprint, far below the total
    # demand the three programs expressed.
    demand = stats["allocated_bytes"] + stats["reused_bytes"]
    assert stats["high_water_bytes"] - base_outstanding < demand
    assert stats["outstanding_bytes"] == base_outstanding
