"""Capture-and-replay execution of full-batch training iterations.

The dynamic engine (:mod:`repro.autograd.tensor`) rebuilds the same autograd
graph every epoch: fresh ``Tensor`` wrappers, fresh ``_backward`` closures and
fresh output/gradient allocations per op.  For full-batch training — one
optimiser step per epoch over a fixed graph — every epoch executes the *same*
program on the same shapes, so that per-epoch graph construction is pure
overhead.

This module removes it with a record-once / replay-many scheme:

1. **Trace** — the first epoch runs unmodified through the dynamic engine
   while a thread-local :class:`Tape` observes every op (kind, input/output
   *slots*, metadata such as axes, indices or sparse operands).  Tracing is
   purely observational: the traced epoch is bit-for-bit a dynamic epoch.
2. **Plan** — :meth:`Tape.finalize` turns the recording into a flat program.
   Slots whose value cannot change across epochs (pure functions of the
   graph constants) are folded into cached arrays; the remaining *variant*
   slots get buffers from an **arena** planned by lifetime analysis over the
   forward+backward program, so buffers whose live ranges do not overlap
   share storage and no per-epoch activation allocation remains for the
   ``out=``-capable ops.
3. **Replay** — every later epoch executes the program with plain ndarray
   kernels: no ``Tensor`` objects, no closures, no topological sort (the
   backward schedule is the mirror of the dynamic engine's DFS order, fixed
   at plan time).  Only the epoch-variant inputs are refreshed: parameter
   values (updated in place by the optimiser), dropout/DropNode masks drawn
   from the *same* seeded generator stream the dynamic engine would consume,
   and the learning-rate schedule.

Replayed epochs are **bit-identical** to dynamic epochs: every replay kernel
mirrors the exact NumPy expressions (and their evaluation order) of its
dynamic twin, and gradient accumulation follows the same first-write-copy /
then-add discipline in the same DFS order.  ``tests/test_capture.py`` asserts
this across the whole model zoo, all execution backends and both compute
dtypes.

Between trace and replay the recording is lowered to the graph-program IR
(:mod:`repro.autograd.ir`): its epoch variance is marked and the program
verified (:func:`~repro.autograd.ir.passes.run_passes`), and its arena is
planned through the process-wide buffer pool
(:mod:`repro.autograd.ir.arena`) so ensemble members share storage.
:func:`build_inference_replay` derives a forward-only program (no backward
schedule, no gradient or optimizer slots) for validation/serve paths.

Ops without a registered replay twin make the tape *fail softly*: training
continues on the dynamic path, now with a :class:`CaptureBailoutWarning`
and a counter on :func:`engine_stats` so the fallback is observable.
``BatchNorm`` records its running-stat update as an effectful ``bn_stats``
op and captures like everything else; fixed-shape minibatch regimes capture
per-batch programs when ``TrainConfig.static_batches`` is set.
"""

from __future__ import annotations

import contextlib
import threading
import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd import kernels as _kernels
from repro.autograd import tensor as _tensor
from repro.autograd.ir.arena import global_pool, plan_arena
from repro.autograd.ir.passes import run_passes, strip_training
from repro.autograd.ir.program import (OpImpl, OpRecord, Program, SlotInfo,
                                       verify_program)
from repro.autograd.tensor import Tensor, _as_array, _reduce_extra_dims, _unbroadcast


class CaptureBailout(RuntimeError):
    """Raised when a replay precondition breaks (e.g. an input changed shape)."""


class CaptureBailoutWarning(RuntimeWarning):
    """A capture opportunity was abandoned and training fell back to dynamic."""


def _fresh_stats() -> Dict[str, object]:
    return {"traces": 0, "replays": 0, "bailouts": 0, "bailout_reasons": {}}


_STATS_LOCK = threading.Lock()
_STATS = _fresh_stats()


def note_bailout(reason: str, detail: str = "", warn: bool = True) -> None:
    """Count (and by default warn about) one abandoned capture opportunity."""
    with _STATS_LOCK:
        _STATS["bailouts"] += 1
        reasons = _STATS["bailout_reasons"]
        reasons[reason] = reasons.get(reason, 0) + 1
    if warn:
        warnings.warn(f"capture bailout ({reason}): {detail}",
                      CaptureBailoutWarning, stacklevel=3)


def engine_stats() -> Dict[str, object]:
    """Snapshot of this process's capture-engine counters."""
    with _STATS_LOCK:
        out = dict(_STATS)
        out["bailout_reasons"] = dict(out["bailout_reasons"])
        return out


def reset_engine_stats() -> None:
    global _STATS
    with _STATS_LOCK:
        _STATS = _fresh_stats()


try:  # pragma: no cover - scipy always ships _sparsetools today
    from scipy.sparse import _sparsetools as _csr_tools
except ImportError:  # pragma: no cover
    _csr_tools = None


def _csr_into(matrix, dense: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``matrix @ dense`` written into ``out`` without scipy's dispatch.

    ``csr_matvecs`` is exactly the kernel ``csr_matrix.__matmul__`` runs (it
    accumulates into a zeroed result), so values are bit-identical; skipping
    the wrapper avoids one result allocation and the per-call Python
    dispatch, which the dynamic engine pays on every spmm of every epoch.
    """
    if _csr_tools is None or dense.ndim != 2 or matrix.dtype != dense.dtype \
            or not out.flags.c_contiguous:
        np.copyto(out, matrix @ dense)
        return out
    out.fill(0)
    _csr_tools.csr_matvecs(matrix.shape[0], matrix.shape[1], dense.shape[1],
                           matrix.indptr, matrix.indices, matrix.data,
                           dense.ravel(), out.ravel())
    return out


def _state_buffer(op: "OpRecord", key: str, shape: tuple, dtype) -> np.ndarray:
    buf = op.state.get(key)
    if buf is None:
        buf = op.state[key] = np.empty(shape, dtype)
    return buf


def _scatter_sum_into(op: "OpRecord", key: str, values: np.ndarray,
                      index: np.ndarray, dim_size: int, aggregate) -> np.ndarray:
    """Buffered mirror of ``functional._scatter_sum`` (identical values)."""
    if aggregate is not None:
        flat = values.reshape(values.shape[0], -1)
        out = _state_buffer(op, key, (dim_size, flat.shape[1]), flat.dtype)
        _csr_into(aggregate, flat, out)
        return out.reshape((dim_size,) + values.shape[1:])
    out = _state_buffer(op, key, (dim_size,) + values.shape[1:], values.dtype)
    out.fill(0)
    np.add.at(out, index, values)
    return out


# ---------------------------------------------------------------------------
# Program representation — the datatypes live in the IR package
# (:mod:`repro.autograd.ir.program`); this module owns the replay-op
# registry that maps each recorded kind to its replay twin.
# ---------------------------------------------------------------------------
OPS: Dict[str, OpImpl] = {}


def _register(impl: OpImpl) -> OpImpl:
    OPS[impl.kind] = impl
    return impl


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class Tape:
    """Observes one dynamic iteration and records it as a flat program."""

    def __init__(self) -> None:
        self.slots: List[SlotInfo] = []
        self.ops: List[OpRecord] = []
        self.loss_slot: Optional[int] = None
        self.output_slot: Optional[int] = None
        self.failure: Optional[str] = None
        self._ids: Dict[int, int] = {}
        # Keep every traced tensor alive so ``id()`` keys stay unique for the
        # duration of the trace (dropped at finalize).
        self._keepalive: List[Tensor] = []

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason

    # -- slot interning -------------------------------------------------
    def _add_slot(self, t: Tensor, producer: Optional[OpRecord]) -> int:
        index = len(self.slots)
        self.slots.append(SlotInfo(
            index=index, shape=t.data.shape, dtype=t.data.dtype,
            requires_grad=t.requires_grad, tensor=t, producer=producer))
        self._ids[id(t)] = index
        self._keepalive.append(t)
        return index

    def _slot_for(self, t: Tensor) -> int:
        slot = self._ids.get(id(t))
        if slot is None:
            slot = self._add_slot(t, producer=None)   # leaf: parameter or constant
        return slot

    # -- recording hooks (called from the dynamic op sites) -------------
    def record(self, kind: str, out: Tensor, inputs: Tuple[Tensor, ...],
               meta: Dict[str, object]) -> None:
        if self.failed:
            return
        try:
            impl = OPS.get(kind)
            if impl is None:
                self.fail(f"unsupported op {kind!r}")
                return
            ins = tuple(self._slot_for(t) for t in inputs)
            op = OpRecord(
                kind=kind, impl=impl, out=-1, ins=ins,
                prev=(), in_requires=tuple(t.requires_grad for t in inputs),
                in_shapes=tuple(t.data.shape for t in inputs),
                needs_backward=out.requires_grad, meta=dict(meta))
            op.out = self._add_slot(out, producer=op)
            op.prev = tuple(self._ids[id(p)] for p in out._prev)
            op.mode = impl.mode_fn(op) if impl.mode_fn is not None else impl.out_mode
            self.ops.append(op)
        except Exception as exc:  # never break the (real) dynamic epoch
            self.fail(f"record({kind}): {exc!r}")

    def note_backward(self, t: Tensor) -> None:
        """Called by ``Tensor.backward`` — identifies the loss slot."""
        if self.failed:
            return
        if self.loss_slot is not None:
            self.fail("multiple backward() calls in one traced iteration")
            return
        slot = self._ids.get(id(t))
        if slot is None or t.data.size != 1:
            self.fail("backward() on an untracked or non-scalar tensor")
            return
        self.loss_slot = slot

    def mark_output(self, t: Optional[Tensor]) -> None:
        """Name the prediction tensor (e.g. logits) as the program's output.

        Optional; enables :func:`build_inference_replay` to re-root the
        program for inference-only replays.  Call between the traced epoch
        and :meth:`finalize`.
        """
        if self.failed or t is None:
            return
        slot = self._ids.get(id(t))
        if slot is not None:
            self.output_slot = slot

    # -- planning --------------------------------------------------------
    def finalize(self, optimizer, scheduler) -> Optional["Replay"]:
        """Turn the recording into a :class:`Replay` program (or ``None``)."""
        if self.failed or self.loss_slot is None or not self.ops:
            if self.failure is None:
                self.failure = "no backward() observed during trace"
            note_bailout("trace", self.failure)
            return None
        try:
            return self._build(optimizer, scheduler)
        except Exception as exc:   # defensive: planning must never break training
            self.fail(f"finalize: {exc!r}")
            note_bailout("finalize", repr(exc))
            return None

    def _build(self, optimizer, scheduler) -> "Replay":
        # Lower the recording to the graph-program IR, then mark epoch
        # variance (invariant slots are constant-folded below) and verify it
        # before scheduling.
        program = Program(slots=self.slots, ops=self.ops,
                          loss_slot=self.loss_slot, output_slot=self.output_slot)
        run_passes(program)
        slots = program.slots

        forward_ops = [op for op in program.ops if slots[op.out].variant]

        # Mirror of ``Tensor.backward``'s iterative DFS, operating on slots.
        # The graph is isomorphic (prev tuples are the recorded ``_prev``
        # tuples), so the resulting order — and therefore the float
        # accumulation order of every multi-consumer gradient — is identical.
        prev_of = {op.out: op.prev for op in program.ops}
        order: List[int] = []
        visited: set = set()
        stack: List[Tuple[int, bool]] = [(self.loss_slot, False)]
        while stack:
            slot, processed = stack.pop()
            if processed:
                order.append(slot)
                continue
            if slot in visited:
                continue
            visited.add(slot)
            stack.append((slot, True))
            for parent in prev_of.get(slot, ()):
                if parent not in visited:
                    stack.append((parent, False))
        bwd_slots = list(reversed(order))

        plan, leased = plan_arena(program, forward_ops, bwd_slots,
                                  (self.loss_slot,), global_pool())

        # Backward schedule (producer ops in mirrored DFS order) and the
        # per-slot contribution count.  A slot receiving exactly one gradient
        # contribution can alias the contributed array directly — the dynamic
        # engine's defensive first-copy exists only because a later
        # contribution may accumulate in place, which the count rules out.
        producer = program.producer_map()
        backward_ops = [producer[slot] for slot in bwd_slots
                        if slot in producer and producer[slot].needs_backward]
        n_contrib: Dict[int, int] = {self.loss_slot: 1}
        for op in backward_ops:
            for s, requires in zip(op.ins, op.in_requires):
                if requires:
                    n_contrib[s] = n_contrib.get(s, 0) + 1

        leaves = [(info.index, info.tensor) for info in slots
                  if info.producer is None]
        values: List[Optional[np.ndarray]] = [None] * len(slots)
        for info in slots:
            if info.producer is not None and not info.variant:
                values[info.index] = info.tensor.data     # constant-folded

        # Drop tensor refs for op slots so the traced dynamic graph (and its
        # closures) can be garbage collected; leaves stay bound — replay
        # reads parameter data and accumulates into parameter gradients
        # through them.
        for info in slots:
            if info.producer is not None:
                info.tensor = None
        self._keepalive.clear()
        self._ids.clear()

        with _STATS_LOCK:
            _STATS["traces"] += 1
        return Replay(slots=slots, forward_ops=forward_ops, backward_ops=backward_ops,
                      n_contrib=n_contrib, loss_slot=self.loss_slot, leaves=leaves,
                      values=values, optimizer=optimizer, scheduler=scheduler,
                      plan=plan, program=program, leased=leased)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------
class Replay:
    """A planned program replaying one training epoch with plain ndarrays."""

    def __init__(self, slots, forward_ops, backward_ops, n_contrib, loss_slot,
                 leaves, values, optimizer, scheduler, plan,
                 program=None, leased=None) -> None:
        self.slots = slots
        self.forward_ops = forward_ops
        self.backward_ops = backward_ops
        self.n_contrib = n_contrib
        self.loss_slot = loss_slot
        self.leaves = leaves
        self.values = values
        self.optimizer = optimizer
        self.scheduler = scheduler
        self.plan = plan
        self.program = program
        self._leased = list(leased) if leased else []
        self.gradbuf: Dict[int, np.ndarray] = {}
        self.grads: List[Optional[np.ndarray]] = [None] * len(slots)
        self._touched: List[int] = []
        self._adam_groups = self._prepare_adam()
        self.epochs_replayed = 0
        # Pre-bound (kernel, op) sequences shave two attribute loads per op
        # per epoch off the replay interpreter loop.
        self._fwd_seq = [(op.impl.forward, op) for op in forward_ops]
        self._bwd_seq = [(op.impl.backward, op, op.out) for op in backward_ops]

    def release(self) -> None:
        """Return this replay's arena buffers to the process-wide pool.

        After release the replay must not run again; the trainer calls this
        once training (or a bailout) is done so the next ensemble member can
        recycle the storage.
        """
        if self._leased:
            arrays, self._leased = self._leased, []
            global_pool().release(arrays)

    def _prepare_adam(self):
        """Pre-resolve Adam's per-parameter buffers for the replay step.

        The replayed step runs the exact in-place ufunc sequence of
        ``optim.Adam.step`` (same scratch buffers, same order — change both
        together) minus the per-step buffer lookups; any other optimiser
        falls back to its own ``step()``.

        Contiguous same-dtype parameters are additionally laid out as
        segments of flat staging arrays (:meth:`_prepare_flat_adam`), so the
        common step is ~a dozen ufunc calls over one long array instead of a
        dozen per parameter.  Every op in the sequence is elementwise with
        scalar coefficients, so each element sees the exact per-parameter
        instruction stream — the update is bitwise identical.
        """
        from repro.autograd import optim as _optim

        opt = self.optimizer
        if type(opt) is not _optim.Adam:
            self._adam_flat = None
            self._adam_rest = []
            return None
        self._adam_flat = self._prepare_flat_adam(opt)
        groups = [(param, m, v,
                   opt._buffer(opt._scratch, index, param),
                   opt._buffer(opt._scratch2, index, param))
                  for index, (param, m, v)
                  in enumerate(zip(opt.parameters, opt._m, opt._v))]
        flat_params = {id(param) for grp in self._adam_flat
                       for param, _ in grp["segments"]}
        self._adam_rest = [grp for grp in groups
                           if id(grp[0]) not in flat_params]
        return groups

    @staticmethod
    def _prepare_flat_adam(opt):
        """Flat segment layout for :meth:`_adam_step`, cached on the optimizer.

        The running moments are copied into the flat ``fm``/``fv`` arrays
        once and the optimizer's ``_m``/``_v`` entries replaced with reshaped
        views of them, so a dynamic-engine ``step()`` (after a bail-out, or
        from a sibling batch replay) reads and writes the very same storage.
        Caching on the optimizer keeps every replay sharing one layout —
        re-planting per replay would strand earlier replays on stale arrays.
        """
        flat = getattr(opt, "_replay_flat_adam", None)
        if flat is not None:
            return flat
        by_dtype: Dict[object, List[int]] = {}
        for index, param in enumerate(opt.parameters):
            if param.grad is not None and param.data.flags.c_contiguous:
                by_dtype.setdefault(param.data.dtype, []).append(index)
        flat = []
        for dtype, indices in by_dtype.items():
            total = sum(opt.parameters[i].data.size for i in indices)
            group = {key: np.empty(total, dtype)
                     for key in ("fp", "fg", "fb", "ft", "fm", "fv")}
            segments = []
            offset = 0
            for i in indices:
                param = opt.parameters[i]
                run = slice(offset, offset + param.data.size)
                group["fm"][run] = opt._m[i].ravel()
                group["fv"][run] = opt._v[i].ravel()
                opt._m[i] = group["fm"][run].reshape(param.data.shape)
                opt._v[i] = group["fv"][run].reshape(param.data.shape)
                segments.append((param, run))
                offset = run.stop
            group["segments"] = segments
            flat.append(group)
        opt._replay_flat_adam = flat
        return flat

    def _adam_step(self) -> None:
        opt = self.optimizer
        opt._step += 1
        bias1 = 1.0 - opt.beta1 ** opt._step
        bias2 = 1.0 - opt.beta2 ** opt._step
        one_minus_beta1 = 1.0 - opt.beta1
        one_minus_beta2 = 1.0 - opt.beta2
        weight_decay, eps, lr = opt.weight_decay, opt.eps, opt.lr
        groups = self._adam_groups
        flat = self._adam_flat
        if flat and all(param.grad is not None
                        for grp in flat for param, _ in grp["segments"]):
            groups = self._adam_rest
            for grp in flat:
                segments = grp["segments"]
                fp, fg = grp["fp"], grp["fg"]
                buf, tmp = grp["fb"], grp["ft"]
                m, v = grp["fm"], grp["fv"]
                for param, run in segments:
                    fp[run] = param.data.ravel()
                    fg[run] = param.grad.ravel()
                grad = fg
                if weight_decay:
                    np.multiply(fp, weight_decay, out=buf)
                    buf += grad
                    grad = buf
                np.multiply(grad, one_minus_beta1, out=tmp)
                m *= opt.beta1
                m += tmp
                np.multiply(grad, grad, out=tmp)
                tmp *= one_minus_beta2
                v *= opt.beta2
                v += tmp
                np.divide(v, bias2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += eps
                np.divide(m, bias1, out=buf)
                buf /= tmp
                buf *= lr
                fp -= buf
                for param, run in segments:
                    np.copyto(param.data,
                              fp[run].reshape(param.data.shape))
        for param, m, v, buf, tmp in groups:
            grad = param.grad
            if grad is None:
                continue
            if weight_decay:
                np.multiply(param.data, weight_decay, out=buf)
                buf += grad
                grad = buf
            np.multiply(grad, one_minus_beta1, out=tmp)
            m *= opt.beta1
            m += tmp
            np.multiply(grad, grad, out=tmp)
            tmp *= one_minus_beta2
            v *= opt.beta2
            v += tmp
            np.divide(v, bias2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            np.divide(m, bias1, out=buf)
            buf /= tmp
            buf *= lr
            param.data -= buf

    def contribute(self, slot: int, grad: np.ndarray) -> None:
        """Mirror of ``Tensor._accumulate`` for one gradient contribution.

        Single-consumer slots (the common case, known from the plan) alias
        the contributed array instead of copying it — the dynamic engine's
        defensive first-copy only matters when a later contribution would
        accumulate in place, and no backward kernel mutates an array after
        contributing it.
        """
        info = self.slots[slot]
        tensor = info.tensor
        if tensor is not None:
            # Leaf (parameter or trained tensor): reuse the dynamic engine's
            # own accumulator — identical copy/add semantics, identical
            # parked-buffer recycling with ``Optimizer.zero_grad``.
            if tensor.requires_grad:
                tensor._accumulate(grad)
            return
        if not info.requires_grad:
            return
        grads = self.grads
        current = grads[slot]
        if current is None:
            if self.n_contrib.get(slot, 0) <= 1:
                grads[slot] = grad
            else:
                buf = self.gradbuf.get(slot)
                if buf is None:
                    buf = self.gradbuf[slot] = np.empty(info.shape, info.dtype)
                np.copyto(buf, grad)
                grads[slot] = buf
            self._touched.append(slot)
        else:
            current += grad

    def run_epoch(self, step_scheduler: bool = True) -> float:
        """One full ``forward → loss → backward → optimizer.step`` iteration.

        ``step_scheduler=False`` supports per-batch replays where the
        learning-rate schedule advances once per epoch, not once per step.
        """
        values = self.values
        slots = self.slots
        for slot, tensor in self.leaves:
            data = tensor.data
            if data.shape != slots[slot].shape or data.dtype != slots[slot].dtype:
                message = (f"input slot {slot} changed from "
                           f"{slots[slot].shape} to {data.shape}")
                note_bailout("replay_shape", message)
                raise CaptureBailout(message)
            values[slot] = data
        self.optimizer.zero_grad()
        for forward, op in self._fwd_seq:
            forward(op, self)
        loss_value = float(values[self.loss_slot])

        grads = self.grads
        for slot in self._touched:
            grads[slot] = None
        self._touched.clear()
        seed = getattr(self, "_seed_ones", None)
        if seed is None:
            seed = self._seed_ones = np.ones_like(values[self.loss_slot])
        self.contribute(self.loss_slot, seed)
        for backward, op, out_slot in self._bwd_seq:
            g = grads[out_slot]
            if g is not None:
                backward(op, self, g)

        if self._adam_groups is not None:
            self._adam_step()
        else:
            self.optimizer.step()
        if step_scheduler:
            self.scheduler.step()
        self.epochs_replayed += 1
        _STATS["replays"] += 1
        return loss_value


class InferenceReplay:
    """Forward-only replay of the stripped (inference) program.

    Built by :func:`build_inference_replay` from a trained :class:`Replay`:
    no backward schedule, no gradient buffers, no optimizer mirrors — the
    plan leases arena storage for the forward live-set only.  ``run()``
    refreshes the leaf slots (parameters update in place during training)
    and returns the raw output array (e.g. logits).
    """

    def __init__(self, program, forward_ops, leaves, values, plan, leased) -> None:
        self.program = program
        self.slots = program.slots
        self.output_slot = program.output_slot
        self.forward_ops = forward_ops
        self.leaves = leaves
        self.values = values
        self.plan = plan
        self._leased = list(leased) if leased else []
        self._fwd_seq = [(op.impl.forward, op) for op in forward_ops]

    def run(self) -> np.ndarray:
        values = self.values
        slots = self.slots
        for slot, tensor in self.leaves:
            data = tensor.data
            if data.shape != slots[slot].shape or data.dtype != slots[slot].dtype:
                message = (f"inference input slot {slot} changed from "
                           f"{slots[slot].shape} to {data.shape}")
                note_bailout("replay_shape", message)
                raise CaptureBailout(message)
            values[slot] = data
        for forward, op in self._fwd_seq:
            forward(op, self)
        return values[self.output_slot]

    def release(self) -> None:
        if self._leased:
            arrays, self._leased = self._leased, []
            global_pool().release(arrays)


def build_inference_replay(replay: Replay,
                           pool=None) -> Optional[InferenceReplay]:
    """Derive a forward-only replay for the trained program's output slot.

    Runs the :func:`~repro.autograd.ir.passes.strip_training` pass over the
    replay's program: stochastic regularisers are rewired out (eval
    semantics of inverted dropout), the loss head and backward-only ops are
    dropped, and the program is re-rooted at the slot named by
    :meth:`Tape.mark_output`.  Returns ``None`` when no output was marked or
    the program contains effectful ops (BatchNorm: eval-mode normalisation
    reads running stats, which the training-mode tape does not express).

    Constant-folded values carry over from the training replay; the derived
    program shares slot metadata read-only and owns its op records, buffers
    and value table, so both replays can run interleaved.
    """
    program = replay.program
    if program is None:
        return None
    stripped = strip_training(program)
    if stripped is None:
        return None
    verify_program(stripped, check_producers=False)
    slots = stripped.slots
    forward_ops = [op for op in stripped.ops if slots[op.out].variant]
    plan, leased = plan_arena(stripped, forward_ops, [],
                              (stripped.output_slot,), pool or global_pool())
    needed = {s for op in stripped.ops for s in op.ins}
    needed.add(stripped.output_slot)
    leaves = [(slot, tensor) for slot, tensor in replay.leaves if slot in needed]
    values: List[Optional[np.ndarray]] = list(replay.values)
    return InferenceReplay(program=stripped, forward_ops=forward_ops,
                           leaves=leaves, values=values, plan=plan,
                           leased=leased)


# ---------------------------------------------------------------------------
# Trace activation
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def tracing(tape: Tape):
    """Install ``tape`` as this thread's recording target for the duration."""
    if getattr(_tensor._TRACE, "tape", None) is not None:
        raise RuntimeError("capture traces cannot nest")
    _tensor._TRACE.tape = tape
    try:
        yield tape
    finally:
        _tensor._TRACE.tape = None


# ---------------------------------------------------------------------------
# Replay kernels.  Every forward/backward body mirrors the exact NumPy
# expressions (and evaluation order) of its dynamic twin in tensor.py /
# functional.py / sparse.py / kernels.py — that mirroring is what makes
# replayed epochs bit-identical, so change both sides together or not at all.
# ---------------------------------------------------------------------------
def _out(op: OpRecord, rt: Replay, value: np.ndarray) -> None:
    rt.values[op.out] = value


# -- elementwise arithmetic --------------------------------------------------
def _fwd_add(op, rt):
    a, b = rt.values[op.ins[0]], rt.values[op.ins[1]]
    _out(op, rt, np.add(a, b, out=op.buffer))


def _bwd_add(op, rt, g):
    # The in_requires guards here (and in the other multi-operand kernels)
    # skip gradient expressions the dynamic closures compute and then
    # discard for constant operands — dropped work, identical values.
    sa, sb = op.in_shapes
    if op.in_requires[0]:
        rt.contribute(op.ins[0], _unbroadcast(g, sa))
    if op.in_requires[1]:
        rt.contribute(op.ins[1], _unbroadcast(g, sb))


_register(OpImpl("add", _fwd_add, _bwd_add, out_mode="buffer"))


def _fwd_sub(op, rt):
    a, b = rt.values[op.ins[0]], rt.values[op.ins[1]]
    _out(op, rt, np.subtract(a, b, out=op.buffer))


def _bwd_sub(op, rt, g):
    sa, sb = op.in_shapes
    if op.in_requires[0]:
        rt.contribute(op.ins[0], _unbroadcast(g, sa))
    if op.in_requires[1]:
        rt.contribute(op.ins[1], _unbroadcast(-g, sb))


_register(OpImpl("sub", _fwd_sub, _bwd_sub, out_mode="buffer"))


def _fwd_mul(op, rt):
    a, b = rt.values[op.ins[0]], rt.values[op.ins[1]]
    _out(op, rt, np.multiply(a, b, out=op.buffer))


def _bwd_mul(op, rt, g):
    a, b = rt.values[op.ins[0]], rt.values[op.ins[1]]
    sa, sb = op.in_shapes
    if op.in_requires[0]:
        if g.shape == sa:     # no unbroadcast reduction: multiply into a buffer
            rt.contribute(op.ins[0], np.multiply(
                g, b, out=_state_buffer(op, "ga", sa, g.dtype)))
        else:
            tmp = np.multiply(g, b, out=_state_buffer(op, "ga_tmp", g.shape, g.dtype))
            rt.contribute(op.ins[0], _unbroadcast(tmp, sa))
    if op.in_requires[1]:
        if g.shape == sb:
            rt.contribute(op.ins[1], np.multiply(
                g, a, out=_state_buffer(op, "gb", sb, g.dtype)))
        else:
            tmp = np.multiply(g, a, out=_state_buffer(op, "gb_tmp", g.shape, g.dtype))
            rt.contribute(op.ins[1], _unbroadcast(tmp, sb))


_register(OpImpl("mul", _fwd_mul, _bwd_mul, out_mode="buffer", bwd_reads_in=True))


def _fwd_div(op, rt):
    a, b = rt.values[op.ins[0]], rt.values[op.ins[1]]
    _out(op, rt, np.divide(a, b, out=op.buffer))


def _bwd_div(op, rt, g):
    a, b = rt.values[op.ins[0]], rt.values[op.ins[1]]
    sa, sb = op.in_shapes
    if op.in_requires[0]:
        rt.contribute(op.ins[0], _unbroadcast(g / b, sa))
    if op.in_requires[1]:
        rt.contribute(op.ins[1], _unbroadcast(-g * a / (b ** 2), sb))


_register(OpImpl("div", _fwd_div, _bwd_div, out_mode="buffer", bwd_reads_in=True))


def _fwd_neg(op, rt):
    _out(op, rt, np.negative(rt.values[op.ins[0]], out=op.buffer))


def _bwd_neg(op, rt, g):
    rt.contribute(op.ins[0], -g)


_register(OpImpl("neg", _fwd_neg, _bwd_neg, out_mode="buffer"))


def _fwd_pow(op, rt):
    # Deliberately ``**`` (not np.power with out=): ndarray.__pow__ has
    # bit-different fast paths for exponents 0.5 / 2 / -1 (sqrt, square,
    # reciprocal) that the dynamic engine hits — mirror them exactly.
    _out(op, rt, rt.values[op.ins[0]] ** op.meta["exponent"])


def _bwd_pow(op, rt, g):
    a = rt.values[op.ins[0]]
    exponent = op.meta["exponent"]
    rt.contribute(op.ins[0], g * exponent * a ** (exponent - 1))


_register(OpImpl("pow", _fwd_pow, _bwd_pow, bwd_reads_in=True))


# -- linear algebra ----------------------------------------------------------
def _matmul_mode(op) -> str:
    return "buffer" if all(len(shape) >= 2 for shape in op.in_shapes) else "fresh"


def _fwd_matmul(op, rt):
    a, b = rt.values[op.ins[0]], rt.values[op.ins[1]]
    if op.buffer is not None:
        _out(op, rt, np.matmul(a, b, out=op.buffer))
    else:
        _out(op, rt, a @ b)


def _bwd_matmul(op, rt, g):
    a, b = rt.values[op.ins[0]], rt.values[op.ins[1]]
    sa, sb = op.in_shapes
    if op.in_requires[0]:
        if b.ndim == 1:
            grad_self = np.outer(g, b) if g.ndim == 1 else g[..., None] * b
            rt.contribute(op.ins[0], _reduce_extra_dims(grad_self, sa))
        elif g.ndim == 2 and b.ndim == 2:
            rt.contribute(op.ins[0], np.matmul(
                g, b.T, out=_state_buffer(op, "ga", sa, g.dtype)))
        else:
            grad_self = g @ b.swapaxes(-1, -2)
            rt.contribute(op.ins[0], _reduce_extra_dims(grad_self, sa))
    if op.in_requires[1]:
        if a.ndim == 1:
            rt.contribute(op.ins[1], _reduce_extra_dims(np.outer(a, g), sb))
        elif a.ndim == 2 and g.ndim == 2:
            rt.contribute(op.ins[1], np.matmul(
                a.T, g, out=_state_buffer(op, "gb", sb, g.dtype)))
        else:
            grad_other = a.swapaxes(-1, -2) @ g
            rt.contribute(op.ins[1], _reduce_extra_dims(grad_other, sb))


_register(OpImpl("matmul", _fwd_matmul, _bwd_matmul, out_mode="buffer",
                 bwd_reads_in=True, mode_fn=_matmul_mode))


def _fwd_transpose(op, rt):
    _out(op, rt, np.transpose(rt.values[op.ins[0]], op.meta["axes"]))


def _bwd_transpose(op, rt, g):
    axes = op.meta["axes"]
    inverse = None if axes is None else tuple(np.argsort(axes))
    rt.contribute(op.ins[0], np.transpose(g, inverse))


_register(OpImpl("transpose", _fwd_transpose, _bwd_transpose, out_mode="view"))


def _fwd_reshape(op, rt):
    _out(op, rt, rt.values[op.ins[0]].reshape(op.meta["shape"]))


def _bwd_reshape(op, rt, g):
    rt.contribute(op.ins[0], g.reshape(op.in_shapes[0]))


_register(OpImpl("reshape", _fwd_reshape, _bwd_reshape, out_mode="view"))


def _is_advanced_index(index) -> bool:
    """NumPy's basic-vs-advanced indexing rule: arrays/lists trigger a copy."""
    if isinstance(index, (np.ndarray, list)):
        return True
    if isinstance(index, tuple):
        return any(isinstance(item, (np.ndarray, list)) for item in index)
    return False


def _getitem_mode(op) -> str:
    # Basic (int/slice) indexing returns a *view* of the input buffer — it
    # must extend the base buffer's lifetime like transpose/reshape do, or
    # the arena planner could donate the storage while the view is live.
    return "fresh" if _is_advanced_index(op.meta["index"]) else "view"


def _fwd_getitem(op, rt):
    _out(op, rt, rt.values[op.ins[0]][op.meta["index"]])


def _bwd_getitem(op, rt, g):
    info = rt.slots[op.ins[0]]
    full = op.state.get("full")
    if full is None:
        full = op.state["full"] = np.zeros(info.shape, info.dtype)
        index = op.meta["index"]
        # ``np.add.at`` is unbuffered and slow; with unique integer indices
        # (the training-mask case) scattering one value per row, plain fancy
        # assignment lands the identical result.
        op.state["unique"] = (isinstance(index, np.ndarray)
                              and index.dtype.kind in "iu"
                              and index.ndim == 1
                              and np.unique(index).size == index.size)
    else:
        full.fill(0)
    if op.state["unique"]:
        full[op.meta["index"]] = g
    else:
        np.add.at(full, op.meta["index"], g)
    rt.contribute(op.ins[0], full)


_register(OpImpl("getitem", _fwd_getitem, _bwd_getitem, mode_fn=_getitem_mode))


# -- reductions --------------------------------------------------------------
def _fwd_sum(op, rt):
    _out(op, rt, np.sum(rt.values[op.ins[0]], axis=op.meta["axis"],
                        keepdims=op.meta["keepdims"], out=op.buffer))


def _bwd_sum(op, rt, g):
    axis, keepdims = op.meta["axis"], op.meta["keepdims"]
    expanded = g
    if axis is not None and not keepdims:
        expanded = np.expand_dims(g, axis)
    buf = _state_buffer(op, "grad", op.in_shapes[0], g.dtype)
    np.copyto(buf, expanded)    # broadcasting copy, like broadcast_to().copy()
    rt.contribute(op.ins[0], buf)


_register(OpImpl("sum", _fwd_sum, _bwd_sum, out_mode="buffer"))


def _fwd_max(op, rt):
    _out(op, rt, np.max(rt.values[op.ins[0]], axis=op.meta["axis"],
                        keepdims=op.meta["keepdims"], out=op.buffer))


def _bwd_max(op, rt, g):
    a = rt.values[op.ins[0]]
    out_data = rt.values[op.out]
    axis, keepdims = op.meta["axis"], op.meta["keepdims"]
    expanded_out = out_data
    expanded_grad = g
    if axis is not None and not keepdims:
        expanded_out = np.expand_dims(out_data, axis)
        expanded_grad = np.expand_dims(g, axis)
    mask = (a == expanded_out).astype(a.dtype)
    mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
    rt.contribute(op.ins[0], mask * expanded_grad)


_register(OpImpl("max", _fwd_max, _bwd_max, out_mode="buffer",
                 bwd_reads_in=True, bwd_reads_out=True))


# -- elementwise nonlinearities ----------------------------------------------
def _fwd_exp(op, rt):
    _out(op, rt, np.exp(rt.values[op.ins[0]], out=op.buffer))


def _bwd_exp(op, rt, g):
    rt.contribute(op.ins[0], g * rt.values[op.out])


_register(OpImpl("exp", _fwd_exp, _bwd_exp, out_mode="buffer", bwd_reads_out=True))


def _fwd_log(op, rt):
    _out(op, rt, np.log(rt.values[op.ins[0]], out=op.buffer))


def _bwd_log(op, rt, g):
    rt.contribute(op.ins[0], g / rt.values[op.ins[0]])


_register(OpImpl("log", _fwd_log, _bwd_log, out_mode="buffer", bwd_reads_in=True))


def _fwd_relu(op, rt):
    a = rt.values[op.ins[0]]
    _out(op, rt, np.maximum(a, 0.0, out=op.buffer))
    if op.needs_backward:
        mask = op.state.get("mask")
        if mask is None:
            mask = op.state["mask"] = np.empty(a.shape, dtype=bool)
        np.greater(a, 0, out=mask)


def _bwd_relu(op, rt, g):
    rt.contribute(op.ins[0], np.multiply(
        g, op.state["mask"], out=_state_buffer(op, "grad", op.in_shapes[0], g.dtype)))


_register(OpImpl("relu", _fwd_relu, _bwd_relu, out_mode="buffer"))


def _fwd_tanh(op, rt):
    _out(op, rt, np.tanh(rt.values[op.ins[0]], out=op.buffer))


def _bwd_tanh(op, rt, g):
    out_data = rt.values[op.out]
    rt.contribute(op.ins[0], g * (1.0 - out_data ** 2))


_register(OpImpl("tanh", _fwd_tanh, _bwd_tanh, out_mode="buffer", bwd_reads_out=True))


def _fwd_sigmoid(op, rt):
    # 1.0 / (1.0 + np.exp(-x)) computed stage by stage into the arena buffer.
    a = rt.values[op.ins[0]]
    buf = op.buffer
    np.negative(a, out=buf)
    np.exp(buf, out=buf)
    np.add(buf, 1.0, out=buf)
    np.divide(1.0, buf, out=buf)
    _out(op, rt, buf)


def _bwd_sigmoid(op, rt, g):
    out_data = rt.values[op.out]
    rt.contribute(op.ins[0], g * out_data * (1.0 - out_data))


_register(OpImpl("sigmoid", _fwd_sigmoid, _bwd_sigmoid, out_mode="buffer",
                 bwd_reads_out=True))


def _fwd_abs(op, rt):
    a = rt.values[op.ins[0]]
    _out(op, rt, np.abs(a, out=op.buffer))
    if op.needs_backward:
        sign = op.state.get("sign")
        if sign is None:
            sign = op.state["sign"] = np.empty(a.shape, a.dtype)
        np.sign(a, out=sign)


def _bwd_abs(op, rt, g):
    rt.contribute(op.ins[0], g * op.state["sign"])


_register(OpImpl("abs", _fwd_abs, _bwd_abs, out_mode="buffer"))


def _fwd_elu(op, rt):
    # Mirror of F.elu's forward with the np.where replaced by a masked copy
    # into a persistent buffer (same selected values, no fresh arrays).
    a = rt.values[op.ins[0]]
    alpha = op.meta["alpha"]
    positive = _state_buffer(op, "positive", a.shape, np.bool_)
    np.greater(a, 0, out=positive)
    out = _state_buffer(op, "out", a.shape, a.dtype)
    np.minimum(a, 0.0, out=out)
    np.expm1(out, out=out)
    out *= alpha
    np.copyto(out, a, where=positive)
    _out(op, rt, out)
    if op.needs_backward:
        local = _state_buffer(op, "local", a.shape, a.dtype)
        np.minimum(a, 0.0, out=local)
        np.exp(local, out=local)
        np.multiply(alpha, local, out=local)
        local[positive] = 1.0
        op.state["local"] = local


def _bwd_elu(op, rt, g):
    rt.contribute(op.ins[0], np.multiply(
        g, op.state["local"], out=_state_buffer(op, "grad", op.in_shapes[0], g.dtype)))


_register(OpImpl("elu", _fwd_elu, _bwd_elu))


def _fwd_leaky_relu(op, rt):
    a = rt.values[op.ins[0]]
    positive = _state_buffer(op, "positive", a.shape, np.bool_)
    np.greater(a, 0, out=positive)
    out = _state_buffer(op, "out", a.shape, a.dtype)
    np.multiply(a, op.meta["negative_slope"], out=out)
    np.copyto(out, a, where=positive)
    _out(op, rt, out)


def _bwd_leaky_relu(op, rt, g):
    grad = _state_buffer(op, "grad", op.in_shapes[0], g.dtype)
    np.multiply(g, op.meta["negative_slope"], out=grad)
    np.copyto(grad, g, where=op.state["positive"])
    rt.contribute(op.ins[0], grad)


_register(OpImpl("leaky_relu", _fwd_leaky_relu, _bwd_leaky_relu))


# -- softmax family ----------------------------------------------------------
def _fwd_softmax(op, rt):
    _out(op, rt, F.softmax_array(rt.values[op.ins[0]], axis=op.meta["axis"]))


def _bwd_softmax(op, rt, g):
    out_data = rt.values[op.out]
    axis = op.meta["axis"]
    dot = (g * out_data).sum(axis=axis, keepdims=True)
    rt.contribute(op.ins[0], out_data * (g - dot))


_register(OpImpl("softmax", _fwd_softmax, _bwd_softmax, bwd_reads_out=True))


def _fwd_log_softmax(op, rt):
    out_data = F.log_softmax_array(rt.values[op.ins[0]], axis=op.meta["axis"])
    _out(op, rt, out_data)
    if op.needs_backward:
        op.state["soft"] = np.exp(out_data)


def _bwd_log_softmax(op, rt, g):
    axis = op.meta["axis"]
    rt.contribute(op.ins[0], g - op.state["soft"] * g.sum(axis=axis, keepdims=True))


_register(OpImpl("log_softmax", _fwd_log_softmax, _bwd_log_softmax))


# -- regularisation (per-epoch RNG refresh) ----------------------------------
def _fwd_dropout(op, rt):
    # Same uniform draw, same compare, same 0/1-cast and same rescaling
    # division as the dynamic op — staged through three persistent buffers
    # so a replayed epoch allocates nothing for the mask.
    a = rt.values[op.ins[0]]
    p = op.meta["p"]
    state = op.state
    if "mask" not in state:
        state["uniform"] = np.empty(a.shape, dtype=np.float64)
        state["keep"] = np.empty(a.shape, dtype=bool)
        state["mask"] = np.empty(a.shape, dtype=a.dtype)
    mask = state["mask"]
    op.meta["rng"].random(out=state["uniform"])
    np.greater_equal(state["uniform"], p, out=state["keep"])
    # One pass: bool upcasts to exact 0.0 / 1.0 inside the divide, so this
    # is bitwise the dynamic twin's ``mask.astype(dtype) / (1 - p)``.
    np.divide(state["keep"], 1.0 - p, out=mask)
    _out(op, rt, np.multiply(a, mask, out=op.buffer))


def _bwd_dropout(op, rt, g):
    rt.contribute(op.ins[0], np.multiply(
        g, op.state["mask"], out=_state_buffer(op, "grad", op.in_shapes[0], g.dtype)))


_register(OpImpl("dropout", _fwd_dropout, _bwd_dropout, out_mode="buffer", rng=True))


def _fwd_drop_node(op, rt):
    a = rt.values[op.ins[0]]
    p = op.meta["p"]
    mask = _as_array((op.meta["rng"].random((a.shape[0], 1)) >= p) / (1.0 - p))
    op.state["mask"] = mask
    _out(op, rt, np.multiply(a, mask, out=op.buffer))


def _bwd_drop_node(op, rt, g):
    rt.contribute(op.ins[0], g * op.state["mask"])


_register(OpImpl("drop_node", _fwd_drop_node, _bwd_drop_node, out_mode="buffer",
                 rng=True))


# -- losses ------------------------------------------------------------------
def _fwd_cross_entropy(op, rt):
    out_data, log_probs = F._cross_entropy_forward(
        rt.values[op.ins[0]], op.meta["target"], op.meta["reduction"])
    _out(op, rt, out_data)
    if op.needs_backward:
        op.state["log_probs"] = log_probs
        op.state["soft"] = np.exp(log_probs)


def _bwd_cross_entropy(op, rt, g):
    # Buffered mirror of functional._cross_entropy_backward: same broadcast
    # copy, same one-per-row scatter, same row-sum correction.
    log_probs = op.state["log_probs"]
    reduction = op.meta["reduction"]
    n = log_probs.shape[0]
    rows = op.state.get("rows")
    if rows is None:
        rows = op.state["rows"] = np.arange(n)
        op.state["scattered"] = np.zeros(log_probs.shape, log_probs.dtype)
    if reduction == "mean":
        per_row = np.broadcast_to(g * np.asarray(1.0 / n, dtype=log_probs.dtype),
                                  (n,)).copy()
    elif reduction == "sum":
        per_row = np.broadcast_to(g, (n,)).copy()
    else:
        per_row = g
    scattered = op.state["scattered"]
    scattered[rows, op.meta["target"]] = -per_row
    grad = scattered - op.state["soft"] * scattered.sum(axis=-1, keepdims=True)
    scattered[rows, op.meta["target"]] = 0.0    # keep off-target entries zero
    rt.contribute(op.ins[0], grad)


_register(OpImpl("cross_entropy", _fwd_cross_entropy, _bwd_cross_entropy))


# -- shape manipulation ------------------------------------------------------
def _fwd_concat(op, rt):
    parts = [rt.values[s] for s in op.ins]
    _out(op, rt, np.concatenate(parts, axis=op.meta["axis"], out=op.buffer))


def _bwd_concat(op, rt, g):
    axis = op.meta["axis"]
    offsets = op.state.get("offsets")
    if offsets is None:
        sizes = [shape[axis] for shape in op.in_shapes]
        offsets = op.state["offsets"] = np.cumsum([0] + sizes)
    for position, (slot, start, stop) in enumerate(
            zip(op.ins, offsets[:-1], offsets[1:])):
        if not op.in_requires[position]:
            continue
        index = [slice(None)] * g.ndim
        index[axis] = slice(start, stop)
        rt.contribute(slot, g[tuple(index)])


_register(OpImpl("concat", _fwd_concat, _bwd_concat, out_mode="buffer"))


def _fwd_stack(op, rt):
    parts = [rt.values[s] for s in op.ins]
    _out(op, rt, np.stack(parts, axis=op.meta["axis"], out=op.buffer))


def _bwd_stack(op, rt, g):
    slices = np.moveaxis(g, op.meta["axis"], 0)
    for position, (slot, piece) in enumerate(zip(op.ins, slices)):
        if op.in_requires[position]:
            rt.contribute(slot, piece)


_register(OpImpl("stack", _fwd_stack, _bwd_stack, out_mode="buffer"))


# -- gather / scatter --------------------------------------------------------
def _fwd_index_select(op, rt):
    a = rt.values[op.ins[0]]
    _out(op, rt, np.take(a, op.meta["index"], axis=0, out=op.buffer))


def _bwd_index_select(op, rt, g):
    rt.contribute(op.ins[0], _scatter_sum_into(
        op, "grad", g, op.meta["index"], op.in_shapes[0][0], op.meta["scatter"]))


_register(OpImpl("index_select", _fwd_index_select, _bwd_index_select,
                 out_mode="buffer"))


def _fwd_scatter_add(op, rt):
    _out(op, rt, _scatter_sum_into(op, "out", rt.values[op.ins[0]],
                                   op.meta["index"], op.meta["dim_size"],
                                   op.meta["aggregate"]))


def _bwd_scatter_add(op, rt, g):
    rt.contribute(op.ins[0], g[op.meta["index"]])


_register(OpImpl("scatter_add", _fwd_scatter_add, _bwd_scatter_add))


def _fwd_scatter_max(op, rt):
    src = rt.values[op.ins[0]]
    index = op.meta["index"]
    dim_size = op.meta["dim_size"]
    out_data = np.full((dim_size,) + src.shape[1:], -np.inf, dtype=src.dtype)
    np.maximum.at(out_data, index, src)
    empty = ~np.isfinite(out_data)
    out_data[empty] = 0.0
    _out(op, rt, out_data)
    if op.needs_backward:
        argmax_mask = (src == out_data[index]) & ~empty[index]
        tie_counts = np.zeros(out_data.shape, dtype=src.dtype)
        np.add.at(tie_counts, index, argmax_mask.astype(src.dtype))
        tie_counts = np.maximum(tie_counts, 1.0)
        op.state["argmax_mask"] = argmax_mask
        op.state["tie_counts"] = tie_counts


def _bwd_scatter_max(op, rt, g):
    index = op.meta["index"]
    rt.contribute(op.ins[0], op.state["argmax_mask"] * g[index]
                  / op.state["tie_counts"][index])


_register(OpImpl("scatter_max", _fwd_scatter_max, _bwd_scatter_max))


def _fwd_segment_softmax(op, rt):
    # Buffered mirror of functional.segment_softmax_array.  The per-group
    # maximum runs as a sort-once + ``maximum.reduceat`` instead of the
    # unbuffered ``np.maximum.at`` loop — max is exact and order-free, so the
    # values are identical; empty groups get the same -inf → 0 treatment.
    scores = rt.values[op.ins[0]]
    index = op.meta["index"]
    dim_size = op.meta["dim_size"]
    state = op.state
    if "perm" not in state:
        perm = state["perm"] = np.argsort(index, kind="stable")
        sorted_index = index[perm]
        starts = np.searchsorted(sorted_index, np.arange(dim_size))
        state["starts"] = np.minimum(starts, max(index.shape[0] - 1, 0))
        state["empty"] = np.bincount(index, minlength=dim_size) == 0
    group_shape = (dim_size,) + scores.shape[1:]
    gathered = np.take(scores, state["perm"], axis=0,
                       out=_state_buffer(op, "gathered", scores.shape, scores.dtype))
    group_max = _state_buffer(op, "group_max", group_shape, scores.dtype)
    np.maximum.reduceat(gathered, state["starts"], axis=0, out=group_max)
    group_max[state["empty"]] = -np.inf
    group_max[~np.isfinite(group_max)] = 0.0
    spread = np.take(group_max, index, axis=0,
                     out=_state_buffer(op, "spread", scores.shape, scores.dtype))
    exp = _state_buffer(op, "exp", scores.shape, scores.dtype)
    np.subtract(scores, spread, out=exp)
    np.exp(exp, out=exp)
    denom = _scatter_sum_into(op, "denom", exp, index, dim_size,
                              op.meta["aggregate"])
    np.maximum(denom, 1e-16, out=denom)
    np.take(denom, index, axis=0, out=spread)
    _out(op, rt, np.divide(exp, spread, out=op.buffer))


def _bwd_segment_softmax(op, rt, g):
    out_data = rt.values[op.out]
    index = op.meta["index"]
    weighted = g * out_data
    group_dot = _scatter_sum_into(op, "dot", weighted, index,
                                  op.meta["dim_size"], op.meta["aggregate"])
    rt.contribute(op.ins[0], out_data * (g - group_dot[index]))


_register(OpImpl("segment_softmax", _fwd_segment_softmax, _bwd_segment_softmax,
                 out_mode="buffer", bwd_reads_out=True))


# -- sparse / fused kernels --------------------------------------------------
def _spmm_mode(op) -> str:
    return "buffer" if len(op.in_shapes[0]) == 2 else "fresh"


def _fwd_spmm(op, rt):
    dense = rt.values[op.ins[0]]
    if op.buffer is not None:
        _out(op, rt, _csr_into(op.meta["sparse"].matrix, dense, op.buffer))
    else:
        _out(op, rt, op.meta["sparse"].matrix @ dense)


def _bwd_spmm(op, rt, g):
    sparse = op.meta["sparse"]
    if g.ndim == 2:
        buf = _state_buffer(op, "grad", op.in_shapes[0], g.dtype)
        rt.contribute(op.ins[0], _csr_into(sparse.transposed_csr, g, buf))
    else:
        rt.contribute(op.ins[0], sparse.transposed_csr @ g)


_register(OpImpl("spmm", _fwd_spmm, _bwd_spmm, out_mode="buffer",
                 mode_fn=_spmm_mode))


def _fwd_spmm_bias_act(op, rt):
    # Inline mirror of kernels.spmm_bias_act_forward with every product
    # landing in a persistent buffer: A @ (X W) or (A X) @ W, bias added
    # in place after propagation, fused activation applied in place.  The
    # leaky_relu/elu branches stage the same masked expressions the dynamic
    # kernel evaluates, with the elu gradient local computed from the
    # *pre-activation* value — reconstructing it from the output would not
    # be bit-identical.
    operator = op.meta["operator"]
    x = rt.values[op.ins[0]]
    weight = rt.values[op.ins[1]]
    out = op.buffer
    if op.meta["prop_first"]:
        propagated = _state_buffer(op, "propagated", x.shape, x.dtype)
        _csr_into(operator.matrix, x, propagated)
        np.matmul(propagated, weight, out=out)
    else:
        transformed = _state_buffer(op, "transformed",
                                    (x.shape[0], weight.shape[1]), x.dtype)
        np.matmul(x, weight, out=transformed)
        _csr_into(operator.matrix, transformed, out)
    if len(op.ins) > 2:
        out += rt.values[op.ins[2]]
    activation = op.meta["activation"]
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "leaky_relu":
        positive = _state_buffer(op, "positive", out.shape, np.bool_)
        np.greater(out, 0, out=positive)
        negative = _state_buffer(op, "negative", out.shape, np.bool_)
        np.logical_not(positive, out=negative)
        np.multiply(out, _kernels.FUSED_NEGATIVE_SLOPE, out=out, where=negative)
    elif activation == "elu":
        positive = _state_buffer(op, "positive", out.shape, np.bool_)
        np.greater(out, 0, out=positive)
        if op.needs_backward:
            local = _state_buffer(op, "local", out.shape, out.dtype)
            np.minimum(out, 0.0, out=local)
            np.exp(local, out=local)
            local[positive] = 1.0
        scratch = _state_buffer(op, "scratch", out.shape, out.dtype)
        np.minimum(out, 0.0, out=scratch)
        np.expm1(scratch, out=scratch)
        negative = _state_buffer(op, "negative", out.shape, np.bool_)
        np.logical_not(positive, out=negative)
        np.copyto(out, scratch, where=negative)
    _out(op, rt, out)
    if op.needs_backward and activation == "relu":
        mask = _state_buffer(op, "relu_mask", out.shape, np.bool_)
        np.greater(out, 0, out=mask)


def _bwd_spmm_bias_act(op, rt, g):
    operator = op.meta["operator"]
    x = rt.values[op.ins[0]]
    weight = rt.values[op.ins[1]]
    activation = op.meta["activation"]
    if activation == "relu":
        g = g * op.state["relu_mask"]
    elif activation == "leaky_relu":
        grad = _state_buffer(op, "act_grad", g.shape, g.dtype)
        np.multiply(g, _kernels.FUSED_NEGATIVE_SLOPE, out=grad)
        np.copyto(grad, g, where=op.state["positive"])
        g = grad
    elif activation == "elu":
        g = np.multiply(g, op.state["local"],
                        out=_state_buffer(op, "act_grad", g.shape, g.dtype))
    if len(op.ins) > 2 and op.in_requires[2]:
        rt.contribute(op.ins[2], g.sum(axis=0))
    if op.meta["prop_first"]:
        if op.in_requires[1]:
            wgrad = _state_buffer(op, "wgrad", op.in_shapes[1], g.dtype)
            rt.contribute(op.ins[1], np.matmul(op.state["propagated"].T, g, out=wgrad))
        if op.in_requires[0]:
            xgrad = _state_buffer(op, "xgrad", op.in_shapes[0], g.dtype)
            rt.contribute(op.ins[0],
                          _csr_into(operator.transposed_csr, g @ weight.T, xgrad))
    else:
        support = _state_buffer(op, "support", g.shape, g.dtype)
        _csr_into(operator.transposed_csr, g, support)
        if op.in_requires[1]:
            wgrad = _state_buffer(op, "wgrad", op.in_shapes[1], g.dtype)
            rt.contribute(op.ins[1], np.matmul(x.T, support, out=wgrad))
        if op.in_requires[0]:
            xgrad = _state_buffer(op, "xgrad", op.in_shapes[0], g.dtype)
            rt.contribute(op.ins[0], np.matmul(support, weight.T, out=xgrad))


_register(OpImpl("spmm_bias_act", _fwd_spmm_bias_act, _bwd_spmm_bias_act,
                 out_mode="buffer", bwd_reads_in=True))


def _gspmm_operands(op, rt):
    """Resolve the (lhs, rhs) replay values of a gspmm/gsddmm record."""
    position = 0
    lhs = rhs = None
    lhs_index = rhs_index = None
    if op.meta["has_lhs"]:
        lhs_index = position
        lhs = rt.values[op.ins[position]]
        position += 1
    if op.meta["has_rhs"]:
        rhs_index = position
        rhs = rt.values[op.ins[position]]
    return lhs, rhs, lhs_index, rhs_index


def _fwd_gspmm(op, rt):
    # The forward recomputes the exact expressions of kernels.gspmm_forward;
    # only the max reduction's argmax mask and tie counts persist (they are
    # private fresh arrays) — the mul/mean intermediates are re-derived from
    # the live input slots at backward time (bwd_reads_in keeps them alive),
    # so no state entry ever aliases a reusable arena buffer.
    lhs, rhs, _, _ = _gspmm_operands(op, rt)
    state = {} if op.needs_backward and op.meta["reduce"] == "max" else None
    out = _kernels.gspmm_forward(op.meta["block"], op.meta["op"],
                                 op.meta["reduce"], lhs, rhs, state=state)
    if state is not None:
        op.state["argmax_mask"] = state["argmax_mask"]
        op.state["tie_counts"] = state["tie_counts"]
    _out(op, rt, out)


def _bwd_gspmm(op, rt, g):
    block = op.meta["block"]
    reduce = op.meta["reduce"]
    lhs, rhs, lhs_index, rhs_index = _gspmm_operands(op, rt)
    state = {}
    if op.meta["op"] == "mul":
        gathered = lhs[block.u]
        state["gathered"] = gathered
        state["rhs_b"] = _kernels._broadcast_edge_operand(rhs, gathered.ndim)
    if reduce == "mean":
        inv_deg = block.inverse_degrees(g.dtype)
        state["inv_deg"] = inv_deg.reshape((block.num_nodes,)
                                           + (1,) * (g.ndim - 1))
    elif reduce == "max":
        state["argmax_mask"] = op.state["argmax_mask"]
        state["tie_counts"] = op.state["tie_counts"]
    lhs_shape = op.in_shapes[lhs_index] \
        if lhs_index is not None and op.in_requires[lhs_index] else None
    rhs_shape = op.in_shapes[rhs_index] \
        if rhs_index is not None and op.in_requires[rhs_index] else None
    grad_lhs, grad_rhs = _kernels.gspmm_backward(
        block, op.meta["op"], reduce, g, state, lhs_shape, rhs_shape)
    if grad_lhs is not None:
        rt.contribute(op.ins[lhs_index], grad_lhs)
    if grad_rhs is not None:
        rt.contribute(op.ins[rhs_index], grad_rhs)


_register(OpImpl("gspmm", _fwd_gspmm, _bwd_gspmm, bwd_reads_in=True))


def _fwd_gsddmm(op, rt):
    lhs, rhs, _, _ = _gspmm_operands(op, rt)
    _out(op, rt, _kernels.gsddmm_forward(
        op.meta["block"], op.meta["op"], lhs, rhs,
        op.meta["lhs_target"], op.meta["rhs_target"]))


def _bwd_gsddmm(op, rt, g):
    block = op.meta["block"]
    kind = op.meta["op"]
    lhs, rhs, lhs_index, rhs_index = _gspmm_operands(op, rt)
    state = {}
    if kind in ("mul", "dot"):
        # Re-gather the operands the product rule reads (cheap views/takes
        # from the still-live input slots, never stale state).
        if lhs is not None:
            state["left"] = _kernels._gsddmm_operand(
                block, lhs, op.meta["lhs_target"])
        if rhs is not None:
            state["right"] = _kernels._gsddmm_operand(
                block, rhs, op.meta["rhs_target"])
    lhs_shape = op.in_shapes[lhs_index] \
        if lhs_index is not None and op.in_requires[lhs_index] else None
    rhs_shape = op.in_shapes[rhs_index] \
        if rhs_index is not None and op.in_requires[rhs_index] else None
    grad_lhs, grad_rhs = _kernels.gsddmm_backward(
        block, kind, g, state, lhs_shape, rhs_shape,
        op.meta["lhs_target"], op.meta["rhs_target"])
    if grad_lhs is not None:
        rt.contribute(op.ins[lhs_index], grad_lhs)
    if grad_rhs is not None:
        rt.contribute(op.ins[rhs_index], grad_rhs)


_register(OpImpl("gsddmm", _fwd_gsddmm, _bwd_gsddmm, bwd_reads_in=True))


# -- BatchNorm running statistics (effectful identity) -----------------------
def _fwd_bn_stats(op, rt):
    # Mirror of modules.BatchNorm's training-mode stat update: same
    # mean/var reductions, same in-place exponential moving average (the
    # dynamic side updates the registered buffers in place, so the arrays
    # this op's meta holds are the module's own buffers).
    x = rt.values[op.ins[0]]
    momentum = op.meta["momentum"]
    mean = _state_buffer(op, "mean", x.shape[1:], x.dtype)
    var = _state_buffer(op, "var", x.shape[1:], x.dtype)
    tmp = _state_buffer(op, "tmp", x.shape[1:], x.dtype)
    np.mean(x, axis=0, out=mean)
    np.var(x, axis=0, out=var)
    running_mean = op.meta["running_mean"]
    running_var = op.meta["running_var"]
    running_mean *= (1.0 - momentum)
    np.multiply(mean, momentum, out=tmp)
    running_mean += tmp
    running_var *= (1.0 - momentum)
    np.multiply(var, momentum, out=tmp)
    running_var += tmp
    _out(op, rt, x)


def _bwd_bn_stats(op, rt, g):
    rt.contribute(op.ins[0], g)


_register(OpImpl("bn_stats", _fwd_bn_stats, _bwd_bn_stats,
                 out_mode="view", effectful=True))
