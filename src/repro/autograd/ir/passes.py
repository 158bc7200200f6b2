"""Passes over the graph-program IR.

:func:`run_passes` is the one step between lowering a traced tape to a
:class:`~.program.Program` and scheduling its replay: it marks which slots
vary across epochs (everything else is constant-folded into the values
captured during the trace) and verifies the program's structural invariants.

:func:`strip_training` derives an inference-only program: stochastic
regularisers are rewired out (inverted dropout's eval semantics), the loss
head and everything only the backward pass needed are dropped, and the
program is re-rooted at the recorded logits slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.autograd.ir.program import (OpRecord, Program, mark_variance,
                                       verify_program)


# ---------------------------------------------------------------------------
# inference stripping
# ---------------------------------------------------------------------------
_STOCHASTIC = ("dropout", "drop_node")


def strip_training(program: Program) -> Optional[Program]:
    """Derive the inference-only program rooted at the recorded output.

    Stochastic regularisers are identity at eval time (inverted dropout), so
    their outputs are rewired to their inputs; everything not reachable from
    the output slot — the loss head, training-index gathers, every op that
    existed only for the backward pass — is dropped.  Returns ``None`` when
    the program has no recorded output or contains effectful ops (BatchNorm
    stats: eval-mode normalisation uses running stats, which no rewrite of
    the training-mode tape reproduces).

    The returned program *shares* slot metadata with its parent (read-only)
    but owns fresh :class:`OpRecord` instances, so planning buffers for it
    never disturbs the training replay.
    """
    if program.output_slot is None:
        return None
    if any(op.impl.effectful for op in program.ops):
        return None

    alias: Dict[int, int] = {}

    def resolve(slot: int) -> int:
        while slot in alias:
            slot = alias[slot]
        return slot

    for op in program.ops:
        if op.kind in _STOCHASTIC:
            alias[op.out] = resolve(op.ins[0])

    target = resolve(program.output_slot)
    producer = program.producer_map()
    needed = set()
    stack = [target]
    while stack:
        slot = stack.pop()
        if slot in needed:
            continue
        needed.add(slot)
        op = producer.get(slot)
        if op is not None and op.out not in alias:
            stack.extend(resolve(s) for s in op.ins)

    new_ops: List[OpRecord] = []
    for op in program.ops:
        if op.out in alias or op.out not in needed:
            continue
        new_ops.append(OpRecord(
            kind=op.kind, impl=op.impl, out=op.out,
            ins=tuple(resolve(s) for s in op.ins),
            prev=tuple(resolve(s) for s in op.prev),
            in_requires=op.in_requires, in_shapes=op.in_shapes,
            needs_backward=False, meta=op.meta, state={}, mode=op.mode))
    return Program(slots=program.slots, ops=new_ops,
                   loss_slot=None, output_slot=target)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------
def run_passes(program: Program) -> None:
    """Mark epoch variance over ``program`` in place, then verify it."""
    mark_variance(program)
    verify_program(program)
