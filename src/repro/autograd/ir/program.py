"""Graph-program IR: the typed representation behind capture-and-replay.

A traced iteration lowers to a :class:`Program` — a flat, single-assignment
sequence of :class:`OpRecord` ops over integer *slots* (:class:`SlotInfo`).
The IR makes the def/use structure of the tape explicit for the steps
between trace and replay (:mod:`repro.autograd.ir.passes`, arena planning):
each op names the slot it defines (``out``), the slots it reads (``ins``),
the autograd graph edges it contributes (``prev``, mirroring the dynamic
engine's ``Tensor._prev`` tuples) and the replay twin that executes it
(:class:`OpImpl`).

The contract every derived program must preserve is *bit-identity*:
replaying it produces exactly the floats the dynamic engine would.
:func:`verify_program` checks the structural half of that contract —
single assignment, defined-before-use, defined roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class IRVerificationError(ValueError):
    """A structural invariant of the graph-program IR was violated."""


@dataclass
class OpImpl:
    """Replay twin of one dynamic op kind.

    ``forward(op, rt)`` recomputes the op's output into ``rt.values[op.out]``
    (through ``op.buffer`` when the op is arena-backed); ``backward(op, rt,
    g)`` mirrors the dynamic ``_backward`` closure, contributing gradients
    via ``Replay.contribute``.  The ``bwd_reads_*`` flags feed the
    lifetime analysis: they declare which *values* the backward pass still
    needs, so everything else can die (and donate its buffer) right after
    its last forward use.
    """

    kind: str
    forward: Callable
    backward: Optional[Callable] = None
    out_mode: str = "fresh"           # "buffer" | "fresh" | "view"
    rng: bool = False                 # consumes the seeded RNG stream per epoch
    effectful: bool = False           # mutates external state (e.g. BN stats)
    bwd_reads_in: bool = False
    bwd_reads_out: bool = False
    mode_fn: Optional[Callable] = None


@dataclass
class OpRecord:
    """One recorded op: kind + slot wiring + metadata captured at trace time."""

    kind: str
    impl: OpImpl
    out: int
    ins: Tuple[int, ...]
    prev: Tuple[int, ...]
    in_requires: Tuple[bool, ...]
    in_shapes: Tuple[tuple, ...]
    needs_backward: bool
    meta: Dict[str, object] = field(default_factory=dict)
    state: Dict[str, object] = field(default_factory=dict)
    mode: str = "fresh"
    buffer: Optional[np.ndarray] = None


@dataclass
class SlotInfo:
    """Static facts about one value slot of the captured program."""

    index: int
    shape: tuple
    dtype: np.dtype
    requires_grad: bool
    tensor: Optional[object] = None       # kept for leaves (params / constants)
    producer: Optional[OpRecord] = None
    variant: bool = False
    view_base: Optional[int] = None


@dataclass
class Program:
    """A flat single-assignment graph program: slots + ops + root slots."""

    slots: List[SlotInfo]
    ops: List[OpRecord]
    loss_slot: Optional[int] = None
    output_slot: Optional[int] = None

    def producer_map(self) -> Dict[int, OpRecord]:
        return {op.out: op for op in self.ops}


def mark_variance(program: Program) -> None:
    """Epoch-variance analysis over the program, in place.

    Parameters change under the optimiser, RNG ops draw fresh masks and
    effectful ops must re-run for their side effects; everything downstream
    of any of those must be recomputed each epoch.  The rest is a pure
    function of graph constants and can be folded into the values captured
    during the trace.  Also resolves ``view_base`` chains for view ops.
    """
    slots = program.slots
    for info in slots:
        if info.producer is None:
            info.variant = info.requires_grad
    for op in program.ops:
        info = slots[op.out]
        info.variant = (op.impl.rng or op.impl.effectful
                        or any(slots[s].variant for s in op.ins))
        if op.mode == "view":
            base = op.ins[0]
            info.view_base = (slots[base].view_base
                              if slots[base].view_base is not None else base)


def verify_program(program: Program, check_producers: bool = True) -> None:
    """Check the structural invariants of the IR; raise on violation.

    Invariants: slots indexed densely; ops are single-assignment and read
    only already-defined slots; operand tuples are internally consistent;
    root slots (loss/output) are defined.  ``check_producers=False``
    relaxes the ``slots[op.out].producer is op`` identity for derived
    programs (e.g. inference programs) that share slot metadata with their
    parent.
    """
    slots, ops = program.slots, program.ops
    n = len(slots)
    for index, info in enumerate(slots):
        if info.index != index:
            raise IRVerificationError(f"slot {index} carries index {info.index}")
    defined = set()
    for info in slots:
        if info.producer is None:
            defined.add(info.index)
    for position, op in enumerate(ops):
        if not (len(op.ins) == len(op.in_requires) == len(op.in_shapes)):
            raise IRVerificationError(
                f"op {position} ({op.kind}): operand tuples disagree")
        if op.mode not in ("buffer", "fresh", "view"):
            raise IRVerificationError(
                f"op {position} ({op.kind}): unknown mode {op.mode!r}")
        for s in op.ins:
            if not 0 <= s < n:
                raise IRVerificationError(
                    f"op {position} ({op.kind}) reads out-of-range slot {s}")
            if s not in defined:
                raise IRVerificationError(
                    f"op {position} ({op.kind}) reads slot {s} before definition")
        if not 0 <= op.out < n:
            raise IRVerificationError(
                f"op {position} ({op.kind}) defines out-of-range slot {op.out}")
        if op.out in defined:
            raise IRVerificationError(
                f"op {position} ({op.kind}) redefines slot {op.out}")
        if check_producers and slots[op.out].producer is not op:
            raise IRVerificationError(
                f"op {position} ({op.kind}): slots[{op.out}].producer mismatch")
        defined.add(op.out)
    for name, root in (("loss", program.loss_slot), ("output", program.output_slot)):
        if root is None:
            continue
        if not 0 <= root < n or root not in defined:
            raise IRVerificationError(f"{name} slot {root} is not defined")
