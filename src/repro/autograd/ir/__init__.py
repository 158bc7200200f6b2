"""Graph-program IR for the capture-and-replay engine.

The traced tape lowers to a :class:`~repro.autograd.ir.program.Program`
(typed ops with explicit slot def/use metadata), gets its epoch variance
marked and verified (:func:`~repro.autograd.ir.passes.run_passes`), and
plans its buffers through the cross-member arena pool
(:mod:`repro.autograd.ir.arena`); :func:`~repro.autograd.ir.passes.strip_training`
derives the inference-only program.
"""

from repro.autograd.ir.arena import (ArenaPool, global_pool, plan_arena,
                                     pooling_disabled)
from repro.autograd.ir.passes import run_passes, strip_training
from repro.autograd.ir.program import (IRVerificationError, OpImpl, OpRecord,
                                       Program, SlotInfo, mark_variance,
                                       verify_program)

__all__ = [
    "ArenaPool", "global_pool", "plan_arena", "pooling_disabled",
    "run_passes", "strip_training",
    "IRVerificationError", "OpImpl", "OpRecord", "Program", "SlotInfo",
    "mark_variance", "verify_program",
]
