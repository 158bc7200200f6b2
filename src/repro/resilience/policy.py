"""Failure policies for supervised execution: retries, backoff, partial results.

A :class:`ResiliencePolicy` turns :meth:`ExecutionBackend.map
<repro.parallel.backends.ExecutionBackend.map>` from "first exception aborts
everything" into a supervised dispatch loop: each task gets a bounded number
of attempts with seeded exponential backoff between them, an optional per-task
timeout on the pooled backends, and — when ``on_failure="drop"`` — a
structured :class:`FailureReport` instead of an aborted run when every attempt
is exhausted.

The policy is *pure data* (picklable, no callables), so it travels to process
workers and can live inside :class:`~repro.core.config.AutoHEnsGNNConfig`.
Backoff delays are a deterministic function of ``(seed, index, attempt)``:
two runs of the same plan sleep the same schedule, which keeps chaos tests
reproducible.

``policy=None`` runs the same dispatch loop under
:data:`repro.parallel.backends.TRY_ONCE` (one attempt, the error raised);
fault-free results are bit-identical under any policy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "FailureReport",
    "ResiliencePolicy",
    "TaskTimeoutError",
    "WorkerCrashError",
]

#: Failure kinds recorded in :class:`FailureReport`.
FAILURE_KINDS = ("exception", "timeout", "worker_crash")


class TaskTimeoutError(RuntimeError):
    """A supervised task exceeded its per-task timeout on every attempt."""


class WorkerCrashError(RuntimeError):
    """A worker died (or a crash fault fired) while running a supervised task."""


@dataclass
class FailureReport:
    """One task that exhausted its attempts under a ``drop`` policy.

    ``index`` is the position in the ``items`` sequence handed to ``map``;
    call sites translate it into domain context (candidate name, grid point,
    bagging split) via ``context`` before surfacing the report.
    """

    index: int
    error_type: str
    message: str
    attempts: int
    kind: str
    backend: str
    elapsed: float = 0.0
    context: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> Dict[str, object]:
        """JSON-safe view for logs and pipeline detail dictionaries."""
        return {
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "kind": self.kind,
            "backend": self.backend,
            "elapsed": self.elapsed,
            "context": dict(self.context),
        }


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a supervised ``map`` treats failing tasks.

    Parameters
    ----------
    max_retries : int
        Additional attempts after the first one (``0`` = try once).
    backoff_seconds : float
        Base delay before retry ``n`` (grows by ``backoff_multiplier**n``).
    backoff_multiplier : float
        Exponential growth factor of the backoff schedule.
    backoff_jitter : float
        Fraction of the delay added as seeded, deterministic jitter so
        simultaneous retries de-synchronise without losing reproducibility.
    task_timeout : float, optional
        Per-task wall-clock limit in seconds, enforced by the thread/process
        backends (the serial backend cannot pre-empt a running task and
        documents timeouts as unsupported).  A timed-out future is abandoned:
        its eventual result is discarded, and — on the thread backend — its
        side effects may still land, so timed-out tasks must be idempotent.
    on_failure : str
        ``"raise"`` re-raises the final error once attempts are exhausted;
        ``"drop"`` records a
        :class:`FailureReport`, leaves ``None`` at the task's result slot and
        keeps the run alive.
    max_pool_rebuilds : int
        How many times the process backend rebuilds a broken pool before
        degrading to the next backend in the chain (process → thread →
        serial).  Every break counts, including a break shared by several
        in-flight tasks that charges none of them.
    degrade : bool
        Whether the degradation chain is enabled at all; with ``False`` a
        repeatedly broken pool fails the unfinished tasks instead, each
        reported with the attempts actually charged to it.
    seed : int
        Seed of the deterministic backoff jitter.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.1
    task_timeout: Optional[float] = None
    on_failure: str = "raise"
    max_pool_rebuilds: int = 2
    degrade: bool = True
    seed: int = 0

    def validate(self) -> List[str]:
        """Return a list of problems (empty when the policy is well-formed)."""
        problems: List[str] = []
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            problems.append(f"max_retries must be a non-negative integer, "
                            f"got {self.max_retries!r}")
        if self.backoff_seconds < 0:
            problems.append(f"backoff_seconds must be >= 0, "
                            f"got {self.backoff_seconds!r}")
        if self.backoff_multiplier < 1.0:
            problems.append(f"backoff_multiplier must be >= 1, "
                            f"got {self.backoff_multiplier!r}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            problems.append(f"backoff_jitter must lie in [0, 1], "
                            f"got {self.backoff_jitter!r}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            problems.append(f"task_timeout must be positive or None, "
                            f"got {self.task_timeout!r}")
        if self.on_failure not in ("raise", "drop"):
            problems.append(f"on_failure must be 'raise' or 'drop', "
                            f"got {self.on_failure!r}")
        if not isinstance(self.max_pool_rebuilds, int) or self.max_pool_rebuilds < 0:
            problems.append(f"max_pool_rebuilds must be a non-negative integer, "
                            f"got {self.max_pool_rebuilds!r}")
        return problems

    def check(self) -> "ResiliencePolicy":
        """Raise ``ValueError`` listing every problem; returns ``self``."""
        problems = self.validate()
        if problems:
            details = "\n  - ".join(problems)
            raise ValueError(f"invalid ResiliencePolicy:\n  - {details}")
        return self

    @property
    def max_attempts(self) -> int:
        """Total attempts a task receives (first try plus retries)."""
        return self.max_retries + 1

    def backoff_for(self, index: int, attempt: int) -> float:
        """Deterministic delay before retry ``attempt`` of task ``index``.

        ``attempt`` counts retries from 1.  The jitter term is derived from a
        hash of ``(seed, index, attempt)``, so the schedule is reproducible
        yet de-synchronised across tasks.
        """
        if self.backoff_seconds <= 0 or attempt <= 0:
            return 0.0
        base = self.backoff_seconds * (self.backoff_multiplier ** (attempt - 1))
        if self.backoff_jitter <= 0:
            return base
        digest = hashlib.blake2b(
            f"{self.seed}:{index}:{attempt}".encode(), digest_size=8).digest()
        fraction = int.from_bytes(digest, "big") / float(2 ** 64)
        return base * (1.0 + self.backoff_jitter * fraction)
