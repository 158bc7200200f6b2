"""Deterministic fault injection behind zero-cost production hooks.

A :class:`FaultPlan` is a registry of :class:`FaultRule`\\ s keyed by *site*
strings — stable names of the injection points wired into the production
code (``"backend.task"`` around every dispatched task,
``"artifact.save"``/``"artifact.weights"`` inside
:meth:`FittedEnsemble.save <repro.core.artifact.FittedEnsemble.save>`,
``"wal.append"`` after every journal record).  With no plan installed every
hook is a single module-attribute ``None`` check, so the production paths
pay nothing — the overhead gate in ``benchmarks/harness.py`` holds the hooks
to <2 % on the Table VI workload.

Faults are *deterministic*: rules match on the task index, the attempt
number and the executing backend, never on wall clock or randomness, so a
chaos test that kills worker 3 on attempt 0 kills exactly worker 3 on
attempt 0, every run.  Plans are plain picklable data and ship to process
workers alongside the task, where a ``crash`` rule terminates the child with
``os._exit`` — producing a *genuine* ``BrokenProcessPool`` in the parent,
not a simulated one.

Usage::

    plan = FaultPlan([FaultRule(site="backend.task", kind="crash",
                                indices=(3,), attempts=(0,),
                                backends=("process",))])
    with plan.installed():
        ...   # task 3 crashes on attempt 0, then retries cleanly

When task 3 shares the broken pool with other in-flight tasks, that crash is
charged to no one and fires once more while the lost tasks re-run one at a
time (an uncharged re-dispatch keeps its attempt number); the second crash
names task 3, which is charged and retried cleanly on attempt 1.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.resilience.policy import WorkerCrashError

__all__ = [
    "FaultInjected",
    "FaultRule",
    "FaultPlan",
    "active_plan",
    "install_plan",
    "uninstall_plan",
    "fault_point",
    "damage_file",
]

#: Fault behaviours a rule can request.
FAULT_KINDS = ("exception", "crash", "hang", "corrupt", "truncate")


class FaultInjected(RuntimeError):
    """The transient exception raised by an ``exception`` fault rule."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic injection: *where*, *when* and *what*.

    Parameters
    ----------
    site : str
        Injection point name (``"backend.task"``, ``"artifact.save"``,
        ``"artifact.weights"``, ``"wal.append"``, or any site a test wires
        up).
    kind : str
        ``"exception"`` raises :class:`FaultInjected`; ``"crash"`` kills the
        executing worker process with ``os._exit(1)`` (raising
        :class:`~repro.resilience.policy.WorkerCrashError` when there is no
        separate worker process to kill); ``"hang"`` sleeps ``delay``
        seconds before continuing (drives timeout paths); ``"corrupt"``
        flips one byte of the file handed to :func:`damage_file`;
        ``"truncate"`` cuts ``byte_count`` bytes off its tail.
    indices / attempts : tuple of int, optional
        Fire only for these task indices / attempt numbers (``None`` =
        any).  Keying transient faults by ``attempts=(0,)`` makes the retry
        deterministic without any shared counter.  The attempt number the
        ``"backend.task"`` site passes is the number of failures charged to
        the task so far: a re-dispatch after a pool break that was shared
        by several in-flight tasks is uncharged and passes the same number
        again.
    backends : tuple of str, optional
        Fire only when the executing backend's name matches (``None`` =
        any) — lets a plan crash process workers while leaving the thread
        fallback clean after degradation.
    max_fires : int, optional
        Stop firing after this many triggers *within one process* (crash
        rules in process workers should key on ``attempts`` instead — the
        fire counter dies with the worker).
    delay : float
        Sleep duration of ``"hang"`` rules, seconds.
    byte_offset / byte_count : int
        Which byte ``"corrupt"`` flips (negative = from the end) and how
        many tail bytes ``"truncate"`` removes.
    """

    site: str
    kind: str = "exception"
    indices: Optional[Tuple[int, ...]] = None
    attempts: Optional[Tuple[int, ...]] = None
    backends: Optional[Tuple[str, ...]] = None
    max_fires: Optional[int] = None
    delay: float = 0.05
    byte_offset: int = -1
    byte_count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        for name in ("indices", "attempts", "backends"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    def matches(self, site: str, index: int, attempt: int,
                backend: Optional[str]) -> bool:
        """Whether this rule fires for the given hook invocation."""
        if site != self.site:
            return False
        if self.indices is not None and index not in self.indices:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        if self.backends is not None and backend not in self.backends:
            return False
        return True


class FaultPlan:
    """An installable set of deterministic fault rules.

    The plan itself is picklable (rules are frozen dataclasses; the
    per-process fire counters are reset on unpickle), so the supervised
    dispatch loop can ship it to process workers together with each task.
    """

    def __init__(self, rules: Sequence[FaultRule] = ()) -> None:
        self.rules: List[FaultRule] = list(rules)
        self._fires: Dict[int, int] = {}

    def __getstate__(self) -> dict:
        return {"rules": self.rules}

    def __setstate__(self, state: dict) -> None:
        self.rules = state["rules"]
        self._fires = {}

    def fires(self, rule: FaultRule) -> int:
        """How many times ``rule`` has fired in this process."""
        return self._fires.get(id(rule), 0)

    def trigger(self, site: str, index: int = 0, attempt: int = 0,
                backend: Optional[str] = None) -> None:
        """Fire the first matching ``exception``/``crash``/``hang`` rule.

        File-damage rules (``corrupt``/``truncate``) are inert here; they
        only act through :func:`damage_file`.
        """
        for rule in self.rules:
            if rule.kind in ("corrupt", "truncate"):
                continue
            if not self._arm(rule, site, index, attempt, backend):
                continue
            if rule.kind == "hang":
                time.sleep(rule.delay)
                return
            if rule.kind == "crash":
                if multiprocessing.parent_process() is not None:
                    # A real worker process: die without cleanup, exactly
                    # like an OOM kill — the parent sees BrokenProcessPool.
                    os._exit(1)
                raise WorkerCrashError(
                    f"injected worker crash at {site!r} "
                    f"(index={index}, attempt={attempt})")
            raise FaultInjected(
                f"injected fault at {site!r} (index={index}, attempt={attempt})")

    def damage(self, site: str, path: str, index: int = 0,
               attempt: int = 0) -> bool:
        """Apply the first matching file-damage rule to ``path``.

        Returns whether anything was damaged.  ``corrupt`` flips the byte at
        ``byte_offset``; ``truncate`` removes ``byte_count`` tail bytes.
        """
        for rule in self.rules:
            if rule.kind not in ("corrupt", "truncate"):
                continue
            if not self._arm(rule, site, index, attempt, None):
                continue
            size = os.path.getsize(path)
            if size == 0:
                return False
            if rule.kind == "corrupt":
                offset = rule.byte_offset % size
                with open(path, "r+b") as handle:
                    handle.seek(offset)
                    byte = handle.read(1)
                    handle.seek(offset)
                    handle.write(bytes([byte[0] ^ 0xFF]))
            else:
                with open(path, "r+b") as handle:
                    handle.truncate(max(0, size - rule.byte_count))
            return True
        return False

    def _arm(self, rule: FaultRule, site: str, index: int, attempt: int,
             backend: Optional[str]) -> bool:
        """Match + fire-count bookkeeping for one rule."""
        if not rule.matches(site, index, attempt, backend):
            return False
        fired = self._fires.get(id(rule), 0)
        if rule.max_fires is not None and fired >= rule.max_fires:
            return False
        self._fires[id(rule)] = fired + 1
        return True

    @contextlib.contextmanager
    def installed(self) -> Iterator["FaultPlan"]:
        """Install this plan globally for the duration of the block."""
        install_plan(self)
        try:
            yield self
        finally:
            uninstall_plan()


#: The process-global active plan; ``None`` keeps every hook free.
_ACTIVE: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None`` (the production state)."""
    return _ACTIVE


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-global fault plan."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def uninstall_plan() -> None:
    """Remove the global plan; every hook returns to the zero-cost path."""
    global _ACTIVE
    _ACTIVE = None


def fault_point(site: str, index: int = 0, attempt: int = 0,
                backend: Optional[str] = None) -> None:
    """Production hook: a no-op unless a plan is installed.

    Call sites pay one module-attribute load and a ``None`` comparison when
    injection is off — cheap enough to leave compiled into hot-adjacent
    paths permanently.
    """
    plan = _ACTIVE
    if plan is not None:
        plan.trigger(site, index=index, attempt=attempt, backend=backend)


def damage_file(site: str, path: str) -> bool:
    """Production hook for file-damage rules; no-op unless a plan is installed."""
    plan = _ACTIVE
    if plan is not None:
        return plan.damage(site, path)
    return False
