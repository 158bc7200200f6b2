"""Pluggable execution backends for independent training runs.

AutoHEnsGNN is full of *embarrassingly parallel* work: proxy evaluation
trains every pool candidate independently, a graph self-ensemble trains K
seed-replicas independently, bagging trains one predictor per random split,
and the adaptive search grid-searches depths per architecture independently.
The sequential loops of the seed implementation left all of that on one core.

:class:`ExecutionBackend` is the one interface those call sites use:
``backend.map(fn, items)`` runs ``fn`` over ``items`` and returns the results
in item order, optionally honouring a :class:`~repro.automl.budget.TimeBudget`
by *not dispatching* further items once the budget heuristic says another
round would overrun (completed work is never cancelled, so results are always
a deterministic prefix of the items).

Three implementations ship:

* :class:`SerialBackend` — the reference; identical semantics, zero overhead.
* :class:`ThreadBackend` — threads; NumPy/SciPy release the GIL inside BLAS
  and sparse kernels, so full-batch GNN training overlaps well.
* :class:`ProcessBackend` — processes; requires picklable tasks (every task
  function used by this repository is module-level for exactly this reason).
  Known cost: each submitted task pickles its full argument tuple, so call
  sites that embed a shared ``GraphTensors`` in every task re-serialise the
  graph per task; an executor-initializer path that ships shared state once
  per worker is the natural next optimisation if IPC ever dominates.

Supervision (``repro.resilience``): each backend has one dispatch loop,
driven by a :class:`~repro.resilience.policy.ResiliencePolicy` — bounded
retries with seeded exponential backoff, per-task timeouts on the pooled
backends, structured :class:`~repro.resilience.policy.FailureReport` records
under ``on_failure="drop"``, and (for the process backend) broken-pool
detection with rebuild and a process → thread → serial degradation chain.
``policy=None`` runs the same loop under :data:`TRY_ONCE`: one attempt per
task, the first error raised, no timeout, no rebuild, no degradation.  The
``"backend.task"`` fault-injection site wraps every dispatched task; it is a
single ``None`` check unless a :class:`~repro.resilience.faults.FaultPlan`
is installed.

Determinism contract: tasks must derive all randomness from explicit seeds in
their arguments.  Under that contract every backend produces bit-for-bit the
same results, which the test suite asserts.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import heapq
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.resilience import faults as _faults
from repro.resilience.policy import (
    FailureReport,
    ResiliencePolicy,
    TaskTimeoutError,
    WorkerCrashError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle: automl.budget -> core -> nn -> parallel
    from repro.automl.budget import TimeBudget

#: The policy ``map(policy=None)`` runs under: try each task once and raise
#: its error; no timeout, no pool rebuild, no degradation.
TRY_ONCE = ResiliencePolicy(max_retries=0, on_failure="raise",
                            max_pool_rebuilds=0, degrade=False)


@dataclass
class MapReport:
    """Outcome of one :meth:`ExecutionBackend.map` call."""

    results: List[object]
    dispatched: int
    skipped: int
    elapsed: float
    backend: str
    details: dict = field(default_factory=dict)
    #: Tasks that exhausted their attempts (or were lost with a broken pool)
    #: under a ``drop`` policy; their slot in ``results`` holds ``None``.
    failures: List[FailureReport] = field(default_factory=list)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


def _call_with_faults(fn, plan, backend_name, index, attempt, item):
    """Run one task through the ``"backend.task"`` fault-injection site.

    Module-level (picklable) so the plan ships to process workers with each
    task: a ``crash`` rule then ``os._exit``\\ s the *actual* worker process,
    producing a genuine ``BrokenProcessPool`` in the parent.
    """
    plan.trigger("backend.task", index=index, attempt=attempt,
                 backend=backend_name)
    return fn(item)


def _failure_kind(error: BaseException) -> str:
    if isinstance(error, (WorkerCrashError, concurrent.futures.BrokenExecutor)):
        return "worker_crash"
    if isinstance(error, TaskTimeoutError):
        return "timeout"
    return "exception"


class ExecutionBackend:
    """Interface shared by the serial / thread / process executors."""

    name = "abstract"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        cpus = os.cpu_count() or 1
        self.max_workers = max(1, max_workers if max_workers is not None else cpus)

    # ------------------------------------------------------------------
    # The one entry point
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[object], object], items: Sequence[object],
            budget: Optional["TimeBudget"] = None, min_results: int = 1,
            policy: Optional[ResiliencePolicy] = None) -> MapReport:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled workers (no-op for the serial backend)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> dict:
        return {"backend": self.name, "max_workers": self.max_workers}

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}(max_workers={self.max_workers})"

    # ------------------------------------------------------------------
    # Budget heuristic shared by every implementation
    # ------------------------------------------------------------------
    @staticmethod
    def _may_dispatch(budget: Optional["TimeBudget"], cost_observed: float,
                      completed: int, dispatched: int, min_results: int) -> bool:
        """Decide whether one more task may be submitted.

        ``cost_observed`` must be the *summed per-task latency* of the
        completed tasks (for the serial backend that equals wall-clock
        elapsed).  Feeding wall clock on a parallel backend would divide
        latency by the worker count and systematically over-dispatch tasks
        that cannot finish inside the budget.
        """
        if budget is None or dispatched < max(min_results, 1):
            return True
        if completed == 0:
            # No cost data yet (the initial fill of a parallel backend):
            # require head-room, not merely "not yet exhausted" — a nearly
            # spent budget must not front-load a whole worker wave.
            return not budget.exhausted() and budget.remaining_fraction() > 0.1
        return budget.has_time_for_another(cost_observed, completed)

    # ------------------------------------------------------------------
    # Supervision helpers shared by the implementations
    # ------------------------------------------------------------------
    def _fallback_backend(self) -> Optional["ExecutionBackend"]:
        """Next backend in the degradation chain (``None`` = end of chain)."""
        return None

    @staticmethod
    def _make_failure(index: int, error: BaseException, attempts: int,
                      backend: str, elapsed: float) -> FailureReport:
        return FailureReport(
            index=index,
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
            kind=_failure_kind(error),
            backend=backend,
            elapsed=elapsed,
        )


class SerialBackend(ExecutionBackend):
    """Run tasks in the calling thread, in order.

    Supervision caveat: the serial backend cannot pre-empt a running task,
    so ``policy.task_timeout`` is documented as unsupported here (retries,
    backoff and the drop contract all apply normally).
    """

    name = "serial"

    def map(self, fn: Callable[[object], object], items: Sequence[object],
            budget: Optional["TimeBudget"] = None, min_results: int = 1,
            policy: Optional[ResiliencePolicy] = None) -> MapReport:
        policy = TRY_ONCE if policy is None else policy.check()
        items = list(items)
        start = time.time()
        plan = _faults.active_plan()
        results: List[object] = [None] * len(items)
        failures: List[FailureReport] = []
        completed = 0
        retries = 0
        dispatched = 0
        for index, item in enumerate(items):
            if not self._may_dispatch(budget, time.time() - start, completed,
                                      index, min_results):
                break
            dispatched = index + 1
            attempt = 0
            task_start = time.time()
            while True:
                try:
                    if plan is not None:
                        plan.trigger("backend.task", index=index,
                                     attempt=attempt, backend=self.name)
                    results[index] = fn(item)
                    completed += 1
                    break
                except Exception as error:
                    attempt += 1
                    if attempt >= policy.max_attempts:
                        if policy.on_failure == "raise":
                            raise
                        failures.append(self._make_failure(
                            index, error, attempt, self.name,
                            time.time() - task_start))
                        break
                    retries += 1
                    delay = policy.backoff_for(index, attempt)
                    if delay:
                        time.sleep(delay)
        details = {"retries": retries}
        return MapReport(results=results[:dispatched], dispatched=dispatched,
                         skipped=len(items) - dispatched,
                         elapsed=time.time() - start, backend=self.name,
                         details=details, failures=failures)


class _PoolBackend(ExecutionBackend):
    """Shared submit/refill loop for thread and process pools.

    Items are dispatched in order; when a worker frees up the budget heuristic
    decides whether the next item is submitted.  Dispatched work is always
    awaited, so the result list is a prefix of ``items`` regardless of the
    order in which workers finish.

    The underlying executor is created lazily on the first :meth:`map` call
    and reused by subsequent ones — a pipeline issues one map per stage
    (proxy, adaptive grid, each bagging split), and re-spawning worker
    processes per stage would pay the interpreter/NumPy import cost every
    time.  :meth:`close` (or use as a context manager) releases the workers;
    it is idempotent and never raises, even after a broken pool.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__(max_workers)
        self._pool: Optional[concurrent.futures.Executor] = None

    def _make_executor(self) -> concurrent.futures.Executor:
        raise NotImplementedError

    def _ensure_pool(self) -> concurrent.futures.Executor:
        if self._pool is None:
            self._pool = self._make_executor()
        return self._pool

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=True)
        except Exception:
            # Shutting down a broken pool (dead workers, torn queues) can
            # itself raise; close() is a cleanup path and must stay safe to
            # call from finally blocks and __exit__.
            pass

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown path
        try:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=False)
        except BaseException:
            # Interpreter teardown may have dismantled the executor's
            # machinery already; __del__ must never propagate.
            pass

    def map(self, fn: Callable[[object], object], items: Sequence[object],
            budget: Optional["TimeBudget"] = None, min_results: int = 1,
            policy: Optional[ResiliencePolicy] = None) -> MapReport:
        """Retry/timeout/rebuild-aware dispatch loop (``policy=None`` runs it
        under :data:`TRY_ONCE`).

        Invariants: every admitted item ends *resolved* — a success, a
        recorded :class:`FailureReport` (``on_failure="drop"``) or the cause
        of the re-raised error (``on_failure="raise"``, raised after the
        in-flight tasks are awaited, or with the pool closed if it broke).

        A broken pool is charged only to the task that broke it.  When one
        task was in flight, that task is charged one attempt.  When several
        were, none is charged: they are re-queued as *suspects* at their
        current attempt number, and concurrency drops to one until every
        suspect is resolved, so the next break names its task.  A task that
        crashes every time therefore costs up to ``policy.max_attempts + 1``
        rebuilds.  The pool is rebuilt up to ``policy.max_pool_rebuilds``
        times, re-dispatching only unfinished items; past that the
        unresolved remainder is delegated to the next backend in the
        degradation chain (process → thread → serial) when
        ``policy.degrade`` allows.  Without a fallback, every unresolved
        item — admitted or kept from admission by the break — gets a
        ``worker_crash`` report carrying the attempts actually charged to it.
        """
        policy = TRY_ONCE if policy is None else policy.check()
        items = list(items)
        start = time.time()
        count = len(items)
        if count == 0:
            return MapReport(results=[], dispatched=0, skipped=0, elapsed=0.0,
                             backend=self.name)
        plan = _faults.active_plan()
        results: List[object] = [None] * count
        failures: List[FailureReport] = []
        attempts = [0] * count
        resolved = [False] * count
        first_submit: Dict[int, float] = {}
        suspects = set()  # tasks lost to a pool break, run one at a time
        completed = 0
        retries = 0
        rebuilds = 0
        admitted = 0            # contiguous admission prefix of `items`
        total_latency = 0.0
        pending: Dict["concurrent.futures.Future", int] = {}
        submit_times: Dict["concurrent.futures.Future", float] = {}
        deadlines: Dict["concurrent.futures.Future", float] = {}
        retry_queue: List = []  # heap of (due_time, index)
        details: dict = {}
        lost_to: Optional[BaseException] = None  # break that ended dispatch
        pool = self._ensure_pool()

        def submit(index: int) -> None:
            if plan is None:
                future = pool.submit(fn, items[index])
            else:
                future = pool.submit(_call_with_faults, fn, plan, self.name,
                                     index, attempts[index], items[index])
            now = time.time()
            pending[future] = index
            submit_times[future] = now
            first_submit.setdefault(index, now)
            if policy.task_timeout is not None:
                deadlines[future] = now + policy.task_timeout

        def resolve_failure(index: int, error: BaseException) -> None:
            nonlocal retries
            attempts[index] += 1
            if attempts[index] >= policy.max_attempts:
                if policy.on_failure == "raise":
                    raise error
                failures.append(self._make_failure(
                    index, error, attempts[index], self.name,
                    time.time() - first_submit[index]))
                resolved[index] = True
            else:
                retries += 1
                due = time.time() + policy.backoff_for(index, attempts[index])
                heapq.heappush(retry_queue, (due, index))

        def refill() -> None:
            nonlocal admitted
            now = time.time()
            limit = 1 if any(not resolved[index] for index in suspects) \
                else self.max_workers
            while retry_queue and retry_queue[0][0] <= now \
                    and len(pending) < limit:
                _, index = heapq.heappop(retry_queue)
                submit(index)
            while admitted < count and len(pending) < limit \
                    and self._may_dispatch(budget, total_latency, completed,
                                           admitted, min_results):
                submit(admitted)
                admitted += 1

        try:
            refill()
            while pending or retry_queue:
                if not pending:
                    # Only backoff timers left: sleep until the earliest one.
                    delay = retry_queue[0][0] - time.time()
                    if delay > 0:
                        time.sleep(min(delay, 0.25))
                    refill()
                    continue
                now = time.time()
                waits = []
                if deadlines:
                    waits.append(max(0.0, min(deadlines.values()) - now))
                if retry_queue:
                    waits.append(max(0.0, retry_queue[0][0] - now))
                timeout = min(waits) + 1e-3 if waits else None
                done, _ = concurrent.futures.wait(
                    pending, timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                broken: Optional[BaseException] = None
                lost: List[int] = []
                for future in done:
                    index = pending.pop(future)
                    submitted_at = submit_times.pop(future)
                    deadlines.pop(future, None)
                    try:
                        value = future.result()
                    except concurrent.futures.BrokenExecutor as error:
                        broken = error
                        lost.append(index)
                        continue
                    except Exception as error:
                        resolve_failure(index, error)
                        continue
                    results[index] = value
                    resolved[index] = True
                    # Per-task latency, not wall clock: a new task finishes
                    # roughly one latency from now regardless of how many
                    # workers ran in parallel meanwhile.
                    total_latency += time.time() - submitted_at
                    completed += 1
                if broken is not None:
                    # The pool is dead: every still-pending future is lost
                    # with it.  Only a lone in-flight task can be blamed;
                    # otherwise re-run the lost tasks one at a time, uncharged.
                    lost.extend(pending.values())
                    pending.clear()
                    submit_times.clear()
                    deadlines.clear()
                    suspects.update(lost)
                    if len(lost) == 1:
                        resolve_failure(lost[0], broken)
                    else:
                        now = time.time()
                        for index in lost:
                            heapq.heappush(retry_queue, (now, index))
                    rebuilds += 1
                    self.close()
                    if rebuilds > policy.max_pool_rebuilds:
                        fallback = (self._fallback_backend() if policy.degrade
                                    else None)
                        if fallback is not None:
                            return self._degrade_remaining(
                                fallback, fn, items, budget, min_results,
                                policy, results, failures, resolved, admitted,
                                retries, rebuilds, start)
                        if policy.on_failure == "raise":
                            raise broken
                        lost_to = broken
                        break
                    pool = self._ensure_pool()
                elif policy.task_timeout is not None:
                    now = time.time()
                    for future, deadline in list(deadlines.items()):
                        if deadline > now:
                            continue
                        index = pending.pop(future)
                        submit_times.pop(future, None)
                        deadlines.pop(future)
                        # cancel() only helps if the task never started; a
                        # running future is abandoned — its worker finishes
                        # (or hangs) in the background and the result is
                        # discarded.
                        future.cancel()
                        resolve_failure(index, TaskTimeoutError(
                            f"task {index} exceeded the per-task timeout of "
                            f"{policy.task_timeout}s (attempt "
                            f"{attempts[index]})"))
                refill()
        except BaseException as exc:
            for future in pending:
                future.cancel()
            # cancel() cannot stop already-running tasks, and thread tasks
            # mutate live objects (GSE members) — wait them out so the caller
            # never observes background mutation after map() has raised.
            if pending and not isinstance(exc, concurrent.futures.BrokenExecutor):
                concurrent.futures.wait(list(pending))
            if isinstance(exc, concurrent.futures.BrokenExecutor):
                self.close()  # next map() gets a fresh pool
            raise
        if lost_to is not None:
            # Items the break kept from admission are lost too, unless the
            # budget had stopped admitting them anyway.
            if self._may_dispatch(budget, total_latency, completed, admitted,
                                  min_results):
                admitted = count
            now = time.time()
            for index in range(admitted):
                if not resolved[index]:
                    failures.append(self._make_failure(
                        index, lost_to, attempts[index], self.name,
                        now - first_submit.get(index, now)))
        details["retries"] = retries
        if rebuilds:
            details["pool_rebuilds"] = rebuilds
        return MapReport(results=results[:admitted], dispatched=admitted,
                         skipped=count - admitted,
                         elapsed=time.time() - start, backend=self.name,
                         details=details, failures=failures)

    def _degrade_remaining(self, fallback: "ExecutionBackend", fn, items,
                           budget, min_results, policy: ResiliencePolicy,
                           results, failures, resolved, admitted, retries,
                           rebuilds, start) -> MapReport:
        """Delegate every unresolved item to ``fallback``, the next backend."""
        sub_indices = [index for index in range(len(items))
                       if not resolved[index]]
        sub_items = [items[index] for index in sub_indices]
        try:
            # Fresh attempt budget on the fallback: the crashes that broke
            # this pool say nothing about how the tasks behave elsewhere.
            sub_report = fallback.map(fn, sub_items, budget=budget,
                                      min_results=min_results, policy=policy)
        finally:
            fallback.close()
        for position, value in enumerate(sub_report.results):
            original = sub_indices[position]
            results[original] = value
            resolved[original] = True
        for failure in sub_report.failures:
            failures.append(FailureReport(
                index=sub_indices[failure.index],
                error_type=failure.error_type,
                message=failure.message,
                attempts=failure.attempts,
                kind=failure.kind,
                backend=failure.backend,
                elapsed=failure.elapsed,
                context=dict(failure.context),
            ))
        if sub_report.skipped:
            cut = sub_indices[len(sub_report.results)]
        else:
            cut = max(admitted, (sub_indices[-1] + 1) if sub_indices else 0)
        details = {"retries": retries + sub_report.details.get("retries", 0),
                   "pool_rebuilds": rebuilds,
                   "degraded_to": sub_report.details.get("degraded_to",
                                                         fallback.name)}
        return MapReport(results=results[:cut], dispatched=cut,
                         skipped=len(items) - cut,
                         elapsed=time.time() - start, backend=self.name,
                         details=details, failures=failures)


class ThreadBackend(_PoolBackend):
    """Thread-pool execution; best default for NumPy-heavy training."""

    name = "thread"

    def _make_executor(self) -> concurrent.futures.Executor:
        return concurrent.futures.ThreadPoolExecutor(max_workers=self.max_workers)

    def _fallback_backend(self) -> Optional[ExecutionBackend]:
        return SerialBackend(max_workers=1)


def _openblas_thread_functions():
    """``(get, set)`` thread-count functions of NumPy's bundled OpenBLAS.

    ``None`` when the wheel ships no ``scipy_openblas`` library exporting
    them (another BLAS, or a build without the bundled one).
    """
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            library = ctypes.CDLL(path)
            get_threads = library.scipy_openblas_get_num_threads64_
            set_threads = library.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


def _init_process_worker(dtype_name: str, max_workers: int) -> None:
    """Process-pool initializer: replicate the parent's compute-dtype policy
    and give each worker its share of the CPUs for BLAS threads.

    Fork-started workers inherit the dtype anyway; spawn-started workers
    (macOS / Windows defaults) need the explicit hand-off.  Without the BLAS
    cap, ``max_workers`` workers each running OpenBLAS's default of one
    thread per CPU oversubscribe the machine.  The cap only ever lowers the
    count, so a user's ``OPENBLAS_NUM_THREADS`` still holds.
    """
    from repro.autograd.dtype import set_compute_dtype

    set_compute_dtype(dtype_name)
    functions = _openblas_thread_functions()
    if functions is not None:
        get_threads, set_threads = functions
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity is not None else (os.cpu_count() or 1)
        cap = max(1, cpus // max_workers)
        if cap < get_threads():
            set_threads(cap)


class ProcessBackend(_PoolBackend):
    """Process-pool execution; tasks and results must be picklable."""

    name = "process"

    def _make_executor(self) -> concurrent.futures.Executor:
        from repro.autograd.dtype import compute_dtype_name

        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_init_process_worker,
            initargs=(compute_dtype_name(), self.max_workers))

    def _fallback_backend(self) -> Optional[ExecutionBackend]:
        return ThreadBackend(max_workers=self.max_workers)


BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}

BackendLike = Union[None, str, ExecutionBackend]


def get_backend(backend: BackendLike = None,
                max_workers: Optional[int] = None) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` and ``"serial"`` return the reference serial executor, so callers
    can thread a ``backend`` argument through unconditionally.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = (backend or "serial").lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; choose from {sorted(BACKENDS)}")
    return BACKENDS[name](max_workers=max_workers)


@contextlib.contextmanager
def scoped_backend(backend: BackendLike = None,
                   max_workers: Optional[int] = None):
    """Resolve a backend for one operation, closing it only if created here.

    ``fit``-style methods that accept ``backend`` as a name must not leak the
    throwaway worker pool they create, but must equally not shut down an
    :class:`ExecutionBackend` instance the caller owns and will reuse.
    """
    executor = get_backend(backend, max_workers=max_workers)
    owned = not isinstance(backend, ExecutionBackend)
    try:
        yield executor
    finally:
        if owned:
            executor.close()
