"""Spans around the library's layers, recorded from outside the library.

A traced run (``--trace 1``) calls :func:`install`, which replaces a public
function of each layer with a wrapper that records one span per call: a
name, a start, an end, the span that was open when it started (its parent)
and a few attributes read off the call's result.  Nothing under ``src/``
changes; the untraced runs never install the wrappers, and the traced run
dispatches exactly the tasks the library hands to its backend.

Spans stay in memory and :meth:`Tracer.write` writes them out when the run
ends.  A process-pool worker, forked from the traced parent, inherits the
wrappers and records its own spans and counter deltas; it writes them to a
file when it exits, and :func:`collect_workers` merges them into the
parent's record after the pool has closed.  Worker spans have no parent in
the parent's tree.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Candidate zoo of the default configuration
#: (``repro.nn.available_models()`` at the time of writing).
CANDIDATES = (
    "appnp", "arma", "chebnet", "dagnn", "dna", "gat", "gat-2h", "gatedgnn",
    "gcn", "gcn-3", "gcnii", "gin", "grand", "graphconv", "graphmix",
    "graphsage-mean", "graphsage-pool", "jknet-max", "jknet-mean", "mixhop",
    "mlp", "rgat", "rgcn", "rgcn-basis", "sgc", "sgc-3", "sign", "tagcn",
)


class Tracer:
    """In-memory span record of this process.

    A span is a list ``[id, name, start, end, parent, attrs]`` with
    ``time.perf_counter`` times.  ``overhead_s`` sums the time the wrappers
    spend on their own bookkeeping.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.overhead_s = 0.0
        self.paused = False
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[list]:
        if self.paused:
            return None
        entered = time.perf_counter()
        stack = self._stack()
        span = [len(self.spans), name, 0.0, 0.0, stack[-1][0] if stack else None, {}]
        stack.append(span)
        self.spans.append(span)
        span[2] = time.perf_counter()
        self.overhead_s += span[2] - entered
        return span

    def end(self, span: Optional[list], **attrs) -> None:
        if span is None:
            return
        span[3] = time.perf_counter()
        span[5].update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.overhead_s += time.perf_counter() - span[3]

    @contextmanager
    def span(self, name: str, **attrs):
        handle = self.begin(name)
        try:
            yield handle
        finally:
            self.end(handle, **attrs)

    def write(self, path: str) -> None:
        """Write every span as one JSON line, with its self time."""
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "self_s": own[span_id],
                    "attrs": attrs}, default=str) + "\n")


TRACER = Tracer()


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span duration minus the part of it that its children cover.

    The covered part is the union of the children's intervals, so children
    that overlap are not subtracted twice.
    """
    children: Dict[int, List[tuple]] = {}
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    own = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        own[span_id] = (end - start) - covered
    return own


# ----------------------------------------------------------------------
# Counters read off the library (engine and cache), per process
# ----------------------------------------------------------------------
def read_counters() -> Dict[str, float]:
    from repro.autograd.capture import engine_stats
    from repro.parallel.cache import compute_cache

    engine = engine_stats()
    cache = compute_cache().stats()
    return {"traces": engine["traces"], "replays": engine["replays"],
            "bailouts": engine["bailouts"], "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "resident_bytes": cache["resident_bytes"]}


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in before if key != "resident_bytes"}


# ----------------------------------------------------------------------
# Process-pool workers
# ----------------------------------------------------------------------
#: Directory that forked workers write their record to; set by :func:`install`.
_worker_dir: Optional[str] = None


def _start_worker(tracer: "Tracer") -> None:
    """In a freshly forked worker: record afresh, and write out at exit.

    ``multiprocessing`` calls this after it has cleared the finalizers the
    worker inherited; the finalizer registered here runs when the worker
    leaves its loop, before ``os._exit``.
    """
    from multiprocessing import util

    tracer.spans = []
    tracer.overhead_s = 0.0
    tracer._local = threading.local()
    util.Finalize(None, _write_worker, args=(tracer, read_counters()), exitpriority=10)


def _write_worker(tracer: "Tracer", baseline: Dict[str, float]) -> None:
    after = read_counters()
    record = {"spans": tracer.spans, "overhead_s": tracer.overhead_s,
              "counters": counter_delta(baseline, after),
              "resident_bytes": after["resident_bytes"]}
    path = os.path.join(_worker_dir, f"worker-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, default=str)


def collect_workers(tracer: "Tracer") -> Dict[str, float]:
    """Merge the records of exited workers into ``tracer``; remove them.

    Returns the workers' summed counter deltas and resident cache bytes
    (zero when no worker ran).
    """
    totals = {"traces": 0, "replays": 0, "bailouts": 0, "cache_hits": 0,
              "cache_misses": 0, "resident_bytes": 0}
    for path in sorted(glob.glob(os.path.join(_worker_dir or "", "worker-*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        os.remove(path)
        offset = len(tracer.spans)
        for span_id, name, start, end, parent, attrs in record["spans"]:
            tracer.spans.append([span_id + offset, name, start, end,
                                 None if parent is None else parent + offset, attrs])
        tracer.overhead_s += record["overhead_s"]
        for key, value in record["counters"].items():
            totals[key] += value
        totals["resident_bytes"] += record["resident_bytes"]
    return totals


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _patch(owner, attr: str, make: Callable) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _timed(name: str, attrs_of: Optional[Callable] = None) -> Callable:
    """Wrapper factory: one span per call, attributes from ``attrs_of``."""

    def make(original):
        def wrapper(*args, **kwargs):
            span = TRACER.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                TRACER.end(span, error=True)
                raise
            TRACER.end(span, **(attrs_of(args, result) if attrs_of and span else {}))
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    return make


def _traced_map(original):
    """Wrapper of ``ExecutionBackend.map``; the tasks go to the pool unchanged.

    ``task_s`` sums the seconds that tasks report in their own results
    (``CandidateScore.train_time`` of the proxy map); ``timed_results``
    counts those results.
    """

    def wrapper(self, fn, items, *args, **kwargs):
        span = TRACER.begin("backend.map")
        report = original(self, fn, items, *args, **kwargs)
        seconds = [result.train_time for result in report.results
                   if isinstance(getattr(result, "train_time", None), float)]
        TRACER.end(span, tasks=len(report.results), task_s=sum(seconds),
                   timed_results=len(seconds),
                   workers=1 if type(self).__name__ == "SerialBackend" else self.max_workers,
                   process=type(self).__name__ == "ProcessBackend")
        return report

    wrapper.__wrapped__ = original
    return wrapper


def _proxy_attrs(args, report) -> dict:
    return {"runs": sum(len(score.scores) for score in report.scores),
            "candidates": {score.name: score.train_time for score in report.scores}}


def _trainer_attrs(args, result) -> dict:
    return {"epochs": result.epochs_run, "engine_s": result.engine_seconds,
            "captured": bool(result.capture_used)}


def install(worker_dir: str) -> None:
    """Start tracing this process: wrap each layer's public functions.

    Process-pool workers forked from here write their record to
    ``worker_dir`` when they exit (see :func:`collect_workers`).
    """
    from multiprocessing import util

    from repro.autograd import capture
    from repro.autograd.ir import passes
    from repro.core.adaptive import AdaptiveSearch
    from repro.core.artifact import FittedEnsemble
    from repro.core.gradient_search import GradientSearch
    from repro.core.hierarchical import HierarchicalEnsemble
    from repro.core.pipeline import AutoHEnsGNN
    from repro.core.proxy import ProxyEvaluator
    from repro.nn.data import GraphTensors
    from repro.parallel import backends
    from repro.serve import BatchScorer
    from repro.serve.streaming import StreamingScorer
    from repro.tasks.trainer import NodeClassificationTrainer

    _patch(AutoHEnsGNN, "fit", _timed("pipeline.fit"))
    _patch(ProxyEvaluator, "evaluate", _timed("proxy.evaluate", _proxy_attrs))
    _patch(AdaptiveSearch, "search", _timed("search.adaptive"))
    _patch(GradientSearch, "search", _timed("search.gradient"))
    _patch(HierarchicalEnsemble, "fit", _timed(
        "retrain.fit", lambda args, _: {"members": sum(len(e.members) for e in args[0].ensembles)}))
    _patch(NodeClassificationTrainer, "train", _timed("trainer.train", _trainer_attrs))
    _patch(capture, "run_passes", _timed("ir.run_passes"))
    _patch(passes, "run_passes", _timed("ir.run_passes"))
    _patch(backends.SerialBackend, "map", _traced_map)
    _patch(backends._PoolBackend, "map", _traced_map)
    _patch(GraphTensors, "from_graph", _timed("graph.tensors"))
    _patch(StreamingScorer, "flush",
           _timed("stream.flush", lambda _, applied: {"applied": applied}))
    _patch(BatchScorer, "score", _timed("batch.score"))
    _patch(FittedEnsemble, "load", _timed("artifact.load"))
    _patch(FittedEnsemble, "predict_proba", _timed("artifact.predict"))
    global _worker_dir
    _worker_dir = worker_dir
    util.register_after_fork(TRACER, _start_worker)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
SEARCHES = ("search.adaptive", "search.gradient")


def _durations(spans: List[list], name: str) -> List[float]:
    return [span[3] - span[2] for span in spans if span[1] == name]


def _median_ms(values: List[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _under(spans: List[list], names: tuple) -> List[list]:
    """Spans with an ancestor named in ``names``."""
    by_id = {span[0]: span for span in spans}
    inside = []
    for span in spans:
        parent = span[4]
        while parent is not None:
            if by_id[parent][1] in names:
                inside.append(span)
                break
            parent = by_id[parent][4]
    return inside


def candidate_seconds(tracer: Tracer) -> Dict[str, float]:
    """Proxy training seconds per candidate (``CandidateScore.train_time``)."""
    seconds: Dict[str, float] = {}
    for span in tracer.spans:
        if span[1] == "proxy.evaluate":
            for name, value in span[5].get("candidates", {}).items():
                seconds[name] = seconds.get(name, 0.0) + value
    return seconds


def layer_metrics(tracer: Tracer, counters: Dict[str, float], resident_bytes: int,
                  serving: Optional[dict], peak_rss_mb: float) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from one traced run.

    ``tracer`` holds the parent's spans and, after :func:`collect_workers`,
    the pool workers' ones.  ``counters`` are the engine/cache counter
    deltas over the traced region and ``resident_bytes`` the caches'
    resident bytes at the end, both summed over the parent and its workers.
    ``serving`` is ``StreamingScorer.describe()`` of the run's streaming
    scorer.  A layer that did no work reads 0.
    """
    spans = tracer.spans
    by_name: Dict[str, List[list]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def total(name: str) -> float:
        return sum(_durations(spans, name))

    def attr_sum(name: str, key: str) -> float:
        return sum(span[5].get(key, 0) for span in by_name.get(name, ()))

    metrics: Dict[str, float] = {}
    metrics["proxy.s"] = total("proxy.evaluate")
    metrics["proxy.runs"] = attr_sum("proxy.evaluate", "runs")
    metrics["search.s"] = sum(total(name) for name in SEARCHES)
    metrics["search.trainings"] = sum(
        1 for span in _under(spans, SEARCHES)
        if span[1] == "trainer.train" and not span[5].get("error"))
    metrics["retrain.s"] = total("retrain.fit")
    metrics["retrain.members"] = attr_sum("retrain.fit", "members")

    trainings = by_name.get("trainer.train", [])
    trainer_s = total("trainer.train")
    engine_s = attr_sum("trainer.train", "engine_s")
    epochs = attr_sum("trainer.train", "epochs")
    metrics["trainer.calls"] = len(trainings)
    metrics["trainer.epochs"] = epochs
    metrics["trainer.s"] = trainer_s
    metrics["trainer.engine_s"] = engine_s
    metrics["trainer.engine_ms_per_epoch"] = 1000.0 * engine_s / epochs if epochs else 0.0
    metrics["trainer.outside_engine_s"] = trainer_s - engine_s

    metrics["capture.traces"] = counters["traces"]
    metrics["capture.replays"] = counters["replays"]
    metrics["capture.bailouts"] = counters["bailouts"]
    replayed_runs = sum(1 for span in trainings if span[5].get("captured"))
    metrics["capture.replay_share"] = replayed_runs / len(trainings) if trainings else 0.0
    metrics["ir.calls"] = len(by_name.get("ir.run_passes", ()))
    metrics["ir.passes_s"] = total("ir.run_passes")

    maps = by_name.get("backend.map", [])
    timed = [span for span in maps if span[5].get("timed_results")]
    capacity = sum((span[3] - span[2]) * span[5]["workers"] for span in timed)
    metrics["backend.maps"] = len(maps)
    metrics["backend.tasks"] = attr_sum("backend.map", "tasks")
    metrics["backend.map_s"] = total("backend.map")
    metrics["backend.busy_share"] = (
        sum(span[5]["task_s"] for span in timed) / capacity if capacity else 0.0)

    hits, misses = counters["cache_hits"], counters["cache_misses"]
    metrics["cache.hits"] = hits
    metrics["cache.misses"] = misses
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cache.resident_mb"] = resident_bytes / 2**20
    metrics["graph.tensors_s"] = total("graph.tensors")

    applied = [span[3] - span[2] for span in by_name.get("stream.flush", ())
               if span[5].get("applied")]
    streaming = (serving or {}).get("streaming", {})
    batcher = (serving or {}).get("microbatcher", {})
    metrics["stream.flush_ms"] = _median_ms(applied)
    metrics["stream.structure_refreshes"] = streaming.get("structure_refreshes", 0)
    metrics["stream.powered_delta_rows"] = streaming.get("powered_delta_rows", 0)
    metrics["stream.full_rebuilds"] = streaming.get("powered_full_rebuilds", 0)
    metrics["microbatch.forward_passes"] = batcher.get("forward_passes", 0)
    metrics["microbatch.coalesced"] = batcher.get("coalesced", 0)
    metrics["batch.score_ms"] = _median_ms(_durations(spans, "batch.score"))
    metrics["artifact.load_ms"] = _median_ms(_durations(spans, "artifact.load"))
    metrics["artifact.predict_ms"] = _median_ms(_durations(spans, "artifact.predict"))

    metrics["trace.fit_s"] = total("pipeline.fit")
    metrics["trace.overhead_s"] = tracer.overhead_s
    metrics["memory.peak_rss_mb"] = peak_rss_mb
    return metrics
