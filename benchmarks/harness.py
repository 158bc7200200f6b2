"""Shared experiment harness for the benchmark suite.

Every ``bench_*`` module regenerates one table or figure of the paper.  The
heavy lifting — training a shared model pool, building every ensemble
baseline on top of it and running the two AutoHEnsGNN variants — is
implemented once here so the per-table benchmarks stay thin and consistent.

Scaling
-------
The harness runs on synthetic analogues on a CPU, so all experiments are
scaled down (smaller graphs, fewer random seeds and epochs) relative to the
paper.  The scaling knobs live in :class:`BenchSettings`; set the environment
variable ``REPRO_BENCH_SCALE`` to ``full`` for a longer, closer-to-the-paper
run or leave the default ``quick`` for a minutes-long pass whose *shape*
(method ordering, variance reduction, crossovers) is the reproduction target.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core import (
    AdaptiveSearch,
    AutoHEnsGNN,
    AutoHEnsGNNConfig,
    DEnsemble,
    GoyalGreedyEnsemble,
    GradientSearch,
    LEnsemble,
    RandomEnsemble,
    SearchMethod,
    train_single_models,
)
from repro.core.config import ProxyConfig
from repro.graph.graph import Graph
from repro.graph.splits import holdout_test_split, random_split
from repro.nn.data import GraphTensors
from repro.tasks.metrics import mean_and_std
from repro.tasks.trainer import TrainConfig


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------
@dataclass
class BenchSettings:
    """Global scaling knobs for the benchmark harness."""

    dataset_scale: float = 0.4
    num_seeds: int = 2
    max_epochs: int = 40
    search_epochs: int = 15
    ensemble_size: int = 2
    pool_size: int = 2
    hidden: int = 32
    proxy_bagging: int = 2
    candidates: Sequence[str] = ("gcn", "gat", "graphsage-mean", "tagcn", "appnp",
                                 "sgc", "gcnii", "grand", "mlp")


def settings() -> BenchSettings:
    """Benchmark settings derived from the ``REPRO_BENCH_SCALE`` environment variable."""
    mode = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if mode == "full":
        return BenchSettings(dataset_scale=1.0, num_seeds=3, max_epochs=150,
                             search_epochs=50, ensemble_size=3, pool_size=3, hidden=64,
                             proxy_bagging=4)
    return BenchSettings()


# ---------------------------------------------------------------------------
# Table formatting
# ---------------------------------------------------------------------------
def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table (printed by every benchmark).

    Besides returning the rendered table, the text is appended to the file
    named by ``REPRO_BENCH_REPORT`` (default ``benchmark_tables.txt`` in the
    working directory) so the regenerated tables survive pytest's output
    capturing and can be compared against the paper after a benchmark run.
    """
    rows = [[str(cell) for cell in row] for row in rows]
    headers = [str(header) for header in headers]
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    rendered = "\n".join(lines)
    report_path = os.environ.get("REPRO_BENCH_REPORT", "benchmark_tables.txt")
    if report_path:
        try:
            with open(report_path, "a", encoding="utf-8") as handle:
                handle.write(rendered + "\n\n")
        except OSError:
            pass
    return rendered


def format_mean_std(values: Sequence[float], scale: float = 100.0) -> str:
    """``mean±std`` in percent, the cell format of the paper's tables."""
    mean, std = mean_and_std(values)
    return f"{mean * scale:.1f}±{std * scale:.1f}"


# ---------------------------------------------------------------------------
# Dataset preparation
# ---------------------------------------------------------------------------
def prepare_node_dataset(graph: Graph, seed: int = 0) -> Graph:
    """Make sure a graph has train/val/test masks for the comparison experiments.

    Challenge-style datasets (hidden test labels) get their labels restored
    from metadata for evaluation; fixed-split citation analogues are returned
    unchanged.
    """
    if graph.train_mask is not None and graph.val_mask is not None \
            and graph.test_mask is not None:
        return graph
    graph = graph.copy()
    hidden = graph.metadata.get("hidden_labels")
    if hidden is not None:
        graph.labels = np.asarray(hidden).copy()
    if graph.test_mask is None:
        graph = holdout_test_split(graph, test_fraction=0.3, seed=seed)
        pool = graph.metadata.get("labelled_pool")
    else:
        pool = np.where(~graph.test_mask)[0]
        graph.metadata["labelled_pool"] = pool
    graph = random_split(graph, val_fraction=0.25, seed=seed, labelled_pool=pool)
    return graph


# ---------------------------------------------------------------------------
# The shared "one dataset, every method" comparison (Tables II, III, V)
# ---------------------------------------------------------------------------
def ensemble_comparison(graph: Graph, pool: Sequence[str], cfg: Optional[BenchSettings] = None,
                        seeds: Optional[Sequence[int]] = None,
                        include_methods: Optional[Sequence[str]] = None) -> Dict[str, List[float]]:
    """Run single models + every ensemble method on one dataset.

    Returns ``{method name: [test accuracy per seed]}`` where the methods are
    the rows of Tables II/III/V: each pool model individually, D-ensemble,
    L-ensemble, Goyal et al., AutoHEnsGNN_Adaptive and AutoHEnsGNN_Gradient.
    """
    cfg = cfg or settings()
    seeds = list(seeds if seeds is not None else range(cfg.num_seeds))
    wanted = set(include_methods) if include_methods else None
    results: Dict[str, List[float]] = {}

    def record(name: str, value: float) -> None:
        if wanted is not None and name not in wanted:
            return
        results.setdefault(name, []).append(value)

    for seed in seeds:
        prepared = prepare_node_dataset(graph, seed=seed)
        data = GraphTensors.from_graph(prepared)
        labels = prepared.labels
        train_idx = prepared.mask_indices("train")
        val_idx = prepared.mask_indices("val")
        test_idx = prepared.mask_indices("test")
        train_config = TrainConfig(lr=0.02, max_epochs=cfg.max_epochs, patience=15, seed=seed)

        pool_outcome = train_single_models(
            pool, data, labels, train_idx, val_idx, num_classes=prepared.num_classes,
            hidden=cfg.hidden, train_config=train_config, replicas=cfg.ensemble_size,
            seed=seed)

        # Individual models (first replica only, as the paper's single-model rows).
        from repro.tasks.metrics import accuracy

        for name, entry in pool_outcome.items():
            record(name, accuracy(entry["probas"][0][test_idx], labels[test_idx]))

        def build(cls):
            ensemble = cls()
            for name, entry in pool_outcome.items():
                for proba in entry["probas"]:
                    ensemble.add(name, proba)
            return ensemble

        d_ensemble = build(DEnsemble)
        record("D-ensemble", d_ensemble.evaluate(labels, test_idx))

        l_ensemble = build(LEnsemble)
        l_ensemble.fit_weights(labels, val_idx, lr=0.1, epochs=100)
        record("L-ensemble", l_ensemble.evaluate(labels, test_idx))

        goyal = build(GoyalGreedyEnsemble)
        goyal.fit_greedy(labels, val_idx)
        record("Goyal et al.", goyal.evaluate(labels, test_idx))

        for method, label in ((SearchMethod.ADAPTIVE, "AutoHEnsGNN-Adaptive"),
                              (SearchMethod.GRADIENT, "AutoHEnsGNN-Gradient")):
            if wanted is not None and label not in wanted:
                continue
            pipeline = AutoHEnsGNN(pipeline_config(cfg, method, seed))
            outcome = pipeline.fit_predict(prepared, pool=list(pool))
            record(label, outcome.test_accuracy(labels, test_idx))
    return results


def pipeline_config(cfg: BenchSettings, method: SearchMethod, seed: int) -> AutoHEnsGNNConfig:
    """The scaled-down pipeline configuration used across the benchmarks."""
    config = AutoHEnsGNNConfig(
        pool_size=cfg.pool_size,
        ensemble_size=cfg.ensemble_size,
        max_layers=3,
        search_method=method,
        search_epochs=cfg.search_epochs,
        bagging_splits=1,
        hidden=cfg.hidden,
        seed=seed,
        candidate_models=list(cfg.candidates),
        proxy=ProxyConfig(dataset_fraction=0.3, bagging_rounds=cfg.proxy_bagging,
                          hidden_fraction=0.5, max_epochs=30, seed=seed),
    )
    config.train = TrainConfig(lr=0.02, max_epochs=cfg.max_epochs, patience=15, seed=seed)
    return config


def comparison_rows(results: Dict[str, List[float]]) -> List[List[str]]:
    """Format an ``ensemble_comparison`` result as table rows (best row marked)."""
    rows = []
    best_method = max(results, key=lambda name: np.mean(results[name]))
    for name, values in results.items():
        marker = " *" if name == best_method else ""
        rows.append([name + marker, format_mean_std(values)])
    return rows


# ---------------------------------------------------------------------------
# Runtime-regression gate (CI)
# ---------------------------------------------------------------------------
#: Pool trained by the serial micro-benchmark (one conv family per hot path:
#: fused GCN kernel, decoupled propagation, spatial aggregation).
MICROBENCH_POOL = ("gcn", "sgc", "graphsage-mean")

#: The six candidates of the Table VI runtime study (bench_table6_runtime).
TABLE6_POOL = ("gcn", "gat", "sgc", "tagcn", "mlp", "graphsage-mean")


def _capture_speedup_sweep(epochs: int = 60) -> Dict[str, Dict[str, float]]:
    """One paired engine sweep: per-model engine seconds on both engines.

    Trains the six Table VI candidates for a fixed ``epochs`` full-batch
    epochs each (no early stopping) on the benchmark-scale arxiv analogue,
    once on the dynamic autograd engine and once through capture-replay,
    asserting bit-identical predictions.  Each model is trained on both
    engines back to back — the tightest pairing the workload allows, so a
    machine-load burst hits both halves of a pair.  The compared quantity
    is the trainer's ``engine_seconds`` — wall time inside ``run_epoch``
    calls only — so model building, validation and best-state snapshots,
    which are identical engine-independent work on both paths, do not
    dilute the engine ratio.  (The capture side still pays its trace epoch,
    IR verification and arena planning inside ``run_epoch`` timing.)
    """
    from repro.datasets import make_arxiv_dataset
    from repro.nn.model_zoo import build_model
    from repro.tasks.trainer import NodeClassificationTrainer

    cfg = settings()
    graph = prepare_node_dataset(
        make_arxiv_dataset(scale=0.25 * cfg.dataset_scale, seed=0), seed=0)
    data = GraphTensors.from_graph(graph)
    labels = graph.labels
    train_idx = graph.mask_indices("train")
    val_idx = graph.mask_indices("val")

    def train_one(name: str, capture: bool):
        model = build_model(name, data.num_features, graph.num_classes,
                            hidden=cfg.hidden, seed=0)
        config = TrainConfig(lr=0.02, max_epochs=epochs, patience=epochs,
                             evaluate_every=5, capture=capture, seed=0)
        result = NodeClassificationTrainer(config).train(
            model, data, labels, train_idx, val_idx)
        return result.engine_seconds, model.predict_proba(data)

    for name in TABLE6_POOL:   # warm the compute cache before the pairs
        train_one(name, True)
    sweep: Dict[str, Dict[str, float]] = {}
    for name in TABLE6_POOL:
        d_seconds, d_probas = train_one(name, False)
        r_seconds, r_probas = train_one(name, True)
        assert np.array_equal(d_probas, r_probas), \
            f"capture replay diverged from the dynamic engine for {name}"
        sweep[name] = {"dynamic": d_seconds, "replay": r_seconds}
    return sweep


def capture_speedup_study(epochs: int = 60, repeats: int = 5,
                          isolated: bool = True) -> Dict[str, float]:
    """Dynamic engine vs capture replay on the six-model Table VI workload.

    ``epochs=60`` matches the pipeline's shortest real training stage (the
    proxy search; GSE/bagging stages run 120–200), so the one-time trace
    epoch, IR verification and arena planning amortize the way they do in an
    actual run — a shorter horizon under-states the engine.

    Runs :func:`_capture_speedup_sweep` ``repeats`` times and reduces each
    model's engine seconds by **per-model median** across repeats before
    summing: a machine-load burst that lands on one model in one repeat
    perturbs one sample out of ``repeats``, not a whole repeat's aggregate.
    The reported speedup is the ratio of the summed per-model medians.

    With ``isolated=True`` (the default) every sweep runs in a fresh
    interpreter: the dynamic engine speeds up 10–15 % as the process heap
    ages (its allocation-heavy epochs increasingly hit warm allocator
    arenas) while the allocation-free replay is insensitive to heap state,
    so in-process repeats — or a study run late in a larger benchmark
    suite — systematically deflate the ratio relative to the fresh-process
    regime a training run actually starts in.  Process isolation makes
    every sample a fresh-regime sample.
    """
    if isolated:
        import json
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root] +
            ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import json\n"
                "from benchmarks.harness import _capture_speedup_sweep\n"
                f"print(json.dumps(_capture_speedup_sweep({int(epochs)})))\n")
        sweeps = []
        for _ in range(max(repeats, 1)):
            proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"isolated capture sweep failed:\n{proc.stderr}")
            sweeps.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    else:
        sweeps = [_capture_speedup_sweep(epochs)
                  for _ in range(max(repeats, 1))]
    dynamic_seconds = sum(
        float(np.median([sweep[name]["dynamic"] for sweep in sweeps]))
        for name in TABLE6_POOL)
    replay_seconds = sum(
        float(np.median([sweep[name]["replay"] for sweep in sweeps]))
        for name in TABLE6_POOL)
    return {
        "capture_dynamic_seconds": dynamic_seconds,
        "capture_replay_seconds": replay_seconds,
        "capture_speedup": dynamic_seconds / max(replay_seconds, 1e-9),
    }


def capture_engine_microbenchmark(rounds: int = 5,
                                  iterations: int = 40) -> Dict[str, float]:
    """Steady-state per-epoch throughput: dynamic engine vs capture replay.

    For each of the six Table VI candidates, builds the model and optimiser
    once, traces the training iteration, then times dynamic epochs and
    replayed epochs in interleaved windows (``rounds`` pairs of
    ``iterations`` epochs each, best window per engine).  This isolates the
    training *engine* — no validation, no model building, no early stopping
    — and the interleaving keeps machine-load drift from favouring either
    side.  Returns per-model epoch milliseconds and the aggregate ratio.
    """
    import timeit

    from repro.autograd import capture as _capture
    from repro.autograd import functional as _F
    from repro.autograd import optim as _optim
    from repro.datasets import make_arxiv_dataset
    from repro.nn.model_zoo import build_model

    cfg = settings()
    graph = prepare_node_dataset(
        make_arxiv_dataset(scale=0.25 * cfg.dataset_scale, seed=0), seed=0)
    data = GraphTensors.from_graph(graph)
    labels = graph.labels
    train_idx = graph.mask_indices("train")
    report: Dict[str, float] = {}
    total_dynamic = 0.0
    total_replay = 0.0
    for name in TABLE6_POOL:
        model = build_model(name, data.num_features, graph.num_classes,
                            hidden=cfg.hidden, seed=0)
        optimizer = _optim.Adam(model.parameters(), lr=0.02, weight_decay=5e-4)
        scheduler = _optim.StepLR(optimizer)

        def dynamic_epoch():
            # The trainer's full-batch epoch, verbatim.
            model.train()
            optimizer.zero_grad()
            logits = model(data)
            loss = _F.cross_entropy(logits[train_idx], labels[train_idx])
            loss.backward()
            optimizer.step()
            scheduler.step()
            return float(loss.item())

        tape = _capture.Tape()
        with _capture.tracing(tape):
            dynamic_epoch()
        replay = tape.finalize(optimizer, scheduler)
        assert replay is not None, f"{name}: {tape.failure}"
        replay.run_epoch()
        count = max(iterations // 4, 10) if name.startswith("gat") else iterations
        best_dynamic = best_replay = float("inf")
        for _ in range(max(rounds, 1)):
            best_dynamic = min(best_dynamic,
                               timeit.timeit(dynamic_epoch, number=count) / count)
            best_replay = min(best_replay,
                              timeit.timeit(replay.run_epoch, number=count) / count)
        report[f"epoch_ms_dynamic_{name}"] = best_dynamic * 1000.0
        report[f"epoch_ms_replay_{name}"] = best_replay * 1000.0
        total_dynamic += best_dynamic
        total_replay += best_replay
        replay.release()
    report["engine_speedup"] = total_dynamic / max(total_replay, 1e-12)
    return report


def ensemble_arena_study(members: int = 4, epochs: int = 6) -> Dict[str, float]:
    """Cross-member arena sharing: pooled vs private allocation, in bytes.

    Trains ``members`` capture-enabled GCN members back to back — the
    sequential shape of GSE/bagged ensemble fitting — twice: once against
    the shared :func:`~repro.autograd.ir.arena.global_pool` and once with
    pooling disabled (every replay allocates private arenas, the pre-pool
    behaviour).  The pool's byte counters are exact, so the study is
    deterministic: the reuse ratio is how many bytes of private arena
    allocation the pool avoided, and the high-water mark is the true peak
    of simultaneously leased storage.
    """
    from repro.autograd.ir.arena import global_pool, pooling_disabled
    from repro.datasets.generators import SBMConfig, make_attributed_sbm
    from repro.nn.model_zoo import build_model
    from repro.tasks.trainer import NodeClassificationTrainer

    graph = prepare_node_dataset(
        make_attributed_sbm(SBMConfig(num_nodes=700, num_classes=4, num_features=48)),
        seed=0)
    data = GraphTensors.from_graph(graph)
    train_idx = graph.mask_indices("train")
    val_idx = graph.mask_indices("val")

    def train_members() -> None:
        for seed in range(members):
            model = build_model("gcn", data.num_features, graph.num_classes,
                                hidden=32, seed=seed)
            config = TrainConfig(lr=0.02, max_epochs=epochs, patience=epochs,
                                 capture=True, seed=seed)
            NodeClassificationTrainer(config).train(
                model, data, graph.labels, train_idx, val_idx)

    pool = global_pool()
    pool.clear()
    pool.reset_stats()
    train_members()
    pooled = pool.stats()
    pool.clear()
    pool.reset_stats()
    with pooling_disabled():
        train_members()
    unpooled = pool.stats()
    return {
        "ensemble_members": float(members),
        "ensemble_arena_pooled_mb": pooled["allocated_bytes"] / 2.0 ** 20,
        "ensemble_arena_unpooled_mb": unpooled["allocated_bytes"] / 2.0 ** 20,
        "ensemble_arena_high_water_mb": pooled["high_water_bytes"] / 2.0 ** 20,
        "ensemble_arena_reuse_ratio": (unpooled["allocated_bytes"]
                                       / max(pooled["allocated_bytes"], 1)),
    }


def memory_microbenchmark(epochs: int = 14) -> Dict[str, float]:
    """Peak RSS and per-epoch allocation behaviour of full-batch training.

    Trains the micro-benchmark GCN under ``tracemalloc`` on both engines and
    samples, at every epoch boundary, (a) the epoch's transient allocation
    peak — bytes allocated above the epoch's starting waterline — and
    (b) the net number of live allocation blocks the epoch added.  The first
    two epochs per engine are discarded (capture traces epoch 0 and builds
    its arena on epoch 1); medians of the steady-state epochs are reported,
    plus the process peak RSS from ``getrusage``.
    """
    import resource
    import tracemalloc

    from repro.datasets.generators import SBMConfig, make_attributed_sbm
    from repro.nn.model_zoo import build_model
    from repro.tasks.trainer import NodeClassificationTrainer

    graph = prepare_node_dataset(
        make_attributed_sbm(SBMConfig(num_nodes=700, num_classes=4, num_features=48)),
        seed=0)
    data = GraphTensors.from_graph(graph)
    train_idx = graph.mask_indices("train")
    val_idx = graph.mask_indices("val")
    report: Dict[str, float] = {}
    for label, capture in (("dynamic", False), ("capture", True)):
        model = build_model("gcn", data.num_features, graph.num_classes,
                            hidden=32, seed=0)
        config = TrainConfig(lr=0.02, max_epochs=epochs, patience=epochs,
                             capture=capture, seed=0)
        peaks: List[float] = []
        blocks: List[float] = []
        state: Dict[str, float] = {}

        def epoch_hook(epoch: int, loss: float) -> None:
            current, peak = tracemalloc.get_traced_memory()
            live_blocks = len(tracemalloc.take_snapshot().traces)
            if "waterline" in state and epoch >= 2:
                peaks.append(peak - state["waterline"])
                blocks.append(live_blocks - state["blocks"])
            tracemalloc.reset_peak()
            state["waterline"] = tracemalloc.get_traced_memory()[0]
            state["blocks"] = live_blocks

        tracemalloc.start()
        try:
            NodeClassificationTrainer(config).train(
                model, data, graph.labels, train_idx, val_idx, epoch_hook=epoch_hook)
        finally:
            tracemalloc.stop()
        report[f"epoch_alloc_peak_kb_{label}"] = float(np.median(peaks)) / 1024.0
        report[f"epoch_net_blocks_{label}"] = float(np.median(blocks))
    report["epoch_alloc_ratio"] = (report["epoch_alloc_peak_kb_dynamic"]
                                   / max(report["epoch_alloc_peak_kb_capture"], 1e-9))
    # ru_maxrss is kilobytes on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def _serving_workload():
    """Fit the shared serving workload once: ``(graph, fitted, fit_seconds)``.

    Both serving micro-benchmarks (batch latency and streaming throughput)
    score the same fitted ensemble over the same 700-node SBM analogue, so
    the paid-once fit is factored out and shared by ``emit_runtime_baseline``.
    """
    import time as _time

    from repro.core.pipeline import AutoHEnsGNN
    from repro.datasets.generators import SBMConfig, make_attributed_sbm

    graph = prepare_node_dataset(
        make_attributed_sbm(SBMConfig(num_nodes=700, num_classes=4, num_features=48)),
        seed=0)
    config = AutoHEnsGNNConfig(
        pool_size=2, ensemble_size=2, max_layers=2, search_epochs=10,
        bagging_splits=1, hidden=32, candidate_models=list(MICROBENCH_POOL),
        proxy=ProxyConfig(dataset_fraction=0.3, bagging_rounds=1,
                          hidden_fraction=0.5, max_epochs=10, seed=0),
        seed=0)
    config.train = TrainConfig(lr=0.02, max_epochs=30, patience=10, seed=0)
    start = _time.perf_counter()
    fitted = AutoHEnsGNN(config).fit(graph)
    return graph, fitted, _time.perf_counter() - start


def serve_latency_microbenchmark(requests: int = 20, prefit=None) -> Dict[str, float]:
    """Artifact cold-load time and per-request inference latency.

    The fit-once/serve-many numbers behind the estimator API: fits a small
    pipeline once (the paid-once AutoML cost), saves the fitted ensemble,
    clears the process-wide compute cache to simulate a fresh serving
    process, then measures the cold ``FittedEnsemble.load`` time, the first
    (cache-warming) request and the median steady-state per-request
    ``predict_proba`` latency through ``forward_inference``.  The
    ``serve_speedup`` ratio (fit seconds per request-second) is recorded in
    the runtime baseline; predictions are asserted bit-identical to the
    fit-time probabilities.
    """
    import tempfile
    import time as _time

    from repro.core.artifact import FittedEnsemble
    from repro.parallel.cache import ComputeCache, compute_cache, set_compute_cache

    graph, fitted, fit_seconds = prefit or _serving_workload()

    previous_cache = compute_cache()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = fitted.save(f"{tmp}/artifact")
            # A serving process starts with an empty compute cache: cold-load
            # and first-request numbers must include that warm-up, steady
            # state not.
            set_compute_cache(ComputeCache())
            start = _time.perf_counter()
            loaded = FittedEnsemble.load(path)
            load_seconds = _time.perf_counter() - start
            start = _time.perf_counter()
            probabilities = loaded.predict_proba(graph)
            first_request_seconds = _time.perf_counter() - start
            assert np.array_equal(probabilities, fitted.fit_report.probabilities), \
                "loaded artifact diverged from fit-time probabilities"
            latencies = []
            for _ in range(max(requests, 1)):
                start = _time.perf_counter()
                loaded.predict_proba(graph)
                latencies.append(_time.perf_counter() - start)
    finally:
        # The cache swap simulates a fresh serving process; the benchmarks
        # that run after this one must not inherit the emptied cache.
        set_compute_cache(previous_cache)
    request_seconds = float(np.median(latencies))
    return {
        "serve_fit_seconds": fit_seconds,
        "serve_artifact_load_seconds": load_seconds,
        "serve_first_request_seconds": first_request_seconds,
        "serve_request_seconds": request_seconds,
        "serve_speedup": fit_seconds / max(request_seconds, 1e-9),
    }


def streaming_serve_microbenchmark(requests: int = 240,
                                   queries_per_mutation: int = 4,
                                   rescore_samples: int = 5,
                                   prefit=None) -> Dict[str, float]:
    """Sustained streaming throughput under a steady mutation load.

    Drives a :class:`~repro.serve.StreamingScorer` through ``requests``
    queries with one graph mutation every ``queries_per_mutation`` requests —
    the serving pattern the engine exists for: a mutation stream slower than
    the query stream, so the microbatcher answers most requests by slicing
    the version's shared probability matrix and only the first query after a
    mutation pays the (incrementally refreshed) forward pass.  Reports the
    sustained requests per second and the p50/p99 per-request latency.  The
    comparator is the batch path on the *same* mutated graphs: a
    :class:`~repro.serve.BatchScorer` re-scoring a fresh snapshot per
    mutation, which pays the full operator and propagation rebuild each
    time.  ``streaming_speedup`` is the paired ratio of the batch re-score
    median to the streaming amortized per-request time on this machine, so
    it normalizes like the other paired gates and is checked by the
    regression gate.
    """
    import time as _time

    from repro.parallel.cache import ComputeCache, compute_cache, set_compute_cache
    from repro.serve import BatchScorer, StreamingScorer

    graph, fitted, _ = prefit or _serving_workload()
    rng = np.random.default_rng(0)
    previous_cache = compute_cache()
    try:
        # A serving process starts with an empty compute cache; the swap is
        # restored below so later benchmarks keep their warm entries.
        set_compute_cache(ComputeCache())
        scorer = StreamingScorer(fitted, graph)
        scorer.score()  # warm-up: seeds the cached A^k X chains and extras
        num_features = scorer.graph.num_features

        def mutate(step: int) -> None:
            if step % 3 == 0:
                node = int(rng.integers(scorer.graph.num_nodes))
                scorer.update_features(np.array([node]),
                                       rng.standard_normal((1, num_features)))
            elif step % 3 == 1:
                for _ in range(20):
                    source = int(rng.integers(scorer.graph.num_nodes))
                    destination = int(rng.integers(scorer.graph.num_nodes))
                    if source != destination \
                            and not scorer.graph.has_edge(source, destination):
                        scorer.add_edges(np.array([[source], [destination]]))
                        return
            else:
                scorer.add_nodes(rng.standard_normal((1, num_features)))

        interval = max(queries_per_mutation, 1)
        latencies = []
        sustained_start = _time.perf_counter()
        for step in range(max(requests, 1)):
            start = _time.perf_counter()
            if step % interval == 0:
                mutate(step // interval)
            scorer.score(np.array([step % scorer.graph.num_nodes]))
            latencies.append(_time.perf_counter() - start)
        sustained_seconds = _time.perf_counter() - sustained_start

        # Comparator: the pre-streaming serving story on the same mutation
        # stream — full batch re-score of a rebuilt snapshot per mutation.
        batch = BatchScorer(fitted)
        batch_latencies = []
        for step in range(max(rescore_samples, 1)):
            mutate(step)
            snapshot = scorer.graph.snapshot()
            start = _time.perf_counter()
            batch.score(snapshot)
            batch_latencies.append(_time.perf_counter() - start)
    finally:
        set_compute_cache(previous_cache)
    ordered = np.sort(np.asarray(latencies))
    p50 = float(np.percentile(ordered, 50))
    p99 = float(np.percentile(ordered, 99))
    amortized = sustained_seconds / max(len(latencies), 1)
    batch_seconds = float(np.median(batch_latencies))
    return {
        "streaming_requests_per_second": len(latencies) / max(sustained_seconds, 1e-9),
        "streaming_request_p50_seconds": p50,
        "streaming_request_p99_seconds": p99,
        "streaming_amortized_seconds": amortized,
        "streaming_batch_rescore_seconds": batch_seconds,
        "streaming_speedup": batch_seconds / max(amortized, 1e-9),
    }


def sharded_scaling_microbenchmark(partitions: Sequence[int] = (1, 2, 4),
                                   workers: Sequence[int] = (1, 2),
                                   requests: int = 5,
                                   prefit=None) -> Dict[str, float]:
    """Partition-parallel scoring over a partitions × workers grid.

    Scores the shared serving workload through ``BatchScorer`` at every
    partition count (serial shard execution, plus the thread backend at each
    worker count for multi-partition plans), asserting each configuration
    bit-identical to the unsharded reference before timing it.  Also records
    the halo-exchange overhead — the fraction of replicated (halo) rows each
    partition carries on top of its owned rows, which is exactly the extra
    propagation work sharding pays for bitwise parity.

    The headline baseline field is ``sharded_overhead``: the paired ratio of
    the largest serial sharded grid point to the unsharded score on the same
    machine and graph.  Like the other paired gates it normalizes runner
    speed away, so the CI regression gate can hold the cost of sharding
    (slicing + halo recompute) to a bounded multiple of a plain score.
    """
    import time as _time

    from repro.serve import BatchScorer

    graph, fitted, _ = prefit or _serving_workload()
    reference = fitted.predict_proba(graph)
    results: Dict[str, float] = {}
    for num_partitions in partitions:
        worker_grid = tuple(workers) if num_partitions > 1 else (1,)
        for num_workers in worker_grid:
            backend = "serial" if num_workers == 1 else "thread"
            scorer = BatchScorer(fitted, num_partitions=num_partitions,
                                 shard_backend=backend, max_workers=num_workers)
            try:
                warm = scorer.score(graph)
                assert np.array_equal(warm.probabilities, reference), \
                    (f"sharded scoring diverged at P={num_partitions} "
                     f"workers={num_workers}")
                latencies = []
                for _ in range(max(requests, 1)):
                    start = _time.perf_counter()
                    scorer.score(graph)
                    latencies.append(_time.perf_counter() - start)
            finally:
                scorer.close()
            key = f"sharded_p{num_partitions}_w{num_workers}_seconds"
            results[key] = float(np.median(latencies))
    # Halo-exchange overhead of the largest grid plan: replicated rows per
    # owned row (the extra memory traffic and propagation work per shard).
    from repro.graph.partition import partition_graph

    largest = max(partitions)
    if largest > 1:
        plan = partition_graph(graph, largest,
                               halo_hops=fitted.receptive_field(), seed=0)
        summary = plan.describe()
        halo = float(np.sum(summary["halo_sizes"]))
        owned = float(np.sum(summary["owned_sizes"]))
        results[f"sharded_halo_fraction_p{largest}"] = halo / max(owned, 1.0)
        results["sharded_edge_cut"] = float(summary["edge_cut"])
        baseline_key = "sharded_p1_w1_seconds"
        grid_key = f"sharded_p{largest}_w1_seconds"
        if baseline_key in results and grid_key in results:
            results["sharded_overhead"] = \
                results[grid_key] / max(results[baseline_key], 1e-9)
    return results


#: Relation counts swept by the heterogeneous runtime study.
HETERO_RELATION_COUNTS = (1, 4, 8)


def hetero_runtime_study(epochs: int = 10,
                         relation_counts: Sequence[int] = HETERO_RELATION_COUNTS
                         ) -> Dict[str, float]:
    """Relation-wise kernel cost: GCN/GAT vs RGCN/RGAT across R ∈ {1, 4, 8}.

    For each relation count, generates a typed SBM
    (:func:`~repro.datasets.generators.make_hetero_sbm`), trains the
    homogeneous GCN/GAT on its union adjacency and the relational
    RGCN/RGAT at matching capacity on the per-relation blocks, and records
    the per-epoch engine milliseconds of each.  The homogeneous rows see
    the same graph through the same :class:`HeteroGraphTensors` view, so
    every difference is the relation-wise dispatch itself: one fused
    ``spmm_bias_act`` per relation for RGCN, a gsddmm → segment-softmax →
    gspmm chain per relation for RGAT.

    The headline baseline field is ``hetero_relational_overhead``: the
    paired per-epoch ratio of RGCN to GCN at R=1, i.e. the cost of routing
    the degenerate single-relation case through the relational layer.
    Bit-parity guarantees that path computes the identical numbers
    (tests/test_hetero.py), and this ratio holds its dispatch overhead
    near the fused fast path; being a same-machine pairing it normalizes
    runner speed away like the other paired gates.
    """
    import time as _time

    from repro.datasets.generators import make_hetero_sbm
    from repro.nn.model_zoo import build_model
    from repro.tasks.trainer import NodeClassificationTrainer

    report: Dict[str, float] = {}
    for num_relations in relation_counts:
        graph = prepare_node_dataset(
            make_hetero_sbm(num_nodes=700, num_classes=4, num_features=48,
                            num_relations=num_relations, num_node_types=2,
                            seed=0), seed=0)
        data = GraphTensors.from_graph(graph)
        labels = graph.labels
        train_idx = graph.mask_indices("train")
        val_idx = graph.mask_indices("val")
        config = TrainConfig(lr=0.02, max_epochs=epochs, patience=epochs, seed=0)

        for name in ("gcn", "gat", "rgcn", "rgat"):
            overrides = {"num_relations": num_relations} \
                if name in ("rgcn", "rgat") else {}
            model = build_model(name, data.num_features, graph.num_classes,
                                hidden=32, seed=0, **overrides)
            # Warm the per-relation operator/block caches outside the timing.
            model.forward_inference(data)
            start = _time.perf_counter()
            NodeClassificationTrainer(config).train(
                model, data, labels, train_idx, val_idx)
            elapsed = _time.perf_counter() - start
            report[f"hetero_epoch_ms_{name}_r{num_relations}"] = \
                elapsed / max(epochs, 1) * 1000.0
    if "hetero_epoch_ms_rgcn_r1" in report:
        report["hetero_relational_overhead"] = (
            report["hetero_epoch_ms_rgcn_r1"]
            / max(report["hetero_epoch_ms_gcn_r1"], 1e-9))
    return report


def resilience_overhead_microbenchmark(rounds: int = 7,
                                       epochs: int = 5) -> Dict[str, float]:
    """Cost of a retrying policy and an installed fault plan on the
    fault-free hot path.

    Runs the Table VI training pool through the backend's one dispatch
    loop twice per round, back to back: once with no policy and no plan
    (``policy=None``, which the loop runs as try-once) and once with a
    default :class:`~repro.resilience.ResiliencePolicy` *and* an inert
    :class:`~repro.resilience.FaultPlan` installed (a rule keyed to a site
    the backend never triggers, so every per-task hook runs but never
    fires).  Each task is one candidate's training on the benchmark-scale
    arxiv analogue — the real workload the backends dispatch — and the
    returned probabilities are asserted bit-identical: supervision must
    not perturb the numbers.  The **best paired ratio** is reported
    (scheduler interference only ever inflates one side of a pair, so the
    cleanest pair estimates the hooks' intrinsic cost — same best-of
    aggregation as :func:`runtime_microbenchmark`); the CI gate
    (``--check-resilience-overhead``) requires it under 2 %.
    """
    import time as _time

    from repro.datasets import make_arxiv_dataset
    from repro.nn.model_zoo import build_model
    from repro.parallel.backends import SerialBackend
    from repro.resilience import FaultPlan, FaultRule, ResiliencePolicy
    from repro.tasks.trainer import NodeClassificationTrainer

    graph = prepare_node_dataset(make_arxiv_dataset(scale=0.08, seed=0), seed=0)
    data = GraphTensors.from_graph(graph)
    labels = graph.labels
    train_idx = graph.mask_indices("train")
    val_idx = graph.mask_indices("val")
    config = TrainConfig(lr=0.02, max_epochs=epochs, patience=epochs, seed=0)

    def task(name: str) -> np.ndarray:
        model = build_model(name, data.num_features, graph.num_classes,
                            hidden=16, seed=0)
        NodeClassificationTrainer(config).train(
            model, data, labels, train_idx, val_idx)
        return model.predict_proba(data)

    items = list(TABLE6_POOL)
    backend = SerialBackend()
    policy = ResiliencePolicy()
    plan = FaultPlan([FaultRule(site="benchmark.inert", kind="exception")])
    # Warm-up pass: seeds the compute cache so the first pair is not skewed.
    reference = backend.map(task, items).results

    def run_plain() -> float:
        start = _time.perf_counter()
        report = backend.map(task, items)
        elapsed = _time.perf_counter() - start
        for expected, value in zip(reference, report.results):
            assert expected.tobytes() == value.tobytes()
        return elapsed

    def run_supervised() -> float:
        with plan.installed():
            start = _time.perf_counter()
            report = backend.map(task, items, policy=policy)
            elapsed = _time.perf_counter() - start
        assert report.failures == []
        for expected, value in zip(reference, report.results):
            assert expected.tobytes() == value.tobytes(), \
                "supervised dispatch perturbed a fault-free result"
        return elapsed

    # The within-pair order alternates so a monotone machine-load ramp
    # inflates half the ratios and deflates the other half instead of
    # biasing whichever side always runs second.  Best-of-N paired ratio,
    # like the best-of aggregation in runtime_microbenchmark: scheduler
    # interference only ever adds time to one side of a pair, so the
    # cleanest pair is the faithful estimate of the hooks' intrinsic cost,
    # while a real per-task regression shifts every pair and still trips
    # the gate.
    pairs = []
    for round_index in range(max(rounds, 1)):
        if round_index % 2 == 0:
            plain_seconds = run_plain()
            supervised_seconds = run_supervised()
        else:
            supervised_seconds = run_supervised()
            plain_seconds = run_plain()
        pairs.append((supervised_seconds / max(plain_seconds, 1e-12),
                      plain_seconds, supervised_seconds))
    pairs.sort()
    ratio, plain_seconds, supervised_seconds = pairs[0]
    return {
        "resilience_plain_seconds": plain_seconds,
        "resilience_supervised_seconds": supervised_seconds,
        "resilience_overhead_ratio": ratio,
    }


def check_resilience_overhead(max_overhead: float = 0.02,
                              rounds: int = 7) -> Dict[str, float]:
    """Fail (``SystemExit``) when supervision costs over ``max_overhead``.

    The ratio is a paired measurement on this machine (see
    :func:`resilience_overhead_microbenchmark`), so no checked-in baseline
    is needed — the gate is absolute: fault-free dispatch under the default
    policy and an inert plan may cost at most 2 % over dispatch with no
    policy by default.
    """
    measured = resilience_overhead_microbenchmark(rounds=rounds)
    print("resilience overhead gate:", measured)
    limit = 1.0 + max_overhead
    if measured["resilience_overhead_ratio"] > limit:
        raise SystemExit(
            f"resilience hooks regressed the fault-free path: paired ratio "
            f"{measured['resilience_overhead_ratio']:.4f} > limit {limit:.4f}")
    return measured


def _calibration_seconds() -> float:
    """Machine-speed probe with the same profile as the training workload.

    The regression gate compares *normalized* workload time (workload /
    calibration), so a slower or faster CI runner shifts both numbers
    together and the checked-in baseline stays meaningful across machines.
    The probe deliberately mixes the things a training epoch spends time
    on — sparse matvecs, medium dense matmuls, NumPy elementwise
    temporaries, *and* CPython dispatch over many tiny array ops (the
    autograd engine's per-node overhead) — rather than one large
    multithreaded BLAS call whose scaling would transfer neither to the
    single-threaded serial trainer nor across interpreter versions.
    """
    import time as _time

    import scipy.sparse as _sp

    rng = np.random.default_rng(0)
    n, f = 700, 48
    dense = rng.normal(size=(n, f))
    weight = rng.normal(size=(f, f))
    tiny = rng.normal(size=(16, 8))
    operator = _sp.random(n, n, density=0.01, format="csr", random_state=0)
    start = _time.perf_counter()
    # Long enough (~100ms+) that shared-runner scheduler noise amortises.
    for _ in range(400):
        hidden = operator @ dense            # sparse matvecs
        hidden = hidden @ weight             # medium dense matmul
        hidden = np.maximum(hidden, 0.0)     # elementwise temporaries
        dense = hidden / (np.abs(hidden).max() + 1.0)
        for _ in range(20):                  # interpreter-dispatch overhead
            tiny = np.tanh(tiny * 0.9 + 0.1)  # bounded: values stay in (-1, 1)
    return _time.perf_counter() - start


def runtime_microbenchmark(repeats: int = 5) -> Dict[str, float]:
    """Fixed-seed serial training workload measured for the CI regression gate.

    Returns the best-of-``repeats`` wall clock, the calibration time and the
    normalized ratio the gate compares.  The workload is sized to a few
    hundred milliseconds so best-of-``repeats`` sits well above the
    scheduler-noise floor of shared CI runners.
    """
    import time as _time

    from repro.datasets.generators import SBMConfig, make_attributed_sbm
    from repro.parallel.cache import ComputeCache, set_compute_cache

    graph = prepare_node_dataset(
        make_attributed_sbm(SBMConfig(num_nodes=700, num_classes=4, num_features=48)),
        seed=0)
    config = TrainConfig(lr=0.02, max_epochs=50, patience=50, seed=0)
    # Calibration and workload are measured back-to-back inside each repeat
    # and the gate compares the best per-repeat *ratio*: a noisy-neighbour
    # burst that slows one repeat slows its calibration too, so the pairing
    # cancels machine-load drift that independent best-of measurements
    # would not.
    best = None
    for _ in range(max(repeats, 1)):
        set_compute_cache(ComputeCache())  # every repeat pays the same cache misses
        data = GraphTensors.from_graph(graph)
        calibration = _calibration_seconds()
        start = _time.perf_counter()
        train_single_models(list(MICROBENCH_POOL), data, graph.labels,
                            graph.mask_indices("train"), graph.mask_indices("val"),
                            num_classes=graph.num_classes, hidden=32,
                            train_config=config, replicas=1, seed=0)
        workload = _time.perf_counter() - start
        sample = {
            "workload_seconds": workload,
            "calibration_seconds": calibration,
            "normalized": workload / calibration,
        }
        if best is None or sample["normalized"] < best["normalized"]:
            best = sample
    return best


def emit_runtime_baseline(path: str, repeats: int = 5) -> Dict[str, float]:
    """Run the micro-benchmarks and write the baseline JSON artifact.

    Alongside the normalized serial wall clock, the baseline records the
    memory profile (peak RSS, per-epoch tracemalloc allocation peaks for
    both engines), the capture-replay speedup on the six-model Table VI
    workload, the per-pass IR study (replay throughput and fused-op counts
    under each pass configuration), the cross-member arena-sharing byte
    accounting, and the fit-once/serve-many profile (artifact cold-load
    time, per-request inference latency and the fit/request ratio), so
    memory and engine regressions gate like runtime ones.
    """
    import json
    import platform

    # Ordering matters for the in-process gated metrics: the regression
    # checker runs runtime_microbenchmark then memory_microbenchmark first
    # thing in a fresh process, so the baseline measures them in the same
    # regime (a warmed process runs the workload ~15-20 % faster relative
    # to the calibration loop, which would emit an unreachably tight
    # baseline).  The capture study spawns a fresh interpreter per sweep,
    # so its position here is immaterial.
    measured = runtime_microbenchmark(repeats=repeats)
    payload = dict(measured)
    payload.update(memory_microbenchmark())
    prefit = _serving_workload()
    payload.update(serve_latency_microbenchmark(prefit=prefit))
    payload.update(streaming_serve_microbenchmark(prefit=prefit))
    payload.update(sharded_scaling_microbenchmark(prefit=prefit))
    payload.update(hetero_runtime_study())
    payload.update(capture_speedup_study(repeats=7))
    engine = capture_engine_microbenchmark()
    payload["engine_speedup"] = engine["engine_speedup"]
    payload.update(ensemble_arena_study())
    payload["pool"] = list(MICROBENCH_POOL)
    payload["python"] = platform.python_version()
    payload["numpy"] = np.__version__
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def check_runtime_regression(path: str, max_regression: float = 0.25,
                             repeats: int = 5,
                             max_memory_regression: float = 0.5) -> Dict[str, float]:
    """Fail (``SystemExit``) if the normalized workload regressed too much.

    ``max_regression=0.25`` tolerates a 25 % slowdown of workload-seconds
    per calibration-second relative to the checked-in baseline before
    failing, which absorbs runner noise while catching real engine
    regressions.  When the baseline carries memory fields, the per-epoch
    tracemalloc allocation peaks of both engines gate as well
    (``max_memory_regression`` headroom — allocation profiles are far less
    machine-sensitive than wall clock, but interpreter versions shift the
    small-object noise floor).
    """
    import json

    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    measured = runtime_microbenchmark(repeats=repeats)
    limit = baseline["normalized"] * (1.0 + max_regression)
    report = {
        "baseline_normalized": baseline["normalized"],
        "measured_normalized": measured["normalized"],
        "limit": limit,
        "workload_seconds": measured["workload_seconds"],
        "calibration_seconds": measured["calibration_seconds"],
    }
    print("runtime regression gate:", report)
    if measured["normalized"] > limit:
        raise SystemExit(
            f"serial runtime regressed: normalized {measured['normalized']:.3f} "
            f"> limit {limit:.3f} (baseline {baseline['normalized']:.3f} "
            f"+{max_regression:.0%})")

    memory_keys = ("epoch_alloc_peak_kb_dynamic", "epoch_alloc_peak_kb_capture")
    if all(key in baseline for key in memory_keys):
        memory = memory_microbenchmark()
        memory_report = {key: memory[key] for key in memory_keys}
        memory_report["peak_rss_mb"] = memory["peak_rss_mb"]
        print("memory regression gate:", memory_report)
        for key in memory_keys:
            memory_limit = baseline[key] * (1.0 + max_memory_regression)
            if memory[key] > memory_limit:
                raise SystemExit(
                    f"per-epoch allocations regressed: {key} {memory[key]:.1f} kB "
                    f"> limit {memory_limit:.1f} kB (baseline {baseline[key]:.1f} "
                    f"+{max_memory_regression:.0%})")
        report.update(memory_report)

    if "streaming_speedup" in baseline:
        # The streaming gate compares the *paired* streaming-vs-batch ratio
        # measured fresh on this machine, so runner speed cancels exactly
        # like the workload/calibration pairing above.
        streaming = streaming_serve_microbenchmark()
        required = baseline["streaming_speedup"] / (1.0 + max_regression)
        streaming_report = {
            "streaming_speedup": streaming["streaming_speedup"],
            "streaming_request_p50_seconds": streaming["streaming_request_p50_seconds"],
            "streaming_request_p99_seconds": streaming["streaming_request_p99_seconds"],
        }
        print("streaming regression gate:", streaming_report)
        if streaming["streaming_speedup"] < required:
            raise SystemExit(
                f"streaming serving regressed: speedup over the batch re-score "
                f"path {streaming['streaming_speedup']:.2f}x < required "
                f"{required:.2f}x (baseline {baseline['streaming_speedup']:.2f}x "
                f"-{max_regression:.0%})")
        report.update(streaming_report)

    if "sharded_overhead" in baseline:
        # Sharded gate: the paired sharded-vs-unsharded score ratio, measured
        # fresh (runner speed cancels).  Holds the cost of partition-parallel
        # scoring — view slicing plus halo recompute — near the baseline.
        # Best-of-3 pairing, as for the hetero gate below: one single-shot
        # ratio followed the scheduler on a 2-CPU runner.  The three rounds
        # share one fitted serving workload.
        prefit = _serving_workload()
        sharded = min((sharded_scaling_microbenchmark(prefit=prefit)
                       for _ in range(3)),
                      key=lambda study: study["sharded_overhead"])
        sharded_limit = baseline["sharded_overhead"] * (1.0 + max_regression)
        sharded_report = {
            "sharded_overhead": sharded["sharded_overhead"],
            "sharded_edge_cut": sharded["sharded_edge_cut"],
        }
        print("sharded regression gate:", sharded_report)
        if sharded["sharded_overhead"] > sharded_limit:
            raise SystemExit(
                f"sharded scoring regressed: overhead vs unsharded "
                f"{sharded['sharded_overhead']:.2f}x > limit "
                f"{sharded_limit:.2f}x (baseline "
                f"{baseline['sharded_overhead']:.2f}x +{max_regression:.0%})")
        report.update(sharded_report)

    if "hetero_relational_overhead" in baseline:
        # Hetero gate: the paired RGCN-vs-GCN per-epoch ratio at R=1 —
        # the dispatch cost of routing the degenerate single-relation case
        # through the relational layer instead of the fused fast path.
        # Paired on this machine, so runner speed cancels.
        # Best-of-3 pairing: scheduler interference only inflates one side
        # of a pair, so the cleanest round estimates the intrinsic ratio.
        hetero = min((hetero_runtime_study(relation_counts=(1,))
                      for _ in range(3)),
                     key=lambda study: study["hetero_relational_overhead"])
        hetero_limit = baseline["hetero_relational_overhead"] * (1.0 + max_regression)
        hetero_report = {
            "hetero_relational_overhead": hetero["hetero_relational_overhead"],
            "hetero_epoch_ms_rgcn_r1": hetero["hetero_epoch_ms_rgcn_r1"],
            "hetero_epoch_ms_gcn_r1": hetero["hetero_epoch_ms_gcn_r1"],
        }
        print("hetero regression gate:", hetero_report)
        if hetero["hetero_relational_overhead"] > hetero_limit:
            raise SystemExit(
                f"relational dispatch regressed: RGCN/GCN per-epoch ratio at "
                f"R=1 {hetero['hetero_relational_overhead']:.2f}x > limit "
                f"{hetero_limit:.2f}x (baseline "
                f"{baseline['hetero_relational_overhead']:.2f}x +{max_regression:.0%})")
        report.update(hetero_report)

    if "ensemble_arena_reuse_ratio" in baseline:
        # Arena gate: pooled-vs-private allocation is exact byte accounting
        # (no wall clock involved), so it gates tightly.  A drop in the
        # reuse ratio means ensemble members stopped sharing arena storage.
        arena = ensemble_arena_study()
        arena_required = baseline["ensemble_arena_reuse_ratio"] / (1.0 + max_regression)
        arena_report = {
            "ensemble_arena_reuse_ratio": arena["ensemble_arena_reuse_ratio"],
            "ensemble_arena_pooled_mb": arena["ensemble_arena_pooled_mb"],
            "ensemble_arena_unpooled_mb": arena["ensemble_arena_unpooled_mb"],
        }
        print("ensemble arena gate:", arena_report)
        if arena["ensemble_arena_reuse_ratio"] < arena_required:
            raise SystemExit(
                f"cross-member arena sharing regressed: reuse ratio "
                f"{arena['ensemble_arena_reuse_ratio']:.2f}x < required "
                f"{arena_required:.2f}x (baseline "
                f"{baseline['ensemble_arena_reuse_ratio']:.2f}x -{max_regression:.0%})")
        report.update(arena_report)
    return report


def _main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description="Benchmark harness utilities")
    parser.add_argument("--emit-baseline", metavar="PATH",
                        help="run the serial micro-benchmark and write the baseline JSON")
    parser.add_argument("--check-baseline", metavar="PATH",
                        help="run the micro-benchmark and fail on regression vs PATH")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional slowdown for --check-baseline")
    parser.add_argument("--repeats", type=int, default=5,
                        help="micro-benchmark repetitions (best-of)")
    parser.add_argument("--check-resilience-overhead", action="store_true",
                        help="fail if fault-free dispatch under the default "
                             "policy and an inert fault plan costs more than "
                             "2%% over dispatch with no policy")
    arguments = parser.parse_args()
    if arguments.emit_baseline:
        measured = emit_runtime_baseline(arguments.emit_baseline, repeats=arguments.repeats)
        print(f"baseline written to {arguments.emit_baseline}: {measured}")
    if arguments.check_baseline:
        check_runtime_regression(arguments.check_baseline,
                                 max_regression=arguments.max_regression,
                                 repeats=arguments.repeats)
    if arguments.check_resilience_overhead:
        check_resilience_overhead()
    if not arguments.emit_baseline and not arguments.check_baseline \
            and not arguments.check_resilience_overhead:
        parser.print_help()


if __name__ == "__main__":
    _main()
