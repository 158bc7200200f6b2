"""Command-line batch scoring: ``python -m repro.serve``.

Loads a saved :class:`~repro.core.artifact.FittedEnsemble` artifact, loads a
request dataset (a registry name like ``kddcup-A`` or an AutoGraph challenge
directory), scores every node through ``forward_inference`` and optionally
writes challenge-format predictions and the full probability matrix.

Examples::

    # Score the synthetic kddcup-A analogue with a saved artifact.
    python -m repro.serve --artifact artifacts/kddcup-A --data kddcup-A \
        --scale 0.4 --output predictions.tsv

    # Score an AutoGraph-format dataset directory, test nodes only.
    python -m repro.serve --artifact artifacts/comp --data /path/to/dataset \
        --nodes test --proba-output probas.npy

The ``--repeat`` flag re-runs the scoring request to report a steady-state
per-request latency (the first request pays one-off cache warm-up).

``--stream LOG`` switches to the streaming engine: the dataset becomes the
initial graph state of a :class:`~repro.serve.StreamingScorer` and ``LOG`` is
a JSONL file of mutation/query operations replayed in order::

    {"op": "add_nodes", "features": [[0.1, ...]]}
    {"op": "add_edges", "edges": [[0, 5], [12, 3]], "weights": [1.0, 2.0]}
    {"op": "remove_edges", "edges": [[0], [12]]}
    {"op": "update_features", "nodes": [7], "features": [[0.3, ...]]}
    {"op": "score", "nodes": [3, 1, 4]}

``edges`` uses the ``(2, num_edges)`` convention of ``Graph.edge_index``
(first list: sources, second list: destinations).  A ``score`` op without
``nodes`` scores every node.  The run reports mutation/query counts and the
p50/p99 query latency; ``--output``/``--proba-output`` write the final
``score`` result.

Exit codes are stable so supervisors can react without scraping stderr:
``0`` success, ``2`` argument errors (argparse), ``3`` the artifact or the
initial dataset failed to load, ``4`` the stream replay failed (malformed
log line — reported with its line number — or a failing operation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from repro.graph.graph import Graph
from repro.serve import BatchScorer, StreamingScorer

#: Stable process exit codes (argparse owns 2 for usage errors).
EXIT_OK = 0
EXIT_LOAD_ERROR = 3
EXIT_REPLAY_ERROR = 4


class ReplayError(ValueError):
    """A streaming-log replay failed; the message pins ``path:line``."""


def _load_request_graph(data: str, scale: Optional[float], seed: Optional[int]) -> Graph:
    """Resolve ``--data``: an AutoGraph directory or a registry dataset name.

    Only flags the user actually passed are forwarded to the dataset
    factory; a factory that does not accept one raises its ``TypeError``
    verbatim — silently dropping an explicit ``--scale``/``--seed`` would
    score a different graph than the one requested.
    """
    if os.path.isdir(data):
        from repro.datasets.io import load_autograph_directory

        return load_autograph_directory(data)
    from repro.datasets.registry import load_dataset

    kwargs = {}
    if scale is not None:
        kwargs["scale"] = scale
    if seed is not None:
        kwargs["seed"] = seed
    return load_dataset(data, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Batch scoring against a saved AutoHEnsGNN ensemble artifact.")
    parser.add_argument("--artifact", required=True,
                        help="artifact directory written by FittedEnsemble.save")
    parser.add_argument("--data", required=True,
                        help="registry dataset name or AutoGraph dataset directory")
    parser.add_argument("--scale", type=float, default=None,
                        help="scale= forwarded to the registry dataset factory "
                             "(omit for factories without the knob)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed= forwarded to the registry dataset factory "
                             "(omit for factories without the knob)")
    parser.add_argument("--nodes", choices=("all", "test"), default="all",
                        help="report all nodes or only the graph's test mask")
    parser.add_argument("--output", default=None,
                        help="write node<TAB>prediction rows here (challenge format)")
    parser.add_argument("--proba-output", default=None,
                        help="write the scored probability matrix here (.npy)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="score the request this many times and report the "
                             "median latency (first request warms caches)")
    parser.add_argument("--stream", default=None, metavar="LOG",
                        help="replay a JSONL mutation/query log through the "
                             "streaming engine (the dataset is the initial "
                             "graph state); see the module docstring for the "
                             "operation schema")
    return parser


def _run_stream(scorer: StreamingScorer, log_path: str, arguments) -> int:
    """Replay a JSONL mutation/query log; returns the process exit code."""
    mutations = 0
    latencies = []
    result = None
    with open(log_path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entry = json.loads(line)
                operation = entry["op"]
            except (json.JSONDecodeError, KeyError, TypeError) as error:
                raise ReplayError(
                    f"{log_path}:{line_number}: not a valid operation: {error}")
            try:
                if operation == "add_nodes":
                    scorer.add_nodes(np.asarray(entry["features"], dtype=np.float64))
                    mutations += 1
                elif operation == "add_edges":
                    scorer.add_edges(np.asarray(entry["edges"], dtype=np.int64),
                                     edge_weight=entry.get("weights"))
                    mutations += 1
                elif operation == "remove_edges":
                    scorer.remove_edges(np.asarray(entry["edges"], dtype=np.int64))
                    mutations += 1
                elif operation == "update_features":
                    scorer.update_features(np.asarray(entry["nodes"], dtype=np.int64),
                                           np.asarray(entry["features"], dtype=np.float64))
                    mutations += 1
                elif operation == "score":
                    nodes = entry.get("nodes")
                    result = scorer.score(
                        None if nodes is None else np.asarray(nodes, dtype=np.int64))
                    latencies.append(result.latency_seconds)
                else:
                    raise ReplayError(
                        f"{log_path}:{line_number}: unknown operation {operation!r}")
            except ReplayError:
                raise
            except Exception as error:
                raise ReplayError(
                    f"{log_path}:{line_number}: {operation!r} failed: {error}")
    summary = scorer.describe()
    print(f"replayed : {mutations} mutations, {len(latencies)} queries "
          f"(graph now {summary['num_nodes']} nodes, "
          f"version {summary['graph_version']})")
    if latencies:
        ordered = np.sort(np.asarray(latencies))
        p50 = float(np.percentile(ordered, 50))
        p99 = float(np.percentile(ordered, 99))
        print(f"latency  : p50 {p50 * 1e3:.2f}ms  p99 {p99 * 1e3:.2f}ms  "
              f"({summary['microbatcher']['forward_passes']} forward passes)")
    if result is not None and arguments.output:
        result.write(arguments.output)
        print(f"predictions written to {arguments.output}")
    if result is not None and arguments.proba_output:
        os.makedirs(os.path.dirname(arguments.proba_output) or ".", exist_ok=True)
        np.save(arguments.proba_output, result.probabilities)
        print(f"probabilities written to {arguments.proba_output}")
    return 0


def main(argv=None) -> int:
    """Entry point; returns a stable process exit code (see module docstring)."""
    arguments = build_parser().parse_args(argv)

    load_start = time.perf_counter()
    try:
        graph = _load_request_graph(arguments.data, arguments.scale, arguments.seed)
    except Exception as error:
        print(f"error: failed to load dataset {arguments.data!r}: {error}",
              file=sys.stderr)
        return EXIT_LOAD_ERROR
    data_seconds = time.perf_counter() - load_start

    if arguments.stream:
        try:
            scorer = StreamingScorer(arguments.artifact, graph)
        except Exception as error:
            print(f"error: failed to load artifact {arguments.artifact!r}: "
                  f"{error}", file=sys.stderr)
            return EXIT_LOAD_ERROR
        summary = scorer.ensemble.describe()
        print(f"artifact : {arguments.artifact} "
              f"(pool={summary['pool']}, splits={summary['splits']}, "
              f"members={summary['members']}, dtype={summary['compute_dtype']}) "
              f"loaded in {scorer.load_seconds:.3f}s")
        print(f"initial  : {graph} loaded in {data_seconds:.3f}s")
        try:
            return _run_stream(scorer, arguments.stream, arguments)
        except (ReplayError, OSError) as error:
            print(f"error: stream replay failed: {error}", file=sys.stderr)
            return EXIT_REPLAY_ERROR

    try:
        scorer = BatchScorer(arguments.artifact)
    except Exception as error:
        print(f"error: failed to load artifact {arguments.artifact!r}: "
              f"{error}", file=sys.stderr)
        return EXIT_LOAD_ERROR
    summary = scorer.ensemble.describe()
    print(f"artifact : {arguments.artifact} "
          f"(pool={summary['pool']}, splits={summary['splits']}, "
          f"members={summary['members']}, dtype={summary['compute_dtype']}) "
          f"loaded in {scorer.load_seconds:.3f}s")
    print(f"request  : {graph} loaded in {data_seconds:.3f}s")

    nodes = graph.mask_indices("test") if arguments.nodes == "test" else None
    latencies = []
    result = None
    for _ in range(max(arguments.repeat, 1)):
        result = scorer.score(graph, nodes=nodes)
        latencies.append(result.latency_seconds)
    print(f"scored   : {result.predictions.shape[0]} nodes in "
          f"{float(np.median(latencies)):.3f}s per request "
          f"(median of {len(latencies)}; first {latencies[0]:.3f}s)")

    if arguments.output:
        result.write(arguments.output)
        print(f"predictions written to {arguments.output}")
    if arguments.proba_output:
        os.makedirs(os.path.dirname(arguments.proba_output) or ".", exist_ok=True)
        np.save(arguments.proba_output, result.probabilities)
        print(f"probabilities written to {arguments.proba_output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
