"""Configuration objects for the AutoHEnsGNN pipeline.

Defaults follow the paper: proxy evaluation with ``D_proxy = 30 %``,
``B_proxy = 6`` and ``M_proxy = 50 %`` (Section IV-B2), a pool of ``N = 3``
architectures with ``K = 3`` replicas per graph self-ensemble (Figure 6), and
the adaptive-β hyper-parameters ``ε = 3``, ``γ = 8000``, ``λ = 5``
(Appendix A2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.resilience.policy import ResiliencePolicy
from repro.tasks.trainer import TrainConfig


class SearchMethod(str, enum.Enum):
    """Which configuration-search algorithm the pipeline uses."""

    ADAPTIVE = "adaptive"
    GRADIENT = "gradient"


@dataclass
class ProxyConfig:
    """Parameters of the proxy task used for fast model selection.

    Parameters
    ----------
    dataset_fraction : float
        ``D_proxy`` — fraction of nodes kept in the class-stratified proxy
        sub-graph.
    bagging_rounds : int
        ``B_proxy`` — random train/val splits each candidate is scored on.
    hidden_fraction : float
        ``M_proxy`` — hidden-width fraction of the proxy models.
    max_epochs, patience, lr : int / float
        Training protocol of each proxy run.
    val_fraction : float
        Validation share of each proxy bagging split.
    batch_size : int, optional
        ``None`` (default) inherits the pipeline's ``batch_size`` when run
        through :class:`AutoHEnsGNN` (full-batch otherwise).  A positive
        integer switches proxy training to neighbour-sampled minibatches —
        on graphs whose proxy sub-graph is itself large, this is what keeps
        candidate ranking affordable.  ``0`` pins the proxy stage
        full-batch even under a minibatch pipeline.
    fanouts : tuple of int, optional
        Per-hop neighbour caps for minibatch proxy training (see
        :class:`~repro.tasks.trainer.TrainConfig`).
    capture : bool
        Capture-and-replay training for the proxy runs (see
        :class:`~repro.tasks.trainer.TrainConfig`); on by default, ANDed
        with the pipeline-level ``capture`` switch.
    seed : int
        Base seed for sampling and training.
    """

    dataset_fraction: float = 0.3      # D_proxy
    bagging_rounds: int = 6            # B_proxy (scaled down by benchmarks)
    hidden_fraction: float = 0.5       # M_proxy
    max_epochs: int = 60
    patience: int = 10
    lr: float = 0.01
    val_fraction: float = 0.2
    batch_size: Optional[int] = None
    fanouts: Optional[Tuple[int, ...]] = None
    capture: bool = True
    seed: int = 0


@dataclass
class AdaptiveConfig:
    """Hyper-parameters of the adaptive ensemble weight β (Eqn 8)."""

    epsilon: float = 3.0
    gamma: float = 8000.0
    lam: float = 5.0


@dataclass
class AutoHEnsGNNConfig:
    """Full pipeline configuration.

    Parameters
    ----------
    candidate_models : sequence of str, optional
        Candidate zoo for proxy evaluation (``None`` = every registered
        model).
    pool_size : int
        ``N`` — architectures kept after proxy ranking.
    ensemble_size : int
        ``K`` — seed replicas per graph self-ensemble.
    max_layers : int
        ``L`` — depth of the per-architecture α grid.
    search_method : SearchMethod
        ``ADAPTIVE`` (grid α + closed-form β, Eqn 8) or ``GRADIENT``
        (Algorithm 1).  Gradient search always trains full-batch.
    proxy, adaptive, train : dataclasses
        Stage-specific sub-configurations.
    bagging_splits, val_fraction : int, float
        Re-training bagging over random train/val splits (Section IV-C).
    hidden : int
        Hidden width of the re-trained members.
    time_budget : float, optional
        Wall-clock budget in seconds (challenge protocol).
    backend : str
        Execution backend for independent trainings: ``"serial"``,
        ``"thread"`` or ``"process"`` — bit-identical predictions at a
        fixed seed.
    max_workers : int, optional
        Worker cap for the thread/process backends.
    compute_dtype : str
        Engine-wide float policy, ``"float64"`` (default) or ``"float32"``
        (halves memory traffic; see ``repro.autograd.dtype``).
    batch_size : int, optional
        ``None`` (default) keeps every training stage full-batch —
        bit-for-bit the historical pipeline.  An integer turns on
        neighbour-sampled minibatch training (GraphSAGE-style) for the
        configuration search and the bagged re-training, with this many
        seed nodes per optimiser step; it is also inherited by ``train``
        and proxy evaluation wherever their own ``batch_size`` is ``None``
        (a stage passes ``0`` to stay full-batch explicitly).  Peak training
        memory then scales with ``batch_size * prod(fanouts)`` instead of
        the graph size, opening graphs that cannot afford a full-batch
        pass.  Prediction/evaluation always runs full-graph through
        ``forward_inference``.
    fanouts : tuple of int, optional
        Per-hop sampled-neighbour caps for minibatch mode, outermost hop
        first; ``None`` derives ``(10, 5, 5)`` sized to each model's
        receptive field but capped at three hops (deeper propagation sees
        a truncated neighbourhood — name fanouts explicitly to cover more).
    capture : bool
        Capture-and-replay full-batch training
        (:mod:`repro.autograd.capture`) across every stage that trains
        through :class:`~repro.tasks.trainer.NodeClassificationTrainer`;
        on by default and bit-identical to the dynamic engine at fixed
        seeds.  ``False`` forces the dynamic engine pipeline-wide (stage
        configs are ANDed with this switch).
    num_partitions : int, optional
        With a value ``> 1``, minibatch training stages group their seed
        batches per edge-cut partition
        (:func:`repro.graph.partition.partition_graph`) — see
        ``TrainConfig.num_partitions`` for the locality/trajectory
        trade-off.  Inherited by ``train`` wherever its own
        ``num_partitions`` is ``None``.  Ignored in full-batch mode.
    shared_graph : bool
        On the ``"process"`` backend, publish the graph tensors once to a
        shared-memory store (:mod:`repro.graph.shm`) and hand workers a
        small handle: each worker maps the CSR operators and feature
        blocks read-only instead of receiving a pickled copy, so per-worker
        RSS stays near the model size rather than the graph size.
        Bit-identical — the mapped bytes are exactly the published ones.
        No effect on in-process backends (they already share by
        reference).
    seed : int
        Master seed for every stage.
    verbose : bool
        Print stage progress.
    """

    candidate_models: Optional[Sequence[str]] = None   # None = entire zoo
    pool_size: int = 3                                  # N
    ensemble_size: int = 3                              # K
    max_layers: int = 4                                 # L, depth of the alpha grid
    search_method: SearchMethod = SearchMethod.ADAPTIVE
    proxy: ProxyConfig = field(default_factory=ProxyConfig)
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(lr=0.02, max_epochs=150,
                                                                   patience=20))
    # Gradient search (Algorithm 1) specifics.
    architecture_lr: float = 3e-4
    architecture_update_every: int = 1
    search_epochs: int = 60
    # Bagging over data splits (Section IV-C: two random splits for the
    # challenge datasets, none for the public fixed-split datasets).
    bagging_splits: int = 1
    val_fraction: float = 0.2
    hidden: int = 64
    time_budget: Optional[float] = None
    seed: int = 0
    verbose: bool = False
    # Parallel execution (repro.parallel): "serial", "thread" or "process".
    # Every backend produces bit-identical predictions at a fixed seed.
    backend: str = "serial"
    max_workers: Optional[int] = None
    # Engine compute dtype (repro.autograd.dtype): "float64" (default) or
    # "float32" (halves memory bandwidth; the pipeline sets the process-wide
    # policy before building graph tensors and models).  Within each dtype,
    # serial/thread/process backends stay bit-for-bit identical at a fixed
    # seed.  (Exact bit-parity with the pre-PR-2 seed engine is NOT
    # preserved: GCNConv now adds its bias after propagation — the standard
    # formulation — ELU uses expm1, and the in-place Adam associates its
    # update differently; accuracies are statistically indistinguishable,
    # see tests/test_perf_core.py.)
    compute_dtype: str = "float64"
    # Minibatch neighbour-sampled training (repro.graph.sampling): None =
    # full-batch everywhere (bit-for-bit the historical behaviour).
    batch_size: Optional[int] = None
    fanouts: Optional[Tuple[int, ...]] = None
    # Partition-local minibatch seed batching (repro.graph.partition): None =
    # globally-shuffled batches (the historical trajectory).
    num_partitions: Optional[int] = None
    # Shared-memory graph publication for process workers (repro.graph.shm):
    # map-read-only instead of unpickling; bit-identical either way.
    shared_graph: bool = False
    # Capture-and-replay full-batch training (repro.autograd.capture):
    # record the epoch program once per training run, replay it with a
    # lifetime-planned buffer arena — bit-identical at fixed seeds.
    capture: bool = True
    # Supervised execution (repro.resilience): None = try each task once
    # and raise its error (backends.TRY_ONCE).  A ResiliencePolicy adds
    # bounded retries with seeded backoff, per-task timeouts, broken-pool
    # rebuild with process -> thread -> serial degradation, and — with on_failure="drop" — partial results with
    # structured FailureReports in PipelineResult.details["failures"].
    resilience: Optional[ResiliencePolicy] = None

    def validate(self) -> "AutoHEnsGNNConfig":
        """Fail fast on configurations that would only error mid-pipeline.

        ``AutoHEnsGNN.fit`` calls this before any work starts, so a typo'd
        candidate name or an invalid dtype/backend string surfaces in
        seconds instead of after minutes of proxy evaluation.  Every problem
        is collected and reported in one :class:`ValueError`; returns
        ``self`` so call sites can chain.
        """
        from repro.nn.model_zoo import MODEL_ZOO, suggest_model_name
        from repro.parallel.backends import BACKENDS

        problems = []
        if self.candidate_models is not None:
            for name in self.candidate_models:
                if str(name).lower() not in MODEL_ZOO:
                    suggestion = suggest_model_name(str(name))
                    hint = f" (did you mean {suggestion!r}?)" if suggestion else ""
                    problems.append(f"unknown candidate model {name!r}{hint}; "
                                    f"known models: {sorted(MODEL_ZOO)}")
        for field_name in ("pool_size", "ensemble_size", "max_layers", "hidden",
                           "search_epochs"):
            value = getattr(self, field_name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                problems.append(f"{field_name} must be a positive integer, got {value!r}")
        # 0 is a documented sentinel ("no bagging": the pipeline still trains
        # one split via max(bagging_splits, 1)); only negatives are invalid.
        if not isinstance(self.bagging_splits, (int, np.integer)) or self.bagging_splits < 0:
            problems.append("bagging_splits must be a non-negative integer, "
                            f"got {self.bagging_splits!r}")
        def numeric(field_name: str, value) -> bool:
            # A non-numeric value (e.g. val_fraction="0.3") must land in the
            # aggregated report, not escape as a bare comparison TypeError.
            if isinstance(value, (int, float, np.integer, np.floating)) \
                    and not isinstance(value, bool):
                return True
            problems.append(f"{field_name} must be a number, got {value!r}")
            return False

        if numeric("val_fraction", self.val_fraction) \
                and not 0.0 < self.val_fraction < 1.0:
            problems.append(f"val_fraction must lie in (0, 1), got {self.val_fraction!r}")
        if numeric("proxy.dataset_fraction", self.proxy.dataset_fraction) \
                and not 0.0 < self.proxy.dataset_fraction <= 1.0:
            problems.append("proxy.dataset_fraction must lie in (0, 1], "
                            f"got {self.proxy.dataset_fraction!r}")
        if numeric("proxy.hidden_fraction", self.proxy.hidden_fraction) \
                and not 0.0 < self.proxy.hidden_fraction <= 1.0:
            problems.append("proxy.hidden_fraction must lie in (0, 1], "
                            f"got {self.proxy.hidden_fraction!r}")
        if numeric("proxy.bagging_rounds", self.proxy.bagging_rounds) \
                and self.proxy.bagging_rounds < 1:
            problems.append("proxy.bagging_rounds must be a positive integer, "
                            f"got {self.proxy.bagging_rounds!r}")
        if self.time_budget is not None \
                and numeric("time_budget", self.time_budget) and self.time_budget <= 0:
            problems.append(f"time_budget must be positive or None, got {self.time_budget!r}")
        try:
            np.dtype(self.compute_dtype)
        except TypeError:
            problems.append(f"compute_dtype is not a dtype: {self.compute_dtype!r}")
        else:
            if str(np.dtype(self.compute_dtype)) not in ("float32", "float64"):
                problems.append(f"compute_dtype must be 'float64' or 'float32', "
                                f"got {self.compute_dtype!r}")
        if not isinstance(self.backend, str) or self.backend.lower() not in BACKENDS:
            problems.append(f"backend must be one of {sorted(BACKENDS)}, "
                            f"got {self.backend!r}")
        for stage, batch_size in (("batch_size", self.batch_size),
                                  ("train.batch_size", self.train.batch_size),
                                  ("proxy.batch_size", self.proxy.batch_size)):
            if batch_size is not None and numeric(stage, batch_size) \
                    and batch_size < 0:
                problems.append(f"{stage} must be None (full-batch), 0 (pinned "
                                f"full-batch) or positive, got {batch_size!r}")
        for stage, fanouts in (("fanouts", self.fanouts),
                               ("train.fanouts", self.train.fanouts),
                               ("proxy.fanouts", self.proxy.fanouts)):
            try:
                invalid = fanouts is not None and any(f == 0 or f < -1 for f in fanouts)
            except TypeError:
                invalid = True
            if invalid:
                problems.append(f"{stage} entries must be positive neighbour caps "
                                f"or -1 (keep all), got {tuple(fanouts)!r}")
        for stage, partitions in (("num_partitions", self.num_partitions),
                                  ("train.num_partitions",
                                   self.train.num_partitions)):
            if partitions is not None and numeric(stage, partitions) \
                    and partitions < 0:
                problems.append(f"{stage} must be None (global shuffle), 0/1 "
                                f"(ditto) or a partition count, got {partitions!r}")
        if not isinstance(self.shared_graph, bool):
            problems.append(f"shared_graph must be a bool, got {self.shared_graph!r}")
        if self.resilience is not None:
            if isinstance(self.resilience, ResiliencePolicy):
                problems.extend(f"resilience.{problem}"
                                for problem in self.resilience.validate())
            else:
                problems.append(f"resilience must be a ResiliencePolicy or None, "
                                f"got {self.resilience!r}")
        if problems:
            details = "\n  - ".join(problems)
            raise ValueError(f"invalid AutoHEnsGNNConfig:\n  - {details}")
        return self
