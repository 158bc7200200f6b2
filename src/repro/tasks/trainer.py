"""Training loop for node classification (full-batch and minibatch).

The trainer follows the protocol of Appendix A1 of the paper: Adam
(β1=0.9, β2=0.98, ε=1e-9), weight decay 5e-4, a step learning-rate decay of
0.9 every 3 epochs, early stopping with a configurable patience, and
restoring the parameters that achieved the best validation accuracy.

Two epoch regimes share that skeleton:

* **full-batch** (default, ``batch_size=None``) — one optimiser step per
  epoch over the whole graph, exactly the seed behaviour.  With
  ``capture=True`` (default) epoch 0 is traced and the remaining epochs
  replay the recorded program through the capture engine
  (:mod:`repro.autograd.capture`) — bit-identical results, no per-epoch
  graph construction;
* **minibatch** (``batch_size`` set) — GraphSAGE-style neighbour-sampled
  steps via :class:`~repro.graph.sampling.NeighborSampler`, one optimiser
  step per seed batch, so peak training memory scales with the sampled
  sub-graph instead of the graph.  Validation still runs full-graph through
  ``forward_inference`` (the model's forward under ``no_grad``).

:func:`grid_search` wraps the trainer to search learning rate / dropout (and
any other ``ModelSpec`` keyword) exactly as the proxy-evaluation stage does.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import capture as capture_engine
from repro.autograd import functional as F
from repro.autograd import optim
from repro.graph.sampling import NeighborSampler
from repro.nn.data import GraphTensors
from repro.nn.models.base import GNNModel, LayerWeights
from repro.tasks.metrics import accuracy


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run.

    Parameters
    ----------
    lr, dropout, weight_decay, max_epochs, patience : float / int
        The Appendix A1 optimisation protocol.
    lr_decay_step, lr_decay_gamma : int, float
        Step learning-rate schedule (×``gamma`` every ``step`` epochs).
    hidden, num_layers, hidden_fraction : optional
        Architecture overrides applied by the callers that build models.
    seed : int
        Seeds model construction, data shuffling and neighbour sampling.
    evaluate_every : int
        Validate every this many epochs (the final epoch is always scored).
    batch_size : int, optional
        ``None`` (default) trains full-batch — bit-for-bit the historical
        behaviour.  A positive integer switches training to
        neighbour-sampled minibatches of this many seed nodes per
        optimiser step.  ``0`` also means full-batch, *explicitly*: the
        pipeline treats stage-level ``None`` as "inherit my batch_size",
        so ``0`` is the way to pin one stage full-batch while the rest of
        a pipeline runs minibatch.
    fanouts : sequence of int, optional
        Per-hop neighbour caps for minibatch sampling, outermost hop first
        (``-1`` keeps all neighbours of a hop).  ``None`` derives
        ``(10, 5, 5)`` sized to the trained model's receptive field but
        capped at three hops: sampled neighbourhoods grow multiplicatively
        per hop, so deeper defaults would expand each "minibatch" to
        nearly the whole graph.  Deep-propagation models (APPNP, DAGNN)
        therefore see a truncated neighbourhood under the default — the
        standard neighbour-sampling trade-off; pass explicit ``fanouts``
        to cover more hops deliberately.  Ignored when ``batch_size`` is
        ``None``.
    num_partitions : int, optional
        With a value ``> 1`` (and ``batch_size`` set), minibatch seeds are
        grouped per partition of a seeded edge-cut partition plan
        (:func:`repro.graph.partition.partition_graph`) before batching, so
        each step's fanout expansion stays inside one partition's
        neighbourhood — the locality that makes minibatch epochs
        shard-friendly on partitioned graphs.  Deterministic at a fixed
        seed, but an *opt-in trajectory change*: batch composition differs
        from globally-shuffled minibatching, so it is deliberately outside
        the serial==sharded bitwise-parity contract (which covers storage
        sharding, not batch order).  ``None``/``0``/``1`` keep the global
        shuffle.  Ignored for full-batch training.
    capture : bool
        Capture-and-replay execution (:mod:`repro.autograd.capture`) for
        full-batch training, on by default: the first epoch runs (and is
        traced) on the dynamic engine, later epochs replay the recorded
        program through a lifetime-planned buffer arena — bit-identical
        loss/accuracy trajectories, no per-epoch graph construction.
        ``BatchNorm`` captures too (its running-stat update replays as an
        effectful op); any op without a replay twin still bails out to the
        dynamic path, observably (:class:`~repro.autograd.capture.
        CaptureBailoutWarning` + ``engine_stats()`` counters).  Minibatch
        runs bail out unless ``static_batches`` freezes the batch schedule;
        set ``False`` to force the dynamic engine everywhere.
    static_batches : bool
        Freeze the minibatch schedule to the epoch-0 sample so each batch
        has a fixed shape and can be captured and replayed (one recorded
        program per batch).  An *opt-in trajectory change*: later epochs
        reuse epoch 0's batches instead of re-sampling, trading sampling
        diversity for replay speed.  Ignored for full-batch training.
    """

    lr: float = 0.01
    dropout: float = 0.5
    weight_decay: float = 5e-4
    max_epochs: int = 200
    patience: int = 20
    lr_decay_step: int = 3
    lr_decay_gamma: float = 0.9
    hidden: Optional[int] = None
    num_layers: Optional[int] = None
    hidden_fraction: float = 1.0
    seed: int = 0
    evaluate_every: int = 1
    batch_size: Optional[int] = None
    fanouts: Optional[Tuple[int, ...]] = None
    num_partitions: Optional[int] = None
    capture: bool = True
    static_batches: bool = False
    extra_model_kwargs: Dict[str, object] = field(default_factory=dict)

    def with_overrides(self, **overrides) -> "TrainConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    #: Derived default fanouts never exceed this many hops — beyond it the
    #: multiplicative per-hop growth makes the sampled "sub-graph" approach
    #: the full graph, defeating the memory bound minibatch mode exists for.
    DEFAULT_FANOUT_DEPTH_CAP = 3

    def resolve_fanouts(self, num_hops: int) -> Tuple[int, ...]:
        """The per-hop fanouts to sample for a ``num_hops``-hop receptive field.

        Explicit ``fanouts`` win; otherwise the conventional GraphSAGE
        shape — a wider first hop, then 5 per deeper hop — sized to the
        model's ``receptive_field`` (true propagation hops, not its GSE
        ``num_layers``) and capped at :data:`DEFAULT_FANOUT_DEPTH_CAP`
        hops.  Models that propagate deeper train on a truncated
        neighbourhood under the default (bounded bias, the standard
        neighbour-sampling trade-off); name ``fanouts`` explicitly to
        cover more hops.
        """
        if self.fanouts is not None:
            return tuple(int(f) for f in self.fanouts)
        depth = min(max(int(num_hops), 1), self.DEFAULT_FANOUT_DEPTH_CAP)
        return (10,) + (5,) * (depth - 1)


@dataclass
class TrainResult:
    """Outcome of one training run (best validation point, restored weights)."""

    best_val_accuracy: float
    best_epoch: int
    epochs_run: int
    train_time: float
    history: List[Dict[str, float]] = field(default_factory=list)
    config: Optional[TrainConfig] = None
    #: Whether at least one epoch ran through the capture-replay engine.
    capture_used: bool = False
    #: Replay plan statistics (op counts, arena buffers/bytes) when captured.
    capture_plan: Optional[Dict[str, object]] = None
    #: Wall seconds spent inside ``run_epoch`` calls only — the training
    #: engine proper, excluding model building, validation and best-state
    #: snapshots (which are engine-independent).  The capture-speedup study
    #: compares this across engines.
    engine_seconds: float = 0.0

    def summary(self) -> Dict[str, float]:
        """The headline numbers of the run as a flat dict."""
        return {
            "best_val_accuracy": self.best_val_accuracy,
            "best_epoch": float(self.best_epoch),
            "epochs_run": float(self.epochs_run),
            "train_time": self.train_time,
        }


class NodeClassificationTrainer:
    """Trains a single :class:`GNNModel` on one graph.

    ``config.batch_size`` selects the epoch regime: ``None`` trains
    full-batch (one step per epoch over the whole graph, the historical
    behaviour bit-for-bit), an integer trains on neighbour-sampled
    minibatches.  Both regimes share the optimiser protocol, early stopping
    and full-graph validation.
    """

    def __init__(self, config: Optional[TrainConfig] = None) -> None:
        self.config = config or TrainConfig()

    def train(self, model: GNNModel, data: GraphTensors, labels: np.ndarray,
              train_index: np.ndarray, val_index: np.ndarray,
              layer_weights: LayerWeights = None,
              soft_targets: Optional[np.ndarray] = None,
              epoch_hook: Optional[Callable[[int, float], None]] = None) -> TrainResult:
        """Train ``model`` and restore its best-validation-accuracy weights.

        ``soft_targets`` optionally provides a per-node probability matrix to
        mix into the loss (used for the label-reuse trick of Table V).
        ``epoch_hook(epoch, loss)`` is invoked after every trained epoch —
        benchmarks use it to sample per-epoch allocation statistics.
        """
        config = self.config
        labels = np.asarray(labels)
        train_index = np.asarray(train_index)
        val_index = np.asarray(val_index)
        optimizer = optim.Adam(model.parameters(), lr=config.lr,
                               weight_decay=config.weight_decay)
        scheduler = optim.StepLR(optimizer, step_size=config.lr_decay_step,
                                 gamma=config.lr_decay_gamma)

        # Holds the logits Tensor of the most recent *traced* epoch so the
        # tape can re-root an inference-only program at it (mark_output);
        # cleared on every non-traced path to avoid pinning the graph.
        trace_refs: Dict[str, object] = {}

        def full_batch_epoch(epoch: int) -> float:
            # The seed full-batch step, op for op: any reordering here would
            # break the batch_size=None bit-identity contract.
            model.train()
            optimizer.zero_grad()
            logits = model(data, layer_weights=layer_weights)
            trace_refs["logits"] = logits
            loss = F.cross_entropy(logits[train_index], labels[train_index])
            if soft_targets is not None:
                log_probs = F.log_softmax(logits, axis=-1)
                loss = loss + 0.5 * F.soft_cross_entropy(log_probs[train_index],
                                                         soft_targets[train_index])
            loss.backward()
            optimizer.step()
            scheduler.step()
            return float(loss.item())

        # Capture-and-replay for full-batch runs: epoch 0 runs (and is
        # traced) through the unmodified dynamic path above, later epochs
        # replay the recorded program with no Tensors and no closures.  Any
        # bail-out — an op without a replay twin, an input changing shape —
        # continues on the dynamic path, observably (CaptureBailoutWarning
        # + engine_stats counters).
        capture_state = {"replay": None, "enabled": False}
        # Forward-only replay (dead-slot-eliminated program) used for
        # validation; "validated" flips once its logits have been checked
        # bit-exact against forward_inference.
        inference_state = {"replay": None, "validated": False}

        def drop_inference_replay() -> None:
            if inference_state["replay"] is not None:
                inference_state["replay"].release()
                inference_state["replay"] = None

        def captured_epoch(epoch: int) -> float:
            replay = capture_state["replay"]
            if replay is not None:
                try:
                    return replay.run_epoch()
                except capture_engine.CaptureBailout:
                    replay.release()
                    capture_state["replay"] = None
                    capture_state["enabled"] = False
                    drop_inference_replay()
                    loss = full_batch_epoch(epoch)
                    trace_refs.clear()
                    return loss
            if not capture_state["enabled"]:
                loss = full_batch_epoch(epoch)
                trace_refs.clear()
                return loss
            tape = capture_engine.Tape()
            with capture_engine.tracing(tape):
                loss = full_batch_epoch(epoch)
            tape.mark_output(trace_refs.pop("logits", None))
            replay = tape.finalize(optimizer=optimizer, scheduler=scheduler)
            if replay is None:
                capture_state["enabled"] = False
            else:
                capture_state["replay"] = replay
                inference_state["replay"] = (
                    capture_engine.build_inference_replay(replay))
            return loss

        def validation_accuracy() -> float:
            inference = inference_state["replay"]
            if inference is None:
                return self.evaluate(model, data, labels, val_index,
                                     layer_weights)
            try:
                logits = inference.run()
            except capture_engine.CaptureBailout:
                drop_inference_replay()
                return self.evaluate(model, data, labels, val_index,
                                     layer_weights)
            if not inference_state["validated"]:
                # Guarded first use: the stripped program must reproduce the
                # no-grad Tensor forward bit-for-bit, or it is never used.
                reference = model.forward_inference(
                    data, layer_weights=layer_weights)
                if not np.array_equal(logits, reference):
                    capture_engine.note_bailout(
                        "inference_parity",
                        "stripped replay diverged from forward_inference",
                        warn=False)
                    drop_inference_replay()
                    logits = reference
                else:
                    inference_state["validated"] = True
            if val_index.size == 0:
                return 0.0
            return accuracy(logits[val_index], labels[val_index])

        batch_replays: List[object] = []

        if not config.batch_size:  # None or the explicit full-batch 0
            capture_state["enabled"] = config.capture
            run_epoch = captured_epoch
        else:
            sampler = NeighborSampler(
                data.adj_raw.matrix,
                fanouts=config.resolve_fanouts(
                    getattr(model, "receptive_field", model.num_layers)),
                batch_size=config.batch_size,
                seed=config.seed,
            )
            features = data.features.data
            partition_plan = None
            if config.num_partitions and config.num_partitions > 1:
                from repro.graph.partition import partition_graph
                # Ownership only (halo_hops=0): the sampler expands its own
                # fanout neighbourhood, the plan just groups the seeds.
                partition_plan = partition_graph(
                    data.adj_raw.matrix, config.num_partitions,
                    halo_hops=0, seed=config.seed)

            def iter_epoch_batches(epoch: int):
                if partition_plan is not None:
                    return sampler.iter_partition_batches(
                        train_index, partition_plan, epoch=epoch)
                return sampler.iter_batches(train_index, epoch=epoch)

            def batch_step(batch, local_data) -> float:
                optimizer.zero_grad()
                logits = model(local_data, layer_weights=layer_weights)
                # Seeds occupy the leading local rows (SubgraphBatch
                # contract), so a plain slice scores them.
                loss = F.cross_entropy(logits[:batch.num_seeds],
                                       labels[batch.seed_nodes])
                if soft_targets is not None:
                    log_probs = F.log_softmax(logits, axis=-1)
                    loss = loss + 0.5 * F.soft_cross_entropy(
                        log_probs[:batch.num_seeds],
                        soft_targets[batch.seed_nodes])
                loss.backward()
                optimizer.step()
                return float(loss.item())

            if config.capture and not config.static_batches:
                # Re-sampled batches change shape every epoch, which the
                # fixed-shape replay cannot express; surface the fallback
                # instead of silently training dynamic.
                capture_engine.note_bailout(
                    "minibatch",
                    "batch_size set without static_batches; training dynamic")

            if config.static_batches:
                # Static batches: freeze the epoch-0 sample so every epoch
                # trains the same fixed-shape batch list.  With capture on,
                # every batch additionally gets its own recorded program
                # (fixed shapes by construction) — bit-identical to the
                # frozen dynamic schedule, which is why capture on/off over
                # static batches is a parity oracle.  The scheduler steps
                # once per epoch, outside the per-batch replays.
                static_state = {"batches": None, "enabled": config.capture}

                def static_epoch_batches():
                    if static_state["batches"] is None:
                        static_state["batches"] = [
                            (batch, batch.tensors(features))
                            for batch in iter_epoch_batches(0)]
                        batch_replays.extend(
                            [None] * len(static_state["batches"]))
                    return static_state["batches"]

                def captured_batch_step(index, batch, local_data) -> float:
                    replay = batch_replays[index]
                    if replay is not None:
                        try:
                            return replay.run_epoch(step_scheduler=False)
                        except capture_engine.CaptureBailout:
                            replay.release()
                            batch_replays[index] = None
                            static_state["enabled"] = False
                            return batch_step(batch, local_data)
                    if not static_state["enabled"]:
                        return batch_step(batch, local_data)
                    tape = capture_engine.Tape()
                    with capture_engine.tracing(tape):
                        loss = batch_step(batch, local_data)
                    replay = tape.finalize(optimizer=optimizer,
                                           scheduler=scheduler)
                    if replay is None:
                        static_state["enabled"] = False
                    else:
                        batch_replays[index] = replay
                    return loss

                def run_epoch(epoch: int) -> float:
                    model.train()
                    loss_sum = 0.0
                    seeds_seen = 0
                    for index, (batch, local_data) in enumerate(
                            static_epoch_batches()):
                        loss = captured_batch_step(index, batch, local_data)
                        loss_sum += loss * batch.num_seeds
                        seeds_seen += batch.num_seeds
                    scheduler.step()
                    return loss_sum / max(seeds_seen, 1)
            else:
                def run_epoch(epoch: int) -> float:
                    # One optimiser step per seed batch; the loss reported
                    # for the epoch is the seed-weighted mean over its
                    # batches.
                    model.train()
                    loss_sum = 0.0
                    seeds_seen = 0
                    for batch in iter_epoch_batches(epoch):
                        local_data = batch.tensors(features)
                        loss = batch_step(batch, local_data)
                        loss_sum += loss * batch.num_seeds
                        seeds_seen += batch.num_seeds
                    scheduler.step()
                    return loss_sum / max(seeds_seen, 1)

        best_val = -np.inf
        best_epoch = -1
        # ``state_dict()`` deep-copies: the in-place optimisers mutate
        # ``param.data`` buffers directly, so an aliased snapshot would
        # track every later epoch instead of freezing the best one
        # (regression-tested by tests/test_tasks_training.py).
        best_state = model.state_dict()
        history: List[Dict[str, float]] = []
        epochs_without_improvement = 0
        start = time.time()

        epoch = 0
        last_evaluated = -1
        last_loss = float("nan")
        engine_seconds = 0.0
        for epoch in range(config.max_epochs):
            epoch_start = time.perf_counter()
            last_loss = run_epoch(epoch)
            engine_seconds += time.perf_counter() - epoch_start
            if epoch_hook is not None:
                epoch_hook(epoch, last_loss)

            if epoch % config.evaluate_every != 0:
                continue
            last_evaluated = epoch
            val_accuracy = validation_accuracy()
            history.append({"epoch": float(epoch), "loss": last_loss,
                            "val_accuracy": val_accuracy})
            if val_accuracy > best_val:
                best_val = val_accuracy
                best_epoch = epoch
                best_state = model.state_dict()
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= config.patience:
                    break

        if config.max_epochs > 0 and last_evaluated != epoch:
            # With ``evaluate_every > 1`` the loop can end (via max_epochs)
            # on an epoch that was trained but never scored; evaluate it so
            # ``best_state`` can capture the final weights too.
            val_accuracy = validation_accuracy()
            history.append({"epoch": float(epoch), "loss": last_loss,
                            "val_accuracy": val_accuracy})
            if val_accuracy > best_val:
                best_val = val_accuracy
                best_epoch = epoch
                best_state = model.state_dict()

        model.load_state_dict(best_state)
        replay = capture_state["replay"]
        used_batch_replays = [r for r in batch_replays if r is not None]
        capture_used = replay is not None and replay.epochs_replayed > 0
        capture_plan = None if replay is None else dict(replay.plan)
        if used_batch_replays:
            capture_used = capture_used or any(
                r.epochs_replayed > 0 for r in used_batch_replays)
            capture_plan = dict(used_batch_replays[0].plan)
        # Return every leased arena buffer to the pool so the next trained
        # member (or proxy evaluation) recycles this run's storage.
        drop_inference_replay()
        if replay is not None:
            replay.release()
        for batch_replay in used_batch_replays:
            batch_replay.release()
        return TrainResult(
            best_val_accuracy=float(max(best_val, 0.0)),
            best_epoch=best_epoch,
            epochs_run=epoch + 1,
            train_time=time.time() - start,
            history=history,
            config=config,
            capture_used=capture_used,
            capture_plan=capture_plan,
            engine_seconds=engine_seconds,
        )

    @staticmethod
    def evaluate(model: GNNModel, data: GraphTensors, labels: np.ndarray,
                 index: np.ndarray, layer_weights: LayerWeights = None) -> float:
        """Accuracy of ``model`` on the nodes in ``index`` (no gradient tracking).

        Runs the model's forward under ``no_grad`` through
        ``forward_inference``; no backward graph is recorded.
        """
        logits = model.forward_inference(data, layer_weights=layer_weights)
        index = np.asarray(index)
        if index.size == 0:
            return 0.0
        return accuracy(logits[index], np.asarray(labels)[index])

    @staticmethod
    def predict_proba(model: GNNModel, data: GraphTensors,
                      layer_weights: LayerWeights = None) -> np.ndarray:
        """Full-graph class probabilities via ``forward_inference``."""
        return model.predict_proba(data, layer_weights=layer_weights)


#: Default grids from Appendix A1 (shrunk: the full learning-rate grid of the
#: paper has eight values; the first four cover the regime that matters for
#: the smaller synthetic graphs and keep CI runtimes reasonable).
DEFAULT_LR_GRID: Sequence[float] = (5e-2, 1e-2, 5e-3, 1e-3)
DEFAULT_DROPOUT_GRID: Sequence[float] = (0.5, 0.25, 0.1)


def grid_search(build_fn, data: GraphTensors, labels: np.ndarray,
                train_index: np.ndarray, val_index: np.ndarray,
                base_config: Optional[TrainConfig] = None,
                lr_grid: Sequence[float] = DEFAULT_LR_GRID,
                dropout_grid: Sequence[float] = DEFAULT_DROPOUT_GRID,
                max_trials: Optional[int] = None) -> Dict[str, object]:
    """Search learning rate x dropout for a model-building callable.

    ``build_fn(dropout, seed)`` must return a fresh :class:`GNNModel`.
    Returns a dict with the best config, the best result and the full trial
    log, mirroring the automatic hyper-parameter search of the paper.
    """
    base_config = base_config or TrainConfig()
    trials = []
    best = None
    combos = list(itertools.product(lr_grid, dropout_grid))
    if max_trials is not None:
        combos = combos[:max_trials]
    for lr, dropout in combos:
        config = base_config.with_overrides(lr=lr, dropout=dropout)
        model = build_fn(dropout=dropout, seed=config.seed)
        trainer = NodeClassificationTrainer(config)
        result = trainer.train(model, data, labels, train_index, val_index)
        record = {"lr": lr, "dropout": dropout, "result": result, "model": model}
        trials.append(record)
        if best is None or result.best_val_accuracy > best["result"].best_val_accuracy:
            best = record
    return {"best": best, "trials": trials}
