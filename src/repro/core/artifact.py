"""Fitted-ensemble artifacts: the "fit once, serve many" half of the API.

The paper's pipeline ends at a single transductive prediction; the repo's
north star — serving heavy traffic — needs the opposite lifecycle.
:class:`FittedEnsemble` is what ``AutoHEnsGNN.fit`` returns: the searched
pool, the β weights and every bagged member's trained parameters, detached
from the search machinery.  It predicts through ``forward_inference``
(each member's forward under ``no_grad``), accepts the original
graph or a re-built one with the same feature schema, and round-trips through
a versioned on-disk artifact::

    artifact/
      manifest.json   # schema version, dtype, pool, β, per-member build recipe
      weights.npz     # one blob per parameter/buffer, keyed s{split}/g{gse}/m{member}/name

The manifest records everything needed to *reconstruct* the members through
the model zoo (spec name, depth, hidden width, seeds, α vectors) plus the
shape and dtype of every weight blob, so :meth:`FittedEnsemble.load` can
validate an artifact before instantiating anything and fail with a precise
:class:`ArtifactError` instead of a shape error five layers deep.

Loading rebuilds each member with the exact constructor arguments used at fit
time and then overwrites its parameters with the stored arrays, so a loaded
ensemble predicts **bit-for-bit** like the fitted one — in a fresh process,
on any machine with the same NumPy/SciPy stack.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.autograd.dtype import compute_dtype_scope
from repro.core.hierarchical import HierarchicalEnsemble
from repro.graph.graph import Graph
from repro.nn.data import GraphTensors
from repro.parallel.cache import ndarray_fingerprint
from repro.resilience import faults as _faults
from repro.tasks.metrics import accuracy

#: Bumped whenever the on-disk layout changes incompatibly.  ``load``
#: refuses any other version with a message naming both versions.
SCHEMA_VERSION = 1

#: Sanity marker distinguishing our manifests from arbitrary JSON files.
ARTIFACT_FORMAT = "autohensgnn-fitted-ensemble"

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.npz"

GraphLike = Union[Graph, GraphTensors]


class ArtifactError(RuntimeError):
    """A saved ensemble artifact is missing, corrupted or incompatible."""


def _jsonable(value):
    """Recursively convert NumPy scalars/arrays so ``json.dump`` accepts them."""
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _member_key(split: int, gse: int, member: int, name: str) -> str:
    return f"s{split}/g{gse}/m{member}/{name}"


@dataclass
class FittedEnsemble:
    """A trained hierarchical ensemble, ready to answer inference requests.

    Produced by ``AutoHEnsGNN.fit``; reconstructed from disk by
    :meth:`load`.  ``ensembles`` holds one :class:`HierarchicalEnsemble` per
    bagging split; predictions average the splits exactly like the
    historical ``fit_predict`` did, so ``fit(g).predict_proba(g)`` is
    bit-identical to the fit-time probabilities.
    """

    ensembles: List[HierarchicalEnsemble]
    pool: List[str]
    beta: np.ndarray
    chosen_layers: Dict[str, object]
    num_features: int
    num_classes: int
    compute_dtype: str
    metadata: Dict[str, object] = field(default_factory=dict)
    #: The fit-time :class:`~repro.core.pipeline.PipelineResult` (timings,
    #: proxy ranking, fit-time probabilities).  Not persisted by ``save`` —
    #: a loaded artifact carries only what inference needs.
    fit_report: Optional[object] = None

    def __post_init__(self) -> None:
        # Members only predict from here on.  In eval mode
        # ``forward_inference`` leaves their mode alone, so shards scoring
        # one member on several threads cannot turn dropout back on under
        # one another.
        for ensemble in self.ensembles:
            for gse in ensemble.ensembles:
                for member in gse.members:
                    member.eval()

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _as_tensors(self, graph: GraphLike) -> GraphTensors:
        if isinstance(graph, GraphTensors):
            data = graph
        elif isinstance(graph, Graph):
            data = GraphTensors.from_graph(graph)
        else:
            raise TypeError(
                f"predict expects a Graph or GraphTensors, got {type(graph).__name__}")
        if data.num_features != self.num_features:
            raise ArtifactError(
                f"feature schema mismatch: the ensemble was fitted on "
                f"{self.num_features} node features but the graph provides "
                f"{data.num_features}; rebuild the graph with the training "
                f"feature schema (node count may differ, feature count may not)")
        expected = np.dtype(self.compute_dtype)
        if data.features.data.dtype != expected:
            raise ArtifactError(
                f"dtype mismatch: the ensemble computes in {expected.name} but the "
                f"pre-built GraphTensors holds {data.features.data.dtype.name} "
                f"features; pass the Graph itself (tensors are then built under "
                f"the artifact's dtype) or rebuild the view inside "
                f"compute_dtype_scope({self.compute_dtype!r})")
        return data

    def predict_proba(self, graph: GraphLike) -> np.ndarray:
        """Class probabilities for every node, shape ``(num_nodes, num_classes)``.

        Runs each member's forward under ``no_grad`` (``forward_inference``,
        no backward graph) under the artifact's compute dtype.  ``graph``
        may be the training graph, a refreshed/extended graph with the same
        feature schema, or a pre-built
        :class:`GraphTensors` view in the matching dtype.
        """
        if not self.ensembles:
            raise ArtifactError("fitted ensemble has no trained splits")
        with compute_dtype_scope(self.compute_dtype):
            data = self._as_tensors(graph)
            split_probabilities = [ensemble.predict_proba(data)
                                   for ensemble in self.ensembles]
            # The exact reduction fit_predict used — np.mean over the split
            # axis — so serving reproduces fit-time probabilities bitwise.
            return np.mean(split_probabilities, axis=0)

    def predict(self, graph: GraphLike) -> np.ndarray:
        """Predicted class per node (argmax of :meth:`predict_proba`)."""
        return self.predict_proba(graph).argmax(axis=1)

    def test_accuracy(self, graph: GraphLike, labels: np.ndarray,
                      index: np.ndarray) -> float:
        """Accuracy of :meth:`predict_proba` on the nodes in ``index``."""
        index = np.asarray(index)
        return accuracy(self.predict_proba(graph)[index], np.asarray(labels)[index])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_members(self) -> int:
        """Total trained member models across every split and GSE."""
        return sum(len(gse.members) for ensemble in self.ensembles
                   for gse in ensemble.ensembles)

    def receptive_field(self) -> int:
        """Widest propagation depth (hops) over every member model.

        This is the halo width a sharded scorer needs: with halo rings out
        to this distance, every owned node's k-hop neighbourhood is complete
        inside its partition view, so partition-local propagation reproduces
        the global forward pass bitwise at owned rows (see
        :mod:`repro.graph.partition`).
        """
        hops = 1
        for ensemble in self.ensembles:
            for gse in ensemble.ensembles:
                for member in gse.members:
                    hops = max(hops, int(getattr(member, "receptive_field",
                                                 member.num_layers)))
        return hops

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary of the fitted ensemble (pool, β, size, dtype)."""
        return {
            "pool": list(self.pool),
            "beta": [float(b) for b in np.asarray(self.beta).ravel()],
            "chosen_layers": _jsonable(self.chosen_layers),
            "splits": len(self.ensembles),
            "members": self.num_members,
            "num_features": self.num_features,
            "num_classes": self.num_classes,
            "compute_dtype": self.compute_dtype,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Write the artifact directory (``manifest.json`` + ``weights.npz``).

        The write is *atomic at the directory level*: everything is staged
        into a sibling temp directory and swapped into place with
        ``os.replace``-style renames, so a crash mid-save leaves either the
        previous artifact intact or no artifact at all — never a torn mix of
        new weights and old manifest.  Each weight blob's blake2b fingerprint
        is recorded in the manifest and re-verified by :meth:`load`.

        Returns ``path`` so call sites can chain
        ``FittedEnsemble.load(fitted.save(p))``.
        """
        from repro import __version__

        arrays: Dict[str, np.ndarray] = {}
        for split_index, hierarchical in enumerate(self.ensembles):
            for gse_index, gse in enumerate(hierarchical.ensembles):
                if not gse.members:
                    raise ArtifactError(
                        f"cannot save: GSE {gse.spec_name!r} of split {split_index} "
                        f"has no trained members")
                for member_index, member in enumerate(gse.members):
                    # copy=False: np.savez materialises to disk immediately,
                    # so aliased views never outlive the call.
                    state = member.state_dict(copy=False)
                    for name, array in state.items():
                        arrays[_member_key(split_index, gse_index,
                                           member_index, name)] = array
        manifest = {
            "format": ARTIFACT_FORMAT,
            "schema_version": SCHEMA_VERSION,
            "repro_version": __version__,
            "compute_dtype": self.compute_dtype,
            "num_features": int(self.num_features),
            "num_classes": int(self.num_classes),
            "pool": list(self.pool),
            "beta": [float(b) for b in np.asarray(self.beta).ravel()],
            "chosen_layers": _jsonable(self.chosen_layers),
            "splits": [ensemble.manifest_entry() for ensemble in self.ensembles],
            "weights": {key: {"shape": list(array.shape),
                              "dtype": str(array.dtype),
                              # Content fingerprint; load() rejects any blob
                              # whose bytes no longer hash to this value.
                              "blake2b": ndarray_fingerprint(array)}
                        for key, array in arrays.items()},
            "metadata": _jsonable(self.metadata),
        }
        # Stage next to the destination (same filesystem, so the final
        # renames are atomic) under a pid-suffixed name that cannot collide
        # with a concurrent saver.
        staging = f"{path}.tmp-{os.getpid()}"
        if os.path.exists(staging):
            shutil.rmtree(staging)
        os.makedirs(staging)
        try:
            weights_path = os.path.join(staging, WEIGHTS_NAME)
            np.savez(weights_path, **arrays)
            # Chaos hooks: corrupt the staged blobs / die before the swap.
            _faults.damage_file("artifact.weights", weights_path)
            with open(os.path.join(staging, MANIFEST_NAME), "w",
                      encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            _faults.fault_point("artifact.save")
            if os.path.exists(path):
                backup = f"{path}.old-{os.getpid()}"
                if os.path.exists(backup):
                    shutil.rmtree(backup)
                os.rename(path, backup)
                os.rename(staging, path)
                shutil.rmtree(backup)
            else:
                os.rename(staging, path)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return path

    @classmethod
    def load(cls, path: str) -> "FittedEnsemble":
        """Reconstruct a fitted ensemble from :meth:`save` output.

        Validates the manifest (format marker, schema version, required
        fields) and every weight blob (presence, shape, dtype) *before*
        instantiating models, so a truncated download or a manifest from a
        newer schema fails with one precise :class:`ArtifactError`.
        """
        manifest = cls._read_manifest(path)
        weights_path = os.path.join(path, WEIGHTS_NAME)
        if not os.path.isfile(weights_path):
            raise ArtifactError(f"artifact at {path!r} is missing {WEIGHTS_NAME}")
        try:
            archive = np.load(weights_path)
        except Exception as error:
            raise ArtifactError(
                f"could not read weight blobs from {weights_path!r}: {error}") from error
        with archive:
            declared = manifest["weights"]
            stored = set(archive.files)
            missing = set(declared) - stored
            unexpected = stored - set(declared)
            if missing or unexpected:
                raise ArtifactError(
                    f"weight blobs disagree with the manifest: "
                    f"missing={sorted(missing)[:5]}, unexpected={sorted(unexpected)[:5]}")
            arrays: Dict[str, np.ndarray] = {}
            for key, meta in declared.items():
                try:
                    array = archive[key]
                except ArtifactError:
                    raise
                except Exception as error:
                    # A flipped byte inside the zip stream surfaces as a CRC
                    # or zlib error during decompression; corruption must
                    # never escape as anything but ArtifactError.
                    raise ArtifactError(
                        f"weight blob {key!r} is corrupted and cannot be "
                        f"decoded: {error}") from error
                if list(array.shape) != list(meta["shape"]) \
                        or str(array.dtype) != meta["dtype"]:
                    raise ArtifactError(
                        f"weight blob {key!r} is corrupted: stored "
                        f"{array.dtype}{array.shape}, manifest declares "
                        f"{meta['dtype']}{tuple(meta['shape'])}")
                declared_digest = meta.get("blake2b")
                if declared_digest is not None \
                        and ndarray_fingerprint(array) != declared_digest:
                    # Absent digest = artifact from a pre-checksum release;
                    # tolerated.  A present-but-wrong digest is corruption.
                    raise ArtifactError(
                        f"weight blob {key!r} failed its checksum: the stored "
                        f"bytes do not match the fingerprint recorded at save "
                        f"time — refusing to load a corrupted artifact")
                arrays[key] = array
        num_features = int(manifest["num_features"])
        num_classes = int(manifest["num_classes"])
        ensembles: List[HierarchicalEnsemble] = []
        # Members are rebuilt (and later predict) under the dtype the
        # ensemble was fitted with, regardless of the caller's policy.
        with compute_dtype_scope(manifest["compute_dtype"]):
            for split_index, split_entry in enumerate(manifest["splits"]):
                try:
                    hierarchical = HierarchicalEnsemble.from_manifest_entry(
                        split_entry, num_features, num_classes)
                except KeyError as error:
                    raise ArtifactError(
                        f"cannot rebuild split {split_index}: {error}") from error
                for gse_index, gse in enumerate(hierarchical.ensembles):
                    for member_index, member in enumerate(gse.members):
                        prefix = (split_index, gse_index, member_index)
                        state = {}
                        for name in member.state_dict(copy=False):
                            key = _member_key(*prefix, name)
                            if key not in arrays:
                                raise ArtifactError(
                                    f"weight blob {key!r} required by model "
                                    f"{gse.spec_name!r} is absent from the artifact")
                            state[name] = arrays[key]
                        try:
                            member.load_state_dict(state)
                        except (KeyError, ValueError) as error:
                            raise ArtifactError(
                                f"stored weights do not fit model {gse.spec_name!r} "
                                f"(split {split_index}, member {member_index}): "
                                f"{error}") from error
                ensembles.append(hierarchical)
        return cls(
            ensembles=ensembles,
            pool=list(manifest["pool"]),
            beta=np.asarray(manifest["beta"], dtype=np.float64),
            chosen_layers=dict(manifest["chosen_layers"]),
            num_features=num_features,
            num_classes=num_classes,
            compute_dtype=str(manifest["compute_dtype"]),
            metadata=dict(manifest.get("metadata", {})),
        )

    @staticmethod
    def _read_manifest(path: str) -> Dict[str, object]:
        if not os.path.isdir(path):
            raise ArtifactError(
                f"artifact directory {path!r} does not exist (expected a directory "
                f"containing {MANIFEST_NAME} and {WEIGHTS_NAME})")
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.isfile(manifest_path):
            raise ArtifactError(f"artifact at {path!r} is missing {MANIFEST_NAME}")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ArtifactError(
                f"could not parse {manifest_path!r}: {error}") from error
        if not isinstance(manifest, dict) \
                or manifest.get("format") != ARTIFACT_FORMAT:
            raise ArtifactError(
                f"{manifest_path!r} is not an AutoHEnsGNN ensemble manifest "
                f"(format marker {manifest.get('format') if isinstance(manifest, dict) else None!r})")
        version = manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArtifactError(
                f"artifact schema version {version!r} is not supported: this build "
                f"reads version {SCHEMA_VERSION}; re-save the ensemble with a "
                f"matching repro release (artifact written by "
                f"{manifest.get('repro_version', 'unknown')})")
        required = ("compute_dtype", "num_features", "num_classes", "pool",
                    "beta", "splits", "weights")
        missing = [key for key in required if key not in manifest]
        if missing:
            raise ArtifactError(
                f"manifest {manifest_path!r} is missing required fields: {missing}")
        return manifest
