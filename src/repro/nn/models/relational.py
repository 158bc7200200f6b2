"""Relational (heterogeneous) candidate models.

:class:`RGCN` and :class:`RGAT` stack the relation-typed aggregators of
:mod:`repro.nn.layers.relational` through the shared
:class:`~repro.nn.models.base.StackedConvModel` plumbing, so they satisfy
every pipeline contract for free — ``receptive_field``, per-layer states for
GSE, ``forward_inference`` and state_dict round-trips.

``num_relations`` is a relation *capacity* baked into the parameter shapes
(see :mod:`repro.nn.layers.relational`), so the zoo registers these models
with a fixed default capacity and proxy evaluation / ``FittedEnsemble.load``
rebuild identical shapes without inspecting the data.  At capacity 1 on a
homogeneous (or single-relation heterogeneous) graph they reproduce
:class:`~repro.nn.models.standard.GCN` / :class:`~repro.nn.models.standard.
GAT` bit-for-bit.
"""

from __future__ import annotations

from repro.nn.layers.relational import RGATConv, RGCNConv
from repro.nn.models.base import StackedConvModel


class RGCN(StackedConvModel):
    """Relational GCN (Schlichtkrull et al., 2018).

    ``num_bases`` enables the basis-decomposition weight sharing
    ``W_r = sum_b c_{rb} V_b``; ``None`` keeps independent per-relation
    weights.
    """

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.5, num_relations: int = 1,
                 num_bases: int = None, seed: int = 0, **kwargs) -> None:
        super().__init__(
            conv_factory=lambda i, o, rng: RGCNConv(
                i, o, num_relations=num_relations, num_bases=num_bases, rng=rng),
            in_features=in_features, num_classes=num_classes, hidden=hidden,
            num_layers=num_layers, dropout=dropout, seed=seed,
            name=f"RGCN-{num_relations}r", **kwargs,
        )
        self.num_relations = num_relations
        self.num_bases = num_bases


class RGAT(StackedConvModel):
    """Relational GAT: independent multi-head attention per relation."""

    def __init__(self, in_features: int, num_classes: int, hidden: int = 64,
                 num_layers: int = 2, dropout: float = 0.5, num_relations: int = 1,
                 heads: int = 4, seed: int = 0, **kwargs) -> None:
        super().__init__(
            conv_factory=lambda i, o, rng: RGATConv(
                i, o, num_relations=num_relations, heads=heads,
                attention_dropout=dropout / 2, rng=rng),
            in_features=in_features, num_classes=num_classes, hidden=hidden,
            num_layers=num_layers, dropout=dropout, activation="elu", seed=seed,
            name=f"RGAT-{num_relations}r-{heads}h", **kwargs,
        )
        self.num_relations = num_relations
        self.heads = heads
