"""Multi-cluster federation: sharded warehouses, scatter-gather queries.

The paper's premise is facility-wide management built from per-resource
pipelines — Ranger is one instance of a pattern TACC ran across the
whole machine room.  This package generalizes the single-warehouse
assumption: every cluster owns its own archive and warehouse *shard*
(with its own ingest ledger), and :class:`FederatedWarehouse` answers
cross-cluster questions by scattering a query to every shard's
:class:`~repro.xdmod.snapshot.WarehouseSnapshot` and gathering the
per-shard aggregates with the PR 2 partial-merge algebra (node-hour-
weighted means merge exactly; see docs/FEDERATION.md).

A single-cluster federation is byte-identical to the classic
single-warehouse path: the per-shard pipeline *is* the existing
pipeline, and the gather step over one shard is the identity.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.federation.federated": ("FederatedWarehouse",),
    "repro.federation.layout": ("FederationLayout", "ShardSpec"),
    "repro.federation.merge": (
        "merge_group_results", "merge_series", "series_merge_mode"
    ),
    "repro.federation.simulate": ("ClusterPlan", "FederatedFacility"),
})
