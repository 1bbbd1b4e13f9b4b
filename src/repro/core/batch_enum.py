"""BatchEnum / BatchEnum⁺ (Algorithm 4), and the plan executor every
algorithm runs on.

Pipeline (Alg 4 lines 1-16):

1. **BuildIndex** — shared multi-source BFS index (same as BasicEnum).
2. **ClusterQuery** — pairwise μ from the index's Γ reach sets (each index
   half collected once, sets intersected on the driver), then driver-side
   hierarchical clustering at threshold γ.
3. **IdentifySubquery** — per cluster, DetectCommonQuery on G and G_r builds
   the query sharing graph Ψ (``repro.core.sharing``).
4. **Enumeration** — :func:`execute_plan` processes Ψ's HC-s nodes
   level-by-level in topological order; each level is one batched Spark
   enumeration whose searches *stop* at provider roots and concatenate the
   provider's cached paths from ``R``. Finally every query's forward and
   backward HC-s results are ⊕-concatenated.

``optimized=True`` (BatchEnum⁺) applies the cost-based search-order split
before detection, so sharing operates on the optimized budgets.

The other algorithms are plan builders over the same :func:`execute_plan`:
BasicEnum's plan is Ψ-free (one level, no stops), PathEnum runs BasicEnum
once per query, and the KSP baselines run the basic plan without prune
pairs.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import enumeration
from repro.core import index as idx
from repro.core.clustering import cluster_queries
from repro.core.enumeration import EnumStats, enumerate_nodes
from repro.core.queries import Query, check_batch
from repro.core.sharing import (
    ExecPlan,
    align_splits_per_cluster,
    build_shared_plan,
    default_split,
    optimized_split,
)
from repro.core.similarity import batch_similarity, pairwise_mu
from repro.graph.ops import (
    collect_adjacency,
    local_frame,
    reverse_adjacency,
    reverse_edges,
)


@dataclass
class RunResult:
    """Output of one algorithm run: final paths + per-stage seconds + work."""

    results: DataFrame  # (qid, path array<long>)
    timings: dict[str, float]
    stats: EnumStats
    extras: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())


def empty_result(spark: SparkSession) -> RunResult:
    """The answer to an empty batch; it runs no Spark job."""
    return RunResult(
        local_frame(spark, [], "qid long, path array<long>"), {}, EnumStats(),
        {"n_paths": 0},
    )


class StageTimer:
    """Accumulates wall-clock seconds per named stage.

    Stage names follow the paper's Exp-3 decomposition: ``build_index``,
    ``cluster_query``, ``identify_subquery``, ``enumeration``.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - t0
            )

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def compute_splits(
    queries: list[Query],
    optimized: bool,
    fwd_index: DataFrame,
    bwd_index: DataFrame,
) -> dict[int, int]:
    """Per-query forward budget ``a``: fixed ⌈k/2⌉, or cost-based (⁺)."""
    if not optimized:
        return {q.qid: default_split(q) for q in queries}
    fc = idx.index_counts(fwd_index)
    bc = idx.index_counts(bwd_index)
    return {q.qid: optimized_split(q, fc, bc) for q in queries}


def execute_plan(
    spark: SparkSession,
    edges: DataFrame,
    rev: DataFrame,
    plan: ExecPlan,
    fwd_index: DataFrame | None,
    bwd_index: DataFrame | None,
    stats: EnumStats,
) -> tuple[DataFrame, int]:
    """Run a plan: enumerate Ψ level by level, then ⊕-assemble once.

    Each topological level is one :func:`enumerate_nodes` call with that
    level's stop rules, and its result is checkpointed. The cache R is the
    provider rows of the finished levels (Alg 4 lines 9-10). After the last
    level, the union of all levels is ⊕-assembled and checkpointed. Returns
    ``(results, n_paths)``. The index frames are read only through the
    plan's prune pairs, so a plan without any may pass ``None``.
    """
    # build_allow and enumerate_nodes are looked up at call time, through
    # the enumeration module and this module, so perfbench/trace_layers.py
    # can wrap them.
    allow = enumeration.build_allow(
        spark, plan.nodes, plan.prune_pairs, fwd_index, bwd_index
    )
    providers = {e.provider for e in plan.edges}
    cache = None
    levels: list[DataFrame] = []
    for level in plan.topo_levels:
        nids = {n.nid for n in level}
        res = enumerate_nodes(
            spark, edges, rev, level, plan.prune_pairs, fwd_index, bwd_index,
            stops=[s for s in plan.stops if s.nid in nids],
            cache=cache, stats=stats, allow=allow,
        )
        levels.append(res)
        prov = sorted(nids & providers)
        if prov:
            rows = res.where(F.col("nid").isin(prov))
            cache = rows if cache is None else cache.unionByName(rows)
    paths = functools.reduce(DataFrame.unionByName, levels)
    results = enumeration.assemble(spark, paths, plan.plans).localCheckpoint(eager=True)
    return results, results.count()


def run_batch(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
    *,
    gamma: float = 0.5,
    optimized: bool = False,
    max_depth: int = 4,
) -> RunResult:
    """Run Algorithm 4 over the batch; returns all HC-s-t paths per query.

    ``max_depth`` caps Ψ's provider-chain length (= sequential enumeration
    levels); see ``repro.core.sharing`` for the rationale.
    """
    check_batch(queries)
    if not queries:
        return empty_result(spark)
    timer = StageTimer()
    stats = EnumStats()
    rev = reverse_edges(edges)
    k_max = max(q.k for q in queries)

    with timer.stage("build_index"):
        fwd_index, bwd_index = idx.bidirectional_index(
            spark, edges, rev, [q.s for q in queries], [q.t for q in queries], k_max
        )

    with timer.stage("cluster_query"):
        mu = pairwise_mu(fwd_index, bwd_index, queries)
        clusters = cluster_queries(mu, [q.qid for q in queries], gamma)
        mu_q = batch_similarity(mu, len(queries))

    with timer.stage("identify_subquery"):
        adj = collect_adjacency(edges)
        radj = reverse_adjacency(adj)
        dist_from_s = idx.collect_dists(fwd_index)
        dist_to_t = idx.collect_dists(bwd_index)
        splits = compute_splits(queries, optimized, fwd_index, bwd_index)
        if optimized:
            splits = align_splits_per_cluster(queries, clusters, splits)
        plan = build_shared_plan(
            queries, clusters, splits, adj, radj, dist_from_s, dist_to_t,
            max_depth=max_depth,
        )

    with timer.stage("enumeration"):
        results, n_paths = execute_plan(
            spark, edges, rev, plan, fwd_index, bwd_index, stats
        )

    return RunResult(
        results, timer.seconds, stats,
        {
            "n_paths": n_paths,
            "n_nodes": len(plan.nodes),
            "n_shared_edges": len(plan.edges),
            "n_clusters": len(clusters),
            "n_levels": len(plan.topo_levels),
            "mu_q": mu_q,
        },
    )
