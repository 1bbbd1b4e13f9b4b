"""BasicEnum / BasicEnum⁺ (Algorithm 1): the batch baseline.

One shared distance index is built by multi-source BFS from all sources and
all targets; every query is then answered independently by PathEnum's
index-pruned bidirectional search — all queries ride the same batched Spark
pipeline (one row-space keyed by query), but no intermediate results are
shared across queries. The plan is BatchEnum's with an empty Ψ: one level,
no stops, no providers, run by :func:`repro.core.batch_enum.execute_plan`.
``optimized=True`` is BasicEnum⁺'s cost-based search order (forward/backward
budget split from index frontier counts).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core import index as idx
from repro.core.batch_enum import (
    RunResult,
    StageTimer,
    compute_splits,
    empty_result,
    execute_plan,
)
from repro.core.enumeration import EnumStats

# Unused here: perfbench/trace_layers.py patches ``enumerate_nodes`` by this
# module's name, so the name must stay importable from it.
from repro.core.enumeration import enumerate_nodes  # noqa: F401
from repro.core.queries import Query, check_batch
from repro.core.sharing import build_basic_plan
from repro.graph.ops import reverse_edges


def run_basic(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
    *,
    optimized: bool = False,
) -> RunResult:
    """Run Algorithm 1 over the batch; returns all HC-s-t paths per query."""
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
    with timer.stage("enumeration"):
        splits = compute_splits(queries, optimized, fwd_index, bwd_index)
        plan = build_basic_plan(queries, splits)
        results, n_paths = execute_plan(
            spark, edges, rev, plan, fwd_index, bwd_index, stats
        )
    return RunResult(
        results, timer.seconds, stats,
        {"n_paths": n_paths, "n_nodes": len(plan.nodes)},
    )
