"""PathEnum [15]: the state-of-the-art *single-query* algorithm.

Processes each query of the batch in isolation, exactly as the paper's
baseline does: a private two-BFS index (from ``s`` on G and ``t`` on G_r,
bounded by that query's ``k``) followed by the index-pruned bidirectional
search and ⊕ concatenation — that is, BasicEnum on a one-query batch. The
batch cost is the sum of per-query jobs — no index sharing, no computation
sharing; this is what BasicEnum improves on via the shared multi-source
index, and BatchEnum via Ψ.
"""
from __future__ import annotations

import functools

from pyspark.sql import DataFrame, SparkSession

from repro.core.basic_enum import run_basic
from repro.core.batch_enum import RunResult, empty_result
from repro.core.enumeration import EnumStats
from repro.core.queries import Query, check_batch


def run_pathenum(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
) -> RunResult:
    """Answer every query with an independent PathEnum run."""
    check_batch(queries)
    if not queries:
        return empty_result(spark)
    runs = [run_basic(spark, edges, [q]) for q in queries]
    stats = EnumStats()
    timings: dict[str, float] = {}
    for rr in runs:
        stats.merge(rr.stats)
        for stage, s in rr.timings.items():
            timings[stage] = timings.get(stage, 0.0) + s
    results = functools.reduce(DataFrame.unionByName, (rr.results for rr in runs))
    n_paths = sum(rr.extras["n_paths"] for rr in runs)
    return RunResult(results, timings, stats, {"n_paths": n_paths})
