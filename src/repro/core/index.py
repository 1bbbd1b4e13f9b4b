"""Distance index via batched multi-source BFS (Alg 1 lines 1-2).

The paper builds, for the whole batch, ``dist_G(s, v)`` for every source
``s ∈ S`` and ``dist_{G_r}(t, v)`` for every target ``t ∈ T`` using the
multi-source BFS of [36]. Here the same index is one DataFrame
``(root, v, dist)`` produced by a level-synchronous frontier join keyed by
``root`` — all roots advance in the same Spark job per level, which is the
dataflow equivalent of MS-BFS's batched traversal.

The index is small (≤ |roots| × k-hop-reach rows) and is broadcast into the
enumeration joins, which is where the "shared index" of BasicEnum/BatchEnum
pays off.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.ops import local_frame


def bidirectional_index(
    spark: SparkSession,
    edges: DataFrame,
    edges_rev: DataFrame,
    s_roots: list[int],
    t_roots: list[int],
    k_max: int,
) -> tuple[DataFrame, DataFrame]:
    """Both index halves — ``dist_G(s, ·)`` and ``dist_{G_r}(t, ·)`` — in one
    tagged level-synchronous loop (one Spark job per hop for both
    directions), exactly as BasicEnum/BatchEnum build their shared index
    from S and T together (Alg 1/4 lines 1-2).

    Each half is ``(root, v, dist)`` for all ``v`` with ``dist(root, v) ≤
    k_max``; duplicate roots count once.
    """
    s_roots, t_roots = sorted(set(s_roots)), sorted(set(t_roots))
    tagged = edges.withColumn("tag", F.lit("F")).unionByName(
        edges_rev.withColumn("tag", F.lit("B"))
    )
    # The edge table is broadcast into every frontier join: the frontier is
    # the small, shuffling side at our scale, and a map-side join removes
    # per-level shuffle overhead (DESIGN.md §2 — the index/graph broadcast
    # is the batch algorithms' shared-state pattern).
    tagged_b = F.broadcast(tagged)
    seed_rows = [("F", r, r, 0) for r in s_roots] + [("B", r, r, 0) for r in t_roots]
    levels = [local_frame(spark, seed_rows, "tag string, root long, v long, dist int")]
    frontier = levels[0]
    for depth in range(1, k_max + 1):
        visited = levels[0]
        for lv in levels[1:]:
            visited = visited.unionByName(lv)
        nxt = (
            frontier.join(
                tagged_b,
                (frontier["tag"] == tagged_b["tag"]) & (frontier["v"] == tagged_b["src"]),
            )
            .select(frontier["tag"], "root", F.col("dst").alias("v"))
            .distinct()
            .join(visited.select("tag", "root", "v"), ["tag", "root", "v"], "left_anti")
            .withColumn("dist", F.lit(depth).cast("int"))
        ).localCheckpoint(eager=True)
        if nxt.isEmpty():
            break
        levels.append(nxt)
        frontier = nxt
    allv = levels[0]
    for lv in levels[1:]:
        allv = allv.unionByName(lv)
    allv = allv.localCheckpoint(eager=True)
    fwd = allv.where(F.col("tag") == "F").drop("tag")
    bwd = allv.where(F.col("tag") == "B").drop("tag")
    return fwd, bwd


def index_counts(index: DataFrame) -> dict[int, dict[int, int]]:
    """Per-root frontier sizes ``{root: {dist: #vertices}}``.

    Feeds the ``⁺`` variants' cost-based forward/backward budget split
    (DESIGN.md §2, "optimized search order").
    """
    pdf = index.groupBy("root", "dist").agg(F.count("*").alias("n")).toPandas()
    out: dict[int, dict[int, int]] = {}
    for root, dist, n in zip(pdf["root"], pdf["dist"], pdf["n"]):
        out.setdefault(int(root), {})[int(dist)] = int(n)
    return out


def collect_dists(index: DataFrame) -> dict[int, dict[int, int]]:
    """Driver-side ``{root: {v: dist}}`` — used by Alg 3's detection wave."""
    pdf = index.toPandas()
    out: dict[int, dict[int, int]] = {}
    for root, v, dist in zip(pdf["root"], pdf["v"], pdf["dist"]):
        out.setdefault(int(root), {})[int(v)] = int(dist)
    return out
