"""HC-s-t query similarity (Defs 4.4–4.6) over hop-constrained neighbours.

Γ(q)/Γ_r(q) are reach sets within ``q.k`` hops of ``q.s`` on G / ``q.t`` on
``G_r`` (Def 4.4). Crucially — as the paper notes — these are *not* computed
specially: they are exactly the rows the index BFS already produced, so
they are filters of the index. :func:`pairwise_mu` collects each index half
once and builds the sets, their intersections and the μ arithmetic on the
driver; :func:`gamma_members` is the same filter as a Spark DataFrame.
"""
from __future__ import annotations

import itertools

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.queries import Query
from repro.graph.ops import local_frame


def gamma_members(index: DataFrame, queries: list[Query], *, by_target: bool) -> DataFrame:
    """(qid, v) membership rows of Γ_r (``by_target``) or Γ from the index.

    ``index`` must be the forward index (roots = sources) when
    ``by_target=False`` and the backward index (roots = targets) otherwise.
    """
    root_of = [(q.qid, q.t if by_target else q.s, q.k) for q in queries]
    qmap = F.broadcast(local_frame(index.sparkSession, root_of, "qid long, r long, k int"))
    return (
        index.join(qmap, index["root"] == qmap["r"])
        .where(F.col("dist") <= F.col("k"))
        .select("qid", "v")
        .distinct()
    )


def _gamma_sets(index: DataFrame, queries: list[Query], *, by_target: bool) -> dict[int, set[int]]:
    """The sets of :func:`gamma_members`, built on the driver from one
    collect of the index half.

    The index is |roots| × k-hop-reach ≈ 10⁴–10⁵ rows — metadata-sized — so
    one collect and driver-side filters beat a Spark join, distinct and
    collect (whose fixed per-job cost would dominate BatchEnum's sharing
    overhead). Every query's root is in the index, at dist 0."""
    by_root = {int(r): g for r, g in index.toPandas().groupby("root")}
    sets: dict[int, set[int]] = {}
    for q in queries:
        g = by_root[q.t if by_target else q.s]
        sets[q.qid] = set(g["v"][g["dist"] <= q.k].tolist())
    return sets


def _sizes_and_intersections(sets: dict[int, set[int]]) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Set sizes, and the sizes of all non-empty pairwise intersections."""
    sizes = {q: len(s) for q, s in sets.items()}
    inter: dict[tuple[int, int], int] = {}
    for qa, qb in itertools.combinations(sorted(sets), 2):
        n = len(sets[qa] & sets[qb])
        if n:
            inter[(qa, qb)] = n
    return sizes, inter


def _coeff(sa: int, sb: int, inter: int) -> float:
    """Overlap coefficient |A∩B| / min(|A|, |B|) ∈ [0, 1]."""
    if inter == 0 or sa == 0 or sb == 0:
        return 0.0
    return inter / min(sa, sb)


def mu_from_coeffs(cf: float, cb: float) -> float:
    """μ(q_A, q_B) = 2 / (1/cf + 1/cb): the harmonic mean of the forward and
    backward overlap coefficients — the paper's Def 4.5 rewritten. Per the
    paper's footnote, any zero intersection zeroes μ (2/(x+∞) = 0)."""
    if cf == 0.0 or cb == 0.0:
        return 0.0
    return 2.0 / (1.0 / cf + 1.0 / cb)


def pairwise_mu(
    fwd_index: DataFrame, bwd_index: DataFrame, queries: list[Query]
) -> dict[tuple[int, int], float]:
    """μ for every unordered query pair, keyed ``(qa, qb)`` with qa < qb."""
    fs, fi = _sizes_and_intersections(_gamma_sets(fwd_index, queries, by_target=False))
    bs, bi = _sizes_and_intersections(_gamma_sets(bwd_index, queries, by_target=True))
    out: dict[tuple[int, int], float] = {}
    for qa, qb in itertools.combinations(sorted(q.qid for q in queries), 2):
        cf = _coeff(fs.get(qa, 0), fs.get(qb, 0), fi.get((qa, qb), 0))
        cb = _coeff(bs.get(qa, 0), bs.get(qb, 0), bi.get((qa, qb), 0))
        out[(qa, qb)] = mu_from_coeffs(cf, cb)
    return out


def batch_similarity(mu: dict[tuple[int, int], float], n_queries: int) -> float:
    """μ_Q: mean pairwise similarity of the batch (Exp-1's x-axis)."""
    if n_queries < 2:
        return 0.0
    return sum(mu.values()) / (n_queries * (n_queries - 1) / 2)


def group_similarity(
    mu: dict[tuple[int, int], float], ca: list[int], cb: list[int]
) -> float:
    """δ(C_A, C_B) (Def 4.6): average pairwise μ across the two groups."""
    tot = 0.0
    for a in ca:
        for b in cb:
            tot += mu[(a, b) if a < b else (b, a)]
    return tot / (len(ca) * len(cb))
