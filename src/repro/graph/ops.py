"""Graph-level DataFrame operations shared by all algorithms."""
from __future__ import annotations

import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import DataType


def local_frame(spark: SparkSession, rows: list[tuple], ddl_schema: str) -> DataFrame:
    """A DataFrame of driver-built ``rows``, tuples in ``ddl_schema`` order.

    The rows go to the JVM as one Arrow table and plan as a
    ``LocalTableScan``. ``createDataFrame`` over a Python list would pickle
    them and reserialize them through Python workers on every scan, which
    costs several hundred milliseconds per frame (DESIGN.md §2). An empty
    ``rows`` gives an empty frame that keeps the schema.
    """
    schema = DataType.fromDDL(ddl_schema)
    arrow_schema = to_arrow_schema(schema)
    cols = list(zip(*rows)) if rows else [()] * len(arrow_schema)
    table = pa.Table.from_arrays(
        [pa.array(c, type=f.type) for c, f in zip(cols, arrow_schema)],
        schema=arrow_schema,
    )
    return spark.createDataFrame(table, schema)


def reverse_edges(edges: DataFrame) -> DataFrame:
    """The reverse graph ``G_r``: every edge (u, v) becomes (v, u)."""
    return edges.select(
        F.col("dst").alias("src"), F.col("src").alias("dst")
    )


def sample_vertices(edges: DataFrame, pct: int) -> DataFrame:
    """Vertex-induced subgraph on a deterministic ``pct``% vertex sample.

    Used by Exp-5 (scalability): the paper samples 20%..100% of the two
    largest graphs. A vertex is kept iff ``hash(v) mod 100 < pct``; an edge
    is kept iff both endpoints are kept, matching vertex-induced sampling.
    """
    if not 0 < pct <= 100:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    if pct == 100:
        return edges
    keep = lambda c: F.pmod(F.xxhash64(F.col(c)), F.lit(100)) < pct  # noqa: E731
    return edges.where(keep("src") & keep("dst"))


def collect_adjacency(edges: DataFrame) -> dict[int, list[int]]:
    """Out-adjacency as a driver-side dict ``{u: [v, ...]}``.

    Used by the driver-resident pieces (query generation over random walks,
    Alg 3 detection) — these are metadata-sized relative to enumeration, per
    DESIGN.md §2. Neighbour lists are sorted for determinism.
    """
    pdf: pd.DataFrame = edges.toPandas()
    adj: dict[int, list[int]] = {}
    for u, v in zip(pdf["src"].tolist(), pdf["dst"].tolist()):
        adj.setdefault(u, []).append(v)
    return {u: sorted(vs) for u, vs in adj.items()}


def reverse_adjacency(adj: dict[int, list[int]]) -> dict[int, list[int]]:
    """Driver-side reverse of :func:`collect_adjacency` output."""
    radj: dict[int, list[int]] = {}
    for u, vs in adj.items():
        for v in vs:
            radj.setdefault(v, []).append(u)
    return {u: sorted(vs) for u, vs in radj.items()}


def vertices(edges: DataFrame) -> DataFrame:
    """Distinct vertices incident to at least one edge, column ``v``."""
    return (
        edges.select(F.col("src").alias("v"))
        .unionAll(edges.select(F.col("dst").alias("v")))
        .distinct()
    )
