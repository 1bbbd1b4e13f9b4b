"""End-to-end algorithm tests: PathEnum, BasicEnum(+), BatchEnum(+), DkSP,
OnePass all answer the same batches; results are checked per query against
the reference engine and, as whole batches, against the DuckDB oracle.
"""
from __future__ import annotations

import functools
from unittest import mock

import pytest
from pyspark.sql import SparkSession

from repro.baselines.ksp import run_dksp, run_onepass
from repro.core import ref_engine as ref
from repro.core.basic_enum import run_basic
from repro.core.batch_enum import run_batch
from repro.core.enumeration import paths_as_strings
from repro.core.pathenum import run_pathenum
from repro.core.queries import Query, gen_queries
from repro.oracle import assert_equivalent
from tests.sqlgen import st_paths_sql

PAPER_Q = [
    Query(0, 0, 11, 5),
    Query(1, 2, 13, 5),
    Query(2, 5, 12, 5),
    Query(3, 4, 14, 4),
    Query(4, 9, 14, 3),
]

RUNNERS = {
    "pathenum": run_pathenum,
    "basic": run_basic,
    "basic+": functools.partial(run_basic, optimized=True),
    "batch": functools.partial(run_batch, gamma=0.8),
    "batch+": functools.partial(run_batch, gamma=0.8, optimized=True),
    "dksp": run_dksp,
    "onepass": run_onepass,
}
ALGOS = list(RUNNERS)

# (expanded_rows, closed_rows, levels, n_paths) of each algorithm on PAPER_Q:
# work counts every plan change must keep.
EXACT_COUNTS = {
    "pathenum": (40, 0, 13, 11),
    "basic": (40, 0, 3, 11),
    "basic+": (40, 0, 3, 11),
    "batch": (28, 8, 5, 11),
    "batch+": (29, 5, 5, 11),
    "dksp": (51, 0, 3, 11),
    "onepass": (81, 0, 5, 11),
}

# q0 has s = t: a single vertex is not an s-t path, so its answer is ∅.
SAME_ENDPOINT_Q = [Query(0, 4, 4, 3), Query(1, 0, 11, 5)]


def no_row_pickling():
    """Make PySpark's row-pickling ``createDataFrame(list)`` path raise.

    Driver-built rows must enter Spark through ``local_frame`` (DESIGN.md
    §2); the seven algorithms' Fig 1 runs are made under this patch."""
    return mock.patch.object(
        SparkSession, "_create_dataframe",
        side_effect=AssertionError("driver rows must enter Spark through local_frame"),
    )


def spark_jobs_of(spark, group, call):
    """Run ``call()`` under Spark job group ``group``; return its result and
    the ids of the jobs it started."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()  # job events arrive async
    return out, sc.statusTracker().getJobIdsForGroup(group)


def by_query(rr, queries):
    out = {q.qid: set() for q in queries}
    for r in rr.results.collect():
        out[r["qid"]].add(tuple(r["path"]))
    return out


@pytest.fixture(scope="module")
def tiny_queries(tiny_adj):
    return gen_queries(tiny_adj, 10, k_range=(3, 5), share=0.5, seed=7)


@pytest.fixture(scope="module")
def tiny_expect(tiny_adj, tiny_queries):
    return {
        q.qid: ref.enum_st_paths(tiny_adj, q.s, q.t, q.k) for q in tiny_queries
    }


@pytest.fixture(scope="module")
def paper_expect(paper_adj):
    return {q.qid: ref.enum_st_paths(paper_adj, q.s, q.t, q.k) for q in PAPER_Q}


@pytest.fixture(scope="module")
def paper_runs(spark, paper_edges):
    with no_row_pickling():
        return {name: run(spark, paper_edges, PAPER_Q) for name, run in RUNNERS.items()}


@pytest.fixture(scope="module")
def same_endpoint_runs(spark, paper_edges):
    return {
        name: run(spark, paper_edges, SAME_ENDPOINT_Q) for name, run in RUNNERS.items()
    }


class TestPaperBatchCorrectness:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_matches_reference(self, paper_runs, paper_expect, algo):
        assert by_query(paper_runs[algo], PAPER_Q) == paper_expect

    @pytest.mark.parametrize("algo", ["basic", "batch", "batch+"])
    def test_matches_duckdb_oracle(self, paper_runs, paper_pdf, algo):
        got = paths_as_strings(paper_runs[algo].results)
        assert_equivalent(got, st_paths_sql(PAPER_Q), edges=paper_pdf)

    def test_example_21_counts(self, paper_expect):
        # Example 2.1: q0 has exactly three HC-s-t paths
        assert len(paper_expect[0]) == 3

    def test_path_count_reported(self, paper_runs, paper_expect):
        want = sum(len(v) for v in paper_expect.values())
        for algo in ALGOS:
            assert paper_runs[algo].extras["n_paths"] == want, algo

    @pytest.mark.parametrize("algo", ALGOS)
    def test_exact_counts(self, paper_runs, algo):
        rr = paper_runs[algo]
        got = (rr.stats.expanded_rows, rr.stats.closed_rows, rr.stats.levels,
               rr.extras["n_paths"])
        assert got == EXACT_COUNTS[algo]

    def test_batch_shares_computation(self, paper_runs):
        # Ψ sharing must reduce expansion work vs BasicEnum on this batch.
        assert (
            paper_runs["batch"].stats.expanded_rows
            < paper_runs["basic"].stats.expanded_rows
        )

    def test_batch_found_sharing_edges(self, paper_runs):
        assert paper_runs["batch"].extras["n_shared_edges"] > 0
        assert paper_runs["batch"].extras["n_clusters"] == 2  # Example 4.1

    def test_stage_timings_present(self, paper_runs):
        assert set(paper_runs["batch+"].timings) == {
            "build_index", "cluster_query", "identify_subquery", "enumeration",
        }
        assert set(paper_runs["basic"].timings) == {"build_index", "enumeration"}

    def test_all_paths_respect_hop_constraint(self, paper_runs):
        qk = {q.qid: q.k for q in PAPER_Q}
        for r in paper_runs["batch"].results.collect():
            assert len(r["path"]) - 1 <= qk[r["qid"]]

    def test_all_paths_simple_and_anchored(self, paper_runs):
        qs = {q.qid: q for q in PAPER_Q}
        for r in paper_runs["batch+"].results.collect():
            p = r["path"]
            q = qs[r["qid"]]
            assert p[0] == q.s and p[-1] == q.t and len(set(p)) == len(p)


class TestTinyBatchCorrectness:
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_batch_any_gamma(self, spark, tiny_edges, tiny_queries, tiny_expect, gamma):
        rr = run_batch(spark, tiny_edges, tiny_queries, gamma=gamma)
        assert by_query(rr, tiny_queries) == tiny_expect

    def test_basic_and_optimized(self, spark, tiny_edges, tiny_queries, tiny_expect):
        assert by_query(run_basic(spark, tiny_edges, tiny_queries), tiny_queries) == tiny_expect
        assert (
            by_query(run_basic(spark, tiny_edges, tiny_queries, optimized=True), tiny_queries)
            == tiny_expect
        )

    def test_batch_optimized(self, spark, tiny_edges, tiny_queries, tiny_expect):
        rr = run_batch(spark, tiny_edges, tiny_queries, gamma=0.5, optimized=True)
        assert by_query(rr, tiny_queries) == tiny_expect

    def test_oracle_whole_batch(self, spark, tiny_edges, tiny_pdf, tiny_queries):
        rr = run_batch(spark, tiny_edges, tiny_queries, gamma=0.5)
        assert_equivalent(
            paths_as_strings(rr.results), st_paths_sql(tiny_queries), edges=tiny_pdf
        )


class TestDegenerateBatches:
    def test_single_query(self, spark, paper_edges, paper_adj):
        q = [Query(0, 0, 11, 5)]
        rr = run_batch(spark, paper_edges, q, gamma=0.5)
        assert by_query(rr, q)[0] == ref.enum_st_paths(paper_adj, 0, 11, 5)

    def test_identical_queries(self, spark, paper_edges, paper_adj):
        qs = [Query(i, 0, 11, 5) for i in range(3)]
        rr = run_batch(spark, paper_edges, qs, gamma=0.5)
        want = ref.enum_st_paths(paper_adj, 0, 11, 5)
        got = by_query(rr, qs)
        assert got[0] == got[1] == got[2] == want

    def test_query_with_no_paths(self, spark, paper_edges):
        # v14 is a sink: nothing reaches v0.
        qs = [Query(0, 14, 0, 4), Query(1, 0, 11, 5)]
        rr = run_batch(spark, paper_edges, qs, gamma=0.5)
        got = by_query(rr, qs)
        assert got[0] == set() and len(got[1]) == 3

    def test_k1_direct_edge(self, spark, paper_edges):
        qs = [Query(0, 0, 1, 1), Query(1, 0, 9, 1)]
        rr = run_basic(spark, paper_edges, qs)
        got = by_query(rr, qs)
        assert got[0] == {(0, 1)} and got[1] == set()

    def test_k2(self, spark, paper_edges, paper_adj):
        qs = [Query(0, 0, 9, 2)]
        rr = run_batch(spark, paper_edges, qs, gamma=0.5)
        assert by_query(rr, qs)[0] == ref.enum_st_paths(paper_adj, 0, 9, 2)

    def test_mixed_k_same_endpoints(self, spark, paper_edges, paper_adj):
        qs = [Query(0, 0, 11, 3), Query(1, 0, 11, 5), Query(2, 0, 11, 6)]
        rr = run_batch(spark, paper_edges, qs, gamma=0.3)
        got = by_query(rr, qs)
        for q in qs:
            assert got[q.qid] == ref.enum_st_paths(paper_adj, 0, 11, q.k), q


class TestSourceEqualsTarget:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_matches_reference_and_oracle(
        self, same_endpoint_runs, paper_adj, paper_pdf, algo
    ):
        rr = same_endpoint_runs[algo]
        want = {q.qid: ref.enum_st_paths(paper_adj, q.s, q.t, q.k) for q in SAME_ENDPOINT_Q}
        assert want[0] == set()
        assert by_query(rr, SAME_ENDPOINT_Q) == want
        assert rr.extras["n_paths"] == len(want[1])
        assert_equivalent(
            paths_as_strings(rr.results), st_paths_sql(SAME_ENDPOINT_Q), edges=paper_pdf
        )


class TestEmptyBatch:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_empty_result_without_spark_jobs(self, spark, paper_edges, algo):
        rr, jobs = spark_jobs_of(
            spark, f"empty-batch-{algo}", lambda: RUNNERS[algo](spark, paper_edges, [])
        )
        assert jobs == []
        assert rr.extras["n_paths"] == 0
        assert rr.results.count() == 0


class TestInputContract:
    BAD_BATCHES = {
        "negative-k": ([Query(0, 0, 11, 5), Query(1, 2, 13, -1)], "k must be >= 0"),
        "duplicate-qid": ([Query(0, 0, 11, 5), Query(0, 2, 13, 5)], "duplicate qid 0"),
    }

    @pytest.mark.parametrize("case", list(BAD_BATCHES))
    @pytest.mark.parametrize("algo", ALGOS)
    def test_rejected_before_any_spark_job(self, spark, paper_edges, algo, case):
        queries, message = self.BAD_BATCHES[case]

        def call():
            with pytest.raises(ValueError, match=message):
                RUNNERS[algo](spark, paper_edges, queries)

        _, jobs = spark_jobs_of(spark, f"bad-batch-{case}-{algo}", call)
        assert jobs == []


class TestDriverRowsThroughArrow:
    def test_guard_refuses_list_frames(self, spark):
        # paper_runs relies on this patch catching createDataFrame(list).
        with no_row_pickling(), pytest.raises(AssertionError, match="local_frame"):
            spark.createDataFrame([(1,)], "x long")
