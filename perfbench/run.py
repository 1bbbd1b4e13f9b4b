"""Warm batch-latency benchmark: BasicEnum vs BatchEnum on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sl-k2-many --seed 0 --seconds 10 --trace 0

One process launches one Spark session through ``jobs/_common.session()``,
builds the workload from ``--seed``, computes the reference answers, warms
both algorithms up, then times ``run_basic`` and ``run_batch(gamma=0.5)`` on
the same batch for ``--seconds`` seconds, alternating which runs first.
Every timed answer is checked against the pure-Python reference. With
``--trace 1`` one extra traced run per algorithm follows and the per-layer
metrics are printed instead (see ``perfbench/trace_layers.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. perfbench/README.md
documents every metric, workload and caveat.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import trace_layers

T_START = time.perf_counter()  # set-up is charged from here, before Spark loads

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"

ALGOS = ("basic", "batch")
GAMMA = 0.5
DATA_PREP_REPEATS = 3  # set-up's data preparation is repeated; its median counts
RETAINED = 100_000  # statusTracker must keep every job and stage of one process
WARMUP_ROUNDS = 1  # see README: what the time budget allows, and what it costs
END_TO_END = ("basic_s", "batch_s", "setup_s", "driver_peak_mb")


@dataclass(frozen=True)
class Workload:
    dataset: str
    n_queries: int
    k_range: tuple[int, int]
    share: float
    min_dist: int


WORKLOADS = {
    # Both workloads in BENCHMARK.json have k = 2: one-hop halves, so Ψ stays empty and
    # the Spark job count is the same at every seed (see README).
    "sl-k2-many": Workload("SL", 100, (2, 2), 0.3, 2),
    "wt-k2-disjoint": Workload("WT", 50, (2, 2), 0.0, 2),
    # ROADMAP W1: four Ψ levels, cache R in use. About three minutes per run.
    "sl-shared": Workload("SL", 50, (5, 6), 0.6, 5),
}


@dataclass
class Sample:
    """One call of one algorithm: its wall time and what it returned."""

    algo: str
    seconds: float
    result: object | None  # RunResult, or None if the call raised
    jobs: int = 0
    tasks: int = 0


@dataclass
class Check:
    """Correctness bookkeeping over every timed answer of the process."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.problems.append(msg)
        print(f"CHECK FAILED: {msg}", file=sys.stderr, flush=True)


def driver_mem() -> str:
    """Half the machine's memory in GiB, clamped to [2, 8] (the tier-1 rule)."""
    with open("/proc/meminfo") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return f"{min(8, max(2, kib // 2097152))}g"


def configure_launch() -> Path:
    """Pre-JVM settings: master, driver memory, UI off, job retention.

    Everything else (shuffle partitions, Arrow, broadcast threshold) comes
    from ``jobs/_common.session()``. Temporary files of Spark, the JVM and
    Python go to a fresh directory under ``.bench_build/``, so the run
    writes only in its checkout; the caller deletes it.
    """
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=SCRATCH))
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    args = [
        "--master", f"local[{len(os.sched_getaffinity(0))}]",
        "--driver-memory", driver_mem(),
        "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.ui.retainedJobs={RETAINED}",
        "--conf", f"spark.ui.retainedStages={RETAINED}",
        "pyspark-shell",
    ]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]
    return tmp


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM child process to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


def read_hwm_mb() -> float:
    with open("/proc/self/status") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kib / 1024


def reset_hwm() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


class Bench:
    """One workload in one Spark session: its data, calls and checks."""

    def __init__(self, spark, name: str, seed: int):
        from repro.core import basic_enum, batch_enum

        self.spark, self.sc = spark, spark.sparkContext
        self.wl, self.seed = WORKLOADS[name], seed
        self.fns = {
            "basic": lambda e, q: basic_enum.run_basic(self.spark, e, q),
            "batch": lambda e, q: batch_enum.run_batch(self.spark, e, q, gamma=GAMMA),
        }
        self.n_calls = 0
        self.counts: dict[str, set] = defaultdict(set)
        self.check = Check()

    # -- set-up ---------------------------------------------------------
    def prepare(self) -> float:
        """Graph build + cache, ``gen_queries`` and the reference answers."""
        from repro.core.queries import gen_queries
        from repro.core.ref_engine import basic_batch_ref
        from repro.graph.generators import DATASETS, edges_from_pandas, powerlaw_edges

        t0 = time.perf_counter()
        pdf = powerlaw_edges(DATASETS[self.wl.dataset])
        edges = edges_from_pandas(self.spark, pdf).cache()
        edges.count()
        adj: dict[int, list[int]] = defaultdict(list)
        radj: dict[int, list[int]] = defaultdict(list)
        for u, v in zip(pdf["src"].tolist(), pdf["dst"].tolist()):
            adj[u].append(v)
            radj[v].append(u)
        adj = {u: sorted(vs) for u, vs in adj.items()}
        radj = {u: sorted(vs) for u, vs in radj.items()}
        queries = gen_queries(
            adj, self.wl.n_queries, k_range=self.wl.k_range,
            share=self.wl.share, min_dist=self.wl.min_dist, seed=self.seed,
        )
        ref = basic_batch_ref(adj, radj, queries)
        self.edges, self.queries, self.ref = edges, queries, ref
        return time.perf_counter() - t0

    # -- one call -------------------------------------------------------
    def call(self, algo: str) -> Sample:
        """Run one algorithm on the batch; its own final ``count()`` is inside."""
        self.n_calls += 1
        group = f"untraced.{algo}.{self.n_calls}"
        self.sc.setJobGroup(group, group)
        t0 = time.perf_counter()
        try:
            res = self.fns[algo](self.edges, self.queries)
        except Exception:  # a raising run fails all its answers; keep going
            traceback.print_exc(file=sys.stderr)
            res = None
        sample = Sample(algo, time.perf_counter() - t0, res)
        self.sc.setLocalProperty(trace_layers.GROUP_KEY, None)
        self.sc.setLocalProperty(trace_layers.DESC_KEY, None)
        st = trace_layers.group_spark_stats(self.sc, [group])
        sample.jobs, sample.tasks = st["jobs"], st["tasks"]
        self.record_counts(sample)
        return sample

    def pair(self, rep: int) -> list[Sample]:
        """Both algorithms once; the first one alternates with ``rep``."""
        order = ALGOS[::-1] if rep % 2 == 0 else ALGOS
        return [self.call(a) for a in order]

    def record_counts(self, s: Sample) -> None:
        """Exact counts, which must not vary between runs of one workload."""
        if s.result is None:
            return
        st, ex = s.result.stats, s.result.extras
        key = (st.expanded_rows, st.closed_rows, st.levels, ex.get("n_paths"),
               ex.get("n_nodes"), ex.get("n_shared_edges"), ex.get("n_levels"),
               ex.get("n_clusters"))
        self.counts[s.algo].add(key)

    # -- correctness ----------------------------------------------------
    def check_answers(self, s: Sample) -> None:
        n = len(self.queries)
        self.check.attempted += n
        if s.result is None:
            self.check.failed += n
            self.check.fail(f"{s.algo} raised; {n} answers failed")
            return
        pdf = s.result.results.toPandas()
        got: dict[int, list[tuple[int, ...]]] = defaultdict(list)
        for qid, path in zip(pdf["qid"].tolist(), pdf["path"].tolist()):
            got[int(qid)].append(tuple(int(v) for v in path))
        if set(got) - set(self.ref):  # rows for a qid not in the batch
            bad = list(self.ref)
        else:
            bad = [qid for qid, paths in self.ref.items()
                   if len(got[qid]) != len(paths) or set(got[qid]) != paths]
        if bad:
            self.check.failed += len(bad)
            self.check.fail(f"{s.algo}: {len(bad)} answers differ from the reference "
                            f"(qids {bad[:10]}{' ...' if len(bad) > 10 else ''})")

    def check_counts(self) -> None:
        """Counts are constant per algorithm, and both algorithms' ``n_paths``
        equal the reference's (hence each other's)."""
        want = sum(len(p) for p in self.ref.values())
        for algo in ALGOS:
            keys = self.counts[algo]
            if len(keys) > 1:
                self.check.fail(f"{algo}: exact counts vary between runs: {sorted(keys)}")
            for key in keys:
                if key[3] != want:
                    self.check.fail(f"{algo}: n_paths {key[3]} != reference {want}")


def summarize(values: list[float]) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def run(args) -> dict:
    import _common  # jobs/_common.py: the program's own session settings
    import repro

    if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    spark = _common.session("perfbench")
    try:
        spark.sparkContext.setLogLevel("ERROR")
        return measure(spark, args)
    finally:
        t0 = time.perf_counter()
        stop_spark(spark)
        print(f"teardown {time.perf_counter() - t0:.3f} s; "
              f"process {time.perf_counter() - T_START:.3f} s", file=sys.stderr, flush=True)


def measure(spark, args) -> dict:
    b = Bench(spark, args.workload, args.seed)

    prep = []
    for _ in range(DATA_PREP_REPEATS):
        if prep:
            b.edges.unpersist()
        prep.append(b.prepare())
    print(f"workload {args.workload}: {len(b.queries)} queries, seed {args.seed}, "
          f"{sum(len(p) for p in b.ref.values())} reference paths; "
          f"data prep {summarize(prep)} s", flush=True)

    # Warm-up, then the timed repetitions; each repetition runs both
    # algorithms and the one that goes first alternates.
    warm: dict[str, list[float]] = defaultdict(list)
    for rep in range(WARMUP_ROUNDS):
        for s in b.pair(rep):
            warm[s.algo].append(s.seconds)
    for algo in ALGOS:
        print(f"warm-up {algo}: {summarize(warm[algo])} s", flush=True)

    t_first = time.perf_counter()
    setup_s = (t_first - T_START) - sum(prep) + statistics.median(prep)

    reset_hwm()
    timed: list[Sample] = []
    rep = 0
    while rep == 0 or time.perf_counter() - t_first < args.seconds:
        timed += b.pair(rep + WARMUP_ROUNDS)
        rep += 1
    peak_mb = read_hwm_mb()

    for s in timed:
        b.check_answers(s)
    traced = None
    if args.trace:
        traced = trace_layers.traced_pair(b, {a: [s.seconds for s in timed if s.algo == a] for a in ALGOS})
        for algo, wall, res in traced.calls:
            sample = Sample(algo, wall, res)
            b.record_counts(sample)
            b.check_answers(sample)
        print("traced run (self seconds per layer):", *traced.table, sep="\n", flush=True)
    b.check_counts()

    secs = {a: [s.seconds for s in timed if s.algo == a] for a in ALGOS}
    report = {
        "basic_s": (statistics.median(secs["basic"]), "s"),
        "batch_s": (statistics.median(secs["batch"]), "s"),
        "setup_s": (setup_s, "s"),
        "fail_rate": (b.check.failed / b.check.attempted, "ratio"),
        "driver_peak_mb": (peak_mb, "MB"),
    }
    for name, (value, unit) in report.items():
        print(f"{name} = {value:.4f} {unit}", flush=True)
    for algo in ALGOS:
        ss = [s for s in timed if s.algo == algo]
        print(f"{algo}: {len(ss)} timed runs [{summarize(secs[algo])}] s; "
              f"spark jobs {sorted(s.jobs for s in ss)}, tasks {sorted(s.tasks for s in ss)}; "
              f"exact counts {sorted(b.counts[algo])}", flush=True)

    if traced is not None:
        metrics = traced.metrics
    else:
        metrics = {k: report[k] for k in END_TO_END}
    return {
        "correct": not b.check.problems,
        "attempted": b.check.attempted,
        "failed": b.check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    missing = [str(p) for p in (ROOT / "src" / "repro" / "__init__.py", ROOT / "jobs" / "_common.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    tmp = configure_launch()
    try:
        out = run(args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
