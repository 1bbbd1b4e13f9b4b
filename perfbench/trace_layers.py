"""Traced run: per-layer spans recorded from outside the library.

For one call of each algorithm, the public function of every layer is
replaced, where the drivers look it up, by a wrapper that

* sets the Spark job group ``<algo>.<layer>[.L<i>]`` and restores the
  enclosing group on exit, so ``statusTracker`` attributes jobs per layer;
* records wall time and the ``time.process_time()`` delta (driver CPU;
  wall − CPU is roughly the time spent waiting on the JVM);
* after its span has closed, takes the layer's row counts. Counting may run
  Spark jobs; they go to the group ``<algo>.trace`` and their time is
  charged to the tracer, not to any layer.

The wrappers exist only inside :func:`traced_pair` and are removed
afterwards. Spark is lazy: time measured from outside lands wherever an
action fires, and what no layer covers is reported as ``unattributed``.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from unittest import mock

GROUP_KEY = "spark.jobGroup.id"
DESC_KEY = "spark.job.description"


def group_spark_stats(sc, groups: list[str]) -> dict[str, int]:
    """Jobs, stages, tasks and failed tasks of the given Spark job groups."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # status events arrive async
    st = sc.statusTracker()
    jobs = [j for g in groups for j in st.getJobIdsForGroup(g)]
    stage_ids = set()
    for j in jobs:
        info = st.getJobInfo(j)
        if info is not None:
            stage_ids.update(info.stageIds)
    stages = tasks = failed = 0
    for s in stage_ids:
        info = st.getStageInfo(s)
        if info is None or info.numCompletedTasks + info.numFailedTasks == 0:
            continue  # skipped: its shuffle output was reused
        stages += 1
        tasks += info.numCompletedTasks
        failed += info.numFailedTasks
    return {"jobs": len(jobs), "stages": stages, "tasks": tasks, "failed_tasks": failed}


def _frame_rows(out, args, kwargs) -> dict:
    frames = out if isinstance(out, tuple) else (out,)
    return {"rows": sum(f.count() for f in frames if f is not None)}


def _gamma_rows(out, args, kwargs) -> dict:
    from repro.core.similarity import gamma_members

    fwd, bwd, queries = args
    return {"members": gamma_members(fwd, queries, by_target=False).count()
            + gamma_members(bwd, queries, by_target=True).count()}


def _clusters(out, args, kwargs) -> dict:
    return {"clusters": len(out), "merges": len(args[1]) - len(out)}


def _adjacency(out, args, kwargs) -> dict:
    return {"edges": sum(len(vs) for vs in out.values())}


def _dists(out, args, kwargs) -> dict:
    return {"dist_rows": sum(len(d) for d in out.values())}


def _plan(out, args, kwargs) -> dict:
    return {"nodes": len(out.nodes), "psi_edges": len(out.edges),
            "levels": len(out.topo_levels), "stops": len(out.stops),
            "prune_pairs": len(out.prune_pairs)}


# (layer, module run_basic/run_batch look the name up in, name, counter, per-call)
PATCHES = [
    ("index", "repro.core.index", "bidirectional_index", _frame_rows, False),
    ("similarity", "repro.core.batch_enum", "pairwise_mu", _gamma_rows, False),
    ("clustering", "repro.core.batch_enum", "cluster_queries", _clusters, False),
    ("collect", "repro.core.batch_enum", "collect_adjacency", _adjacency, False),
    ("collect", "repro.core.batch_enum", "reverse_adjacency", None, False),
    ("collect", "repro.core.index", "collect_dists", _dists, False),
    ("sharing", "repro.core.batch_enum", "build_shared_plan", _plan, False),
    ("sharing", "repro.core.basic_enum", "build_basic_plan", _plan, False),
    # run_batch imports build_allow inside its body; run_basic reaches it
    # through enumerate_nodes, so for BasicEnum it nests inside enumerate.
    ("allow", "repro.core.enumeration", "build_allow", _frame_rows, False),
    ("enumerate", "repro.core.batch_enum", "enumerate_nodes", None, True),
    ("enumerate", "repro.core.basic_enum", "enumerate_nodes", None, True),
]
LAYERS = {
    "basic": ("index", "sharing", "allow", "enumerate"),
    "batch": ("index", "similarity", "clustering", "collect", "sharing", "allow", "enumerate"),
}
# Which of driver CPU, Spark jobs and tasks each layer reports.
EXTRA = {
    "index": ("jobs", "tasks"),
    "similarity": ("cpu_s", "jobs"),
    "clustering": ("cpu_s",),
    "collect": ("cpu_s", "jobs"),
    "sharing": ("cpu_s",),
    "allow": ("jobs",),
    "enumerate": ("jobs", "tasks"),
}
N_LEVEL_METRICS = 1  # per-call metrics reported for L1 .. L<N>


@dataclass
class Span:
    layer: str
    group: str
    s: float = 0.0
    cpu_s: float = 0.0
    inner_s: float = 0.0  # nested spans and trace bookkeeping inside this one
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.s - self.inner_s


class Tracer:
    """Spans of one traced call, kept in memory until the call ends."""

    def __init__(self, sc, algo: str):
        self.sc, self.algo = sc, algo
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.calls: dict[str, int] = {}
        self.bookkeeping_s = 0.0

    def _set_group(self, group: str | None, desc: str | None) -> None:
        self.sc.setLocalProperty(GROUP_KEY, group)
        self.sc.setLocalProperty(DESC_KEY, desc)

    def wrap(self, layer, fn, counter, per_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = self.calls[layer] = self.calls.get(layer, 0) + 1
            group = f"{self.algo}.{layer}" + (f".L{n}" if per_call else "")
            span = Span(layer, group)
            prev = (self.sc.getLocalProperty(GROUP_KEY), self.sc.getLocalProperty(DESC_KEY))
            stats = kwargs.get("stats") if per_call else None
            before = None if stats is None else (stats.expanded_rows, stats.closed_rows, stats.levels)
            self._set_group(group, group)
            self.stack.append(span)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.s = time.perf_counter() - t0
                span.cpu_s = time.process_time() - c0
                self.stack.pop()
                self._set_group(*prev)
            t1 = time.perf_counter()
            if before is not None:
                span.counts = {
                    "expanded_rows": stats.expanded_rows - before[0],
                    "closed_rows": stats.closed_rows - before[1],
                    "hops": stats.levels - before[2],
                }
            if counter is not None:
                self._set_group(f"{self.algo}.trace", "trace bookkeeping")
                try:
                    span.counts = counter(out, args, kwargs)
                finally:
                    self._set_group(*prev)
            book = time.perf_counter() - t1
            self.bookkeeping_s += book
            if self.stack:
                self.stack[-1].inner_s += span.s + book
            self.spans.append(span)
            return out

        return wrapper

    @contextmanager
    def patched(self):
        """Install every wrapper; the originals are back on exit."""
        with ExitStack() as stack:
            for layer, mod, name, counter, per_call in PATCHES:
                module = importlib.import_module(mod)
                wrapper = self.wrap(layer, getattr(module, name), counter, per_call)
                stack.enter_context(mock.patch.object(module, name, wrapper))
            yield


@dataclass
class Traced:
    calls: list[tuple[str, float, object]]  # (algo, traced wall, RunResult)
    metrics: dict[str, tuple[float, str]]
    table: list[str]


def _layer_metrics(sc, tr: Tracer, wall: float, untraced_median: float) -> tuple[dict, list[str]]:
    a = tr.algo
    m: dict[str, tuple[float, str]] = {}
    table = []
    missing = [lay for lay in LAYERS[a] if lay not in tr.calls]
    if missing:
        raise RuntimeError(f"{a}: wrapped layers did not fire: {missing}")
    layer_self = 0.0
    for layer in LAYERS[a]:
        spans = [sp for sp in tr.spans if sp.layer == layer]
        groups = sorted({sp.group for sp in spans})
        st = group_spark_stats(sc, groups)
        s = sum(sp.self_s for sp in spans)
        cpu = sum(sp.cpu_s for sp in spans)
        layer_self += s
        m[f"{a}.{layer}.s"] = (s, "s")
        for k, v in (("cpu_s", (cpu, "s")), ("jobs", (st["jobs"], "count")),
                     ("tasks", (st["tasks"], "count"))):
            if k in EXTRA[layer]:
                m[f"{a}.{layer}.{k}"] = v
        totals: dict[str, int] = {}
        for sp in spans:
            for k, v in sp.counts.items():
                totals[k] = totals.get(k, 0) + v
        for k, v in totals.items():
            m[f"{a}.{layer}.{k}"] = (v, "count")
        if layer == "enumerate":
            m[f"{a}.enumerate.calls"] = (len(spans), "count")
        table.append(f"  {a}.{layer:<12} self {s:8.3f} s  cpu {cpu:7.3f} s  "
                     f"jobs {st['jobs']:4d}  tasks {st['tasks']:5d}  {totals}")
        if layer == "enumerate":
            for i, sp in enumerate(spans, 1):
                lst = group_spark_stats(sc, [sp.group])
                table.append(f"    L{i}: self {sp.self_s:8.3f} s  jobs {lst['jobs']:4d}  {sp.counts}")
                if i <= N_LEVEL_METRICS:
                    m[f"{a}.enumerate.L{i}.s"] = (sp.self_s, "s")
                    m[f"{a}.enumerate.L{i}.jobs"] = (lst["jobs"], "count")
                    m[f"{a}.enumerate.L{i}.expanded_rows"] = (sp.counts["expanded_rows"], "count")
    unattributed = wall - layer_self - tr.bookkeeping_s
    if unattributed < -1e-6:
        raise RuntimeError(f"{a}: layer spans overlap ({unattributed:.6f} s unattributed)")
    base = group_spark_stats(sc, [f"{a}.unattributed"])
    m[f"{a}.unattributed.s"] = (unattributed, "s")
    m[f"{a}.unattributed.jobs"] = (base["jobs"], "count")
    m[f"{a}.unattributed.tasks"] = (base["tasks"], "count")
    run_groups = [f"{a}.unattributed"] + sorted({sp.group for sp in tr.spans})
    for k, v in group_spark_stats(sc, run_groups).items():
        m[f"{a}.spark.{k}"] = (v, "count")
    m[f"{a}.trace.wall_s"] = (wall, "s")
    m[f"{a}.trace.overhead_s"] = (wall - untraced_median, "s")
    table.append(f"  {a}.unattributed self {unattributed:8.3f} s  jobs {base['jobs']:4d}; "
                 f"layers {layer_self:.3f} + unattributed {unattributed:.3f} + bookkeeping "
                 f"{tr.bookkeeping_s:.3f} = traced wall {wall:.3f} s; untraced median "
                 f"{untraced_median:.3f} s; tracing overhead {wall - untraced_median:+.3f} s")
    return m, table


def traced_pair(bench, untraced: dict[str, list[float]]) -> Traced:
    """One traced call of each algorithm, after the untraced timed runs."""
    sc = bench.sc
    calls, metrics, table = [], {}, []
    for algo in ("basic", "batch"):
        tr = Tracer(sc, algo)
        with tr.patched():
            sc.setJobGroup(f"{algo}.unattributed", f"{algo}.unattributed")
            t0 = time.perf_counter()
            try:
                res = bench.fns[algo](bench.edges, bench.queries)
            finally:
                wall = time.perf_counter() - t0
                sc.setLocalProperty(GROUP_KEY, None)
                sc.setLocalProperty(DESC_KEY, None)
        calls.append((algo, wall, res))
        m, t = _layer_metrics(sc, tr, wall, statistics.median(untraced[algo]))
        metrics.update(m)
        table += t
        paths = res.extras["n_paths"]
        rows = metrics[f"{algo}.enumerate.expanded_rows"][0]
        metrics[f"{algo}.enumerate.paths_per_row"] = (paths / rows if rows else 0.0, "ratio")
    basic_rows = metrics["basic.enumerate.expanded_rows"][0]
    batch_rows = metrics["batch.enumerate.expanded_rows"][0]
    metrics["batch.enumerate.sharing_factor"] = (basic_rows / batch_rows, "ratio")
    return Traced(calls, metrics, table)
