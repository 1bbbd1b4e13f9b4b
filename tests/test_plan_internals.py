"""Invariants of the shared execution plan on randomized batches: depth cap,
prune-pair propagation, stop-rule/provider consistency."""
from __future__ import annotations

from collections import defaultdict

import pytest

from repro.core import ref_engine as ref
from repro.core.queries import gen_queries
from repro.core.sharing import build_shared_plan, default_split


def dist_maps(adj, roots, k):
    return {r: ref.bfs_dists(adj, r, k) for r in roots}


@pytest.fixture(scope="module", params=[0.0, 0.7])
def rand_plan(request, tiny_adj, tiny_radj):
    qs = gen_queries(tiny_adj, 12, k_range=(3, 5), share=request.param, seed=5)
    splits = {q.qid: default_split(q) for q in qs}
    k = max(q.k for q in qs)
    clusters = [[q.qid for q in qs]]  # single cluster: max sharing stress
    plan = build_shared_plan(
        qs, clusters, splits, tiny_adj, tiny_radj,
        dist_maps(tiny_adj, [q.s for q in qs], k),
        dist_maps(tiny_radj, [q.t for q in qs], k),
    )
    return qs, plan


class TestPlanInvariants:
    def test_depth_cap_respected(self, rand_plan):
        _, plan = rand_plan
        assert len(plan.topo_levels) <= 4  # default max_depth

    def test_levels_partition_nodes(self, rand_plan):
        _, plan = rand_plan
        flat = [n.nid for level in plan.topo_levels for n in level]
        assert sorted(flat) == sorted(n.nid for n in plan.nodes)

    def test_edges_point_forward_in_levels(self, rand_plan):
        _, plan = rand_plan
        order = {
            n.nid: i for i, level in enumerate(plan.topo_levels) for n in level
        }
        for e in plan.edges:
            assert order[e.provider] < order[e.consumer]

    def test_every_query_has_both_nodes(self, rand_plan):
        qs, plan = rand_plan
        nodes = {n.nid: n for n in plan.nodes}
        for p in plan.plans:
            assert nodes[p.fnid].side == "F" and nodes[p.fnid].root == p.s
            assert nodes[p.bnid].side == "B" and nodes[p.bnid].root == p.t
            assert nodes[p.fnid].budget >= p.a
            assert nodes[p.bnid].budget >= p.k - p.a

    def test_provider_side_matches_consumer(self, rand_plan):
        _, plan = rand_plan
        nodes = {n.nid: n for n in plan.nodes}
        for e in plan.edges:
            assert nodes[e.provider].side == nodes[e.consumer].side

    def test_provider_budget_at_least_attach_remaining(self, rand_plan):
        _, plan = rand_plan
        nodes = {n.nid: n for n in plan.nodes}
        for e in plan.edges:
            assert nodes[e.provider].budget >= e.ra
            assert nodes[e.consumer].budget >= e.ra

    def test_stop_rules_unique_per_vertex(self, rand_plan):
        _, plan = rand_plan
        seen = set()
        for s in plan.stops:
            assert (s.nid, s.stop_v) not in seen
            seen.add((s.nid, s.stop_v))

    def test_initial_prune_caps_cover_consumers(self, rand_plan):
        """Propagated caps must be at least as loose as each query's own
        requirement on its initial nodes (nothing a consumer needs may be
        pruned away — DESIGN.md §2)."""
        qs, plan = rand_plan
        caps = defaultdict(lambda: -1)
        for nid, t, cap in plan.prune_pairs:
            caps[(nid, t)] = max(caps[(nid, t)], cap)
        for p in plan.plans:
            assert caps[(p.fnid, p.t)] >= p.k
            assert caps[(p.bnid, p.s)] >= p.k

    def test_dominating_nodes_have_budget_ge_2(self, rand_plan):
        qs, plan = rand_plan
        initial_roots = {(n.root, n.side) for p in plan.plans for n in []}
        init_nids = {p.fnid for p in plan.plans} | {p.bnid for p in plan.plans}
        for n in plan.nodes:
            if n.nid not in init_nids:
                assert n.budget >= 2  # submarginal sharing suppressed

    def test_every_node_has_a_usable_prune_pair(self, rand_plan):
        """enumerate_nodes prunes a node without a pair of cap ≥ 1 to its seed."""
        _, plan = rand_plan
        pruned = {nid for nid, _, cap in plan.prune_pairs if cap >= 1}
        assert {n.nid for n in plan.nodes} <= pruned

    def test_no_self_edges(self, rand_plan):
        _, plan = rand_plan
        for e in plan.edges:
            assert e.provider != e.consumer
