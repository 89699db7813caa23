"""PR 9 — branch-and-bound vertex separation: equivalence and threading.

Three layers of assurance for the new default exact engine:

* **B&B ≡ subset DP** — a hypothesis suite draws random (possibly
  disconnected) graphs up to the DP's comfortable size and asserts the
  two engines agree on the exact width, and that every B&B ordering
  validates through the interval-representation / path-decomposition
  constructors (which re-check the structural invariants);
* **regression corpus** — graph families with known pathwidth, sized
  well past the old ``_EXACT_LIMIT`` wall, must come back optimal;
* **knob threading** — ``exact_limit`` / ``exact_budget_ms`` reach the
  decompose stage through the facade/session, and the run's
  ``decomposition_stats`` survive the report round-trip and feed the
  service metrics.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import certify
from repro.api.results import CertificationReport
from repro.graphs import Graph
from repro.graphs.generators import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    ladder_graph,
    path_graph,
    random_pathwidth_graph,
    star_graph,
)
from repro.pathwidth import (
    IntervalRepresentation,
    PathDecomposition,
    branch_and_bound_decomposition,
    branch_and_bound_ordering,
    exact_pathwidth,
)
from repro.pathwidth.heuristics import heuristic_path_decomposition
from repro.service.metrics import ServiceMetrics


def _random_graph(rng: random.Random, n: int) -> Graph:
    """A random graph on ``n`` vertices (connectivity not enforced)."""
    g = Graph(vertices=range(n))
    p = rng.choice((0.15, 0.3, 0.5))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


class TestEquivalenceWithDP:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 14))
    def test_width_matches_subset_dp(self, seed, n):
        g = _random_graph(random.Random(seed), n)
        assert exact_pathwidth(g, engine="bnb") == exact_pathwidth(
            g, engine="dp"
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    def test_ordering_validates_and_achieves_width(self, seed, n):
        g = _random_graph(random.Random(seed), n)
        result = branch_and_bound_ordering(g)
        assert result.optimal
        assert sorted(result.ordering) == sorted(g.vertices())
        rep = IntervalRepresentation.from_ordering(g, result.ordering)
        decomposition = PathDecomposition.from_interval_representation(rep)
        assert decomposition.width() == result.width
        assert result.width == exact_pathwidth(g, engine="dp")

    def test_seed_never_beaten_by_result(self):
        # Anytime contract: the returned width is never worse than the
        # heuristic portfolio's, even on instances the search completes.
        for seed in range(5):
            g = _random_graph(random.Random(seed), 20)
            result = branch_and_bound_ordering(g)
            assert result.width <= result.stats.seed_width


class TestRegressionCorpus:
    # Known-pathwidth families, all past the old exact-DP n<=14 wall.
    @pytest.mark.parametrize(
        "graph, expected",
        [
            (path_graph(40), 1),
            (cycle_graph(40), 2),
            (star_graph(25), 1),
            (caterpillar_graph(10, 2), 1),
            (ladder_graph(15), 2),
            (complete_graph(9), 8),
            (grid_graph(3, 12), 3),
            (grid_graph(4, 8), 4),
        ],
    )
    def test_known_families(self, graph, expected):
        result = branch_and_bound_ordering(graph)
        assert result.optimal
        assert result.width == expected

    def test_planted_pathwidth_instances(self):
        for seed in range(3):
            g, _bags = random_pathwidth_graph(
                50, 4, rng=random.Random(seed)
            )
            result = branch_and_bound_ordering(g, budget_ms=10_000)
            assert result.width <= 4
            assert sorted(result.ordering) == sorted(g.vertices())

    def test_empty_graph(self):
        result = branch_and_bound_ordering(Graph())
        assert result.width == -1
        assert result.ordering == []
        assert result.optimal


class TestBudget:
    def test_budget_keeps_anytime_invariants(self):
        g = _random_graph(random.Random(11), 60)
        result = branch_and_bound_ordering(g, budget_ms=5)
        # A 5ms budget may or may not prove optimality (the lower bound
        # can close it instantly) — but the anytime invariants hold.
        assert sorted(result.ordering) == sorted(g.vertices())
        assert result.width <= result.stats.seed_width
        if not result.optimal:
            assert result.stats.timed_out

    @pytest.mark.parametrize(
        "graph, expected", [(path_graph(40), 1), (cycle_graph(30), 2)]
    )
    def test_incumbent_at_lower_bound_is_optimal_past_deadline(
        self, graph, expected
    ):
        # The seed already meets the lower bound: optimality is proven
        # without expanding a node, whatever the clock says.
        result = branch_and_bound_ordering(graph, budget_ms=1e-6)
        assert result.width == result.stats.lower_bound == expected
        assert result.optimal
        assert not result.stats.timed_out
        assert exact_pathwidth(graph, budget_ms=1e-6) == expected

    def test_stats_to_dict_keys(self):
        g = grid_graph(3, 5)
        result = branch_and_bound_ordering(g)
        stats = result.stats.to_dict()
        for key in (
            "nodes_expanded",
            "memo_hits",
            "memo_entries",
            "greedy_commits",
            "components",
            "lower_bound",
            "seed_width",
            "elapsed_ms",
            "budget_ms",
            "timed_out",
        ):
            assert key in stats

    def test_decomposition_pairs_with_result(self):
        g = cycle_graph(12)
        decomposition, result = branch_and_bound_decomposition(g)
        assert decomposition.width() == result.width == 2


class TestKnobThreading:
    def test_graph_mode_records_bnb_stats(self):
        g = path_graph(10)
        report = certify(g, "connected", k=2, verify=False)
        stats = report.decomposition_stats
        assert stats is not None
        assert stats["engine"] == "bnb"
        assert stats["optimal"] is True
        assert stats["width"] == 1
        assert "bnb width 1" in report.summary()

    def test_small_host_search_is_complete_under_any_budget(self):
        # n <= exact_limit gets the complete search the docs promise; a
        # budget only governs hosts above the limit.
        g, _bags = random_pathwidth_graph(14, 3, rng=random.Random(3))
        report = certify(
            g, "connected", k=3, verify=False, exact_budget_ms=1e-6
        )
        stats = report.decomposition_stats
        assert stats["engine"] == "bnb"
        assert stats["optimal"] is True
        assert stats["timed_out"] is False

    def test_large_graph_defaults_to_heuristic(self):
        g, _bags = random_pathwidth_graph(40, 3, rng=random.Random(2))
        report = certify(g, "connected", k=6, verify=False)
        assert report.decomposition_stats["engine"] == "heuristic"

    def test_budget_authorizes_bnb_past_the_gate(self):
        g, _bags = random_pathwidth_graph(40, 3, rng=random.Random(2))
        report = certify(
            g, "connected", k=6, verify=False, exact_budget_ms=5_000
        )
        stats = report.decomposition_stats
        assert stats["engine"] == "bnb"
        heuristic = heuristic_path_decomposition(g).width()
        assert stats["width"] <= heuristic
        assert stats["heuristic_width"] == heuristic

    def test_report_roundtrip_preserves_stats(self):
        g = path_graph(8)
        report = certify(g, "connected", k=2, verify=False)
        rebuilt = CertificationReport.from_dict(report.to_dict())
        assert rebuilt.decomposition_stats == report.decomposition_stats

    def test_service_metrics_decomposition_counters(self):
        metrics = ServiceMetrics()
        metrics.decomposition_run(
            {
                "engine": "bnb",
                "nodes_expanded": 12,
                "memo_hits": 3,
                "timed_out": False,
                "width": 4,
                "heuristic_width": 5,
            }
        )
        metrics.decomposition_run(
            {
                "engine": "heuristic",
                "width": 6,
                "heuristic_width": 6,
                "timed_out": True,
            }
        )
        snapshot = metrics.snapshot()["decomposition"]
        assert snapshot["engines"] == {"bnb": 1, "heuristic": 1}
        assert snapshot["nodes_expanded"] == 12
        assert snapshot["memo_hits"] == 3
        assert snapshot["timeouts"] == 1
        assert snapshot["width_improvements"] == 1
